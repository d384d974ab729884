"""Polar frequency-domain inversion along v parallel to xi.

Uses the factorization P_hat(sigma theta, r theta) = fhat(sigma theta)
hhat(-r sigma): the u-transform of each slice is summed exactly along
its ray, dividing the r-integral of data times conj(hhat(-r sigma))
(hhat(r sigma) for a real window) by the matching window integral
recovers fhat on polar rays, and a direct polar sum synthesizes f.  Both sums factor per axis on a tensor grid
(exp(-i sigma theta.x) = prod_a exp(-i sigma theta_a x_a)).

The per-sigma normalization uses the *same* trapezoid rule on |hhat(-r
sigma)|^2 as the data integral, so the finite r coverage cancels instead
of acting as a high-pass; as the r grid grows this reduces to the
analytic constant |sigma|^-1 int_0^inf |hhat|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NumericalError, ValidationError
from .fields import ScalarField
from .forward import WRTData
from .quad import trapezoid_weights
from .windows import _resolve_constant, window_constants, window_ft

__all__ = [
    "PolarSpectralSamples",
    "extract_polar_spectrum",
    "reconstruct_t2",
    "paper_constant_t2",
]


@dataclass(frozen=True)
class PolarSpectralSamples:
    """P_hat(sigma theta_j, r_m theta_j) on directions x sigma x radii."""

    angles: np.ndarray        # (Ntheta,)
    sigma: np.ndarray         # (Nsigma,), >= 0
    radii: np.ndarray         # (Nr,), > 0
    values: np.ndarray        # (Ntheta, Nsigma, Nr) complex
    window: object = None

    def __post_init__(self):
        if np.any(np.asarray(self.radii) <= 0):
            raise ValidationError("window radii must be positive")
        if np.any(np.asarray(self.sigma) < 0):
            raise ValidationError("sigma grid must be non-negative")


def extract_polar_spectrum(data, sigma):
    """P_hat(sigma theta_j, r_m theta_j) for every slice of polar-vset data.

    The continuous u-transform is the exact sum along each ray,
    cell_volume * sum_x P(x, v) exp(-i sigma theta_j.x), evaluated per
    direction for all radii at once, on the direction's contiguous block of
    v-major slices.  Anything but polar-vset WRTData on a
    2-D u grid, and sigma beyond ``u_grid.nyquist``, is rejected.  Returns
    PolarSpectralSamples over the data's own direction/radius sets.
    """
    if not isinstance(data, WRTData) or data.vset.mode != "polar" or data.u_grid.n != 2:
        raise ValidationError("extract_polar_spectrum consumes polar-vset WRTData on a 2-D grid")
    sigma = np.asarray(sigma, dtype=float)
    u_grid = data.u_grid
    nyq = u_grid.nyquist
    if np.any(sigma > nyq + 1e-12):
        raise ValidationError(f"sigma grid exceeds the Nyquist band ({nyq:.3g})")
    dirs, radii = data.vset.directions, data.vset.radii
    nt, nr = dirs.shape[0], radii.size
    x1, x2 = u_grid.axis_coords(0), u_grid.axis_coords(1)
    # (Ntheta, Nr, N_1, N_2): the slices of direction k are one block [k]
    blocks = data.values.T.reshape(nt, nr, *u_grid.shape)
    out = np.empty((nt, sigma.size, nr), dtype=complex)
    for k in range(nt):
        E1 = np.exp(-1j * np.multiply.outer(sigma * dirs[k, 0], x1))
        E2 = np.exp(-1j * np.multiply.outer(sigma * dirs[k, 1], x2))
        acc = E1 @ blocks[k]  # (Nr, Nsigma, N_2)
        out[k] = u_grid.cell_volume * np.einsum("sj,rsj->sr", E2, acc)
    return PolarSpectralSamples(np.arctan2(dirs[:, 1], dirs[:, 0]), sigma, radii, out,
                                window=data.window)


def paper_constant_t2(w, n):
    """Verbatim statement constant 2^-n-1 pi^-n / int |h|^2 dt."""
    c = window_constants(w)
    return 2.0 ** (-(n + 1)) * np.pi ** (-n) / c.c_h2


def _r_weights(radii):
    wr = trapezoid_weights(radii)
    wr[0] += radii[0]  # extend the first panel to r = 0
    return wr


def reconstruct_t2(samples, w, grid, constant_mode="theory", alpha=None):
    """Synthesize f on ``grid`` from polar spectral samples (n = 2).

    inner(sigma, theta) = sum_r w_r P_hat(sigma theta, r theta) conj(hhat(-r sigma))
    fhat(sigma theta)   = inner / N(sigma),  N = sum_r w_r |hhat(-r sigma)|^2
    f(x) = (2 pi)^-2 sum_theta sum_sigma fhat e^{i sigma theta.x} sigma dsigma dtheta

    constant_mode 'paper' instead applies the statement constant to the
    unnormalized inner integral (kernel sigma^n); 'calibrated' scales the
    normalized synthesis by alpha; 'raw' omits the (2 pi)^-n factor.
    """
    if not w.is_real:
        raise HypothesisError("inversion requires a real window")
    if grid.n != 2:
        raise ValidationError("synthesis implemented for n = 2")
    const = _resolve_constant(constant_mode, alpha, lambda: paper_constant_t2(w, grid.n),
                              lambda: (2.0 * np.pi) ** (-grid.n))
    vals = samples.values
    if vals.size == 0:
        raise ValidationError("empty sample set")
    sigma = samples.sigma
    radii = samples.radii
    wr = _r_weights(radii)
    # conj(hhat(-r sigma)), (Nsigma, Nr): hhat(r sigma) for a real window,
    # the conjugate t1 takes (P_hat = fhat(sigma theta) hhat(-r sigma))
    hh = np.conj(window_ft(w, -np.multiply.outer(sigma, radii)))
    hmax = np.max(np.abs(hh)) or 1.0
    hh = np.where(np.abs(hh) < 1e-14 * hmax, 0.0, hh)  # drop the decayed tail
    inner = np.einsum("ksr,sr,r->ks", vals, hh, wr)      # (Ntheta, Nsigma)
    if constant_mode == "paper":
        coef = inner * sigma[None, :] ** grid.n
    else:
        norm = np.einsum("sr,r->s", np.abs(hh) ** 2, wr)  # N(sigma)
        weight = np.zeros_like(sigma)
        ok = norm > 0
        weight[ok] = sigma[ok] ** (grid.n - 1) / norm[ok]
        coef = inner * weight[None, :]
    # trapezoid in sigma, uniform in theta
    ws = trapezoid_weights(sigma)
    dtheta = 2.0 * np.pi / samples.angles.size
    # per angle, sum_sigma c e^{i sigma theta.x} on the tensor grid is
    # E1^T diag(c) E2 with per-axis exponentials
    acc = np.zeros(grid.shape, dtype=complex)
    for k, ang in enumerate(samples.angles):
        E1 = np.exp(1j * np.multiply.outer(sigma * np.cos(ang), grid.axis_coords(0)))
        E2 = np.exp(1j * np.multiply.outer(sigma * np.sin(ang), grid.axis_coords(1)))
        acc += (E1.T * (coef[k] * ws)) @ E2
    acc *= const * dtheta
    if not np.all(np.isfinite(acc)):
        raise NumericalError("synthesis produced non-finite values")
    return ScalarField(grid, acc.real.reshape(grid.shape))
