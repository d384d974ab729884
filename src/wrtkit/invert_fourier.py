"""Polar frequency-domain inversion along v parallel to xi.

Uses the factorization P_hat(sigma theta, r theta) = fhat(sigma theta)
hhat(-r sigma): the u-transform of each slice is summed exactly along
its ray, dividing the r-integral of data times conj(hhat(-r sigma))
(hhat(r sigma) for a real window) by the matching window integral
recovers fhat on polar rays, and a direct polar sum synthesizes f.  Both
sums factor per axis on a tensor grid: about the grid centre c, with
y = x - c, exp(-i sigma theta.x) = exp(-i sigma theta.c) prod_a
exp(-i sigma theta_a y_a).  The per-axis factors of a few directions at
a time come from two small tables on the centred axes
(fields._exp_i_outer), and a complex table viewed as floats holds the
(cos, sin) pairs, so each sum is a real GEMM: no complex copy of the data
and no full complex exponential per direction.  Both run on the calling
thread; OpenBLAS threads the GEMMs.

The per-sigma normalization uses the *same* trapezoid rule on |hhat(-r
sigma)|^2 as the data integral, so the finite r coverage cancels instead
of acting as a high-pass; as the r grid grows this reduces to the
analytic constant |sigma|^-1 int_0^inf |hhat|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NumericalError, ValidationError
from .fields import ScalarField, _exp_i_outer
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
        _check_sigma(np.asarray(self.sigma, dtype=float))


def _check_sigma(sigma):
    if not np.all(np.isfinite(sigma)) or np.any(sigma < 0):
        raise ValidationError("sigma grid must be finite and non-negative")


def _centred_axes(grid):
    """Per axis, the coordinates y = x - c about the grid centre c (a
    symmetric uniform line, as _exp_i_outer takes), and c."""
    ys = [d * (np.arange(N) - 0.5 * (N - 1)) for N, d in zip(grid.shape, grid.spacing)]
    c = np.array([o + 0.5 * (N - 1) * d for N, o, d in zip(grid.shape, grid.origin, grid.spacing)])
    return ys, c


_DIRS = 4  # directions per pair of phase tables, in extraction and synthesis
_GEMM_VALUES = 2**15  # floats of extraction's one GEMM output buffer (256 KB)


def extract_polar_spectrum(data, sigma):
    """P_hat(sigma theta_j, r_m theta_j) for every slice of polar-vset data.

    The continuous u-transform is the exact sum along each ray,
    cell_volume * sum_x P(x, v) exp(-i sigma theta_j.x), evaluated per
    direction for all radii at once, on the direction's contiguous block of
    v-major slices.  With x = c + y about the grid centre c, the phase is
    e^{-i sigma theta.c} prod_a e^{-i sigma theta_a y_a}, and the per-axis
    factors of a few directions come from two tables (_exp_i_outer).  The
    axis-2 table viewed as floats is the (cos, -sin) pairs, so the y_2 sum is
    one real GEMM of the slices, a few radii at a time into one reused
    buffer; the y_1 sum follows per sigma (a vecdot, 20 % faster than the
    same einsum).  Anything but polar-vset WRTData on a 2-D u grid
    (ValidationError), complex data (HypothesisError), and a sigma that is
    not a non-empty 1-D array of finite values in [0, ``u_grid.nyquist``]
    (ValidationError) are rejected first.  Returns PolarSpectralSamples over
    the data's own direction/radius sets.
    """
    if not isinstance(data, WRTData) or data.vset.mode != "polar" or data.u_grid.n != 2:
        raise ValidationError("extract_polar_spectrum consumes polar-vset WRTData on a 2-D grid")
    if np.iscomplexobj(data.values):  # complex data come from a complex window
        raise HypothesisError("polar spectral inversion requires a real window and real data")
    sigma = np.asarray(sigma, dtype=float)
    u_grid = data.u_grid
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValidationError("sigma grid must be a non-empty 1-D array")
    _check_sigma(sigma)
    nyq = u_grid.nyquist
    if np.any(sigma > nyq + 1e-12):
        raise ValidationError(f"sigma grid exceeds the Nyquist band ({nyq:.3g})")
    dirs, radii = data.vset.directions, data.vset.radii
    nt, nr, ns = dirs.shape[0], radii.size, sigma.size
    (y1, y2), c = _centred_axes(u_grid)
    n1, n2 = u_grid.shape
    # (Ntheta, Nr N_1, N_2): the slices of direction k are one block [k]
    blocks = data.values.T.reshape(nt, nr * n1, n2)
    out = np.empty((nt, ns, nr), dtype=complex)
    step = max(1, _GEMM_VALUES // (2 * ns * n1))  # radii per GEMM
    G = np.empty((min(step, nr) * n1, 2 * ns))
    for k0 in range(0, nt, _DIRS):
        d = dirs[k0:k0 + _DIRS]
        nb = d.shape[0]
        # conj(E1) as (directions, Nsigma, N_1): vecdot conjugates its first operand
        E1c = _exp_i_outer(y1, np.multiply.outer(d[:, 0], sigma).ravel()).T.reshape(nb, ns, n1)
        E2 = _exp_i_outer(y2, np.multiply.outer(-d[:, 1], sigma).ravel())
        E2 = E2.view(float).reshape(n2, nb, 2 * ns)  # (cos, -sin) pairs
        phase = np.exp(np.multiply.outer(-1j * (d @ c), sigma))
        phase *= u_grid.cell_volume
        for j in range(nb):
            for r0 in range(0, nr, step):
                rows = min(step, nr - r0) * n1
                part = np.matmul(blocks[k0 + j, r0 * n1:r0 * n1 + rows], E2[:, j], out=G[:rows])
                # sum_b P e^{-i sigma theta_2 y_b} as (radii, N_1, Nsigma)
                acc = part.view(complex).reshape(-1, n1, ns)
                np.vecdot(E1c[j], acc.transpose(0, 2, 1),
                          out=out[k0 + j, :, r0:r0 + acc.shape[0]].T)
            out[k0 + j] *= phase[j][:, None]
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
    # per angle, sum_sigma coef e^{i sigma theta.x} on the tensor grid is
    # E1 diag(D) E2^T with per-axis tables over y = x - c about the grid
    # centre c and D = coef e^{i sigma theta.c}; for a few angles at a time,
    # Re(E1 diag(D) E2^T) is one real GEMM of the float views of conj(E1 D) and E2
    (y1, y2), centre = _centred_axes(grid)
    cw = coef * ws
    acc = np.zeros(grid.shape)
    for k0 in range(0, cw.shape[0], _DIRS):
        ang = samples.angles[k0:k0 + _DIRS]
        a1, a2 = np.multiply.outer(np.cos(ang), sigma), np.multiply.outer(np.sin(ang), sigma)
        E1 = _exp_i_outer(y1, a1.ravel())
        E1 *= (cw[k0:k0 + _DIRS] * np.exp(1j * (a1 * centre[0] + a2 * centre[1]))).ravel()
        np.conjugate(E1, out=E1)
        acc += E1.view(float) @ _exp_i_outer(y2, a2.ravel()).view(float).T
    acc *= const * dtheta
    if not np.all(np.isfinite(acc)):
        raise NumericalError("synthesis produced non-finite values")
    return ScalarField(grid, acc)
