"""Circular-harmonic / Mellin inversion of the perpendicular-ray data.

For n = 2 the data g(rho, theta) = P_h f(u, u^perp) with u = rho e(theta)
couples to the image only through a multiplicative (Mellin) convolution of
each angular harmonic:

    M g_l(s) = M f_l(s) * M H_l(s)

with the kernel (two ray points land on each circle of radius rho / r,
one per sign of the ray parameter, each carrying its own phase)

    H_l(r) = [h(sqrt(1/r^2 - 1)) e^{+i l arccos r}
              + h(-sqrt(1/r^2 - 1)) e^{-i l arccos r}]
             / (r sqrt(1 - r^2))   for r < 1, else 0.

For an even window this is 2 h(sqrt(1/r^2 - 1)) cos(l arccos r)
/ (r sqrt(1 - r^2)) -- real, so real data stays real harmonic by
harmonic.

Each radial coefficient is recovered by a vertical-line inverse Mellin
integral at abscissa t > 1:

    f_l(r) = (1 / 2 pi i) int_{t - iT}^{t + iT} r^{-s} Mg_l(s) / MH_l(s) ds

realized with Tikhonov-regularized division (the kernel spectrum
oscillates and decays along the line).  The full reconstruction takes
any real window that is not odd: for an odd one H_0 = 0 identically, so
the circular mean of f cannot be recovered (H_l for l != 0 is not 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NumericalError, ValidationError
from .fields import ScalarField, _exp_i_blocks, _exp_i_outer, _line_step
from .forward import PolarWRT
from .quad import gauss_legendre_panels, trapezoid_weights
from .windows import window_eval, window_support_radius

__all__ = [
    "HarmonicSeries",
    "MellinLine",
    "MellinParams",
    "circular_decompose",
    "kernel_H",
    "mellin_transform",
    "mellin_kernel_line",
    "mellin_convolution_residual",
    "recover_fl",
    "reconstruct_mellin",
]


@dataclass(frozen=True)
class HarmonicSeries:
    """Angular Fourier coefficients c_l(rho) for l in [-L, L]."""

    l_values: np.ndarray      # (2L+1,) ints, -L..L
    rho: np.ndarray           # positive, log-uniform
    coefficients: np.ndarray  # (2L+1, Nrho) complex

    def coefficient(self, l):
        idx = int(l) + (self.l_values.size - 1) // 2
        if not (0 <= idx < self.l_values.size):
            raise ValidationError(f"harmonic l={l} outside the stored range")
        return self.coefficients[idx]


@dataclass(frozen=True)
class MellinLine:
    """Samples M(t + i y_k) on a vertical line, one row per harmonic."""

    t: float
    y: np.ndarray        # uniform, symmetric
    values: np.ndarray   # complex, (Ny,) or (K, Ny)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if np.ndim(self.values) not in (1, 2) or np.shape(self.values)[-1] != y.size:
            raise ValidationError("Mellin line values must have shape (Ny,) or (K, Ny)")
        _line_step(y)


_DY = 0.05  # step of the y line
_MAX_HALF_LINE = 2**14  # y samples beside y = 0; every stage's work grows with the line
_BLOCK = 2**17  # complex entries (2 MB) in one block of an exp(i y a) table


@dataclass(frozen=True)
class MellinParams:
    """Contour abscissa t > 1, band [-T, T] of the y line (step 0.05, so
    0.025 < T <= 2^14 * 0.05), and the Tikhonov term lam of Q = Mg conj(MH)
    / (|MH|^2 + lam), None meaning (1e-6 max|MH_l|)^2, per harmonic."""

    t: float = 2.0
    T: float = 40.0
    lam: float | None = None

    def __post_init__(self):
        if not 1.0 < self.t < np.inf:
            raise ValidationError("contour abscissa must be finite with t > 1")
        if not _DY / 2 < self.T <= _MAX_HALF_LINE * _DY:  # 1 to 2^14 steps each side of 0
            raise ValidationError(f"need {_DY / 2:g} < T <= {_MAX_HALF_LINE * _DY:g} "
                                  f"(1 to 2^14 y steps of {_DY}), got T = {self.T:g}")
        if self.lam is not None and not 0 <= self.lam < np.inf:
            raise ValidationError("Tikhonov lambda must be finite and >= 0")

    def y_grid(self):
        n = int(round(self.T / _DY))
        return np.linspace(-n, n, 2 * n + 1) * _DY


def circular_decompose(g, L):
    """g_l(rho) = (1/2 pi) int_0^{2 pi} g(rho, theta) e^{-i l theta} d theta.

    Computed as FFT over theta divided by the sample count; returns
    l in [-L, L].  Warns when the edge harmonic is not negligible
    (truncation/aliasing risk).  g must be PolarWRT (ValidationError).
    """
    if not isinstance(g, PolarWRT):
        raise ValidationError("circular harmonics need perp (PolarWRT) data")
    nt = g.theta.size
    if L < 0:
        raise ValidationError(f"harmonic cut-off L = {L} must be >= 0")
    if nt < 2 * L + 2:
        raise ValidationError(f"need at least {2 * L + 2} angles for L={L}")
    coef_all = np.fft.fft(g.values, axis=1) / nt  # (Nrho, Ntheta), index = l mod nt
    ls = np.arange(-L, L + 1)
    coefs = coef_all[:, ls % nt].T
    mags = np.max(np.abs(coefs), axis=1)
    top = mags.max()
    if top > 0 and max(mags[0], mags[-1]) > 0.01 * top:
        warnings.warn(
            f"harmonic |l|={L} carries {max(mags[0], mags[-1]) / top:.1%} of the "
            "peak coefficient; series truncation will be visible"
        )
    return HarmonicSeries(ls, g.rho, coefs)


def kernel_H(w, l, r_grid):
    """Pointwise H_l(r), any window, on positive r_grid as a complex array (0 for r >= 1)."""
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 0):
        raise ValidationError("kernel radii must be positive")
    vals = np.zeros(r.shape, dtype=complex)
    inside = r < 1.0
    ri = r[inside]
    g = np.sqrt(1.0 / ri**2 - 1.0)
    phase = np.exp(1j * l * np.arccos(ri))
    both = (
        np.asarray(window_eval(w, g)) * phase
        + np.asarray(window_eval(w, -g)) / phase
    )
    vals[inside] = both / (ri * np.sqrt(1.0 - ri**2))
    return vals


def _exp_product(A, y, a, over_y=False):
    """A @ E.T, (..., Ny) from A (..., Na), for E = exp(i y a) (fields'
    two-table build); with over_y, A @ E, (..., Na) from A (..., Ny).  E
    comes in blocks of about _BLOCK entries that split the output axis
    only, so each value is one dot product, as with the whole table.
    """
    if over_y:
        n = max(_BLOCK // y.size, 1)
        return np.concatenate(
            [A @ _exp_i_outer(y, a[j:j + n]) for j in range(0, max(a.size, 1), n)], axis=-1)
    blocks = _exp_i_blocks(y, a, _BLOCK // a.size)
    out = np.empty((*np.shape(A)[:-1], y.size), dtype=complex)
    for k, E in blocks:
        np.matmul(A, E.T, out=out[..., k:k + len(E)])
    return out


def mellin_transform(r_grid, samples, t, y_grid):
    """Mf(t + i y) = int_0^inf f(r) r^{t + i y - 1} dr on a log-uniform grid.

    samples (Nrho,) or (K, Nrho), finite, give values (Ny,) or (K, Ny) at a
    finite t.  In u = ln r the integral is int f(e^u) e^{t u} e^{i y u} du, a
    trapezoid rule on at least two radii, one block of y at a time
    (_exp_product).  The log step of r must resolve the band: step * max|y|
    <= pi, as e^{i y u} aliases beyond.  Each row's weighted integrand must
    have decayed at both grid ends (compact support inside the grid counts).
    """
    r = np.asarray(r_grid, dtype=float)
    f = np.asarray(samples)
    y = np.asarray(y_grid, dtype=float)
    if not np.isfinite(t):
        raise ValidationError("Mellin abscissa t must be finite")
    if r.ndim != 1 or np.any(r <= 0):
        raise ValidationError("Mellin transform needs a 1-D grid of positive radii")
    if f.ndim not in (1, 2) or f.shape[-1] != r.size:
        raise ValidationError("Mellin samples must have shape (Nrho,) or (K, Nrho)")
    if not np.all(np.isfinite(f)):
        raise ValidationError("Mellin samples must be finite")
    u = np.log(r)
    wu = trapezoid_weights(u)
    steps = np.diff(u)
    if not np.allclose(steps, steps[0], rtol=1e-8, atol=0.0):
        raise ValidationError("Mellin transform needs a log-uniform r grid")
    du, T = (u[-1] - u[0]) / (u.size - 1), float(np.max(np.abs(y), initial=0.0))
    if du * T > np.pi:  # e^{i y u} aliases on these samples
        need = int(np.ceil((u[-1] - u[0]) * T / np.pi)) + 1
        raise ValidationError(f"the r grid's log step {du:.3g} allows a Mellin band up to "
                              f"T = {np.pi / du:.4g}; T = {T:g} needs at least {need} radii")
    g = f * np.exp(t * u)
    mag = np.abs(np.atleast_2d(g))
    gmax, ends = mag.max(axis=1), np.maximum(mag[:, 0], mag[:, -1])
    bad = ends > 1e-8 * gmax
    if np.any(bad):
        raise ValidationError(
            "samples have not decayed at the r-grid ends; widen the grid "
            f"(end/max = {np.max(ends[bad] / gmax[bad]):.2e})"
        )
    return MellinLine(float(t), y, _exp_product(wu * g, y, u))


def mellin_kernel_line(w, l, t, y_grid):
    """MH_l(t + i y) by quadrature (48 panels of 16 Gauss-Legendre nodes)
    after the substitution r = cos(psi); l scalar gives (Ny,), K of them (K, Ny).

    MH_l(s) = int_0^{pi/2} [h(tan psi) e^{+i l psi} + h(-tan psi) e^{-i l psi}]
              cos^{s-2}(psi) d psi;
    the substitution removes the 1/sqrt(1 - r^2) endpoint singularity, and
    the rule stops at psi = arctan(support radius), beyond which |h| <
    1e-15 (:func:`~wrtkit.windows.window_support_radius`, which rejects a
    complex window: HypothesisError).  The real factor cos^{t-2}(psi) goes
    with the node weights; the sum with cos^{iy}(psi) = e^{i y ln cos psi}
    runs one block of y at a time (_exp_product).  t must be finite.
    """
    y = np.asarray(y_grid, dtype=float)
    if not np.isfinite(t):
        raise ValidationError("Mellin abscissa t must be finite")
    psi_max = min(np.arctan(window_support_radius(w, tol=1e-15)), np.pi / 2 - 1e-12)
    psi, wp = gauss_legendre_panels(0.0, psi_max, 48, 16)
    tanp, lcos = np.tan(psi), np.log(np.cos(psi))
    ephase = np.exp(1j * np.multiply.outer(l, psi))  # (psi.size,) or (K, psi.size)
    amp = (
        np.asarray(window_eval(w, tanp)) * ephase
        + np.asarray(window_eval(w, -tanp)) / ephase
    ) * (wp * np.exp((t - 2.0) * lcos))
    return MellinLine(float(t), y, _exp_product(amp, y, lcos))


def mellin_convolution_residual(g_line, f_line, H_line):
    """max_y |Mg_l(s) - Mf_l(s) MH_l(s)| / max|Mg_l|, the worst row of a stack.

    All three lines must share the abscissa and the y grid.
    """
    if not np.allclose(g_line.y, H_line.y) or not np.allclose(g_line.y, f_line.y):
        raise ValidationError("lines must share the y grid")
    if abs(f_line.t - g_line.t) > 1e-12 or abs(H_line.t - g_line.t) > 1e-12:
        raise ValidationError("lines must share the abscissa")
    ref = np.max(np.abs(g_line.values), axis=-1)
    dev = np.max(np.abs(g_line.values - f_line.values * H_line.values), axis=-1)
    return float(np.max(np.divide(dev, ref, out=np.zeros_like(ref), where=ref > 0)))


def recover_fl(Mg, MH, t, r_grid, lam=None):
    """f_l(r) on r_grid from lines Mg_l and MH_l sampled at abscissa t.

    f_l(r) = (1/2 pi) int_{-T}^{T} r^{-t-iy} Q(t + iy) dy with the
    regularized quotient Q = Mg conj(MH) / (|MH|^2 + lam).  Lines (Ny,) give
    f_l (Nr,), stacks (K, Ny) give (K, Nr), and each row has its own rules:
    lam None means (1e-6 max|MH_l|)^2, and the division is ill-posed when
    |MH_l| stays below 1e-6 max|MH_l| on more than half the band.  The
    finite band realizes the exact formula's T -> infinity limit; the y
    integral is the trapezoid rule, summed one block of radii at a time
    (_exp_product).  t must be finite with t > 1, and r_grid 1-D, finite
    and positive.
    """
    if not 1.0 < t < np.inf:
        raise ValidationError("contour abscissa must be finite with t > 1")
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or not np.all(np.isfinite(r) & (r > 0)):
        raise ValidationError("recovery radii must be a 1-D array of finite, positive values")
    if abs(Mg.t - t) > 1e-12 or abs(MH.t - t) > 1e-12:
        raise ValidationError("input lines must be sampled at abscissa t")
    if np.shape(Mg.values) != np.shape(MH.values) or not np.allclose(Mg.y, MH.y):
        raise ValidationError("lines must hold the same harmonics on one y grid")
    absH = np.abs(MH.values)
    hmax = absH.max(axis=-1, keepdims=True)
    if np.any(hmax == 0) or np.any(np.mean(absH < 1e-6 * hmax, axis=-1) > 0.5):
        raise NumericalError(
            "kernel spectrum too small; inversion ill-posed on this band"
        )
    lam = lam if lam is not None else (1e-6 * hmax) ** 2
    # Q w_y built in place: one complex and one real (K, Ny) array
    absH *= absH
    absH += lam
    Q = np.conj(MH.values)
    Q *= Mg.values
    Q /= absH
    Q *= trapezoid_weights(Mg.y)
    return r ** (-t) * _exp_product(Q, Mg.y, -np.log(r), over_y=True) / (2.0 * np.pi)


def reconstruct_mellin(g, w, L, grid, params=MellinParams()):
    """Truncated harmonic series reconstruction on a Cartesian grid.

    Needs PolarWRT data (checked first) and a real window that is not odd
    (HypothesisError): for an odd window H_0 = 0, so the circular mean of f
    is lost.
    """
    if not isinstance(g, PolarWRT):
        raise ValidationError("harmonic-series inversion consumes perp (PolarWRT) data")
    if not w.is_real or w.parity == "odd":
        raise HypothesisError(
            "harmonic-series inversion needs a real window that is not odd: for an odd h "
            "the harmonic kernel H_0 is identically zero and the circular mean of f is lost"
        )
    if grid.n != 2:
        raise ValidationError("harmonic-series inversion is n = 2 only")
    series = circular_decompose(g, L)
    y, t = params.y_grid(), params.t
    # recovery radii: log grid spanning the output's radial range
    X = grid.points()
    rad = np.hypot(X[:, 0], X[:, 1])
    r_hi = max(rad.max(), g.rho.max())
    r_lo = max(1e-3 * r_hi, g.rho.min())
    r_grid = np.geomspace(r_lo, r_hi, 256)
    Mg = mellin_transform(series.rho, series.coefficients[L:], t, y)
    MH = mellin_kernel_line(w, np.arange(L + 1), t, y)
    f_ls = recover_fl(Mg, MH, t, r_grid, params.lam)
    phi = np.arctan2(X[:, 1], X[:, 0])
    lr, lgrid = np.log(np.maximum(rad, r_lo)), np.log(r_grid)
    acc = np.zeros(X.shape[0])
    for l, fl in enumerate(f_ls):  # rows l = 0..L
        flr = np.interp(lr, lgrid, fl.real) + 1j * np.interp(lr, lgrid, fl.imag)
        term = (flr * np.exp(1j * l * phi)).real
        acc += term if l == 0 else 2.0 * term
    if not np.all(np.isfinite(acc)):
        raise NumericalError("harmonic synthesis produced non-finite values")
    return ScalarField(grid, acc.reshape(grid.shape))
