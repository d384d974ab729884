"""Filtered backprojection inversion over the full (t, v) redundancy.

Reconstruction formula (window h real and non-zero):

    f(x) = C int_{R^n} int_R P_h f(x - v t, v) I^-1 h(t) |v|^-n dt dv

with FT[I^-1 h](eta) = |eta| hhat(eta); for an even window this is the
statement's kernel I^-1 h(-t).  The v integral is evaluated in log-polar
form (dr/r d theta), the t integral is a convolution of each fixed-v data
slice with the Riesz-filtered window and is evaluated spectrally: FT_u of
the filtered slice equals P_hat(xi, v) |xi.v| conj(hhat(-xi.v)) =
fhat(xi) |xi.v| |hhat(-xi.v)|^2 for a real window, which is exact in t
and automatically tames the |v|^-n singularity (the multiplier vanishes
linearly in |v|).
Backprojection is linear, so the weighted filtered spectra of all slices
are summed and a single inverse real FFT returns to u.

No admissibility (hhat(0) = 0) is required.  The route is implemented
for n = 2 (uniform direction weights on S^1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, special

from . import _pool
from .errors import HypothesisError, ValidationError
from .fields import ScalarField
from .forward import WRTData
from .quad import trapezoid_weights
from .windows import _resolve_constant, _window_ft, window_constants, window_ft

__all__ = [
    "BPParams",
    "reconstruct_t1",
    "paper_constant_t1",
    "theory_constant_t1",
    "t1_frequency_check",
]


@dataclass(frozen=True)
class BPParams:
    r_min: float = 0.05
    r_max: float = 4.0
    n_theta: int = 64
    constant_mode: str = "theory"  # 'paper' | 'theory' | 'calibrated' | 'raw'
    alpha: float | None = None     # scalar for 'calibrated'
    pad: int = 2                   # FFT zero-padding factor for the filter

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValidationError("need 0 < r_min < r_max")
        if self.n_theta < 4:
            raise ValidationError("need at least 4 directions")
        _resolve_constant(self.constant_mode, self.alpha)


def paper_constant_t1(w, n):
    """Verbatim statement constant: pi^-(n+1)/2 Gamma(n/2) / int |hhat(-t)|^2 dt."""
    c = window_constants(w)
    return np.pi ** (-(n + 1) / 2.0) * special.gamma(n / 2.0) / c.c_hat_full


def theory_constant_t1(w, n):
    """Constant consistent with this library's FT convention.

    Re-deriving the statement's chain under hhat(eta) = int h e^{-i eta t} dt
    gives  f = Gamma(n/2) / (pi^{n/2} int_R |hhat|^2 d eta) * (BP integral);
    the ratio to the verbatim statement constant is sqrt(pi).
    """
    c = window_constants(w)
    return special.gamma(n / 2.0) / (np.pi ** (n / 2.0) * c.c_hat_full)


def reconstruct_t1(data, w, grid, params=BPParams()):
    """Ramp-filtered backprojection of polar-vset WRTData (else ValidationError,
    before any window check) onto ``grid``, uniform over the directions (n = 2)."""
    if not isinstance(data, WRTData) or data.vset.mode != "polar":
        raise ValidationError("reconstruct_t1 consumes polar-vset WRTData")
    if not w.is_real:
        raise HypothesisError("inversion requires a real window")
    u_grid = data.u_grid
    n = u_grid.n
    if n != 2:
        raise ValidationError("backprojection implemented for n = 2")
    dirs, radii = data.vset.directions, data.vset.radii
    if radii is None or dirs is None:
        raise ValidationError("polar vset metadata missing")
    sel = (radii >= params.r_min - 1e-12) & (radii <= params.r_max + 1e-12)
    if not np.any(sel):
        raise ValidationError("no radii inside [r_min, r_max]: data does not cover the quadrature range")
    # trapezoid in log r (dv |v|^-n in polar form is d log r d theta),
    # uniform in the direction angle
    wr = trapezoid_weights(np.log(radii[sel]))
    wtheta = np.full(dirs.shape[0], 2.0 * np.pi / dirs.shape[0])
    cols = np.nonzero(np.tile(sel, dirs.shape[0]))[0]  # direction-major, as in the vset
    weights = np.multiply.outer(wtheta, wr).ravel()
    acc = _backproject(data, cols, weights, w, params.pad)
    raw = _resample(acc, u_grid, grid)
    const = _resolve_constant(params.constant_mode, params.alpha,
                              lambda: paper_constant_t1(w, n), lambda: theory_constant_t1(w, n))
    return ScalarField(grid, const * raw)


def _backproject(data, cols, weights, w, pad):
    """sum_j weights_j Q_j, Q(u, v) = int P(u - v t, v) I^-1 h(-t) dt.

    Slices are zero-padded by ``pad`` and real-FFT'd in blocks;
    FT(P) |xi.v| conj(hhat(-xi.v)) is summed and inverted once.  Each pool
    worker sums one contiguous range of the slices into its own spectrum,
    and the spectra are added in range order, so the result repeats bit for
    bit at a given worker count.  The blocks hold about 2 MB of spectra
    summed over the workers: memory a thread frees stays reserved for that
    thread, so larger blocks raise the peak memory of the process.
    The Nyquist bin of an even-length axis is filtered at one sign of xi.
    """
    u_grid = data.u_grid
    shape = tuple(int(N * pad) for N in u_grid.shape)
    axes = tuple(range(1, u_grid.n + 1))
    freqs = [2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape[:-1], u_grid.spacing)]
    freqs.append(2.0 * np.pi * np.fft.rfftfreq(shape[-1], u_grid.spacing[-1]))
    mesh = np.meshgrid(*freqs, indexing="ij", sparse=True)
    spectrum = tuple(f.size for f in freqs)
    parts = min(_pool.workers(), cols.size)
    block = max(1, 2**17 // (math.prod(spectrum) * parts))

    def filtered_sum(part):  # part: a range of cols; calls no traced name (window_ft)
        acc = np.zeros(spectrum, dtype=complex)
        for lo in range(part.start, part.stop, block):
            blk = cols[lo:min(lo + block, part.stop)]
            slices = data.values[:, blk].T.reshape(blk.size, *u_grid.shape)
            F = np.fft.rfftn(slices, s=shape, axes=axes)
            for Fj, col, wt in zip(F, blk, weights[lo:lo + blk.size]):
                xi_dot_v = sum(m * vi for m, vi in zip(mesh, data.vset.vectors[col]))
                acc += Fj * (wt * np.abs(xi_dot_v) * np.conj(_window_ft(w, -xi_dot_v)))
        return acc

    acc = sum(_pool.map(filtered_sum, range(cols.size)))
    Q = np.fft.irfftn(acc, s=shape, axes=tuple(range(u_grid.n)))
    return Q[tuple(slice(0, N) for N in u_grid.shape)]


def _resample(values, src_grid, dst_grid):
    if dst_grid == src_grid:
        return values
    idx = src_grid.coord_to_index(dst_grid.points())
    out = ndimage.map_coordinates(values, idx.T, order=3, mode="nearest")
    return out.reshape(dst_grid.shape)


def t1_frequency_check(w, xi_samples, n_theta=512):
    """Scale/rotation invariance of J(xi) = int |hhat(xi.v)|^2 |xi.v| |v|^-2 dv.

    Computes J (n = 2) by log-polar quadrature over |v| in [1e-4, 1e4] in a
    fixed lab frame and returns (max relative deviation across xi_samples,
    fitted c with J = c * int |h|^2).  Exact value of c is 2 pi^2.
    """
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    r_grid = np.geomspace(1e-4, 1e4, 2048)
    wr = trapezoid_weights(np.log(r_grid))
    beta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    dirs = np.stack([np.cos(beta), np.sin(beta)], axis=1)
    vals = []
    for xi in xi_samples:
        proj = dirs @ xi  # xi . theta
        s = np.abs(np.multiply.outer(r_grid, proj))  # |xi.v| with v = r theta
        # dr d beta integrand is |hhat(r xi.theta)|^2 |xi.theta|; in log r
        # coordinates it picks up a factor r, i.e. equals |hhat(s)|^2 s
        integrand = np.abs(window_ft(w, s)) ** 2 * s
        vals.append(float(wr @ integrand.sum(axis=1) * (2.0 * np.pi / n_theta)))
    vals = np.asarray(vals)
    mean = vals.mean()
    c = mean / window_constants(w).c_h2
    dev = float(np.max(np.abs(vals - mean)) / mean)
    return dev, c, vals
