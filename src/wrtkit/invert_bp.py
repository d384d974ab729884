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

The v integral covers both v and -v, and for a real window the multiplier
at -v is the conjugate of the one at v: equal to it for an even window,
its negative for an odd one.  So when the directions hold antipodal pairs
(theta and -theta, as every uniform circle with an even count does), an
even or odd window filters each pair as one slice, P(., r theta) +/-
P(., -r theta), with one FFT and one filter; this holds for any data.
Directions without a partner (an odd count, jittered directions) and
windows of neither parity go slice by slice.

No admissibility (hhat(0) = 0) is required.  The route is implemented
for n = 2 (uniform direction weights on S^1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import HypothesisError, ValidationError
from .fields import ScalarField
from .forward import WRTData
from .quad import trapezoid_weights
from .windows import _even_window_ft, _resolve_constant, _window_ft, window_constants, window_ft

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
    return np.pi ** (-(n + 1) / 2.0) * math.gamma(n / 2.0) / c.c_hat_full


def theory_constant_t1(w, n):
    """Constant consistent with this library's FT convention.

    Re-deriving the statement's chain under hhat(eta) = int h e^{-i eta t} dt
    gives  f = Gamma(n/2) / (pi^{n/2} int_R |hhat|^2 d eta) * (BP integral);
    the ratio to the verbatim statement constant is sqrt(pi).
    """
    c = window_constants(w)
    return math.gamma(n / 2.0) / (np.pi ** (n / 2.0) * c.c_hat_full)


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
    acc = _backproject(data, np.nonzero(sel)[0], 2.0 * np.pi / dirs.shape[0] * wr, w, params.pad)
    raw = _resample(acc, u_grid, grid)
    const = _resolve_constant(params.constant_mode, params.alpha,
                              lambda: paper_constant_t1(w, n), lambda: theory_constant_t1(w, n))
    return ScalarField(grid, const * raw)


def _antipodal_groups(directions, parity):
    """The directions as groups in index order: (k, k') where theta_k' = -theta_k
    (max |theta_k' + theta_k| <= 1e-12, k' the first such direction not yet
    grouped), else (k,).  Only an even or odd window pairs directions."""
    if parity not in ("even", "odd"):
        return [(k,) for k in range(directions.shape[0])]
    free = np.ones(directions.shape[0], dtype=bool)
    groups = []
    for k in range(directions.shape[0]):
        if not free[k]:
            continue
        free[k] = False
        anti = np.flatnonzero(free & (np.max(np.abs(directions + directions[k]), axis=1) <= 1e-12))
        groups.append((k, int(anti[0])) if anti.size else (k,))
        free[anti[:1]] = False
    return groups


def _backproject(data, rows, weights, w, pad):
    """sum_j weights_j Q_j over the radii ``rows`` of every direction,
    Q(u, v) = int P(u - v t, v) I^-1 h(-t) dt.

    One item at a time: a slice is zero-padded by ``pad`` and real-FFT'd,
    and FT(P) m is summed, m(xi, v) = |xi.v| conj(hhat(-xi.v)); the sum is
    inverted once.  m(xi, -v) = conj(m(xi, v)) for a real window, so an
    even window (real m) or an odd one (imaginary m) folds each antipodal
    pair theta_k' = -theta_k (:func:`_antipodal_groups`): at each radius
    P(., r theta_k) + P(., r theta_k') (even) or - (odd) takes one FFT and
    the filter of theta_k, exactly for any data, Nyquist bins included.
    Other directions go alone.  xi.theta and |xi.theta| are formed once per
    direction group and each radius only rescales them.  An even window's
    real multiplier scales the real and imaginary parts of the spectrum,
    exactly the complex product with (m + 0i).  Each slice is one
    contiguous v-major row of the data.  The items (direction group,
    radius) are direction-major; each pool worker sums one contiguous range
    of them into its own spectrum, and the spectra are added in range
    order, so the result repeats bit for bit at a given worker count.
    The Nyquist bin of an even-length axis is filtered at one sign of xi.
    """
    u_grid, vset = data.u_grid, data.vset
    shape = tuple(int(N * pad) for N in u_grid.shape)
    axes = tuple(range(u_grid.n))
    freqs = [2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape[:-1], u_grid.spacing)]
    freqs.append(2.0 * np.pi * np.fft.rfftfreq(shape[-1], u_grid.spacing[-1]))
    mesh = np.meshgrid(*freqs, indexing="ij", sparse=True)
    spectrum = tuple(f.size for f in freqs)
    even = w.parity == "even"
    fold = np.add if even else np.subtract
    groups = _antipodal_groups(vset.directions, w.parity)
    nr = vset.radii.size

    def folded(cols, j):  # the group's slice at radius index j: one, or a pair folded
        P = data.slice_values(cols[0] + j)
        return P if len(cols) == 1 else fold(P, data.slice_values(cols[1] + j))

    def filtered_sum(part):  # part: a range of items; calls no traced name (window_ft)
        acc = np.zeros(spectrum, dtype=complex)
        F = np.empty(spectrum, dtype=complex)  # this worker's padded slice spectrum
        head = F[tuple(slice(0, N) for N in u_grid.shape[:-1])]
        current = None
        for item in part:
            g, i = divmod(item, rows.size)
            if g != current:  # xi.theta, |xi.theta| of this group's first direction
                current = g
                cols = [k * nr for k in groups[g]]
                xt = sum(m * ti for m, ti in zip(mesh, vset.directions[groups[g][0]]))
                axt = np.abs(xt)
            j = rows[i]
            r = vset.radii[j]
            # the padded real FFT: the last axis of the slice into the head,
            # zeros beyond it, then the other axes in place; a folded slice
            # is freed before the filter is built
            for a, N in enumerate(u_grid.shape[:-1]):
                F[(slice(None),) * a + (slice(N, None),)] = 0.0
            np.fft.rfft(folded(cols, j), shape[-1], axis=-1, out=head)
            for a in reversed(axes[:-1]):
                np.fft.fft(F, axis=a, out=F)
            if even:  # hhat(-xi.v) = hhat(xi.v), real: F times (m + 0i)
                m = _even_window_ft(w, r * xt)
            else:
                m = np.conj(_window_ft(w, -r * xt))
            m *= axt
            m *= weights[i] * r
            F *= m
            acc += F
        return acc

    acc = sum(_pool.map(filtered_sum, range(len(groups) * rows.size)))
    Q = np.fft.irfftn(acc, s=shape, axes=axes)
    return Q[tuple(slice(0, N) for N in u_grid.shape)]


def _resample(values, src_grid, dst_grid):
    if dst_grid == src_grid:
        return values
    from scipy import ndimage

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
