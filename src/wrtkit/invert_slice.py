"""Fourier-slice inversion from a 2-D transform in (u1, v1).

Identity (n = 2, h non-vanishing at a):

    |sigma| P_hat(sigma, u2, a sigma, v2) = 2 pi fhat1(sigma, a v2 + u2) h(a)

where fhat1 is the FT of f in x1 only and P_hat the 2-D FT of the data
in (u1, v1).  The v1 integral lives on a finite window [-V, V] with
apodization, which smears the delta(t - a) of the exact identity into a
kernel of width ~ pi / (V |sigma|); accuracy therefore improves with V.
The taper is ``SliceParams.apodization``.  P_hat is read at tau = a sigma
exactly: an FFT along u1, then a sum over v1 against e^{-i a sigma v1},
which the v1 samples resolve only for |a sigma| dv1 < pi.

Full mode varies u2 with v2 = 0 (zeta = u2 covers all transverse
coordinates); restricted mode keeps u on the x1-axis and varies v2
(zeta = a v2, needs a != 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, ValidationError
from .fields import Grid, ScalarField, _exp_i_outer
from .forward import WRTData, v1_line_vset, windowed_ray_transform, wrt_columns
from .quad import QuadratureParams, trapezoid_weights
from .windows import window_eval

__all__ = [
    "SliceParams",
    "SliceSpectrum",
    "apodization_weights",
    "make_slice_dataset",
    "make_restricted_dataset",
    "slice_extract",
    "restricted_extract",
    "reconstruct_slice",
]


@dataclass(frozen=True)
class SliceParams:
    """Slice parameter ``a`` and the ``apodization`` of the v1 integral
    ('hann', 'none' or 'kaiser:BETA' with BETA in [0, 700])."""

    a: float = 0.0
    apodization: str = "hann"

    def __post_init__(self):
        if not np.isfinite(self.a):
            raise ValidationError(f"slice parameter a must be finite, got {self.a}")
        apodization_weights(self.apodization, 0.0, 1.0)  # rejects unknown kinds


@dataclass(frozen=True)
class SliceSpectrum:
    """fhat1(sigma, zeta) samples; zeta is spatial-transverse."""

    sigma: np.ndarray
    zeta: np.ndarray
    values: np.ndarray  # (Nsigma, Nzeta)


def apodization_weights(kind, v1, V):
    v1 = np.asarray(v1, dtype=float)
    if kind == "none":
        return np.ones_like(v1)
    if kind == "hann":
        return np.cos(0.5 * np.pi * v1 / V) ** 2
    if kind.startswith("kaiser"):
        try:
            beta = float(kind.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ValidationError("kaiser apodization syntax: kaiser:BETA")
        if not 0.0 <= beta <= 700.0:  # NaN fails too; i0(beta) overflows above about 713
            raise ValidationError(f"kaiser beta must be finite and in [0, 700], got {beta}")
        x = np.clip(1.0 - (v1 / V) ** 2, 0.0, None)
        return np.i0(beta * np.sqrt(x)) / np.i0(beta)
    raise ValidationError(f"unknown apodization {kind!r}")


def symmetric_offset_grid(V, step):
    """Uniform grid on (-V, V), symmetric, half-step offset (no zero)."""
    if not (0 < V < np.inf and 0 < step < np.inf):
        raise ValidationError("the half-width V and the step must be finite and positive")
    n = int(round(V / step))
    k = np.arange(-n, n)
    return (k + 0.5) * step


def _uniform_step(name, x, at_least):
    """The step of grid x, which must hold at_least samples, uniform to rtol 1e-10."""
    if x.size < at_least or not np.allclose(np.diff(x), x[1] - x[0], rtol=1e-10, atol=0.0):
        raise ValidationError(f"{name} grid must be uniform with at least {at_least} samples")
    return x[1] - x[0]


def make_slice_dataset(f, w, u1, u2, v1, vprime=0.0, quad=QuadratureParams()):
    """Forward-simulate a full-mode dataset: WRTData on the (u1, u2) grid
    with the v1-line vset (v1, vprime) under the rule ``quad`` (the
    library's default refining rule unless given); u1 and u2 must be uniform."""
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    steps = (_uniform_step("u1", u1, 2), _uniform_step("u2", u2, 2))
    grid = Grid((u1.size, u2.size), (u1[0], u2[0]), steps)
    return windowed_ray_transform(f, w, grid, v1_line_vset(v1, [vprime]), quad)


def make_restricted_dataset(f, w, u1, v1, vprimes, quad=QuadratureParams()):
    """Dataset with u restricted to the x1-axis under the rule ``quad`` (the
    library's default unless given); values (N1, Nv1, Nv')."""
    u1, v1, vprimes = (np.asarray(a, dtype=float) for a in (u1, v1, vprimes))
    U = np.stack([u1, np.zeros_like(u1)], axis=1)
    vectors = np.stack(np.broadcast_arrays(v1[:, None], vprimes[None, :]), axis=-1)
    out = wrt_columns(f, w, U, vectors.reshape(-1, 2), quad)
    return u1, v1, vprimes, out.reshape(u1.size, v1.size, vprimes.size)


def _extract(u1, v1, blocks, w, p):
    """sigma and |sigma| P_hat(sigma, a sigma) / (2 pi h(a)) per block blocks[:, :, j] on
    v1 x u1, P_hat the continuous FT in (u1, v1) of the apodized block, read at tau = a sigma
    from one table e^{-i a sigma v1} (fields._exp_i_outer): each v1 row's real FFT along u1 is
    added into the sigma >= 0 rows, sigma < 0 by conjugate symmetry.  Needs uniform u1 (>= 5
    samples), v1 uniform and symmetric about 0 (so it spans (-V, V)), and |a sigma| dv1 < pi."""
    du = _uniform_step("u1", u1, 5)
    if not w.is_real or np.iscomplexobj(blocks):  # complex data come from a complex window
        raise HypothesisError("inversion requires a real window and real data")
    ha = complex(np.asarray(window_eval(w, float(p.a))))
    if abs(ha) <= 1e-12:
        raise HypothesisError(f"window vanishes at a = {p.a}")
    dv = _uniform_step("v1", v1, 2)
    if abs(v1[0] + v1[-1]) > 1e-9 * abs(dv):
        raise ValidationError("v1 grid must be symmetric about 0")
    if not np.all(np.isfinite([blocks.min(), blocks.max()])):  # NaN propagates; no temporary
        raise ValidationError("slice data contain non-finite values")
    fgrid = Grid((u1.size,), (u1[0],), (du,)).frequency_grid()
    sigma = fgrid.axis_coords(0)
    half = u1.size // 2  # the rfft's rows are sigma = 0, dsigma, ..., half dsigma
    rfft_sigma = fgrid.spacing[0] * np.arange(half + 1)
    # strict: at |a sigma| = pi / dv1 the v1 samples alias +pi / dv1 with -pi / dv1
    if abs(p.a) * rfft_sigma[-1] * dv >= np.pi:
        raise ValidationError("a * sigma leaves the v1 Nyquist band; refine v1")
    W = _exp_i_outer(v1, -p.a * rfft_sigma)
    W *= (apodization_weights(p.apodization, v1, abs(v1[0]) + 0.5 * dv) * dv)[:, None]
    rows = np.zeros((half + 1, blocks.shape[2]), dtype=complex)
    for row, wv in zip(blocks, W):  # the data are read once, one v1 row at a time
        rows += wv[:, None] * np.fft.rfft(row, axis=0)
    out = np.concatenate([rows[half:0:-1].conj(), rows[:u1.size - half]])
    out *= (np.exp(-1j * sigma * u1[0]) * du * np.abs(sigma) / (2.0 * np.pi * ha))[:, None]
    return sigma, out


def _dc_even_extrapolate(vals, sigma):
    """Fill the sigma = 0 row from |sigma| in {d, 2d} (quadratic even model)."""
    i0 = int(np.argmin(np.abs(sigma)))
    g1 = 0.5 * (vals[i0 + 1] + vals[i0 - 1])
    g2 = 0.5 * (vals[i0 + 2] + vals[i0 - 2])
    vals[i0] = (4.0 * g1 - g2) / 3.0


def slice_extract(data, p):
    """Extract fhat1(sigma, zeta) from full-mode WRTData: a (u1, u2) grid
    crossed with a v1-line vset (see :func:`make_slice_dataset`).

    zeta = a v' + u2 (v' is the vset's fixed v2, normally 0 in full mode).
    Any other dataset, or < 5 u1 samples, is a ValidationError, checked before the window.
    """
    if not isinstance(data, WRTData) or data.vset.mode != "v1-line" or data.u_grid.n != 2:
        raise ValidationError("slice extraction needs v1-line WRTData on a 2-D u grid")
    u1, u2 = data.u_grid.axis_coords(0), data.u_grid.axis_coords(1)
    v1 = data.vset.v1
    sigma, out = _extract(u1, v1, data.values.T.reshape(v1.size, u1.size, -1), data.window, p)
    _dc_even_extrapolate(out, sigma)
    return SliceSpectrum(sigma, p.a * float(data.vset.vprime[0]) + u2, out)


def restricted_extract(u1, v1, vprimes, values, w, p):
    """fhat1(sigma, a v') from an x1-axis restricted dataset, as returned
    by :func:`make_restricted_dataset`; needs a != 0."""
    if p.a == 0.0:
        raise ValidationError("restricted mode needs a != 0: zeta = a v' is 0 for every v'")
    u1, v1, vprimes = (np.asarray(x, dtype=float) for x in (u1, v1, vprimes))
    if np.shape(values) != (u1.size, v1.size, vprimes.size):
        raise ValidationError(f"values of shape {np.shape(values)} are not (u1, v1, v') sized")
    sigma, out = _extract(u1, v1, np.asarray(values).swapaxes(0, 1), w, p)
    return SliceSpectrum(sigma, p.a * vprimes, out)


def reconstruct_slice(spectrum, out_grid):
    """Inverse 1-D FT in sigma per transverse row, interpolated in zeta
    (in either order: a < 0 reverses a restricted dataset's zeta = a v');
    zeta must cover the output grid's second axis."""
    x1 = out_grid.axis_coords(0)
    x2 = out_grid.axis_coords(1)
    order = np.argsort(spectrum.zeta)  # np.interp needs increasing zeta
    zeta = spectrum.zeta[order]
    if x2.min() < zeta[0] - 1e-9 or x2.max() > zeta[-1] + 1e-9:
        raise ValidationError("zeta coverage does not span the output grid")
    sig = spectrum.sigma
    ws = trapezoid_weights(sig)
    E = np.exp(1j * np.multiply.outer(x1, sig))  # (Nx1, Nsigma)
    rows = (E * ws[None, :]) @ spectrum.values[:, order] / (2.0 * np.pi)  # (Nx1, Nzeta)
    imax = np.max(np.abs(rows.imag))
    rmax = np.max(np.abs(rows.real)) or 1.0
    if imax > 1e-6 * rmax:
        warnings.warn(f"reconstruction has complex magnitude {imax / rmax:.2e}")
    vals = np.empty(out_grid.shape)
    for i in range(x1.size):
        vals[i] = np.interp(x2, zeta, rows[i].real)
    return ScalarField(out_grid, vals)
