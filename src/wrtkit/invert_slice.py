"""Fourier-slice inversion from a 2-D transform in (u1, v1).

Identity (n = 2, h non-vanishing at a):

    |sigma| P_hat(sigma, u2, a sigma, v2) = 2 pi fhat1(sigma, a v2 + u2) h(a)

where fhat1 is the FT of f in x1 only and P_hat the 2-D FT of the data
in (u1, v1).  The v1 integral lives on a finite window [-V, V] with
apodization, which smears the delta(t - a) of the exact identity into a
kernel of width ~ pi / (V |sigma|); accuracy therefore improves with V.

Full mode varies u2 with v2 = 0 (zeta = u2 covers all transverse
coordinates); restricted mode keeps u on the x1-axis and varies v2
(zeta = a v2, needs a != 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage, special

from .errors import HypothesisError, ValidationError
from .fields import Grid, ScalarField
from .forward import v1_line_vset, windowed_ray_transform, wrt_columns
from .quad import QuadratureParams
from .windows import window_eval

__all__ = [
    "SliceDataset",
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
class SliceDataset:
    """P_h f(u1, u2, v1, v2) sampled on u1 x u2 x v1 with fixed v2.

    v1 is uniform and symmetric about 0 (half-step offset grids count and
    avoid v = 0 when v2 = 0).
    """

    u1: np.ndarray            # (N1,)
    u2: np.ndarray            # (N2,) transverse coordinates (full mode grid)
    v1: np.ndarray            # (Nv,)
    vprime: float             # fixed v2
    values: np.ndarray        # (N1, N2, Nv)
    window: object            # WindowSpec used when simulating/measuring
    apodization: str = "hann"

    def __post_init__(self):
        v1 = np.asarray(self.v1, dtype=float)
        d = np.diff(v1)
        if not np.allclose(d, d[0], rtol=1e-10):
            raise ValidationError("v1 grid must be uniform")
        if abs(v1[0] + v1[-1]) > 1e-9 * abs(d[0]):
            raise ValidationError("v1 grid must be symmetric about 0")

    @property
    def V(self):
        return float(abs(self.v1[0]) + 0.5 * (self.v1[1] - self.v1[0]))


@dataclass(frozen=True)
class SliceParams:
    a: float = 0.0
    mode: str = "full"  # 'full' | 'restricted'

    def __post_init__(self):
        if self.mode not in ("full", "restricted"):
            raise ValidationError(f"unknown slice mode {self.mode!r}")
        if self.mode == "restricted" and self.a == 0.0:
            raise ValidationError(
                "restricted mode needs a != 0: zeta = a v' cannot cover "
                "transverse frequencies when a = 0"
            )


@dataclass(frozen=True)
class SliceSpectrum:
    """fhat1(sigma, zeta) samples; zeta is spatial-transverse."""

    sigma: np.ndarray
    zeta: np.ndarray
    values: np.ndarray  # (Nsigma, Nzeta)
    dc_filled: bool = False


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
        x = np.clip(1.0 - (v1 / V) ** 2, 0.0, None)
        return special.i0(beta * np.sqrt(x)) / special.i0(beta)
    raise ValidationError(f"unknown apodization {kind!r}")


def symmetric_offset_grid(V, step):
    """Uniform grid on (-V, V), symmetric, half-step offset (no zero)."""
    n = int(round(V / step))
    k = np.arange(-n, n)
    return (k + 0.5) * step


def make_slice_dataset(f, w, u1, u2, v1, vprime=0.0, apodization="hann",
                       quad=QuadratureParams(panels=8, max_panels=None)):
    """Forward-simulate a full-mode dataset (u on the (u1, u2) grid)."""
    du1 = u1[1] - u1[0]
    du2 = u2[1] - u2[0]
    grid = Grid((u1.size, u2.size), (u1[0], u2[0]), (du1, du2))
    vset = v1_line_vset(v1, [vprime])
    data = windowed_ray_transform(f, w, grid, vset, quad)
    vals = data.values.reshape(u1.size, u2.size, v1.size)
    return SliceDataset(u1, u2, v1, float(vprime), vals, w, apodization)


def make_restricted_dataset(f, w, u1, v1, vprimes, apodization="hann",
                            quad=QuadratureParams(panels=8, max_panels=None)):
    """Dataset with u restricted to the x1-axis; values (N1, Nv1, Nv')."""
    u1, v1, vprimes = (np.asarray(a, dtype=float) for a in (u1, v1, vprimes))
    U = np.stack([u1, np.zeros_like(u1)], axis=1)
    vectors = np.stack(np.broadcast_arrays(v1[:, None], vprimes[None, :]), axis=-1)
    out = wrt_columns(f, w, U, vectors.reshape(-1, 2), quad)
    return u1, v1, vprimes, out.reshape(u1.size, v1.size, vprimes.size)


def _ft2(u1, v1, block, apod_kind, V):
    """Continuous 2-D FT in (u1, v1) of block (N1, Nv) with apodization.

    Returns (sigma, tau, spectrum) with sigma/tau monotonic.
    """
    w = apodization_weights(apod_kind, v1, V)
    vals = block * w[None, :]
    N1, Nv = vals.shape
    d1, dv = u1[1] - u1[0], v1[1] - v1[0]
    F = np.fft.fftshift(np.fft.fft2(vals)) * (d1 * dv)
    sigma = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(N1, d1))
    tau = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(Nv, dv))
    F *= np.exp(-1j * sigma * u1[0])[:, None]
    F *= np.exp(-1j * tau * v1[0])[None, :]
    return sigma, tau, F


def _ray_interp(F, tau, tau_wanted):
    """Linear interpolation of each row of F at per-row tau values."""
    dt = tau[1] - tau[0]
    pos = (tau_wanted - tau[0]) / dt
    rows = np.arange(F.shape[0], dtype=float)
    coords = np.stack([rows, pos])
    re = ndimage.map_coordinates(F.real, coords, order=1, mode="constant", cval=0.0)
    im = ndimage.map_coordinates(F.imag, coords, order=1, mode="constant", cval=0.0)
    return re + 1j * im


def _dc_even_extrapolate(vals, sigma):
    """Fill the sigma = 0 row from |sigma| in {d, 2d} (quadratic even model)."""
    i0 = int(np.argmin(np.abs(sigma)))
    d = sigma[i0 + 1] - sigma[i0]
    g1 = 0.5 * (vals[i0 + 1] + vals[i0 - 1])
    g2 = 0.5 * (vals[i0 + 2] + vals[i0 - 2])
    vals[i0] = (4.0 * g1 - g2) / 3.0
    return i0


def slice_extract(ds, p):
    """Extract fhat1(sigma, zeta) from a full-mode dataset.

    zeta = a v' + u2 (v' = ds.vprime, normally 0 in full mode).
    """
    if not ds.window.is_real:
        raise HypothesisError("inversion requires a real window")
    ha = complex(np.asarray(window_eval(ds.window, float(p.a))))
    if abs(ha) <= 1e-12:
        raise HypothesisError(f"window vanishes at a = {p.a}")
    N2 = ds.u2.size
    out = None
    for j in range(N2):
        sigma, tau, F = _ft2(ds.u1, ds.v1, ds.values[:, j, :], ds.apodization, ds.V)
        if np.max(np.abs(p.a * sigma)) > np.max(np.abs(tau)) + 1e-9:
            raise ValidationError("a * sigma leaves the v1 Nyquist band; refine v1")
        row = _ray_interp(F, tau, p.a * sigma)
        fh = np.abs(sigma) * row / (2.0 * np.pi * ha)
        if out is None:
            out = np.empty((sigma.size, N2), dtype=complex)
            sig = sigma
        out[:, j] = fh
    _dc_even_extrapolate(out, sig)
    zeta = p.a * ds.vprime + ds.u2
    return SliceSpectrum(sig, zeta, out, dc_filled=True)


def restricted_extract(u1, v1, vprimes, values, w, p, apodization="hann"):
    """fhat1(sigma, a v') from an x1-axis restricted dataset."""
    if p.mode != "restricted":
        raise ValidationError("params must use restricted mode")
    if not w.is_real:
        raise HypothesisError("inversion requires a real window")
    ha = complex(np.asarray(window_eval(w, p.a)))
    if abs(ha) <= 1e-12:
        raise HypothesisError(f"window vanishes at a = {p.a}")
    V = float(abs(v1[0]) + 0.5 * (v1[1] - v1[0]))
    out = []
    for j in range(vprimes.size):
        sigma, tau, F = _ft2(u1, v1, values[:, :, j], apodization, V)
        row = _ray_interp(F, tau, p.a * sigma)
        out.append(np.abs(sigma) * row / (2.0 * np.pi * ha))
    zeta = p.a * vprimes
    return SliceSpectrum(sigma, zeta, np.stack(out, axis=1))


def reconstruct_slice(spectrum, out_grid):
    """Inverse 1-D FT in sigma per transverse row; zeta must cover the
    output grid's second axis."""
    x1 = out_grid.axis_coords(0)
    x2 = out_grid.axis_coords(1)
    zeta = spectrum.zeta
    if x2.min() < zeta.min() - 1e-9 or x2.max() > zeta.max() + 1e-9:
        raise ValidationError("zeta coverage does not span the output grid")
    sig = spectrum.sigma
    ws = np.gradient(sig)
    E = np.exp(1j * np.multiply.outer(x1, sig))  # (Nx1, Nsigma)
    rows = (E * ws[None, :]) @ spectrum.values / (2.0 * np.pi)  # (Nx1, Nzeta)
    imax = np.max(np.abs(rows.imag))
    rmax = np.max(np.abs(rows.real)) or 1.0
    if imax > 1e-6 * rmax:
        warnings.warn(f"reconstruction has complex magnitude {imax / rmax:.2e}")
    vals = np.empty(out_grid.shape)
    for i in range(x1.size):
        vals[i] = np.interp(x2, zeta, rows[i].real)
    return ScalarField(out_grid, vals)
