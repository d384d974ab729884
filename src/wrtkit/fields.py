"""Uniform grids, scalar/spectral fields and the fixed Fourier convention.

Every module in the library uses the same continuous Fourier transform
convention:

    F(xi) = integral f(x) exp(-i xi.x) dx
    f(x)  = (2 pi)^-n integral F(xi) exp(+i xi.x) dxi

The continuous transform is approximated by a phase-corrected DFT: scale
by the product of grid spacings and attach exp(-i xi.origin) so that the
samples really approximate the integral above, not the bare DFT.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import ValidationError, ZeroReferenceError

__all__ = [
    "Grid",
    "ScalarField",
    "SpectralField",
    "PhantomSpec",
    "gaussian_phantom",
    "gaussian_mixture_phantom",
    "smoothed_disk_phantom",
    "make_grid",
    "sample_phantom",
    "continuous_ft",
    "continuous_ift",
    "rel_l2_error",
]


@dataclass(frozen=True)
class Grid:
    """Uniform n-dimensional sampling lattice.

    ``origin`` is the physical coordinate of the first sample, coordinates
    along axis i are ``origin[i] + k * spacing[i]`` for k in range(shape[i]).
    """

    shape: tuple
    origin: tuple
    spacing: tuple

    def __post_init__(self):
        if len(self.shape) != len(self.origin) or len(self.shape) != len(self.spacing):
            raise ValidationError("grid shape/origin/spacing lengths differ")
        if any(s < 2 for s in self.shape):
            raise ValidationError("grid needs at least 2 samples per axis")
        if not all(0 < d < np.inf for d in self.spacing):
            raise ValidationError("grid spacing must be finite and strictly positive")
        if not all(-np.inf < o < np.inf for o in self.origin):
            raise ValidationError("grid origin must be finite")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "spacing", tuple(float(d) for d in self.spacing))

    @property
    def n(self):
        return len(self.shape)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_coords(self, axis):
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def points(self):
        """All grid coordinates as an (size, n) array in C order."""
        axes = [self.axis_coords(i) for i in range(self.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def index_to_coord(self, index):
        index = np.asarray(index, dtype=float)
        return np.asarray(self.origin) + index * np.asarray(self.spacing)

    def coord_to_index(self, coord):
        coord = np.asarray(coord, dtype=float)
        return (coord - np.asarray(self.origin)) / np.asarray(self.spacing)

    def frequency_grid(self):
        """Grid of DFT angular frequencies in fftshift (monotonic) order."""
        dxi = tuple(2.0 * np.pi / (N * d) for N, d in zip(self.shape, self.spacing))
        origin = tuple(-(N // 2) * dk for N, dk in zip(self.shape, dxi))
        return Grid(self.shape, origin, dxi)

    @property
    def nyquist(self):
        """Largest |xi| every axis of :meth:`frequency_grid` reaches: the band."""
        return min((N // 2) * (2.0 * np.pi / (N * d)) for N, d in zip(self.shape, self.spacing))


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray  # shape == grid.shape, real

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(values)):
            raise ValidationError("scalar field contains non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SpectralField:
    """Complex frequency-domain samples; grid coordinates are angular
    frequencies (radians per unit length), fftshift order, under the
    e^{-i xi.x} forward kernel."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).reshape(self.grid.shape)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# phantoms


@dataclass(frozen=True)
class PhantomSpec:
    """Closed-form test object: gaussian, gaussian-mixture or smoothed-disk.

    ``components`` is a non-empty sequence of mappings, stored as dicts of
    floats.  Gaussian components carry (center, sigma, amplitude); the
    smoothed disk carries (center, radius, smoothing, amplitude) and is the
    indicator of a disk convolved with an isotropic Gaussian (C^inf,
    evaluated through the noncentral-chi-square CDF).  Centres share one
    dimension, numbers are finite, lengths positive; amplitude defaults to 1.
    """

    kind: str
    components: tuple

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _SHAPE_KEYS:
            raise ValidationError(f"unknown phantom kind {self.kind!r}")
        comps = tuple(_component(self.kind, c) for c in self.components)
        if not comps:
            raise ValidationError("phantom needs at least one component")
        if len({len(c["center"]) for c in comps}) != 1 or not comps[0]["center"]:
            raise ValidationError("phantom centres need one common, non-zero dimension")
        object.__setattr__(self, "components", comps)

    @property
    def n(self):
        return len(self.components[0]["center"])

    # -- direct evaluation ---------------------------------------------------

    def evaluate(self, points):
        """Pointwise values at an (..., n) array of coordinates."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        for c in self.components:
            r2 = np.sum((points - np.asarray(c["center"])) ** 2, axis=-1)
            out += _component_profile(self.kind, c, r2)
        return out

    def evaluate_along_rays(self, u, v, t):
        """Values f(u_m + t_q v_m) as an (M, Q) array without forming the
        full point cloud; u, v are (M, n) paired arrays."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        v = np.atleast_2d(np.asarray(v, dtype=float))
        t = np.asarray(t, dtype=float)
        out = np.zeros((u.shape[0], t.size))
        c2 = np.sum(v * v, axis=1)[:, None]
        for c in self.components:
            du = u - np.asarray(c["center"])
            a = np.sum(du * du, axis=1)[:, None]
            b = np.sum(du * v, axis=1)[:, None]
            r2 = a + 2.0 * b * t[None, :] + c2 * t[None, :] ** 2
            out += _component_profile(self.kind, c, r2)
        return out

    def spectrum(self, xi):
        """Closed-form continuous Fourier transform at (..., n) frequencies."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape[:-1], dtype=complex)
        k2 = np.sum(xi * xi, axis=-1)
        k = np.sqrt(k2)
        n = self.n
        for c in self.components:
            phase = np.exp(-1j * np.sum(xi * np.asarray(c["center"]), axis=-1))
            if self.kind == "smoothed-disk":
                if n != 2:
                    raise ValidationError("smoothed-disk spectrum implemented for n=2")
                R, s, amp = c["radius"], c["smoothing"], c["amplitude"]
                disk = np.where(k > 0, 2.0 * np.pi * R * special.j1(R * np.where(k > 0, k, 1.0)) / np.where(k > 0, k, 1.0), np.pi * R**2)
                out += amp * disk * np.exp(-0.5 * s**2 * k2) * phase
            else:
                sig, amp = c["sigma"], c["amplitude"]
                out += amp * (2.0 * np.pi) ** (n / 2.0) * sig**n * np.exp(-0.5 * sig**2 * k2) * phase
        return out


_SHAPE_KEYS = {"gaussian": ("sigma",), "gaussian-mixture": ("sigma",),
               "smoothed-disk": ("radius", "smoothing")}  # the positive lengths of a kind


def _component(kind, c):
    """One phantom component as a dict of finite floats, checked."""
    try:
        center, amp = tuple(float(x) for x in c["center"]), float(c.get("amplitude", 1.0))
        lengths = {k: float(c[k]) for k in _SHAPE_KEYS[kind]}
    except KeyError as exc:
        raise ValidationError(f"phantom component missing field {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed phantom component ({exc})")
    if not np.all(np.isfinite([*center, amp, *lengths.values()])):
        raise ValidationError("phantom centres, amplitudes and lengths must be finite")
    if min(lengths.values()) <= 0:
        raise ValidationError(f"phantom {' and '.join(lengths)} must be positive")
    return {"center": center, "amplitude": amp, **lengths}


def _component_profile(kind, c, r2):
    if kind == "smoothed-disk":
        R, s, amp = c["radius"], c["smoothing"], c["amplitude"]
        # P(|x + s*g| <= R) at distance r: noncentral chi^2 with 2 dof
        return amp * stats.ncx2.cdf((R / s) ** 2, df=2, nc=r2 / s**2)
    sig, amp = c["sigma"], c["amplitude"]
    return amp * np.exp(-0.5 * r2 / sig**2)


def gaussian_phantom(center, sigma, amplitude=1.0):
    return PhantomSpec("gaussian", ({"center": center, "sigma": sigma, "amplitude": amplitude},))


def gaussian_mixture_phantom(components):
    return PhantomSpec("gaussian-mixture", tuple(
        {"center": c, "sigma": s, "amplitude": a} for c, s, a in components))


def smoothed_disk_phantom(center, radius, smoothing, amplitude=1.0):
    return PhantomSpec("smoothed-disk", ({"center": center, "radius": radius,
                                          "smoothing": smoothing, "amplitude": amplitude},))


# ---------------------------------------------------------------------------
# operations


def make_grid(n, shape, extent, center=0.0):
    """Uniform grid with per-axis physical extent, centered at ``center``.

    spacing = extent / shape, origin = center - extent / 2.
    """
    shape = np.broadcast_to(np.asarray(shape, dtype=int), (n,))
    extent = np.broadcast_to(np.asarray(extent, dtype=float), (n,))
    center = np.broadcast_to(np.asarray(center, dtype=float), (n,))
    if np.any(extent <= 0):
        raise ValidationError("grid extent must be positive")
    if np.any(shape < 2):
        raise ValidationError("grid needs at least 2 samples per axis")
    spacing = extent / shape
    origin = center - extent / 2.0
    return Grid(tuple(shape), tuple(origin), tuple(spacing))


def sample_phantom(spec, grid):
    if spec.n != grid.n:
        raise ValidationError(f"phantom dimension {spec.n} != grid dimension {grid.n}")
    vals = spec.evaluate(grid.points()).reshape(grid.shape)
    return ScalarField(grid, vals)


def _phased(values, fgrid, origin, s):
    """values * exp(s xi.origin) on the frequency grid, one axis at a time."""
    for ax in range(fgrid.n):
        ph = np.exp(s * fgrid.axis_coords(ax) * origin[ax])
        values = values * ph.reshape([-1 if a == ax else 1 for a in range(fgrid.n)])
    return values


def continuous_ft(field, warn_boundary=True):
    """Continuous-FT approximation of a real or complex field on its own
    grid; returns a SpectralField on ``field.grid.frequency_grid()``.
    Zero-pad the field first for a finer frequency grid.
    """
    grid, values = field.grid, np.asarray(field.values)
    if warn_boundary:
        vmax = np.max(np.abs(values)) or 1.0
        edge = _boundary_max(values)
        if edge > 1e-6 * vmax:
            warnings.warn(
                f"field does not decay at the grid boundary (edge max {edge:.2e}); "
                "the continuous-FT approximation degrades",
                stacklevel=2,
            )
    F = np.fft.fftshift(np.fft.fftn(values)) * grid.cell_volume
    fgrid = grid.frequency_grid()
    return SpectralField(fgrid, _phased(F, fgrid, grid.origin, -1j))


def continuous_ift(spec, out_grid):
    """Inverse of :func:`continuous_ft`; returns the real part as a ScalarField.

    ``out_grid`` must match the DFT-compatible spatial grid (same shape,
    spacing 2 pi / (N * dxi)); its origin is free.
    """
    fgrid = spec.grid
    dx = tuple(2.0 * np.pi / (N * dk) for N, dk in zip(fgrid.shape, fgrid.spacing))
    if out_grid.shape != fgrid.shape:
        raise ValidationError("output grid shape does not match the spectrum")
    if not np.allclose(out_grid.spacing, dx, rtol=1e-12):
        raise ValidationError("output grid spacing incompatible with the spectral grid")
    # strip exp(-i xi.x0) then inverse DFT, cf. the forward construction
    G = _phased(np.asarray(spec.values, dtype=complex), fgrid, out_grid.origin, 1j)
    vals = np.fft.ifftn(np.fft.ifftshift(G)) / np.prod(dx)
    # undo the fftshift ordering mismatch of the spatial index phase:
    # after ifftshift the k-index runs in DFT order, matching ifftn.
    imax = np.max(np.abs(vals.imag))
    rmax = np.max(np.abs(vals.real)) or 1.0
    if imax > 1e-8 * rmax:
        warnings.warn(
            f"inverse transform has complex magnitude {imax:.2e} "
            f"(relative {imax / rmax:.2e}); taking the real part",
            stacklevel=2,
        )
    return ScalarField(out_grid, vals.real)


def _boundary_max(values):
    m = 0.0
    for ax in range(values.ndim):
        sl0 = [slice(None)] * values.ndim
        sl1 = [slice(None)] * values.ndim
        sl0[ax] = 0
        sl1[ax] = -1
        m = max(m, np.max(np.abs(values[tuple(sl0)])), np.max(np.abs(values[tuple(sl1)])))
    return m


def rel_l2_error(a, b):
    """||a - b||_2 / ||b||_2 over shared grid samples."""
    if a.grid != b.grid:
        raise ValidationError("fields live on different grids")
    bnorm = np.linalg.norm(b.values)
    if bnorm == 0.0:
        raise ZeroReferenceError("reference field is identically zero")
    return float(np.linalg.norm(a.values - b.values) / bnorm)
