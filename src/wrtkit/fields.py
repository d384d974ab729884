"""Uniform grids, sampled fields, phantoms and the fixed Fourier convention.

Every module in the library uses the same continuous Fourier transform
convention:

    F(xi) = integral f(x) exp(-i xi.x) dx
    f(x)  = (2 pi)^-n integral F(xi) exp(+i xi.x) dxi

The continuous transform is approximated by a phase-corrected DFT: scale
by the product of grid spacings and attach exp(-i xi.origin) so that the
samples really approximate the integral above, not the bare DFT.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, ZeroReferenceError

__all__ = [
    "Grid",
    "ScalarField",
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


# The range of every length (_lengths): window parameters, grid spacings, |v|, radii, phantom
# lengths.  The routes form at most a cube of one, or the square of a ratio of two, and divide
# by it, and here both stay normal doubles.
_SCALE_RANGE = (1e-100, 1e100)


def _lengths(x, what):
    """x as floats in _SCALE_RANGE (not NaN or inf), else ValidationError "{what} in [lo, hi]"."""
    x, (lo, hi) = np.asarray(x, dtype=float), _SCALE_RANGE
    if not np.all((x >= lo) & (x <= hi)):
        raise ValidationError(f"{what} in [{lo:g}, {hi:g}]")
    return x


@dataclass(frozen=True)
class Grid:
    """Uniform n-dimensional sampling lattice.

    ``origin`` is the physical coordinate of the first sample, coordinates
    along axis i are ``origin[i] + k * spacing[i]`` for k in range(shape[i]).
    Spacings lie in [1e-100, 1e100] (_SCALE_RANGE), a frequency grid's too.
    """

    shape: tuple
    origin: tuple
    spacing: tuple

    def __post_init__(self):
        if len(self.shape) != len(self.origin) or len(self.shape) != len(self.spacing):
            raise ValidationError("grid shape/origin/spacing lengths differ")
        if any(s < 2 for s in self.shape):
            raise ValidationError("grid needs at least 2 samples per axis")
        _lengths(self.spacing, "grid spacing must be")
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
    """Finite samples on a grid, the one container for sampled fields, real
    (float64) or complex (complex128), e.g. a spectrum of continuous_ft.
    Consumers that need real samples reject complex ones (ValidationError)."""

    grid: Grid
    values: np.ndarray  # shape == grid.shape

    def __post_init__(self):
        values = np.asarray(self.values)
        values = values.astype(complex if np.iscomplexobj(values) else float, copy=False)
        values = values.reshape(self.grid.shape)
        # complex samples are checked as their float pairs, about twice as fast
        # as np.isfinite on complex; the float view needs C order
        complex_c = values.dtype == complex and values.flags.c_contiguous
        parts = values.view(float) if complex_c else values
        if not np.all(np.isfinite(parts)):
            raise ValidationError("scalar field contains non-finite values")
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# phantoms


@dataclass(frozen=True)
class PhantomSpec:
    """Closed-form test object: gaussian, gaussian-mixture or smoothed-disk.

    ``components`` is a non-empty sequence of mappings, stored as dicts of
    floats.  Gaussian components carry (center, sigma, amplitude); the
    smoothed disk carries (center, radius, smoothing, amplitude) and is the
    indicator of a disk convolved with an isotropic Gaussian (C^inf; its
    radial profile, the noncentral-chi-square CDF, is read from a table built
    once per spec, see _DiskProfile).  Centres share one dimension, numbers
    are finite, lengths positive; amplitude defaults to 1.  Values at points,
    on a grid and along rays all come from one evaluator, _values: per
    component, the squared distance to its centre summed axis by axis.
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

    @functools.cached_property
    def _tables(self):
        """Per component, a smoothed disk's _DiskProfile table (built once) or None."""
        return [_DiskProfile(c) if self.kind == "smoothed-disk" else None for c in self.components]

    # -- direct evaluation ---------------------------------------------------

    def evaluate(self, points):
        """Pointwise values at an (..., n) array of coordinates."""
        return _values(self, np.moveaxis(np.asarray(points, dtype=float), -1, 0))

    def evaluate_along_rays(self, u, v, t):
        """f(u_m + t_q v_m), (M, Q), of paired rays u, v (M, n): :meth:`evaluate` there."""
        u, v = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (u, v))
        t = np.asarray(t, dtype=float)
        return _values(self, [ui[:, None] + vi[:, None] * t for ui, vi in zip(u.T, v.T)])

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
                from scipy import special

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
    if not np.all(np.isfinite([*center, amp])):
        raise ValidationError("phantom centres and amplitudes must be finite")
    _lengths(list(lengths.values()), f"phantom {' and '.join(lengths)} must be")
    return {"center": center, "amplitude": amp, **lengths}


def _ray_sums(spec, u, v, t, weights):
    """sum_q f(u_m + t_q v_m) weights[..., q] as (M,), rays u, v (M, n), weights
    (Q,) or (M, Q).  A gaussian's rays are reduced in place: per component one
    reused (M, Q) buffer takes k |u + t v - c|^2 = ((k |v|^2) t + 2 k b) t + k a
    (k = -1 / 2 sigma^2, a = |u - c|^2, b = (u - c).v)."""
    if spec.kind == "smoothed-disk":
        return np.vecdot(_values(spec, [ui[:, None] + vi[:, None] * t
                                        for ui, vi in zip(u.T, v.T)]), weights)
    v2 = np.sum(v * v, axis=1)[:, None]
    e = np.empty((u.shape[0], t.size))
    out = np.zeros(u.shape[0], dtype=np.result_type(float, weights))
    for c in spec.components:
        k, du = -0.5 / c["sigma"] ** 2, u - np.asarray(c["center"])
        np.copyto(e, t)
        e *= k * v2
        e += 2.0 * k * np.sum(du * v, axis=1)[:, None]
        e *= t
        e += k * np.sum(du * du, axis=1)[:, None]
        out += c["amplitude"] * np.vecdot(np.exp(e, out=e), weights)
    return out


def _values(spec, coords):
    """Phantom values at points given per axis: coords[i] holds the x_i, and
    the arrays broadcast together.  Per component, r^2 = sum_i (x_i - c_i)^2
    is summed axis by axis (never below 0) and read by its profile; a far
    point's r^2 overflows to inf, which every profile reads as 0."""
    shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
    out = np.zeros(shape)
    with np.errstate(over="ignore"):
        for c, table in zip(spec.components, spec._tables):
            r2 = np.zeros(shape)
            for x, ci in zip(coords, c["center"], strict=True):
                r2 += (x - ci) ** 2
            if table is not None:
                out += table(r2)
            else:  # amp exp(-r^2 / 2 sigma^2), in place in r^2
                r2 *= -0.5
                r2 /= c["sigma"] ** 2
                out += np.multiply(np.exp(r2, out=r2), c["amplitude"], out=r2)
    return out


_EPS = 1e-17  # sources are treated as zero below this share of their peak
_TAIL = float(np.sqrt(2.0 * np.log(1.0 / _EPS)))  # a unit gaussian is _EPS of its peak here


def _disk_clip_radius(c):
    """The distance from a smoothed-disk component's centre beyond which it
    is below _EPS of its amplitude."""
    return c["radius"] + c["smoothing"] * (_TAIL + 1.0)


class _DiskProfile:
    """r^2 (summed per axis by _values, so >= 0) -> one smoothed-disk
    component at distance r from its centre; built once per spec (_tables).

    The profile P(r) = amp P(|x + s g| <= R), g a standard normal, is the
    noncentral chi-square CDF amp chndtr((R / s)^2, 2, (r / s)^2) (what
    stats.ncx2.cdf computes, without scipy.stats).  scipy.special is
    imported here, when the first disk's tables are built, so ``import
    wrtkit`` loads no scipy module.  It is tabulated once on a uniform r
    grid of step s / 1000 over [R - (tail + 1) s, clip radius] (from 0 when R is
    smaller), with the closed-form slope dP/dr = -amp (R / s^2)
    e^{-(r - R)^2 / 2 s^2} i1e(r R / s^2), and read by cubic Hermite
    interpolation: within 4e-15 amp of chndtr for R / s up to 20, at most
    19,700 steps at any R / s.  Inside the table's start it is P there
    (1 - P / amp < _EPS), beyond its end (r^2 = inf too) 0.
    """

    def __init__(self, c):
        from scipy import special

        R, s, amp = c["radius"], c["smoothing"], c["amplitude"]
        self.start = max(0.0, R - s * (_TAIL + 1.0))
        self.end = _disk_clip_radius(c)
        self.steps = max(1, int(np.ceil(1000.0 * (self.end - self.start) / s)))
        self.h = (self.end - self.start) / self.steps
        r = self.start + self.h * np.arange(self.steps + 1)
        p = amp * special.chndtr((R / s) ** 2, 2, (r / s) ** 2)
        d = -amp * self.h * R / s**2 * np.exp(-0.5 * ((r - R) / s) ** 2) * special.i1e(r * R / s**2)
        # P(start + h (k + x)) = c0 + x (c1 + x (c2 + x c3)) on step k, x in [0, 1]
        dp = p[1:] - p[:-1]
        self.coef = (p[:-1], d[:-1], 3.0 * dp - 2.0 * d[:-1] - d[1:], d[:-1] + d[1:] - 2.0 * dp)

    def __call__(self, r2):
        r = np.sqrt(np.asarray(r2, dtype=float).reshape(-1))
        beyond = r > self.end
        r -= self.start
        r /= self.h
        np.clip(r, 0.0, self.steps, out=r)
        k = np.minimum(r.astype(np.intp), self.steps - 1)
        r -= k  # the position x in step k
        c0, c1, c2, c3 = self.coef
        out = c3[k]
        for ck in (c2, c1, c0):
            out *= r
            out += ck[k]
        out[beyond] = 0.0
        return out.reshape(np.shape(r2))


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
    if np.any(shape < 2):  # before the division; Grid checks the spacing it gives
        raise ValidationError("grid needs at least 2 samples per axis")
    return Grid(tuple(shape), tuple(center - extent / 2.0), tuple(extent / shape))


def sample_phantom(spec, grid):
    if spec.n != grid.n:
        raise ValidationError(f"phantom dimension {spec.n} != grid dimension {grid.n}")
    return ScalarField(grid, _values(spec, np.ix_(*map(grid.axis_coords, range(grid.n)))))


def _phased(values, fgrid, origin, s):
    """values * exp(s xi.origin) on the frequency grid, one axis at a time."""
    for ax in range(fgrid.n):
        ph = np.exp(s * fgrid.axis_coords(ax) * origin[ax])
        values = values * ph.reshape([-1 if a == ax else 1 for a in range(fgrid.n)])
    return values


def _uniform_step(x, name, at_least=2, symmetric=False):
    """The step x[1] - x[0] (0.0 for one sample) of a finite 1-D line x of at least ``at_least``
    samples, steps equal to rtol 1e-10 and, if ``symmetric``, |x[0] + x[-1]| <= 1e-9 |step|."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < at_least or not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} grid must be uniform, finite and at least {at_least} long")
    if x.size == 1:
        return 0.0
    d = np.diff(x)  # np.allclose(d, d[0], rtol=1e-10, atol=0.0), at a fifth of its cost:
    if not np.all(np.abs(d - d[0]) <= 1e-10 * abs(d[0])):
        raise ValidationError(f"{name} grid must be uniform (steps equal to rtol 1e-10)")
    if symmetric and abs(x[0] + x[-1]) > 1e-9 * abs(d[0]):
        raise ValidationError(f"{name} grid must be symmetric about 0")
    return d[0]


def _log_line(r, name):
    """ln r of a 1-D line r of at least two lengths whose logs rise in equal steps (rtol 1e-8)."""
    u = np.log(_lengths(r, f"{name} must be positive lengths"))
    if u.ndim != 1 or u.size < 2:
        raise ValidationError(f"need a 1-d {name} of at least 2 radii")
    steps = np.diff(u)
    if not (steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-8, atol=0.0)):
        raise ValidationError(f"{name} grid must be log-uniform with a positive step")
    return u


def _exp_i_blocks(y, a, rows):
    """exp(i y_k a_j) for a symmetric y line (_uniform_step) and 1-D a, as an
    iterator of (k, E[k:k + n]) row blocks of the (Ny, Na) table, n about rows.

    With groups of B = ceil(sqrt(Ny)) samples and k = qB + m, the uniform
    step dy gives e^{i y_k a} = e^{i y_qB a} e^{i m dy a}: a fine table over
    one group times the coarse row of each group start, written as the
    group's own first row.  That is (Ny/B + B) Na exponentials, not Ny Na.
    A block is whole groups (at least one; the whole table when rows >= Ny)
    in one buffer that the next block overwrites.  The line is checked
    here, before anything is allocated.
    """
    _uniform_step(y, "y", 1, symmetric=True)
    ny = y.size
    dy = (y[-1] - y[0]) / max(ny - 1, 1)
    B = math.isqrt(ny - 1) + 1
    step = ny if rows >= ny else max(rows // B, 1) * B
    fine = np.exp(np.multiply.outer(dy * np.arange(B), 1j * a))  # its row m = 0 is 1
    buf = np.empty((step, a.size), dtype=complex)

    def blocks():
        for k0 in range(0, ny, step):
            E = buf[:ny - k0]
            for k in range(0, len(E), B):
                start = np.multiply(1j * y[k0 + k], a, out=E[k])
                np.exp(start, out=start)
                np.multiply(fine[1:len(E) - k], start, out=E[k + 1:k + B])  # a last group may be short
            yield k0, E

    return blocks()


def _exp_i_outer(y, a):
    """exp(i y_k a_j), (Ny, Na) complex, whole: _exp_i_blocks' one block (the
    t2 route's per-axis phases, the Mellin recovery's blocks of radii, the
    slice route's e^{-i a sigma v1} over its v1 line)."""
    return next(_exp_i_blocks(y, a, y.size))[1]


def continuous_ft(field, warn_boundary=True):
    """Continuous-FT approximation of a real or complex ScalarField on its
    own grid; returns a complex ScalarField on ``field.grid.frequency_grid()``
    (angular frequencies, fftshift order).  Zero-pad the field first for a
    finer frequency grid.
    """
    grid, values = field.grid, field.values
    if warn_boundary:
        _warn_undecayed(values, "the continuous-FT approximation degrades")
    F = np.fft.fftshift(np.fft.fftn(values)) * grid.cell_volume
    fgrid = grid.frequency_grid()
    return ScalarField(fgrid, _phased(F, fgrid, grid.origin, -1j))


def continuous_ift(spec, out_grid):
    """Inverse of :func:`continuous_ft`: ``spec`` is a ScalarField on a
    frequency grid; returns the real part as a ScalarField on ``out_grid``.

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
    G = _phased(spec.values, fgrid, out_grid.origin, 1j)
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


def _warn_undecayed(values, consequence, stacklevel=3):
    """Warn, naming the ``consequence``, when sampled values on a grid do not
    decay at its boundary: the edge max is above 1e-6 of the peak."""
    edge = max(np.max(np.abs(np.take(values, i, axis=a)))
               for a in range(values.ndim) for i in (0, -1))
    if edge > 1e-6 * np.max(np.abs(values)):
        warnings.warn(f"field does not decay at the grid boundary (edge max {edge:.2e}); "
                      f"{consequence}", stacklevel=stacklevel)


def rel_l2_error(a, b):
    """||a - b||_2 / ||b||_2 over shared grid samples."""
    if a.grid != b.grid:
        raise ValidationError("fields live on different grids")
    bnorm = np.linalg.norm(b.values)
    if bnorm == 0.0:
        raise ZeroReferenceError("reference field is identically zero")
    return float(np.linalg.norm(a.values - b.values) / bnorm)
