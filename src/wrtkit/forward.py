"""Forward windowed ray transform  P_h f(u, v) = integral f(u + t v) h(t) dt.

Data is computed on a grid of base points u crossed with a parametrized
set of direction/scale vectors v (a VSet), or on the n=2 perpendicular
polar configuration g(rho, theta) = P_h f(rho e(theta), rho e(theta)^perp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import NumericalError, ValidationError
from .fields import Grid, PhantomSpec, ScalarField, continuous_ft
from .quad import QuadratureParams, gauss_legendre_panels
from .windows import (
    WindowSpec,
    window_eval,
    window_ft,
    window_support_radius,
)

__all__ = [
    "VSet",
    "WRTData",
    "PolarWRT",
    "full_grid_vset",
    "polar_vset",
    "v1_line_vset",
    "windowed_ray_transform",
    "wrt_columns",
    "analytic_wrt_gaussian",
    "analytic_wrt_data",
    "wrt_polar_perp",
    "fourier_identity_residual",
]


@dataclass(frozen=True)
class VSet:
    """Parametrized set of v vectors.

    mode 'full-grid':  vectors from an n-dim grid (zero-norm entries rejected)
    mode 'polar':      directions x radii, direction-major ordering
    mode 'v1-line':    v = (v1_k, v'), v' fixed
    """

    mode: str
    vectors: np.ndarray          # (Nv, n)
    directions: np.ndarray | None = None
    radii: np.ndarray | None = None
    v1: np.ndarray | None = None
    vprime: np.ndarray | None = None

    def __post_init__(self):
        vec = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "vectors", vec)
        if vec.size == 0:
            raise ValidationError("VSet needs at least one vector")
        norms = np.linalg.norm(vec, axis=1)
        if not np.all((norms > 0.0) & (norms < np.inf)):
            raise ValidationError("VSet vectors need a finite, non-zero norm (v = 0 is not allowed)")

    def __len__(self):
        return self.vectors.shape[0]


def full_grid_vset(grid):
    return VSet("full-grid", grid.points())


def polar_vset(directions, radii):
    """Direction-major polar vset, v[k * Nr + j] = radii[j] * directions[k];
    the routes read ``radii`` as |v|, so directions must be unit vectors."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise ValidationError("polar radii must be strictly positive")
    if not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-12):
        raise ValidationError("polar directions must be unit vectors")
    vec = (directions[:, None, :] * radii[None, :, None]).reshape(-1, directions.shape[1])
    return VSet("polar", vec, directions=directions, radii=radii)


def uniform_circle(n_theta, jitter=0.0, seed=0):
    """Uniform unit directions on S^1, optionally jittered (seeded)."""
    if not 0 <= jitter < np.inf:
        raise ValidationError("direction jitter must be finite and >= 0")
    offs = np.zeros(n_theta)
    if jitter:
        rng = np.random.default_rng(seed)
        offs = rng.uniform(-jitter, jitter, size=n_theta)
    ang = 2.0 * np.pi * (np.arange(n_theta) + offs) / n_theta
    return np.stack([np.cos(ang), np.sin(ang)], axis=1), ang


def v1_line_vset(v1, vprime):
    v1 = np.asarray(v1, dtype=float)
    vprime = np.atleast_1d(np.asarray(vprime, dtype=float))
    vec = np.concatenate(
        [v1[:, None], np.broadcast_to(vprime, (v1.size, vprime.size))], axis=1
    )
    return VSet("v1-line", vec, v1=v1, vprime=vprime)


@dataclass(frozen=True)
class WRTData:
    u_grid: Grid
    vset: VSet
    window: WindowSpec
    values: np.ndarray  # (u_grid.size, len(vset)); complex iff window complex

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.shape != (self.u_grid.size, len(self.vset)):
            raise ValidationError("WRT values have the wrong shape")
        if not np.all(np.isfinite(vals)):
            raise NumericalError("WRT values contain non-finite entries")
        object.__setattr__(self, "values", vals)

    def slice_values(self, j):
        """Values for v index j, reshaped onto the u grid."""
        return self.values[:, j].reshape(self.u_grid.shape)


@dataclass(frozen=True)
class PolarWRT:
    """g(rho, theta) = P_h f(rho e(theta), rho e(theta)^perp), n = 2 only.

    theta_k = 2 pi k / N with N a power of two (the FFT of
    circular_decompose), rho positive and log-uniform (Mellin friendly).
    """

    rho: np.ndarray
    theta: np.ndarray
    window: WindowSpec
    values: np.ndarray  # (Nrho, Ntheta)

    def __post_init__(self):
        rho, theta = _perp_axes(self.rho, self.theta)
        vals = np.asarray(self.values)
        if vals.shape != (rho.size, theta.size):
            raise ValidationError("perp values must have shape (rho.size, theta.size)")
        if not np.all(np.isfinite(vals)):
            raise NumericalError("perp values contain non-finite entries")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "values", vals)


def _perp_axes(rho, theta):
    """rho and theta as float arrays on the grid PolarWRT documents, else ValidationError."""
    rho, theta = np.asarray(rho, dtype=float), np.asarray(theta, dtype=float)
    nt = theta.size
    if np.any(rho <= 0):
        raise ValidationError("polar radii must be positive")
    if rho.size < 2 or nt < 1:
        raise ValidationError("perp data needs at least 2 radii and 1 angle")
    if nt & (nt - 1):
        raise ValidationError("theta count must be a power of two")
    if theta.ndim != 1 or not np.allclose(theta, 2.0 * np.pi * np.arange(nt) / nt, 0.0, 1e-12):
        raise ValidationError("theta grid must be 2 pi k / N, k = 0, ..., N - 1")
    steps = np.diff(np.log(rho))
    if not (steps[0] > 0 and np.allclose(steps, steps[0], rtol=1e-8)):
        raise ValidationError("rho grid must be log-uniform with a positive step")
    return rho, theta


def _time_nodes(w, quad, v_norm, feature):
    """Nodes and weights of a real window: Gauss-Legendre panels on its
    support [-T, T].  ``feature`` is the narrowest spatial length scale of
    the source; a long v squeezes it into a t-interval of width
    feature / |v|, and the panel count is refined (up to
    ``quad.max_panels``) to resolve it.
    """
    T = window_support_radius(w, tol=1e-14)
    panels = quad.panels
    if quad.max_panels is not None and v_norm:
        delta = feature / v_norm  # 0 when |v| overflows: refine up to the cap
        needed = np.inf if delta == 0 else np.ceil(4.0 * T / (quad.nodes * delta))
        panels = int(min(quad.max_panels, max(panels, needed)))
    return gauss_legendre_panels(-T, T, panels, quad.nodes)


_EPS = 1e-17  # sources are treated as zero below this share of their peak


def _ray_source(f):
    """(values, interval, feature) of a phantom or a sampled field: values(U,
    V, t) is f(u_m + t_q v_m) as (M, Q), interval(U, V) the per-ray [lo, hi]
    in t outside which |f| <= _EPS times the peak (lo > hi: the ray misses),
    feature the narrowest length scale (smallest sigma or smoothing of a
    phantom, smallest grid spacing of a field)."""
    if isinstance(f, PhantomSpec):
        tail = np.sqrt(2.0 * np.log(1.0 / _EPS))
        disk = f.kind == "smoothed-disk"
        balls = [(np.asarray(c["center"]), c["radius"] + c["smoothing"] * (tail + 1.0)
                  if disk else c["sigma"] * tail) for c in f.components]
        feature = min(c["smoothing"] if disk else c["sigma"] for c in f.components)

        def interval(U, V):  # hull of the component balls
            lo, hi = zip(*(_ball_interval(U - c, V, r) for c, r in balls))
            return np.min(lo, axis=0), np.max(hi, axis=0)

        return f.evaluate_along_rays, interval, feature
    if not isinstance(f, ScalarField):
        raise ValidationError("source must be a PhantomSpec or ScalarField")
    g = f.grid
    coef = ndimage.spline_filter(f.values, 3, mode="constant")  # map_coordinates' prefilter
    # B-spline weights are >= 0 and sum to 1, so beyond the 2-cell stencil of
    # the coefficients above _EPS max|c|, |f| <= _EPS max|c|; outside the
    # sample range [0, N - 1] mode "constant" reads 0, so the box ends there
    # and a field that does not vanish at the edge jumps at the interval end
    big = np.nonzero(np.abs(coef) >= _EPS * np.max(np.abs(coef)))
    box = g.index_to_coord(np.array([np.clip([ix.min() - 2, ix.max() + 2], 0, N - 1)
                                     for ix, N in zip(big, g.shape)]).T)
    mid, half = 0.5 * (box[0] + box[1]), 0.5 * (box[1] - box[0])

    def values(U, V, t):
        idx = g.coord_to_index(U[:, None, :] + t[None, :, None] * V[:, None, :]).reshape(-1, g.n)
        return ndimage.map_coordinates(coef, idx.T, order=3, mode="constant",
                                       prefilter=False).reshape(U.shape[0], t.size)

    def interval(U, V):  # Siddon's slabs: each axis is a 1-d ball, intersected
        lo, hi = zip(*(_ball_interval(U[:, i:i + 1] - mid[i], V[:, i:i + 1], half[i])
                       for i in range(g.n)))
        return np.max(lo, axis=0), np.min(hi, axis=0)

    return values, interval, float(min(g.spacing))


def _ball_interval(du, V, rad):
    """Per-ray [lo, hi] in t with |du + t v| <= rad (lo > hi: no hit)."""
    v2 = np.einsum("ij,ij->i", V, V)
    b = np.einsum("ij,ij->i", du, V)
    gap = np.einsum("ij,ij->i", du, du) - rad**2
    disc = b * b - v2 * gap  # of |v|^2 t^2 + 2 b t + gap
    flat = v2 == 0.0  # |v|^2 underflowed: the ray is the point u
    hit = np.where(flat, gap <= 0.0, disc >= 0.0)
    root, safe = np.where(flat, np.inf, np.sqrt(np.maximum(disc, 0.0))), np.where(flat, 1.0, v2)
    return np.where(hit, (-b - root) / safe, np.inf), np.where(hit, (-b + root) / safe, -np.inf)


def _ray_sum(src, w, quad, U, V):
    """P_h f(u_m, v_m) for paired rays (U, V), src from _ray_source.

    A real window takes the nodes of _time_nodes for the longest v; per ray,
    the panels (quad.nodes consecutive nodes) outside the clip interval are
    skipped, and rays that keep the same panel range form one dense block.
    """
    values, interval, feature = src
    lo, hi = interval(U, V)
    if not w.is_real:
        return _analytic_sum(values, w, quad, U, V, lo, hi)
    k = quad.nodes
    t, wt = _time_nodes(w, quad, float(np.max(np.linalg.norm(V, axis=1))), feature)
    hw = window_eval(w, t) * wt
    npan = t.size // k
    p_lo = np.searchsorted(t[k - 1::k], lo, side="left")
    p_hi = np.maximum(np.searchsorted(t[::k], hi, side="right"), p_lo)
    key = p_lo * (npan + 1) + p_hi
    out = np.zeros(U.shape[0])
    order = np.argsort(key, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        a, z = divmod(int(key[rows[0]]), npan + 1)
        if z > a:
            out[rows] = values(U[rows], V[rows], t[a * k:z * k]) @ hw[a * k:z * k]
    return out


def _analytic_sum(values, w, quad, U, V, lo, hi):
    """P_h f for h(t) = 1 / (2 pi i (t - i)) on the clip intervals [lo, hi].

    Each interval is cut at t = 0, below the kernel's pole, so the pole sits
    over a panel edge; a piece [a, b] gets max(panels, 64) panels, evaluated
    as values(U + a V, (b - a) V, s) on nodes s in [0, 1] shared by all
    pieces.  A ray with an unbounded interval (|v|^2 underflowed inside the
    support) is the point u and gets f(u) hhat(0) = f(u) / 2.  The panels
    resolve the pole only for |v| >= 1e-2: against the Faddeeva closed form
    (gaussian sigma 0.5, u = (0.25, 0), v perpendicular to u) the error is
    5e-8 at |v| = 1e-2, 0.9 % at 1e-3 and 99 % at 1e-6.
    """
    s, ws = gauss_legendre_panels(0.0, 1.0, max(quad.panels, 64), quad.nodes)
    M = U.shape[0]
    a = np.concatenate([lo, np.maximum(lo, 0.0)])
    b = np.concatenate([np.minimum(hi, 0.0), hi])
    length = b - a
    sums = np.zeros(2 * M, dtype=complex)
    live = np.flatnonzero((length > 0.0) & (length < np.inf))
    step = max(1, 2**20 // s.size)  # pieces per block: temporaries near 16 MB
    for j in range(0, live.size, step):
        rows = live[j:j + step]
        m, L = rows % M, length[rows, None]
        h = window_eval(w, a[rows, None] + L * s)
        sums[rows] = (values(U[m] + a[rows, None] * V[m], L * V[m], s) * h) @ ws * L[:, 0]
    out = sums[:M] + sums[M:]
    point = np.flatnonzero((lo < hi) & ~(hi - lo < np.inf))
    out[point] = 0.5 * values(U[point], V[point], np.zeros(1))[:, 0]
    return out


def wrt_columns(f, w, U, vectors, quad=QuadratureParams()):
    """P_h f(u_m, v_j), (M, Nv), for base points U (M, n) crossed with
    vectors (Nv, n); the quadrature of :func:`windowed_ray_transform`."""
    U, vectors = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (U, vectors))
    src = _ray_source(f)  # rejects anything but a phantom or a sampled field
    if (f.grid if isinstance(f, ScalarField) else f).n != U.shape[1]:
        raise ValidationError("source/grid dimension mismatch")
    if vectors.shape[1] != U.shape[1]:
        raise ValidationError("vset/grid dimension mismatch")
    out = np.zeros((U.shape[0], vectors.shape[0]), dtype=float if w.is_real else complex)
    for j, v in enumerate(vectors):
        out[:, j] = _ray_sum(src, w, quad, U, np.broadcast_to(v, U.shape))
    return out


def windowed_ray_transform(f, w, u_grid, vset, quad=QuadratureParams()):
    """P_h f on u_grid x vset by composite Gauss-Legendre quadrature in t,
    with the node rules of :class:`~wrtkit.quad.QuadratureParams`."""
    return WRTData(u_grid, vset, w, wrt_columns(f, w, u_grid.points(), vset.vectors, quad))


def _has_closed_form(f, w):
    """Whether :func:`analytic_wrt_gaussian` applies: gaussian phantom(s), gaussian window."""
    return isinstance(f, PhantomSpec) and f.kind.startswith("gaussian") and w.kind == "gaussian"


def analytic_wrt_gaussian(f, w, u, v):
    """Closed-form P_h f for gaussian phantom(s) and a gaussian window, else ValidationError.

    Derived by completing the square in t:
      integral amp exp(-(A + 2 B t + |v|^2 t^2) / (2 s^2)) exp(-t^2 / 2 sw^2) dt
      = amp sqrt(pi / alpha) exp(-A / 2 s^2 + B^2 / (4 alpha s^4)),
      alpha = |v|^2 / (2 s^2) + 1 / (2 sw^2),  A = |u - c|^2,  B = (u - c).v

    u and v are paired points, broadcast against each other over their
    leading axes.  v = 0 is legal here (value f(u) integral h).
    """
    if not _has_closed_form(f, w):
        raise ValidationError("the closed form needs gaussian phantom(s) and a gaussian window")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    sw = w.sigma
    out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]))
    v2 = np.sum(v * v, axis=-1)
    for c in f.components:
        s, amp = c["sigma"], c["amplitude"]
        du = u - np.asarray(c["center"])
        alpha = v2 / (2.0 * s**2) + 1.0 / (2.0 * sw**2)
        # the exponent is built in place in B, the largest temporary
        B = np.einsum("...i,...i->...", du, v)
        B *= B
        B /= 4.0 * alpha * s**4
        B -= 0.5 * np.sum(du * du, axis=-1) / s**2
        np.exp(B, out=B)
        B *= amp * np.sqrt(np.pi / alpha)
        out += B
    return out if out.size > 1 else float(out.reshape(-1)[0])


def analytic_wrt_data(f, w, u_grid, vset):
    """WRTData filled from the closed-form gaussian/gaussian result.

    Crosses every grid point with blocks of v columns, sized so that the
    temporaries stay near 8 MB in all.  Useful wherever exact transform
    data is needed without quadrature cost (calibration, geometry
    studies); same restrictions as :func:`analytic_wrt_gaussian`.
    """
    U = u_grid.points()[:, None, :]
    vals = np.empty((U.shape[0], len(vset)))
    block = max(1, 2**19 // U.shape[0])
    for lo in range(0, len(vset), block):
        vals[:, lo:lo + block] = analytic_wrt_gaussian(f, w, U, vset.vectors[lo:lo + block])
    return WRTData(u_grid, vset, w, vals)


def wrt_polar_perp(f, w, rho, theta, quad=QuadratureParams()):
    """g(rho, theta) = P_h f(u, u^perp) with u = rho (cos t, sin t), by the
    rule of :func:`windowed_ray_transform` on blocks of 8,192 rays (a memory
    bound; a real window refines its panels for the longest v in a block)."""
    rho, theta = _perp_axes(rho, theta)
    src = _ray_source(f)
    if (f.grid if isinstance(f, ScalarField) else f).n != 2:
        raise ValidationError("perpendicular polar transform is n=2 only")
    ct, st = np.cos(theta), np.sin(theta)
    # paired (rho, theta) points: u = rho e(theta), v = rho e(theta)^perp
    U = np.stack([np.multiply.outer(rho, ct).ravel(), np.multiply.outer(rho, st).ravel()], axis=1)
    V = np.stack([np.multiply.outer(rho, -st).ravel(), np.multiply.outer(rho, ct).ravel()], axis=1)
    vals = np.concatenate([_ray_sum(src, w, quad, U[lo:lo + 8192], V[lo:lo + 8192])
                           for lo in range(0, U.shape[0], 8192)])
    return PolarWRT(rho, theta, w, vals.reshape(rho.size, theta.size))


def fourier_identity_residual(data, f_spec, band=None):
    """Residual of FT_u(P_h f)(xi, v) = fhat(xi) hhat(-xi.v), h the data's window.

    Returns max over sampled (xi, v) of |lhs - rhs| / max |fhat|.
    ``band``: optional cap on |xi| (defaults to the full frequency grid).
    """
    if not isinstance(data, WRTData) or data.vset.mode not in ("full-grid", "polar"):
        raise ValidationError("identity check needs WRTData on a full-grid or polar vset")
    Xi = data.u_grid.frequency_grid().points()
    fhat = f_spec.spectrum(Xi)
    scale = np.max(np.abs(fhat))
    mask = np.ones(Xi.shape[0], dtype=bool)
    if band is not None:
        mask = np.linalg.norm(Xi, axis=1) <= band
    worst = 0.0
    for j in range(len(data.vset)):
        v = data.vset.vectors[j]
        lhs = continuous_ft(
            ScalarField(data.u_grid, data.slice_values(j)), warn_boundary=False
        ).values.ravel()
        rhs = fhat * window_ft(data.window, -(Xi @ v))
        worst = max(worst, float(np.max(np.abs(lhs - rhs)[mask]) / scale))
    return worst
