"""Forward windowed ray transform  P_h f(u, v) = integral f(u + t v) h(t) dt.

Data is computed on a grid of base points u crossed with a parametrized
set of direction/scale vectors v (a VSet), or on the n=2 perpendicular
polar configuration g(rho, theta) = P_h f(rho e(theta), rho e(theta)^perp).
"""

from __future__ import annotations

import functools
import itertools
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import NumericalError, ValidationError
from .fields import (
    _EPS,
    _TAIL,
    Grid,
    PhantomSpec,
    ScalarField,
    _disk_clip_radius,
    _lengths,
    _log_line,
    _ray_sums,
    _warn_undecayed,
    continuous_ft,
)
from .quad import QuadratureParams, _exp_flushed, gauss_legendre_panels
from .windows import (
    WindowSpec,
    _window_eval,
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
    "analytic_wrt_perp",
    "wrt_polar_perp",
    "fourier_identity_residual",
]


@dataclass(frozen=True)
class VSet:
    """Parametrized set of v vectors, at least one, every |v| a length (so not v = 0).

    mode 'full-grid':  vectors from an n-dim grid
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
        with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected
            _lengths(np.linalg.norm(vec, axis=1), "v vectors need a length |v|")

    def __len__(self):
        return self.vectors.shape[0]


def full_grid_vset(grid):
    return VSet("full-grid", grid.points())


def polar_vset(directions, radii):
    """Direction-major polar vset, v[k * Nr + j] = radii[j] * directions[k];
    the routes read ``radii`` as |v|, so directions must be unit vectors."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    radii = _lengths(radii, "polar radii must be positive lengths")
    if radii.ndim != 1:
        raise ValidationError("polar radii must be a list of numbers")
    with np.errstate(over="ignore"):  # a norm that overflows is inf, rejected here
        unit = np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-12
    if not np.all(unit):
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
    if v1.ndim != 1 or vprime.ndim != 1:
        raise ValidationError("v1 and v' must be lists of numbers")
    vec = np.concatenate(
        [v1[:, None], np.broadcast_to(vprime, (v1.size, vprime.size))], axis=1
    )
    return VSet("v1-line", vec, v1=v1, vprime=vprime)


@dataclass(frozen=True)
class WRTData:
    """P_h f on u_grid x vset, complex iff the window is.

    ``values`` has shape (u_grid.size, len(vset)) and one layout, v-major:
    it is the transpose of a C-order (len(vset), u_grid.size) array, so each
    v slice ``values[:, j]`` is contiguous.  Producers fill that array and
    pass its transpose, which is kept as it is; values in any other layout
    are copied into it.
    """

    u_grid: Grid
    vset: VSet
    window: WindowSpec
    values: np.ndarray

    def __post_init__(self):
        if self.vset.vectors.shape[1] != self.u_grid.n:
            raise ValidationError(f"v vectors of dimension {self.vset.vectors.shape[1]} on a "
                                  f"{self.u_grid.n}-D u grid")
        vals = np.asarray(self.values)
        if vals.shape != (self.u_grid.size, len(self.vset)):
            raise ValidationError("WRT values have the wrong shape")
        rows = np.ascontiguousarray(vals.T)  # vals.T itself when already v-major
        # checked a block of slices at a time, so no whole-array temporary is
        # formed; complex rows as their float pairs, as ScalarField does
        parts = rows.view(float) if rows.dtype == complex else rows
        for block in _runs(parts, parts.shape[1], _BLOCK):
            if not np.all(np.isfinite(block)):
                raise NumericalError("WRT values contain non-finite entries")
        object.__setattr__(self, "values", rows.T)

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
    _log_line(rho, "rho")
    nt = theta.size
    if nt < 1 or nt & (nt - 1):
        raise ValidationError("theta count must be a power of two")
    if theta.ndim != 1 or not np.allclose(theta, 2.0 * np.pi * np.arange(nt) / nt, 0.0, 1e-12):
        raise ValidationError("theta grid must be 2 pi k / N, k = 0, ..., N - 1")
    return rho, theta


def _panels_needed(quad, T, v_norm, feature):
    """Panels a real window's rule on its support [-T, T] needs for a ray of
    length |v|.  ``feature`` is the narrowest spatial length scale of the
    source; a long v squeezes it into a t-interval of width feature / |v|,
    a quarter panel at this count (``quad.panels`` at least), a finite double
    since both are lengths in [1e-100, 1e100]."""
    delta = float(feature) / v_norm
    return max(quad.panels, float(np.ceil(4.0 * (float(T) / (quad.nodes * delta)))))


def _panel_count(quad, T, v_norm, feature):
    """Panels of a real window's rule on [-T, T] for a ray of length |v|:
    :func:`_panels_needed`, capped at ``quad.max_panels``."""
    return int(min(quad.max_panels, _panels_needed(quad, T, v_norm, feature)))


def _time_nodes(w, quad, T, panels):
    """The rule (t, h(t) wt) of a real window: ``panels`` Gauss-Legendre
    panels of ``quad.nodes`` nodes on [-T, T]."""
    t, wt = gauss_legendre_panels(-T, T, panels, quad.nodes)
    return t, window_eval(w, t) * wt


def _node_rules(w, quad, norms, feature, stacklevel):
    """The node rule of each ray length |v| in ``norms``, built on the caller
    once per distinct panel count, so pool threads share it.  The
    analytic-signal kernel has one rule (s, ws) on [0, 1] for all rays.
    Warns once when ``quad.max_panels`` (``panels`` for an unrefined rule)
    caps the longest ray's count: its panels are then wider than the source's
    narrowest feature, which they can miss (0 for a wide window, no other sign)."""
    if not w.is_real:
        return [gauss_legendre_panels(0.0, 1.0, max(quad.panels, 64), quad.nodes)] * len(norms)
    T = window_support_radius(w, tol=1e-14)
    counts = [_panel_count(quad, T, float(r), feature) for r in norms]
    rules = {p: _time_nodes(w, quad, T, p) for p in set(counts)}
    needed = _panels_needed(quad, T, float(np.max(norms)), feature)  # grows with |v|
    if needed > max(counts):
        warnings.warn(f"the forward's rule needs {needed:.6g} panels to resolve the "
                      f"source's narrowest feature on its longest ray, but max_panels "
                      f"caps it at {max(counts)}: the values may miss the source",
                      stacklevel=stacklevel)
    return [rules[p] for p in counts]


_Source = namedtuple("_Source", "sums interval feature factored run")  # see _ray_source


def _ray_source(f):
    """The _Source of a phantom or a real sampled field, built once per call
    on the caller (which also builds a smoothed disk's profile tables, once
    per spec):

    - sums(U, V, t, weights): sum_q f(u_m + t_q v_m) weights[..., q] as (M,),
      weights (Q,) or (M, Q), with no (M, Q) values for a gaussian phantom;
    - interval(U, V): the per-ray [lo, hi] in t outside which |f| <= _EPS
      times the peak (lo > hi: the ray misses);
    - feature: the narrowest length scale (smallest sigma or smoothing of a
      phantom, smallest grid spacing of a field);
    - factored(axes, v, t, hw): sum_q hw_q f(u + t_q v) over every u of the
      grid with these axes, raveled in C order, summed from per-axis factor
      matrices over the nodes where the shifted grid meets the source's box
      (the interval's box or ball) on every axis; None for the smoothed disk,
      which does not factor per axis;
    - run: the ray nodes of one sums call where :func:`_ray_columns` plans
      its calls, _NODES, or _NODES / 32 for the smoothed disk, whose sums holds
      about eight (rays x nodes) arrays (the gaussian's one, the field's three)
      and is fastest on runs that stay in cache.
    """
    if isinstance(f, PhantomSpec):
        disk = f.kind == "smoothed-disk"
        balls = [(np.asarray(c["center"]), _disk_clip_radius(c) if disk else c["sigma"] * _TAIL)
                 for c in f.components]
        feature = min(c["smoothing"] if disk else c["sigma"] for c in f.components)

        def interval(U, V):  # hull of the component balls
            lo, hi = zip(*(_ball_interval(U - c, V, r) for c, r in balls))
            return np.min(lo, axis=0), np.max(hi, axis=0)

        f._tables  # noqa: B018  (built here, so the pool threads only read them)
        sums = functools.partial(_ray_sums, f)
        if disk:
            return _Source(sums, interval, feature, None, _NODES // 32)
        comps = [(c, s["sigma"], s["amplitude"], r) for (c, r), s in zip(balls, f.components)]
        return _Source(sums, interval, feature, functools.partial(_gaussian_column, comps), _NODES)
    if not isinstance(f, ScalarField):
        raise ValidationError("source must be a PhantomSpec or ScalarField")
    if np.iscomplexobj(f.values):
        raise ValidationError("the forward's source field must be real, not complex")
    from scipy import ndimage

    g = f.grid
    coef = ndimage.spline_filter(f.values, 3, mode="constant")  # map_coordinates' prefilter
    # B-spline weights are >= 0 and sum to 1, so beyond the 2-cell stencil of
    # the coefficients above _EPS max|c|, |f| <= _EPS max|c|; outside the
    # sample range [0, N - 1] mode "constant" reads 0, so the box ends there
    # and a field that does not vanish at the edge jumps at the interval end
    big = np.nonzero(np.abs(coef) >= _EPS * np.max(np.abs(coef)))
    ibox = np.array([np.clip([ix.min() - 2, ix.max() + 2], 0, N - 1)
                     for ix, N in zip(big, g.shape)]).T
    box = g.index_to_coord(ibox)
    mid, half = 0.5 * (box[0] + box[1]), 0.5 * (box[1] - box[0])

    def sums(U, V, t, weights):
        # the sample indices (u + t v - origin) / spacing, built in place one axis at a time
        idx = np.empty((g.n, U.shape[0], t.size))
        for i, x in enumerate(idx):
            np.multiply(V[:, i, None], t, out=x)
            x += U[:, i, None]
            x -= g.origin[i]
            x /= g.spacing[i]
        vals = ndimage.map_coordinates(coef, idx.reshape(g.n, -1), order=3, mode="constant",
                                       prefilter=False).reshape(U.shape[0], t.size)
        return np.vecdot(vals, weights)

    def interval(U, V):  # Siddon's slabs: each axis is a 1-d ball, intersected
        lo, hi = zip(*(_ball_interval(U[:, i:i + 1] - mid[i], V[:, i:i + 1], half[i])
                       for i in range(g.n)))
        return np.max(lo, axis=0), np.min(hi, axis=0)

    # inside the sample range, map_coordinates(order=3, mode="constant") is
    # sum_k c[k] prod_i B3(x_i - k_i) with the coefficients c mirrored at the
    # edges; the box's stencils need c on [lo - 1, hi + 2] of each axis
    mirrored = np.pad(coef, 2, mode="reflect")[tuple(slice(a + 1, b + 5) for a, b in ibox.T)]
    return _Source(sums, interval, float(min(g.spacing)),
                   functools.partial(_spline_column, mirrored, ibox, g), _NODES)


def _ball_interval(du, V, rad):
    """Per-ray [lo, hi] in t with |du + t v| <= rad (lo > hi: no hit)."""
    v2 = np.einsum("ij,ij->i", V, V)
    b = np.einsum("ij,ij->i", du, V)
    gap = np.einsum("ij,ij->i", du, du) - rad**2
    disc = b * b - v2 * gap  # of |v|^2 t^2 + 2 b t + gap
    flat = v2 == 0.0  # a field's per-axis slab when v is axis-aligned: u_i never moves
    hit = np.where(flat, gap <= 0.0, disc >= 0.0)
    root, safe = np.where(flat, np.inf, np.sqrt(np.maximum(disc, 0.0))), np.where(flat, 1.0, v2)
    return np.where(hit, (-b - root) / safe, np.inf), np.where(hit, (-b + root) / safe, -np.inf)


_NODES = 2**19  # ray nodes per source evaluation: the ray-by-ray route's one memory bound
# ray nodes a pool worker's share of a planned block carries at least: one full
# run of a gaussian or a field; on 2 cores, two shares of the disk's short runs
# were no faster than one, as its evaluation does not scale over threads
_SHARE = _NODES
_BLOCK = 2**16  # values per numpy call where the oracle or WRTData's check walks v slices,
# and rays per planned block of _ray_columns


def _runs(items, size, budget):
    """``items`` (an array, or a range) cut into runs of at most ``budget``
    values (one item at least) of ``size`` each."""
    step = max(1, budget // size)
    return (items[j:j + step] for j in range(0, len(items), step))


def _panel_keys(src, k, t, rays, cols, M, ids):
    """Per ray id r of the range ``ids``, the ray rays(cols[r // M], r % M),
    the key a (P + 1) + z of the panels a, ..., z - 1 of the real window's
    rule t (P panels of k nodes) that meet its clip interval; z = a when the
    ray misses the source."""
    c, m = np.divmod(np.arange(ids.start, ids.stop), M)
    lo, hi = src.interval(*rays(np.take(cols, c), m))
    p_lo = np.searchsorted(t[k - 1::k], lo, side="left")
    p_hi = np.maximum(np.searchsorted(t[::k], hi, side="right"), p_lo)
    return p_lo * (t.size // k + 1) + p_hi


def _analytic_sum(src, w, rule, U, V):
    """P_h f(u_m, v_m) for h(t) = 1 / (2 pi i (t - i)) and paired rays (U, V),
    on their clip intervals [lo, hi] = src.interval(U, V).

    Each interval is cut at t = 0, below the kernel's pole, so the pole sits
    over a panel edge; a piece [a, b] gets the panels of ``rule`` (s, ws),
    max(panels, 64) of them on [0, 1], and is (b - a) src.sums(U + a V,
    (b - a) V, s, ws h(a + (b - a) s)), all pieces in one call.  The panels
    resolve the pole only for |v| >= 1e-2: against the Faddeeva closed form
    (gaussian sigma 0.5, u = (0.25, 0), v perpendicular to u) the error is
    5e-8 at |v| = 1e-2, 0.9 % at 1e-3 and 99 % at 1e-6.  The callers warn
    when such rays reach it (_warn_unresolved_pole).
    """
    s, ws = rule
    lo, hi = src.interval(U, V)
    M = U.shape[0]
    a = np.concatenate([lo, np.maximum(lo, 0.0)])
    length = np.concatenate([np.minimum(hi, 0.0), hi]) - a
    pieces = np.zeros(2 * M, dtype=complex)
    live = np.flatnonzero(length > 0.0)
    m, L, a = live % M, length[live, None], a[live, None]
    pieces[live] = src.sums(U[m] + a * V[m], L * V[m], s, ws * _window_eval(w, a + L * s)) * L[:, 0]
    return pieces[:M] + pieces[M:]


def _gaussian_column(comps, axes, v, t, hw):
    """factored() of gaussian components (centre, sigma, amplitude, clip
    radius): a component at the nodes where the shifted grid meets its clip
    box is sum_q amp hw_q prod_i G_i[m_i, q] with the per-axis factors
    G_i[m, q] = exp(-(u_i[m] - c_i + t_q v_i)^2 / 2 sigma^2), 0 below the
    smallest normal double (_exp_flushed; along a long axis most are), summed
    by GEMMs over runs of nodes small enough (m n k <= 2^19) that OpenBLAS
    runs each on one thread, so the pool workers do not contend for its
    threads."""
    out = np.zeros((int(np.prod([x.size for x in axes[:-1]])), axes[-1].size))
    for c, s, amp, r in comps:
        with np.errstate(over="ignore"):  # a node past the largest double is inf, never live
            d = [x[:, None] - ci + t * vi for x, ci, vi in zip(axes, c, v)]
        live = np.logical_and.reduce([np.any(np.abs(di) <= r, axis=0) for di in d])
        if not live.any():
            continue
        *first, last = (_exp_flushed(-0.5 * (di[:, live] / s) ** 2) for di in d)
        head = amp * hw[live]  # times the Khatri-Rao product of all factors but the last
        for g in first:
            head = (head[..., None, :] * g).reshape(-1, g.shape[1])
        step = max(1, 2**19 // out.size)
        for j in range(0, last.shape[1], step):
            out += head[..., j:j + step] @ last[:, j:j + step].T
    return out.ravel()


def _spline_column(coef, ibox, g, axes, v, t, hw):
    """factored() of a sampled field on grid g: coef holds the mirrored spline
    coefficients of the index box ibox (lo, hi per axis), and each node q
    gives per-axis matrices B_i,q of cubic B-spline weights, 4 a row, zero
    where the sample index is outside the box.  The column is
    sum_q hw_q coef x_0 B_0,q ... x_n-1 B_n-1,q, contracted one axis at a time
    as a batch of per-node GEMMs, each cut to m n k <= 2^19 so that OpenBLAS
    runs it on one thread and the pool workers do not contend for its
    threads, in blocks of nodes whose temporaries stay near 4 MB."""
    with np.errstate(over="ignore"):  # a node past the largest double is inf, never inside
        x = [(xa[:, None] + t * vi - o) / d for xa, vi, o, d in zip(axes, v, g.origin, g.spacing)]
    inside = [(xi >= lo) & (xi <= hi) for xi, lo, hi in zip(x, *ibox)]
    live = np.flatnonzero(np.logical_and.reduce([i.any(axis=0) for i in inside]))
    M, K = [xa.size for xa in axes], coef.shape
    out = np.zeros(M)
    per_node = sum(m * k for m, k in zip(M, K)) + 2 * int(np.prod(np.maximum(M, K)))
    step = max(1, 2**19 // per_node)
    for j in range(0, live.size, step):
        q = live[j:j + step]
        T, rows = coef[None], []  # T: (nodes, k_i ... k_n-1, m_0 ... m_i-1) before axis i
        for i, (xi, ins) in enumerate(zip(x, inside)):
            hit = np.flatnonzero(ins[:, q].any(axis=1))  # the rows some node of the block meets
            rows.append(slice(hit[0], hit[-1] + 1))
            Bi = _spline_weights(xi[rows[i], q].T, ins[rows[i], q].T, ibox[0][i], K[i])
            if i == 0:
                Bi *= hw[q, None, None]
            A = T.reshape(T.shape[0], K[i], -1).transpose(0, 2, 1)
            T = np.empty((q.size, A.shape[1], Bi.shape[1]))
            c = max(1, 2**19 // (K[i] * Bi.shape[1]))  # rows of A per per-node GEMM
            for r in range(0, A.shape[1], c):
                np.matmul(A[:, r:r + c], Bi.transpose(0, 2, 1), out=T[:, r:r + c])
        part = out[tuple(rows)]
        part += T.sum(axis=0).reshape(part.shape)
    return out.ravel()


def _spline_weights(x, inside, lo, k):
    """(Q, M, k) cubic B-spline weights of sample indices x (Q, M) on the
    coefficients lo - 1, ..., lo + k - 2; entries where ``inside`` is false are 0."""
    j = np.floor(x.ravel())
    s = x.ravel() - j
    r = 1.0 - s
    ends = inside.ravel() / 6.0
    first = np.clip(j - lo, 0, k - 4).astype(np.intp)
    first += k * np.arange(first.size)
    B = np.zeros(x.shape + (k,))
    flat = B.reshape(-1)
    flat[first] = r**3 * ends
    flat[first + 1] = ((3.0 * s - 6.0) * s * s + 4.0) * ends
    flat[first + 2] = ((3.0 * r - 6.0) * r * r + 4.0) * ends
    flat[first + 3] = s**3 * ends
    return B


def _grid_source(f, n, vectors):
    """_ray_source(f) for base points of dimension n crossed with ``vectors``."""
    src = _ray_source(f)  # rejects anything but a phantom or a sampled field
    _check_dimensions((f.grid if isinstance(f, ScalarField) else f).n, n, vectors)
    return src


def _check_dimensions(source_n, n, vectors):
    """ValidationError unless the source and the vectors (last axis) have dimension n."""
    if source_n != n:
        raise ValidationError("source/grid dimension mismatch")
    if vectors.shape[-1] != n:
        raise ValidationError("vset/grid dimension mismatch")


def _warn_unresolved_pole(w, norms, rays_each, stacklevel):
    """Warn when the analytic-signal kernel meets rays with |v| < 1e-2,
    ``rays_each`` rays per norm: :func:`_analytic_sum`'s panels do not
    resolve its pole there."""
    if w.is_real:
        return
    count = int(np.count_nonzero(norms < 1e-2)) * rays_each
    if count:
        warnings.warn(f"{count} analytic-signal rays have |v| < 1e-2, where the forward "
                      "quadrature does not resolve the kernel's pole (error against the "
                      "Faddeeva closed form: 0.9 % at |v| = 1e-3, 99 % at 1e-6)",
                      stacklevel=stacklevel)


def _columns(src, w, U, vectors, quad):
    """wrt_columns on a checked source: column j holds the rays (U[m], vectors[j])."""
    UT, VT = U.T.copy(), vectors.T.copy()  # column-major rays: (rays, n) math ran 4-8x faster
    return _ray_columns(src, w, quad, np.linalg.norm(vectors, axis=1), U.shape[0],
                        lambda c, m: (np.take(UT, m, axis=1).T, np.take(VT, c, axis=1).T), 4).T


def _ray_columns(src, w, quad, norms, M, rays, stacklevel):
    """P_h f, (len(norms), M), ray by ray on columns j of M rays with |v| =
    norms[j]; rays(c, m) gives the paired rays (U, V) of column indices c
    and row indices m.  One block of at most _BLOCK rays at a time, the
    source calls are planned (:func:`_plan`) and shared out whole
    (:func:`_shares`), so more workers make no more, smaller calls; each ray
    is reduced by itself, so no value depends on the worker count or the run
    size.  The key pass and the runs go on pool threads, so they call no
    name perfbench's layer tracer wraps.  ``stacklevel`` (seen from here)
    is the caller an unresolved pole or a capped refinement warns at."""
    _warn_unresolved_pole(w, norms, M, stacklevel + 1)
    rules = _node_rules(w, quad, norms, src.feature, stacklevel + 1)
    out = np.zeros((len(norms), M), dtype=float if w.is_real else complex)

    def run(shares):  # _pool.map hands each worker a list of one share of planned calls
        for cols, ids, t, hw in itertools.chain.from_iterable(shares):
            c, m = np.divmod(ids, M)
            j = np.take(cols, c)
            U, V = rays(j, m)
            out[j, m] = src.sums(U, V, t, hw) if w.is_real else _analytic_sum(src, w, (t, hw), U, V)

    tag = {}  # the columns of one rule are planned together
    by_rule = np.argsort([tag.setdefault(id(r), len(tag)) for r in rules], kind="stable")
    for block in _runs(by_rule, M, _BLOCK):
        _pool.map(run, _shares(_plan(src, w, quad.nodes, rules, block, M, rays)))
    return out


def _plan(src, w, k, rules, block, M, rays):
    """The source calls (cols, ids, t, hw) of the columns ``block``, sorted
    by rule; ray id r of the columns cols of one rule is rays(cols[r // M],
    r % M).  A real window's rays are grouped by the panels they keep
    (:func:`_panel_keys`, on the pool), each group cut into runs of at most
    src.run ray nodes.  The analytic-signal kernel's rays, whose pieces
    :func:`_analytic_sum` cuts per ray, are cut in order into runs of at
    most src.run nodes of their two pieces."""
    calls = []
    for _, same in itertools.groupby(block, lambda j: id(rules[j])):
        cols = np.fromiter(same, int)
        t, hw = rules[cols[0]]
        if not w.is_real:
            calls += [(cols, ids, t, hw)
                      for ids in _runs(np.arange(cols.size * M), 2 * t.size, src.run)]
            continue
        key = np.concatenate(_pool.map(functools.partial(_panel_keys, src, k, t, rays, cols, M),
                                       range(cols.size * M)))
        order = np.argsort(key, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
            a, z = divmod(int(key[group[0]]), t.size // k + 1)
            if z > a:  # rays that miss the source make no call
                nodes = slice(a * k, z * k)
                calls += [(cols, ids, t[nodes], hw[nodes])
                          for ids in _runs(group, z * k - a * k, src.run)]
    return calls


def _shares(calls):
    """``calls`` cut in order into min(_pool.workers(), work // _SHARE)
    shares (one at least) of about equal work, rays x nodes: a call goes to
    the share its midpoint in the running work falls in, so each share is
    within one call's work of the mean."""
    if not calls:
        return []
    work = np.array([ids.size * t.size for _, ids, t, _ in calls])
    total = int(work.sum())
    n = max(1, min(_pool.workers(), total // _SHARE))
    share = (2 * np.cumsum(work) - work) * n // (2 * total)
    cuts = np.flatnonzero(np.diff(share)) + 1
    return [calls[a:z] for a, z in zip([0, *cuts], [*cuts, len(calls)])]


def wrt_columns(f, w, U, vectors, quad=QuadratureParams()):
    """P_h f(u_m, v_j), (M, Nv) in the v-major layout of :class:`WRTData`,
    for base points U (M, n) crossed with the vectors (Nv, n) of a VSet, ray
    by ray: the rule of :func:`windowed_ray_transform` with the panels
    outside each ray's clip interval skipped.  The source calls are planned
    on the caller and shared out whole over the pool workers
    (:func:`_ray_columns`), so the values do not depend on the worker count."""
    U, vectors = np.atleast_2d(np.asarray(U, dtype=float)), VSet("full-grid", vectors).vectors
    src = _grid_source(f, U.shape[1], vectors)
    _warn_cut_field(f, w)
    return _columns(src, w, U, vectors, quad)


def _warn_cut_field(f, w):
    """Warn when a real window meets a sampled field that does not vanish at
    its grid edge: the field jumps to 0 there, inside a panel, and the rule
    loses its accuracy (7e-3 of max at the default rule, measured)."""
    if w.is_real and isinstance(f, ScalarField):
        _warn_undecayed(f.values, "the forward quadrature degrades across the jump to 0 there", 4)


def windowed_ray_transform(f, w, u_grid, vset, quad=QuadratureParams()):
    """P_h f on u_grid x vset by composite Gauss-Legendre quadrature in t,
    with the node rules of :class:`~wrtkit.quad.QuadratureParams`.

    A real window with a gaussian (or gaussian-mixture) phantom or a sampled
    field takes the factored route: every ray of a v column shares the nodes,
    and the source factors per axis, so each column is a sum of per-axis
    factor matrix products over the nodes where the shifted grid meets the
    source's box; pool workers take contiguous ranges of the columns.  It
    does not clip per ray, so a ray that misses the source gets its tiny true
    value, not 0, unless a gaussian's per-axis factor there is below the
    smallest normal double, which reads 0.  Anything else (the smoothed disk,
    the analytic-signal kernel) runs :func:`wrt_columns` ray by ray, which
    shares out planned source calls."""
    src = _grid_source(f, u_grid.n, vset.vectors)
    _warn_cut_field(f, w)
    if w.is_real and src.factored is not None:
        values = _factored_columns(src, w, u_grid, vset.vectors, quad)
    else:
        values = _columns(src, w, u_grid.points(), vset.vectors, quad)
    return WRTData(u_grid, vset, w, values)


def _factored_columns(src, w, u_grid, vectors, quad):
    """The factored route of windowed_ray_transform: one v column per call of
    src.factored, contiguous ranges of columns per pool worker."""
    rules = _node_rules(w, quad, np.linalg.norm(vectors, axis=1), src.feature, 4)
    axes = [u_grid.axis_coords(i) for i in range(u_grid.n)]
    out = np.zeros((vectors.shape[0], u_grid.size))

    def fill(part):  # a range of columns
        for j in part:
            out[j] = src.factored(axes, vectors[j], *rules[j])

    _pool.map(fill, range(vectors.shape[0]))
    return out.T


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
    _check_closed_form(f, w)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    _check_dimensions(f.n, u.shape[-1], v)
    out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]))
    v2 = np.sum(v * v, axis=-1)
    for c in f.components:
        du = u - np.asarray(c["center"])
        B = np.einsum("...i,...i->...", du, v)
        out += _closed_form_term(B, 0.5 * np.sum(du * du, axis=-1) / c["sigma"]**2, v2, c, w)
    return out if out.size > 1 else float(out.reshape(-1)[0])


def _closed_form_term(B, a, v2, c, w):
    """One gaussian component c's term of the closed form, built in place in
    B = (u - c).v, the largest temporary: amp sqrt(pi / alpha) times the
    flushed exp(B^2 / (4 alpha s^4) - a), with a = |u - c|^2 / 2 s^2 and
    alpha = |v|^2 / 2 s^2 + 1 / 2 sw^2."""
    s = c["sigma"]
    alpha = v2 / (2.0 * s**2) + 1.0 / (2.0 * w.sigma**2)
    B *= B
    B /= 4.0 * alpha * s**4
    B -= a
    _exp_flushed(B, out=B)
    B *= c["amplitude"] * np.sqrt(np.pi / alpha)
    return B


def _check_closed_form(f, w):
    if not _has_closed_form(f, w):
        raise ValidationError("the closed form needs gaussian phantom(s) and a gaussian window")


def analytic_wrt_data(f, w, u_grid, vset):
    """WRTData filled from the closed-form gaussian/gaussian result.

    Each v column is one grid-shaped slice: per component, the exponent
    B^2 / (4 alpha s^4) - A / (2 s^2) of :func:`analytic_wrt_gaussian` takes
    A / (2 s^2) computed once per call and B = (u - c).v built per axis, as
    an outer sum of (x_i - c_i) v_i, so no (points x columns) temporary is
    formed.  Each pool worker fills one contiguous range of the columns, a
    block of consecutive columns of at most _BLOCK values per numpy call
    (one column on a larger grid): on one small slice per call, the workers'
    interpreter-lock handoffs between calls cost more than the arithmetic.
    Every value goes through the same operations whatever its block or
    worker, so the values do not depend on the worker count.  Useful
    wherever exact transform data is needed without quadrature cost
    (calibration, geometry studies); same restrictions as
    :func:`analytic_wrt_gaussian`, checked, with the dimensions, before any
    column is computed.
    """
    _check_closed_form(f, w)
    _check_dimensions(f.n, u_grid.n, vset.vectors)
    shape = u_grid.shape
    axes = [u_grid.axis_coords(i) for i in range(u_grid.n)]
    comps = []  # per component: the open mesh of x_i - c_i, A / (2 s^2), c
    for c in f.components:
        d = np.ix_(*(x - ci for x, ci in zip(axes, c["center"])))
        comps.append((d, sum(di * di for di in d) / (2.0 * c["sigma"]**2), c))
    lead = (slice(None),) + (None,) * u_grid.n  # a column axis ahead of the grid's
    vs = [vi[lead] for vi in vset.vectors.T]  # per axis, v_i as (Nv, 1, ..., 1)
    v2s = np.sum(vset.vectors * vset.vectors, axis=-1)[lead]
    vals = np.zeros((len(vset),) + shape)

    def fill(part):  # part: a range of columns
        for block in _runs(part, u_grid.size, _BLOCK):
            j = slice(block.start, block.stop)
            e = np.empty((len(block),) + shape)
            for d, a, c in comps:
                np.copyto(e, d[0] * vs[0][j])
                for di, vi in zip(d[1:], vs[1:]):
                    e += di * vi[j]
                vals[j] += _closed_form_term(e, a, v2s[j], c, w)

    _pool.map(fill, range(len(vset)))
    return WRTData(u_grid, vset, w, vals.reshape(len(vset), -1).T)


def wrt_polar_perp(f, w, rho, theta, quad=QuadratureParams()):
    """g(rho, theta) = P_h f(u, u^perp) with u = rho (cos t, sin t), by the
    rule of :func:`windowed_ray_transform`: a real window refines its panels
    for each rho = |v| on its own.  Each rho row is a column of
    :func:`_ray_columns`, so the values do not depend on the worker count."""
    rho, theta = _perp_axes(rho, theta)
    src = _ray_source(f)
    if (f.grid if isinstance(f, ScalarField) else f).n != 2:
        raise ValidationError("perpendicular polar transform is n=2 only")
    _warn_cut_field(f, w)
    return PolarWRT(rho, theta, w,
                    _ray_columns(src, w, quad, rho, theta.size, _perp_rays(rho, theta), 3))


def _perp_rays(rho, theta):
    """rays(c, m), the paired rays (U, V) of rho indices c and theta indices m,
    (len(c), 2) each: u = rho e(theta), v = rho e(theta)^perp."""
    e = np.stack([np.cos(theta), np.sin(theta)])
    perp = np.stack([-e[1], e[0]])
    return lambda c, m: ((np.take(e, m, axis=1) * np.take(rho, c)).T,
                         (np.take(perp, m, axis=1) * np.take(rho, c)).T)


def analytic_wrt_perp(f, w, rho, theta):
    """PolarWRT filled from :func:`analytic_wrt_gaussian` on the rays of
    :func:`wrt_polar_perp`, with the same restrictions and grid checks."""
    rho, theta = _perp_axes(rho, theta)
    rays = _perp_rays(rho, theta)(*np.divmod(np.arange(rho.size * theta.size), theta.size))
    return PolarWRT(rho, theta, w, analytic_wrt_gaussian(f, w, *rays).reshape(rho.size, -1))


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
