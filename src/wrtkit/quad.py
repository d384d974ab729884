"""Composite Gauss-Legendre quadrature helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["QuadratureParams", "gauss_legendre_panels", "trapezoid_weights"]


@dataclass(frozen=True)
class QuadratureParams:
    """Composite Gauss-Legendre rule: ``panels`` equal panels with
    ``nodes`` points each, placed by the forward transforms in one of two
    ways.  A real window gets ``panels`` panels on its support [-T, T],
    refined up to ``max_panels`` (None or ``panels``: no refinement) when a
    long v sweeps the source's narrowest feature through the support in a
    tiny t-interval; each v column, and each rho of perp data, is refined
    for its own |v|.  Ray by ray, the panels where the source is below 1e-17
    of its peak are skipped, and each ray's nodes are summed by themselves,
    so no value depends on the worker count or on how the rays are grouped
    into source calls; the factored route of ``windowed_ray_transform`` (a
    gaussian phantom or a sampled field on a u grid) skips instead the nodes
    at which the whole shifted grid misses the region where the source is
    above that level.  The analytic-signal kernel gets
    max(``panels``, 64) panels on each ray's clip interval (where the
    source is above that level), cut at t = 0 below its pole; they resolve
    the pole only for |v| >= 1e-2 (off by 0.9 % at |v| = 1e-3, 99 % at 1e-6).
    """

    panels: int = 32
    nodes: int = 16
    max_panels: int | None = 256

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 2:
            raise ValidationError("need at least 1 panel and 2 nodes")
        if self.max_panels is not None and self.max_panels < self.panels:
            object.__setattr__(self, "max_panels", self.panels)


def gauss_legendre_panels(a, b, panels, nodes):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return t, wt


# exp(x) is a normal double exactly when x >= ln of the smallest one (or it overflows)
_LOG_TINY = math.log(np.finfo(float).tiny)  # -708.396...


def _exp_flushed(x, out=None):
    """np.exp(x), bit for bit, where that is a normal double, and exactly 0
    where it is not (x < ln 2.2250738585072014e-308); NaN stays NaN.

    numpy's SIMD exp takes a slow path on every lane whose result is
    subnormal or 0, and gaussian exponents often fall there: the closed form
    far from the centre, the gaussian and hermite1 hhat beyond the band, and
    the factored forward's per-axis gaussian factors along a long u axis.
    Those lanes are masked instead (numpy 2.4 on a 2-core x86-64 box: 16
    against 2.7 ns a value on a 128^2 closed-form slice where 58 % of the
    results underflow; masking the factors of a 400-point u1 axis took
    make_slice_dataset from about 120 to 80 ms on one worker).  Ray-by-ray
    exponents, one per ray node, keep np.exp: they get this low where a
    mixture's clip interval (the hull of its balls) takes a narrow component
    far from its own, but rarely (two sigma = 0.05 gaussians at (+-1, 0),
    perp 256 rho x 64 theta, bump:2.0, 16 panels: 22,868 of 2,152,576),
    and masking them measured no faster (25.1 against 23.4 ms, one worker)."""
    x = np.asarray(x, dtype=float)
    low = x < _LOG_TINY
    if not low.any():
        return np.exp(x, out=out)
    if out is None:
        out = np.empty_like(x)
    np.exp(x, out=out, where=~low)
    np.copyto(out, 0.0, where=low)
    return out


def trapezoid_weights(x):
    """Trapezoid weights, half the distance between the two neighbours (half a
    step at the ends), on at least two finite, strictly increasing nodes x;
    else ValidationError, as reversed nodes would flip the integral's sign."""
    x = np.asarray(x, dtype=float)
    if x.size < 2 or not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise ValidationError("trapezoid nodes must be at least two, finite and strictly increasing")
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0], w[-1] = 0.5 * (x[1] - x[0]), 0.5 * (x[-1] - x[-2])
    return w
