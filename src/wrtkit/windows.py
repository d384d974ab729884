"""Window functions h, their Fourier transforms and derived quantities.

The catalog is fixed to four kinds:

* ``gaussian(sigma)``     -- even, non-admissible (hhat(0) != 0)
* ``hermite1(sigma)``     -- t exp(-t^2 / 2 sigma^2): odd, admissible
* ``bump(radius)``        -- exp(-1 / (1 - (t/R)^2)) on |t| < R: even,
                             compactly supported, not odd
* ``analytic-signal``     -- 1 / (2 pi i (t - i)): complex, forward-only

All Fourier transforms use hhat(eta) = integral h(t) exp(-i eta t) dt.
The inversion constants derive from the one integral c_h2 = integral h^2:
for a real window |hhat| is even, so Plancherel gives
integral_0^inf |hhat|^2 = pi c_h2 and integral_R |hhat|^2 = 2 pi c_h2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, ValidationError
from .fields import _lengths
from .quad import _exp_flushed, gauss_legendre_panels

__all__ = [
    "WindowSpec",
    "WindowConstants",
    "gaussian_window",
    "hermite1_window",
    "bump_window",
    "analytic_signal_window",
    "window_eval",
    "window_ft",
    "window_constants",
    "window_support_radius",
]

KINDS = ("gaussian", "hermite1", "bump", "analytic-signal")
# normalization constants of the t1 and t2 inversions (CLI --constant-mode)
CONSTANT_MODES = ("paper", "theory", "calibrated", "raw")


@dataclass(frozen=True)
class WindowSpec:
    kind: str
    sigma: float | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown window kind {self.kind!r}")
        name, value = ("radius", self.radius) if self.kind == "bump" else ("sigma", self.sigma)
        if self.kind != "analytic-signal":  # a missing, string or list parameter fails as NaN
            _lengths(value if isinstance(value, numbers.Real) else np.nan,
                     f"{self.kind} window needs a {name}")

    @property
    def is_real(self):
        return self.kind != "analytic-signal"

    @property
    def parity(self):
        """'even', 'odd' or 'none'."""
        if self.kind in ("gaussian", "bump"):
            return "even"
        if self.kind == "hermite1":
            return "odd"
        return "none"


def gaussian_window(sigma=1.0):
    return WindowSpec("gaussian", sigma=float(sigma))


def hermite1_window(sigma=1.0):
    return WindowSpec("hermite1", sigma=float(sigma))


def bump_window(radius=1.0):
    return WindowSpec("bump", radius=float(radius))


def analytic_signal_window():
    return WindowSpec("analytic-signal")


def window_eval(w, t):
    """Pointwise h(t); complex only for the analytic-signal kernel."""
    return _window_eval(w, t)


def _window_eval(w, t):
    # window_eval under a name perfbench's layer tracer does not wrap (see
    # _window_ft): the forward's pool threads evaluate h through this
    t = np.asarray(t, dtype=float)
    if w.kind == "gaussian":
        return np.exp(-0.5 * (t / w.sigma) ** 2)
    if w.kind == "hermite1":
        return t * np.exp(-0.5 * (t / w.sigma) ** 2)
    if w.kind == "bump":
        x2 = (t / w.radius) ** 2
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(x2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - x2, 1e-300)), 0.0)
        return out
    # analytic-signal: 1 / (2 pi i (t - i)) = (1 - i t) / (2 pi (1 + t^2)),
    # real arithmetic up to one complex result
    r = 1.0 / (2.0 * np.pi * (1.0 + t * t))
    return r - 1j * (t * r)


def _bump_ft_nodes(radius):
    # the integrand is C^inf with all derivatives vanishing at |t| = R,
    # so a dense composite rule on [0, R] is spectrally accurate; 64 panels
    # resolve cos(eta t) up to |eta| R = 1200, beyond which |hhat| < 2.3e-17 hhat(0)
    t, wt = gauss_legendre_panels(0.0, radius, 64, 16)
    h = _window_eval(WindowSpec("bump", radius=radius), t)
    return t, wt * h


def window_ft(w, eta):
    """hhat(eta) = integral h(t) exp(-i eta t) dt.

    Closed form for gaussian and hermite1, quadrature for bump.
    """
    return _window_ft(w, eta)


def _window_ft(w, eta):
    # window_ft under a name perfbench's layer tracer does not wrap: the
    # tracer keeps one span stack, so code on pool threads must call this.
    # The gaussian factor exp(-(s eta)^2 / 2) is exactly 0 wherever it would
    # be below the smallest normal double (|s eta| > 37.64), see _exp_flushed.
    if w.parity == "even":
        return np.asarray(_even_window_ft(w, eta), dtype=complex)[()]
    eta = np.asarray(eta, dtype=float)
    if w.kind == "hermite1":
        s = w.sigma
        return -1j * np.sqrt(2.0 * np.pi) * s**3 * eta * _exp_flushed(-0.5 * (s * eta) ** 2)
    raise ValidationError("analytic-signal window has no transform in this catalog")


def _even_window_ft(w, eta):
    """hhat of an even window (gaussian, bump), which is real and even, as floats."""
    eta = np.asarray(eta, dtype=float)
    if w.kind == "gaussian":
        s = w.sigma
        with np.errstate(over="ignore"):  # (s eta)^2 = inf where the factor is 0
            return s * np.sqrt(2.0 * np.pi) * _exp_flushed(-0.5 * (s * eta) ** 2)
    t, wh = _bump_ft_nodes(w.radius)
    # hhat(eta) = 2 integral_0^R h(t) cos(eta t) dt (0 for |eta| R >= 1200),
    # in blocks of eta that keep the cosine matrix near 8 MB
    flat, step = eta.reshape(-1), max(1, 2**20 // t.size)
    band = np.nonzero(np.abs(flat) * w.radius < 1200.0)[0]
    vals = np.zeros(flat.size)
    for lo in range(0, band.size, step):
        idx = band[lo:lo + step]
        vals[idx] = 2.0 * np.cos(np.multiply.outer(flat[idx], t)) @ wh
    return vals.reshape(eta.shape)[()]


def window_support_radius(w, tol=1e-14):
    """T with |h(t)| < tol for |t| > T, for a real window (HypothesisError
    for the analytic-signal kernel).

    gaussian: T = sigma sqrt(2 ln(1/tol)).  bump: T = R.  hermite1: |h(t)| =
    |t| exp(-t^2 / 2 sigma^2) peaks at |t| = sigma, and beyond it y = (T/sigma)^2
    is the root y > 1 of y - ln y = c, c = 2 ln(sigma/tol), that is
    y = -W_{-1}(-exp(-c)).  There is no root when sigma <= tol sqrt(e)
    (c <= 1), where |h| < tol everywhere: ValidationError.
    """
    if w.kind == "gaussian":
        return float(w.sigma) * float(np.sqrt(2.0 * np.log(1.0 / tol)))
    if w.kind == "bump":
        return w.radius
    if w.kind != "hermite1":
        raise HypothesisError("a support radius requires a real window")
    c = 2.0 * (math.log(w.sigma) - math.log(tol))  # sigma / tol may overflow
    if c <= 1.0:
        raise ValidationError(f"hermite1 window of sigma {w.sigma:g} is below {tol:g} everywhere")
    if c < 700.0:  # exp(-c) a normal double
        from scipy import special

        y = -special.lambertw(-math.exp(-c), -1).real
    else:
        # y = c + ln y contracts by 1/y < 1/700: five steps from y = c leave
        # a relative error below 1e-16
        y = c
        for _ in range(5):
            y = c + math.log(y)
    return w.sigma * math.sqrt(y)


@dataclass(frozen=True)
class WindowConstants:
    c_h2: float        # integral |h|^2 dt

    @property
    def c_hat_half(self):
        """integral_0^inf |hhat|^2 d eta = pi c_h2 (Plancherel, |hhat| even)."""
        return np.pi * self.c_h2

    @property
    def c_hat_full(self):
        """integral_R |hhat(-t)|^2 dt = 2 pi c_h2."""
        return 2.0 * np.pi * self.c_h2


def window_constants(w):
    if w.kind == "gaussian":
        c_h2 = w.sigma * np.sqrt(np.pi)
    elif w.kind == "hermite1":
        c_h2 = 0.5 * w.sigma**3 * np.sqrt(np.pi)
    elif w.kind == "bump":
        # h^2 on the nodes of the transform's rule (on [0, R], doubled)
        t, wh = _bump_ft_nodes(w.radius)
        c_h2 = 2.0 * wh @ window_eval(w, t)
    else:
        raise HypothesisError("window constants require a real window")
    return WindowConstants(c_h2=float(c_h2))


def _resolve_constant(mode, alpha, paper=None, theory=None):
    """Check ``constant_mode`` and ``alpha`` of the t1/t2 inversions and
    return the constant the mode selects: 1 for 'raw', alpha for
    'calibrated', else ``paper()`` or ``theory()`` (None when not given)."""
    if mode not in CONSTANT_MODES:
        raise ValidationError(f"unknown constant mode {mode!r}")
    if mode == "calibrated" and alpha is None:
        raise ValidationError("calibrated mode needs alpha")
    if mode == "raw":
        return 1.0
    if mode == "calibrated":
        return alpha
    chosen = paper if mode == "paper" else theory
    return chosen() if chosen else None
