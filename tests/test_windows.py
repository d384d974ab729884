import math

import numpy as np
import pytest
from scipy import integrate

from wrtkit import (
    Grid,
    HypothesisError,
    ValidationError,
    analytic_signal_window,
    bump_window,
    gaussian_window,
    hermite1_window,
    window_constants,
    window_eval,
    window_ft,
)
from wrtkit.quad import gauss_legendre_panels
from wrtkit.windows import WindowSpec, _bump_ft_nodes, window_support_radius

REAL_WINDOWS = [gaussian_window(1.0), hermite1_window(0.8), bump_window(2.0)]


def test_pointwise_values():
    assert window_eval(gaussian_window(1.0), 0.0) == pytest.approx(1.0)
    assert window_eval(hermite1_window(1.0), 0.0) == pytest.approx(0.0)
    t = np.array([-1.3, 0.4, 2.1])
    h = window_eval(hermite1_window(1.0), t)
    assert np.allclose(h, -window_eval(hermite1_window(1.0), -t))
    b = window_eval(bump_window(1.5), np.array([0.0, 1.49, 1.5, 2.0]))
    assert b[0] == pytest.approx(np.exp(-1.0))
    assert b[2] == 0.0 and b[3] == 0.0


def test_analytic_signal_values():
    h = window_eval(analytic_signal_window(), np.array([0.0, 1.0]))
    assert h[0] == pytest.approx(1.0 / (2.0 * np.pi))
    assert np.iscomplexobj(h)


@pytest.mark.parametrize("w", REAL_WINDOWS, ids=lambda w: w.kind)
def test_window_ft_against_quadrature(w):
    T = window_support_radius(w, tol=1e-15)
    for eta in (0.0, 0.7, 2.3):
        re, _ = integrate.quad(
            lambda t: np.real(window_eval(w, t)) * np.cos(eta * t), -T, T, limit=400
        )
        im, _ = integrate.quad(
            lambda t: -np.real(window_eval(w, t)) * np.sin(eta * t), -T, T, limit=400
        )
        got = complex(np.asarray(window_ft(w, eta)))
        assert got == pytest.approx(re + 1j * im, abs=1e-10)


def test_window_ft_analytic_signal_rejected():
    with pytest.raises(ValidationError):
        window_ft(analytic_signal_window(), 1.0)


@pytest.mark.parametrize("w", REAL_WINDOWS, ids=lambda w: w.kind)
def test_constants_against_quadrature(w):
    c = window_constants(w)
    T = window_support_radius(w, tol=1e-15)
    h2, _ = integrate.quad(lambda t: np.real(window_eval(w, t)) ** 2, -T, T, limit=400)
    assert c.c_h2 == pytest.approx(h2, rel=1e-9)
    # a fixed band on which the rule resolves hhat and beyond which |hhat|^2 < 1e-30
    band = 300.0 / w.radius if w.kind == "bump" else 12.0 / w.sigma
    half, _ = integrate.quad(
        lambda e: np.abs(window_ft(w, e)) ** 2, 0.0, band, epsabs=0, epsrel=1e-12, limit=400
    )
    assert c.c_hat_half == pytest.approx(half, rel=1e-9)
    assert c.c_hat_full == pytest.approx(2.0 * half, rel=1e-9)


def test_hermite_is_admissible_gaussian_is_not():
    assert window_ft(hermite1_window(1.0), 0.0) == 0.0
    assert abs(window_ft(gaussian_window(1.0), 0.0)) > 1.0


def test_support_radius_and_cutoff():
    w = gaussian_window(0.7)
    T = window_support_radius(w, tol=1e-12)
    assert abs(window_eval(w, T * 1.001)) < 1e-12
    wh = hermite1_window(0.7)
    Th = window_support_radius(wh, tol=1e-12)
    assert abs(window_eval(wh, Th * 1.001)) < 1e-12


@pytest.mark.parametrize("tol", [1e-12, 1e-14, 1e-15])
def test_hermite1_support_radius_is_the_outer_root(tol):
    # |h(T)| = tol, and |h| < tol beyond T, from sigma 1e-8 to 1e8
    for sigma in np.geomspace(1e-8, 1e8, 33):
        s = float(sigma)
        T = window_support_radius(hermite1_window(s), tol=tol)
        assert T > s
        assert T * math.exp(-0.5 * (T / s) ** 2) == pytest.approx(tol, rel=1e-13)
        t = T * (1.0 + np.geomspace(1e-9, 10.0, 50))
        assert np.all(np.abs(window_eval(hermite1_window(s), t)) < tol)


@pytest.mark.parametrize("sigma", [1e-320, 1e-15, 1e-100, 1e100, 1e200, 1e300, 1e308])
@pytest.mark.parametrize("tol", [1e-14, 1e-15, 1e-300])
def test_hermite1_support_radius_at_extreme_sigma(sigma, tol):
    # a finite T >= 0, or ValidationError where sigma is outside [1e-100,
    # 1e100] or |h| < tol everywhere (sigma <= tol sqrt(e)); no other
    # exception.  tol = 1e-300 takes the fixed-point branch (c >= 700).
    try:
        T = window_support_radius(hermite1_window(sigma), tol=tol)
    except ValidationError:
        assert sigma <= tol * math.sqrt(math.e) or not 1e-100 <= sigma <= 1e100
        return
    assert 0.0 <= T < math.inf
    # ln|h(T)| = ln tol; in logs, as exp(-(T/sigma)^2 / 2) is subnormal at tol = 1e-300
    y = (T / sigma) ** 2
    assert math.log(sigma) + 0.5 * (math.log(y) - y) == pytest.approx(math.log(tol), abs=1e-12)


@pytest.mark.parametrize("sigma", [2e307, 1e308, 1.7e308])
def test_gaussian_support_radius_that_overflows_is_rejected(sigma):
    # T = sigma sqrt(2 ln(1 / tol)) passes the largest double from about
    # sigma = 2.2e307 on; a window takes sigma up to 1e100 only, where T is
    # finite at any normal tol
    with pytest.raises(ValidationError, match=r"sigma in \[1e-100, 1e\+100\]"):
        gaussian_window(sigma)
    tiny = float(np.finfo(float).tiny)
    T = window_support_radius(gaussian_window(1e100), tol=tiny)
    assert T == pytest.approx(1e100 * math.sqrt(2.0 * math.log(1.0 / tiny)), rel=1e-15)


@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)])
def test_quadrature_interval_needs_a_finite_length(a, b):
    with pytest.raises(ValidationError, match="finite length"):
        gauss_legendre_panels(a, b, 4, 8)
    t, wt = gauss_legendre_panels(-0.5e308, 0.5e308, 4, 8)
    assert np.all(np.isfinite(t)) and np.sum(wt) == pytest.approx(1e308, rel=1e-14)


def test_support_radius_needs_a_real_window():
    with pytest.raises(HypothesisError):
        window_support_radius(analytic_signal_window())


def test_parity_flags():
    assert gaussian_window(1.0).parity == "even"
    assert hermite1_window(1.0).parity == "odd"
    assert bump_window(1.0).parity == "even"
    assert analytic_signal_window().parity == "none"
    assert not analytic_signal_window().is_real


def test_spec_validation():
    with pytest.raises(ValidationError):
        WindowSpec("unknown")
    with pytest.raises(ValidationError):
        WindowSpec("gaussian")
    with pytest.raises(ValidationError):
        WindowSpec("bump", radius=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            WindowSpec("gaussian", sigma=bad)
        with pytest.raises(ValidationError):
            WindowSpec("hermite1", sigma=bad)
        with pytest.raises(ValidationError):
            WindowSpec("bump", radius=bad)


def test_window_parameters_and_grid_spacings_share_one_range():
    # [1e-100, 1e100]: a cube of a window parameter and its reciprocal stay
    # normal doubles; the ends are in, the next decade out
    for value in (1e-100, 1e100):
        WindowSpec("gaussian", sigma=value), WindowSpec("hermite1", sigma=value)
        WindowSpec("bump", radius=value), Grid((2,), (0.0,), (value,))
        assert 0.0 < window_constants(hermite1_window(value)).c_h2 < math.inf
    for value in (1e-101, 1e101, 1e-320, 1e200):
        for make in (gaussian_window, hermite1_window, bump_window):
            with pytest.raises(ValidationError, match=r"in \[1e-100, 1e\+100\]"):
                make(value)
        with pytest.raises(ValidationError, match=r"grid spacing must be in \[1e-100, 1e\+100\]"):
            Grid((2,), (0.0,), (value,))


def test_bump_ft_blocks_equal_the_full_product():
    # long eta vectors are summed in blocks of 2048; the values must not change
    w = bump_window(2.0)
    t, wh = _bump_ft_nodes(w.radius)
    eta = np.linspace(-60.0, 60.0, 6001)
    want = 2.0 * np.cos(np.multiply.outer(eta, t)) @ wh
    got = window_ft(w, eta)
    assert got.shape == eta.shape and np.all(got.imag == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert window_ft(w, eta.reshape(1, -1, 1)).shape == (1, eta.size, 1)
    assert np.isscalar(window_ft(w, 0.5))


@pytest.mark.parametrize("radius", [0.5, 2.0, 8.0])
def test_bump_ft_accurate_on_the_whole_axis(radius):
    # against a 2048-panel rule for eta R in [0, 4000]: the rule must not
    # alias at large eta R (a 32-panel rule reaches 0.57 hhat(0) near 2212)
    w = bump_window(radius)
    eta = np.linspace(0.0, 4000.0 / radius, 1001)
    t, wt = gauss_legendre_panels(0.0, radius, 2048, 16)
    wh = wt * window_eval(w, t)
    want = np.concatenate([2.0 * np.cos(np.multiply.outer(eta[i:i + 64], t)) @ wh
                           for i in range(0, eta.size, 64)])
    err = np.max(np.abs(window_ft(w, eta) - want))
    assert err <= 1e-14 * want[0]
