import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from wrtkit import (
    HypothesisError,
    NumericalError,
    ValidationError,
    analytic_signal_window,
    analytic_wrt_perp,
    bump_window,
    gaussian_mixture_phantom,
    gaussian_phantom,
    gaussian_window,
    hermite1_window,
    make_grid,
    rel_l2_error,
    sample_phantom,
    window_eval,
    wrt_polar_perp,
)
from wrtkit import invert_mellin
from wrtkit.fields import _exp_i_blocks, _exp_i_outer
from wrtkit.forward import PolarWRT
from wrtkit.invert_mellin import (
    MellinLine,
    MellinParams,
    circular_decompose,
    kernel_H,
    mellin_convolution_residual,
    mellin_kernel_line,
    mellin_transform,
    reconstruct_mellin,
    recover_fl,
    _exp_product,
)
from wrtkit.quad import QuadratureParams, gauss_legendre_panels, trapezoid_weights
from wrtkit.windows import window_support_radius

SIG, RHO0 = 0.23, 1.4
WINDOW = bump_window(2.0)


def _two_bump():
    return gaussian_mixture_phantom([((RHO0, 0.0), SIG, 1.0), ((-RHO0, 0.0), SIG, 1.0)])


def _f_l(l, r):
    """Closed-form angular harmonics of the two-bump phantom."""
    out = np.zeros(np.shape(r), dtype=complex)
    for phi0 in (0.0, np.pi):
        z = np.asarray(r) * RHO0 / SIG**2
        out = out + (
            np.exp(-0.5 * (np.asarray(r) - RHO0) ** 2 / SIG**2)
            * special.ive(l, z)
            * np.exp(-1j * l * phi0)
        )
    return out


def _perp_data(nrho):
    rho = np.geomspace(1e-10, 4.0, nrho)
    theta = 2.0 * np.pi * np.arange(64) / 64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrt_polar_perp(_two_bump(), WINDOW, rho, theta, QuadratureParams(panels=16))


@pytest.fixture(scope="module")
def perp_data():
    return _perp_data(1024)


def test_circular_decompose_exact_harmonics():
    theta = 2.0 * np.pi * np.arange(32) / 32
    rho = np.geomspace(0.5, 2.0, 4)
    vals = 1.0 + 2.0 * np.cos(theta) + 0.5 * np.sin(2.0 * theta)
    g = PolarWRT(rho, theta, WINDOW, np.broadcast_to(vals, (4, 32)).copy())
    s = circular_decompose(g, 3)
    assert np.allclose(s.coefficient(0), 1.0)
    assert np.allclose(s.coefficient(1), 1.0)  # cos -> (e^{il} + e^{-il})/2
    assert np.allclose(s.coefficient(2), -0.25j)
    assert np.allclose(s.coefficient(-2), 0.25j)


def test_harmonics_of_data_are_real_for_even_window(perp_data):
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=4"):
        s = circular_decompose(perp_data, 4)
    for l in (0, 2, 4):
        c = s.coefficient(l)
        assert np.max(np.abs(c.imag)) < 1e-10 * np.max(np.abs(c.real))


def test_edge_harmonic_warning_names_the_library_caller(perp_data):
    # reported at this file's line, whether circular_decompose is called here
    # or through reconstruct_mellin
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=4") as record:
        circular_decompose(perp_data, 4)
    assert len(record) == 1 and record[0].filename == __file__
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=4") as record:
        reconstruct_mellin(perp_data, WINDOW, 4, make_grid(2, 8, 4.0))
    assert len(record) == 1 and record[0].filename == __file__


def test_mellin_transform_gamma_oracle():
    # M[e^-r](s) = Gamma(s)
    r = np.geomspace(1e-8, 60.0, 4096)
    y = np.linspace(-10.0, 10.0, 41)
    line = mellin_transform(r, np.exp(-r), 2.5, y)
    want = special.gamma(2.5 + 1j * y)
    assert np.max(np.abs(line.values - want)) < 1e-6 * np.max(np.abs(want))


def test_mellin_transform_shift_property():
    r = np.geomspace(1e-6, 1e3, 2048)
    f = np.exp(-4.0 * (np.log(r) - 0.3) ** 2)
    y = np.linspace(-5.0, 5.0, 21)
    a = mellin_transform(r, r * f, 1.2, y)
    b = mellin_transform(r, f, 2.2, y)
    assert np.allclose(a.values, b.values, rtol=1e-10)


def test_mellin_transform_grid_validation():
    y = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        mellin_transform(np.linspace(0.1, 1.0, 32), np.ones(32), 1.5, y)
    with pytest.raises(ValidationError):
        # no decay at the upper end
        mellin_transform(np.geomspace(1e-6, 1.0, 64), np.ones(64), 1.5, y)


def test_kernel_even_window_is_chebyshev_real():
    r = np.linspace(0.05, 0.999, 64)
    for l in (0, 1, 3):
        K = kernel_H(WINDOW, l, r)
        x = np.sqrt(1.0 / r**2 - 1.0)
        want = (
            2.0 * np.asarray(window_eval(WINDOW, x))
            * np.cos(l * np.arccos(r))
            / (r * np.sqrt(1.0 - r**2))
        )
        assert np.max(np.abs(K - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
    outside = kernel_H(WINDOW, 0, np.array([1.0, 1.7]))
    assert np.allclose(outside, 0.0)


@pytest.mark.parametrize("w, l", [(WINDOW, 0), (WINDOW, 2), (gaussian_window(1.0), 0),
                                  (gaussian_window(1.0), 2), (hermite1_window(1.0), 1)],
                         ids=["bump-0", "bump-2", "gaussian-0", "gaussian-2", "hermite1-1"])
def test_kernel_line_matches_direct_quadrature(w, l):
    # MH_l(s) = int_0^1 x^{s-2} K_l(x) dx at s = t (real); H_l is real for an
    # even window and imaginary for an odd one
    t, unit = 1.8, 1j if w.parity == "odd" else 1.0
    got = mellin_kernel_line(w, l, t, np.array([-1.0, 0.0, 1.0])).values[1] / unit

    def ig(x):
        k = kernel_H(w, l, np.array([x]))[0] / unit
        return (x ** (t - 1.0) * k).real

    want, _ = integrate.quad(ig, 1e-9, 1.0 - 1e-12, limit=800)
    assert got.real == pytest.approx(want, rel=1e-8)
    assert abs(got.imag) < 1e-12 * abs(want)


def test_odd_window_rejected(perp_data):
    # h odd: h(g) + h(-g) = 0 exactly, so H_0 = 0, while H_1 = 2i h(g) / r is not
    w, r, y = hermite1_window(1.0), np.linspace(0.05, 0.95, 19), np.array([-1.0, 0.0, 1.0])
    assert np.array_equal(kernel_H(w, 0, r), np.zeros(r.size))
    assert np.all(np.abs(kernel_H(w, 1, r)) > 0)
    line = mellin_kernel_line(w, [0, 1], 2.0, y).values
    assert np.array_equal(line[0], np.zeros(3)) and np.all(np.abs(line[1]) > 0)
    with pytest.raises(HypothesisError, match="odd"):
        reconstruct_mellin(perp_data, w, 4, make_grid(2, 16, 4.0))
    with pytest.raises(HypothesisError, match="real window"):
        mellin_kernel_line(analytic_signal_window(), 0, 2.0, y)


def test_convolution_identity(perp_data):
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=8"):
        series = circular_decompose(perp_data, 8)
    t = 2.0
    y = np.linspace(-20.0, 20.0, 161)
    rho = perp_data.rho
    for l in (0, 2, 4):
        Mg = mellin_transform(rho, series.coefficient(l), t, y)
        Mf = mellin_transform(rho, _f_l(l, rho), t, y)
        MH = mellin_kernel_line(WINDOW, l, t, y)
        assert mellin_convolution_residual(Mg, Mf, MH) < 1e-10


def test_convolution_residual_validation():
    y = np.linspace(-1.0, 1.0, 5)
    a = MellinLine(2.0, y, np.ones(5, dtype=complex))
    b = MellinLine(2.5, y, np.ones(5, dtype=complex))
    with pytest.raises(ValidationError):
        mellin_convolution_residual(a, b, a)


def test_recover_fl_manufactured():
    rho = np.geomspace(1e-10, 4.0, 1024)
    t = 2.0
    y = np.linspace(-40.0, 40.0, 1601)
    r_test = np.geomspace(0.1, 1.8, 160)
    for l in (0, 2):
        Mf = mellin_transform(rho, _f_l(l, rho), t, y)
        MH = mellin_kernel_line(WINDOW, l, t, y)
        Mg = MellinLine(t, y, Mf.values * MH.values)
        fl = recover_fl(Mg, MH, t, r_test)
        ref = _f_l(l, r_test)
        assert np.linalg.norm(fl - ref) / np.linalg.norm(ref) < 1e-3


def test_recover_fl_contour_independence(perp_data):
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=2"):
        series = circular_decompose(perp_data, 2)
    y = np.linspace(-40.0, 40.0, 1601)
    r_test = np.geomspace(0.1, 1.8, 160)
    rho = perp_data.rho
    out = {}
    for t in (1.5, 2.0):
        Mg = mellin_transform(rho, series.coefficient(0), t, y)
        MH = mellin_kernel_line(WINDOW, 0, t, y)
        out[t] = recover_fl(Mg, MH, t, r_test)
    ref = _f_l(0, r_test)
    scale = np.linalg.norm(ref)
    e15 = np.linalg.norm(out[1.5] - ref) / scale
    e20 = np.linalg.norm(out[2.0] - ref) / scale
    assert np.linalg.norm(out[1.5] - out[2.0]) / scale <= 2.0 * (e15 + e20)


def test_recover_fl_ill_posed_band():
    y = np.linspace(-10.0, 10.0, 41)
    Mg = MellinLine(2.0, y, np.ones(41, dtype=complex))
    hvals = np.full(41, 1e-30, dtype=complex)
    hvals[20] = 1.0
    MH = MellinLine(2.0, y, hvals)
    with pytest.raises(NumericalError, match="ill-posed"):
        recover_fl(Mg, MH, 2.0, np.array([0.5, 1.0]))


def test_reconstruct_requires_a_real_not_odd_window(perp_data):
    grid = make_grid(2, 16, 4.0)
    with pytest.raises(HypothesisError, match="real window"):
        reconstruct_mellin(perp_data, analytic_signal_window(), 4, grid)
    with pytest.raises(HypothesisError, match="odd"):
        reconstruct_mellin(perp_data, hermite1_window(1.0), 4, grid)
    # a window without compact support is taken
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=4"):
        rec = reconstruct_mellin(perp_data, gaussian_window(1.0), 4, grid)
    assert np.all(np.isfinite(rec.values))


def test_reconstruct_closed_form_perp_data_with_gaussian_windows():
    # closed-form perp data need a gaussian window, which has no compact
    # support: Mellin reads the bump's error on them, and the bump's image
    spec = gaussian_mixture_phantom([((0.6, -0.3), 0.35, 1.0), ((-0.5, 0.4), 0.45, 0.7)])
    rho, theta = np.geomspace(1e-6, 8.0, 512), 2.0 * np.pi * np.arange(64) / 64
    grid = make_grid(2, 64, 8.0)
    ref = sample_phantom(spec, grid)
    bump = wrt_polar_perp(spec, WINDOW, rho, theta, QuadratureParams(panels=16))
    for L in (16, 24):
        want = reconstruct_mellin(bump, WINDOW, L, grid).values
        for w in (gaussian_window(1.0), gaussian_window(0.5)):
            rec = reconstruct_mellin(analytic_wrt_perp(spec, w, rho, theta), w, L, grid)
            assert rel_l2_error(rec, ref) <= 5e-4
            assert np.linalg.norm(rec.values - want) <= 1e-8 * np.linalg.norm(want)


def test_reconstruct_two_bump(perp_data):
    grid = make_grid(2, 48, 4.4)
    ref = sample_phantom(_two_bump(), grid)
    rec = reconstruct_mellin(perp_data, WINDOW, 16, grid, MellinParams(t=2.0, T=40.0))
    assert rel_l2_error(rec, ref) < 0.05


def test_reconstruct_radial(perp_data):
    spec = gaussian_phantom((0.0, 0.0), 0.5)
    rho = perp_data.rho
    theta = perp_data.theta
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = wrt_polar_perp(spec, WINDOW, rho, theta, QuadratureParams(panels=16))
    grid = make_grid(2, 32, 4.0)
    rec = reconstruct_mellin(g, WINDOW, 4, grid, MellinParams(t=2.0, T=40.0))
    assert rel_l2_error(rec, sample_phantom(spec, grid)) < 0.02


def test_mellin_params_validation():
    for kwargs in ({"t": 0.5}, {"t": np.nan}, {"t": np.inf},
                   {"T": -1.0}, {"T": np.nan}, {"T": np.inf}, {"T": 1e300}, {"T": 820.0},
                   {"T": 0.0}, {"T": 0.01}, {"T": 0.025},
                   {"lam": -1.0}, {"lam": np.nan}, {"lam": np.inf}):
        with pytest.raises(ValidationError):
            MellinParams(**kwargs)
    assert MellinParams(lam=0.0).lam == 0.0


def test_mellin_params_reject_a_band_without_a_step():
    # T = 0.01 rounds to no step of 0.05: the line would be the single y = 0
    with pytest.raises(ValidationError, match=r"T = 0\.01") as err:
        MellinParams(T=0.01)
    assert "0.05" in str(err.value)
    assert MellinParams(T=0.0251).y_grid().size == 3
    assert MellinParams(T=819.2).y_grid().size == 2**15 + 1


def test_negative_harmonic_cut_off_rejected():
    theta = 2.0 * np.pi * np.arange(8) / 8
    g = PolarWRT(np.geomspace(0.5, 2.0, 4), theta, WINDOW, np.ones((4, 8)))
    with pytest.raises(ValidationError, match="L = -1"):
        circular_decompose(g, -1)


def _row_dev(stacked, single):
    """max |stacked row - single-row result| / max |single-row result|."""
    return np.max(np.abs(stacked - single)) / np.max(np.abs(single))


def test_stacked_stages_match_single_rows(perp_data):
    L = 6
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=6"):
        series = circular_decompose(perp_data, L)
    rho, t = perp_data.rho, 2.0
    y = MellinParams(t=t, T=40.0).y_grid()
    r_test = np.geomspace(0.1, 1.8, 160)
    ls = np.arange(L + 1)
    Mg = mellin_transform(rho, series.coefficients[L:], t, y)
    MH = mellin_kernel_line(WINDOW, ls, t, y)
    fl = recover_fl(Mg, MH, t, r_test)
    assert Mg.values.shape == MH.values.shape == (L + 1, y.size)
    assert fl.shape == (L + 1, r_test.size)
    for l in ls:
        Mg_l = mellin_transform(rho, series.coefficient(l), t, y)
        MH_l = mellin_kernel_line(WINDOW, l, t, y)
        assert Mg_l.values.shape == MH_l.values.shape == y.shape
        assert _row_dev(Mg.values[l], Mg_l.values) <= 1e-12
        assert _row_dev(MH.values[l], MH_l.values) <= 1e-12
        # the same rows fed one at a time: the division sees identical inputs
        one = recover_fl(MellinLine(t, y, Mg.values[l]), MellinLine(t, y, MH.values[l]),
                         t, r_test)
        assert _row_dev(fl[l], one) <= 1e-12
    # a one-row stack is the K = 1 case of the same path
    assert mellin_kernel_line(WINDOW, [3], t, y).values.shape == (1, y.size)


def test_reconstruct_matches_a_per_harmonic_loop(perp_data):
    L, params = 16, MellinParams(t=2.0, T=40.0)
    grid = make_grid(2, 48, 4.4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = reconstruct_mellin(perp_data, WINDOW, L, grid, params)
        series = circular_decompose(perp_data, L)
    # the synthesis of reconstruct_mellin, fed by single-l calls
    X = grid.points()
    rad, phi = np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0])
    r_hi = max(rad.max(), perp_data.rho.max())
    r_lo = max(1e-3 * r_hi, perp_data.rho.min())
    r_grid = np.geomspace(r_lo, r_hi, 256)
    lr, lgrid = np.log(np.maximum(rad, r_lo)), np.log(r_grid)
    y, t = params.y_grid(), params.t
    ref = np.zeros(X.shape[0])
    for l in range(L + 1):
        Mg = mellin_transform(perp_data.rho, series.coefficient(l), t, y)
        fl = recover_fl(Mg, mellin_kernel_line(WINDOW, l, t, y), t, r_grid)
        flr = np.interp(lr, lgrid, fl.real) + 1j * np.interp(lr, lgrid, fl.imag)
        ref += (1.0 if l == 0 else 2.0) * (flr * np.exp(1j * l * phi)).real
    assert np.linalg.norm(rec.values.ravel() - ref) <= 1e-9 * np.linalg.norm(ref)


def test_per_harmonic_checks_do_not_pool():
    # a row that has not decayed at the r-grid end fails beside a large row
    # that has: pooled over the stack its end would be 1e-12 of the max
    r = np.geomspace(1e-6, 1.0, 64)
    y = np.linspace(-1.0, 1.0, 5)
    decayed = 1e16 * np.exp(-4.0 * (np.log(r) + 7.0) ** 2)
    mellin_transform(r, decayed, 1.5, y)
    with pytest.raises(ValidationError, match="not decayed"):
        mellin_transform(r, np.stack([decayed, np.ones(64)]), 1.5, y)
    # a kernel row below 1e-6 of its max on most of the band fails beside a
    # flat row: pooled over both rows the small share would be under half
    y = np.linspace(-10.0, 10.0, 41)
    small = np.full(41, 1e-30, dtype=complex)
    small[20] = 1.0
    MH = MellinLine(2.0, y, np.stack([np.ones(41, dtype=complex), small]))
    Mg = MellinLine(2.0, y, np.ones((2, 41), dtype=complex))
    with pytest.raises(NumericalError, match="ill-posed"):
        recover_fl(Mg, MH, 2.0, np.array([0.5, 1.0]))


def test_convolution_residual_is_the_worst_row():
    # pooled over the stack the second row's 10 % would read 1e-7
    y = np.linspace(-1.0, 1.0, 5)
    Mg = MellinLine(2.0, y, np.array([np.full(5, 1e6), np.ones(5)], dtype=complex))
    Mf = MellinLine(2.0, y, np.array([np.full(5, 1e6), np.full(5, 0.9)], dtype=complex))
    MH = MellinLine(2.0, y, np.ones((2, 5), dtype=complex))
    assert mellin_convolution_residual(Mg, Mf, MH) == pytest.approx(0.1)
    zero = MellinLine(2.0, y, np.zeros(5, dtype=complex))
    assert mellin_convolution_residual(zero, zero, zero) == 0.0


def test_default_lambda_is_per_harmonic(perp_data):
    # rows scaled over eight decades: each row's lam is (1e-6 max|MH_l|)^2
    y = np.linspace(-40.0, 40.0, 1601)
    r_test = np.geomspace(0.1, 1.8, 40)
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=2"):
        series = circular_decompose(perp_data, 2)
    scale = np.array([[1.0], [1e4], [1e-4]])
    Mg = mellin_transform(perp_data.rho, series.coefficients[2:], 2.0, y)
    MH = mellin_kernel_line(WINDOW, np.arange(3), 2.0, y)
    Mg, MH = MellinLine(2.0, y, scale * Mg.values), MellinLine(2.0, y, scale * MH.values)
    fl = recover_fl(Mg, MH, 2.0, r_test)
    pooled = (1e-6 * np.max(np.abs(MH.values))) ** 2
    for k in range(3):
        row = (MellinLine(2.0, y, Mg.values[k]), MellinLine(2.0, y, MH.values[k]), 2.0, r_test)
        own = recover_fl(*row, lam=(1e-6 * np.max(np.abs(MH.values[k]))) ** 2)
        assert _row_dev(fl[k], own) <= 1e-12
        if k != 1:  # the pooled lam would have changed every row but the largest
            assert _row_dev(recover_fl(*row, lam=pooled), own) > 1e-6


def test_recover_fl_needs_matching_lines():
    y = np.linspace(-1.0, 1.0, 5)
    one = MellinLine(2.0, y, np.ones(5, dtype=complex))
    two = MellinLine(2.0, y, np.ones((2, 5), dtype=complex))
    with pytest.raises(ValidationError, match="same harmonics"):
        recover_fl(two, one, 2.0, np.array([0.5]))
    with pytest.raises(ValidationError, match="shape"):
        MellinLine(2.0, y, np.ones(4, dtype=complex))


# ---------------------------------------------------------------------------
# the two-table build of exp(i a y) on a uniform y line

EPS = np.finfo(float).eps


def _direct_exp(a, y):
    return np.exp(1j * np.multiply.outer(a, y))


@pytest.mark.parametrize("T", [40.0, 819.2])
def test_exp_tables_match_the_direct_exponential(T):
    y = MellinParams(T=T).y_grid()
    u = np.log(np.geomspace(1e-10, 4.0, 33))  # |a| up to 23.03 = -ln 1e-10
    for a in (u, -u, np.log(np.cos(np.linspace(0.0, np.arctan(2.0), 17)))):
        E = _exp_i_outer(y, a).T
        assert E.shape == (a.size, y.size)
        bound = 8.0 * EPS * np.max(np.abs(np.multiply.outer(a, y)))
        assert np.max(np.abs(E - _direct_exp(a, y))) <= bound


def test_exp_tables_take_any_line_length():
    a = np.array([-23.1, -1.0, 0.0, 0.7, 1.4])
    # 11 samples: blocks of 4, the last one part full; 9: three whole blocks of 3
    for ny in (11, 9, 2, 3):
        y = np.linspace(-2.5, 2.5, ny)
        E = _exp_i_outer(y, a).T
        assert np.max(np.abs(E - _direct_exp(a, y))) <= 8.0 * EPS * np.max(np.abs(np.outer(a, y)))
    for y0 in (0.0, 0.3):
        E = _exp_i_outer(np.array([y0]), a).T
        assert E.shape == (a.size, 1)
        assert np.max(np.abs(E - _direct_exp(a, np.array([y0])))) <= 2.0 * EPS


@pytest.mark.parametrize("ny", [1, 2, 9, 11, 1601])
def test_blocked_products_match_the_direct_exponential(monkeypatch, ny):
    # 40 entries a block: whole groups of y rows (blocks of 41 of 1,601
    # rows, the last 2; of 11, blocks of 4, the last 3) or, summing over y,
    # 40 // Ny of the 13 a values (at least 1; all 13 for Ny <= 2)
    monkeypatch.setattr(invert_mellin, "_BLOCK", 40)
    y = {1: np.array([0.3]), 1601: MellinParams().y_grid()}.get(ny, np.linspace(-2.5, 2.5, ny))
    a = np.linspace(-23.1, 1.4, 13)
    bound = 8.0 * EPS * np.max(np.abs(np.multiply.outer(a, y)))
    rng = np.random.default_rng(ny)
    for rows in ((), (3,)):
        A = rng.normal(size=(*rows, a.size)) + 1j * rng.normal(size=(*rows, a.size))
        Y = rng.normal(size=(*rows, ny)) + 1j * rng.normal(size=(*rows, ny))
        for got, want, coef in ((_exp_product(A, y, a), A @ _direct_exp(a, y), A),
                                (_exp_product(Y, y, a, over_y=True), Y @ _direct_exp(y, a), Y)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want)
                          <= bound * np.sum(np.abs(coef), axis=-1, keepdims=True))


def test_mellin_transform_rejects_a_drifting_log_r_step():
    # steps of 5e-7 drifting by 1 %: within allclose's default atol of 1e-8
    r = np.exp(np.concatenate([[0.0], np.cumsum(5e-7 * (1.0 + 0.01 * np.linspace(0, 1, 15)))]))
    with pytest.raises(ValidationError, match="log-uniform"):
        mellin_transform(r, np.zeros(r.size), 0.0, np.linspace(-1.0, 1.0, 5))


def test_exp_tables_reject_a_non_uniform_line_before_allocating(monkeypatch):
    y = np.linspace(-1.0, 1.0, 9)
    y[3] += 1e-6
    a = np.linspace(-3.0, 1.0, 5)

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built for a rejected line")

    monkeypatch.setattr(np, "exp", no_table)
    monkeypatch.setattr(np, "empty", no_table)
    with pytest.raises(ValidationError, match="uniform"):
        _exp_i_outer(y, a)
    with pytest.raises(ValidationError, match="uniform"):
        # a step off by 1e-9 of itself, within allclose's default atol of 1e-8
        _exp_i_outer(np.array([-0.1, 0.0, 0.1 + 1e-10]) * 1e-2, a)
    with pytest.raises(ValidationError, match="uniform"):
        _exp_i_blocks(y, a, 3)  # at the call, before the first block is drawn
    for over_y in (False, True):
        with pytest.raises(ValidationError, match="uniform"):
            _exp_product(np.ones(y.size if over_y else a.size), y, a, over_y=over_y)


@pytest.mark.parametrize("T, mib", [(40.0, 10), (200.0, 25)])
def test_reconstruct_mellin_memory_grows_with_the_output_only(perp_data, T, mib):
    # T = 200 needs a log-rho step <= pi / 200 on [1e-10, 4], 1,556 radii at
    # least: it reads 2,048.  A whole (Ny x Nrho) table would be 25 MiB at
    # T = 40 and 250 MiB at T = 200.
    data = perp_data if T == 40.0 else _perp_data(2048)
    grid = make_grid(2, 48, 4.4)
    tracemalloc.start()
    try:
        reconstruct_mellin(data, WINDOW, 24, grid, MellinParams(T=T))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


def test_recover_fl_peak_stays_within_two_lines():
    # Q = Mg conj(MH) / (|MH|^2 + lam) w_y built in place holds one complex and
    # one real (K, Ny) array, 1.6 lines; built through whole temporaries, 2.65
    y, K, r = MellinParams(T=819.2).y_grid(), 25, np.geomspace(1e-3, 8.0, 32)
    rng = np.random.default_rng(5)
    Mg, MH = (MellinLine(2.0, y, rng.normal(size=(K, y.size)) + 1j * rng.normal(size=(K, y.size)))
              for _ in range(2))
    tracemalloc.start()
    try:
        got = recover_fl(Mg, MH, 2.0, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * Mg.values.nbytes
    # the same operations as the out-of-place quotient, so the same bits
    absH = np.abs(MH.values)
    Q = Mg.values * np.conj(MH.values) / (absH**2 + (1e-6 * absH.max(axis=-1, keepdims=True)) ** 2)
    want = r ** -2.0 * _exp_product(trapezoid_weights(y) * Q, y, -np.log(r), over_y=True)
    assert np.array_equal(got, want / (2.0 * np.pi))


def _transform_direct(r, f, t, y):
    u = np.log(r)
    return (_trap(u) * f * np.exp(t * u)) @ _direct_exp(u, y)


def _kernel_direct(w, ls, t, y):
    psi, wp = gauss_legendre_panels(0.0, np.arctan(window_support_radius(w, tol=1e-15)), 48, 16)
    tanp, ephase = np.tan(psi), np.exp(1j * np.multiply.outer(ls, psi))
    amp = (window_eval(w, tanp) * ephase + window_eval(w, -tanp) / ephase) * wp
    return amp @ np.exp(np.multiply.outer(np.log(np.cos(psi)), (t - 2.0) + 1j * y))


def _recover_direct(Mg, MH, t, r):
    absH = np.abs(MH)
    Q = Mg * np.conj(MH) / (absH**2 + (1e-6 * absH.max(axis=-1, keepdims=True)) ** 2)
    y = MellinParams(t=t).y_grid()
    return r ** (-t) * ((_trap(y) * Q) @ _direct_exp(-y, np.log(r))) / (2.0 * np.pi)


def _trap(x):
    w = np.full(x.size, x[1] - x[0])
    w[0] = w[-1] = 0.5 * (x[1] - x[0])
    return w


def _worst_row_dev(got, want):
    return np.max(np.abs(got - want) / np.max(np.abs(want), axis=-1, keepdims=True))


def test_stacked_stages_match_a_direct_exponential(perp_data):
    L, t = 8, 2.0
    with pytest.warns(UserWarning, match=r"harmonic \|l\|=8"):
        series = circular_decompose(perp_data, L)
    y = MellinParams(t=t).y_grid()
    # below r = 0.1 the factor r^-t amplifies the cancelling y sum: there both
    # builds are off by about 1e-11 of the row max from a long-double sum
    r_test = np.geomspace(0.1, 1.8, 160)
    Mg = mellin_transform(perp_data.rho, series.coefficients[L:], t, y)
    MH = mellin_kernel_line(WINDOW, np.arange(L + 1), t, y)
    assert _worst_row_dev(Mg.values, _transform_direct(
        perp_data.rho, series.coefficients[L:], t, y)) <= 1e-12
    assert _worst_row_dev(MH.values, _kernel_direct(WINDOW, np.arange(L + 1), t, y)) <= 1e-12
    fl = recover_fl(Mg, MH, t, r_test)
    assert _worst_row_dev(fl, _recover_direct(Mg.values, MH.values, t, r_test)) <= 1e-12


# ---------------------------------------------------------------------------
# malformed input is rejected before any table is built

def test_mellin_transform_needs_two_radii():
    y = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ValidationError):
        mellin_transform(np.array([1.0]), np.array([1.0]), 2.0, y)


def test_mellin_transform_rejects_non_finite_samples():
    r = np.geomspace(1e-6, 1e3, 64)
    y = np.linspace(-1.0, 1.0, 5)
    f = np.exp(-4.0 * np.log(r) ** 2)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        g = f.astype(complex)
        g[30] = bad
        with pytest.raises(ValidationError, match="finite"):
            mellin_transform(r, np.stack([f, g]), 2.0, y)


def test_stages_reject_a_non_finite_abscissa():
    r = np.geomspace(1e-6, 1e3, 64)
    y = np.linspace(-1.0, 1.0, 5)
    f = np.exp(-4.0 * np.log(r) ** 2)
    line = MellinLine(2.0, y, np.ones(5, dtype=complex))
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="finite"):
            mellin_transform(r, f, t, y)
        with pytest.raises(ValidationError, match="finite"):
            mellin_kernel_line(WINDOW, 0, t, y)
    with pytest.raises(ValidationError, match="finite"):
        recover_fl(line, line, np.nan, np.array([0.5, 1.0]))


def test_recover_fl_rejects_non_positive_radii():
    y = np.linspace(-1.0, 1.0, 5)
    line = MellinLine(2.0, y, np.ones(5, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        for r in ([0.0, 1.0], [-0.5, 1.0], [np.nan, 1.0], [np.inf]):
            with pytest.raises(ValidationError, match="positive"):
                recover_fl(line, line, 2.0, np.array(r))
