import warnings

import numpy as np
import pytest
from scipy import integrate, special

from wrtkit import (
    HypothesisError,
    NumericalError,
    ValidationError,
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
)
from wrtkit.quad import QuadratureParams

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


@pytest.fixture(scope="module")
def perp_data():
    rho = np.geomspace(1e-10, 4.0, 1024)
    theta = 2.0 * np.pi * np.arange(64) / 64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = wrt_polar_perp(_two_bump(), WINDOW, rho, theta, QuadratureParams(panels=16))
    return g


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
    s = circular_decompose(perp_data, 4)
    for l in (0, 2, 4):
        c = s.coefficient(l)
        assert np.max(np.abs(c.imag)) < 1e-10 * np.max(np.abs(c.real))


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


def test_kernel_line_matches_direct_quadrature():
    # MH_l(s) = int_0^1 x^{s-2} K_l(x) dx at s = t (real)
    t = 1.8
    for l in (0, 2):
        line = mellin_kernel_line(WINDOW, l, t, np.array([-1.0, 0.0, 1.0]))

        def ig(x):
            k = kernel_H(WINDOW, l, np.array([x]))[0]
            return (x ** (t - 1.0) * k).real

        want, _ = integrate.quad(ig, 1e-9, 1.0 - 1e-12, limit=800)
        assert line.values[1].real == pytest.approx(want, rel=1e-8)
        assert abs(line.values[1].imag) < 1e-12 * abs(want)


def test_odd_window_rejected():
    with pytest.raises(HypothesisError, match="odd"):
        kernel_H(hermite1_window(1.0), 0, np.array([0.5]))
    with pytest.raises(HypothesisError):
        mellin_kernel_line(hermite1_window(1.0), 0, 2.0, np.array([-1.0, 0.0, 1.0]))


def test_convolution_identity(perp_data):
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


def test_reconstruct_requires_compact_not_odd_window(perp_data):
    grid = make_grid(2, 16, 4.0)
    with pytest.raises(HypothesisError, match="compactly supported"):
        reconstruct_mellin(perp_data, gaussian_window(1.0), 4, grid)
    with pytest.raises(HypothesisError):
        reconstruct_mellin(perp_data, hermite1_window(1.0), 4, grid)


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
                   {"lam": -1.0}, {"lam": np.nan}, {"lam": np.inf}):
        with pytest.raises(ValidationError):
            MellinParams(**kwargs)
    assert MellinParams(lam=0.0).lam == 0.0


def test_negative_harmonic_cut_off_rejected():
    theta = 2.0 * np.pi * np.arange(8) / 8
    g = PolarWRT(np.geomspace(0.5, 2.0, 4), theta, WINDOW, np.ones((4, 8)))
    with pytest.raises(ValidationError, match="L = -1"):
        circular_decompose(g, -1)
