import numpy as np
import pytest

from wrtkit import (
    ValidationError,
    analytic_wrt_data,
    analytic_wrt_gaussian,
    bump_window,
    fourier_identity_residual,
    full_grid_vset,
    gaussian_mixture_phantom,
    gaussian_phantom,
    gaussian_window,
    make_grid,
    polar_vset,
    uniform_circle,
    v1_line_vset,
    windowed_ray_transform,
    wrt_polar_perp,
)
from wrtkit.forward import PolarWRT, VSet
from wrtkit.quad import QuadratureParams


def test_vset_rejects_zero_vector():
    with pytest.raises(ValidationError):
        VSet("full-grid", np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_polar_vset_ordering():
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    radii = np.array([0.5, 2.0])
    vs = polar_vset(dirs, radii)
    # direction-major: all radii of direction 0 first
    assert np.allclose(vs.vectors[0], [0.5, 0.0])
    assert np.allclose(vs.vectors[1], [2.0, 0.0])
    assert np.allclose(vs.vectors[2], [0.0, 0.5])


def test_v1_line_vset():
    vs = v1_line_vset(np.array([-1.0, 1.0]), [0.5])
    assert vs.mode == "v1-line"
    assert np.allclose(vs.vectors, [[-1.0, 0.5], [1.0, 0.5]])


def test_uniform_circle_unit_norm():
    dirs, ang = uniform_circle(16)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert ang[0] == 0.0


def test_forward_matches_gaussian_oracle():
    spec = gaussian_mixture_phantom([((0.3, -0.1), 0.9, 1.0), ((-0.7, 0.5), 0.6, 0.4)])
    w = gaussian_window(1.1)
    grid = make_grid(2, 16, 8.0)
    dirs, _ = uniform_circle(4)
    vset = polar_vset(dirs, np.array([0.5, 1.5]))
    data = windowed_ray_transform(spec, w, grid, vset, QuadratureParams(panels=8))
    U = grid.points()
    for j in range(len(vset)):
        V = np.broadcast_to(vset.vectors[j], U.shape)
        want = analytic_wrt_gaussian(spec, w, U, V)
        assert np.max(np.abs(data.values[:, j] - want)) < 1e-10


def test_analytic_wrt_data_equals_quadrature():
    spec = gaussian_phantom((0.2, 0.4), 0.8)
    w = gaussian_window(0.9)
    grid = make_grid(2, 12, 6.0)
    vset = polar_vset(uniform_circle(3)[0], np.array([0.7, 1.3]))
    a = analytic_wrt_data(spec, w, grid, vset)
    b = windowed_ray_transform(spec, w, grid, vset, QuadratureParams(panels=8))
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_analytic_wrt_data_matches_per_v_closed_form():
    # reference: the closed form evaluated one v column at a time; the grid
    # is large enough that the batched oracle splits the v set into blocks
    spec = gaussian_mixture_phantom([((0.3, -0.1), 0.9, 1.0), ((-0.7, 0.5), 0.6, 0.4)])
    w = gaussian_window(1.1)
    grid = make_grid(2, 160, 12.0)
    vset = polar_vset(uniform_circle(5)[0], np.geomspace(0.1, 3.0, 7))
    got = analytic_wrt_data(spec, w, grid, vset).values
    U = grid.points()
    want = np.zeros_like(got)
    for j, v in enumerate(vset.vectors):
        for c in spec.components:
            s, amp = c["sigma"], c["amplitude"]
            du = U - np.asarray(c["center"])
            A = np.sum(du * du, axis=1)
            B = du @ v
            alpha = v @ v / (2.0 * s**2) + 1.0 / (2.0 * w.sigma**2)
            want[:, j] += amp * np.sqrt(np.pi / alpha) * np.exp(
                -0.5 * A / s**2 + B**2 / (4.0 * alpha * s**4))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_oracle_continuous_at_v_zero():
    # the closed form is well defined in the limit v -> 0:
    # P_h f(u, 0) = f(u) * integral h
    spec = gaussian_phantom((0.0, 0.0), 1.0)
    w = gaussian_window(1.0)
    u = np.array([[0.3, -0.2]])
    v0 = np.array([[0.0, 0.0]])
    got = analytic_wrt_gaussian(spec, w, u, v0)
    want = spec.evaluate(u) * w.sigma * np.sqrt(2.0 * np.pi)
    assert np.allclose(got, want, rtol=1e-12)


def test_even_window_symmetry_in_v():
    spec = gaussian_mixture_phantom([((0.5, 0.1), 0.7, 1.0)])
    w = gaussian_window(1.0)
    u = np.array([[0.1, 0.2], [1.0, -0.3]])
    v = np.array([[0.8, -0.4], [0.2, 1.1]])
    assert np.allclose(
        analytic_wrt_gaussian(spec, w, u, v), analytic_wrt_gaussian(spec, w, u, -v)
    )


def test_shift_covariance():
    # P_h[f(. - d)](u, v) = P_h[f](u - d, v)
    d = np.array([0.6, -0.9])
    spec = gaussian_phantom((0.0, 0.0), 0.8)
    shifted = gaussian_phantom(tuple(d), 0.8)
    w = gaussian_window(1.0)
    u = np.array([[0.3, 0.5]])
    v = np.array([[1.0, 0.2]])
    assert np.allclose(
        analytic_wrt_gaussian(shifted, w, u, v),
        analytic_wrt_gaussian(spec, w, u - d, v),
        rtol=1e-12,
    )


def test_wrt_polar_perp_matches_oracle():
    spec = gaussian_phantom((0.4, 0.2), 0.6)
    w = gaussian_window(1.0)
    rho = np.geomspace(0.3, 2.0, 8)
    theta = 2.0 * np.pi * np.arange(4) / 4
    g = wrt_polar_perp(spec, w, rho, theta, QuadratureParams(panels=8))
    for i, r in enumerate(rho):
        for k, th in enumerate(theta):
            u = np.array([[r * np.cos(th), r * np.sin(th)]])
            v = np.array([[-r * np.sin(th), r * np.cos(th)]])
            want = float(np.squeeze(analytic_wrt_gaussian(spec, w, u, v)))
            assert g.values[i, k] == pytest.approx(want, abs=1e-10)


def test_polar_wrt_validation():
    theta = 2.0 * np.pi * np.arange(8) / 8
    rho = np.geomspace(0.1, 1.0, 8)
    vals = np.zeros((8, 8))
    with pytest.raises(ValidationError):
        PolarWRT(rho, theta[:5], gaussian_window(1.0), vals[:, :5])  # not power of two
    with pytest.raises(ValidationError):
        PolarWRT(np.linspace(0.1, 1.0, 8), theta, gaussian_window(1.0), vals)


def test_fourier_identity_small_grid():
    spec = gaussian_phantom((0.2, -0.1), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 64, 16.0)
    vgrid = make_grid(2, 4, 3.0, center=(0.21, 0.13))
    data = analytic_wrt_data(spec, w, grid, full_grid_vset(vgrid))
    res = fourier_identity_residual(data, spec, band=3.0)
    assert res < 1e-5
