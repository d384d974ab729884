import dataclasses
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage, special

from wrtkit import (
    NumericalError,
    PhantomSpec,
    ValidationError,
    analytic_signal_window,
    analytic_wrt_data,
    analytic_wrt_gaussian,
    analytic_wrt_perp,
    bump_window,
    fourier_identity_residual,
    full_grid_vset,
    gaussian_mixture_phantom,
    gaussian_phantom,
    gaussian_window,
    hermite1_window,
    make_grid,
    polar_vset,
    sample_phantom,
    smoothed_disk_phantom,
    uniform_circle,
    v1_line_vset,
    windowed_ray_transform,
    wrt_columns,
    wrt_polar_perp,
)
from wrtkit import _pool, fields, forward
from wrtkit import io as wio
from wrtkit.forward import PolarWRT, VSet, WRTData, _panel_count, _ray_source, _time_nodes
from wrtkit.invert_bp import reconstruct_t1
from wrtkit.invert_fourier import extract_polar_spectrum, reconstruct_t2
from wrtkit.invert_mellin import circular_decompose, reconstruct_mellin
from wrtkit.invert_slice import SliceParams, slice_extract, symmetric_offset_grid
from wrtkit.quad import _LOG_TINY, QuadratureParams, _exp_flushed, trapezoid_weights
from wrtkit.windows import window_support_radius


def test_vset_rejects_zero_vector():
    with pytest.raises(ValidationError):
        VSet("full-grid", np.array([[1.0, 0.0], [0.0, 0.0]]))
    # an empty set, NaN and a norm that overflows are rejected as well
    for bad in (np.zeros((0, 2)), [[np.nan, 1.0]], [[1e300, 1e300]]):
        with pytest.raises(ValidationError):
            VSet("full-grid", np.array(bad))


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
    for jitter in (np.nan, np.inf, -0.1):
        with pytest.raises(ValidationError):
            uniform_circle(16, jitter=jitter)


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
    # reference: the closed form written out per v column and component
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


def test_analytic_wrt_data_does_not_depend_on_the_worker_count(monkeypatch):
    # blocks of 2^16 // points columns: 160^2 points take 2 (two workers fill
    # 17 and 18 of the 35 columns), 48^2 take 28 (the last block short),
    # 260^2 one, and the 3-D grid's 24^3 take 4 of its 5 columns
    w = gaussian_window(1.1)
    plane = gaussian_mixture_phantom(_MIXTURE_2D)
    polar = polar_vset(uniform_circle(5)[0], np.geomspace(0.1, 3.0, 7))
    cases = [(plane, make_grid(2, n, 12.0), polar) for n in (160, 48, 260)]
    cases.append((gaussian_mixture_phantom(_MIXTURE_3D), make_grid(3, 24, 6.0), _VSET_3D))
    for spec, grid, vset in cases:
        monkeypatch.setenv("WRTKIT_THREADS", "1")
        one = analytic_wrt_data(spec, w, grid, vset).values
        for workers in ("2", "3"):
            monkeypatch.setenv("WRTKIT_THREADS", workers)
            assert np.array_equal(analytic_wrt_data(spec, w, grid, vset).values, one)
        # a column filled in a block equals the same column filled alone
        for j in (0, len(vset) - 1):
            alone = VSet("full-grid", vset.vectors[j:j + 1])
            assert np.array_equal(analytic_wrt_data(spec, w, grid, alone).values[:, 0], one[:, j])


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
    closed = analytic_wrt_perp(spec, w, rho, theta)
    assert np.array_equal(closed.rho, g.rho) and np.array_equal(closed.theta, g.theta)
    for i, r in enumerate(rho):
        for k, th in enumerate(theta):
            u = np.array([[r * np.cos(th), r * np.sin(th)]])
            v = np.array([[-r * np.sin(th), r * np.cos(th)]])
            want = float(np.squeeze(analytic_wrt_gaussian(spec, w, u, v)))
            assert g.values[i, k] == pytest.approx(want, abs=1e-10)
            assert closed.values[i, k] == pytest.approx(want, rel=1e-14)


def test_polar_wrt_validation():
    theta = 2.0 * np.pi * np.arange(8) / 8
    rho = np.geomspace(0.1, 1.0, 8)
    vals = np.zeros((8, 8))
    with pytest.raises(ValidationError):
        PolarWRT(rho, theta[:5], gaussian_window(1.0), vals[:, :5])  # not power of two
    with pytest.raises(ValidationError):
        PolarWRT(np.linspace(0.1, 1.0, 8), theta, gaussian_window(1.0), vals)
    with pytest.raises(ValidationError, match="at least 2 radii"):
        PolarWRT(rho[:1], theta, gaussian_window(1.0), vals[:1])
    with pytest.raises(ValidationError, match="power of two"):  # no angle
        PolarWRT(rho, theta[:0], gaussian_window(1.0), vals[:, :0])


def test_perp_data_needs_a_1d_rho():
    rho = np.array([[0.5, 1.0], [2.0, 4.0]])  # log-uniform along each row
    theta = 2.0 * np.pi * np.arange(4) / 4
    with pytest.raises(ValidationError, match="1-d rho"):
        PolarWRT(rho, theta, bump_window(2.0), np.zeros((4, 4)))
    with pytest.raises(ValidationError, match="1-d rho"):
        wrt_polar_perp(_GAUSS, bump_window(2.0), rho, theta)


def test_polar_wrt_rejects_bad_values():
    theta = 2.0 * np.pi * np.arange(8) / 8
    rho = np.geomspace(0.1, 1.0, 4)
    with pytest.raises(ValidationError, match="shape"):
        PolarWRT(rho, theta, gaussian_window(1.0), np.full((3, 5), np.nan))
    with pytest.raises(NumericalError):
        PolarWRT(rho, theta, gaussian_window(1.0), np.full((4, 8), np.nan))


def _ones_wrt_rows(columns, dtype):
    """(grid, vset, window, v-major rows of ones) on 64^2 points x ``columns``."""
    vset = VSet("full-grid", np.stack([np.ones(columns), np.arange(columns)], axis=1))
    w = gaussian_window(1.0) if dtype is float else analytic_signal_window()
    return make_grid(2, 64, 8.0), vset, w, np.ones((columns, 64 * 64), dtype=dtype)


@pytest.mark.parametrize("dtype", [float, complex])
def test_wrt_data_checks_finiteness_without_a_whole_array_temporary(dtype):
    # 2^20 values checked 2^16 at a time: far below one bool per value (1 MiB)
    grid, vset, w, rows = _ones_wrt_rows(256, dtype)
    tracemalloc.start()
    try:
        data = WRTData(grid, vset, w, rows.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(data.values, rows) and peak < 2**18


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.inf), complex(np.nan, 0.0)])
def test_wrt_data_rejects_a_non_finite_value_in_the_last_short_block(bad):
    # 250 slices of 4096 values go in blocks of 16 slices, the last of 10
    grid, vset, w, rows = _ones_wrt_rows(250, complex if isinstance(bad, complex) else float)
    rows[-1, -1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        WRTData(grid, vset, w, rows.T)
    with pytest.raises(NumericalError, match="non-finite"):  # and in C order, copied
        WRTData(grid, vset, w, np.ascontiguousarray(rows.T))


def test_forward_matches_gaussian_oracle_in_3d():
    # the forward model is not tied to n = 2
    spec = gaussian_mixture_phantom([((0.3, -0.1, 0.2), 0.9, 1.0), ((-0.7, 0.5, -0.4), 0.6, 0.4)])
    w = gaussian_window(1.1)
    grid = make_grid(3, 8, 6.0)
    vset = VSet("full-grid", [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [-0.3, 1.2, 0.4],
                              [2.0, -1.0, 0.7], [0.05, 0.02, -0.1]])
    data = windowed_ray_transform(spec, w, grid, vset)
    U = grid.points()
    want = np.stack([analytic_wrt_gaussian(spec, w, U, v[None, :]) for v in vset.vectors], axis=1)
    _assert_close(data.values, want, rtol=1e-12)


def test_closed_form_needs_gaussian_phantom_and_window(monkeypatch):
    monkeypatch.setattr(_pool, "map", None)  # a dispatch would raise TypeError
    grid = make_grid(2, 8, 4.0)
    u, v = grid.points(), np.array([[1.0, 0.5]])
    spec = gaussian_phantom((0.2, 0.1), 0.8)
    for f, w in ((sample_phantom(spec, grid), gaussian_window(1.0)),
                 (smoothed_disk_phantom((0.0, 0.0), 1.0, 0.2), gaussian_window(1.0)),
                 (spec, bump_window(2.0)), (spec, analytic_signal_window())):
        with pytest.raises(ValidationError):
            analytic_wrt_gaussian(f, w, u, v)
        with pytest.raises(ValidationError):  # before any block is dispatched
            analytic_wrt_data(f, w, grid, polar_vset(uniform_circle(4)[0], [0.5, 1.0]))


def _containers():
    """One dataset of each kind, all with an odd window (h(0) = 0)."""
    w, grid = hermite1_window(1.0), make_grid(2, 8, 8.0)
    polar = polar_vset(uniform_circle(4)[0], [0.5, 1.0])
    vline = v1_line_vset(symmetric_offset_grid(2.0, 0.5), [0.0])
    theta = 2.0 * np.pi * np.arange(8) / 8
    return {"polar": WRTData(grid, polar, w, np.zeros((grid.size, len(polar)))),
            "v1-line": WRTData(grid, vline, w, np.zeros((grid.size, len(vline)))),
            "perp": PolarWRT(np.geomspace(0.1, 1.0, 8), theta, w, np.zeros((8, 8)))}


_OUT = make_grid(2, 4, 4.0)
# each route with a window its hypothesis check rejects: the dataset is checked first
_ROUTES = {
    "t1": lambda d: reconstruct_t1(d, analytic_signal_window(), _OUT),
    "t2": lambda d: extract_polar_spectrum(d, [0.0, 0.5]),
    "slice": lambda d: slice_extract(d, SliceParams(a=0.0)),
    "mellin": lambda d: reconstruct_mellin(d, hermite1_window(1.0), 1, _OUT),
    "harmonics": lambda d: circular_decompose(d, 1),
}


@pytest.mark.parametrize("route, kind", [
    ("t1", "v1-line"), ("t1", "perp"), ("t2", "v1-line"), ("t2", "perp"),
    ("slice", "polar"), ("slice", "perp"), ("mellin", "polar"), ("mellin", "v1-line"),
    ("harmonics", "polar"), ("harmonics", "v1-line")])
def test_routes_reject_the_wrong_dataset(route, kind):
    with pytest.raises(ValidationError):
        _ROUTES[route](_containers()[kind])


_RADII = np.geomspace(0.1, 2.0, 6)
_SIGMA = np.linspace(0.0, 1.5, 7)
_RHO, _THETA = np.geomspace(1e-6, 8.0, 64), 2.0 * np.pi * np.arange(8) / 8


def _polar(radii, dirs=uniform_circle(8)[0]):
    """Closed-form polar data of a gaussian on an n-D grid, n = dirs.shape[1]."""
    n = dirs.shape[1]
    spec = gaussian_phantom((0.5,) + (0.0,) * (n - 1), 0.8)
    return analytic_wrt_data(spec, gaussian_window(1.0), make_grid(n, 8, 8.0),
                             polar_vset(dirs, radii))


def _t2(data, sigma=_SIGMA):
    return reconstruct_t2(extract_polar_spectrum(data, sigma), gaussian_window(1.0), _OUT)


def _perp(rho, theta):
    """Perp data exp(-rho^2), which decays at both ends of the Mellin grid."""
    return PolarWRT(rho, theta, bump_window(2.0), np.outer(np.exp(-rho**2), np.ones(theta.size)))


# each case breaks one rule of the grid that the route's quadrature assumes;
# unchecked, a reversed grid flips the sign of its integral
_BROKEN_GRIDS = {
    "t1-descending-radii": lambda: reconstruct_t1(_polar(_RADII[::-1]), gaussian_window(1.0),
                                                  _OUT),
    "t2-descending-radii": lambda: _t2(_polar(_RADII[::-1])),
    "t2-descending-sigma": lambda: _t2(_polar(_RADII), _SIGMA[::-1]),
    "mellin-descending-rho": lambda: reconstruct_mellin(
        _perp(_RHO[::-1], _THETA), bump_window(2.0), 1, _OUT),
    "non-unit-directions": lambda: polar_vset(2.0 * uniform_circle(8)[0], _RADII),
    "non-uniform-theta": lambda: _perp(_RHO, _THETA + np.linspace(0.0, 0.1, 8)),
    "constant-rho": lambda: _perp(np.ones(64), _THETA),
    "t2-3d-polar-data": lambda: _t2(_polar(_RADII, np.eye(3))),
}


@pytest.mark.parametrize("case", list(_BROKEN_GRIDS))
def test_routes_reject_grids_their_quadrature_does_not_fit(case):
    with pytest.raises(ValidationError):
        _BROKEN_GRIDS[case]()


@pytest.mark.parametrize("nodes", [[0.0], [0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                   [1.0, 0.5, 0.0], [0.0, 1.0, 1.0, 2.0]],
                         ids=["one-node", "nan", "inf", "descending", "repeated"])
def test_trapezoid_weights_need_finite_increasing_nodes(nodes):
    with pytest.raises(ValidationError, match="strictly increasing"):
        trapezoid_weights(nodes)


def test_flushed_exp_is_np_exp_on_every_normal_result():
    ulps = _LOG_TINY + np.arange(-4, 5) * np.spacing(_LOG_TINY)  # both sides of -708.396
    x = np.concatenate([[0.0, -0.0, 1e-300, 1.0, 700.0, 709.78, 710.0, np.inf, -np.inf, -1e300],
                        ulps, np.linspace(-760.0, 40.0, 20001)])
    with np.errstate(over="ignore"):
        want = np.exp(x)
        normal = want >= np.finfo(float).tiny
        assert normal.any() and np.any((want > 0) & ~normal)  # subnormal results are in the sweep
        y = x.copy()  # in place, as the closed form calls it
        for got in (_exp_flushed(x), _exp_flushed(x, out=np.full_like(x, np.nan)),
                    _exp_flushed(y, out=y)):
            assert np.array_equal(got[normal], want[normal])
            assert np.all(got[~normal] == 0.0) and not np.any(np.signbit(got))
        assert _exp_flushed(y, out=y) is y
    assert np.isnan(_exp_flushed(np.array([np.nan, -1e4]))).tolist() == [True, False]
    assert _exp_flushed(-800.0) == 0.0 and _exp_flushed(-1.0) == np.exp(-1.0)


_MIXTURE_2D = [((0.3, -0.1), 0.9, 1.0), ((-0.7, 0.5), 0.6, 0.4)]
_MIXTURE_3D = [((0.3, -0.1, 0.2), 0.9, 1.0), ((-0.7, 0.5, -0.4), 0.6, 0.4)]
_VSET_3D = VSet("full-grid", [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [-0.3, 1.2, 0.4],
                              [2.0, -1.0, 0.7], [0.05, 0.02, -0.1]])


@pytest.mark.parametrize("components, grid, vset", [
    (_MIXTURE_2D, make_grid(2, (40, 33), 12.0),
     polar_vset(uniform_circle(5)[0], np.geomspace(0.1, 30.0, 7))),
    (_MIXTURE_3D, make_grid(3, 8, 6.0), _VSET_3D)], ids=["2d", "3d"])
def test_closed_form_slices_are_contiguous_and_match_paired_points(components, grid, vset):
    spec = gaussian_mixture_phantom(components)
    w = gaussian_window(1.1)
    values = analytic_wrt_data(spec, w, grid, vset).values
    U = grid.points()
    for j, v in enumerate(vset.vectors):
        assert values[:, j].flags.c_contiguous
        want = analytic_wrt_gaussian(spec, w, U, v[None, :])
        assert np.max(np.abs(values[:, j] - want)) <= 1e-14 * np.max(np.abs(want))


_LAYOUT_SPEC = gaussian_phantom((0.3, -0.2), 0.8)
_LAYOUT_GRID = make_grid(2, 12, 6.0)
_LAYOUT_VSET = polar_vset(uniform_circle(4)[0], [0.5, 1.0, 2.0])


def _oracle_data():
    return analytic_wrt_data(_LAYOUT_SPEC, gaussian_window(1.0), _LAYOUT_GRID, _LAYOUT_VSET)


def _read_back(tmp_path):
    wio.write_wrt1(str(tmp_path / "d"), _oracle_data())
    return wio.read_wrt1(str(tmp_path / "d"))


_PRODUCERS = {  # each gives the values of WRTData, or of wrt_columns
    "oracle": lambda tmp_path: _oracle_data().values,
    "factored": lambda tmp_path: windowed_ray_transform(
        _LAYOUT_SPEC, gaussian_window(1.0), _LAYOUT_GRID, _LAYOUT_VSET,
        QuadratureParams(panels=4)).values,
    "ray-by-ray-disk": lambda tmp_path: windowed_ray_transform(
        smoothed_disk_phantom((0.2, 0.1), 1.5, 0.3), gaussian_window(1.0), _LAYOUT_GRID,
        _LAYOUT_VSET, QuadratureParams(panels=4)).values,
    "analytic-signal": lambda tmp_path: windowed_ray_transform(
        _LAYOUT_SPEC, analytic_signal_window(), _LAYOUT_GRID, _LAYOUT_VSET).values,
    "wrt_columns": lambda tmp_path: wrt_columns(
        _LAYOUT_SPEC, gaussian_window(1.0), _LAYOUT_GRID.points(), _LAYOUT_VSET.vectors,
        QuadratureParams(panels=4)),
    "read_wrt1": lambda tmp_path: _read_back(tmp_path).values,
    "c-order-array": lambda tmp_path: WRTData(
        _LAYOUT_GRID, _LAYOUT_VSET, gaussian_window(1.0),
        np.ascontiguousarray(_oracle_data().values)).values,
    "replace": lambda tmp_path: dataclasses.replace(
        _oracle_data(), window=hermite1_window(1.0)).values,
}


@pytest.mark.parametrize("producer", list(_PRODUCERS))
def test_every_producer_gives_v_major_values(tmp_path, producer):
    values = _PRODUCERS[producer](tmp_path)
    assert values.shape == (_LAYOUT_GRID.size, len(_LAYOUT_VSET))
    assert values.T.flags.c_contiguous
    if producer in ("read_wrt1", "c-order-array", "replace"):
        assert np.array_equal(values, _oracle_data().values)


def test_v_major_values_are_kept_without_a_copy():
    data = _oracle_data()
    assert np.shares_memory(dataclasses.replace(data, window=hermite1_window(1.0)).values,
                            data.values)
    c_order = np.ascontiguousarray(data.values)
    assert not np.shares_memory(WRTData(data.u_grid, data.vset, data.window, c_order).values,
                                c_order)


def test_perp_data_rejects_a_drifting_log_rho_step():
    # steps of 5e-7 drifting by 1 %: within allclose's default atol of 1e-8
    rho = np.exp(np.concatenate([[0.0], np.cumsum(5e-7 * (1.0 + 0.01 * np.linspace(0, 1, 15)))]))
    with pytest.raises(ValidationError, match="log-uniform"):
        PolarWRT(rho, _THETA, gaussian_window(1.0), np.zeros((rho.size, _THETA.size)))
    PolarWRT(np.exp(5e-7 * np.arange(16)), _THETA, gaussian_window(1.0),  # the undrifted steps
             np.zeros((16, _THETA.size)))


def test_closed_form_checks_dimensions():
    spec = gaussian_phantom((0.0, 0.0), 0.8)
    w = gaussian_window(1.0)
    with pytest.raises(ValidationError, match="source/grid"):
        analytic_wrt_data(spec, w, make_grid(3, 4, 4.0), _VSET_3D)
    with pytest.raises(ValidationError, match="vset/grid"):
        analytic_wrt_data(spec, w, make_grid(2, 4, 4.0), _VSET_3D)
    # paired points: a 1-D point used to broadcast against the 2-D centre
    with pytest.raises(ValidationError, match="source/grid"):
        analytic_wrt_gaussian(spec, w, np.zeros((4, 1)), np.ones((1, 1)))
    with pytest.raises(ValidationError, match="vset/grid"):
        analytic_wrt_gaussian(spec, w, np.zeros((4, 2)), np.ones((1, 3)))


def test_perp_forward_checks_theta_before_integrating():
    # a 3-D source fails later, in the forward itself: the theta check runs first
    spec = gaussian_phantom((0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValidationError, match="theta grid"):
        wrt_polar_perp(spec, bump_window(2.0), _RHO, _THETA + 0.01)
    with pytest.raises(ValidationError, match="n=2 only"):
        wrt_polar_perp(spec, bump_window(2.0), _RHO, _THETA)


def test_uniform_circle_jitter_keeps_unit_directions_near_the_grid():
    n, jitter = 16, 0.3
    dirs, ang = uniform_circle(n, jitter=jitter, seed=3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    offs = ang / (2.0 * np.pi / n) - np.arange(n)  # in steps of 2 pi / N
    assert np.all(np.abs(offs) <= jitter) and np.max(np.abs(offs)) > 0.0
    assert np.array_equal(uniform_circle(n, jitter=jitter, seed=3)[1], ang)


def test_fourier_identity_small_grid():
    spec = gaussian_phantom((0.2, -0.1), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 64, 16.0)
    vgrid = make_grid(2, 4, 3.0, center=(0.21, 0.13))
    data = analytic_wrt_data(spec, w, grid, full_grid_vset(vgrid))
    res = fourier_identity_residual(data, spec, band=3.0)
    assert res < 1e-5


# ---------------------------------------------------------------------------
# support-clipped quadrature against the dense rule it replaced


def _dense_source(f, u, v, t):
    """f(u_m + t_q v_m) at every node: the unclipped evaluation."""
    if isinstance(f, PhantomSpec):
        return f.evaluate_along_rays(u, v, t)
    pts = u[:, None, :] + t[None, :, None] * v[:, None, :]
    idx = f.grid.coord_to_index(pts.reshape(-1, f.grid.n))
    vals = ndimage.map_coordinates(
        f.values, idx.T, order=3, mode="constant", cval=0.0, prefilter=True
    )
    return vals.reshape(u.shape[0], t.size)


def _dense_rule(f, w, quad, v_norm):
    """The unclipped rule (t, h w) of a real window for a ray of length |v|:
    every node of _time_nodes."""
    T = window_support_radius(w, tol=1e-14)
    return _time_nodes(w, quad, T, _panel_count(quad, T, v_norm, _ray_source(f)[2]))


def _dense_wrt(f, w, U, vectors, quad):
    """The unclipped rule of a real window: every node of _time_nodes."""
    out = np.zeros((U.shape[0], len(vectors)))
    for j, v in enumerate(vectors):
        t, hw = _dense_rule(f, w, quad, float(np.linalg.norm(v)))
        out[:, j] = _dense_source(f, U, np.broadcast_to(v, U.shape), t) @ hw
    return out


def _assert_close(got, want, rtol=1e-14):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


_FAR_MIXTURE = gaussian_mixture_phantom([((0.3, -0.1), 0.9, 1.0), ((6.0, -5.0), 0.4, 0.5)])
_VSET = polar_vset(uniform_circle(5)[0], np.geomspace(0.2, 3.0, 4))


@pytest.mark.parametrize("w", [gaussian_window(1.0), hermite1_window(0.8), bump_window(2.0)],
                         ids=lambda w: w.kind)
def test_clipped_forward_matches_dense_rule(w):
    grid = make_grid(2, 20, 16.0)
    quad = QuadratureParams(panels=8)
    got = windowed_ray_transform(_FAR_MIXTURE, w, grid, _VSET, quad).values
    _assert_close(got, _dense_wrt(_FAR_MIXTURE, w, grid.points(), _VSET.vectors, quad))


def _faddeeva_wrt(f, u, v):
    """Closed-form P_h f of gaussian phantom(s) for h(t) = 1 / (2 pi i (t - i)):
    with |u + t v - c|^2 = |v|^2 (t - t0)^2 + d^2 and a = |v|^2 / 2 s^2,
    the t integral is A e^{-d^2 / 2 s^2} w(sqrt(a) (i - t0)) / 2, w = wofz."""
    out = 0.0
    v2 = np.sum(v * v, axis=-1)
    for c in f.components:
        s = c["sigma"]
        du = u - np.asarray(c["center"])
        b = np.sum(du * v, axis=-1)
        d2 = np.sum(du * du, axis=-1) - b * b / v2
        z = np.sqrt(v2 / (2.0 * s**2)) * (1j + b / v2)
        out = out + c["amplitude"] * np.exp(-0.5 * d2 / s**2) * special.wofz(z) / 2.0
    return out


@pytest.mark.parametrize("spec, rtol", [(gaussian_phantom((0.4, -0.2), 0.7), 1e-8),
                                        (_FAR_MIXTURE, 1e-6)], ids=["gaussian", "far-mixture"])
def test_analytic_signal_forward_matches_faddeeva(spec, rtol):
    # |v| >= 0.05 everywhere: the pole is resolved, and nothing warns
    w = analytic_signal_window()
    grid = make_grid(2, 32, 16.0)
    vset = polar_vset(uniform_circle(6)[0], np.geomspace(0.05, 30.0, 8))
    rho, theta = np.geomspace(0.05, 4.0, 16), 2.0 * np.pi * np.arange(8) / 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = windowed_ray_transform(spec, w, grid, vset).values
        g = wrt_polar_perp(spec, w, rho, theta).values
    _assert_close(got, _faddeeva_wrt(spec, grid.points()[:, None, :], vset.vectors), rtol)
    u = rho[:, None, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    _assert_close(g, _faddeeva_wrt(spec, u, u[..., ::-1] * [-1.0, 1.0]), rtol)


def test_analytic_signal_warns_once_where_its_pole_is_not_resolved():
    # rho from 1e-6, the CLI's default --rho-min: 10 of the 16 rows have
    # |v| = rho < 1e-2, 8 rays each
    spec, w = gaussian_phantom((0.4, -0.2), 0.7), analytic_signal_window()
    rho, theta = np.geomspace(1e-6, 4.0, 16), 2.0 * np.pi * np.arange(8) / 8
    assert np.count_nonzero(rho < 1e-2) == 10
    with pytest.warns(UserWarning, match=r"^80 analytic-signal rays have \|v\| < 1e-2") as record:
        wrt_polar_perp(spec, w, rho, theta)
    assert len(record) == 1 and "99 % at 1e-6" in str(record[0].message)
    assert record[0].filename == __file__  # reported at the caller's line
    with pytest.warns(UserWarning, match=r"^3 analytic-signal rays") as record:
        wrt_columns(spec, w, np.zeros((3, 2)), [[1e-3, 0.0], [0.0, 0.5]])
    assert len(record) == 1 and record[0].filename == __file__


@pytest.mark.parametrize("w, needed", [(gaussian_window(1e8), "2.86767e+08"),
                                        (hermite1_window(1e8), "3.67661e+08")])
def test_capped_refinement_warns_once_with_the_panels_needed_and_used(w, needed):
    # sigma = 1e8: 256 panels on [-T, T] are far wider than the phantom, whose
    # rays the nodes all miss, so the values read exactly 0
    spec, grid = gaussian_phantom((0.4, -0.2), 0.7), make_grid(2, 8, 8.0)
    vset = polar_vset(uniform_circle(4)[0], [1.0])
    with pytest.warns(UserWarning, match=f"needs {re.escape(needed)} panels.*caps it at 256") as record:
        data = windowed_ray_transform(spec, w, grid, vset)
    assert len(record) == 1 and record[0].filename == __file__
    assert np.all(data.values == 0.0)
    with pytest.warns(UserWarning, match="caps it at 256") as record:
        wrt_polar_perp(spec, w, np.geomspace(0.5, 1.0, 4), 2.0 * np.pi * np.arange(4) / 4)
    assert len(record) == 1 and record[0].filename == __file__
    # max_panels=None is the unrefined rule, panels = 32, and says so as well
    with pytest.warns(UserWarning, match=f"needs {re.escape(needed)} panels.*caps it at 32") as record:
        unrefined = windowed_ray_transform(spec, w, grid, vset, QuadratureParams(max_panels=None))
    assert len(record) == 1 and record[0].filename == __file__
    assert QuadratureParams(max_panels=None) == QuadratureParams(max_panels=32)
    with warnings.catch_warnings():  # a rule that resolves the source: silent, capped or not
        warnings.simplefilter("error")
        windowed_ray_transform(spec, gaussian_window(1.0), grid, vset)
        windowed_ray_transform(spec, gaussian_window(1.0), grid, vset, QuadratureParams(max_panels=None))


@pytest.mark.parametrize("source", ["phantom", "field"])
def test_far_nodes_of_a_wide_window_do_not_overflow(source):
    # the widest bump a window takes (R = 1e100) and the longest v (|v| =
    # 1e100): the factored route's outer nodes u + t v reach 1e200, beyond
    # every source box.  A phantom centred at x1 = -1e308 seen from a grid
    # centred at x1 = 1e308 puts u - c + t v past the largest double, and so
    # does the grid index (u + t v - origin) / 1.25e-60 of a field sampled
    # at that spacing, seen from a grid centred at x1 = 1e250 (RuntimeWarnings
    # fail tier-1)
    spec = gaussian_phantom((-1e308, 0.0), 0.7)
    grid = make_grid(2, 8, 8.0, center=(1e308, 0.0))
    if source == "field":
        spec = sample_phantom(gaussian_phantom((0.0, 0.0), 1e-60), make_grid(2, 16, 2e-59))
        grid = make_grid(2, 8, 8.0, center=(1e250, 0.0))
    vset = polar_vset(uniform_circle(4)[0], [1e100])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the capped refinement
        data = windowed_ray_transform(spec, bump_window(1e100), grid, vset)
    assert np.all(np.isfinite(data.values))


def test_clipped_forward_smoothed_disk():
    disk = smoothed_disk_phantom((0.3, 0.1), 1.5, 0.3)
    grid = make_grid(2, 24, 24.0)
    vset = polar_vset(uniform_circle(4)[0], np.geomspace(0.1, 1.0, 2))
    quad = QuadratureParams(panels=8)
    got = windowed_ray_transform(disk, gaussian_window(1.0), grid, vset, quad).values
    _assert_close(got, _dense_wrt(disk, gaussian_window(1.0), grid.points(), vset.vectors, quad))


def test_clipped_forward_field_touching_grid_edge():
    # the gaussian's mass reaches the x1 = 5 edge of the sampled grid
    field = sample_phantom(gaussian_phantom((4.2, 0.5), 0.6), make_grid(2, 32, 10.0))
    assert np.max(np.abs(field.values[-1])) > 1e-2 * np.max(field.values)
    grid = make_grid(2, 20, 14.0)
    quad = QuadratureParams(panels=8)
    w = gaussian_window(1.0)
    with pytest.warns(UserWarning, match="does not decay at the grid boundary"):
        got = windowed_ray_transform(field, w, grid, _VSET, quad).values
    _assert_close(got, _dense_wrt(field, w, grid.points(), _VSET.vectors, quad))
    # the analytic-signal kernel has no dense rule: the same rule with 4x the
    # panels (64 and 256 per piece).  The spline field drops to 0 at the end
    # of its sample range, where the clip interval ends, so the jump falls on
    # a panel edge and both rules converge fast
    w, U = analytic_signal_window(), grid.points()[::10]
    got = wrt_columns(field, w, U, _VSET.vectors, quad)
    _assert_close(got, wrt_columns(field, w, U, _VSET.vectors, QuadratureParams(panels=256)),
                  rtol=1e-8)


_TWO_BUMP = gaussian_mixture_phantom([((1.4, 0.0), 0.23, 1.0), ((-1.4, 0.0), 0.23, 1.0)])


def test_clipped_perp_matches_dense_rule():
    theta = 2.0 * np.pi * np.arange(32) / 32
    e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    field = sample_phantom(gaussian_phantom((0.4, -0.2), 0.7), make_grid(2, 64, 20.0))
    for f, w, rho, quad in [
        # no rho refines: one rule for every ray
        (_TWO_BUMP, bump_window(2.0), np.geomspace(1e-10, 4.0, 256), QuadratureParams(panels=16)),
        # the grid spacing 0.3125 refines rho > 1.25, up to 52 panels
        (field, gaussian_window(1.0), np.geomspace(1e-3, 8.0, 96), QuadratureParams(panels=8)),
    ]:
        got = wrt_polar_perp(f, w, rho, theta, quad).values
        # the dense rule of each rho, with that rho's own nodes
        want = np.zeros_like(got)
        for i, r in enumerate(rho):
            t, hw = _dense_rule(f, w, quad, r)
            want[i] = _dense_source(f, r * e, r * e[:, ::-1] * [-1.0, 1.0], t) @ hw
        _assert_close(got, want)


_GAUSS = gaussian_phantom((0.4, -0.2), 0.7)
_NARROW_PAIR = gaussian_mixture_phantom([((1.0, 0.0), 0.05, 1.0), ((-1.0, 0.0), 0.05, 1.0)])


def _perp_rays(rho, n_theta=64):
    """Paired perp rays u = rho e(theta), v = rho e(theta)^perp, rho-major."""
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    e = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    U = (rho[:, None, None] * e).reshape(-1, 2)
    return U, U[:, ::-1] * [-1.0, 1.0]


def _bump_rule():
    """The full bump:2.0 rule of 16 panels, unrefined."""
    quad = QuadratureParams(panels=16, max_panels=None)
    return _time_nodes(bump_window(2.0), quad, window_support_radius(bump_window(2.0), tol=1e-14), 16)


@pytest.mark.parametrize("f, rho", [
    (_TWO_BUMP, np.geomspace(1e-10, 4.0, 64)),  # the cli-perp-mellin phantom and rows
    (_GAUSS, np.geomspace(1e-10, 4.0, 64)),
    (_TWO_BUMP, np.array([1e-200, 1e-160, 1e-10])),  # |v|^2 underflows to 0 in two rows
    (_GAUSS, np.array([1e-200, 1e-160, 1e-10])),
], ids=["two-bump", "gaussian", "two-bump-underflow", "gaussian-underflow"])
def test_gaussian_ray_sums_match_the_dense_values(f, rho):
    # the in-place sum of a gaussian phantom against its (rays x nodes) values
    # reduced by the same weights: real (Q,), and complex per ray (M, Q) as
    # the analytic-signal kernel passes them
    U, V = _perp_rays(rho)
    if rho[0] == 1e-200:
        assert np.sum(V[0] * V[0]) == 0.0
    t, hw = _bump_rule()
    sums, dense = _ray_source(f).sums, f.evaluate_along_rays(U, V, t)
    _assert_close(sums(U, V, t, hw), dense @ hw)
    weights = hw * np.exp(1j * np.outer(U[:, 0], t))
    _assert_close(sums(U, V, t, weights), np.sum(dense * weights, axis=1))


def test_narrow_mixture_ray_sums_match_the_per_axis_sum():
    # sigma = 0.05 (k = -200): the in-place exponent of the gaussian kernel
    # expands |u + t v - c|^2 into terms up to about 64 that cancel near the
    # peak, so it lands a few 1e-14 of max (2.9e-14 measured) from a
    # long-double sum of the per-axis squares (du_i + t v_i)^2; the dense
    # values sum those squares per axis in double and stay within 1e-14
    U, V = _perp_rays(np.geomspace(1e-10, 4.0, 256))
    t, hw = _bump_rule()
    Ul, Vl, tl = (a.astype(np.longdouble) for a in (U, V, t))
    exact = sum(c["amplitude"] * np.exp(-0.5 * sum((Ul[:, i, None] - ci + tl * Vl[:, i, None]) ** 2
                                                   for i, ci in enumerate(c["center"]))
                                        / c["sigma"] ** 2) for c in _NARROW_PAIR.components)
    exact = exact @ hw.astype(np.longdouble)
    got = _ray_source(_NARROW_PAIR).sums(U, V, t, hw)
    dense = _NARROW_PAIR.evaluate_along_rays(U, V, t) @ hw
    _assert_close(got, exact, rtol=5e-14)
    _assert_close(dense, exact, rtol=1e-14)
    _assert_close(got, dense, rtol=5e-14)


@pytest.mark.parametrize("w", [gaussian_window(1.0), hermite1_window(0.8), bump_window(2.0)],
                         ids=lambda w: w.kind)
def test_ray_by_ray_columns_match_the_dense_rule(w):
    # wrt_columns reduces a mixture's clipped rays in place
    grid, quad = make_grid(2, 20, 16.0), QuadratureParams(panels=8)
    got = wrt_columns(_FAR_MIXTURE, w, grid.points(), _VSET.vectors, quad)
    _assert_close(got, _dense_wrt(_FAR_MIXTURE, w, grid.points(), _VSET.vectors, quad))


def _columns(f, w):  # 576 base points x 7 vectors, ray by ray
    return wrt_columns(f, w, make_grid(2, 24, 12.0).points(), _VSET.vectors[::3],
                       QuadratureParams(panels=8))


def _perp(f, w):  # 48 rho rows x 64 angles, ray by ray
    return wrt_polar_perp(f, w, np.geomspace(0.05, 4.0, 48), 2.0 * np.pi * np.arange(64) / 64,
                          QuadratureParams(panels=16)).values


def _grid(f, w):  # the factored route, columns shared out, where it applies; else wrt_columns
    vset = VSet("full-grid", _VSET.vectors[::3])
    return windowed_ray_transform(f, w, make_grid(2, 24, 12.0), vset, QuadratureParams(panels=8)).values


@pytest.mark.parametrize("route", [_columns, _perp, _grid], ids=["columns", "perp", "grid"])
@pytest.mark.parametrize("f, w", [
    (_GAUSS, gaussian_window(1.0)),
    (smoothed_disk_phantom((0.3, 0.1), 1.5, 0.3), gaussian_window(1.0)),
    (sample_phantom(_GAUSS, make_grid(2, 32, 10.0)), hermite1_window(0.8)),
    (_GAUSS, analytic_signal_window()),
], ids=["gaussian", "disk", "field", "analytic-signal"])
def test_quadrature_forward_does_not_depend_on_the_worker_count(monkeypatch, route, f, w):
    monkeypatch.setenv("WRTKIT_THREADS", "1")
    one = route(f, w)
    for workers in ("2", "3"):
        monkeypatch.setenv("WRTKIT_THREADS", workers)
        assert np.array_equal(route(f, w), one), workers


def test_ray_by_ray_forward_does_not_depend_on_the_node_budget(monkeypatch):
    # each ray is reduced by itself, so cutting the source evaluations into
    # runs of 2^10 nodes (4 to 8 real-window rays; one analytic-signal
    # ray of two pieces) changes no bit
    disk = smoothed_disk_phantom((0.3, 0.1), 1.5, 0.3)
    cases = [(route, f, w) for route in (_columns, _perp) for f, w in (
        (_GAUSS, gaussian_window(1.0)), (disk, gaussian_window(1.0)),
        (_FIELD, hermite1_window(0.8)), (_GAUSS, analytic_signal_window()))]
    cases.append((_grid, disk, gaussian_window(1.0)))
    want = [route(f, w) for route, f, w in cases]
    monkeypatch.setattr(forward, "_NODES", 2**10)
    for (route, f, w), ref in zip(cases, want):
        assert np.array_equal(route(f, w), ref), (route.__name__, f, w)


def test_planned_calls_do_not_grow_with_the_worker_count(monkeypatch):
    # the calls are planned on the caller and shared out whole, so more
    # workers make no more, smaller calls: on the benchmark's disk geometry,
    # on perp data (one column per rho row) and with the analytic-signal kernel
    disk = smoothed_disk_phantom((0.3, 0.1), 1.5, 0.3)
    vset = polar_vset(uniform_circle(4)[0], np.geomspace(0.1, 1.0, 2))
    cases = {
        "disk": lambda: windowed_ray_transform(disk, gaussian_window(1.0), make_grid(2, 64, 24.0),
                                               vset, QuadratureParams(panels=8)).values,
        # a narrow rho range: rays of one theta keep the same panels on every row
        "perp": lambda: wrt_polar_perp(_TWO_BUMP, bump_window(2.0), np.geomspace(1.0, 1.1, 32),
                                       2.0 * np.pi * np.arange(64) / 64,
                                       QuadratureParams(panels=16)).values,
        "analytic-signal": lambda: windowed_ray_transform(
            _GAUSS, analytic_signal_window(), make_grid(2, 32, 12.0), vset,
            QuadratureParams(panels=8)).values,
    }
    calls, real = [], forward._ray_source  # (ray nodes, src.run) of every src.sums call

    def counted(f):
        src = real(f)

        def sums(U, V, t, weights):
            calls.append((U.shape[0] * t.size, src.run))
            return src.sums(U, V, t, weights)

        return src._replace(sums=sums)

    monkeypatch.setattr(forward, "_ray_source", counted)
    for name, route in cases.items():
        counts, values = {}, {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(_pool, "limit", workers)
            calls.clear()
            values[workers] = route()
            counts[workers] = len(calls)
            assert all(nodes <= run for nodes, run in calls), name
        for workers in (2, 3):
            assert counts[workers] <= counts[1] + workers - 1, (name, counts)
            assert np.array_equal(values[workers], values[1]), name


def test_planned_shares_balance_one_dominant_group(monkeypatch):
    # a wide gaussian meets every ray over the whole window support, so all
    # but the far rays keep every panel: one (rule, panel range) group holds
    # most of the work, and its runs are still shared out evenly
    wide = gaussian_phantom((0.0, 0.0), 6.0)
    U = np.concatenate([make_grid(2, 32, 4.0).points(), [[400.0, 0.0], [0.0, 90.0]]])
    vectors = 0.5 * uniform_circle(8)[0]
    shares, real = [], _pool.map

    def spy(fn, items):
        if isinstance(items, list):  # the runs' shares of planned calls, not the key pass's rays
            shares.append([sum(rays.size * t.size for _, rays, t, _ in share) for share in items])
        return real(fn, items)

    monkeypatch.setattr(_pool, "map", spy)
    want, interval = None, sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # the workers write disjoint rays of one array
        for workers in (1, 2, 3):
            monkeypatch.setattr(_pool, "limit", workers)
            shares.clear()
            got = wrt_columns(wide, gaussian_window(1.0), U, vectors, QuadratureParams())
            want = got if want is None else want
            assert np.array_equal(got, want)
            (work,) = shares  # one planned block
            assert len(work) == workers
            assert min(work) >= np.mean(work) / 3, work
    finally:
        sys.setswitchinterval(interval)
    full = 32 * 16 * U.shape[0] * len(vectors)  # every ray keeps all 32 panels
    assert sum(work) < full and sum(work) > 0.99 * full


def test_smoothed_disk_builds_each_profile_once(monkeypatch):
    built = []

    class Counted(fields._DiskProfile):
        def __init__(self, c):
            built.append(c)
            super().__init__(c)

    monkeypatch.setattr(fields, "_DiskProfile", Counted)
    disk = PhantomSpec("smoothed-disk", ({"center": (0.3, 0.1), "radius": 1.5, "smoothing": 0.3},
                                         {"center": (-1.0, 0.5), "radius": 0.6, "smoothing": 0.2}))
    points = make_grid(2, 16, 8.0).points()
    first = disk.evaluate(points)
    assert np.array_equal(disk.evaluate(points), first)
    windowed_ray_transform(disk, gaussian_window(1.0), make_grid(2, 8, 8.0), _VSET,
                           QuadratureParams(panels=4))
    wrt_polar_perp(disk, gaussian_window(1.0), np.geomspace(0.1, 2.0, 4),
                   2.0 * np.pi * np.arange(8) / 8, QuadratureParams(panels=4))
    assert built == list(disk.components)


def test_forward_rejects_a_complex_field():
    grid = make_grid(2, 16, 8.0)
    z = fields.ScalarField(grid, (1.0 + 1.0j) * _FIELD.values[::2, ::2])
    with pytest.raises(ValidationError, match="complex"):
        windowed_ray_transform(z, gaussian_window(1.0), grid, _VSET)
    with pytest.raises(ValidationError, match="complex"):
        wrt_polar_perp(z, gaussian_window(1.0), [0.5, 1.0], [0.0])


_FIELD = sample_phantom(_GAUSS, make_grid(2, 32, 10.0))
_EDGE_FIELD = sample_phantom(gaussian_phantom((4.2, 0.5), 0.6), make_grid(2, 32, 10.0))


@pytest.mark.filterwarnings("ignore:field does not decay")  # the edge-touching field
@pytest.mark.parametrize("f, w, grid, vset", [
    *[(f, w, make_grid(2, 20, 16.0), _VSET)
      for f in (_GAUSS, _FAR_MIXTURE)
      for w in (gaussian_window(1.0), hermite1_window(0.8), bump_window(2.0))],
    (_FIELD, gaussian_window(1.0), _FIELD.grid, _VSET),
    (_FIELD, hermite1_window(0.8), make_grid(2, (20, 17), (14.0, 11.0), center=(0.3, -0.45)), _VSET),
    (_EDGE_FIELD, gaussian_window(1.0), make_grid(2, 20, 14.0), _VSET),
    (gaussian_mixture_phantom(_MIXTURE_3D), gaussian_window(1.1), make_grid(3, 8, 6.0), _VSET_3D),
    (sample_phantom(gaussian_mixture_phantom(_MIXTURE_3D), make_grid(3, 12, 8.0)), bump_window(2.0),
     make_grid(3, (8, 7, 6), (6.0, 5.0, 7.0)), _VSET_3D),
], ids=["gaussian-gaussian", "gaussian-hermite1", "gaussian-bump", "mixture-gaussian",
        "mixture-hermite1", "mixture-bump", "field-own-grid", "field-other-grid", "field-edge",
        "gaussian-3d", "field-3d"])
def test_factored_forward_matches_ray_by_ray(f, w, grid, vset):
    quad = QuadratureParams(panels=8)
    got = windowed_ray_transform(f, w, grid, vset, quad).values
    _assert_close(got, wrt_columns(f, w, grid.points(), vset.vectors, quad))


def test_only_the_disk_and_the_complex_kernel_go_ray_by_ray(monkeypatch):
    def ray_by_ray(*args):
        raise RuntimeError("ray by ray")

    monkeypatch.setattr(forward, "_columns", ray_by_ray)
    grid, quad = make_grid(2, 12, 10.0), QuadratureParams(panels=8)
    for f in (_GAUSS, _FAR_MIXTURE, _FIELD):
        for w in (gaussian_window(1.0), hermite1_window(0.8), bump_window(2.0)):
            assert np.all(np.isfinite(windowed_ray_transform(f, w, grid, _VSET, quad).values))
    for f, w in ((smoothed_disk_phantom((0.3, 0.1), 1.5, 0.3), gaussian_window(1.0)),
                 (_GAUSS, analytic_signal_window()), (_FIELD, analytic_signal_window())):
        with pytest.raises(RuntimeError, match="ray by ray"):
            windowed_ray_transform(f, w, grid, _VSET, quad)


def test_field_cut_at_its_edge_warns_once():
    grid, quad = make_grid(2, 12, 14.0), QuadratureParams(panels=8)
    with pytest.warns(UserWarning, match="does not decay at the grid boundary") as record:
        windowed_ray_transform(_EDGE_FIELD, gaussian_window(1.0), grid, _VSET, quad)
    assert len(record) == 1
    # fields that decay: the benchmark's (centre shifted by up to 2 cells) and
    # the pool-thread test's; and the complex kernel, whose clip interval ends
    # at the jump
    decaying = [sample_phantom(gaussian_phantom((0.4 + 0.625, -0.2 - 0.625), 0.7),
                               make_grid(2, 64, 20.0)),
                sample_phantom(gaussian_phantom((0.2, -0.1), 0.8), make_grid(2, 32, 10.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in decaying:
            windowed_ray_transform(f, gaussian_window(1.0), grid, _VSET, quad)
        windowed_ray_transform(_EDGE_FIELD, analytic_signal_window(), grid, _VSET, quad)


def test_ray_missing_the_source_is_exactly_zero():
    spec = gaussian_phantom((0.0, 0.0), 0.5)
    w = gaussian_window(1.0)
    U = np.array([[10.0, 0.0]])
    V = np.array([[0.0, 1.0]])
    assert wrt_columns(spec, w, U, V)[0, 0] == 0.0
    # the dense rule is tiny but not zero: the ray was skipped, not summed
    assert 0.0 < abs(_dense_wrt(spec, w, U, V, QuadratureParams())[0, 0]) < 1e-60


def test_underflowing_v_is_rejected():
    # |v| = 1e-200 (|v|^2 underflows to 0) is below the length range, in
    # every forward, for a phantom and a sampled field, real or complex window
    spec = gaussian_phantom((0.0, 0.0), 0.5)
    field = sample_phantom(spec, make_grid(2, 32, 8.0))
    U, V = np.array([[0.25, 0.0], [10.0, 0.0]]), np.array([[1e-200, 0.0]])
    theta = np.array([0.0, np.pi])
    for w in (gaussian_window(1.0), analytic_signal_window()):
        for f in (spec, field):
            with pytest.raises(ValidationError, match=r"\|v\| in \[1e-100, 1e\+100\]"):
                wrt_columns(f, w, U, V)
            with pytest.raises(ValidationError, match="rho must be positive lengths"):
                wrt_polar_perp(f, w, np.array([1e-200, 0.5]), theta)
    with pytest.raises(ValidationError, match=r"\|v\| in"):
        VSet("full-grid", V)


def test_wrt_columns_rejects_v_zero():
    # a VSet rejects v = 0, and so does wrt_columns
    with pytest.raises(ValidationError, match=r"\|v\| in"):
        wrt_columns(gaussian_phantom((0.0, 0.0), 0.5), gaussian_window(1.0), [[0.25, 0.0]],
                    [[0.0, 0.0]])
