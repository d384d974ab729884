import numpy as np
import pytest

from wrtkit import (
    BPParams,
    HypothesisError,
    ValidationError,
    WRTData,
    analytic_signal_window,
    analytic_wrt_data,
    bump_window,
    gaussian_phantom,
    gaussian_window,
    hermite1_window,
    make_grid,
    paper_constant_t1,
    polar_vset,
    reconstruct_t1,
    rel_l2_error,
    sample_phantom,
    t1_frequency_check,
    theory_constant_t1,
    uniform_circle,
    v1_line_vset,
    windowed_ray_transform,
    wrt_columns,
)
from wrtkit.invert_bp import _antipodal_groups
from wrtkit.quad import QuadratureParams
from wrtkit.windows import window_ft


def test_constant_ratio_is_sqrt_pi():
    w = gaussian_window(1.0)
    assert theory_constant_t1(w, 2) / paper_constant_t1(w, 2) == pytest.approx(
        np.sqrt(np.pi), rel=1e-12
    )


def test_frequency_check_invariance():
    # the aggregated filter response must not depend on |xi| or direction
    w = gaussian_window(1.0)
    xi = np.array([[0.5, 0.0], [0.0, 3.0], [1.7, -2.2], [4.0, 4.0]])
    dev, c, vals = t1_frequency_check(w, xi, n_theta=256)
    assert dev < 1e-3
    assert c == pytest.approx(2.0 * np.pi**2, rel=1e-3)
    assert vals.shape == (4,)


def test_reconstruct_gaussian_theory_constant():
    spec = gaussian_phantom((0.4, -0.2), 0.7)
    w = gaussian_window(1.0)
    data_grid = make_grid(2, 96, 60.0)
    dirs, _ = uniform_circle(24)
    radii = np.geomspace(0.03, 18.0, 30)
    data = analytic_wrt_data(spec, w, data_grid, polar_vset(dirs, radii))
    out = make_grid(2, 48, 30.0)
    rec = reconstruct_t1(
        data, w, out,
        BPParams(r_min=radii[0], r_max=radii[-1], n_theta=24, constant_mode="theory"),
    )
    assert rel_l2_error(rec, sample_phantom(spec, out)) < 0.08


def _hermite1_wrt(f, sigma_w, u, v):
    """Closed-form P_h f of gaussian phantom(s) for h(t) = t e^{-t^2 / 2 sigma_w^2}:
    int t e^{-alpha t^2 - beta t} dt = -beta / (2 alpha) sqrt(pi / alpha) e^{beta^2 / 4 alpha}."""
    out = 0.0
    v2 = np.sum(v * v, axis=-1)
    for c in f.components:
        s = c["sigma"]
        du = u - np.asarray(c["center"])
        alpha = v2 / (2.0 * s**2) + 1.0 / (2.0 * sigma_w**2)
        beta = np.sum(du * v, axis=-1) / s**2
        out = out + c["amplitude"] * np.sqrt(np.pi / alpha) * (-beta / (2.0 * alpha)) * np.exp(
            -0.5 * np.sum(du * du, axis=-1) / s**2 + beta**2 / (4.0 * alpha))
    return out


def test_reconstruct_odd_window_has_positive_scale():
    # hhat of hermite1 is odd and imaginary: the filter needs conj(hhat(-xi.v))
    # to sum |hhat|^2 (hhat(-xi.v)^2 = -|hhat|^2 returned -0.78 f)
    spec = gaussian_phantom((0.4, -0.2), 0.7)
    w = hermite1_window(1.0)
    grid = make_grid(2, 48, 24.0)
    vset = polar_vset(uniform_circle(24)[0], np.geomspace(0.05, 4.0, 20))
    U = grid.points()[::97]
    assert np.max(np.abs(wrt_columns(spec, w, U, vset.vectors[::7])
                         - _hermite1_wrt(spec, w.sigma, U[:, None], vset.vectors[::7]))) < 1e-12
    data = WRTData(grid, vset, w, _hermite1_wrt(spec, w.sigma, grid.points()[:, None], vset.vectors))
    out = make_grid(2, 32, 16.0)
    rec = reconstruct_t1(data, w, out, BPParams(r_min=0.05, r_max=4.0)).values
    ref = sample_phantom(spec, out).values
    scale = np.sum(rec * ref) / np.sum(ref * ref)
    assert 0.7 < scale < 1.1


def _per_slice_backprojection(data, w, pad):
    """Reference: filter each slice with a padded complex FFT pair, then sum."""
    u_grid, vset = data.u_grid, data.vset
    shape = tuple(int(N * pad) for N in u_grid.shape)
    freqs = [2.0 * np.pi * np.fft.fftfreq(N, d) for N, d in zip(shape, u_grid.spacing)]
    mesh = np.meshgrid(*freqs, indexing="ij", sparse=True)
    logr = np.log(vset.radii)
    wr = np.gradient(logr)
    wr[[0, -1]] *= 0.5
    wtheta = 2.0 * np.pi / vset.directions.shape[0]
    acc = np.zeros(u_grid.shape)
    for col, v in enumerate(vset.vectors):
        xi_dot_v = sum(m * vi for m, vi in zip(mesh, v))
        F = np.fft.fftn(data.slice_values(col), s=shape, axes=(0, 1))
        Q = np.fft.ifftn(F * np.abs(xi_dot_v) * np.conj(window_ft(w, -xi_dot_v)))
        acc += wtheta * wr[col % logr.size] * Q[:u_grid.shape[0], :u_grid.shape[1]].real
    return acc


@pytest.mark.parametrize("shape, pad, tol", [((31, 33), 1, 1e-12), ((32, 32), 2, 1e-5)])
def test_summed_spectrum_matches_per_slice_filter(shape, pad, tol):
    # One inverse real FFT of the summed filtered spectra equals the sum of
    # per-slice complex filters exactly when no axis has a Nyquist bin; with
    # even FFT sizes the sign convention of that bin differs.
    spec = gaussian_phantom((0.4, -0.2), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, shape, 16.0)
    radii = np.geomspace(0.1, 6.0, 5)
    data = analytic_wrt_data(spec, w, grid, polar_vset(uniform_circle(6)[0], radii))
    got = reconstruct_t1(
        data, w, grid,
        BPParams(r_min=radii[0], r_max=radii[-1], n_theta=6, constant_mode="raw", pad=pad),
    ).values
    want = _per_slice_backprojection(data, w, pad)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def _turned(dirs, k, angle):
    c, s = np.cos(angle), np.sin(angle)
    out = dirs.copy()
    out[k] = [c * dirs[k, 0] - s * dirs[k, 1], s * dirs[k, 0] + c * dirs[k, 1]]
    return out


# every direction has its antipode, none has, and all but directions 0 and 4
# (direction 0 turned by 1e-6, so the pair is not formed)
_DIRECTION_SETS = {"paired": uniform_circle(8)[0], "unpaired": uniform_circle(7)[0],
                   "mixed": _turned(uniform_circle(8)[0], 0, 1e-6)}


def test_antipodal_directions_pair_in_index_order():
    paired, unpaired, mixed = _DIRECTION_SETS.values()
    assert _antipodal_groups(paired, "even") == [(0, 4), (1, 5), (2, 6), (3, 7)]
    assert _antipodal_groups(paired, "odd") == [(0, 4), (1, 5), (2, 6), (3, 7)]
    assert _antipodal_groups(unpaired, "even") == [(k,) for k in range(7)]
    assert _antipodal_groups(mixed, "odd") == [(0,), (1, 5), (2, 6), (3, 7), (4,)]
    assert _antipodal_groups(paired, "none") == [(k,) for k in range(8)]
    # each direction joins at most one pair, the first free one in index order
    twice = np.concatenate([paired[:1], -paired[:1], -paired[:1]])
    assert _antipodal_groups(twice, "even") == [(0, 1), (2,)]


def _t1_worker_case(w=gaussian_window(1.0), n=64, dirs=uniform_circle(7)[0]):
    # 6 radii: with two workers the second share starts inside a direction
    # group for 7 (42 items) and for the mixed set (30); hermite1 gets its
    # own closed form, the others the gaussian one.  Seeded noise of 1e-3 of
    # max makes P(., v) differ from P(., -v), so a fold does not lean on
    # symmetric data
    spec = gaussian_phantom((0.4, -0.2), 0.8)
    grid = make_grid(2, n, 24.0)
    radii = np.geomspace(0.1, 4.0, 6)
    vset = polar_vset(dirs, radii)
    if w.kind == "hermite1":
        values = _hermite1_wrt(spec, w.sigma, grid.points()[:, None], vset.vectors)
    else:
        values = analytic_wrt_data(spec, gaussian_window(1.0), grid, vset).values
    values = values + 1e-3 * np.max(np.abs(values)) * np.random.default_rng(5).standard_normal(values.shape)
    data = WRTData(grid, vset, w, values)
    return data, w, BPParams(r_min=radii[0], r_max=radii[-1], constant_mode="theory")


def _serial_t1(data, w, pad=2):
    """Reference: one filtered real spectrum per slice, summed slice by slice
    in v order (no antipodal fold), then one inverse real FFT (theory
    constant, output on the data grid)."""
    u_grid, vset = data.u_grid, data.vset
    shape = tuple(int(N * pad) for N in u_grid.shape)
    mesh = np.meshgrid(2.0 * np.pi * np.fft.fftfreq(shape[0], u_grid.spacing[0]),
                       2.0 * np.pi * np.fft.rfftfreq(shape[1], u_grid.spacing[1]),
                       indexing="ij", sparse=True)
    logr = np.log(vset.radii)
    wr = np.gradient(logr)
    wr[[0, -1]] *= 0.5
    wtheta = 2.0 * np.pi / vset.directions.shape[0]
    acc = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    for col, v in enumerate(vset.vectors):
        xi_dot_v = mesh[0] * v[0] + mesh[1] * v[1]
        F = np.fft.rfft2(data.slice_values(col), s=shape)
        acc += wtheta * wr[col % logr.size] * F * np.abs(xi_dot_v) * np.conj(window_ft(w, -xi_dot_v))
    Q = np.fft.irfft2(acc, s=shape)[:u_grid.shape[0], :u_grid.shape[1]]
    return theory_constant_t1(w, 2) * Q


def test_t1_repeats_at_two_workers_and_matches_one_worker(monkeypatch):
    for name, dirs in _DIRECTION_SETS.items():
        data, w, params = _t1_worker_case(dirs=dirs)
        monkeypatch.setenv("WRTKIT_THREADS", "2")
        two = reconstruct_t1(data, w, data.u_grid, params).values
        assert np.array_equal(reconstruct_t1(data, w, data.u_grid, params).values, two), name
        monkeypatch.setenv("WRTKIT_THREADS", "1")
        one = reconstruct_t1(data, w, data.u_grid, params).values
        assert np.linalg.norm(two - one) <= 1e-13 * np.linalg.norm(one), name


@pytest.mark.parametrize("window, n", [
    (gaussian_window(1.0), 64), (bump_window(1.5), 16), (hermite1_window(1.0), 64)],
    ids=["gaussian", "bump", "hermite1"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_t1_matches_a_serial_per_slice_loop(monkeypatch, threads, window, n):
    # the even windows take the real multiplier and fold P(v) + P(-v),
    # hermite1 the complex one and P(v) - P(-v); the bump's hhat is a
    # 1,024-node sum per point, so its grid is smaller
    monkeypatch.setenv("WRTKIT_THREADS", threads)
    for name, dirs in _DIRECTION_SETS.items():
        data, w, params = _t1_worker_case(window, n, dirs)
        got = reconstruct_t1(data, w, data.u_grid, params).values
        want = _serial_t1(data, w)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name


def test_radius_subrange_is_respected():
    spec = gaussian_phantom((0.0, 0.0), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 32, 16.0)
    radii = np.geomspace(0.1, 4.0, 8)
    data = analytic_wrt_data(spec, w, grid, polar_vset(uniform_circle(8)[0], radii))
    with pytest.raises(ValidationError):
        reconstruct_t1(data, w, grid, BPParams(r_min=10.0, r_max=20.0, n_theta=8))


def test_complex_window_rejected():
    spec = gaussian_phantom((0.0, 0.0), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 16, 8.0)
    data = analytic_wrt_data(spec, w, grid, polar_vset(uniform_circle(4)[0], [0.5, 1.0]))
    with pytest.raises(HypothesisError):
        reconstruct_t1(data, analytic_signal_window(), grid, BPParams(n_theta=4))


def test_wrong_vset_mode_rejected():
    spec = gaussian_phantom((0.0, 0.0), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 16, 8.0)
    data = windowed_ray_transform(
        spec, w, grid, v1_line_vset(np.array([-0.5, 0.5]), [0.0]),
        QuadratureParams(panels=4),
    )
    with pytest.raises(ValidationError):
        reconstruct_t1(data, w, grid, BPParams(n_theta=4))


def test_bpparams_validation():
    with pytest.raises(ValidationError):
        BPParams(r_min=2.0, r_max=1.0)
    with pytest.raises(ValidationError):
        BPParams(constant_mode="calibrated")
    with pytest.raises(ValidationError):
        BPParams(constant_mode="bogus")
