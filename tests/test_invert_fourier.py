import numpy as np
import pytest
from scipy import ndimage

from wrtkit import (
    Grid,
    HypothesisError,
    ScalarField,
    ValidationError,
    analytic_signal_window,
    analytic_wrt_data,
    continuous_ft,
    extract_polar_spectrum,
    gaussian_phantom,
    gaussian_window,
    make_grid,
    polar_vset,
    reconstruct_t2,
    rel_l2_error,
    sample_phantom,
    uniform_circle,
    window_ft,
)
from wrtkit import invert_fourier
from wrtkit.fields import _exp_i_outer
from wrtkit.forward import WRTData
from wrtkit.invert_fourier import (
    _DIRS,
    PolarSpectralSamples,
    _centred_axes,
    _r_weights,
    paper_constant_t2,
)
from wrtkit.windows import window_constants


def _small_dataset(nd=16, nr=6):
    spec = gaussian_phantom((0.3, -0.2), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 96, 40.0)
    dirs, _ = uniform_circle(nd)
    radii = np.geomspace(0.1, 2.0, nr)
    data = analytic_wrt_data(spec, w, grid, polar_vset(dirs, radii))
    return spec, w, data


def _spline_extraction(data, sigma):
    """Reference: pad-2 DFT of each slice read along the ray by cubic splines."""
    nr = data.vset.radii.size
    u = data.u_grid
    padded_grid = Grid(tuple(2 * N for N in u.shape), u.origin, u.spacing)
    out = np.empty((data.vset.directions.shape[0], sigma.size, nr), dtype=complex)
    for k, theta in enumerate(data.vset.directions):
        for m in range(nr):
            col = k * nr + m
            padded = np.pad(data.slice_values(col), [(0, N) for N in u.shape])
            spec = continuous_ft(ScalarField(padded_grid, padded), warn_boundary=False)
            idx = spec.grid.coord_to_index(np.multiply.outer(sigma, theta)).T
            out[k, :, m] = ndimage.map_coordinates(
                spec.values.real, idx, order=3, mode="nearest"
            ) + 1j * ndimage.map_coordinates(spec.values.imag, idx, order=3, mode="nearest")
    return out


def test_extraction_matches_factorized_spectrum():
    # P_hat(sigma theta, r theta) = fhat(sigma theta) hhat(-r sigma); the
    # exact ray sum is pinned no looser than the spline reading it replaced
    spec, w, data = _small_dataset()
    sigma = np.linspace(0.0, 4.0, 33)
    samples = extract_polar_spectrum(data, sigma)
    hhat = window_ft(w, -np.multiply.outer(sigma, data.vset.radii))
    want = np.stack([
        spec.spectrum(np.multiply.outer(sigma, theta))[:, None] * hhat
        for theta in data.vset.directions
    ])
    scale = np.max(np.abs(want))
    dev = np.max(np.abs(samples.values - want)) / scale
    spline_dev = np.max(np.abs(_spline_extraction(data, sigma) - want)) / scale
    assert dev < 1e-10
    assert dev <= spline_dev


def test_extraction_rejects_out_of_band_sigma():
    _, _, data = _small_dataset(nd=4, nr=2)
    nyq = np.pi / max(data.u_grid.spacing)
    with pytest.raises(ValidationError):
        extract_polar_spectrum(data, np.array([0.0, 2.0 * nyq]))


# an off-centre, non-square grid with an odd axis, a non-uniform sigma and a
# direction count that is not a multiple of the tables' direction block
ODD_GRID = make_grid(2, (9, 12), 6.0, center=(0.3, -0.2))
ODD_SIGMA = np.array([0.0, 0.1, 0.35, 0.5, 1.1, 1.6, 2.0])
ODD_NDIRS = 2 * _DIRS + 3


def _odd_dataset(nr=5):
    dirs, _ = uniform_circle(ODD_NDIRS)
    vset = polar_vset(dirs, np.geomspace(0.1, 2.0, nr))
    values = np.random.default_rng(3).standard_normal((len(dirs) * nr, ODD_GRID.size))
    return WRTData(ODD_GRID, vset, gaussian_window(1.0), values.T)


@pytest.mark.parametrize("radii_per_gemm", [None, 2], ids=["default", "2-radii"])
def test_extraction_matches_a_direct_double_sum(radii_per_gemm, monkeypatch):
    if radii_per_gemm:  # 5 radii in GEMMs of 2, 2 and 1
        monkeypatch.setattr(invert_fourier, "_GEMM_VALUES", radii_per_gemm * 2 * ODD_SIGMA.size * 9)
    data = _odd_dataset()
    got = extract_polar_spectrum(data, ODD_SIGMA).values
    X, nr = ODD_GRID.points(), data.vset.radii.size
    want = np.empty_like(got)
    for k, theta in enumerate(data.vset.directions):
        phase = np.exp(-1j * np.multiply.outer(ODD_SIGMA, X @ theta))  # (Nsigma, M)
        want[k] = ODD_GRID.cell_volume * phase @ data.values[:, k * nr:(k + 1) * nr]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [
    [0.0, np.nan, 1.0],          # not finite
    [[0.0, 0.5], [1.0, 1.5]],    # not 1-D
    [-0.5, 0.5],                 # negative
    [],                          # empty
], ids=["nan", "2-d", "negative", "empty"])
def test_extraction_checks_sigma_before_any_work(sigma, monkeypatch):
    _, _, data = _small_dataset(nd=4, nr=2)

    def no_table(*args):
        raise AssertionError("a phase table was built for a rejected sigma")

    monkeypatch.setattr(invert_fourier, "_exp_i_outer", no_table)
    with pytest.raises(ValidationError, match="sigma"):
        extract_polar_spectrum(data, np.array(sigma, dtype=float))


def test_extraction_rejects_complex_data():
    spec = gaussian_phantom((0.3, -0.2), 0.8)
    grid = make_grid(2, 16, 8.0)
    dirs, _ = uniform_circle(4)
    data = analytic_wrt_data(spec, gaussian_window(1.0), grid, polar_vset(dirs, [0.5]))
    data = WRTData(grid, data.vset, analytic_signal_window(), data.values * (1.0 + 0.5j))
    with pytest.raises(HypothesisError):
        extract_polar_spectrum(data, np.linspace(0.0, 1.0, 5))


def test_centred_axes_are_symmetric_exp_table_lines():
    # the t2 tables run over y = x - c; an odd axis has y = 0 as its middle sample
    (y1, y2), c = _centred_axes(ODD_GRID)
    assert y1[4] == 0.0 and np.array_equal(y1, -y1[::-1]) and np.array_equal(y2, -y2[::-1])
    for y, ci, axis in ((y1, c[0], 0), (y2, c[1], 1)):
        assert np.allclose(y + ci, ODD_GRID.axis_coords(axis), rtol=0.0, atol=1e-15)
    a = np.multiply.outer([1.0, -0.6, 0.3], ODD_SIGMA).ravel()
    for y in (y1, y2):
        E = _exp_i_outer(y, a)
        bound = 8.0 * np.finfo(float).eps * np.max(np.abs(np.outer(y, a)))
        assert np.max(np.abs(E - np.exp(1j * np.outer(y, a)))) <= bound


def test_inner_integral_inverse_sigma_scaling():
    # int_0^inf |hhat(r sigma)|^2 dr = |sigma|^-1 int_0^inf |hhat|^2
    w = gaussian_window(1.0)
    r = np.linspace(0.0, 40.0, 40001)
    want = window_constants(w).c_hat_half
    for sigma in (0.5, 1.0, 2.0, 3.5):
        val = np.trapezoid(np.abs(window_ft(w, r * sigma)) ** 2, r)
        assert abs(val * sigma / want - 1.0) < 1e-3


def test_reconstruct_gaussian():
    spec, w, data = _small_dataset(nd=64, nr=12)
    sigma = np.linspace(0.0, 5.0, 64)
    samples = extract_polar_spectrum(data, sigma)
    out = make_grid(2, 48, 24.0)
    rec = reconstruct_t2(samples, w, out, constant_mode="theory")
    assert rel_l2_error(rec, sample_phantom(spec, out)) < 0.05


def _direct_synthesis(samples, w, grid):
    """reconstruct_t2(..., constant_mode="raw"): the same coefficients summed
    point by point over the grid."""
    sigma, radii = samples.sigma, samples.radii
    hh = window_ft(w, np.multiply.outer(sigma, radii))
    wr = _r_weights(radii)
    coef = np.einsum("ksr,sr,r->ks", samples.values, hh, wr) * sigma / (np.abs(hh) ** 2 @ wr)
    ws = np.gradient(sigma)
    ws[[0, -1]] *= 0.5
    X = grid.points()
    acc = np.zeros(X.shape[0], dtype=complex)
    for k, ang in enumerate(samples.angles):
        phase = X @ np.array([np.cos(ang), np.sin(ang)])
        acc += (coef[k] * ws) @ np.exp(1j * np.multiply.outer(sigma, phase))
    return (acc * 2.0 * np.pi / samples.angles.size).real.reshape(grid.shape)


def test_separable_synthesis_matches_direct_polar_sum():
    _, w, data = _small_dataset(nd=12, nr=4)
    samples = extract_polar_spectrum(data, np.linspace(0.0, 3.0, 17))
    grid = make_grid(2, (20, 24), 12.0, center=(0.3, -0.2))
    got = reconstruct_t2(samples, w, grid, constant_mode="raw").values
    want = _direct_synthesis(samples, w, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_synthesis_matches_a_direct_sum_on_an_odd_grid():
    w = gaussian_window(1.0)
    rng = np.random.default_rng(4)
    shape = (ODD_NDIRS, ODD_SIGMA.size, 5)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    angles = np.arctan2(*uniform_circle(ODD_NDIRS)[0].T[::-1])
    samples = PolarSpectralSamples(angles, ODD_SIGMA, np.geomspace(0.1, 2.0, 5), values)
    got = reconstruct_t2(samples, w, ODD_GRID, constant_mode="raw").values
    want = _direct_synthesis(samples, w, ODD_GRID)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_complex_window_rejected():
    _, w, data = _small_dataset(nd=4, nr=2)
    samples = extract_polar_spectrum(data, np.linspace(0.0, 2.0, 9))
    with pytest.raises(HypothesisError):
        reconstruct_t2(samples, analytic_signal_window(), make_grid(2, 16, 8.0))


def test_sample_container_validation():
    with pytest.raises(ValidationError):
        PolarSpectralSamples(
            np.array([0.0]), np.array([0.0, 1.0]), np.array([-0.5]),
            np.zeros((1, 2, 1), dtype=complex),
        )
    with pytest.raises(ValidationError):
        PolarSpectralSamples(
            np.array([0.0]), np.array([-1.0, 1.0]), np.array([0.5]),
            np.zeros((1, 2, 1), dtype=complex),
        )
    with pytest.raises(ValidationError):
        PolarSpectralSamples(
            np.array([0.0]), np.array([0.0, np.inf]), np.array([0.5]),
            np.zeros((1, 2, 1), dtype=complex),
        )


def test_paper_constant_value():
    w = gaussian_window(1.0)
    want = 2.0 ** (-3) * np.pi ** (-2) / window_constants(w).c_h2
    assert paper_constant_t2(w, 2) == pytest.approx(want, rel=1e-12)


def test_constant_mode_validation():
    _, w, data = _small_dataset(nd=4, nr=2)
    samples = extract_polar_spectrum(data, np.linspace(0.0, 2.0, 9))
    grid = make_grid(2, 16, 8.0)
    with pytest.raises(ValidationError):
        reconstruct_t2(samples, w, grid, constant_mode="bogus")
    with pytest.raises(ValidationError):
        reconstruct_t2(samples, w, grid, constant_mode="calibrated")
