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
from wrtkit.invert_fourier import PolarSpectralSamples, _r_weights, paper_constant_t2
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


def test_separable_synthesis_matches_direct_polar_sum():
    _, w, data = _small_dataset(nd=12, nr=4)
    sigma = np.linspace(0.0, 3.0, 17)
    samples = extract_polar_spectrum(data, sigma)
    grid = make_grid(2, (20, 24), 12.0, center=(0.3, -0.2))
    got = reconstruct_t2(samples, w, grid, constant_mode="raw").values
    # reference: the same coefficients summed point by point over the grid
    radii = samples.radii
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
    want = (acc * 2.0 * np.pi / samples.angles.size).real.reshape(grid.shape)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
