import numpy as np
import pytest
from scipy import integrate, stats

from wrtkit import (
    ValidationError,
    continuous_ft,
    continuous_ift,
    gaussian_mixture_phantom,
    gaussian_phantom,
    make_grid,
    rel_l2_error,
    sample_phantom,
    smoothed_disk_phantom,
)
from wrtkit.errors import ZeroReferenceError
from wrtkit.fields import Grid, PhantomSpec, ScalarField, _disk_clip_radius, _DiskProfile


def test_grid_roundtrip():
    g = make_grid(2, (32, 48), (10.0, 12.0), center=(1.0, -0.5))
    idx = np.array([[0.0, 0.0], [3.25, 17.5], [31.0, 47.0]])
    coords = g.index_to_coord(idx)
    back = g.coord_to_index(coords)
    assert np.allclose(back, idx, atol=1e-12)


def test_grid_axis_coords_cover_extent():
    g = make_grid(2, 64, 20.0)
    x = g.axis_coords(0)
    assert x.size == 64
    assert np.allclose(np.diff(x), x[1] - x[0])
    assert x[0] == pytest.approx(-10.0)


def test_frequency_grid_nyquist():
    g = make_grid(1, 64, 16.0)
    fg = g.frequency_grid()
    dx = g.spacing[0]
    assert fg.axis_coords(0).min() == pytest.approx(-np.pi / dx)


def test_complex_field_keeps_its_imaginary_part():
    grid = make_grid(2, 48, 16.0)
    re = sample_phantom(gaussian_phantom((0.3, -0.2), 1.0), grid).values
    im = sample_phantom(gaussian_phantom((-0.5, 0.4), 0.8, amplitude=-0.6), grid).values
    z = ScalarField(grid, re + 1j * im)
    assert z.values.dtype == np.complex128 and np.array_equal(z.values.imag, im)
    want = (continuous_ft(ScalarField(grid, re)).values
            + 1j * continuous_ft(ScalarField(grid, im)).values)
    assert np.allclose(continuous_ft(z).values, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))
    # any other input becomes float64, and non-finite samples are rejected
    assert ScalarField(grid, np.ones(grid.shape, dtype=np.int32)).values.dtype == np.float64
    assert ScalarField(grid, np.ones(grid.shape, dtype=np.complex64)).values.dtype == np.complex128
    with pytest.raises(ValidationError):
        ScalarField(grid, np.full(grid.shape, complex(1.0, np.inf)))


def test_complex_field_rejects_a_non_finite_imaginary_part_alone():
    grid = make_grid(2, (6, 8), 4.0)
    for bad in (complex(0.5, np.nan), complex(0.5, np.inf), complex(0.5, -np.inf)):
        z = np.ones(grid.shape, dtype=complex)
        z[2, 3] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            ScalarField(grid, z)
        # a transposed view has no contiguous last axis and takes the complex check
        zt = np.ones(grid.shape[::-1], dtype=complex).T
        zt[4, 1] = bad
        assert not zt.flags.c_contiguous
        with pytest.raises(ValidationError, match="non-finite"):
            ScalarField(grid, zt)


def test_gaussian_phantom_pointwise():
    spec = gaussian_phantom((0.5, -1.0), 0.8, amplitude=2.0)
    pts = np.array([[0.5, -1.0], [1.3, -1.0], [0.5, 0.6]])
    want = 2.0 * np.exp(-0.5 * np.array([0.0, 0.8**2, 1.6**2]) / 0.8**2)
    assert np.allclose(spec.evaluate(pts), want, rtol=1e-14)


def test_evaluate_along_rays_matches_pointwise():
    u = np.array([[0.0, 1.0], [2.0, -1.0]])
    v = np.array([[1.0, 0.0], [0.3, 0.7]])
    t = np.linspace(-2.0, 2.0, 9)
    for spec in (gaussian_mixture_phantom([((0.0, 0.0), 1.0, 1.0), ((1.0, 0.5), 0.5, -0.3)]),
                 smoothed_disk_phantom((0.2, -0.1), 1.2, 0.3, 0.8)):
        # per axis, both sum the same squares (u_i + t v_i - c_i)^2 in the same order
        got = spec.evaluate_along_rays(u, v, t)
        for i in range(2):
            pts = u[i][None, :] + t[:, None] * v[i][None, :]
            assert np.array_equal(got[i], spec.evaluate(pts))


@pytest.mark.parametrize("radius, smoothing, amplitude", [
    (1.5, 0.3, 1.0), (1.0, 0.05, -0.7), (0.2, 1.0, 2.5)])
def test_smoothed_disk_table_matches_the_ncx2_cdf(radius, smoothing, amplitude):
    c = smoothed_disk_phantom((0.0, 0.0), radius, smoothing, amplitude).components[0]
    profile = _DiskProfile(c)
    end = _disk_clip_radius(c)
    r = np.concatenate([np.linspace(0.0, end, 50_001), [0.0, radius, profile.start, end]])
    want = amplitude * stats.ncx2.cdf((radius / smoothing) ** 2, 2, (r / smoothing) ** 2)
    assert np.max(np.abs(profile(r * r) - want)) <= 1e-13 * abs(amplitude)
    beyond = end * np.array([1.0 + 1e-12, 1.01, 2.0, 1e3])
    assert np.all(profile(beyond**2) == 0.0)


def test_smoothed_disk_on_rays_through_its_centre():
    disk = smoothed_disk_phantom((0.3, 0.1), 1.5, 0.3)
    rng = np.random.default_rng(0)
    v = 3.0 * rng.normal(size=(500, 2))
    t = rng.uniform(-2.0, 2.0, 500)
    got = np.diag(disk.evaluate_along_rays(np.array([0.3, 0.1]) - t[:, None] * v, v, t))
    assert np.allclose(got, disk.evaluate(np.array([0.3, 0.1])), rtol=1e-12)


def test_far_points_read_zero():
    # r^2 overflows to inf far from every centre, which each profile reads as
    # 0, with no overflow warning
    far = np.array([[1e300, 0.0], [-1e308, 1e308], [np.inf, 0.0]])
    for spec in (gaussian_phantom((0.5, -1.0), 0.8), smoothed_disk_phantom((0.2, -0.1), 1.2, 0.3)):
        assert np.array_equal(spec.evaluate(far), np.zeros(3))
        field = sample_phantom(spec, make_grid(2, 4, 1.0, center=1e300))
        assert np.array_equal(field.values, np.zeros((4, 4)))


def test_smoothed_disk_profile():
    spec = smoothed_disk_phantom((0.0, 0.0), 1.0, 0.05)
    # deep inside ~ amplitude, far outside ~ 0, and agrees with the direct
    # 2-D convolution integral at an edge point
    assert spec.evaluate(np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-8)
    assert spec.evaluate(np.array([[3.0, 0.0]]))[0] == pytest.approx(0.0, abs=1e-10)
    x0 = 0.97

    def integrand(r, phi):
        d2 = x0**2 + r**2 - 2.0 * x0 * r * np.cos(phi)
        return r * np.exp(-0.5 * d2 / 0.05**2) / (2.0 * np.pi * 0.05**2)

    want, _ = integrate.dblquad(integrand, 0.0, 2.0 * np.pi, 0.0, 1.0, epsabs=1e-10)
    got = spec.evaluate(np.array([[x0, 0.0]]))[0]
    assert got == pytest.approx(want, rel=1e-6)


def test_phantom_spec_spectrum_vs_dft():
    spec = gaussian_mixture_phantom([((0.3, -0.2), 0.8, 1.0), ((-1.0, 0.4), 0.6, 0.5)])
    grid = make_grid(2, 128, 24.0)
    # zero-pad to twice the size on the tail side for a finer frequency grid
    padded = np.pad(sample_phantom(spec, grid).values, ((0, 128), (0, 128)))
    F = continuous_ft(ScalarField(Grid((256, 256), grid.origin, grid.spacing), padded))
    # compare on a low-frequency box where the DFT is well resolved
    xi = F.grid.points()
    keep = np.max(np.abs(xi), axis=1) < 4.0
    want = spec.spectrum(xi[keep])
    got = F.values.ravel()[keep]
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_smoothed_disk_spectrum_vs_dft():
    # the disk's closed-form spectrum against the DFT of its samples (2e-14 measured)
    disk = smoothed_disk_phantom((0.3, -0.2), 1.5, 0.3)
    F = continuous_ft(sample_phantom(disk, make_grid(2, 128, 16.0)))
    xi = F.grid.points()
    keep = np.linalg.norm(xi, axis=1) <= 3.0
    want = disk.spectrum(xi[keep])
    assert np.max(np.abs(F.values.ravel()[keep] - want)) < 1e-12 * np.max(np.abs(want))


def test_ft_roundtrip_and_translation_phase():
    grid = make_grid(2, 64, 20.0)
    f = sample_phantom(gaussian_phantom((0.4, -0.3), 1.0), grid)
    F = continuous_ft(f)
    back = continuous_ift(F, out_grid=grid)
    assert rel_l2_error(back, f) < 1e-10
    # translation by d multiplies the spectrum by e^{-i xi.d}
    d = np.array([0.7, -0.4])
    g = sample_phantom(gaussian_phantom((0.4 + d[0], -0.3 + d[1]), 1.0), grid)
    G = continuous_ft(g)
    xi = F.grid.points()
    pred = F.values.ravel() * np.exp(-1j * xi @ d)
    keep = np.max(np.abs(xi), axis=1) < 3.0
    assert np.max(np.abs(G.values.ravel()[keep] - pred[keep])) < 1e-7 * np.max(
        np.abs(F.values)
    )


def test_parseval():
    grid = make_grid(2, 64, 20.0)
    f = sample_phantom(gaussian_phantom((0.0, 0.0), 1.0), grid)
    F = continuous_ft(f)
    lhs = np.sum(np.abs(f.values) ** 2) * grid.cell_volume
    rhs = np.sum(np.abs(F.values) ** 2) * F.grid.cell_volume / (2.0 * np.pi) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_rel_l2_error_basics():
    grid = make_grid(2, 8, 4.0)
    a = ScalarField(grid, np.ones(grid.shape))
    b = ScalarField(grid, 1.1 * np.ones(grid.shape))
    assert rel_l2_error(b, a) == pytest.approx(0.1, rel=1e-12)
    zero = ScalarField(grid, np.zeros(grid.shape))
    with pytest.raises(ZeroReferenceError):
        rel_l2_error(a, zero)


def test_make_grid_validation():
    with pytest.raises(ValidationError):
        make_grid(2, 0, 10.0)
    with pytest.raises(ValidationError):
        make_grid(2, 16, -1.0)
    for extent, center in ((np.nan, 0.0), (np.inf, 0.0), (10.0, np.nan), (10.0, -np.inf)):
        with pytest.raises(ValidationError):
            make_grid(2, 16, extent, center)


@pytest.mark.parametrize("shape, extent", [(9, 20.0), (8, 20.0), ((9, 16), (20.0, 12.0)),
                                           ((64, 7), 10.0), (3, 1.0)])
def test_grid_nyquist_is_the_band_every_axis_reaches(shape, extent):
    g = make_grid(2, shape, extent)
    fg = g.frequency_grid()
    assert g.nyquist == min(np.max(np.abs(fg.axis_coords(ax))) for ax in range(2))
    for N, d in zip(g.shape, g.spacing):
        if N % 2 == 0:  # the band of an even axis is pi / d, to one ulp
            assert abs((N // 2) * (2.0 * np.pi / (N * d)) - np.pi / d) <= np.spacing(np.pi / d)
        else:  # an odd axis stops (N - 1) / N short of it
            assert (N // 2) * (2.0 * np.pi / (N * d)) < np.pi / d


@pytest.mark.parametrize("kind, components", [
    ("gaussian", ()),
    ("gaussian", ({"center": (0.0, 0.0)},)),
    ("gaussian", ({"center": (0.0, 0.0), "sigma": "x"},)),
    ("gaussian", ({"center": (0.0, "a"), "sigma": 1.0},)),
    ("gaussian", ({"center": (0.0, 0.0), "sigma": 1.0, "amplitude": "x"},)),
    ("gaussian", ({"center": (np.inf, 0.0), "sigma": 1.0},)),
    ("gaussian", ({"center": (0.0, 0.0), "sigma": np.nan},)),
    ("gaussian", ({"center": (0.0, 0.0), "sigma": -1.0},)),
    ("gaussian", ({"center": (), "sigma": 1.0},)),
    ("gaussian", ({"center": 0.0, "sigma": 1.0},)),
    ("gaussian", ("center",)),
    ("gaussian-mixture", ({"center": (0.0, 0.0), "sigma": 1.0},
                          {"center": (0.0, 0.0, 0.0), "sigma": 1.0})),
    ("smoothed-disk", ({"center": (0.0, 0.0), "radius": 1.0, "smoothing": 0.0},)),
    ("smoothed-disk", ({"center": (0.0, 0.0), "radius": 1.0},)),
    ("disk", ({"center": (0.0, 0.0), "sigma": 1.0},)),
])
def test_phantom_spec_validates_components(kind, components):
    with pytest.raises(ValidationError):
        PhantomSpec(kind, components)


def test_phantom_spec_stores_floats_with_unit_amplitude():
    spec = PhantomSpec("gaussian", ({"center": [1, 2], "sigma": 1},))
    assert spec.components == ({"center": (1.0, 2.0), "sigma": 1.0, "amplitude": 1.0},)
    assert spec == gaussian_phantom((1, 2), 1)
