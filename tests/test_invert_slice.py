import dataclasses
import tracemalloc

import numpy as np
import pytest

from wrtkit import (
    Grid,
    HypothesisError,
    NumericalError,
    ValidationError,
    analytic_signal_window,
    gaussian_phantom,
    gaussian_window,
    hermite1_window,
    make_grid,
    rel_l2_error,
    sample_phantom,
    v1_line_vset,
    windowed_ray_transform,
)
from wrtkit.invert_slice import (
    SliceParams,
    SliceSpectrum,
    apodization_weights,
    make_restricted_dataset,
    make_slice_dataset,
    reconstruct_slice,
    restricted_extract,
    slice_extract,
    symmetric_offset_grid,
)
from wrtkit.forward import WRTData
from wrtkit.quad import QuadratureParams

CENTER = (0.3, -0.2)
SIG = 0.8


def _fhat1(sigma, x2):
    """1-D FT (in x1) of the module-level gaussian phantom."""
    c1, c2 = CENTER
    amp = SIG * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * (SIG * sigma) ** 2)
    return np.multiply.outer(
        amp * np.exp(-1j * sigma * c1), np.exp(-0.5 * (x2 - c2) ** 2 / SIG**2)
    )


def _dataset(V, dv=0.5, n2=16):
    spec = gaussian_phantom(CENTER, SIG)
    w = gaussian_window(2.0)
    u1 = np.arange(-200, 200) * 0.5
    u2 = make_grid(1, n2, 10.0).axis_coords(0)
    v1 = symmetric_offset_grid(V, dv)
    with pytest.warns(UserWarning, match="caps it at 4"):  # the unrefined rule, coarse on purpose
        return make_slice_dataset(spec, w, u1, u2, v1, quad=QuadratureParams(panels=4, max_panels=None))


def test_symmetric_offset_grid():
    v1 = symmetric_offset_grid(4.0, 0.5)
    assert v1.size == 16
    assert np.allclose(v1 + v1[::-1], 0.0)
    assert 0.0 not in v1
    assert np.allclose(np.diff(v1), 0.5)


def test_apodization_weights():
    v1 = symmetric_offset_grid(2.0, 0.25)
    assert np.allclose(apodization_weights("none", v1, 2.0), 1.0)
    hann = apodization_weights("hann", v1, 2.0)
    assert hann.max() <= 1.0 and hann[0] < 0.02
    kais = apodization_weights("kaiser:6", v1, 2.0)
    assert kais[np.argmin(np.abs(v1))] == pytest.approx(1.0, abs=0.02)
    with pytest.raises(ValidationError):
        apodization_weights("kaiser:x", v1, 2.0)
    with pytest.raises(ValidationError):
        apodization_weights("boxcar", v1, 2.0)


@pytest.mark.parametrize("beta", [0.0, 0.5, 6.0, 8.0, 50.0, 700.0])
def test_kaiser_weights_match_scipy_i0(beta):
    # the weights take numpy's i0, so the route imports no scipy; it stays
    # within 1e-15 relative of scipy.special.i0's Cephes values
    from scipy import special

    v1 = np.linspace(-2.0, 2.0, 2001)
    x = np.clip(1.0 - (v1 / 2.0) ** 2, 0.0, None)
    want = special.i0(beta * np.sqrt(x)) / special.i0(beta)
    got = apodization_weights(f"kaiser:{beta}", v1, 2.0)
    assert np.max(np.abs(got - want) / want) <= 1e-15


@pytest.mark.parametrize("beta", ["800", "713.5", "nan", "inf", "-inf", "-1"])
def test_kaiser_beta_outside_0_700_rejected(beta):
    # i0(beta) overflows above about 713, and inf / inf left NaN weights
    with pytest.raises(ValidationError, match=r"\[0, 700\]"):
        SliceParams(apodization=f"kaiser:{beta}")
    with pytest.raises(ValidationError, match=r"\[0, 700\]"):
        apodization_weights(f"kaiser:{beta}", symmetric_offset_grid(2.0, 0.25), 2.0)


def test_params_validation():
    u1 = 0.25 * np.arange(-8, 8)
    v1 = symmetric_offset_grid(2.0, 0.5)
    with pytest.raises(ValidationError, match="a != 0"):
        restricted_extract(u1, v1, np.array([-1.0, 1.0]), np.ones((u1.size, v1.size, 2)),
                           gaussian_window(2.0), SliceParams(a=0.0))


def test_complex_window_rejected():
    from wrtkit import analytic_signal_window

    ds = dataclasses.replace(_dataset(V=2.0, n2=4), window=analytic_signal_window())
    with pytest.raises(HypothesisError, match="real window"):
        slice_extract(ds, SliceParams(a=0.0))
    # complex data (a complex window's) under a real window's label
    ds = _dataset(V=2.0, n2=4)
    ds = dataclasses.replace(ds, values=ds.values * (1.0 + 1j))
    with pytest.raises(HypothesisError, match="real data"):
        slice_extract(ds, SliceParams(a=0.0))


def test_window_vanishing_at_a_rejected():
    ds = dataclasses.replace(_dataset(V=2.0, n2=4), window=hermite1_window(1.0))
    with pytest.raises(HypothesisError, match="vanishes"):
        slice_extract(ds, SliceParams(a=0.0))


def test_extraction_matches_fhat1_midband():
    ds = _dataset(V=8.0)
    spec = slice_extract(ds, SliceParams(a=0.0))
    band = (np.abs(spec.sigma) > 0.4) & (np.abs(spec.sigma) < 2.0)
    want = _fhat1(spec.sigma[band], spec.zeta)
    got = spec.values[band]
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err < 0.05


def test_residual_decreases_with_V():
    errs = []
    for V in (2.0, 8.0):
        ds = _dataset(V=V, n2=8)
        spec = slice_extract(ds, SliceParams(a=0.0))
        band = (np.abs(spec.sigma) > 0.4) & (np.abs(spec.sigma) < 2.0)
        want = _fhat1(spec.sigma[band], spec.zeta)
        errs.append(np.linalg.norm(spec.values[band] - want) / np.linalg.norm(want))
    assert errs[1] < 0.5 * errs[0]


def test_reconstruct_from_exact_spectrum():
    # feed the closed-form fhat1 directly: isolates the synthesis step
    sigma = np.linspace(-6.0, 6.0, 241)
    zeta = np.linspace(-5.0, 5.0, 81)
    spec = SliceSpectrum(sigma, zeta, _fhat1(sigma, zeta))
    out = make_grid(2, 32, 8.0)
    rec = reconstruct_slice(spec, out)
    ref = sample_phantom(gaussian_phantom(CENTER, SIG), out)
    assert rel_l2_error(rec, ref) < 1e-4


def test_reconstruct_requires_zeta_coverage():
    sigma = np.linspace(-4.0, 4.0, 65)
    zeta = np.linspace(-1.0, 1.0, 9)
    spec = SliceSpectrum(sigma, zeta, _fhat1(sigma, zeta))
    with pytest.raises(ValidationError):
        reconstruct_slice(spec, make_grid(2, 16, 8.0))


def test_restricted_mode():
    spec_f = gaussian_phantom(CENTER, SIG)
    w = gaussian_window(2.0)
    u1 = np.arange(-160, 160) * 0.5
    v1 = symmetric_offset_grid(16.0, 0.5)
    vprimes = np.linspace(-4.0, 4.0, 9)
    a = 0.5
    with pytest.warns(UserWarning, match="caps it at 32"):
        u1r, v1r, vpr, vals = make_restricted_dataset(
            spec_f, w, u1, v1, vprimes, quad=QuadratureParams(panels=32, max_panels=None)
        )
    out = restricted_extract(u1r, v1r, vpr, vals, w, SliceParams(a=a))
    assert np.allclose(out.zeta, a * vprimes)
    band = (np.abs(out.sigma) > 0.4) & (np.abs(out.sigma) < 2.0)
    # finite-V smearing grows with |v'|; score the well-resolved inner columns
    inner = np.abs(out.zeta) <= 1.0 + 1e-9
    want = _fhat1(out.sigma[band], out.zeta[inner])
    got = out.values[np.ix_(band, inner)]
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err < 0.1


def test_restricted_mode_reconstructs_the_same_field_for_negative_a():
    # zeta = a v' decreases for a < 0; the reconstruction must not depend on that order
    spec_f = gaussian_phantom(CENTER, SIG)
    w = gaussian_window(2.0)
    u1r, v1r, vpr, vals = make_restricted_dataset(
        spec_f, w, np.arange(-64, 64) * 0.5, symmetric_offset_grid(8.0, 0.5),
        np.linspace(-4.0, 4.0, 9), quad=QuadratureParams(panels=8))
    out = make_grid(2, 16, 4.0)
    ref = sample_phantom(spec_f, out)
    rec = {a: reconstruct_slice(restricted_extract(u1r, v1r, vpr, vals, w, SliceParams(a=a)), out)
           for a in (0.5, -0.5)}
    assert rel_l2_error(rec[-0.5], rec[0.5]) <= 0.01
    assert rel_l2_error(rec[-0.5], ref) <= 1.01 * rel_l2_error(rec[0.5], ref)


def test_extraction_rejects_a_drifting_v1_step():
    # steps of 5e-7 drifting by 1 %, symmetric about 0: within allclose's default atol of 1e-8
    half = 2.5e-7 + np.concatenate([[0.0], np.cumsum(5e-7 * (1.0 + 0.01 * np.linspace(0, 1, 7)))])
    v1 = np.concatenate([-half[::-1], half])
    u1 = 0.25 * np.arange(-8, 8)
    with pytest.raises(ValidationError, match="uniform"):
        restricted_extract(u1, v1, np.array([-1.0, 1.0]), np.ones((u1.size, v1.size, 2)),
                           gaussian_window(2.0), SliceParams(a=0.5))


def test_restricted_dataset_complex_window_matches_forward():
    # per-ray nodes: the analytic-signal kernel is integrated on each ray's clip interval
    spec_f = gaussian_phantom(CENTER, SIG)
    w = analytic_signal_window()
    u1 = np.arange(-8, 8) * 0.5
    v1 = symmetric_offset_grid(2.0, 0.5)
    vprimes = np.array([-1.0, 0.5])
    _, _, _, vals = make_restricted_dataset(spec_f, w, u1, v1, vprimes)
    assert np.iscomplexobj(vals) and vals.shape == (u1.size, v1.size, vprimes.size)
    grid = Grid((u1.size, 2), (u1[0], 0.0), (0.5, 1.0))  # u2 = 0 is the first row
    for j, vp in enumerate(vprimes):
        data = windowed_ray_transform(spec_f, w, grid, v1_line_vset(v1, [vp]),
                                      QuadratureParams(panels=8, max_panels=None))
        want = data.values.reshape(u1.size, 2, v1.size)[:, 0, :]
        assert np.max(np.abs(vals[:, :, j] - want)) <= 1e-14 * np.max(np.abs(want))


def test_a_sigma_outside_the_sampled_v1_band_rejected_in_both_modes():
    # max |sigma| = 4 pi and dv1 = 0.5: |a sigma| dv1 reaches pi exactly at a = 0.5,
    # where the v1 samples alias +pi / dv1 with -pi / dv1, and 1.2 pi at a = 0.6
    u1 = 0.25 * np.arange(-64, 64)
    v1 = symmetric_offset_grid(2.0, 0.5)
    w = gaussian_window(2.0)
    vals = np.ones((u1.size, v1.size, 2))
    data = WRTData(Grid((u1.size, 2), (u1[0], 0.0), (0.25, 1.0)), v1_line_vset(v1, [0.0]), w,
                   np.ones((2 * u1.size, v1.size)))
    for a in (0.5, 0.6):
        with pytest.raises(ValidationError, match="Nyquist"):
            restricted_extract(u1, v1, np.array([-1.0, 1.0]), vals, w, SliceParams(a=a))
        with pytest.raises(ValidationError, match="Nyquist"):
            slice_extract(data, SliceParams(a=a))
    assert slice_extract(data, SliceParams(a=0.375)).values.shape == (u1.size, 2)


def test_apodization_is_validated_by_the_params():
    with pytest.raises(ValidationError):
        SliceParams(apodization="boxcar")
    ds = _dataset(V=2.0, n2=4)
    none = slice_extract(ds, SliceParams(apodization="none"))
    hann = slice_extract(ds, SliceParams())
    assert not np.allclose(none.values, hann.values)


def _reference_extract(u1, v1, blocks, w, a, apodization):
    """The direct double sum the slice route evaluates, kept as a reference:
    |sigma| / (2 pi h(a)) sum_u sum_v P e^{-i sigma u} e^{-i a sigma v} apod du dv
    per block blocks[:, :, j] on u1 x v1, with plain exponentials."""
    from wrtkit.windows import window_eval

    du, dv = u1[1] - u1[0], v1[1] - v1[0]
    sigma = Grid((u1.size,), (u1[0],), (du,)).frequency_grid().axis_coords(0)
    apod = apodization_weights(apodization, v1, abs(v1[0]) + 0.5 * dv)
    Eu = np.exp(-1j * np.multiply.outer(sigma, u1)) * du
    Ev = np.exp(-1j * a * np.multiply.outer(sigma, v1)) * (apod * dv)
    out = np.einsum("svj,sv->sj", np.tensordot(Eu, blocks, axes=(1, 0)), Ev)
    ha = complex(np.asarray(window_eval(w, a)))
    return sigma, np.abs(sigma)[:, None] * out / (2.0 * np.pi * ha)


def _symmetric_v1(n, dv):
    return (np.arange(n) - 0.5 * (n - 1)) * dv


# odd and even counts on both axes, and two shapes with 16,384 and 33,150 columns
@pytest.mark.parametrize("n1, nv1, n2", [(64, 16, 5), (63, 15, 5), (64, 15, 5), (63, 16, 5),
                                         (256, 16, 64), (255, 15, 130)])
@pytest.mark.parametrize("apodization", ["none", "hann", "kaiser:8"])
@pytest.mark.parametrize("a", [0.0, 0.5, -0.5, 0.375])
def test_full_extraction_matches_the_per_block_reference(a, apodization, n1, nv1, n2):
    rng = np.random.default_rng(n1 + nv1)
    u1, v1 = -3.0 + 0.5 * np.arange(n1), _symmetric_v1(nv1, 0.5)
    w = gaussian_window(2.0)
    vals = rng.standard_normal((n1, n2, nv1))
    data = WRTData(Grid((n1, n2), (u1[0], -1.0), (0.5, 0.5)), v1_line_vset(v1, [0.25]), w,
                   vals.reshape(n1 * n2, nv1))  # v' != 0: an odd v1 grid holds v1 = 0
    got = slice_extract(data, SliceParams(a=a, apodization=apodization))
    sigma, want = _reference_extract(u1, v1, vals.transpose(0, 2, 1), w, a, apodization)
    i0 = int(np.argmin(np.abs(sigma)))  # the sigma = 0 row, even-extrapolated
    want[i0] = (4.0 * (want[i0 + 1] + want[i0 - 1]) - (want[i0 + 2] + want[i0 - 2])) / 6.0
    assert np.array_equal(got.sigma, sigma)
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n1, nv1", [(40, 16), (41, 15)])
@pytest.mark.parametrize("apodization", ["none", "hann", "kaiser:8"])
@pytest.mark.parametrize("a", [0.5, -0.5, 0.375])
def test_restricted_extraction_matches_the_per_block_reference(a, apodization, n1, nv1):
    rng = np.random.default_rng(n1 + nv1)
    u1, v1, vprimes = 0.5 * np.arange(n1) - 10.0, _symmetric_v1(nv1, 0.5), np.linspace(-2, 2, 3)
    w = gaussian_window(2.0)
    vals = rng.standard_normal((n1, nv1, vprimes.size))
    got = restricted_extract(u1, v1, vprimes, vals, w, SliceParams(a=a, apodization=apodization))
    sigma, want = _reference_extract(u1, v1, vals, w, a, apodization)
    assert np.array_equal(got.sigma, sigma)
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("a", [0.0, 0.5])
def test_slice_extract_memory_stays_far_below_the_data(a):
    # the benchmark's slice geometry, 400 u1 x 32 u2 x 96 v1: its real data are
    # 9.8 MB, and an rfft of them all along u1 would hold 9.9 MB; one v1 row's is 0.1 MB
    u1, v1 = 0.5 * np.arange(-200, 200), symmetric_offset_grid(16.0, 1.0 / 3.0)
    rows = np.random.default_rng(5).standard_normal((v1.size, u1.size * 32))
    data = WRTData(Grid((u1.size, 32), (u1[0], -8.0), (0.5, 0.5)), v1_line_vset(v1, [0.0]),
                   gaussian_window(2.0), rows.T)  # v-major already: not copied
    tracemalloc.start()
    try:
        slice_extract(data, SliceParams(a=a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_rejected_in_both_modes(bad):
    u1, v1, w = 0.5 * np.arange(16), _symmetric_v1(8, 0.5), gaussian_window(2.0)
    vals = np.ones((u1.size, v1.size, 2))
    vals[3, 5, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        restricted_extract(u1, v1, np.array([-1.0, 1.0]), vals, w, SliceParams(a=0.5))
    # full mode reads WRTData, which refuses non-finite values when it is made
    with pytest.raises(NumericalError, match="non-finite"):
        WRTData(Grid((u1.size, 2), (0.0, 0.0), (0.5, 1.0)), v1_line_vset(v1, [0.0]), w,
                vals.transpose(0, 2, 1).reshape(-1, v1.size))


@pytest.mark.parametrize("n1", [2, 3, 4])
def test_short_u1_axis_rejected(n1):
    # the sigma = 0 row is extrapolated from |sigma| in {d, 2d}: 5 u1 samples at least
    v1, w = _symmetric_v1(8, 0.5), gaussian_window(2.0)
    data = WRTData(Grid((n1, 2), (0.0, 0.0), (0.5, 1.0)), v1_line_vset(v1, [0.0]), w,
                   np.ones((2 * n1, v1.size)))
    with pytest.raises(ValidationError, match="at least 5"):
        slice_extract(data, SliceParams(a=0.0))
    grown = WRTData(Grid((5, 2), (0.0, 0.0), (0.5, 1.0)), v1_line_vset(v1, [0.0]), w,
                    np.ones((10, v1.size)))
    assert slice_extract(grown, SliceParams(a=0.0)).values.shape == (5, 2)


@pytest.mark.parametrize("shape, nvp", [
    ((16, 7, 2), 2),   # v1 count off by one
    ((16, 8), 2),      # 2-D values
    ((16, 8, 2), 3),   # vprimes of another length
    ((15, 8, 2), 2),   # u1 count off by one
])
def test_restricted_extract_rejects_mismatched_values(shape, nvp):
    u1, v1 = 0.5 * np.arange(16), _symmetric_v1(8, 0.5)
    with pytest.raises(ValidationError, match="shape"):
        restricted_extract(u1, v1, np.linspace(-1.0, 1.0, nvp), np.ones(shape),
                           gaussian_window(2.0), SliceParams(a=0.5))


def test_restricted_extract_rejects_a_non_uniform_u1():
    u1, v1 = 0.5 * np.arange(16), _symmetric_v1(8, 0.5)
    u1[7] += 1e-6
    with pytest.raises(ValidationError, match="u1 grid must be uniform"):
        restricted_extract(u1, v1, np.array([-1.0, 1.0]), np.ones((16, 8, 2)),
                           gaussian_window(2.0), SliceParams(a=0.5))


@pytest.mark.parametrize("nv1", [0, 1])
def test_v1_axis_under_two_samples_rejected(nv1):
    u1, v1 = 0.5 * np.arange(16), _symmetric_v1(nv1, 0.5)
    with pytest.raises(ValidationError, match="at least 2"):
        restricted_extract(u1, v1, np.array([1.0]), np.ones((16, nv1, 1)),
                           gaussian_window(2.0), SliceParams(a=0.5))


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
def test_non_finite_a_rejected(a):
    with pytest.raises(ValidationError, match="finite"):
        SliceParams(a=a)


@pytest.mark.parametrize("axis", ["u1", "u2"])
def test_make_slice_dataset_rejects_a_non_uniform_axis(monkeypatch, axis):
    # the dataset's grid is read from the first step of each axis, so a
    # non-uniform axis would silently give data on another grid
    def no_forward(*args, **kwargs):
        raise AssertionError("forward run on a non-uniform axis")

    monkeypatch.setattr("wrtkit.invert_slice.windowed_ray_transform", no_forward)
    uniform, skewed = np.arange(6.0), np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0])
    u1, u2 = (skewed, uniform) if axis == "u1" else (uniform, skewed)
    with pytest.raises(ValidationError, match=f"{axis} grid must be uniform"):
        make_slice_dataset(gaussian_phantom(CENTER, SIG), gaussian_window(2.0), u1, u2,
                           symmetric_offset_grid(2.0, 0.5))


def test_complex_reconstruction_warning_names_the_caller():
    # an imaginary spectrum: the rows are far from real, reported at this file's line
    sigma, zeta = np.linspace(-4.0, 4.0, 17), np.linspace(-2.0, 2.0, 5)
    with pytest.warns(UserWarning, match="complex magnitude") as record:
        reconstruct_slice(SliceSpectrum(sigma, zeta, 1j * np.ones((17, 5))), make_grid(2, 4, 2.0))
    assert len(record) == 1 and record[0].filename == __file__
