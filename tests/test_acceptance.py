"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers (run ``pytest -s tests/test_acceptance.py`` to see them live;
under default capture they appear for failing tests only).  Tolerances
are pinned; geometries are desk-scale and chosen so every criterion has
an independent oracle (closed-form transforms, manufactured solutions,
or exact spectral identities).
"""

import json
import time
import warnings

import numpy as np
import pytest
from scipy import special

from wrtkit import (
    analytic_wrt_data,
    bump_window,
    extract_polar_spectrum,
    fourier_identity_residual,
    gaussian_mixture_phantom,
    gaussian_phantom,
    gaussian_window,
    make_grid,
    polar_vset,
    reconstruct_t1,
    reconstruct_t2,
    rel_l2_error,
    sample_phantom,
    uniform_circle,
    window_ft,
    windowed_ray_transform,
    wrt_polar_perp,
)
from wrtkit.calibrate import calibrate_constant, default_calibration_phantoms
from wrtkit.cli import main as cli_main
from wrtkit.invert_bp import BPParams
from wrtkit.invert_mellin import (
    MellinLine,
    MellinParams,
    circular_decompose,
    mellin_convolution_residual,
    mellin_kernel_line,
    mellin_transform,
    reconstruct_mellin,
    recover_fl,
)
from wrtkit.invert_slice import (
    SliceParams,
    make_slice_dataset,
    reconstruct_slice,
    slice_extract,
    symmetric_offset_grid,
)
from wrtkit.quad import QuadratureParams
from wrtkit.windows import window_constants

PHANTOM = gaussian_phantom((0.4, -0.2), 0.7)
WINDOW = gaussian_window(1.0)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def calibrations():
    """Shared by the reconstruction and convention-audit criteria."""
    out = {}
    for method in ("t1", "t2"):
        t0 = time.perf_counter()
        out[method] = calibrate_constant(method, WINDOW, default_calibration_phantoms())
        out[method + "_time"] = time.perf_counter() - t0
    return out


def test_criterion_1_forward_oracle():
    t0 = time.perf_counter()
    grid = make_grid(2, 64, 20.0)
    dirs, _ = uniform_circle(8)
    vset = polar_vset(dirs, np.geomspace(0.3, 6.0, 4))  # 32 v samples
    got = windowed_ray_transform(PHANTOM, WINDOW, grid, vset, QuadratureParams(panels=8))
    want = analytic_wrt_data(PHANTOM, WINDOW, grid, vset)
    dev = np.max(np.abs(got.values - want.values)) / np.max(np.abs(want.values))
    dt = time.perf_counter() - t0
    ok = dev <= 1e-8 and dt <= 30.0
    _report("criterion 1 forward oracle",
            ok, f"max rel deviation {dev:.2e} (<=1e-08), {dt:.1f} s (<=30)")


def test_criterion_2_fourier_identity():
    t0 = time.perf_counter()
    grid = make_grid(2, 128, 32.0)
    vgrid = make_grid(2, 8, 3.0, center=(0.21, 0.13))  # 8 x 8 v samples
    from wrtkit import full_grid_vset

    data = analytic_wrt_data(PHANTOM, WINDOW, grid, full_grid_vset(vgrid))
    res = fourier_identity_residual(data, PHANTOM, band=3.0)
    dt = time.perf_counter() - t0
    ok = res <= 1e-3 and dt <= 60.0
    _report("criterion 2 fourier identity",
            ok, f"residual {res:.2e} (<=1e-03), {dt:.1f} s (<=60)")


def test_criterion_3_backprojection_calibrated(calibrations):
    t0 = time.perf_counter()
    rep = calibrations["t1"]
    data_grid = make_grid(2, 128, 80.0)
    dirs, _ = uniform_circle(32)
    radii = np.geomspace(0.02, 20.0, 40)
    data = analytic_wrt_data(PHANTOM, WINDOW, data_grid, polar_vset(dirs, radii))
    out = make_grid(2, 64, 40.0)
    rec = reconstruct_t1(
        data, WINDOW, out,
        BPParams(r_min=radii[0], r_max=radii[-1], n_theta=32,
                 constant_mode="calibrated", alpha=rep.alpha),
    )
    err = rel_l2_error(rec, sample_phantom(PHANTOM, out))
    dt = time.perf_counter() - t0 + calibrations["t1_time"]
    ok = err <= 0.05 and rep.cv <= 0.02 and dt <= 300.0
    _report(
        "criterion 3 backprojection (non-admissible window, calibrated)",
        ok,
        f"rel-L2 {err:.3f} (<=0.05), calibration CV {rep.cv:.2%} (<=2%), {dt:.0f} s (<=300)",
    )


def test_criterion_4_polar_spectral():
    t0 = time.perf_counter()
    data_grid = make_grid(2, 96, 48.0)
    dirs, _ = uniform_circle(180)
    radii = np.geomspace(0.05, 2.5, 24)
    data = analytic_wrt_data(PHANTOM, WINDOW, data_grid, polar_vset(dirs, radii))
    sigma_max = min(0.9 * np.pi / data_grid.spacing[0], 5.5)
    sigma = np.linspace(0.0, sigma_max, 128)
    samples = extract_polar_spectrum(data, sigma)
    out = make_grid(2, 64, 40.0)
    rec = reconstruct_t2(samples, WINDOW, out, constant_mode="theory")
    err = rel_l2_error(rec, sample_phantom(PHANTOM, out))
    # inner-integral scaling: int_0^inf |hhat(r s)|^2 dr = |s|^-1 int |hhat|^2
    r = np.linspace(0.0, 40.0, 40001)
    want = window_constants(WINDOW).c_hat_half
    scale_dev = max(
        abs(np.trapezoid(np.abs(window_ft(WINDOW, r * s)) ** 2, r) * s / want - 1.0)
        for s in (0.5, 1.0, 2.0, 3.5)
    )
    dt = time.perf_counter() - t0
    ok = err <= 0.05 and scale_dev <= 1e-3 and dt <= 300.0
    _report(
        "criterion 4 polar spectral inversion",
        ok,
        f"rel-L2 {err:.4f} (<=0.05), |sigma|^-1 scaling dev {scale_dev:.1e} "
        f"(<=1e-03), {dt:.0f} s (<=300)",
    )


def _slice_dataset(V):
    u1 = np.arange(-400, 400) * 0.5
    u2 = make_grid(1, 64, 16.0).axis_coords(0)
    v1 = symmetric_offset_grid(V, min(V / 24.0, 1.0 / 3.0))
    w = gaussian_window(2.0)
    return make_slice_dataset(
        gaussian_phantom((0.3, -0.2), 0.8), w, u1, u2, v1,
        quad=QuadratureParams(panels=8, max_panels=None),
    )


def _slice_fhat1(sigma, x2):
    c1, c2, s = 0.3, -0.2, 0.8
    amp = s * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * (s * sigma) ** 2)
    return np.multiply.outer(
        amp * np.exp(-1j * sigma * c1), np.exp(-0.5 * (x2 - c2) ** 2 / s**2)
    )


def test_criterion_5_slice_identity():
    t0 = time.perf_counter()
    errs = {}
    specs = {}
    for V in (2.0, 4.0, 8.0, 16.0):
        ds = _slice_dataset(V)
        spec = slice_extract(ds, SliceParams(a=0.0))
        band = (np.abs(spec.sigma) > 0.4) & (np.abs(spec.sigma) < 2.5)
        want = _slice_fhat1(spec.sigma[band], spec.zeta)
        errs[V] = float(
            np.linalg.norm(spec.values[band] - want) / np.linalg.norm(want)
        )
        specs[V] = (ds, spec, band)
    octaves_down = (
        errs[4.0] < errs[2.0] and errs[8.0] < errs[4.0] and errs[16.0] < errs[8.0]
    )
    # a-invariance on the V = 16 dataset: a = 0 vs a = 0.5 mid-band
    ds16, spec0, band = specs[16.0]
    spec_a = slice_extract(ds16, SliceParams(a=0.5))
    a_dev = float(
        np.linalg.norm(spec_a.values[band] - spec0.values[band])
        / np.linalg.norm(spec0.values[band])
    )
    # full reconstruction from a V = 32 dataset
    ds32 = _slice_dataset(32.0)
    spec32 = slice_extract(ds32, SliceParams(a=0.0))
    out = make_grid(2, 48, 12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = reconstruct_slice(spec32, out)
    rec_err = rel_l2_error(rec, sample_phantom(gaussian_phantom((0.3, -0.2), 0.8), out))
    dt = time.perf_counter() - t0
    ok = (
        errs[16.0] <= 0.05 and octaves_down and rec_err <= 0.08
        and a_dev <= 0.05 and dt <= 300.0
    )
    _report(
        "criterion 5 slice identity",
        ok,
        f"mid-band residual V=2/4/8/16: "
        f"{errs[2.0]:.3f}/{errs[4.0]:.3f}/{errs[8.0]:.3f}/{errs[16.0]:.3f} "
        f"(V=16 <=0.05, decreasing), recon rel-L2 {rec_err:.3f} (<=0.08), "
        f"a-invariance {a_dev:.4f} (<=0.05), {dt:.0f} s (<=300)",
    )


MELLIN_SIG, MELLIN_RHO0 = 0.23, 1.4
MELLIN_WINDOW = bump_window(2.0)


def _two_bump():
    return gaussian_mixture_phantom(
        [((MELLIN_RHO0, 0.0), MELLIN_SIG, 1.0), ((-MELLIN_RHO0, 0.0), MELLIN_SIG, 1.0)]
    )


def _harmonics(components, l, r):
    """Closed-form angular harmonics of a gaussian-bump mixture."""
    r = np.asarray(r)
    out = np.zeros(np.shape(r), dtype=complex)
    for (cx, cy), sig, amp in components:
        rho0 = float(np.hypot(cx, cy))
        phi0 = float(np.arctan2(cy, cx))
        out = out + amp * (
            np.exp(-0.5 * (r - rho0) ** 2 / sig**2)
            * special.ive(l, r * rho0 / sig**2)
            * np.exp(-1j * l * phi0)
        )
    return out


TWO_BUMP_COMPONENTS = [
    ((MELLIN_RHO0, 0.0), MELLIN_SIG, 1.0),
    ((-MELLIN_RHO0, 0.0), MELLIN_SIG, 1.0),
]
# no symmetry: every harmonic l = 0..4 is non-trivial
ASYM_COMPONENTS = [
    ((1.4, 0.0), 0.23, 1.0),
    ((1.1 * np.cos(2.0), 1.1 * np.sin(2.0)), 0.3, 0.7),
]


def _f_l(l, r):
    return _harmonics(TWO_BUMP_COMPONENTS, l, r)


def test_criterion_6_mellin():
    t0 = time.perf_counter()
    rho = np.geomspace(1e-10, 4.0, 1024)
    theta = 2.0 * np.pi * np.arange(64) / 64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = wrt_polar_perp(_two_bump(), MELLIN_WINDOW, rho, theta,
                              QuadratureParams(panels=16))
        series = circular_decompose(data, 8)
        asym = gaussian_mixture_phantom(ASYM_COMPONENTS)
        asym_data = wrt_polar_perp(asym, MELLIN_WINDOW, rho, theta,
                                   QuadratureParams(panels=16))
        asym_series = circular_decompose(asym_data, 8)
    # convolution residual for l <= 4 on |Im s| <= 20 (asymmetric phantom:
    # all five harmonics carry signal, so the relative residual is meaningful)
    y20 = np.linspace(-20.0, 20.0, 161)
    conv_res = 0.0
    for l in (0, 1, 2, 3, 4):
        Mg = mellin_transform(rho, asym_series.coefficient(l), 2.0, y20)
        Mf = mellin_transform(rho, _harmonics(ASYM_COMPONENTS, l, rho), 2.0, y20)
        MH = mellin_kernel_line(MELLIN_WINDOW, l, 2.0, y20)
        conv_res = max(conv_res, mellin_convolution_residual(Mg, Mf, MH))
    # manufactured solution: Mg := Mf * MH, invert, compare to f_l
    y = np.linspace(-40.0, 40.0, 1601)
    r_test = np.geomspace(0.1, 1.8, 160)
    man_err = 0.0
    for l in (0, 2):
        Mf = mellin_transform(rho, _f_l(l, rho), 2.0, y)
        MH = mellin_kernel_line(MELLIN_WINDOW, l, 2.0, y)
        fl = recover_fl(MellinLine(2.0, y, Mf.values * MH.values), MH, 2.0, r_test)
        ref = _f_l(l, r_test)
        man_err = max(man_err, float(np.linalg.norm(fl - ref) / np.linalg.norm(ref)))
    # contour independence, t = 1.5 vs t = 2.0 on measured data (l = 0)
    ref0 = _f_l(0, r_test)
    scale = np.linalg.norm(ref0)
    rec_t = {}
    for t in (1.5, 2.0):
        Mg = mellin_transform(rho, series.coefficient(0), t, y)
        MH = mellin_kernel_line(MELLIN_WINDOW, 0, t, y)
        rec_t[t] = recover_fl(Mg, MH, t, r_test)
    e_ind = [float(np.linalg.norm(rec_t[t] - ref0) / scale) for t in (1.5, 2.0)]
    contour_dev = float(np.linalg.norm(rec_t[1.5] - rec_t[2.0]) / scale)
    contour_ok = contour_dev <= 2.0 * (e_ind[0] + e_ind[1])
    # full two-bump reconstruction at L = 16 vs L = 24
    grid = make_grid(2, 48, 4.4)
    ref = sample_phantom(_two_bump(), grid)
    rec_errs = {}
    for L in (16, 24):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec = reconstruct_mellin(data, MELLIN_WINDOW, L, grid,
                                     MellinParams(t=2.0, T=40.0))
        rec_errs[L] = rel_l2_error(rec, ref)
    dt = time.perf_counter() - t0
    ok = (
        conv_res <= 1e-2 and man_err <= 0.05 and contour_ok
        and rec_errs[16] <= 0.12 and rec_errs[24] < rec_errs[16] and dt <= 600.0
    )
    _report(
        "criterion 6 mellin deconvolution",
        ok,
        f"convolution residual {conv_res:.1e} (<=1e-02), manufactured rel-L2 "
        f"{man_err:.1e} (<=0.05), contour t=1.5 vs 2.0 dev {contour_dev:.1e} "
        f"(<=2x({e_ind[0]:.1e}+{e_ind[1]:.1e})), two-bump rel-L2 L=16/24 "
        f"{rec_errs[16]:.4f}/{rec_errs[24]:.4f} (<=0.12, improving), "
        f"{dt:.0f} s (<=600)",
    )


def test_criterion_7_hypothesis_enforcement(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "gaussian",
        "components": [{"center": [1.0, 0.0], "sigma": 0.3, "amplitude": 1.0}],
    }))
    perp = str(tmp_path / "perp")
    assert cli_main([
        "forward", "--phantom", str(spec), "--window", "bump:2.0", "--vmode", "perp",
        "--rho-min", "1e-8", "--rho-max", "4.0", "--nrho", "256", "--ntheta", "32",
        "--quad-panels", "8", "--out", perp,
    ]) == 0
    vline = str(tmp_path / "vline")
    assert cli_main([
        "forward", "--phantom", str(spec), "--window", "hermite1:1.0",
        "--vmode", "v1-line", "--v1max", "4", "--nv1", "16",
        "--shape", "32", "--extent", "16", "--quad-panels", "4", "--out", vline,
    ]) == 0
    polar = str(tmp_path / "polar")
    assert cli_main([
        "forward", "--phantom", str(spec), "--window", "gaussian:1.0",
        "--vmode", "polar", "--ndirs", "4", "--nr", "4",
        "--shape", "24", "--extent", "12", "--quad-panels", "4", "--out", polar,
    ]) == 0
    capsys.readouterr()
    checks = []
    out = str(tmp_path / "r")
    # odd window rejected by the mellin path
    rc = cli_main(["invert", "--method", "mellin", "--in", perp, "--window",
                   "hermite1:1.0", "--lmax", "2", "--shape", "16", "--extent", "4",
                   "--out", out])
    checks.append(("mellin/odd", rc == 2 and "odd" in capsys.readouterr().err))
    # h(a) = 0 rejected by the slice path
    rc = cli_main(["invert", "--method", "slice", "--in", vline, "--slice-a", "0.0",
                   "--shape", "16", "--extent", "8", "--out", out])
    checks.append(("slice/h(a)=0", rc == 2 and "vanishes at a" in capsys.readouterr().err))
    # analytic-signal window rejected by every inversion path
    for method, infile in (("t1", polar), ("t2", polar), ("slice", vline),
                           ("mellin", perp)):
        rc = cli_main(["invert", "--method", method, "--in", infile,
                       "--window", "analytic-signal", "--lmax", "2",
                       "--shape", "16", "--extent", "4", "--out", out])
        err = capsys.readouterr().err
        checks.append((f"{method}/analytic-signal", rc == 2 and err.strip() != ""))
    bad = [name for name, good in checks if not good]
    _report("criterion 7 hypothesis enforcement",
            not bad, "all rejections exit 2 with messages" if not bad
            else f"failed: {', '.join(bad)}")


def test_criterion_8_convention_audit(calibrations):
    t1, t2 = calibrations["t1"], calibrations["t2"]
    ok = t1.cv <= 0.02 and t2.cv <= 0.02
    _report(
        "criterion 8 convention audit",
        ok,
        f"t1 alpha/paper ratio {t1.ratio:.4f} (CV {t1.cv:.2%}), "
        f"t2 ratio {t2.ratio:.4f} (CV {t2.cv:.2%}); both CV <= 2%; "
        "see README and the calibrate subcommand",
    )


def test_criterion_9_selftest_deterministic(capsys):
    import re

    def strip_timings(text):
        return re.sub(r"\[\d+\.\d+s\]", "[t]", text)

    t0 = time.perf_counter()
    rc1 = cli_main(["selftest"])
    out1 = strip_timings(capsys.readouterr().out)
    rc2 = cli_main(["selftest"])
    out2 = strip_timings(capsys.readouterr().out)
    dt = time.perf_counter() - t0
    ok = rc1 == 0 and rc2 == 0 and out1 == out2 and dt / 2.0 <= 300.0
    _report(
        "criterion 9 selftest",
        ok,
        f"exit {rc1}/{rc2}, deterministic output {'yes' if out1 == out2 else 'NO'}, "
        f"{dt / 2.0:.0f} s per run (<=300)",
    )
