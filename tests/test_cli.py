import argparse
import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wrtkit
from wrtkit import _pool, calibrate
from wrtkit import io as wio
from wrtkit.calibrate import calibrate_constant
from wrtkit.cli import build_parser, main, parse_window
from wrtkit.errors import ValidationError, WrtError
from wrtkit.fields import ScalarField, gaussian_phantom, make_grid
from wrtkit.forward import (PolarWRT, WRTData, analytic_wrt_data, polar_vset, uniform_circle,
                            v1_line_vset, windowed_ray_transform, wrt_polar_perp)
from wrtkit.invert_fourier import extract_polar_spectrum
from wrtkit.invert_slice import symmetric_offset_grid
from wrtkit.quad import QuadratureParams
from wrtkit.windows import CONSTANT_MODES, WindowSpec


def _phantom_file(tmp_path, name="spec.json", sigma=0.7, center=(0.4, -0.2)):
    p = tmp_path / name
    p.write_text(json.dumps({
        "kind": "gaussian",
        "components": [{"center": list(center), "sigma": sigma, "amplitude": 1.0}],
    }))
    return str(p)


def test_parse_window():
    assert parse_window("gaussian:1.5") == WindowSpec("gaussian", sigma=1.5)
    assert parse_window("bump:2") == WindowSpec("bump", radius=2.0)
    assert parse_window("analytic-signal") == WindowSpec("analytic-signal")
    with pytest.raises(ValidationError):
        parse_window("gaussian")
    with pytest.raises(ValidationError):
        parse_window("gaussian:abc")


def test_phantom_and_compare_roundtrip(tmp_path, capsys):
    spec = _phantom_file(tmp_path)
    out = str(tmp_path / "field")
    assert main(["phantom", "--spec", spec, "--out", out,
                 "--shape", "32", "--extent", "10"]) == 0
    capsys.readouterr()
    assert main(["compare", out, out, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rel_l2"] == 0.0
    f = wio.read_gf1(out)
    assert f.grid.shape == (32, 32)


def test_forward_oracle_then_invert_t1(tmp_path, capsys):
    spec = _phantom_file(tmp_path)
    data = str(tmp_path / "data")
    rc = main([
        "forward", "--phantom", spec, "--window", "gaussian:1.0",
        "--vmode", "polar", "--ndirs", "16", "--rmin", "0.05", "--rmax", "12",
        "--nr", "20", "--quad-panels", "8",
        "--shape", "64", "--extent", "40", "--out", data, "--oracle", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_max_deviation"] < 1e-8
    rec = str(tmp_path / "rec")
    rc = main([
        "invert", "--method", "t1", "--in", data, "--rmin", "0.05", "--rmax", "12",
        "--shape", "32", "--extent", "16", "--out", rec,
    ])
    assert rc == 0
    ref = str(tmp_path / "ref")
    assert main(["phantom", "--spec", spec, "--out", ref,
                 "--shape", "32", "--extent", "16"]) == 0
    capsys.readouterr()
    assert main(["compare", rec, ref, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rel_l2"] < 0.25  # coarse CLI-default geometry


def test_usage_errors_exit_1(tmp_path):
    assert main(["forward", "--phantom", "missing.json",
                 "--window", "gaussian:1.0"]) == 1
    assert main(["forward", "--window", "gaussian:1.0"]) == 1  # no source
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["phantom", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 1
    # argparse-level problem also maps to 1, not 2
    assert main(["invert", "--method", "nope", "--in", "x"]) == 1


def test_compare_grid_mismatch_exit_1(tmp_path):
    spec = _phantom_file(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["phantom", "--spec", spec, "--out", a, "--shape", "16", "--extent", "8"]) == 0
    assert main(["phantom", "--spec", spec, "--out", b, "--shape", "24", "--extent", "8"]) == 0
    assert main(["compare", a, b]) == 1


def _perp_data(tmp_path, spec):
    data = str(tmp_path / "perp")
    rc = main([
        "forward", "--phantom", spec, "--window", "bump:2.0", "--vmode", "perp",
        "--rho-min", "1e-8", "--rho-max", "4.0", "--nrho", "256",
        "--ntheta", "32", "--quad-panels", "8", "--out", data,
    ])
    assert rc == 0
    return data


def test_perp_oracle_then_mellin_with_a_noncompact_window(tmp_path, capsys):
    # a gaussian phantom and a gaussian window: --oracle checks the perp forward
    # against the closed form, and the Mellin route inverts data of a window
    # without compact support
    spec = _phantom_file(tmp_path, sigma=0.3, center=(0.8, 0.0))
    data, rec, ref = (str(tmp_path / k) for k in ("perp", "rec", "ref"))
    argv = ["forward", "--phantom", spec, "--window", "gaussian:1.0", "--vmode", "perp",
            "--rho-min", "1e-6", "--rho-max", "4", "--nrho", "256", "--ntheta", "32",
            "--quad-panels", "16", "--out", data]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {data}: perp data (256, 32)\n"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"out": data, "shape": [256, 32]}
    assert main(argv + ["--oracle", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["oracle_max_deviation", "out", "shape"]
    assert payload["oracle_max_deviation"] <= 1e-12
    grid = ["--shape", "32", "--extent", "4"]
    assert main(["phantom", "--spec", spec, *grid, "--out", ref]) == 0
    assert main(["invert", "--method", "mellin", "--in", data, "--lmax", "8", *grid,
                 "--out", rec]) == 0
    capsys.readouterr()
    assert main(["compare", rec, ref, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rel_l2"] < 0.01
    # a window without the closed form: --oracle fails before anything is written
    out = tmp_path / "none"
    for window in ("bump:2.0", "hermite1:1.0"):
        assert main([*argv[:4], window, *argv[5:-1], str(out), "--oracle"]) == 1
        assert _one_error_line(capsys)
        assert not out.exists()


def test_mellin_rejects_odd_window_exit_2(tmp_path, capsys):
    spec = _phantom_file(tmp_path, sigma=0.3, center=(1.0, 0.0))
    data = _perp_data(tmp_path, spec)
    rc = main([
        "invert", "--method", "mellin", "--in", data, "--window", "hermite1:1.0",
        "--lmax", "2", "--shape", "16", "--extent", "4", "--out", str(tmp_path / "r"),
    ])
    assert rc == 2


def test_slice_window_vanishing_at_a_exit_2(tmp_path, capsys):
    spec = _phantom_file(tmp_path)
    data = str(tmp_path / "vline")
    rc = main([
        "forward", "--phantom", spec, "--window", "hermite1:1.0",
        "--vmode", "v1-line", "--v1max", "4", "--nv1", "16",
        "--shape", "32", "--extent", "16", "--quad-panels", "4", "--out", data,
    ])
    assert rc == 0
    rc = main([
        "invert", "--method", "slice", "--in", data, "--slice-a", "0.0",
        "--shape", "16", "--extent", "8", "--out", str(tmp_path / "r"),
    ])
    assert rc == 2
    assert "vanishes at a" in capsys.readouterr().err


def test_slice_short_u1_axis_exit_1(tmp_path, capsys):
    # 4 u1 samples cannot feed the sigma = 0 row's extrapolation from |sigma| in {d, 2d}
    spec = _phantom_file(tmp_path)
    data = str(tmp_path / "vline")
    rc = main([
        "forward", "--phantom", spec, "--window", "gaussian:1.0",
        "--vmode", "v1-line", "--v1max", "2", "--nv1", "8",
        "--shape", "4", "--extent", "8", "--quad-panels", "4", "--out", data,
    ])
    assert rc == 0
    capsys.readouterr()
    out = tmp_path / "r"
    rc = main(["invert", "--method", "slice", "--in", data, "--shape", "4", "--extent", "4",
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "at least 5" in err[0]
    assert not out.exists()


def test_analytic_signal_rejected_by_inversions_exit_2(tmp_path):
    spec = _phantom_file(tmp_path)
    data = str(tmp_path / "pol")
    rc = main([
        "forward", "--phantom", spec, "--window", "gaussian:1.0",
        "--vmode", "polar", "--ndirs", "4", "--nr", "4",
        "--shape", "24", "--extent", "12", "--quad-panels", "4", "--out", data,
    ])
    assert rc == 0
    for method in ("t1", "t2"):
        rc = main([
            "invert", "--method", method, "--in", data, "--window", "analytic-signal",
            "--shape", "16", "--extent", "8", "--out", str(tmp_path / "r"),
        ])
        assert rc == 2, method


def test_slice_of_complex_data_with_a_real_window_exit_2(tmp_path, capsys):
    # analytic-signal data relabelled with --window gaussian: the slice route needs real data
    spec = _phantom_file(tmp_path)
    data = str(tmp_path / "vline")
    rc = main([
        "forward", "--phantom", spec, "--window", "analytic-signal",
        "--vmode", "v1-line", "--v1max", "2", "--nv1", "8",
        "--shape", "8", "--extent", "8", "--quad-panels", "4", "--out", data,
    ])
    assert rc == 0
    capsys.readouterr()
    rc = main(["invert", "--method", "slice", "--in", data, "--window", "gaussian:1.0",
               "--shape", "4", "--extent", "4", "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and "real data" in err[0]


def test_calibrate_fast_json(tmp_path, capsys):
    rc = main(["calibrate", "--method", "t2", "--window", "gaussian:1.0",
               "--fast", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cv"] < 0.02
    assert len(payload["alphas"]) == 3
    assert payload["ratio"] > 0


_SPEC = {"kind": "gaussian", "components": [{"center": [0.4, -0.2], "sigma": 0.7}]}


def _edited_spec(key, value):
    return json.dumps({**_SPEC, "components": [{**_SPEC["components"][0], key: value}]})


_SPEC_TEXTS = {  # a calibration phantom file: the valid spec's text, mutations of it, or none
    "valid": json.dumps(_SPEC),
    "mixture": json.dumps({**_SPEC, "kind": "gaussian-mixture"}),
    "disk-kind": json.dumps({**_SPEC, "kind": "smoothed-disk"}),
    "unknown-kind": json.dumps({**_SPEC, "kind": "ellipse"}),
    "kind-number": json.dumps({**_SPEC, "kind": 3}),
    "no-kind": json.dumps({"components": _SPEC["components"]}),
    "no-components": json.dumps({**_SPEC, "components": []}),
    "components-text": json.dumps({**_SPEC, "components": "abc"}),
    "sigma-zero": _edited_spec("sigma", 0.0),
    "sigma-nan": _edited_spec("sigma", float("nan")),
    "sigma-text": _edited_spec("sigma", "x"),
    "sigma-wide": _edited_spec("sigma", 40.0),
    "center-1d": _edited_spec("center", [0.4]),
    "center-3d": _edited_spec("center", [0.4, -0.2, 0.1]),
    "center-empty": _edited_spec("center", []),
    "center-inf": _edited_spec("center", [float("inf"), 0.0]),
    "amplitude-zero": _edited_spec("amplitude", 0.0),
    "amplitude-huge": _edited_spec("amplitude", 1e308),
    "amplitude-text": _edited_spec("amplitude", "a"),
    "truncated": json.dumps(_SPEC)[:20],
    "not-an-object": "[1, 2]",
    "empty-file": "",
    "missing-file": None,
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(["t1", "t2", "slice"]),
       window=st.one_of(st.just("gaussian:1.0"), st.sampled_from([
           "gaussian:0", "gaussian:nan", "gaussian:x", "gaussian", "hermite1:inf", "bump:-1",
           "analytic-signal", "kaiser:2", ""])),
       fast=st.booleans(), as_json=st.booleans(),
       edit=st.sampled_from(sorted(_SPEC_TEXTS)), valid=st.integers(0, 3))
def test_calibrate_argv_property(method, window, fast, as_json, edit, valid):
    # calibrate on drawn flags and phantom files, one drawn file then up to
    # three valid ones: exit 0, or exit 1 or 2 with one error line; never an
    # exception.  The default phantoms run in test_calibrate_fast_json.
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["calibrate", "--method", method, f"--window={window}", "--phantoms"]
        for k, name in enumerate([edit] + ["valid"] * valid):
            argv.append(os.path.join(tmp, f"spec{k}.json"))
            if _SPEC_TEXTS[name] is not None:
                pathlib.Path(argv[-1]).write_text(_SPEC_TEXTS[name])
        rc, err = _run(argv + ["--fast"] * fast + ["--json"] * as_json)
        assert rc in (0, 1, 2)
        if rc:  # one error line, after argparse's usage lines for an invalid --method
            assert err[-1].startswith("error: ")
            assert len(err) == 1 or method not in ("t1", "t2")


def test_calibrate_rejects_a_complex_window_before_any_forward(monkeypatch, capsys):
    # both inversions need a real window; the forward data came first, and
    # took over a minute of analytic-signal quadrature before the exit 2
    def forward(*args):
        raise AssertionError("forward data computed")

    monkeypatch.setattr(calibrate, "_forward_data", forward)
    rc = main(["calibrate", "--method", "t2", "--window", "analytic-signal", "--fast"])
    assert rc == 2
    assert _one_error_line(capsys)


def test_calibrate_phantoms_flag_needs_files_exit_1(capsys):
    # --phantoms with no file named was read as the default phantoms
    rc = main(["calibrate", "--method", "t1", "--window", "gaussian:1.0", "--fast", "--phantoms"])
    assert rc == 1
    assert _one_error_line(capsys)


def test_threads_env_validation(monkeypatch):
    monkeypatch.setenv("WRTKIT_THREADS", "notanumber")
    assert main(["compare", "nope-a", "nope-b"]) == 1


@pytest.mark.parametrize("env, argv", [("-1", []), ("2.5", []), ("", ["--threads", "-1"])])
def test_bad_thread_count_exit_1(tmp_path, monkeypatch, capsys, env, argv):
    monkeypatch.setenv("WRTKIT_THREADS", env)
    assert main(["phantom", "--spec", _phantom_file(tmp_path), "--shape", "8",
                 "--out", str(tmp_path / "f"), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "thread" in err.lower() and err.count("\n") == 1
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("env, argv", [("", ["--threads", "1"]), ("1", [])])
def test_one_thread_starts_no_worker(tmp_path, monkeypatch, env, argv):
    # the oracle and quadrature forwards, the perp forward and t1 are the
    # pooled routes; with one thread the pool's executor is never asked for
    monkeypatch.setenv("WRTKIT_THREADS", env)
    monkeypatch.setattr(_pool, "_pool", None)  # calling it would raise TypeError
    data = str(tmp_path / "data")
    assert main(["forward", "--phantom", _phantom_file(tmp_path), "--window", "gaussian:1.0",
                 "--ndirs", "8", "--nr", "6", "--shape", "32", "--out", data, "--oracle",
                 *argv]) == 0
    assert main(["forward", "--phantom", _phantom_file(tmp_path), "--window", "gaussian:1.0",
                 "--vmode", "perp", "--nrho", "48", "--ntheta", "64", "--rho-max", "4",
                 "--quad-panels", "16", "--out", str(tmp_path / "perp"), *argv]) == 0
    assert main(["invert", "--method", "t1", "--in", data, "--rmin", "0.05", "--rmax", "4",
                 "--shape", "32", "--out", str(tmp_path / "rec"), *argv]) == 0


def test_threads_flag_sets_the_pool_for_one_command(tmp_path, monkeypatch):
    seen = []

    def serial_map(fn, items):  # records the worker count the command set
        seen.append(_pool.workers())
        return [fn(items)]

    monkeypatch.setattr(_pool, "map", serial_map)
    monkeypatch.setenv("WRTKIT_THREADS", "1")
    assert main(["forward", "--phantom", _phantom_file(tmp_path), "--window", "gaussian:1.0",
                 "--ndirs", "8", "--nr", "6", "--shape", "32", "--out", str(tmp_path / "d"),
                 "--oracle", "--threads", "3"]) == 0
    # two pooled routes: the closed form, then the quadrature
    assert seen == [3, 3] and _pool.limit is None and _pool.workers() == 1


@pytest.mark.parametrize("window", ["gaussian:nan", "hermite1:inf", "bump:inf", "bump:-1"])
def test_non_finite_window_parameter_exit_1(tmp_path, capsys, window):
    spec = _phantom_file(tmp_path)
    rc = main(["forward", "--phantom", spec, "--window", window,
               "--out", str(tmp_path / "d")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--vmode", "polar", "--rmin", "5", "--rmax", "1"],
    ["--vmode", "polar", "--rmin", "0", "--rmax", "1"],
    ["--vmode", "perp", "--rho-min", "4", "--rho-max", "1"],
    ["--vmode", "perp", "--rho-min", "nan", "--rho-max", "1"],
    ["--quad-panels", "0"],
    ["--vmode", "v1-line", "--nv1", "0"],
    ["--vmode", "v1-line", "--nv1", "5"],
    ["--vmode", "polar", "--ndirs", "0"],
    ["--vmode", "polar", "--nr", "0"],
    ["--vmode", "perp", "--nrho", "0"],
    ["--vmode", "perp", "--nrho", "1"],
    ["--vmode", "perp", "--ntheta", "0"],
    ["--vmode", "polar", "--jitter", "nan"],
    ["--vmode", "polar", "--rmax", "inf"],
    ["--vmode", "polar", "--rmax", "1e300"],
    ["--vmode", "v1-line", "--v1max", "inf"],
    ["--vmode", "v1-line", "--vprime", "nan"],
    ["--extent", "nan"],
    ["--center", "inf"],
    ["--vmode", "perp", "--rho-min", "1", "--rho-max", "1", "--nrho", "4"],
])
def test_reversed_forward_ranges_exit_1(tmp_path, capsys, argv):
    spec = _phantom_file(tmp_path)
    out = tmp_path / "d"
    rc = main(["forward", "--phantom", spec, "--window", "gaussian:1.0", *argv,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


_COUNT = st.integers(-2, 9)
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e-320, 1e300]),
                   st.floats(-10.0, 10.0))


# flags on which the forward runs
_FORWARD_COUNTS = {"--ndirs": 2, "--nr": 2, "--nv1": 4, "--nrho": 2, "--ntheta": 2,
                   "--quad-panels": 2}
_FORWARD_VALUES = {"--rmin": 0.5, "--rmax": 1.0, "--jitter": 0.0, "--v1max": 1.0,
                   "--vprime": 0.0, "--rho-min": 0.5, "--rho-max": 1.0, "--extent": 4.0,
                   "--center": 0.0}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(vmode=st.sampled_from(["polar", "v1-line", "perp"]),
       window=st.tuples(st.sampled_from(["gaussian", "hermite1", "bump"]), _VALUE).map(
           lambda kv: f"{kv[0]}:{kv[1]}"),
       counts=st.fixed_dictionaries({f: _COUNT for f in (
           "--ndirs", "--nr", "--nv1", "--nrho", "--ntheta", "--quad-panels")}),
       values=st.fixed_dictionaries({f: _VALUE for f in (
           "--rmin", "--rmax", "--jitter", "--v1max", "--vprime", "--rho-min", "--rho-max",
           "--extent", "--center")}))
@example("polar", "hermite1:1e+300", _FORWARD_COUNTS, _FORWARD_VALUES)
@example("perp", "hermite1:1e-320", _FORWARD_COUNTS, _FORWARD_VALUES)
@example("polar", "gaussian:2e307", _FORWARD_COUNTS, _FORWARD_VALUES)
@example("v1-line", "gaussian:1e308", _FORWARD_COUNTS, _FORWARD_VALUES)
@example("perp", "bump:1e308", _FORWARD_COUNTS, _FORWARD_VALUES)
@example("polar", "hermite1:4e306", _FORWARD_COUNTS, _FORWARD_VALUES)
def test_forward_argv_property(vmode, window, counts, values):
    # exit 0 with a dataset that has no empty axis, or exit 1 or 2 with one
    # error line; never an exception.  Six examples reach the forward with
    # window parameters near the extremes of a double, which most drawn
    # flags stop short of: tiny or huge hermite1 sigmas, and a support
    # radius T or an interval [-T, T] that overflows.
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = _phantom_file(pathlib.Path(tmp)), os.path.join(tmp, "d")
        argv = ["forward", "--phantom", spec, "--window", window, "--vmode", vmode,
                "--shape", "4", "--out", out]
        argv += [f"{k}={v}" for k, v in {**counts, **values}.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2)
        if rc:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not os.path.exists(out)
        else:
            assert min(wio.read_wrt1(out).values.shape) > 0


def _targets(tmp):
    """Output paths of three kinds: in a good directory, under a regular file,
    and in a directory that does not exist."""
    blocker = os.path.join(tmp, "file")
    if not os.path.exists(blocker):
        open(blocker, "w").close()
    return {"good": lambda name: os.path.join(tmp, name),
            "under-a-file": lambda name: os.path.join(blocker, name),
            "missing-dir": lambda name: os.path.join(tmp, "missing", "dir", name)}


def _run(argv):
    """(exit code, stderr lines) of one in-process CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


@pytest.mark.parametrize("command, target", [
    ("phantom", "under-a-file"), ("forward", "under-a-file"),
    ("compare", "under-a-file"), ("compare", "missing-dir")])
def test_unwritable_output_exit_1(tmp_path, command, target):
    spec, field = _phantom_file(tmp_path), str(tmp_path / "field")
    grid = ["--shape", "8", "--extent", "4"]
    assert _run(["phantom", "--spec", spec, *grid, "--out", field])[0] == 0
    bad = _targets(str(tmp_path))[target]("x")
    rc, err = _run({
        "phantom": ["phantom", "--spec", spec, *grid, "--out", bad],
        "forward": ["forward", "--phantom", spec, "--window", "gaussian:1.0", *grid,
                    "--ndirs", "2", "--nr", "2", "--out", bad],
        "compare": ["compare", field, field, "--pgm", bad]}[command])
    assert rc == 1
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
    assert not os.path.exists(bad)


_SHAPE = st.one_of(st.integers(-2, 3), st.integers(4, 64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shapes=st.tuples(_SHAPE, _SHAPE), extent=_VALUE,
       center=st.lists(st.one_of(_VALUE, st.just("abc")), min_size=1, max_size=3).map(
           lambda c: ",".join(map(str, c))),
       targets=st.tuples(*[st.sampled_from(["good", "under-a-file", "missing-dir"])] * 2))
def test_phantom_and_compare_argv_property(shapes, extent, center, targets):
    # phantom on two drawn grids, then compare of the two with a PGM: each
    # command exits 0, or 1 or 2 with one error line; never an exception
    with tempfile.TemporaryDirectory() as tmp:
        spec, paths = _phantom_file(pathlib.Path(tmp)), _targets(tmp)
        fields = [paths[targets[0]]("a"), paths["good"]("b")]
        codes = []
        for out, shape in zip(fields, shapes):
            rc, err = _run(["phantom", "--spec", spec, "--shape", str(shape),
                            f"--extent={extent}", f"--center={center}", "--out", out])
            assert rc in (0, 1, 2)
            assert not rc or (len(err) == 1 and err[0].startswith("error: "))
            assert bool(rc) != os.path.isdir(out)
            codes.append(rc)
        if codes == [0, 0]:
            pgm = paths[targets[1]]("d.pgm")
            rc, err = _run(["compare", *fields, "--pgm", pgm])
            assert rc in (0, 1, 2)
            assert not rc or (len(err) == 1 and err[0].startswith("error: "))
            assert bool(rc) != os.path.isfile(pgm)


@pytest.fixture(scope="module")
def invert_inputs(tmp_path_factory):
    """Tiny valid datasets, one per inversion method, and two slice datasets
    the slice route rejects: complex values under a real window's label
    (exit 2) and a u1 axis of 4 samples (exit 1)."""
    d = tmp_path_factory.mktemp("invert")
    spec, w = gaussian_phantom((1.0, 0.0), 0.3), WindowSpec("gaussian", sigma=1.0)
    grid = make_grid(2, 8, 8.0)
    paths = {m: str(d / m) for m in ("t1", "slice", "mellin", "slice-complex", "slice-short")}
    wio.write_wrt1(paths["t1"], analytic_wrt_data(
        spec, w, grid, polar_vset(uniform_circle(4)[0], [0.5, 1.0, 2.0])))
    vline = v1_line_vset(symmetric_offset_grid(2.0, 0.5), [0.0])
    data = windowed_ray_transform(spec, w, grid, vline, QuadratureParams(panels=4))
    wio.write_wrt1(paths["slice"], data)
    wio.write_wrt1(paths["slice-complex"], WRTData(grid, vline, w, (1.0 - 0.5j) * data.values))
    wio.write_wrt1(paths["slice-short"], windowed_ray_transform(
        spec, w, make_grid(2, (4, 8), 8.0), vline, QuadratureParams(panels=4)))
    wio.write_wrt1(paths["mellin"], wrt_polar_perp(
        spec, WindowSpec("bump", radius=2.0), np.geomspace(1e-8, 4.0, 256),
        2.0 * np.pi * np.arange(8) / 8, QuadratureParams(panels=4)))
    paths["t2"] = paths["t1"]
    return paths


def _run_invert(paths, method, argv, out, dataset=None):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["invert", "--method", method, "--in", paths[dataset or method], "--shape", "4",
                   "--extent", "4", "--lmax", "1", "--out", out, *argv])
    return rc, err.getvalue().splitlines()


def test_invert_inputs_reconstruct(invert_inputs, tmp_path):
    # the tiny slice and Mellin datasets are coarse on purpose, and each says so once
    warns = {"slice": "^reconstruction has complex magnitude", "mellin": r"^harmonic \|l\|=1"}
    for method in ("t1", "t2", "slice", "mellin"):
        with (pytest.warns(UserWarning, match=warns[method]) if method in warns
              else contextlib.nullcontext()):
            rc, err = _run_invert(invert_inputs, method, [], str(tmp_path / method))
        assert rc == 0, (method, err)


@pytest.mark.parametrize("dataset, code, message", [
    ("slice-complex", 2, "real data"), ("slice-short", 1, "at least 5")])
def test_slice_rejects_its_malformed_inputs(invert_inputs, tmp_path, dataset, code, message):
    out = tmp_path / "r"
    rc, err = _run_invert(invert_inputs, "slice", [], str(out), dataset)
    assert rc == code
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("method, argv", [
    ("t2", ["--nsigma", "-1"]),
    ("t2", ["--nsigma", "1"]),
    ("t2", ["--sigma-max", "nan"]),
    ("t2", ["--sigma-max", "0"]),
    ("mellin", ["--lmax", "-1"]),
    ("mellin", ["--mellin-T", "nan"]),
    ("mellin", ["--mellin-T", "inf"]),
    ("mellin", ["--mellin-T", "1e300"]),
    ("mellin", ["--mellin-t", "nan"]),
    ("mellin", ["--mellin-t", "inf"]),
    ("mellin", ["--reg-lambda", "-1"]),
    ("mellin", ["--reg-lambda", "nan"]),
    ("slice", ["--slice-a", "nan"]),
    ("slice", ["--slice-a", "inf"]),
    ("mellin", ["--mellin-T", "0.01"]),
    ("slice", ["--apodize", "kaiser:800"]),
    ("slice", ["--apodize", "kaiser:nan"]),
    ("slice", ["--apodize", "kaiser:inf"]),
    ("slice", ["--apodize", "kaiser:-1"]),
])
def test_bad_invert_arguments_exit_1(invert_inputs, tmp_path, method, argv):
    out = tmp_path / "r"
    rc, err = _run_invert(invert_inputs, method, argv, str(out))
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["t1", "t2"])
@pytest.mark.parametrize("window", ["hermite1:1e200", "hermite1:1e-320", "gaussian:1e-320"])
def test_window_parameter_outside_the_range_exit_1(invert_inputs, tmp_path, method, window):
    # sigma outside [1e-100, 1e100]: hermite1:1e200 overflowed in sigma^3,
    # hermite1:1e-320 divided by 0 (t1) or exited 0 (t2), and gaussian:1e-320
    # blamed non-finite field values
    out = tmp_path / "r"
    rc, err = _run_invert(invert_inputs, method, ["--window", window], str(out))
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "window needs a sigma in [1e-100, 1e+100]" in err[0]
    assert not out.exists()


def test_u_grid_spacing_outside_the_range_exit_1(invert_inputs, tmp_path):
    # a spacing of 1e-320 made t1's frequency axis inf x 0
    data, out = tmp_path / "d", tmp_path / "r"
    shutil.copytree(invert_inputs["t1"], data)
    _edit_meta(data, lambda m: m["u_grid"].update(spacing=[1e-320, 1.0]))
    rc, err = _run_invert({"t1": str(data)}, "t1", [], str(out))
    assert rc == 1
    assert len(err) == 1 and err[0] == "error: grid spacing must be in [1e-100, 1e+100]"
    assert not out.exists()


def test_mellin_on_a_coarse_rho_grid_exit_1(tmp_path):
    # 128 radii on [1e-6, 4] take log steps of 0.12 > pi / 40, so e^{i y ln rho}
    # aliases on the default band: the inversion read rel-L2 6.93 and exited 0
    spec = _phantom_file(tmp_path)
    data, out = str(tmp_path / "perp"), tmp_path / "rec"
    rc, _ = _run(["forward", "--phantom", spec, "--window", "gaussian:1.0", "--vmode", "perp",
                  "--rho-min", "1e-6", "--rho-max", "4", "--nrho", "128", "--out", data])
    assert rc == 0
    rc, err = _run(["invert", "--method", "mellin", "--in", data, "--lmax", "8",
                    "--out", str(out)])
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: ")
    assert "Mellin band up to T = 26.25; T = 40 needs at least 195 radii" in err[0]
    assert not out.exists()


def test_perp_forward_with_rho_below_the_length_range_exit_1(tmp_path):
    out = tmp_path / "perp"
    rc, err = _run(["forward", "--phantom", _phantom_file(tmp_path), "--window", "bump:2.0",
                    "--vmode", "perp", "--rho-min", "1e-120", "--out", str(out)])
    assert rc == 1 and len(err) == 1
    assert err[0] == "error: rho must be positive lengths in [1e-100, 1e+100]"
    assert not out.exists()


def _zero_perp(path, rho):
    wio.write_wrt1(str(path), PolarWRT(rho, 2.0 * np.pi * np.arange(8) / 8,
                                       WindowSpec("bump", radius=2.0), np.zeros((rho.size, 8))))


@pytest.mark.parametrize("case", ["rho-1e300", "mellin-t-4", "recovery-t-4"])
def test_mellin_radii_that_overflow_exit_1(tmp_path, case):
    # zero perp data on 256 radii: rho in [1e300, 1e307] (written by hand, as
    # PolarWRT rejects it) warned "overflow encountered in exp" and exited 2,
    # blaming the synthesis; rho in [1e-3, 1e100] at t = 4 overflowed e^{t ln rho},
    # and an output grid out to |x| = 9.9e99 at t = 4 puts r^-t past the largest
    # double; each is now one error line, with no warning on the way
    data, out = tmp_path / "perp", tmp_path / "rec"
    argv, message = ["--mellin-t", "4"], "at abscissa t = 4 overflows r^t or r^-t"
    if case == "rho-1e300":
        _zero_perp(data, np.geomspace(1e-3, 4.0, 256))
        _edit_meta(data, lambda m: m["vset"].update(rho=np.geomspace(1e300, 1e307, 256).tolist()))
        argv, message = [], "rho must be positive lengths in [1e-100, 1e+100]"
    elif case == "mellin-t-4":
        _zero_perp(data, np.geomspace(1e-3, 1e100, 256))
        argv += ["--mellin-T", "1"]  # a band the log step resolves
        message = f"Mellin radius 1e+100 {message}"
    else:
        _zero_perp(data, np.geomspace(1e-3, 4.0, 256))
        argv += ["--extent", "1.4e100"]
        message = f"recovery radius 9.9e+99 {message}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _run(["invert", "--method", "mellin", "--in", str(data), "--lmax", "1",
                        "--shape", "4", "--extent", "4", *argv, "--out", str(out)])
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
    assert not out.exists()


def test_mellin_output_grid_beyond_the_length_range_exit_1(tmp_path):
    # an output grid out to |x| = 2.8e100 exited 1 with "recovery radii must
    # be positive lengths", radii the caller never gave; it is checked first
    spec = _phantom_file(tmp_path)
    data, out = str(tmp_path / "perp"), tmp_path / "rec"
    rc, _ = _run(["forward", "--phantom", spec, "--vmode", "perp", "--window", "gaussian:1.0",
                  "--rho-min", "1e-6", "--rho-max", "12", "--nrho", "512", "--ntheta", "16",
                  "--out", data])
    assert rc == 0
    rc, err = _run(["invert", "--method", "mellin", "--in", data, "--lmax", "4", "--shape", "4",
                    "--extent", "4e100", "--out", str(out)])
    assert rc == 1 and len(err) == 1
    assert err[0] == "error: the output grid's largest radius must be in [1e-100, 1e+100]"
    assert not out.exists()


@pytest.mark.parametrize("method", ["t1", "t2"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_non_finite_calibrated_constant_exit_1(invert_inputs, tmp_path, method, alpha):
    # t1 blamed the field ("scalar field contains non-finite values") and t2
    # the synthesis (exit 2); the constant's one owner rejects it first
    out = tmp_path / "r"
    rc, err = _run_invert(invert_inputs, method, ["--constant-mode", "calibrated",
                                                  f"--alpha={alpha}"], str(out))
    assert rc == 1
    assert err == ["error: calibrated mode needs a finite alpha"]
    assert not out.exists()


@pytest.mark.parametrize("center", ["1e308", "-1e308"])
def test_t1_onto_a_far_output_grid_exit_0(invert_inputs, tmp_path, center):
    # t1's resampling indices overflowed ("overflow encountered in divide",
    # then "scalar field contains non-finite values"); the values such a grid
    # reads are pinned in test_invert_bp
    out = str(tmp_path / "r")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, err = _run_invert(invert_inputs, "t1", ["--shape", "3", "--extent", "10",
                                                    f"--center={center}"], out)
    assert rc == 0 and err == []
    assert np.all(np.isfinite(wio.read_gf1(out).values))


_INVERT_FLAGS = {"--nsigma": _COUNT, "--lmax": _COUNT, **{f: _VALUE for f in (
    "--rmin", "--rmax", "--sigma-max", "--alpha", "--slice-a", "--mellin-t", "--mellin-T",
    "--reg-lambda", "--extent", "--center")}}


@pytest.mark.filterwarnings("ignore:reconstruction has complex magnitude")  # the tiny datasets
@pytest.mark.filterwarnings("ignore:harmonic")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from([("t1", "t1"), ("t2", "t2"), ("slice", "slice"),
                             ("slice", "slice-complex"), ("slice", "slice-short"),
                             ("mellin", "mellin")]),
       mode=st.sampled_from(CONSTANT_MODES),
       flags=st.lists(st.sampled_from(sorted(_INVERT_FLAGS)), max_size=3, unique=True).flatmap(
           lambda keys: st.fixed_dictionaries({k: _INVERT_FLAGS[k] for k in keys})))
def test_invert_argv_property(invert_inputs, case, mode, flags):
    # a method on one of its datasets, up to three flags off their defaults:
    # exit 0 with a finite field, or exit 1 or 2 with one error line; never
    # an exception
    method, dataset = case
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r")
        argv = ["--constant-mode", mode] + [f"{k}={v}" for k, v in flags.items()]
        rc, err = _run_invert(invert_inputs, method, argv, out, dataset)
        assert rc in (0, 1, 2)
        if rc:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert not os.path.exists(out)
        else:
            assert np.all(np.isfinite(wio.read_gf1(out).values))


def _polar_wrt1(path):
    grid = make_grid(2, 16, 8.0)
    vset = polar_vset(uniform_circle(4)[0], [0.5, 1.0])
    wio.write_wrt1(path, WRTData(grid, vset, WindowSpec("gaussian", sigma=1.0),
                                 np.zeros((grid.size, len(vset)))))


def _perp_wrt1(path):
    theta = 2.0 * np.pi * np.arange(8) / 8
    wio.write_wrt1(path, PolarWRT(np.geomspace(0.1, 1.0, 8), theta,
                                  WindowSpec("bump", radius=2.0), np.zeros((8, 8))))


def _gf1(path):
    wio.write_gf1(path, ScalarField(make_grid(2, 8, 4.0), np.zeros((8, 8))))


def _truncate(path, n_values):
    data = path / "data.bin"
    data.write_bytes(data.read_bytes()[:-8 * n_values])


def _edit_meta(path, edit):
    meta = json.loads((path / "meta.json").read_text())
    edit(meta)
    (path / "meta.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("write, damage", [
    (_polar_wrt1, lambda d: _truncate(d, 5)),
    (_perp_wrt1, lambda d: _truncate(d, 3)),
    (_polar_wrt1, lambda d: _edit_meta(d, lambda m: m.pop("window"))),
    (_gf1, lambda d: _edit_meta(d, lambda m: m.pop("kind"))),
    (_gf1, lambda d: (d / "meta.json").write_text('{"format": "gf1", ')),
    (_gf1, lambda d: (d / "meta.json").write_text("[1, 2]")),
    (_gf1, lambda d: (d / "data.bin").unlink()),
    (_polar_wrt1, lambda d: _edit_meta(d, lambda m: m.update(window="gaussian"))),
    (_perp_wrt1, lambda d: _edit_meta(d, lambda m: m["vset"].update(theta=["x"] * 8))),
    (_perp_wrt1, lambda d: _edit_meta(d, lambda m: m["vset"].update(rho=[1.0] * 8))),
    (_perp_wrt1, lambda d: _edit_meta(d, lambda m: m["vset"].update(
        rho=np.reshape(m["vset"]["rho"], (2, 4)).tolist()))),
], ids=["truncated-wrt1", "truncated-perp", "wrt1-without-window", "gf1-without-kind",
        "meta-not-json", "meta-not-object", "no-data-bin", "window-not-object",
        "perp-theta-not-a-number", "perp-equal-radii", "perp-rho-nested"])
def test_malformed_dataset_exit_1(tmp_path, capsys, write, damage):
    d = tmp_path / "d"
    write(str(d))
    damage(d)
    if write is _gf1:
        argv = ["compare", str(d), str(d)]
    else:
        argv = ["invert", "--method", "t1", "--in", str(d), "--out", str(tmp_path / "r")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt, shape", [
    ("gf1", [-8, -8]), ("gf1", [8.5, 8]), ("gf1", [True, 64]), ("gf1", [8, float("nan")]),
    ("gf1", [2**63, 0]), ("wrt1", [-16, -16]), ("wrt1", [16.5, 16])],
    ids=["gf1-negative", "gf1-fractional", "gf1-boolean", "gf1-nan", "gf1-empty-axis",
         "wrt1-u-grid-negative", "wrt1-u-grid-fractional"])
def test_bad_shape_entry_exit_1(tmp_path, capsys, fmt, shape):
    # each shape keeps the payload's value count (an emptied payload for a
    # zero entry), so only the entry check rejects it
    d = tmp_path / "d"
    if fmt == "gf1":
        wio.write_gf1(str(d), ScalarField(make_grid(2, 8, 4.0), np.ones((8, 8))))
        argv = ["compare", str(d), str(d)]
    else:
        _polar_wrt1(str(d))
        argv = ["invert", "--method", "t1", "--in", str(d), "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    capsys.readouterr()
    _edit_meta(d, lambda m: (m if fmt == "gf1" else m["u_grid"]).update(shape=shape))
    if 0 in shape:
        (d / "data.bin").write_bytes(b"")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "shape entry" in err



_META_VALUE = st.one_of(
    st.sampled_from([None, True, 0, -1, 1.5, np.nan, np.inf, 1e300, 1e-320, "x", "", "C", [],
                     [None], [1, 2], [[1, 2]], [[[1.0]]], {}, {"a": 1}, "<deleted>"]),
    st.lists(st.one_of(st.none(), st.floats(-10.0, 10.0)), max_size=4))


def _meta_paths(obj, prefix=()):
    """Key paths into a meta object: every dict key, and the first two
    entries of every list."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj[:2])
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from _meta_paths(v, prefix + (k,))


def _holds(obj, key):
    return (isinstance(obj, dict) and key in obj) or (
        isinstance(obj, list) and isinstance(key, int) and key < len(obj))


@pytest.fixture(scope="module")
def meta_inputs(invert_inputs, tmp_path_factory):
    """A dataset of each format, with the command that reads it."""
    d = tmp_path_factory.mktemp("meta")
    wio.write_gf1(str(d / "gf1"), ScalarField(make_grid(2, 8, 4.0), np.ones((8, 8))))
    wio.write_pss1(str(d / "pss1"), extract_polar_spectrum(wio.read_wrt1(invert_inputs["t2"]),
                                                           np.linspace(0.0, 2.0, 4)))
    return {"gf1": (str(d / "gf1"), lambda p, out: ["compare", p, p, "--pgm", out]),
            "pss1": (str(d / "pss1"), None),
            **{m: (invert_inputs[m], lambda p, out, m=m: [
                "invert", "--method", m, "--in", p, "--shape", "4", "--extent", "4",
                "--lmax", "1", "--out", out]) for m in ("t1", "t2", "slice", "mellin")}}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["gf1", "pss1", "t1", "t2", "slice", "mellin"]), data=st.data())
def test_mutated_meta_property(meta_inputs, case, data):
    # one to three meta entries of a valid dataset set to drawn values (or
    # deleted): the command that reads it exits 0, or 1 or 2 with one error
    # line; never an exception.  pss1, which no command reads, through
    # read_pss1: a dataset or a WrtError.
    src, command = meta_inputs[case]
    meta = json.loads(pathlib.Path(src, "meta.json").read_text())
    paths = sorted(_meta_paths(meta), key=repr)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True)):
        parent = meta  # the entry's container, unless an earlier edit removed the entry
        for k in path[:-1]:
            parent = parent[k] if _holds(parent, k) else None
        if _holds(parent, path[-1]):
            value = data.draw(_META_VALUE)
            if value == "<deleted>":
                del parent[path[-1]]
            else:
                parent[path[-1]] = json.loads(json.dumps(value))  # not the drawn object
    with tempfile.TemporaryDirectory() as tmp:
        d, out = os.path.join(tmp, "d"), os.path.join(tmp, "out")
        shutil.copytree(src, d)
        pathlib.Path(d, "meta.json").write_text(json.dumps(meta))
        if command is None:
            try:
                wio.read_pss1(d)
            except WrtError:
                pass
            return
        rc, err = _run(command(d, out))
        assert rc in (0, 1, 2)
        assert not rc or (len(err) == 1 and err[0].startswith("error: "))
        assert bool(rc) != os.path.exists(out)


def _fresh(args, cwd=None):
    """The completed run of ``python args`` in a fresh interpreter that imports
    wrtkit from this checkout."""
    src = str(pathlib.Path(wrtkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True)


def _fresh_modules(code, cwd=None):
    """The sorted names in sys.modules after ``code`` ran in a fresh interpreter;
    ``code`` ends by printing them."""
    run = _fresh(["-c", code], cwd)
    run.check_returncode()
    return run.stdout.split()


def test_import_loads_no_scipy():
    # each route imports the scipy subpackage it calls inside the function
    # that calls it: scipy.ndimage and the scipy.special it pulls in took
    # import wrtkit, wrtkit.cli from 0.17 to 0.42 s (2-core x86-64, scipy
    # 1.17), which every CLI command pays
    loaded = _fresh_modules("import sys, wrtkit, wrtkit.cli; print(*sorted(sys.modules))")
    assert "wrtkit.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_mellin_pipeline_loads_no_scipy(tmp_path):
    # phantom -> perp forward (bump window; gaussian window with --oracle) ->
    # Mellin inversion of each -> compare, each through the CLI's main in one
    # fresh interpreter: no step calls scipy
    spec = _phantom_file(tmp_path, sigma=0.3, center=(0.8, 0.0))
    grid = ["--shape", "16", "--extent", "4"]
    perp = ["--vmode", "perp", "--rho-min", "1e-6", "--rho-max", "4", "--nrho", "256",
            "--ntheta", "16", "--quad-panels", "8"]
    argvs = [["phantom", "--spec", spec, *grid, "--out", "ref"],
             ["forward", "--phantom", spec, "--window", "bump:2.0", *perp, "--out", "perp"],
             ["forward", "--phantom", spec, "--window", "gaussian:1.0", *perp, "--oracle",
              "--out", "perpg"],
             ["invert", "--method", "mellin", "--in", "perp", "--lmax", "4", *grid,
              "--out", "rec"],
             ["invert", "--method", "mellin", "--in", "perpg", "--lmax", "4", *grid,
              "--out", "recg"],
             ["compare", "rec", "ref"]]
    code = ("import contextlib, io, sys, wrtkit.cli\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert wrtkit.cli.main(argv) == 0, argv\n"
            "print(*sorted(sys.modules))")
    loaded = _fresh_modules(code, cwd=tmp_path)
    assert "wrtkit.invert_mellin" in loaded
    assert (tmp_path / "rec").exists() and (tmp_path / "recg").exists()
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


_CAPPED_FORWARD = ["forward", "--window", "gaussian:1e8", "--shape", "8", "--extent", "4",
                   "--ndirs", "4", "--nr", "1"]


def test_cli_warning_is_one_stderr_line(tmp_path):
    # the capped-refinement warning of a sigma = 1e8 window; in a fresh process,
    # since pytest records warnings rather than letting them reach stderr
    run = _fresh(["-m", "wrtkit.cli", *_CAPPED_FORWARD, "--phantom", _phantom_file(tmp_path),
                  "--out", str(tmp_path / "d")])
    assert run.returncode == 0, run.stderr
    err = run.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ") and "max_panels" in err[0]


def test_cli_warnings_stay_recordable(tmp_path):
    # an in-process caller that records warnings (the benchmark counts them) still
    # gets each one, and main leaves the warning format as it found it
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning, match="max_panels"):
        rc, err = _run([*_CAPPED_FORWARD, "--phantom", _phantom_file(tmp_path),
                        "--out", str(tmp_path / "d")])
    assert rc == 0 and err == []
    assert warnings.formatwarning is formatwarning


def test_selftest_inject_fault(capsys):
    assert main(["selftest", "--inject-fault"]) == 2
    failed = [line.split("  FAIL (")[0].strip()
              for line in capsys.readouterr().out.splitlines() if "  FAIL (" in line]
    assert len(failed) == 2
    assert failed[0].startswith("window transform constants")
    assert failed[1].startswith("backprojection filter")
    # the fault lives in the checks' arguments: nothing is left behind
    assert main(["selftest"]) == 0


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("method, wrong", [
    ("t1", "slice"), ("t1", "mellin"), ("t2", "slice"), ("t2", "mellin"),
    ("slice", "t1"), ("slice", "mellin"), ("mellin", "t1"), ("mellin", "slice")])
def test_invert_rejects_the_wrong_dataset_exit_1(invert_inputs, tmp_path, method, wrong):
    # the t1 path doubles as the polar dataset, the mellin path is perp data
    out = tmp_path / "r"
    rc, err = _run_invert({method: invert_inputs[wrong]}, method, [], str(out))
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("components", [
    [],
    [{"center": [0, 0], "sigma": "x"}],
    [{"center": [0, "a"], "sigma": 1.0}],
    [{"center": [0, 0], "sigma": 1.0, "amplitude": "x"}],
    [{"center": [float("inf"), 0], "sigma": 1.0}],
], ids=["no-components", "sigma-not-a-number", "center-not-a-number",
        "amplitude-not-a-number", "center-infinite"])
def test_bad_phantom_spec_exit_1(tmp_path, capsys, components):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "gaussian", "components": components}))
    out = tmp_path / "f"
    assert main(["phantom", "--spec", str(spec), "--shape", "8", "--out", str(out)]) == 1
    assert _one_error_line(capsys)
    assert not out.exists()


def test_t2_on_coarse_odd_grid_and_dump_pss(tmp_path, capsys):
    # on a 9-point axis the band is 8/9 of pi / d: sigma is sized from Grid.nyquist
    data, pss, rec = (str(tmp_path / k) for k in ("data", "pss", "rec"))
    assert main(["forward", "--phantom", _phantom_file(tmp_path), "--window", "gaussian:1.0",
                 "--shape", "9", "--extent", "20", "--ndirs", "8", "--nr", "4",
                 "--out", data]) == 0
    assert main(["invert", "--method", "t2", "--in", data, "--shape", "9",
                 "--dump-pss", pss, "--out", rec]) == 0
    back, dataset = wio.read_pss1(pss), wio.read_wrt1(data)
    assert back.sigma[-1] == 0.95 * dataset.u_grid.nyquist
    want = extract_polar_spectrum(dataset, back.sigma)
    assert np.array_equal(back.values, want.values)
    assert np.array_equal(back.radii, want.radii) and back.window == want.window
    assert np.all(np.isfinite(wio.read_gf1(rec).values))


def test_forward_from_a_gf1_field(tmp_path, capsys):
    field, data = str(tmp_path / "field"), str(tmp_path / "data")
    assert main(["phantom", "--spec", _phantom_file(tmp_path), "--shape", "24",
                 "--extent", "12", "--out", field]) == 0
    argv = ["forward", "--in", field, "--window", "gaussian:1.0", "--ndirs", "4", "--nr", "2",
            "--shape", "8", "--extent", "8", "--quad-panels", "4"]
    assert main(argv + ["--out", data]) == 0
    got = wio.read_wrt1(data)
    want = windowed_ray_transform(wio.read_gf1(field), WindowSpec("gaussian", sigma=1.0),
                                  got.u_grid, got.vset, QuadratureParams(panels=4))
    assert np.array_equal(got.values, want.values)
    capsys.readouterr()
    # a sampled field has no closed form: --oracle fails before anything is
    # written, in either vmode
    out = tmp_path / "oracle"
    for vmode in ("polar", "perp"):
        assert main(argv + ["--vmode", vmode, "--oracle", "--out", str(out)]) == 1
        assert _one_error_line(capsys)
        assert not out.exists()
    # a 3-D field does not fit the 2-D rays of either vmode
    wio.write_gf1(field, ScalarField(make_grid(3, 4, 4.0), np.ones((4, 4, 4))))
    for vmode in ("polar", "perp"):
        assert main(argv + ["--vmode", vmode, "--out", str(out)]) == 1
        assert _one_error_line(capsys)
        assert not out.exists()


def test_compare_writes_pgm_and_sidecar(tmp_path, capsys):
    a, b, pgm = str(tmp_path / "a"), str(tmp_path / "b"), str(tmp_path / "diff.pgm")
    for path, sigma in ((a, 0.7), (b, 0.9)):
        assert main(["phantom", "--spec", _phantom_file(tmp_path, sigma=sigma),
                     "--shape", "16", "--extent", "8", "--out", path]) == 0
    assert main(["compare", a, b, "--pgm", pgm]) == 0
    diff = np.abs(wio.read_gf1(a).values - wio.read_gf1(b).values)
    raw = pathlib.Path(pgm).read_bytes()
    header = b"P5\n16 16\n255\n"
    assert raw.startswith(header) and len(raw) == len(header) + 256
    img = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(16, 16)
    assert img.min() == 0 and img.flat[diff.argmax()] == 255
    side = json.loads(pathlib.Path(pgm + ".json").read_text())
    assert side == {"min": diff.min(), "max": diff.max(), "levels": 256}


def test_calibrate_with_phantom_files(tmp_path, capsys):
    specs = [gaussian_phantom((0.3, 0.1), 0.7), gaussian_phantom((1.0, -0.5), 0.8, 0.9),
             gaussian_phantom((-0.8, 0.6), 0.6, 1.1)]
    paths = []
    for i, spec in enumerate(specs):
        paths.append(tmp_path / f"p{i}.json")
        paths[-1].write_text(json.dumps(wio.phantom_to_json(spec)))
    w = WindowSpec("gaussian", sigma=1.0)
    assert main(["calibrate", "--method", "t1", "--window", "gaussian:1.0", "--fast", "--json",
                 "--phantoms", *map(str, paths)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == calibrate_constant("t1", w, specs, fast=True).to_json()


def test_t1_on_descending_radii_exit_1(tmp_path, capsys):
    # a reversed log-r grid would flip the sign of the backprojection
    radii = np.geomspace(0.05, 4.0, 8)[::-1]
    data, out = str(tmp_path / "data"), tmp_path / "rec"
    w, grid = WindowSpec("gaussian", sigma=1.0), make_grid(2, 16, 8.0)
    wio.write_wrt1(data, analytic_wrt_data(gaussian_phantom((0.4, -0.2), 0.7), w, grid,
                                           polar_vset(uniform_circle(8)[0], radii)))
    assert main(["invert", "--method", "t1", "--in", data, "--shape", "8", "--extent", "8",
                 "--out", str(out)]) == 1
    assert _one_error_line(capsys)
    assert not out.exists()


def test_mellin_on_non_uniform_theta_exit_1(invert_inputs, tmp_path):
    # circular_decompose's FFT needs theta_k = 2 pi k / N
    data = tmp_path / "perp"
    shutil.copytree(invert_inputs["mellin"], data)

    def bend(meta):
        meta["vset"]["theta"][1] += 0.1

    _edit_meta(data, bend)
    out = tmp_path / "rec"
    rc, err = _run_invert({"mellin": str(data)}, "mellin", [], str(out))
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_jittered_forward_is_seeded(tmp_path, capsys):
    argv = ["forward", "--phantom", _phantom_file(tmp_path), "--window", "gaussian:1.0",
            "--shape", "8", "--extent", "8", "--ndirs", "4", "--nr", "2", "--quad-panels", "4",
            "--jitter", "0.3"]
    paths = [tmp_path / k for k in ("a", "b", "c")]
    for path, seed in zip(paths, ("4", "4", "5")):
        assert main(argv + ["--seed", seed, "--out", str(path)]) == 0
    assert (paths[0] / "data.bin").read_bytes() == (paths[1] / "data.bin").read_bytes()
    dirs = [wio.read_wrt1(str(p)).vset.directions for p in paths]
    assert np.array_equal(dirs[0], dirs[1]) and not np.allclose(dirs[0], dirs[2])


def test_phantom_center_of_the_wrong_dimension_exit_1(tmp_path, capsys):
    out = tmp_path / "f"
    assert main(["phantom", "--spec", _phantom_file(tmp_path), "--shape", "8",
                 "--center", "1,2,3", "--out", str(out)]) == 1
    assert _one_error_line(capsys)
    assert not out.exists()


_SHARED = ["-h", "--help", "--threads"]
_GRID = ["--shape", "--extent", "--center"]
# every flag of every subcommand; a change to the command line shows here.
# Each subcommand has only the flags it reads: --seed is forward's (--jitter)
_CLI_SURFACE = {
    "phantom": ["--spec", "--out", "--json"] + _SHARED + _GRID,
    "forward": ["--phantom", "--in", "--window", "--vmode", "--ndirs", "--rmin", "--rmax", "--nr",
                "--jitter", "--v1max", "--nv1", "--vprime", "--rho-min", "--rho-max", "--nrho",
                "--ntheta", "--quad-panels", "--oracle", "--out", "--seed", "--json"]
               + _SHARED + _GRID,
    "invert": ["--method", "--in", "--window", "--constant-mode", "--alpha", "--rmin", "--rmax",
               "--sigma-max", "--nsigma", "--dump-pss", "--apodize", "--slice-a", "--lmax",
               "--mellin-t", "--mellin-T", "--reg-lambda", "--out", "--json"] + _SHARED + _GRID,
    "compare": ["a", "b", "--pgm", "--json"] + _SHARED,
    "calibrate": ["--method", "--window", "--phantoms", "--fast", "--json"] + _SHARED,
    "selftest": ["--inject-fault"] + _SHARED,
}
_CLI_CHOICES = {
    ("forward", "--vmode"): ["polar", "v1-line", "perp"],
    ("invert", "--method"): ["t1", "t2", "slice", "mellin"],
    ("invert", "--constant-mode"): ["paper", "theory", "calibrated", "raw"],
    ("calibrate", "--method"): ["t1", "t2"],
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_CLI_SURFACE)
    choices = {}
    for name, sp in sub.choices.items():
        opts = [o for a in sp._actions for o in (a.option_strings or [a.dest])]
        assert sorted(opts) == sorted(_CLI_SURFACE[name]), name
        choices.update({(name, a.option_strings[0]): list(a.choices)
                        for a in sp._actions if a.choices is not None})
    assert choices == _CLI_CHOICES
