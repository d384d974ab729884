"""Command line interface.

Subcommands: phantom, forward, invert, compare, calibrate, selftest.
Exit codes: 0 success, 1 usage or validation problem, 2 numerical failure
or violated method hypothesis.  ``--threads`` (or the WRTKIT_THREADS
environment variable) sets the number of threads that share the t1
backprojection, the closed-form oracle and the quadrature forward (v
columns on the factored route, planned source calls ray by ray); 0 means
one per usable core, and 1 starts no thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings

import numpy as np

from . import _pool
from . import io as wio
from .calibrate import calibrate_constant, default_calibration_phantoms
from .errors import HypothesisError, NumericalError, ValidationError, WrtError
from .fields import (
    ScalarField,
    continuous_ft,
    continuous_ift,
    gaussian_phantom,
    make_grid,
    rel_l2_error,
    sample_phantom,
)
from .forward import (
    PolarWRT,
    analytic_wrt_data,
    analytic_wrt_gaussian,
    analytic_wrt_perp,
    polar_vset,
    uniform_circle,
    v1_line_vset,
    windowed_ray_transform,
    wrt_columns,
    wrt_polar_perp,
)
from .invert_bp import BPParams, reconstruct_t1, t1_frequency_check
from .invert_fourier import extract_polar_spectrum, reconstruct_t2
from .invert_mellin import (
    MellinParams,
    circular_decompose,
    mellin_transform,
    reconstruct_mellin,
)
from .invert_slice import SliceParams, reconstruct_slice, slice_extract, symmetric_offset_grid
from .quad import QuadratureParams
from .windows import CONSTANT_MODES, WindowSpec, window_constants, window_ft

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # numerical failures, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def parse_window(text):
    """'gaussian:1.0' | 'hermite1:0.8' | 'bump:2.0' | 'analytic-signal'."""
    kind, _, param = text.partition(":")
    if kind == "analytic-signal":
        return WindowSpec(kind)
    if not param:
        raise ValidationError(f"window {kind!r} needs a parameter, e.g. {kind}:1.0")
    try:
        value = float(param)
    except ValueError:
        raise ValidationError(f"bad window parameter {param!r}")
    if kind == "bump":
        return WindowSpec(kind, radius=value)
    return WindowSpec(kind, sigma=value)


def _parse_center(text, n=2):
    parts = [p for p in text.split(",") if p]
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise ValidationError(f"center needs {n} comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"center values must be numbers, not {text!r}") from None


def _load_phantom(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read phantom spec: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed phantom JSON ({path}): {exc}")
    return wio.phantom_from_json(obj)


def _out_grid(args, n=2):
    return make_grid(n, args.shape, args.extent, _parse_center(args.center, n))


def _write(writer, path, value):
    """writer(path, value); an OSError (a path under a regular file, a missing
    or read-only directory, a full disk) becomes one error line naming the path."""
    try:
        writer(path, value)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None


def _report(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_phantom(args):
    spec = _load_phantom(args.spec)
    grid = _out_grid(args, spec.n)
    field = sample_phantom(spec, grid)
    _write(wio.write_gf1, args.out, field)
    _report(
        args,
        {"out": args.out, "shape": list(grid.shape), "spacing": list(grid.spacing)},
        [f"wrote {args.out}: shape {grid.shape}, spacing {grid.spacing}"],
    )
    return EXIT_OK


def _forward_source(args):
    if args.phantom:
        return _load_phantom(args.phantom)
    if args.infile:
        return wio.read_gf1(args.infile)
    raise ValidationError("forward needs --phantom or --in")


def cmd_forward(args):
    src = _forward_source(args)
    w = parse_window(args.window)
    quad = QuadratureParams(panels=args.quad_panels)
    # --oracle: the closed form first, so a source or window it does not cover writes nothing
    if args.vmode == "perp":
        if not 0 < args.rho_min < args.rho_max < np.inf:
            raise ValidationError("perp radii need 0 < --rho-min < --rho-max < inf")
        if args.nrho < 2 or args.ntheta < 1:
            raise ValidationError("perp data needs --nrho >= 2 and --ntheta >= 1")
        rho = np.geomspace(args.rho_min, args.rho_max, args.nrho)
        theta = 2.0 * np.pi * np.arange(args.ntheta) / args.ntheta
        want = analytic_wrt_perp(src, w, rho, theta).values if args.oracle else None
        data = wrt_polar_perp(src, w, rho, theta, quad)
        what = f"perp data {data.values.shape}"
    else:
        grid = _out_grid(args, 2)
        if args.vmode == "polar":
            if not 0 < args.rmin <= args.rmax < np.inf:
                raise ValidationError("polar radii need 0 < --rmin <= --rmax < inf")
            if args.ndirs < 1 or args.nr < 1:
                raise ValidationError("polar vset needs --ndirs >= 1 and --nr >= 1")
            dirs, _ = uniform_circle(args.ndirs, jitter=args.jitter, seed=args.seed)
            vset = polar_vset(dirs, np.geomspace(args.rmin, args.rmax, args.nr))
        else:  # v1-line
            if args.nv1 < 2 or args.nv1 % 2:
                raise ValidationError("--nv1 must be even and at least 2")
            v1 = symmetric_offset_grid(args.v1max, 2.0 * args.v1max / args.nv1)
            vset = v1_line_vset(v1, [args.vprime])
        want = analytic_wrt_data(src, w, grid, vset).values if args.oracle else None
        data = windowed_ray_transform(src, w, grid, vset, quad)
        what = f"{data.values.shape[0]}x{data.values.shape[1]} values"
    _write(wio.write_wrt1, args.out, data)
    lines = [f"wrote {args.out}: {what}"]
    payload = {"out": args.out, "shape": list(data.values.shape)}
    if args.oracle:
        dev = float(np.max(np.abs(data.values - want)))
        scale = float(np.max(np.abs(data.values))) or 1.0
        payload["oracle_max_deviation"] = dev / scale
        lines.append(f"oracle max relative deviation: {dev / scale:.3e}")
    _report(args, payload, lines)
    return EXIT_OK


def cmd_invert(args):
    data = wio.read_wrt1(args.infile)
    w = parse_window(args.window) if args.window else data.window
    grid = _out_grid(args, 2)
    if args.method == "t1":
        params = BPParams(r_min=args.rmin, r_max=args.rmax,
                          constant_mode=args.constant_mode, alpha=args.alpha)
        rec = reconstruct_t1(data, w, grid, params)
        extra = [f"constant mode: {args.constant_mode}"]
    elif args.method == "t2":
        if isinstance(data, PolarWRT):
            raise ValidationError("t2 consumes polar-vset data, not perp data")
        if args.nsigma < 2 or not 0 < args.sigma_max < np.inf:
            raise ValidationError("t2 needs --nsigma >= 2 and a finite --sigma-max > 0")
        sigma = np.linspace(0.0, min(args.sigma_max, 0.95 * data.u_grid.nyquist), args.nsigma)
        samples = extract_polar_spectrum(data, sigma)
        if args.dump_pss:
            _write(wio.write_pss1, args.dump_pss, samples)
        rec = reconstruct_t2(samples, w, grid, constant_mode=args.constant_mode,
                             alpha=args.alpha)
        extra = [f"constant mode: {args.constant_mode}"]
    elif args.method == "slice":
        spec = slice_extract(dataclasses.replace(data, window=w),
                             SliceParams(a=args.slice_a, apodization=args.apodize))
        rec = reconstruct_slice(spec, grid)
        v1 = data.vset.v1
        extra = [f"apodization: {args.apodize}, V = {abs(v1[0]) + 0.5 * (v1[1] - v1[0]):g}"]
    else:  # mellin
        params = MellinParams(t=args.mellin_t, T=args.mellin_T, lam=args.reg_lambda)
        rec = reconstruct_mellin(data, w, args.lmax, grid, params)
        extra = [f"L = {args.lmax}, t = {args.mellin_t}, T = {args.mellin_T}"]
    _write(wio.write_gf1, args.out, rec)
    _report(args, {"out": args.out, "method": args.method},
            [f"wrote {args.out} ({args.method})"] + extra)
    return EXIT_OK


def cmd_compare(args):
    a = wio.read_gf1(args.a)
    b = wio.read_gf1(args.b)
    if a.grid != b.grid:
        raise ValidationError("fields live on different grids")
    err = rel_l2_error(a, b)
    maxabs = float(np.max(np.abs(a.values - b.values)))
    if args.pgm:
        _write(wio.write_pgm, args.pgm, ScalarField(a.grid, np.abs(a.values - b.values)))
    _report(args, {"rel_l2": err, "max_abs": maxabs},
            [f"rel-L2: {err:.6e}", f"max-abs: {maxabs:.6e}"])
    return EXIT_OK


def cmd_calibrate(args):
    w = parse_window(args.window)
    if args.phantoms is None:
        phantoms = default_calibration_phantoms()
    else:  # --phantoms with no file is rejected, not read as the defaults
        phantoms = [_load_phantom(p) for p in args.phantoms]
    report = calibrate_constant(args.method, w, phantoms, fast=args.fast)
    _report(args, report.to_json(), [
        f"method: {report.method}",
        f"fitted alpha: {report.alpha:.8e}  (CV {report.cv:.2%})",
        f"stated constant: {report.paper_constant:.8e}",
        f"ratio fitted/stated: {report.ratio:.6f}",
    ])
    return EXIT_OK


def _selftest_checks(fault=1.0):
    """The selftest checks; ``fault`` != 1 scales the window constants that
    two of them read, to exercise the failure path."""
    checks = []

    def check(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @check("grid coordinate roundtrip")
    def _grid():
        g = make_grid(2, 32, 10.0, (0.5, -0.25))
        idx = np.array([3.0, 17.0])
        assert np.allclose(g.coord_to_index(g.index_to_coord(idx)), idx, atol=1e-12)

    @check("fourier roundtrip and parseval")
    def _ft():
        g = make_grid(2, 64, 20.0)
        f = sample_phantom(gaussian_phantom((0.3, -0.2), 1.0), g)
        F = continuous_ft(f)
        back = continuous_ift(F, out_grid=g)
        assert rel_l2_error(back, f) < 1e-9
        lhs = np.sum(np.abs(f.values) ** 2) * g.cell_volume
        rhs = np.sum(np.abs(F.values) ** 2) * F.grid.cell_volume / (2 * np.pi) ** 2
        assert abs(lhs - rhs) < 1e-8 * lhs

    @check("forward transform matches the analytic gaussian result")
    def _fwd():
        spec = gaussian_phantom((0.5, 0.0), 1.0)
        w = WindowSpec("gaussian", sigma=1.0)
        U = np.array([[0.0, 0.0], [1.0, -0.5]])
        V = np.array([[1.0, 0.5], [0.3, -2.0]])
        got = np.diag(wrt_columns(spec, w, U, V, QuadratureParams(panels=8)))
        want = analytic_wrt_gaussian(spec, w, U, V)
        assert np.max(np.abs(got - want)) < 1e-10

    @check("window transform constants match direct quadrature")
    def _wc():
        for w in (WindowSpec("gaussian", sigma=1.0), WindowSpec("hermite1", sigma=1.0)):
            c_hat_half = window_constants(w).c_hat_half * fault
            eta = np.linspace(0.0, 12.0 / w.sigma, 4001)
            val = np.trapezoid(np.abs(window_ft(w, eta)) ** 2, eta)
            assert abs(val - c_hat_half) < 1e-6 * c_hat_half

    @check("backprojection filter is scale and rotation invariant")
    def _freq():
        w = WindowSpec("gaussian", sigma=1.0)
        xi = np.array([[1.0, 0.0], [0.0, 2.5], [1.2, -0.7]])
        dev, c, _ = t1_frequency_check(w, xi, n_theta=128)
        c /= fault  # c = J / int |h|^2, the constant the fault scales
        assert dev < 1e-3
        assert abs(c - 2.0 * np.pi**2) < 1e-3 * 2.0 * np.pi**2

    @check("mellin shift property")
    def _shift():
        r = np.geomspace(1e-6, 100.0, 1024)
        f = np.exp(-4.0 * np.log(r) ** 2)
        y = np.linspace(-5, 5, 21)
        a = mellin_transform(r, r * f, 1.5, y)
        b = mellin_transform(r, f, 2.5, y)
        assert np.max(np.abs(a.values - b.values)) < 1e-8 * np.max(np.abs(b.values))

    @check("angular harmonics of cos(theta)")
    def _harm():
        theta = 2.0 * np.pi * np.arange(32) / 32
        rho = np.geomspace(0.5, 2.0, 8)
        vals = np.broadcast_to(np.cos(theta), (8, 32)).copy()
        g = PolarWRT(rho, theta, WindowSpec("bump", radius=1.0), vals)
        series = circular_decompose(g, 2)
        assert np.allclose(series.coefficient(1), 0.5, atol=1e-12)
        assert np.allclose(series.coefficient(0), 0.0, atol=1e-12)

    @check("spectral inversion recovers a gaussian")
    def _t2():
        spec = gaussian_phantom((0.0, 0.0), 1.2)
        w = WindowSpec("gaussian", sigma=1.0)
        grid = make_grid(2, 48, 30.0)
        dirs, _ = uniform_circle(48)
        data = windowed_ray_transform(
            spec, w, grid, polar_vset(dirs, np.geomspace(0.05, 3.0, 10)),
            QuadratureParams(panels=8))
        samples = extract_polar_spectrum(data, np.linspace(0.0, 4.0, 33))
        out = make_grid(2, 32, 12.0)
        rec = reconstruct_t2(samples, w, out)
        assert rel_l2_error(rec, sample_phantom(spec, out)) < 0.05

    return checks


def cmd_selftest(args):
    failures = 0
    rows = []
    for name, fn in _selftest_checks(fault=1.5 if args.inject_fault else 1.0):
        t0 = time.time()
        try:
            fn()
            status = "pass"
        except Exception as exc:  # report, keep going
            status = f"FAIL ({type(exc).__name__}: {exc})"
            failures += 1
        rows.append((name, status, time.time() - t0))
    width = max(len(r[0]) for r in rows)
    for name, status, dt in rows:
        print(f"{name:<{width}}  {status}  [{dt:.2f}s]")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_NUMERIC
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------


# flags several subcommands read; each subcommand gets only those it reads
_SHARED = {"--out": dict(default="out"), "--seed": dict(type=int, default=0),
           "--json": dict(action="store_true"), "--shape": dict(type=int, default=64),
           "--extent": dict(type=float, default=20.0), "--center": dict(default="0")}
_GRID = ("--shape", "--extent", "--center")


def build_parser():
    p = _Parser(prog="wrtkit", description="windowed ray transform toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def shared(sp, *names):  # --threads, which main reads for every command, and ``names``
        sp.add_argument("--threads", type=int, default=None)
        for name in names:
            sp.add_argument(name, **_SHARED[name])

    sp = sub.add_parser("phantom", help="sample a phantom spec onto a grid")
    sp.add_argument("--spec", required=True)
    shared(sp, "--out", "--json", *_GRID)
    sp.set_defaults(fn=cmd_phantom)

    sp = sub.add_parser("forward", help="simulate the windowed ray transform")
    sp.add_argument("--phantom")
    sp.add_argument("--in", dest="infile")
    sp.add_argument("--window", required=True)
    sp.add_argument("--vmode", default="polar", choices=["polar", "v1-line", "perp"])
    sp.add_argument("--ndirs", type=int, default=32)
    sp.add_argument("--rmin", type=float, default=0.05)
    sp.add_argument("--rmax", type=float, default=4.0)
    sp.add_argument("--nr", type=int, default=16)
    sp.add_argument("--jitter", type=float, default=0.0)
    sp.add_argument("--v1max", type=float, default=8.0)
    sp.add_argument("--nv1", type=int, default=32)
    sp.add_argument("--vprime", type=float, default=0.0)
    sp.add_argument("--rho-min", type=float, default=1e-6)
    sp.add_argument("--rho-max", type=float, default=8.0)
    sp.add_argument("--nrho", type=int, default=256)
    sp.add_argument("--ntheta", type=int, default=64)
    sp.add_argument("--quad-panels", type=int, default=16)
    sp.add_argument("--oracle", action="store_true")
    shared(sp, "--out", "--seed", "--json", *_GRID)
    sp.set_defaults(fn=cmd_forward)

    sp = sub.add_parser("invert", help="reconstruct a field from transform data")
    sp.add_argument("--method", required=True, choices=["t1", "t2", "slice", "mellin"])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--window")
    sp.add_argument("--constant-mode", default="theory", choices=CONSTANT_MODES)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--rmin", type=float, default=0.02)
    sp.add_argument("--rmax", type=float, default=8.0)
    sp.add_argument("--sigma-max", type=float, default=6.0)
    sp.add_argument("--nsigma", type=int, default=64)
    sp.add_argument("--dump-pss", default=None)
    sp.add_argument("--apodize", default="hann")
    sp.add_argument("--slice-a", type=float, default=0.0)
    sp.add_argument("--lmax", type=int, default=16)
    sp.add_argument("--mellin-t", type=float, default=2.0)
    sp.add_argument("--mellin-T", type=float, default=40.0)
    sp.add_argument("--reg-lambda", type=float, default=None)
    shared(sp, "--out", "--json", *_GRID)
    sp.set_defaults(fn=cmd_invert)

    sp = sub.add_parser("compare", help="compare two gf1 fields")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--pgm", default=None)
    shared(sp, "--json")
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("calibrate", help="fit the inversion constant empirically")
    sp.add_argument("--method", required=True, choices=["t1", "t2"])
    sp.add_argument("--window", required=True)
    sp.add_argument("--phantoms", nargs="*", default=None)
    sp.add_argument("--fast", action="store_true")
    shared(sp, "--json")
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("selftest", help="run the reduced property suite")
    sp.add_argument("--inject-fault", action="store_true",
                    help="corrupt an internal constant to exercise failure paths")
    shared(sp)
    sp.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    formatwarning = warnings.formatwarning  # a caller that records warnings still gets them
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"  # one stderr line
    try:
        args = parser.parse_args(argv)
        _pool.limit = _pool.requested(args.threads)  # --threads, else WRTKIT_THREADS; 0: auto
        return args.fn(args)
    except (HypothesisError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WrtError as exc:  # ValidationError and the rest: usage or validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        _pool.limit = None  # an in-process caller's next command reads its own setting
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
