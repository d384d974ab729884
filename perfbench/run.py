"""wrtkit benchmark: time to an oracle-checked reconstruction, per workload.

    python3 perfbench/run.py --workload spectral-oracle --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/``
of the checkout the script sits in; nothing is installed.  One run sets
up the workload's inputs from the seed (three times: here and in two
child processes, and reports the median), then makes closed-loop passes
until ``--seconds`` have gone by (always at least one).  Every pass checks
its outputs against closed-form oracles; a miss counts as a failed
operation.  With ``--trace 0`` the end-to-end metrics named in
BENCHMARK.json are reported as medians over the passes; with ``--trace 1``
untraced and traced passes alternate, the per-layer metrics come from the
traced ones, and one single-threaded pass runs in a child process as an
informational baseline.  The last line of standard output is one JSON
object; a record with the machine, every pass and every check is written
under ``.perfbench_out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("spectral-oracle", "quadrature-slice", "cli-perp-mellin")
# numpy.fft is single-threaded; these cap the BLAS pool
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_SETUPS = 2
CHILD_TIMEOUT_S = 150
ROUTES = ("t1", "t2", "slice", "mellin")
ROUTE_ACCURACY = ("t1_rel_l2", "t2_rel_l2", "slice_residual", "mellin_rel_l2")
# measured on the untraced passes of a traced run, reported with the layers
STAGE_METRICS = ("forward_s", "invert_s", "samples_per_s", "forward_dev",
                 *(f"{r}_s" for r in ROUTES), *ROUTE_ACCURACY)
LAYER_CALLS = ("fields.continuous_ft", "invert_mellin.circular_decompose",
               "invert_mellin.mellin_transform", "invert_mellin.mellin_kernel_line",
               "invert_mellin.recover_fl", "invert_mellin.reconstruct_mellin")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=0,
                   help="BLAS threads for this process, capped at nproc (0: nproc)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def median(xs):
    return statistics.median(xs)


def child(args, threads, *flags):
    """Run this script again with the same workload and seed; returns its last JSON line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--threads", str(threads), *flags]
    env = dict(os.environ, **{v: str(threads) for v in THREAD_VARS})
    res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"child {' '.join(flags)} exited {res.returncode}: "
                           f"{res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def machine_record(np, threads):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    import scipy

    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "fft": "numpy.fft (pocketfft, single-threaded)",
        "commit": commit,
    }


def pass_summary(p):
    ratios = [v / tol for _, _, v, tol, pinned in p.checks if pinned]
    fwd = [v / tol for _, name, v, tol, _ in p.checks
           if name.endswith("forward_dev") or name == "disk_identity_residual"]
    out = {
        "run_s": p.times["run"],
        "forward_s": p.times["forward"],
        "invert_s": p.times["invert"],
        "samples": p.samples,
        "samples_per_s": p.samples / p.times["forward"] if p.times["forward"] > 0 else 0.0,
        "err_ratio": max(ratios) if ratios else float("inf"),
        "forward_dev": max(fwd) if fwd else None,
        "ops": dict(p.ops),
        "checks": {name: [v, tol] for _, name, v, tol, _ in p.checks},
        "info": p.info,
    }
    for r in ROUTES:
        if r in p.times:
            out[f"{r}_s"] = p.times[r]
    return out


def layer_metrics(tracer, run_s, names):
    """Per-layer values of one traced pass."""
    m = {}
    for key, val in tracer.self_s.items():
        m[f"{key}.s"] = val
    for key in LAYER_CALLS:
        m[f"{key}.calls"] = tracer.calls.get(key, 0)
    m.update(tracer.counts)
    nodes = tracer.counts.get("forward.windowed_ray_transform.ray_nodes", 0)
    m["forward.windowed_ray_transform.ns_per_ray_node"] = (
        1e9 * tracer.counted_s["forward.windowed_ray_transform.ray_nodes"] / nodes if nodes else 0.0)
    m["trace.unaccounted_s"] = run_s - tracer.root_s
    m["trace.spans"] = sum(tracer.calls.values())
    # layers not reached on this workload read zero
    return {n: m.get(n, 0.0) for n in names}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wrtkit", "__init__.py")):
        print(f"error: no package source at {os.path.join(SRC, 'wrtkit')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    threads = max(1, min(args.threads or nproc(), nproc()))
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import numpy as np
    import wrtkit

    if not os.path.abspath(wrtkit.__file__).startswith(SRC + os.sep):
        print(f"error: wrtkit imported from {wrtkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from layers import Tracer

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        return measure(args, threads, np, workloads, Tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, threads, np, workloads, Tracer, workdir):
    setup, _ = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, workdir)
    setup_s = time.perf_counter() - T_START
    tracer = Tracer()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.one_pass:
        s = pass_summary(workloads.run_pass(args.workload, inputs, tracer))
        print(json.dumps({k: s[k] for k in ("run_s", "forward_s", "invert_s")}
                         | {"failed": sum(v is not None for v in s["ops"].values())}))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    setups = [setup_s] + [child(args, threads, "--setup-only")["setup_s"]
                          for _ in range(CHILD_SETUPS)]

    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while True:
        # another pass (or traced pair) only while at least half of it fits
        # in the time left, so a run lasts about --seconds; always one
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for use_trace in (order if args.trace else (False,)):
            if not use_trace:
                plain.append(pass_summary(workloads.run_pass(args.workload, inputs, tracer)))
                continue
            restore = tracer.install()
            tracer.reset()
            tracer.run_id = f"{args.workload}-seed{args.seed}-pass{len(traced)}"
            tracer.enabled = True
            try:
                p = workloads.run_pass(args.workload, inputs, tracer)
            finally:
                tracer.enabled = False
                restore()
            traced.append(pass_summary(p))
            layers.append(layer_metrics(tracer, p.times["run"],
                                        [m["name"] for m in spec["per_layer"]]))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(plain) > args.seconds:
            break

    every = plain + traced
    attempted = sum(len(s["ops"]) for s in every)
    failures = [(i, op, why) for i, s in enumerate(every)
                for op, why in s["ops"].items() if why is not None]
    checks0 = plain[0]["checks"]
    deterministic = all(s["checks"] == checks0 for s in every)

    e2e = {
        "setup_s": median(setups),
        "run_s": median([s["run_s"] for s in plain]),
        "err_ratio": median([s["err_ratio"] for s in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # stage and route figures of the untraced passes; a route that does not
    # run on this workload is absent here and reads zero in the traced output
    stages = {k: median([s[k] for s in plain])
              for k in ("forward_s", "invert_s", "samples_per_s")}
    for r in ROUTES:
        if f"{r}_s" in plain[0]:
            stages[f"{r}_s"] = median([s[f"{r}_s"] for s in plain])
    for key in ROUTE_ACCURACY:
        if key in checks0:
            stages[key] = checks0[key][0]
    if plain[0]["forward_dev"] is not None:
        stages["forward_dev"] = max(s["forward_dev"] for s in plain)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(np, threads),
        "setups_s": setups, "passes": plain, "traced_passes": traced,
        "end_to_end": e2e, "stages": stages, "failed_frac": len(failures) / attempted,
        "deterministic_checks": deterministic,
    }
    if args.trace:
        per = {k: median([lm[k] for lm in layers]) for k in layers[0]}
        per.update({k: stages.get(k, 0.0) for k in per if k in STAGE_METRICS})
        per["trace.overhead_s"] = (median([s["run_s"] for s in traced])
                                   - median([s["run_s"] for s in plain]))
        record["per_layer"] = per
        record["single_thread_pass"] = child(args, 1, "--one-pass")
        tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.json"))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {threads} BLAS thread(s) of {nproc()}")
    for k, v in {**e2e, **stages, "failed_frac": record["failed_frac"]}.items():
        print(f"  {k:<16} {v:12.6g} {units.get(k, 'ratio')}")
    for name, (v, tol) in checks0.items():
        print(f"  check {name:<26} {v:11.4e} <= {tol:.4e}")
    if not deterministic:
        print("  note: check values differ between passes of the same seed")
    if args.trace:
        st = record["single_thread_pass"]
        print(f"  single-threaded pass (informational): run_s {st['run_s']:.4f} s")
        run_traced = median([s["run_s"] for s in traced])
        print(f"  traced run_s {run_traced:.4f} s; layer self times as a share of it:")
        per = record["per_layer"]
        layer_s = [k for k in per if k.endswith(".s") or k == "trace.unaccounted_s"]
        for k in sorted(layer_s, key=per.get, reverse=True):
            if per[k] >= 0.001 * run_traced:
                print(f"    {k:<42} {per[k]:10.4f} s {100 * per[k] / run_traced:6.2f} %")
    for i, op, why in failures:
        print(f"  FAILED pass {i}: {op}: {why}")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = record["per_layer"] if args.trace else e2e
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n] if math.isfinite(values[n]) else None,
                        "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
