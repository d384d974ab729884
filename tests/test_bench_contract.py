"""The package names and arguments that the benchmark's layer tracer reads.

``perfbench/layers.py`` wraps public functions of the package by name and
reads some of their arguments for its work counters.  This test loads that
file by path (it only reads it), installs its tracer, makes one tiny traced
call through each counted route, checks that the counters were recorded,
and restores the package.  A renamed or deleted traced name or counter
argument fails here instead of in a benchmark run.
"""

import importlib.util
import pathlib
import sys
import threading

import numpy as np
import pytest

import wrtkit
import wrtkit.cli  # the tracer looks up every wrapped module by name
import wrtkit.io
from wrtkit.invert_bp import BPParams
from wrtkit.invert_slice import SliceParams, symmetric_offset_grid
from wrtkit.quad import QuadratureParams

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore:the forward's rule needs")  # the coarse rule below
def test_tracer_records_the_counted_routes():
    originals = (wrtkit.windowed_ray_transform, wrtkit.forward.windowed_ray_transform)
    tracer = _load_layers().Tracer()
    restore = tracer.install()
    try:
        tracer.enabled = True
        spec = wrtkit.gaussian_phantom((0.2, -0.1), 0.8)
        w = wrtkit.gaussian_window(1.0)
        grid = wrtkit.make_grid(2, 16, 8.0)
        vset = wrtkit.polar_vset(wrtkit.uniform_circle(4)[0], np.geomspace(0.5, 2.0, 3))
        quad = QuadratureParams(panels=4, nodes=8, max_panels=None)
        data = wrtkit.windowed_ray_transform(spec, w, grid, vset, quad)
        wrtkit.reconstruct_t1(data, w, grid, BPParams(r_min=0.5, r_max=2.0, n_theta=4))
        u1 = 0.5 * np.arange(-16, 16)
        ds = wrtkit.make_slice_dataset(spec, wrtkit.gaussian_window(2.0), u1, u1[14:18],
                                       symmetric_offset_grid(2.0, 0.5), quad=quad)
        wrtkit.slice_extract(ds, SliceParams(a=0.0))
    finally:
        tracer.enabled = False
        restore()
    assert (wrtkit.windowed_ray_transform, wrtkit.forward.windowed_ray_transform) == originals
    slice_rays = u1.size * 4 * 8
    assert tracer.counts["forward.windowed_ray_transform.rays"] == grid.size * len(vset) + slice_rays
    assert tracer.counts["forward.windowed_ray_transform.ray_nodes"] > 0
    assert tracer.counts["invert_bp.reconstruct_t1.fft_points"] > 0
    assert tracer.counts["invert_bp.reconstruct_t1.slices"] == len(vset)
    for name in ("invert_slice.make_slice_dataset", "invert_slice.slice_extract",
                 "invert_bp.reconstruct_t1"):
        assert tracer.calls[name] == 1


def test_pool_threads_call_no_traced_name(monkeypatch):
    # The tracer keeps one span stack for all threads, so a traced call on a
    # pool thread would nest under whatever the caller has open.  Two
    # workers with a short switch interval interleave the threads often.
    monkeypatch.setenv("WRTKIT_THREADS", "2")
    interval = sys.getswitchinterval()
    tracer = _load_layers().Tracer()
    opened_on = []  # the thread that opened each span
    open_span = tracer._open
    monkeypatch.setattr(tracer, "_open",
                        lambda name: (opened_on.append(threading.get_ident()), open_span(name)))
    spec = wrtkit.gaussian_phantom((0.2, -0.1), 0.8)
    field = wrtkit.sample_phantom(spec, wrtkit.make_grid(2, 32, 10.0))
    restore = tracer.install()
    try:
        sys.setswitchinterval(1e-6)
        tracer.enabled = True
        w = wrtkit.gaussian_window(1.0)
        grid = wrtkit.make_grid(2, 96, 24.0)
        vset = wrtkit.polar_vset(wrtkit.uniform_circle(16)[0], np.geomspace(0.1, 4.0, 8))
        data = wrtkit.analytic_wrt_data(spec, w, grid, vset)
        wrtkit.reconstruct_t1(data, w, grid, BPParams(r_min=0.1, r_max=4.0))
        # the quadrature forward: planned calls of wrt_columns and of wrt_polar_perp;
        # the smoothed disk's pool threads evaluate it without the traced
        # PhantomSpec.evaluate_along_rays
        small = wrtkit.make_grid(2, 16, 12.0)
        few = wrtkit.polar_vset(wrtkit.uniform_circle(4)[0], np.array([0.5, 2.0]))
        disk = wrtkit.smoothed_disk_phantom((0.2, -0.1), 1.0, 0.3)
        for f, h in ((spec, w), (field, w), (disk, w), (spec, wrtkit.analytic_signal_window())):
            wrtkit.windowed_ray_transform(f, h, small, few, QuadratureParams(panels=8))
        wrtkit.wrt_polar_perp(spec, w, np.geomspace(0.05, 4.0, 48),
                              2.0 * np.pi * np.arange(64) / 64, QuadratureParams(panels=16))
    finally:
        sys.setswitchinterval(interval)
        tracer.enabled = False
        restore()
    spans = tracer.spans
    # neither route calls a traced name on a pool thread: every span was
    # opened on the caller, and only the forward's node rules call window_eval
    assert set(opened_on) == {threading.get_ident()} and len(opened_on) == len(spans)
    assert [s[0] for s in spans if s[0] != "windows.window_eval"] == [
        "forward.analytic_wrt_data", "invert_bp.reconstruct_t1",
        *["forward.windowed_ray_transform"] * 4, "forward.wrt_polar_perp"]
    assert not any(parent is not None and spans[parent][0] == name
                   for name, _, _, parent, _ in spans)
    assert tracer._stack == []
    assert tracer.calls["invert_bp.reconstruct_t1"] == 1
