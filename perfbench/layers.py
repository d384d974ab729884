"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each listed public function of ``src/wrtkit``
with a wrapper, everywhere the function object is looked up: in its own
module, in every other ``wrtkit`` module that imported it by name, and in
the package namespace.  Methods are wrapped on their class.  While the
tracer is enabled a wrapper records a span (name, start, end, parent, run
id), adds its self time (duration minus the time covered by child spans)
to the layer, counts the call and, where a counter is given, the work the
call's inputs imply.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict


def _rays(a):
    return a["u_grid"].size * len(a["vset"])


def _ray_nodes(a):
    # The node count per ray is fixed by the inputs only when panel
    # refinement is off; otherwise it depends on the source and |v|, so
    # the call is left out of the count instead of guessed.
    w, quad = a["w"], a["quad"]
    if w.kind == "analytic-signal":
        return None
    if quad.max_panels is not None and quad.max_panels > quad.panels:
        return None
    return _rays(a) * quad.panels * quad.nodes


def _t1_slices(a):
    radii, p = a["data"].vset.radii, a["params"]
    inside = sum(1 for r in radii if p.r_min - 1e-12 <= r <= p.r_max + 1e-12)
    return a["data"].vset.directions.shape[0] * inside


def _t1_fft_points(a):
    size = 1
    for n in a["data"].u_grid.shape:
        size *= int(n * a["params"].pad)
    return 2 * _t1_slices(a) * size


def _dir_bytes(a):
    path = a["path"]
    return sum(os.path.getsize(os.path.join(path, f)) for f in ("meta.json", "data.bin"))


# (module, attribute, {count name: function of the bound arguments})
TARGETS = [
    ("fields", "PhantomSpec.evaluate_along_rays",
     {"points": lambda a: len(a["u"]) * len(a["t"])}),
    ("fields", "continuous_ft", {}),
    ("fields", "sample_phantom", {}),
    ("forward", "windowed_ray_transform", {"rays": _rays, "ray_nodes": _ray_nodes}),
    ("forward", "wrt_polar_perp", {"rays": lambda a: len(a["rho"]) * len(a["theta"])}),
    ("forward", "analytic_wrt_data", {"values": _rays}),
    ("forward", "fourier_identity_residual", {}),
    ("windows", "window_ft", {}),
    ("windows", "window_eval", {}),
    ("invert_bp", "reconstruct_t1", {"slices": _t1_slices, "fft_points": _t1_fft_points}),
    ("calibrate", "calibrate_constant", {"phantoms": lambda a: len(a["phantoms"])}),
    ("invert_fourier", "extract_polar_spectrum", {"slices": lambda a: len(a["data"].vset)}),
    ("invert_fourier", "reconstruct_t2",
     {"synth_terms": lambda a: a["samples"].angles.size * a["samples"].sigma.size
      * a["grid"].size}),
    ("invert_slice", "make_slice_dataset", {}),
    ("invert_slice", "slice_extract", {}),
    ("invert_slice", "reconstruct_slice", {}),
    ("invert_mellin", "circular_decompose", {}),
    ("invert_mellin", "mellin_transform", {}),
    ("invert_mellin", "mellin_kernel_line", {}),
    ("invert_mellin", "recover_fl", {}),
    ("invert_mellin", "reconstruct_mellin", {}),
    ("io", "write_wrt1", {"bytes": _dir_bytes}),
    ("io", "read_wrt1", {"bytes": _dir_bytes}),
    ("io", "write_gf1", {"bytes": _dir_bytes}),
    ("io", "read_gf1", {"bytes": _dir_bytes}),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = None
        self.spans = []          # (name, start, end, parent index or None, run id)
        self._stack = []         # [span index, child time]
        self.reset()

    def reset(self):
        """Start a new accumulation window (one pass)."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.counted_s = defaultdict(float)  # inclusive time of calls that reported a count
        self.root_s = 0.0

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        dur = span[2] - span[1]
        self.self_s[span[0]] += dur - child
        self.calls[span[0]] += 1
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_s += dur
        return dur

    @contextlib.contextmanager
    def span(self, name):
        """A span around code that is not a wrapped function, such as one CLI command."""
        if not self.enabled:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, orig, name, counters):
        sig = inspect.signature(orig) if counters else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = self._close()
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, fn in counters.items():
                    n = fn(bound.arguments)
                    if n is not None:
                        self.counts[f"{name}.{key}"] += int(n)
                        self.counted_s[f"{name}.{key}"] += dur
            return result

        return wrapper

    def install(self):
        """Wrap every target; returns a function that undoes it."""
        undo = []
        pkg_modules = [m for k, m in sorted(sys.modules.items())
                       if k == "wrtkit" or k.startswith("wrtkit.")]
        for module, attr, counters in TARGETS:
            mod = sys.modules[f"wrtkit.{module}"]
            name = f"{module}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, counters))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, counters)
            for m in pkg_modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        undo.append((m, key, orig))

        def restore():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

        return restore

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)

