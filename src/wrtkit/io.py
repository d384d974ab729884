"""On-disk formats.

Every dataset is a directory holding ``meta.json`` plus ``data.bin`` with
raw little-endian values in C (row-major) order; complex data is stored
as interleaved (re, im) float64 pairs.  A payload is read and written one
block of rows at a time, so no second whole copy of it is held.  Formats:

* ``gf1``  -- real scalar field on a uniform grid (kind ``scalar``, f64)
* ``wrt1`` -- windowed-ray-transform data: u-grid x vset, stored (M, Nv)
  in C order (u-major), or the polar perpendicular configuration
  (``vset.mode == "perp"``).  ``WRTData`` keeps its values v-major, so
  reading and writing transpose them block by block of rows
* ``pss1`` -- polar spectral samples (debugging dump)

PGM export writes an 8-bit image with the linear min-max scaling recorded
in a JSON sidecar, so values remain recoverable.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ValidationError
from .fields import Grid, PhantomSpec, ScalarField
from .forward import PolarWRT, VSet, WRTData, polar_vset, v1_line_vset
from .invert_fourier import PolarSpectralSamples
from .windows import WindowSpec

__all__ = [
    "write_gf1",
    "read_gf1",
    "write_wrt1",
    "read_wrt1",
    "write_pss1",
    "read_pss1",
    "write_pgm",
    "phantom_from_json",
    "phantom_to_json",
    "window_from_json",
    "window_to_json",
]

_DTYPES = {"f64": "<f8", "c128": "<c16"}
_BLOCK = 2**15  # values per block of rows read or written (256 KB of f64)


def _row_blocks(array):
    """Views of ``array`` (a 0-d one is one row) cut along its first axis
    into blocks of at most _BLOCK values, one row at least."""
    rows = np.atleast_1d(array)
    step = max(1, _BLOCK // max(1, int(np.prod(rows.shape[1:]))))
    return [rows[r:r + step] for r in range(0, len(rows), step)]


def _write_dir(path, meta, array):
    os.makedirs(path, exist_ok=True)
    dtype = _DTYPES[meta["dtype"]]
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, "data.bin"), "wb") as fh:
        for block in _row_blocks(array):
            np.ascontiguousarray(block, dtype=dtype).tofile(fh)


def _extent(n):
    """A meta shape entry as an int: a JSON number that is whole and >= 1
    (no format holds an empty axis), else ValueError."""
    if isinstance(n, bool) or not isinstance(n, (int, float)) or not n >= 1 or n != int(n):
        raise ValueError(f"shape entry {n!r} is not a whole number >= 1")
    return int(n)


def _gf1_layout(m):
    grid = _grid_from_meta(m)
    return grid, grid.shape, "C"


def _wrt1_layout(m):
    v = m["vset"]
    if v["mode"] == "perp":
        rho, theta = (np.asarray(v[k], dtype=float) for k in ("rho", "theta"))
        return (rho, theta), (rho.size, theta.size), "C"
    # WRTData's v-major values: (M, Nv) in F order, the transpose of C-order (Nv, M)
    grid, vset = _grid_from_meta(m["u_grid"]), _vset_from_meta(v)
    return (grid, vset), (grid.size, len(vset)), "F"


def _pss1_layout(m):
    axes = tuple(np.asarray(m[k], dtype=float) for k in ("angles", "sigma", "radii"))
    return axes, tuple(a.size for a in axes), "C"


# the meta keys each format requires, and the parser of its meta: it returns
# what the reader builds on (parsed here, so a malformed entry is a meta
# error), the payload shape and the memory order of the array read
_LAYOUTS = {
    "gf1": (("kind", "shape", "origin", "spacing"), _gf1_layout),
    "wrt1": (("vset", "window"), _wrt1_layout),
    "pss1": (("angles", "sigma", "radii"), _pss1_layout),
}


def _read_dir(path, expected_format):
    """(meta, the format's parsed meta, payload shaped as the meta implies);
    malformed meta, missing keys and a payload of the wrong length raise
    ValidationError."""
    meta_path = os.path.join(path, "meta.json")
    if not os.path.isfile(meta_path):
        raise ValidationError(f"{path}: not a dataset directory (meta.json missing)")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: meta.json is not valid JSON ({exc})")
    if not isinstance(meta, dict):
        raise ValidationError(f"{path}: meta.json is not a JSON object")
    if meta.get("format") != expected_format:
        raise ValidationError(
            f"{path}: format {meta.get('format')!r}, expected {expected_format!r}"
        )
    if not isinstance(meta.get("dtype"), str) or meta["dtype"] not in _DTYPES:
        raise ValidationError(f"{path}: unsupported dtype {meta.get('dtype')!r}")
    if meta.get("order", "C") != "C":
        raise ValidationError(f"{path}: only C (row-major) order is supported")
    keys, layout_of = _LAYOUTS[expected_format]
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ValidationError(f"{path}: meta.json lacks {', '.join(map(repr, missing))}")
    try:
        parsed, shape, memory = layout_of(meta)
        shape = tuple(_extent(n) for n in shape)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed meta.json ({type(exc).__name__}: {exc})")
    dtype = np.dtype(_DTYPES[meta["dtype"]])
    data_path = os.path.join(path, "data.bin")
    try:
        nbytes = os.path.getsize(data_path)
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise ValidationError(f"{path}: data.bin holds {nbytes} bytes, the meta implies "
                                  f"{shape} values of {dtype.itemsize} bytes")
        data = np.empty(shape, dtype=dtype, order=memory)
        blocks = _row_blocks(data)
        buf = np.empty(blocks[0].shape if blocks else 0, dtype=dtype)  # one C-order block, reused
        with open(data_path, "rb") as fh:
            for block in blocks:
                fh.readinto(buf[:len(block)])
                block[...] = buf[:len(block)]
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read data.bin ({exc})")
    return meta, parsed, data


def _grid_meta(grid):
    return {
        "shape": list(grid.shape),
        "origin": list(grid.origin),
        "spacing": list(grid.spacing),
    }


def _grid_from_meta(m):
    return Grid(tuple(_extent(n) for n in m["shape"]), tuple(m["origin"]), tuple(m["spacing"]))


# ---------------------------------------------------------------------------
# gf1


def write_gf1(path, field):
    """Write a real ScalarField (the only kind gf1 stores)."""
    if not isinstance(field, ScalarField) or np.iscomplexobj(field.values):
        raise ValidationError("gf1 stores a real ScalarField, not complex samples")
    meta = {"format": "gf1", "kind": "scalar", "n": field.grid.n, "dtype": "f64",
            "order": "C", **_grid_meta(field.grid)}
    _write_dir(path, meta, field.values)


def read_gf1(path):
    """The ScalarField of a gf1 directory; any kind but f64 'scalar' is rejected."""
    meta, grid, values = _read_dir(path, "gf1")
    if meta["kind"] != "scalar" or meta["dtype"] != "f64":
        raise ValidationError(f"{path}: gf1 holds f64 scalars, not {meta['kind']} {meta['dtype']}")
    return ScalarField(grid, values)


# ---------------------------------------------------------------------------
# wrt1


def window_to_json(w):
    out = {"kind": w.kind}
    if w.sigma is not None:
        out["sigma"] = w.sigma
    if w.radius is not None:
        out["radius"] = w.radius
    return out


def window_from_json(obj):
    try:
        return WindowSpec(obj["kind"], sigma=obj.get("sigma"), radius=obj.get("radius"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(f"malformed window spec ({type(exc).__name__}: {exc})")


def phantom_to_json(spec):
    return {"kind": spec.kind, "components": [dict(c) for c in spec.components]}


def phantom_from_json(obj):
    """PhantomSpec of a JSON object; PhantomSpec checks the components."""
    try:
        return PhantomSpec(obj["kind"], tuple(obj["components"]))
    except KeyError as exc:
        raise ValidationError(f"phantom spec missing field {exc}")
    except TypeError as exc:
        raise ValidationError(f"malformed phantom spec ({exc})")


def _vset_meta(vset):
    out = {"mode": vset.mode}
    if vset.mode == "polar":
        out["directions"] = np.asarray(vset.directions).tolist()
        out["radii"] = np.asarray(vset.radii).tolist()
    elif vset.mode == "v1-line":
        out["v1"] = np.asarray(vset.v1).tolist()
        out["vprime"] = np.asarray(vset.vprime).tolist()
    else:
        out["vectors"] = np.asarray(vset.vectors).tolist()
    return out


def _vset_from_meta(m):
    mode = m["mode"]
    if mode == "polar":
        return polar_vset(np.asarray(m["directions"]), np.asarray(m["radii"]))
    if mode == "v1-line":
        return v1_line_vset(np.asarray(m["v1"]), np.asarray(m["vprime"]))
    if mode == "full-grid":
        return VSet("full-grid", np.asarray(m["vectors"]))
    raise ValidationError(f"unknown vset mode {mode!r}")


def write_wrt1(path, data):
    """Write WRTData or PolarWRT (the latter stored as vset mode 'perp')."""
    if isinstance(data, PolarWRT):
        layout = {"vset": {"mode": "perp", "rho": np.asarray(data.rho).tolist(),
                           "theta": np.asarray(data.theta).tolist()}}
    else:
        layout = {"u_grid": _grid_meta(data.u_grid), "vset": _vset_meta(data.vset)}
    meta = {
        "format": "wrt1",
        **layout,
        "window": window_to_json(data.window),
        "dtype": "c128" if np.iscomplexobj(data.values) else "f64",
        "order": "C",
    }
    _write_dir(path, meta, data.values)


def read_wrt1(path):
    meta, axes, data = _read_dir(path, "wrt1")
    w = window_from_json(meta["window"])
    if meta["vset"]["mode"] == "perp":
        return PolarWRT(*axes, w, data)  # (rho, theta)
    return WRTData(*axes, w, data)  # (u grid, vset)


# ---------------------------------------------------------------------------
# pss1


def write_pss1(path, samples):
    meta = {
        "format": "pss1",
        "angles": np.asarray(samples.angles).tolist(),
        "sigma": np.asarray(samples.sigma).tolist(),
        "radii": np.asarray(samples.radii).tolist(),
        "window": window_to_json(samples.window) if samples.window else None,
        "dtype": "c128",
        "order": "C",
    }
    _write_dir(path, meta, samples.values)


def read_pss1(path):
    meta, axes, data = _read_dir(path, "pss1")
    w = window_from_json(meta["window"]) if meta.get("window") else None
    return PolarSpectralSamples(*axes, data, window=w)  # (angles, sigma, radii)


# ---------------------------------------------------------------------------
# pgm


def write_pgm(path, field):
    """8-bit PGM of a real 2-D field, min to max; the scaling goes to ``path + '.json'``."""
    if np.iscomplexobj(field.values):
        raise ValidationError("PGM export needs real samples, not complex ones")
    vals = np.asarray(field.values, dtype=float)
    if vals.ndim != 2:
        raise ValidationError("PGM export needs a 2-D field")
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo if hi > lo else 1.0
    img = np.clip(np.round((vals - lo) / span * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())
    with open(path + ".json", "w") as fh:
        json.dump({"min": lo, "max": hi, "levels": 256}, fh, indent=2)
        fh.write("\n")
