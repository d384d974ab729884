"""On-disk formats.

Every dataset is a directory holding ``meta.json`` plus ``data.bin`` with
raw little-endian values in C (row-major) order; complex data is stored
as interleaved (re, im) float64 pairs.  Formats:

* ``gf1``  -- real scalar field on a uniform grid (kind ``scalar``, f64)
* ``wrt1`` -- windowed-ray-transform data: u-grid x vset (u-major) or the
  polar perpendicular configuration (``vset.mode == "perp"``)
* ``pss1`` -- polar spectral samples (debugging dump)

PGM export writes an 8-bit image with the linear min-max scaling recorded
in a JSON sidecar, so values remain recoverable.
"""

from __future__ import annotations

import json
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


def _write_dir(path, meta, array):
    os.makedirs(path, exist_ok=True)
    dtype = _DTYPES[meta["dtype"]]
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    np.ascontiguousarray(array, dtype=dtype).tofile(os.path.join(path, "data.bin"))


def _wrt1_shape(m):
    v = m["vset"]
    if v["mode"] == "perp":  # parsed here, so malformed numbers are a meta error
        return np.asarray(v["rho"], dtype=float).size, np.asarray(v["theta"], dtype=float).size
    return _grid_from_meta(m["u_grid"]).size, len(_vset_from_meta(v))


# the meta keys each format requires, and the payload shape its meta implies
_LAYOUTS = {
    "gf1": (("kind", "shape", "origin", "spacing"), lambda m: m["shape"]),
    "wrt1": (("vset", "window"), _wrt1_shape),
    "pss1": (("angles", "sigma", "radii"),
             lambda m: (len(m["angles"]), len(m["sigma"]), len(m["radii"]))),
}


def _read_dir(path, expected_format):
    """(meta, payload shaped as the meta implies); malformed meta, missing
    keys and a payload of the wrong length raise ValidationError."""
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
    if meta.get("dtype") not in _DTYPES:
        raise ValidationError(f"{path}: unsupported dtype {meta.get('dtype')!r}")
    if meta.get("order", "C") != "C":
        raise ValidationError(f"{path}: only C (row-major) order is supported")
    keys, shape_of = _LAYOUTS[expected_format]
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ValidationError(f"{path}: meta.json lacks {', '.join(map(repr, missing))}")
    try:
        shape = tuple(int(n) for n in shape_of(meta))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed meta.json ({type(exc).__name__}: {exc})")
    try:
        data = np.fromfile(os.path.join(path, "data.bin"), dtype=_DTYPES[meta["dtype"]])
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read data.bin ({exc})")
    if data.size != int(np.prod(shape)):
        raise ValidationError(
            f"{path}: data.bin holds {data.size} values, the meta implies {shape}"
        )
    return meta, data.reshape(shape)


def _grid_meta(grid):
    return {
        "shape": list(grid.shape),
        "origin": list(grid.origin),
        "spacing": list(grid.spacing),
    }


def _grid_from_meta(m):
    return Grid(tuple(m["shape"]), tuple(m["origin"]), tuple(m["spacing"]))


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
    meta, values = _read_dir(path, "gf1")
    if meta["kind"] != "scalar" or meta["dtype"] != "f64":
        raise ValidationError(f"{path}: gf1 holds f64 scalars, not {meta['kind']} {meta['dtype']}")
    return ScalarField(_grid_from_meta(meta), values)


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
    meta, data = _read_dir(path, "wrt1")
    w = window_from_json(meta["window"])
    if meta["vset"]["mode"] == "perp":
        rho = np.asarray(meta["vset"]["rho"], dtype=float)
        theta = np.asarray(meta["vset"]["theta"], dtype=float)
        return PolarWRT(rho, theta, w, data)
    return WRTData(_grid_from_meta(meta["u_grid"]), _vset_from_meta(meta["vset"]), w, data)


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
    meta, data = _read_dir(path, "pss1")
    angles = np.asarray(meta["angles"], dtype=float)
    sigma = np.asarray(meta["sigma"], dtype=float)
    radii = np.asarray(meta["radii"], dtype=float)
    w = window_from_json(meta["window"]) if meta.get("window") else None
    return PolarSpectralSamples(angles, sigma, radii, data, window=w)


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
