import json

import numpy as np
import pytest

from wrtkit import (
    ScalarField,
    ValidationError,
    WRTData,
    analytic_signal_window,
    analytic_wrt_data,
    continuous_ft,
    extract_polar_spectrum,
    full_grid_vset,
    gaussian_phantom,
    gaussian_window,
    make_grid,
    polar_vset,
    sample_phantom,
    uniform_circle,
    wrt_polar_perp,
)
from wrtkit import io as wio
from wrtkit.quad import QuadratureParams
from wrtkit.windows import WindowSpec


def _field():
    grid = make_grid(2, 16, 8.0, center=(0.5, -0.25))
    return sample_phantom(gaussian_phantom((0.2, 0.1), 0.9), grid)


def test_gf1_roundtrip(tmp_path):
    f = _field()
    p = str(tmp_path / "field")
    wio.write_gf1(p, f)
    g = wio.read_gf1(p)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)


def test_window_json_roundtrip():
    for w in (WindowSpec("gaussian", sigma=1.5), WindowSpec("bump", radius=2.0),
              WindowSpec("analytic-signal")):
        assert wio.window_from_json(wio.window_to_json(w)) == w


def test_phantom_json_roundtrip():
    spec = gaussian_phantom((0.5, -1.0), 0.8, amplitude=2.0)
    back = wio.phantom_from_json(wio.phantom_to_json(spec))
    assert back == spec


def test_phantom_json_missing_field():
    with pytest.raises(ValidationError):
        wio.phantom_from_json({"kind": "gaussian", "components": [{"center": [0, 0]}]})


def test_wrt1_roundtrip_polar(tmp_path):
    spec = gaussian_phantom((0.1, 0.3), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 12, 6.0)
    data = analytic_wrt_data(spec, w, grid, polar_vset(uniform_circle(4)[0], [0.5, 1.2]))
    p = str(tmp_path / "data")
    wio.write_wrt1(p, data)
    back = wio.read_wrt1(p)
    assert back.u_grid == data.u_grid
    assert back.vset.mode == "polar"
    assert np.allclose(back.vset.vectors, data.vset.vectors)
    assert np.array_equal(back.values, data.values)
    assert back.window == data.window


def test_wrt1_roundtrip_full_grid(tmp_path):
    spec = gaussian_phantom((0.1, 0.3), 0.8)
    grid = make_grid(2, 12, 6.0)
    data = analytic_wrt_data(spec, gaussian_window(1.0), grid,
                             full_grid_vset(make_grid(2, 3, 2.0, center=(0.1, 0.2))))
    p = str(tmp_path / "data")
    wio.write_wrt1(p, data)
    back = wio.read_wrt1(p)
    assert back.u_grid == data.u_grid and back.window == data.window
    assert back.vset.mode == "full-grid"
    assert np.array_equal(back.vset.vectors, data.vset.vectors)
    assert np.array_equal(back.values, data.values)


@pytest.mark.parametrize("complex_values", [False, True], ids=["f64", "c128"])
def test_wrt1_file_holds_values_u_major_in_c_order(tmp_path, monkeypatch, complex_values):
    monkeypatch.setattr(wio, "_BLOCK", 40)  # blocks of 5 rows of 8 values, the last one short
    grid = make_grid(2, 12, 6.0)
    data = analytic_wrt_data(gaussian_phantom((0.1, 0.3), 0.8), gaussian_window(1.0), grid,
                             polar_vset(uniform_circle(4)[0], [0.5, 1.2]))
    if complex_values:
        data = WRTData(grid, data.vset, analytic_signal_window(), data.values * (1.0 - 0.5j))
    p = tmp_path / "data"
    wio.write_wrt1(str(p), data)
    stored = np.fromfile(p / "data.bin", dtype="<c16" if complex_values else "<f8")
    assert np.array_equal(stored.reshape(data.values.shape), data.values)
    back = wio.read_wrt1(str(p))
    assert np.array_equal(back.values, data.values)


def test_wrt1_roundtrip_perp(tmp_path):
    spec = gaussian_phantom((0.1, 0.3), 0.6)
    w = gaussian_window(1.0)
    rho = np.geomspace(0.2, 2.0, 8)
    theta = 2.0 * np.pi * np.arange(8) / 8
    g = wrt_polar_perp(spec, w, rho, theta, QuadratureParams(panels=4))
    p = str(tmp_path / "perp")
    wio.write_wrt1(p, g)
    back = wio.read_wrt1(p)
    assert np.allclose(back.rho, g.rho)
    assert np.allclose(back.theta, g.theta)
    assert np.array_equal(back.values, g.values)


def test_read_wrt1_rejects_perp_data_on_equal_radii(tmp_path):
    theta = 2.0 * np.pi * np.arange(8) / 8
    p = tmp_path / "perp"
    wio.write_wrt1(str(p), wrt_polar_perp(gaussian_phantom((0.1, 0.3), 0.6),
                                          gaussian_window(1.0), np.geomspace(0.2, 2.0, 8),
                                          theta, QuadratureParams(panels=4)))
    meta = json.loads((p / "meta.json").read_text())
    meta["vset"]["rho"] = [1.0] * 8  # a zero log step
    (p / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="positive step"):
        wio.read_wrt1(str(p))


def test_pss1_roundtrip(tmp_path):
    spec = gaussian_phantom((0.0, 0.0), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 48, 20.0)
    data = analytic_wrt_data(spec, w, grid, polar_vset(uniform_circle(4)[0], [0.5, 1.0]))
    samples = extract_polar_spectrum(data, np.linspace(0.0, 2.0, 9))
    p = str(tmp_path / "samples")
    wio.write_pss1(p, samples)
    back = wio.read_pss1(p)
    assert np.allclose(back.angles, samples.angles)
    assert np.allclose(back.sigma, samples.sigma)
    assert np.allclose(back.radii, samples.radii)
    assert np.array_equal(back.values, samples.values)


def test_gf1_holds_scalar_fields_only(tmp_path):
    f = _field()
    with pytest.raises(ValidationError):
        wio.write_gf1(str(tmp_path / "spectrum"), continuous_ft(f, warn_boundary=False))
    p = tmp_path / "field"
    wio.write_gf1(str(p), f)
    meta = json.loads((p / "meta.json").read_text())
    meta.update(kind="spectral", dtype="c128")
    (p / "meta.json").write_text(json.dumps(meta))
    (p / "data.bin").write_bytes(np.zeros(f.values.size, dtype="<c16").tobytes())
    with pytest.raises(ValidationError, match="spectral"):
        wio.read_gf1(str(p))


def test_read_gf1_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "field"
    wio.write_gf1(str(p), ScalarField(make_grid(2, 8, 4.0), np.zeros((8, 8))))
    with open(p / "data.bin", "ab") as fh:
        fh.write(b"abc")  # not a whole value: np.fromfile would drop it
    with pytest.raises(ValidationError, match="holds 515 bytes"):
        wio.read_gf1(str(p))


def test_pgm_output(tmp_path):
    f = _field()
    p = str(tmp_path / "img.pgm")
    wio.write_pgm(p, f)
    raw = open(p, "rb").read()
    assert raw.startswith(b"P5")
    side = json.load(open(p + ".json"))
    assert side["min"] == f.values.min() and side["max"] == f.values.max()


def test_real_outputs_reject_complex_fields(tmp_path):
    f = _field()
    z = ScalarField(f.grid, f.values * (1.0 - 0.5j))
    with pytest.raises(ValidationError, match="complex"):
        wio.write_gf1(str(tmp_path / "z"), z)
    with pytest.raises(ValidationError, match="complex"):
        wio.write_pgm(str(tmp_path / "z.pgm"), z)
    assert not any(tmp_path.iterdir())


def test_read_gf1_rejects_wrong_format(tmp_path):
    spec = gaussian_phantom((0.1, 0.3), 0.8)
    w = gaussian_window(1.0)
    grid = make_grid(2, 8, 4.0)
    data = analytic_wrt_data(spec, w, grid, polar_vset(uniform_circle(2)[0], [0.5]))
    p = str(tmp_path / "notafield")
    wio.write_wrt1(p, data)
    with pytest.raises(ValidationError):
        wio.read_gf1(p)
