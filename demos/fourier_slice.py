"""Fourier-slice extraction from a 2-D transform in (u1, v1).

The 2-D FT of the data in (u1, v1), read exactly at tau = a sigma, is
proportional to fhat1(sigma, .) h(a).  The v1 window is finite, so the
identity holds up to a smearing kernel of width ~ pi / (V |sigma|); the
demo shows the residual falling as V doubles, the invariance in the free
parameter a, and a full reconstruction.  The datasets take the library's
default quadrature rule.  Exits 1 when the residual stops falling or the
V = 16 deviation between a = 0 and a = 0.5 exceeds 0.001: the exact read
gives 0.0004 here, a linear interpolation between the tau bins around
a sigma 0.0014.
"""

import sys
import warnings

import numpy as np

from wrtkit import gaussian_phantom, gaussian_window, make_grid, rel_l2_error, sample_phantom
from wrtkit.invert_slice import (
    SliceParams,
    make_slice_dataset,
    reconstruct_slice,
    slice_extract,
    symmetric_offset_grid,
)

CENTER, SIG = (0.3, -0.2), 0.8


def fhat1(sigma, x2):
    c1, c2 = CENTER
    amp = SIG * np.sqrt(2.0 * np.pi) * np.exp(-0.5 * (SIG * sigma) ** 2)
    return np.multiply.outer(
        amp * np.exp(-1j * sigma * c1), np.exp(-0.5 * (x2 - c2) ** 2 / SIG**2)
    )


def dataset(V):
    u1 = np.arange(-400, 400) * 0.5
    u2 = make_grid(1, 64, 16.0).axis_coords(0)
    v1 = symmetric_offset_grid(V, min(V / 24.0, 1.0 / 3.0))
    return make_slice_dataset(gaussian_phantom(CENTER, SIG), gaussian_window(2.0), u1, u2, v1)


def main():
    errs = []
    for V in (2.0, 4.0, 8.0, 16.0):
        ds = dataset(V)
        spec = slice_extract(ds, SliceParams(a=0.0))
        band = (np.abs(spec.sigma) > 0.4) & (np.abs(spec.sigma) < 2.5)
        want = fhat1(spec.sigma[band], spec.zeta)
        err = np.linalg.norm(spec.values[band] - want) / np.linalg.norm(want)
        print(f"V = {V:5.1f}: mid-band extraction residual {err:.4f}")
        errs.append(err)
        if V == 16.0:
            alt = slice_extract(ds, SliceParams(a=0.5))
            dev = np.linalg.norm(alt.values[band] - spec.values[band]) / np.linalg.norm(
                spec.values[band]
            )
            print(f"           a = 0 vs a = 0.5 deviation {dev:.4f}")

    ds = dataset(32.0)
    spec = slice_extract(ds, SliceParams(a=0.0))
    out = make_grid(2, 48, 12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = reconstruct_slice(spec, out)
    err = rel_l2_error(rec, sample_phantom(gaussian_phantom(CENTER, SIG), out))
    print(f"full reconstruction (V = 32) rel-L2 error: {err:.4f}")
    if not all(b < a for a, b in zip(errs, errs[1:])) or dev > 1e-3:
        sys.exit("the residual must fall with V and the a = 0.5 deviation stay <= 0.001")


if __name__ == "__main__":
    main()
