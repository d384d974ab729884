"""Every library warning is raised by errors.warn, which names the first
caller line outside the package, however deep the library call that
warns: a dataset builder's forward, a reconstruction's harmonic series."""

import numpy as np
import pytest

from wrtkit import (
    ScalarField,
    analytic_signal_window,
    analytic_wrt_perp,
    continuous_ft,
    continuous_ift,
    gaussian_phantom,
    gaussian_window,
    make_grid,
    polar_vset,
    sample_phantom,
    uniform_circle,
    windowed_ray_transform,
    wrt_polar_perp,
)
from wrtkit.invert_mellin import reconstruct_mellin
from wrtkit.invert_slice import (
    SliceSpectrum,
    make_restricted_dataset,
    make_slice_dataset,
    reconstruct_slice,
    symmetric_offset_grid,
)
from wrtkit.quad import QuadratureParams

_SPEC = gaussian_phantom((0.3, -0.2), 0.8)
# the unrefined rule of 4 panels is wider than the phantom seen along |v| <= 1.75
_CAPPED = QuadratureParams(panels=4, max_panels=None)
_V1 = symmetric_offset_grid(2.0, 0.5)
_U1 = np.arange(-8, 8) * 0.5


def _slice_dataset():
    make_slice_dataset(_SPEC, gaussian_window(2.0), _U1, np.linspace(-1.0, 1.0, 4), _V1, quad=_CAPPED)


def _restricted_dataset():
    make_restricted_dataset(_SPEC, gaussian_window(2.0), _U1, _V1, [-1.0, 0.0, 1.0], quad=_CAPPED)


def _truncated_series():
    # closed-form perp data of an off-centre gaussian: its harmonic |l| = 2 is not negligible
    g = analytic_wrt_perp(gaussian_phantom((0.4, -0.2), 0.7), gaussian_window(1.0),
                          np.geomspace(1e-6, 12.0, 512), 2.0 * np.pi * np.arange(16) / 16)
    reconstruct_mellin(g, gaussian_window(1.0), 2, make_grid(2, 4, 2.0))


def _complex_slice_residue():
    sigma, zeta = np.linspace(-4.0, 4.0, 17), np.linspace(-2.0, 2.0, 5)
    reconstruct_slice(SliceSpectrum(sigma, zeta, 1j * np.ones((17, 5))), make_grid(2, 4, 2.0))


def _complex_inverse_transform():
    f = sample_phantom(gaussian_phantom((0.0, 0.0), 1.0), make_grid(2, 16, 16.0))
    F = continuous_ft(f)
    continuous_ift(ScalarField(F.grid, 1j * F.values), f.grid)


def _cut_field_forward():
    field = sample_phantom(gaussian_phantom((4.2, 0.5), 0.6), make_grid(2, 32, 10.0))
    vset = polar_vset(uniform_circle(4)[0], [1.0])
    windowed_ray_transform(field, gaussian_window(1.0), make_grid(2, 12, 14.0), vset,
                           QuadratureParams(panels=8))


def _unresolved_pole():
    # rho = 1e-3 is the one row below |v| = 1e-2: 4 rays
    wrt_polar_perp(_SPEC, analytic_signal_window(), np.geomspace(1e-3, 4.0, 4),
                   2.0 * np.pi * np.arange(4) / 4)


@pytest.mark.parametrize("call, match", [
    (_slice_dataset, r"needs 9 panels.*caps it at 4"),
    (_restricted_dataset, r"needs \d+ panels.*caps it at 4"),
    (_truncated_series, r"harmonic \|l\|=2"),
    (_complex_slice_residue, r"^reconstruction has complex magnitude"),
    (_complex_inverse_transform, r"^inverse transform has complex magnitude"),
    (_cut_field_forward, "does not decay at the grid boundary"),
    (_unresolved_pole, r"^4 analytic-signal rays have \|v\| < 1e-2"),
], ids=["slice-dataset", "restricted-dataset", "mellin-series", "slice-residue", "inverse-ft",
        "cut-field", "analytic-pole"])
def test_every_warning_names_the_first_caller_line_outside_the_package(call, match):
    with pytest.warns(UserWarning, match=match) as record:
        call()
    assert len(record) == 1 and record[0].filename == __file__
