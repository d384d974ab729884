"""Empirical fit of the inversion normalization constants.

The stated constants for the backprojection and polar-spectral inversions
assume a unit-constant Plancherel identity, which does not hold verbatim
under this library's e^{-i xi.x} convention.  Rather than silently patch
the constants, this module reconstructs a set of oracle phantoms with the
constant left out, fits the scalar alpha that best matches each oracle in
the least-squares sense, and reports the fitted mean next to the stated
constant and their ratio.  A large spread across phantoms (the fit should
not depend on the scene) fails the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, NumericalError, ValidationError
from .fields import gaussian_phantom, make_grid, sample_phantom
from .forward import (
    _has_closed_form,
    analytic_wrt_data,
    polar_vset,
    uniform_circle,
    windowed_ray_transform,
)
from .invert_bp import BPParams, paper_constant_t1, reconstruct_t1
from .invert_fourier import extract_polar_spectrum, paper_constant_t2, reconstruct_t2
from .quad import QuadratureParams

__all__ = ["CalibrationReport", "calibrate_constant", "default_calibration_phantoms"]


@dataclass(frozen=True)
class CalibrationReport:
    method: str
    alphas: tuple           # per-phantom least-squares fits
    alpha: float            # mean
    paper_constant: float
    ratio: float            # alpha / paper_constant
    cv: float               # std / mean over phantoms

    def to_json(self):
        return {
            "method": self.method,
            "alphas": list(self.alphas),
            "alpha": self.alpha,
            "paper_constant": self.paper_constant,
            "ratio": self.ratio,
            "cv": self.cv,
        }


def default_calibration_phantoms():
    return [
        gaussian_phantom((0.0, 0.0), 0.7),
        gaussian_phantom((1.5, -0.5), 0.8, amplitude=0.8),
        gaussian_phantom((-1.0, 1.0), 0.6, amplitude=1.2),
    ]


def _fit_alpha(raw, ref):
    num = float(np.sum(raw.values * ref.values))
    den = float(np.sum(raw.values**2))
    if den == 0.0 or float(np.sum(ref.values**2)) == 0.0:
        raise ValidationError("degenerate fit: zero phantom in the calibration set")
    return num / den


def _forward_data(spec, w, grid, vset):
    # exact closed form when available, quadrature otherwise
    if _has_closed_form(spec, w):
        return analytic_wrt_data(spec, w, grid, vset)
    return windowed_ray_transform(spec, w, grid, vset, QuadratureParams(panels=8))


def calibrate_constant(method, w, phantoms, fast=False):
    """Fit the normalization scalar for 't1' or 't2' over >= 3 phantoms;
    a spread (std / mean) above 10 % raises NumericalError.  A complex
    window raises HypothesisError, as both inversions do, before any
    forward data is computed."""
    if method not in ("t1", "t2"):
        raise ValidationError("calibration applies to the t1 and t2 inversions")
    if not w.is_real:
        raise HypothesisError("inversion requires a real window")
    phantoms = list(phantoms)
    if len(phantoms) < 3:
        raise ValidationError("calibration needs at least 3 phantoms")
    fit_grid = make_grid(2, 48 if fast else 64, 40.0)
    alphas = []
    for spec in phantoms:
        ref = sample_phantom(spec, fit_grid)
        if method == "t1":
            # wide radius coverage: the backprojection filter needs
            # r |xi| to sweep the whole transform of the window
            grid = make_grid(2, 96 if fast else 128, 80.0)
            dirs, _ = uniform_circle(24 if fast else 32)
            radii = np.geomspace(0.02, 20.0, 28 if fast else 40)
            data = _forward_data(spec, w, grid, polar_vset(dirs, radii))
            raw = reconstruct_t1(
                data, w, fit_grid,
                BPParams(r_min=radii[0], r_max=radii[-1],
                         n_theta=dirs.shape[0], constant_mode="raw"),
            )
        else:
            grid = make_grid(2, 64 if fast else 96, 48.0)
            dirs, _ = uniform_circle(120 if fast else 180)
            radii = np.geomspace(0.05, 2.5, 16 if fast else 24)
            data = _forward_data(spec, w, grid, polar_vset(dirs, radii))
            sigma = np.linspace(0.0, min(0.9 * grid.nyquist, 5.5), 64 if fast else 128)
            samples = extract_polar_spectrum(data, sigma)
            raw = reconstruct_t2(samples, w, fit_grid, constant_mode="raw")
        alphas.append(_fit_alpha(raw, ref))
    alphas = np.asarray(alphas)
    mean = float(alphas.mean())
    cv = float(alphas.std() / abs(mean)) if mean else np.inf
    if cv > 0.10:  # the fit should not depend on the scene
        raise NumericalError(f"calibration unstable: CV {cv:.1%} over {len(alphas)} phantoms")
    paper = paper_constant_t1(w, 2) if method == "t1" else paper_constant_t2(w, 2)
    return CalibrationReport(
        method=method,
        alphas=tuple(float(a) for a in alphas),
        alpha=mean,
        paper_constant=float(paper),
        ratio=mean / float(paper),
        cv=cv,
    )
