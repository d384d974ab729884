"""Windowed ray transform toolkit.

Forward model P_h f(u, v) = integral f(u + t v) h(t) dt for a window h,
plus four independent inversion routes (filtered backprojection, polar
spectral division, Fourier-slice extraction, circular-harmonic Mellin
deconvolution), analytic phantoms for verification, and simple on-disk
formats with a CLI front end.
"""

from .errors import (
    HypothesisError,
    NumericalError,
    ValidationError,
    WrtError,
    ZeroReferenceError,
)
from .fields import (
    Grid,
    PhantomSpec,
    ScalarField,
    continuous_ft,
    continuous_ift,
    gaussian_mixture_phantom,
    gaussian_phantom,
    make_grid,
    rel_l2_error,
    sample_phantom,
    smoothed_disk_phantom,
)
from .forward import (
    PolarWRT,
    VSet,
    WRTData,
    analytic_wrt_data,
    analytic_wrt_gaussian,
    analytic_wrt_perp,
    fourier_identity_residual,
    full_grid_vset,
    polar_vset,
    uniform_circle,
    v1_line_vset,
    windowed_ray_transform,
    wrt_columns,
    wrt_polar_perp,
)
from .invert_bp import (
    BPParams,
    paper_constant_t1,
    reconstruct_t1,
    t1_frequency_check,
    theory_constant_t1,
)
from .invert_fourier import (
    PolarSpectralSamples,
    extract_polar_spectrum,
    paper_constant_t2,
    reconstruct_t2,
)
from .invert_mellin import (
    HarmonicSeries,
    MellinLine,
    MellinParams,
    circular_decompose,
    kernel_H,
    mellin_convolution_residual,
    mellin_kernel_line,
    mellin_transform,
    reconstruct_mellin,
    recover_fl,
)
from .invert_slice import (
    SliceParams,
    SliceSpectrum,
    apodization_weights,
    make_slice_dataset,
    reconstruct_slice,
    restricted_extract,
    slice_extract,
    symmetric_offset_grid,
)
from .quad import QuadratureParams
from .windows import (
    WindowSpec,
    analytic_signal_window,
    bump_window,
    gaussian_window,
    hermite1_window,
    window_constants,
    window_eval,
    window_ft,
)
from .calibrate import CalibrationReport, calibrate_constant

__version__ = "0.1.0"
