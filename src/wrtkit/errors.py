"""Exception hierarchy shared across the library, and its one warning site.

Two families matter for the CLI exit-code contract: validation problems
(bad specs, incompatible grids) map to exit code 1, while violated math
hypotheses and numerical failures map to exit code 2.  A degraded result
that is still returned warns through :func:`warn`, the one warning site.
"""

import sys
import warnings


class WrtError(Exception):
    """Base class for all library errors."""


class ValidationError(WrtError):
    """Malformed input: bad spec, grid mismatch, illegal parameter."""


class HypothesisError(WrtError):
    """A method hypothesis is violated (odd window, h(a)=0, ...)."""


class NumericalError(WrtError):
    """A computation failed numerically (non-convergence, ill-posed band)."""


class ZeroReferenceError(ValidationError):
    """Relative error against an identically-zero reference field."""


def warn(message):
    """A UserWarning at the first frame outside this package, the user's line
    at any call depth (3.12's ``skip_file_prefixes``, on the 3.10 floor)."""
    frame, level = sys._getframe(1), 2  # level 2 is warn's caller
    while frame.f_back and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)
