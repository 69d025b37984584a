"""Exception types shared across the package and the checks raising them."""

import numpy as np


class SliceHardyError(Exception):
    """Base class for all package errors."""


class ResolutionError(SliceHardyError, ValueError):
    """A requested scale or radius is too small for the grid spacing."""


class NumericFailure(SliceHardyError, RuntimeError):
    """A root-finding or bracketing procedure failed to converge."""


class PreconditionError(SliceHardyError, ValueError):
    """A documented hypothesis of an operation is violated."""


class InvalidDataError(SliceHardyError, ValueError):
    """Input samples are non-finite or grids are incompatible."""


class ConstructionError(SliceHardyError, RuntimeError):
    """A kernel or covering object could not be built as specified."""


class UnderdeterminedError(SliceHardyError, ValueError):
    """A moment system has too few cells to determine the polynomial."""


class NoBoundaryError(SliceHardyError, ValueError):
    """An open set fills the whole sampled box, so no covering exists."""


class DecompositionRangeError(SliceHardyError, RuntimeError):
    """The level range was exhausted before the remainder was coarse."""


class ConfigError(SliceHardyError, ValueError):
    """A scenario configuration is malformed or violates a hypothesis."""


def require_positive(**values):
    """Raise PreconditionError naming the first value that is not a
    finite positive number (NaN included)."""
    for name, v in values.items():
        if not 0 < v < float("inf"):
            raise PreconditionError(f"{name} must be finite and positive: "
                                    f"{v}")


def require_spacing(h):
    """Raise InvalidDataError unless the grid spacing h is finite and > 0."""
    if not 0 < h < float("inf"):
        raise InvalidDataError(f"spacing h must be finite and positive: {h}")


def require_resolution(radius, h, name):
    """Raise ResolutionError unless the radius called name is >= 2h."""
    if not radius >= 2 * h:
        raise ResolutionError(f"{name} {radius} below 2h = {2 * h}")


def require_finite(f):
    """Raise InvalidDataError if a sample of grid function f is not finite."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidDataError("non-finite sample in f")
