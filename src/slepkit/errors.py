"""Exception types shared across the toolkit, and the scalar checks that raise them."""

import math
import numbers

import numpy as np


class SlepkitError(Exception):
    """Base class for toolkit-specific failures."""


class InvalidRegionError(SlepkitError, ValueError):
    """Region geometry is degenerate or self-intersecting."""


class NumericalError(SlepkitError, RuntimeError):
    """An eigensolve or iterative routine failed to converge."""


class ExtensionError(SlepkitError, ValueError):
    """Eigenvalue too small to support a stable Nystrom extension."""


class ConfigurationError(SlepkitError, ValueError):
    """Operator or solver configuration is unusable (e.g. empty masks)."""


class DegenerateNormalizationError(SlepkitError, ValueError):
    """A normalization denominator vanished."""


def _is_real(value):
    """A real scalar, not a bool or a string: an int, a float, a numpy number, a 0-d array."""
    value = value[()] if isinstance(value, np.ndarray) else value
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_int(value, low, top, rule, error):
    """int(value) for a whole number in [low, top]; a bool, a string, a fraction,
    nan, +-inf or a number out of range raises error("<rule>, not <value>")."""
    if not (_is_real(value) and float(value).is_integer() and low <= value <= top):
        raise error(f"{rule}, not {value!r}")
    return int(value)


def _as_positive(value, rule, error, zero=False):
    """float(value) for a finite real above 0, or at or above 0 when `zero`
    is set; anything else raises `error` as _as_int does."""
    if not (_is_real(value) and math.isfinite(value) and (value >= 0 if zero else value > 0)):
        raise error(f"{rule}, not {value!r}")
    return float(value)


def _as_count(count, top=np.inf, error=ValueError):
    """int(count) for a whole number in [1, top] (_as_int)."""
    return _as_int(count, 1, top, f"count must be an integer in [1, {top}]", error)
