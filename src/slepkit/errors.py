"""Exception types shared across the toolkit, and the count check that raises them."""

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


def _as_count(count, top=np.inf, error=ValueError):
    """int(count) for a whole number in [1, top]: 3, 3.0 and np.int64(3) pass,
    while a boolean, a fraction or a number out of range raises `error`."""
    if (isinstance(count, (bool, np.bool_)) or not float(count).is_integer()
            or not 1 <= count <= top):
        raise error(f"count must be an integer in [1, {top}], not {count!r}")
    return int(count)
