"""Exception types shared across the package, and the checks of input arguments."""

import numbers
import reprlib

import numpy as np


class NetmomentError(Exception):
    """Base class for all package errors."""


class DataError(NetmomentError, ValueError):
    """Input data violates a structural contract (type, shape, symmetry, schema)."""


class DegenerateDegreeError(DataError):
    """Degrees with no finite solution: on the boundary of their range, or infinite.

    Carries the offending node ids in ``nodes``.
    """

    def __init__(self, message, nodes):
        super().__init__(message)
        self.nodes = list(nodes)


class SingularDesignError(NetmomentError, ValueError):
    """A required linear solve is singular (collinear covariate design).

    ``trace`` holds the per-iteration history of ``fit`` up to the failure;
    it is empty when the error comes from elsewhere.
    """

    def __init__(self, message):
        super().__init__(message)
        self.trace = []


class NonConvergenceError(NetmomentError, RuntimeError):
    """Iteration cap reached before tolerances were met.

    ``residual`` holds the last residual norm; ``trace`` holds the
    per-iteration history of ``fit`` up to the failure; it is empty when
    the error comes from elsewhere.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
        self.trace = []


def _array(values):
    """``values`` as a numpy array; an object array when numpy cannot read them (ragged nesting)."""
    try:
        return np.asarray(values)
    except (TypeError, ValueError):
        return np.asarray(None)


def _integer(name, value, minimum, message=None):
    """``value`` as an ``int``, or an integer array as it is; ``DataError`` (``message`` or a
    text naming ``name``) unless each is an integer, not a ``bool``, of at least ``minimum``."""
    integral = (value.dtype.kind in "iu" if isinstance(value, np.ndarray)
                else isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not integral or np.any(value < minimum):
        raise DataError(message or f"{name} must be an integer of at least {minimum}, got {value!r}")
    return value if isinstance(value, np.ndarray) else int(value)


def _finite(name, values, shape=None, message=None):
    """``values`` as a float, or a float array (``values`` itself when it is one); ``DataError``
    (``message`` or a text naming ``name``) unless ``values`` is a real number or a regular
    nesting of them (``bool`` is 0 or 1), has ``shape`` when one is given, and is finite."""
    array = _array(values)
    if array.dtype.kind not in "biuf":
        raise DataError(message or f"{name} must be real numbers, got {reprlib.repr(values)}")
    if shape is not None and array.shape != shape:
        raise DataError(message or f"{name} must have shape {shape}, got {array.shape}")
    array = array.astype(float, copy=False)
    if not np.isfinite(array).all():
        raise DataError(message or f"{name} must be finite")
    return array if array.ndim else float(array)
