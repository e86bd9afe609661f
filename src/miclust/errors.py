"""The package's error type and the one rule each for every number, array and labeling a caller passes."""

import numbers
import sys

import numpy as np


class NumericError(RuntimeError):
    """Raised when an optimization or objective produces non-finite values."""


def number(name: str, value, rule: str, ok=lambda v: True, integral: bool = False):
    """`value` as a Python number, if it is a real number (an integer if `integral`) within float64 and `ok` holds.

    A numpy number comes back as its Python number, so reports serialize it; a bool is no number. The
    bound is float64's largest, not inf, which a Python int such as 10**400 is below. Else ValueError.
    """
    v = value.item() if isinstance(value, np.generic) else value
    if isinstance(v, numbers.Integral if integral else numbers.Real) and not isinstance(v, bool):
        if abs(v) <= sys.float_info.max and ok(v):
            return v
    raise ValueError(f"{name} must be {rule}, got {type(value).__name__} {value!r}")


def integer(name: str, value, least: int) -> int:
    """`value` by the rule of `number`, if it is an integer from `least` to int64's largest, as every count is."""
    return number(name, value, f"an integer from {least} to 2**63 - 1", lambda v: least <= v < 2**63, integral=True)


def _real(name: str, value, rule: str, ok) -> np.ndarray:
    """np.asarray(value), if numpy reads it, with no warning, as an array of bools, integers or floats whose shape
    `ok` accepts; else ValueError. So a ragged list, a complex, string or object array, or an int past int64 fails."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError, OverflowError):  # a ragged list, or an object whose __array__ raises
        a = None
    if a is not None and a.dtype.kind in "biuf" and ok(a.shape):
        return a
    raise _invalid(name, value, rule, a)


def _invalid(name: str, value, rule: str, a) -> ValueError:
    got = "that numpy cannot read as an array" if a is None else f"of shape {a.shape} and dtype {a.dtype}"
    return ValueError(f"{name} must be {rule}, got {type(value).__name__} {got}")


def nonempty(shape: tuple) -> bool:
    """Whether `shape` is that of a matrix with at least one row and one column: an `ok` for `matrix`."""
    return len(shape) == 2 and 0 not in shape


def matrix(name: str, value, rule: str, ok=lambda shape: len(shape) == 2) -> np.ndarray:
    """`value` as a float64 array, if it is a real array by the rule of `_real` and `ok` holds of its shape.

    Reads the type and shape only, never the entries, and copies nothing of a float64 array. Else ValueError.
    """
    return _real(name, value, rule, ok).astype(np.float64, copy=False)


def labeling(name: str, value) -> np.ndarray:
    """`value` as 1-d int64, if it is a 1-d real array that the cast leaves unchanged (no 0.5, NaN or 1e30)."""
    a = _real(name, value, "1-d integers", lambda shape: len(shape) == 1)
    with np.errstate(invalid="ignore"):  # a NaN or an out-of-range value casts to garbage, caught below
        out = a.astype(np.int64, copy=False)
    if not (out == a).all():
        raise _invalid(name, value, "1-d integers", a)
    return out
