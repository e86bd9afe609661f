"""The package's error type and the one rule for every number a caller sets."""

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
    """`value` by the rule of `number`, if it is an integer >= `least`."""
    return number(name, value, f"an integer >= {least}", lambda v: v >= least, integral=True)
