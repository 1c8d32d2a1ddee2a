"""Parameter checks shared by the constructors.

Each raises ValueError naming the parameter, so a caller that reads its
inputs from outside the program can report which one was bad.  Bools are
rejected where a number is expected; numpy scalars are accepted.
"""

import math
import numbers

import numpy as np


def integer(value, name, floor=1):
    """``value`` as an int: an integer (not a bool) >= ``floor``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    return int(value)


def integers(values, name, floor=1):
    """``values`` as a float array, once every entry is an integer (not a bool) >= ``floor``."""
    given = np.asarray(values)
    values = given.astype(float)
    if given.dtype == bool or not np.all(
            np.isfinite(values) & (values >= floor) & (values == np.floor(values))):
        raise ValueError(f"{name} must be an integer >= {floor} in every entry")
    return values


def real(value, name):
    """``value`` as a float: a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def positive(value, name):
    """``value`` as a float: a finite real number > 0."""
    if real(value, name) <= 0:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def instance(value, kind, name):
    """Raise unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
