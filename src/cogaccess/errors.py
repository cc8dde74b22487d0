"""Semantic exception hierarchy shared by all cogaccess modules, and the package's one check of an input number
(`real`, `integer`) and of a grid's order (`increasing`).  Each raises DomainError naming the value's field."""

import math
import numbers
import operator
from itertools import pairwise, starmap


class CogAccessError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CogAccessError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InfeasibleError(CogAccessError):
    """The requested optimization problem has an empty feasible set."""


class PrimaryUnstableError(InfeasibleError):
    """The primary queue cannot be stabilized under the given load."""


class ConfigError(CogAccessError):
    """A run configuration document is malformed or inconsistent."""


def _within(value, name, lo, hi, above=None, below=None):
    """`value`, within [lo, hi] and inside the open bounds `above` and `below`, where each is given."""
    if lo is not None and value < lo:
        raise DomainError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise DomainError(f"{name} must be <= {hi}, got {value}")
    if above is not None and not value > above:
        raise DomainError(f"{name} must be > {above}, got {value}")
    if below is not None and not value < below:
        raise DomainError(f"{name} must be < {below}, got {value}")
    return value


def real(value, name: str, lo=None, hi=None, *, above=None, below=None) -> float:
    """`value` as a float: an int, a float or a numpy real scalar, but not a bool, a string or None; finite, within
    [lo, hi], and greater than `above` and less than `below` (open bounds, such as tau > 0), where each is given."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return _within(value, name, lo, hi, above, below)


def integer(value, name: str, lo=None, hi=None) -> int:
    """`value` as an int: whatever operator.index takes (an int or a numpy integer), but not a bool; within [lo, hi]."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return _within(operator.index(value), name, lo, hi)


def increasing(values, name: str):
    """`values`, each below the next: checked in one pass, without a copy."""
    if not all(starmap(operator.lt, pairwise(values))):
        raise DomainError(f"{name} grid must be strictly increasing")
    return values
