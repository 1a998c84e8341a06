"""Shared exception types, and the number rules every layer checks its
arguments by: a count is an integer (``_as_int``, with its bounds), a real is
a number a double holds (``_as_real``), a flag is a bool (``_as_bool``), and
a noise strength is a real in [0, 1] (``_check_gamma``).  Each turns a numpy
value into the Python int, float or bool it equals, so that it hashes, seeds
and computes as that does."""

from __future__ import annotations

import sys

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent dimensions, shapes, or parameter values."""


class CapacityError(RuntimeError):
    """Requested register or outcome space exceeds what dense simulation supports."""


class DegenerateBranchError(ArithmeticError):
    """A measurement branch with probability at or below the underflow floor was forced."""


def _as_int(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """A Python int or numpy integer as an int, refused below ``least`` or
    above ``most`` (neither, ``least`` alone, or both); a bool, float or
    other type is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if most is not None and not least <= count <= most:
        raise ConfigurationError(f"{name} must be in [{least}, {most}], got {count}")
    if least is not None and count < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {count}")
    return count


def _as_real(name: str, value) -> float:
    """A Python or numpy integer or float as the float it equals; a bool,
    another type, or an int that no double holds is refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ConfigurationError(f"{name} must be a number that a double holds, got {value!r}")
    return float(value)


def _as_bool(name: str, value) -> bool:
    """A bool or numpy bool as a bool; a truthy "false" or 0 would pick the
    other circuit, so any other type is refused."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _check_gamma(name: str, value) -> float:
    """A noise strength as its float (``_as_real``), refused outside [0, 1];
    -0.0 comes back as 0.0, so that it hashes and seeds as the same channel."""
    gamma = _as_real(name, value)
    if not 0.0 <= gamma <= 1.0:  # false for nan too
        raise ConfigurationError(f"{name} must lie in [0, 1], got {gamma}")
    return gamma + 0.0
