"""Exception hierarchy shared across the package, the numeric predicates
``is_int`` and ``is_real``, and the config value checks that raise ConfigError.

The CLI maps these onto exit codes: ConfigError -> 1, ParseError and
DataError -> 2, NumericalError -> 3.
"""

import math
import numbers


class GeoGnnError(Exception):
    pass


class ShapeError(GeoGnnError):
    """Tensor operands with incompatible shapes."""


class NumericalError(GeoGnnError):
    """Non-finite values or numerically undefined operations."""


class ParseError(GeoGnnError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DataError(GeoGnnError):
    """Structurally valid input that violates a domain invariant."""


class ConfigError(GeoGnnError):
    """Invalid or inconsistent configuration."""


def is_int(value) -> bool:
    """An integer of any kind, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value, nan_ok: bool = False) -> bool:
    """A real number, not a bool, that is finite as a float (or NaN, if nan_ok)."""
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value) or nan_ok and value != value
    except OverflowError:  # an integer too large for a float
        return False


def check_int(name: str, value, lo: int, hi: float = math.inf) -> None:
    """ConfigError unless value is an integer, not a bool, with lo <= value < hi."""
    if not ((type(value) is int or is_int(value)) and lo <= value < hi):
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")


def check_real(name: str, value, lo: float) -> None:
    """ConfigError unless value is a finite real number (``is_real``) >= lo."""
    if not (is_real(value) and lo <= value):
        raise ConfigError(f"{name} must be a finite number >= {lo}, got {value!r}")


def check_choice(name: str, value, choices) -> None:
    """ConfigError unless value is a str in choices."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"unknown {name} {value!r}")
