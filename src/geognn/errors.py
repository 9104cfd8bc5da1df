"""Exception hierarchy shared across the package, and the config value
checks that raise ConfigError.

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


def check_int(name: str, value, lo: int, hi: float = math.inf) -> None:
    """ConfigError unless value is an integer, not a bool, with lo <= value < hi."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value < hi:
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")


def check_real(name: str, value, lo: float) -> None:
    """ConfigError unless value is a finite real number, not a bool, with value >= lo."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (lo <= value and abs(value) < math.inf)):
        raise ConfigError(f"{name} must be a finite number >= {lo}, got {value!r}")
