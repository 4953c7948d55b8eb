"""Exception types shared across the package, and the scalar argument checks.

Every ConfigError raised by `check_int` or `check_real` starts with the name
of the argument (the config key) it rejects.
"""

import math
import numbers


class KineticEmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KineticEmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(KineticEmError, ValueError):
    """A configuration value is invalid or inconsistent with another."""


class ExtrapolationError(DomainError):
    """A tabulated drift was queried outside its grid."""


class ConfigWarning(UserWarning):
    """A configuration is legal but degenerate or likely unintended."""


def check_int(name: str, value, minimum: int) -> int:
    """An integer argument >= minimum as an int, or ConfigError naming the argument."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(name: str, value, minimum: float = -math.inf, strict: bool = False) -> float:
    """A finite real argument >= minimum (> minimum if strict) as a float.

    Otherwise ConfigError naming the argument.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        x = float(value)
        if math.isfinite(x) and (x > minimum if strict else x >= minimum):
            return x
    bound = "" if minimum == -math.inf else f"{'>' if strict else '>='} {minimum} and "
    raise ConfigError(f"{name} must be {bound}finite, got {value!r}")
