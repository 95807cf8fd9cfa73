"""Tiny argument-validation helpers with uniform error messages.

Centralising these keeps the public API's error behaviour consistent and
keeps hot loops free of ad-hoc branching (validate once at the boundary,
then trust the values — the pattern the HPC guides recommend).
"""

from __future__ import annotations

from numbers import Integral

from repro.util.bits import is_power_of_two

__all__ = [
    "require",
    "require_in_range",
    "require_int",
    "require_power_of_two",
    "require_divides",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def require_in_range(name: str, value, low, high, *, inclusive: bool = True):
    """Validate ``low <= value <= high`` (or strict ``<`` at the top).

    Returns the value so callers can validate-and-assign in one line.
    """
    ok = low <= value <= high if inclusive else low <= value < high
    if not ok:
        bracket = "]" if inclusive else ")"
        raise ValueError(f"{name}={value!r} out of range [{low}, {high}{bracket}")
    return value


def require_int(name: str, value, low: int, high: int | None = None) -> int:
    """Validate an integer with ``low <= value`` (and ``value < high`` when
    *high* is given); return it as a Python ``int``.

    numpy integers count; bools and floats do not, so nothing is truncated
    or coerced.  Raises ``ValueError`` either way, naming *name*.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name}={value!r} must be an integer")
    if high is not None and not low <= value < high:
        raise ValueError(f"{name}={value} out of range [{low}, {high})")
    if value < low:
        raise ValueError(f"{name}={value} must be >= {low}")
    return int(value)


def require_power_of_two(name: str, value: int) -> int:
    """Validate that *value* is a positive power of two; return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not is_power_of_two(value):
        raise ValueError(f"{name}={value} must be a positive power of two")
    return value


def require_divides(divisor_name: str, divisor: int, dividend_name: str, dividend: int) -> None:
    """Validate ``divisor | dividend``."""
    if divisor <= 0 or dividend % divisor != 0:
        raise ValueError(
            f"{divisor_name}={divisor} must divide {dividend_name}={dividend}"
        )
