"""The input rules for integer and real-valued fields and arguments.  A leaf module: it
imports no streamgate module, so every module, ``model`` included, takes its checks here."""

from __future__ import annotations

import math
import numbers


def check_integer(value, name: str, minimum: int = 0) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``:
    numpy and ``range`` take ``True`` as 1 and fail on a float or negative seed late and
    unnamed.  A plain ``int`` skips the ABC check, 0.6 us on each ``Batch`` a step stacks."""
    integer = type(value) is int or type(value) is not bool and isinstance(value, numbers.Integral)
    if not (integer and value >= minimum):
        rule = ("a non-negative integer" if minimum == 0
                else f">= {minimum}" if integer else "an integer")
        raise ValueError(f"{name} must be {rule}, got {value!r}")


# The ranges a real-valued field may be held to; NaN lies in none of them.
_RANGES = {
    "positive and finite": lambda v: 0 < v < math.inf,
    "non-negative and finite": lambda v: 0 <= v < math.inf,
    "positive": lambda v: v > 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def check_real(value, name: str, rule: str | None = None) -> float:
    """``value`` as the float it runs as, +-inf if too large for one; raise ``ValueError``
    naming ``name`` unless it is a real number, not a bool, whose float lies in the range that
    ``rule`` names in ``_RANGES``, if any.  A plain ``float`` skips the ABC check."""
    if not (type(value) is float or type(value) is not bool and isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf if value > 0 else -math.inf
    if rule is not None and not _RANGES[rule](real):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return real
