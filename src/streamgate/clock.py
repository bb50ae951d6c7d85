"""Stream pacing: the constant-rate clock and the relative-speed ceiling."""

from __future__ import annotations

import math
from dataclasses import dataclass

ADAPT = "adapt"
SKIP = "skip"


@dataclass(frozen=True)
class StreamClock:
    """Constant-speed stream: base_rate batches/second, scaled by eta in (0, 1]."""

    base_rate: float = 1.0
    eta: float = 1.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")

    @property
    def effective_interval(self) -> float:
        return effective_stream_interval(self.base_rate, self.eta)


def effective_stream_interval(base_rate: float, eta: float) -> float:
    """Seconds per revealed batch: 1 / (eta * base_rate)."""
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    return 1.0 / (eta * base_rate)


def relative_adaptation_speed(effective_interval: float, elapsed: float) -> int:
    """Stream ticks one adaptation consumes: ceil(elapsed / interval), min 1.

    The ratio is taken in exact integer arithmetic so boundary cases (an
    elapsed time of exactly k intervals) never fall on the wrong side of the
    ceiling through float rounding.  ``elapsed <= interval`` is an exact float
    comparison, so the common one-tick case needs no division at all.
    """
    if not math.isfinite(effective_interval) or effective_interval <= 0:
        raise ValueError(
            f"effective_interval must be positive and finite, got {effective_interval}"
        )
    if not math.isfinite(elapsed) or elapsed <= 0:
        raise ValueError(f"elapsed must be positive and finite, got {elapsed}")
    if elapsed <= effective_interval:
        return 1
    en, ed = elapsed.as_integer_ratio()
    inum, iden = effective_interval.as_integer_ratio()
    # elapsed / interval = (en * iden) / (ed * inum); ceil via floor of the negation.
    return -(-(en * iden) // (ed * inum))


def schedule_decision(t: int, busy_until: int) -> str:
    """Adapt iff the worker is free: the busy window [i, i+k) is half-open."""
    if t < 0 or busy_until < 0:
        raise ValueError("t and busy_until must be non-negative")
    return ADAPT if t >= busy_until else SKIP
