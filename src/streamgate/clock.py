"""Stream pacing: the constant-rate clock, the tick rule, the relative-speed
ceiling, and the busy-window rule that simulation and trace replay share."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class StreamClock:
    """Constant-speed stream: base_rate batches/second, scaled by eta in (0, 1]."""

    base_rate: float = 1.0
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        # Also rejects NaN and inf rates, and rates so small the interval overflows.
        rate = self.eta * self.base_rate
        if not (rate > 0.0 and 0.0 < 1.0 / rate < math.inf):
            raise ValueError(
                "base_rate must give a positive, finite interval 1 / (eta * base_rate), "
                f"got base_rate={self.base_rate!r} at eta={self.eta!r}"
            )

    @property
    def effective_interval(self) -> float:
        return 1.0 / (self.eta * self.base_rate)


def check_ticks(ticks: Iterable[int], error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless the ticks run 0, 1, 2, ... in order."""
    for i, t in enumerate(ticks):
        if t != i:
            raise error(f"ticks must be contiguous from 0; got {t} at position {i}")


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


class Worker:
    """The stream's single adaptation worker: the busy-window rule.

    A step adapts iff the worker is free, ``t >= busy_until``, so the busy
    window [t, t + C) is half-open.  An adaptation started at step t whose
    cost spans C = relative_adaptation_speed(interval, elapsed) ticks keeps
    the worker busy until t + C: the next C - 1 steps fall back.
    """

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0

    def free(self, t: int) -> bool:
        return t >= self.busy_until

    def occupy(self, t: int, interval: float, elapsed: float) -> int:
        """Charge an adaptation started at step t; returns its C."""
        c = relative_adaptation_speed(interval, elapsed)
        self.busy_until = t + c
        return c
