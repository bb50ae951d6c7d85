"""Stream pacing: the constant-rate clock, the tick rule, the relative-speed
ceiling, and the busy-window rule that simulation and trace replay share."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from ._checks import check_real


@dataclass(frozen=True)
class StreamClock:
    """Constant-speed stream: base_rate batches/second, scaled by eta in (0, 1]."""

    base_rate: float = 1.0
    eta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", check_real(self.eta, "eta", "in (0, 1]"))
        object.__setattr__(self, "base_rate",
                           check_real(self.base_rate, "base_rate", "positive and finite"))
        # A rate so small that eta * base_rate underflows or its reciprocal overflows.
        rate = self.eta * self.base_rate
        if not (rate > 0.0 and 1.0 / rate < math.inf):
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
    """Stream ticks one adaptation consumes: ceil(elapsed / interval), at least 1.

    The ratio is taken in exact integer arithmetic so boundary cases (an
    elapsed time of exactly k intervals) never fall on the wrong side of the
    ceiling through float rounding; a C beyond the float range raises ``ValueError``.
    """
    effective_interval = check_real(effective_interval, "effective_interval", "positive and finite")
    elapsed = check_real(elapsed, "elapsed", "positive and finite")
    en, ed = elapsed.as_integer_ratio()
    inum, iden = effective_interval.as_integer_ratio()
    # elapsed / interval = (en * iden) / (ed * inum); ceil via floor of the negation.
    c = -(-(en * iden) // (ed * inum))
    if c > sys.float_info.max:
        raise ValueError("elapsed / effective_interval must not exceed the float range, "
                         f"got {elapsed!r} / {effective_interval!r}")
    return c


class Worker:
    """The stream's single adaptation worker: the busy-window rule.

    A step adapts iff the worker is free, ``t >= busy_until``, so the busy
    window [t, t + C) is half-open.  An adaptation started at step t whose
    cost spans C = relative_adaptation_speed(interval, elapsed) ticks keeps
    the worker busy until t + C, or t + k under a fixed ``period`` k: the next
    C - 1 (or k - 1) steps fall back, so a period adapts at the multiples of k.
    """

    __slots__ = ("busy_until", "period")

    def __init__(self, period: int | None = None) -> None:
        self.busy_until = 0
        self.period = period

    def start(self, t: int, c: int) -> int:
        """Charge an adaptation started at step t that spans ``c`` ticks; returns c."""
        self.busy_until = t + (self.period or c)
        return c
