"""Counterfactual trace replay: reschedule recorded runs at arbitrary stream speeds.

A trace row records, for every stream step, the seconds an adaptation step
spent (or would have spent) on that batch and how many predictions would be
correct under adaptation versus under the fallback snapshot.  Replay applies
the run loop's busy-window rule to the trace's columns: it jumps from each
adapted step to ``Worker.busy_until`` through ``Worker.occupy``, the rule the
run loop uses.  So a replay costs one walk step per adapted step; it hands its
step columns to ``report.run_report``, as the run loop does.  Error rates at
any stream speed come out of one recording with no model reruns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import attrgetter, is_
from pathlib import Path
from typing import Sequence

import numpy as np

from .clock import StreamClock, Worker, check_ticks
from .report import (
    ACTION_SKIPPED_FALLBACK,
    RunReport,
    _mean_error,
    collapse,
    run_report,
    write_rows,
)
from .stream import check_integer, check_real

TRACE_COLUMNS = ["step", "latency", "correct_adapted", "correct_fallback", "domain_id", "batch_size"]

FALLBACK_APPROXIMATION_NOTE = (
    "fallback correctness is taken from the trace's recorded snapshot, not re-simulated"
)


class TraceFormatError(ValueError):
    """A trace file violated the documented schema."""


@dataclass(frozen=True)
class TraceRecord:
    """One stream step's recorded cost and counterfactual correctness."""

    step: int
    latency: float
    correct_adapted: int
    correct_fallback: int
    domain_id: int
    batch_size: int

    def __post_init__(self) -> None:
        check_integer(self.step, "step")
        check_real(self.latency, "latency")
        if not 0 < self.latency < math.inf:
            raise ValueError(f"latency must be positive and finite, got {self.latency}")
        check_integer(self.batch_size, "batch_size", 1)
        for name in ("correct_adapted", "correct_fallback"):
            check_integer(getattr(self, name), name)
            if getattr(self, name) > self.batch_size:
                raise ValueError(f"{name} must be within [0, batch_size]")
        check_integer(self.domain_id, "domain_id", -math.inf)


def unit_fraction(value: float, text: str | None = None) -> float:
    """``value`` if it lies in [0, 1]; NaN fails both comparisons.  The error
    shows ``text``, the value as it was written, when given."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must be in [0, 1], got {value if text is None else text!r}")
    return value


def parse_trace(path: str | Path, fallback_error_rate: float | None = None) -> list[TraceRecord]:
    """Read and validate a trace CSV.

    ``fallback_error_rate`` fills empty correct_fallback cells from a constant
    rate for traces recorded without a fallback model; using it marks the
    replay as an approximation.  A rate outside [0, 1] is rejected before the
    file is opened.
    """
    if fallback_error_rate is not None:
        try:
            unit_fraction(fallback_error_rate)
        except ValueError as exc:
            raise ValueError(f"fallback_error_rate: {exc}") from None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: file is empty") from None
        if header != TRACE_COLUMNS:
            raise TraceFormatError(f"{path}: expected header {TRACE_COLUMNS}, got {header}")
        records: list[TraceRecord] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise TraceFormatError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields")
            try:
                batch_size = int(row[5])
                if row[3] == "" and fallback_error_rate is not None:
                    fallback = round(batch_size * (1.0 - fallback_error_rate))
                else:
                    fallback = int(row[3])
                records.append(
                    TraceRecord(
                        step=int(row[0]),
                        latency=float(row[1]),
                        correct_adapted=int(row[2]),
                        correct_fallback=fallback,
                        domain_id=int(row[4]),
                        batch_size=batch_size,
                    )
                )
            except (ValueError, TraceFormatError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise TraceFormatError(f"{path}: trace contains no records")
    check_ticks((rec.step for rec in records), TraceFormatError)
    return records


def write_trace(path: str | Path, records: Sequence[TraceRecord]) -> None:
    write_rows(path, TRACE_COLUMNS, map(attrgetter(*TRACE_COLUMNS), records))


_last_columns: tuple[tuple[TraceRecord, ...], tuple] = ((), ())


def _columns(trace: Sequence[TraceRecord]) -> tuple:
    """A trace's runs of one domain as (domain_id, first step), then four read-only
    columns, reused while the list holds the very (frozen) records of the last call.
    That call's records and columns stay referenced until another list is read."""
    global _last_columns
    if not trace:
        raise TraceFormatError("trace contains no records")
    last, columns = _last_columns
    if len(last) == len(trace) and all(map(is_, last, trace)):
        return columns
    check_ticks(map(attrgetter("step"), trace), TraceFormatError)
    domain, *columns = (np.array(list(map(attrgetter(name), trace))) for name in (
        "domain_id", "latency", "correct_adapted", "correct_fallback", "batch_size"))
    for column in columns:
        column.flags.writeable = False
    starts = np.flatnonzero(np.concatenate(([True], domain[1:] != domain[:-1])))
    columns = tuple(zip(domain[starts].tolist(), starts.tolist())), *columns
    _last_columns = tuple(trace), columns
    return columns


def replay_online(trace: Sequence[TraceRecord], clock: StreamClock = StreamClock()) -> RunReport:
    """Recompute the online-protocol outcome of a trace under a given clock.

    Adapted steps contribute correct_adapted and open a busy window of
    ceil(latency / interval) ticks; steps inside a window contribute
    correct_fallback.  Latencies within one interval reproduce the
    all-adapted (offline) outcome exactly.
    """
    domains, latency, correct_adapted, correct_fallback, batch_size = _columns(trace)
    n, interval = len(latency), clock.effective_interval
    worker, steps, latencies = Worker(), [], latency.tolist()
    while (t := worker.busy_until) < n:
        steps.append(t)
        worker.occupy(t, interval, latencies[t])
    adapted = np.array(steps)
    c_value = np.diff(adapted, append=t)  # each adapted step's busy window
    error_count = batch_size - correct_fallback
    error_count[adapted] = batch_size[adapted] - correct_adapted[adapted]
    ticks = np.arange(n)
    params_version = np.searchsorted(adapted, ticks, side="right")  # adapted steps up to t
    return run_report(
        domains, ticks, batch_size, error_count, params_version, adapted, c_value,
        ACTION_SKIPPED_FALLBACK, protocol="online", adapter="trace", eta=clock.eta, seed=0,
        scenario="replay", notes=[FALLBACK_APPROXIMATION_NOTE],
    )


def adapted_only_error(trace: Sequence[TraceRecord]) -> float:
    """The ``avg_error`` of a replay at any clock under which every step adapts.

    The error rates under adaptation, collapsed per run of consecutive steps in
    one domain exactly as ``replay_online`` collapses them, so the two agree
    bit for bit.
    """
    domains, _, correct_adapted, _, batch_size = _columns(trace)
    none = np.array([], dtype=np.int64)
    return _mean_error(collapse(domains, batch_size, batch_size - correct_adapted, none, none))
