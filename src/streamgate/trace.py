"""Counterfactual trace replay: reschedule recorded runs at arbitrary stream speeds.

A trace row records, for every stream step, the seconds an adaptation step
spent (or would have spent) on that batch and how many predictions would be
correct under adaptation versus under the fallback snapshot.  Replaying takes
the same walk as the simulated online protocol's run loop: at each step it
asks ``clock.Worker`` whether the worker is free and, if so, charges the
recorded latency through ``Worker.occupy``.  It then totals the matching
correctness column, so error rates at any stream speed come out of one
recording with no model reruns.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .clock import StreamClock, Worker, check_ticks
from .report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    RunReport,
    ScheduleRecord,
    run_report,
    write_rows,
)

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
        if not 0 < self.latency < math.inf:
            raise ValueError(f"latency must be positive and finite, got {self.latency}")
        if not 0 <= self.correct_adapted <= self.batch_size:
            raise ValueError("correct_adapted must be within [0, batch_size]")
        if not 0 <= self.correct_fallback <= self.batch_size:
            raise ValueError("correct_fallback must be within [0, batch_size]")


def parse_trace(path: str | Path, fallback_error_rate: float | None = None) -> list[TraceRecord]:
    """Read and validate a trace CSV.

    ``fallback_error_rate`` fills empty correct_fallback cells from a constant
    rate for traces recorded without a fallback model; using it marks the
    replay as an approximation.
    """
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


def replay_online(trace: Sequence[TraceRecord], clock: StreamClock = StreamClock()) -> RunReport:
    """Recompute the online-protocol outcome of a trace under a given clock.

    Adapted steps contribute correct_adapted and open a busy window of
    ceil(latency / interval) ticks; steps inside a window contribute
    correct_fallback.  Latencies within one interval reproduce the
    all-adapted (offline) outcome exactly.
    """
    if not trace:
        raise TraceFormatError("trace contains no records")
    check_ticks((rec.step for rec in trace), TraceFormatError)
    interval = clock.effective_interval
    worker = Worker()
    version = 0
    records: list[ScheduleRecord] = []
    domains: list[tuple[int, int]] = []
    current_domain = None
    for rec in trace:
        if rec.domain_id != current_domain:
            current_domain = rec.domain_id
            domains.append((current_domain, rec.step))
        if worker.free(rec.step):
            c = worker.occupy(rec.step, interval, rec.latency)
            version += 1
            action, correct = ACTION_ADAPTED, rec.correct_adapted
        else:
            c, action, correct = None, ACTION_SKIPPED_FALLBACK, rec.correct_fallback
        records.append(
            ScheduleRecord(
                step=rec.step,
                action=action,
                c_value=c,
                params_version=version,
                error_count=rec.batch_size - correct,
                batch_size=rec.batch_size,
            )
        )
    return run_report(
        records, domains, protocol="online", adapter="trace", eta=clock.eta, seed=0,
        scenario="replay", notes=[FALLBACK_APPROXIMATION_NOTE],
    )


def adapted_only_error(trace: Sequence[TraceRecord]) -> float:
    """The ``avg_error`` of a replay at any clock under which every step adapts.

    That is the unweighted mean, over each run of consecutive steps in one
    domain, of the error rate under adaptation: the rows and the arithmetic of
    ``replay_online``, so the two agree bit for bit.
    """
    rates = []
    for _, rows in itertools.groupby(trace, key=attrgetter("domain_id")):
        rows = list(rows)
        total = sum(r.batch_size for r in rows)
        rates.append((total - sum(r.correct_adapted for r in rows)) / total)
    return float(np.mean(rates))
