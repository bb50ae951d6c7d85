"""Counterfactual trace replay: reschedule recorded runs at arbitrary stream speeds.

A trace row records, for every stream step, the seconds an adaptation step
spent (or would have spent) on that batch and how many predictions would be
correct under adaptation versus under the fallback snapshot.  Replaying walks
the schedule that the busy-window rule of ``clock.Worker`` (the rule the
simulated online protocol applies) gives under a chosen clock and totals the
matching correctness column, so error rates at any stream speed come out of
one recording with no model reruns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .clock import StreamClock, Worker
from .report import ACTION_ADAPTED, ACTION_SKIPPED_FALLBACK, RunReport, ScheduleRecord, run_report

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


def _check_contiguous(records: Sequence[TraceRecord]) -> None:
    for i, rec in enumerate(records):
        if rec.step != i:
            raise TraceFormatError(f"steps must be contiguous from 0; got step {rec.step} at row {i}")


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
    _check_contiguous(records)
    return records


def write_trace(path: str | Path, records: Sequence[TraceRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.step, repr(rec.latency), rec.correct_adapted,
                rec.correct_fallback, rec.domain_id, rec.batch_size,
            ])


def replay_online(trace: Sequence[TraceRecord], clock: StreamClock = StreamClock()) -> RunReport:
    """Recompute the online-protocol outcome of a trace under a given clock.

    Adapted steps contribute correct_adapted and open a busy window of
    ceil(latency / interval) ticks; steps inside a window contribute
    correct_fallback.  Latencies within one interval reproduce the
    all-adapted (offline) outcome exactly.
    """
    if not trace:
        raise TraceFormatError("trace contains no records")
    _check_contiguous(trace)
    interval = clock.effective_interval
    step = Worker().step
    version = 0
    records: list[ScheduleRecord] = []
    domains: list[tuple[int, int]] = []
    current_domain = None
    for rec in trace:
        if rec.domain_id != current_domain:
            current_domain = rec.domain_id
            domains.append((current_domain, rec.step))
        c = step(rec.step, interval, rec.latency)
        if c:
            version += 1
            records.append(
                ScheduleRecord(
                    step=rec.step,
                    action=ACTION_ADAPTED,
                    c_value=c,
                    params_version=version,
                    error_count=rec.batch_size - rec.correct_adapted,
                    batch_size=rec.batch_size,
                )
            )
        else:
            records.append(
                ScheduleRecord(
                    step=rec.step,
                    action=ACTION_SKIPPED_FALLBACK,
                    c_value=None,
                    params_version=version,
                    error_count=rec.batch_size - rec.correct_fallback,
                    batch_size=rec.batch_size,
                )
            )
    return run_report(
        records, domains, protocol="online", adapter="trace", eta=clock.eta, seed=0,
        scenario="replay", notes=[FALLBACK_APPROXIMATION_NOTE],
    )


def adapted_only_error(trace: Sequence[TraceRecord]) -> float:
    """Pooled error if every step were adapted.

    A replay slow enough to adapt every step has the same per-domain errors,
    but its ``avg_error`` is the unweighted mean of the domain rates.  The two
    agree only when all domains have the same size, and then only up to float
    rounding in the last bits.
    """
    total = sum(r.batch_size for r in trace)
    correct = sum(r.correct_adapted for r in trace)
    return (total - correct) / total
