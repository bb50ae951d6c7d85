"""Run ledgers, their metrics, and their CSV/JSON serialization."""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

ACTION_ADAPTED = "adapted"
ACTION_SKIPPED_FALLBACK = "skipped_fallback"
ACTION_SKIPPED_RANDOM = "skipped_random"

# params_version for steps predicted without any parameter snapshot.
NO_SNAPSHOT = -1

RESULT_COLUMNS = [
    "run_id", "protocol", "scenario", "adapter", "domain_id", "eta", "seed",
    "n_batches", "n_adapted", "mean_c", "error_rate",
]

SCHEDULE_COLUMNS = ["step", "action", "c_value", "params_version", "error_count", "batch_size"]


@dataclass(frozen=True)
class ScheduleRecord:
    """Per-step ledger entry: what predicted this batch and at what speed."""

    step: int
    action: str
    c_value: int | None
    params_version: int
    error_count: int
    batch_size: int

    def __post_init__(self) -> None:
        if self.action not in (ACTION_ADAPTED, ACTION_SKIPPED_FALLBACK, ACTION_SKIPPED_RANDOM):
            raise ValueError(f"unknown action {self.action!r}")
        if self.action == ACTION_ADAPTED and (self.c_value is None or self.c_value < 1):
            raise ValueError("adapted steps must carry c_value >= 1")
        if not 0 <= self.error_count <= self.batch_size:
            raise ValueError("error_count must be within [0, batch_size]")


@dataclass(frozen=True)
class DomainReport:
    domain_id: int
    n_batches: int
    n_adapted: int
    error_rate: float
    mean_c: float | None = None


class _Schedule:
    """The ``RunReport.schedule`` field: a function given in place of the records,
    as ``run_report`` gives one, runs at first read, and its result is kept."""

    def __get__(self, report: RunReport | None, owner: type | None = None):
        if report is None:
            return None  # the field's default
        if callable(value := report.__dict__["schedule"]):
            value = report.__dict__["schedule"] = value()
        return value

    def __set__(self, report: RunReport, value) -> None:
        report.__dict__["schedule"] = value


@dataclass
class RunReport:
    """Aggregated outcome of one protocol run over one scenario.

    ``schedule`` may be given as a function that builds the records, as
    ``run_report`` gives it; it runs when the field is first read (also by
    ``==``, ``repr``, ``asdict`` and ``dataclasses.replace``) and its result is kept.
    """

    run_id: str
    protocol: str
    scenario: str
    adapter: str
    eta: float
    seed: int
    per_domain: list[DomainReport]
    avg_error: float
    mean_c: float | None
    adapted_fraction: float
    schedule: list[ScheduleRecord] | Callable[[], list[ScheduleRecord]] | None = _Schedule()
    fingerprints: list[str] | None = None
    notes: list[str] = field(default_factory=list)


def collapse(domains: Sequence[tuple[int, int]], batch_size: np.ndarray, error_count: np.ndarray,
             adapted: np.ndarray, c_value: np.ndarray) -> list[DomainReport]:
    """A run's per-domain rows from its columns: ``batch_size`` and ``error_count``
    per step, the ascending indices of the ``adapted`` steps and their ``c_value``;
    ``domains`` as in ``run_report``.  Sums are exact, so rates and mean Cs equal
    ``int / int``; a row's mean C is None if it adapted nowhere."""
    starts = np.array([start for _, start in domains], dtype=np.int64)
    n_batches = np.diff(starts, append=len(batch_size))
    if (n_batches < 1).any():
        raise ValueError("domain has no schedule records")
    rates = (np.add.reduceat(error_count, starts) / np.add.reduceat(batch_size, starts)).tolist()
    cuts = np.searchsorted(adapted, starts)
    # An appended 0 keeps each cut an index; a row that adapted nowhere discards its sum.
    c_sums = np.add.reduceat(np.append(c_value, 0), cuts).tolist()
    cuts = [*cuts.tolist(), len(adapted)]
    return [
        DomainReport(domain_id, n, b - a, rate, c_sum / (b - a) if b > a else None)
        for (domain_id, _), n, rate, c_sum, a, b
        in zip(domains, n_batches.tolist(), rates, c_sums, cuts, cuts[1:])
    ]


def _mean_error(per_domain: Sequence[DomainReport]) -> float:
    """A run's ``avg_error``: the unweighted mean of its rows' error rates.  Unequal
    row sizes get a warning but stay unweighted."""
    if len({d.n_batches for d in per_domain}) > 1:
        warnings.warn("domains have unequal sizes; average stays unweighted", stacklevel=2)
    return float(np.mean([d.error_rate for d in per_domain]))


def run_report(
    domains: Sequence[tuple[int, int]],
    step: Sequence[int] | np.ndarray,
    batch_size: Sequence[int] | np.ndarray,
    error_count: Sequence[int] | np.ndarray,
    params_version: Sequence[int] | np.ndarray,
    adapted: Sequence[int] | np.ndarray,
    c_value: Sequence[int] | np.ndarray,
    skipped: str,
    *,
    protocol: str,
    adapter: str,
    eta: float,
    seed: int,
    scenario: str = "",
    fingerprints: list[str] | None = None,
    notes: Sequence[str] = (),
) -> RunReport:
    """A run's report from its step columns, which also build its schedule on first read.

    ``adapted`` holds the ascending indices of the adapted steps, ``c_value``
    their C; every other step took the action ``skipped``.  ``domains`` holds
    (domain_id, index of the row's first step) for each row in order; a row
    ends where the next one starts.  A caller splits rows wherever the domain
    changes and at every segment boundary.  The run's mean C is exact, as a row's is.
    """
    step, batch_size, error_count, params_version, adapted, c_value = (
        np.asarray(column, dtype=np.int64)
        for column in (step, batch_size, error_count, params_version, adapted, c_value)
    )
    per_domain = collapse(domains, batch_size, error_count, adapted, c_value)
    return RunReport(
        run_id="",
        protocol=protocol,
        scenario=scenario,
        adapter=adapter,
        eta=eta,
        seed=seed,
        per_domain=per_domain,
        avg_error=_mean_error(per_domain),
        mean_c=int(c_value.sum()) / len(adapted) if len(adapted) else None,
        adapted_fraction=len(adapted) / len(step),
        schedule=partial(_schedule, step, batch_size, error_count, params_version, adapted,
                         c_value, skipped),
        fingerprints=fingerprints,
        notes=list(notes),
    )


def _schedule(
    step: np.ndarray,
    batch_size: np.ndarray,
    error_count: np.ndarray,
    params_version: np.ndarray,
    adapted: np.ndarray,
    c_value: np.ndarray,
    skipped: str,
) -> list[ScheduleRecord]:
    """A run's per-step records from its columns (see ``run_report``)."""
    action, c_of = [skipped] * len(step), [None] * len(step)
    for i, c in zip(adapted.tolist(), c_value.tolist()):
        action[i], c_of[i] = ACTION_ADAPTED, c
    return list(map(ScheduleRecord, step.tolist(), action, c_of, params_version.tolist(),
                    error_count.tolist(), batch_size.tolist()))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip representation
    return str(value)


def format_percent(fraction: float) -> str:
    """Human-readable error rendering: one decimal, e.g. 0.421 -> '42.1%'."""
    return f"{100.0 * fraction:.1f}%"


def write_rows(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file: the header, then one line per row, each value through ``_fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_results_csv(path: str | Path, reports: Sequence[RunReport]) -> None:
    """One row per (run, domain), in the fixed public column order."""
    write_rows(path, RESULT_COLUMNS, (
        (r.run_id, r.protocol, r.scenario, r.adapter, d.domain_id, r.eta, r.seed,
         d.n_batches, d.n_adapted, d.mean_c, d.error_rate)
        for r in reports for d in r.per_domain
    ))


def write_schedule_csv(path: str | Path, schedule: Sequence[ScheduleRecord]) -> None:
    """One row per step; the columns are the record's fields."""
    write_rows(path, SCHEDULE_COLUMNS, map(attrgetter(*SCHEDULE_COLUMNS), schedule))


def write_summary_json(
    path: str | Path, reports: Sequence[RunReport], deltas: Sequence[dict] | None = None
) -> None:
    payload: dict = {"runs": [asdict(r) for r in reports]}
    if deltas is not None:
        payload["deltas"] = list(deltas)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
