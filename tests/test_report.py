"""Run reports from their columns, and serialization round-trips."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from streamgate.report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    RESULT_COLUMNS,
    SCHEDULE_COLUMNS,
    DomainReport,
    RunReport,
    ScheduleRecord,
    _mean_error,
    collapse,
    run_report,
    write_results_csv,
    write_schedule_csv,
    write_summary_json,
)


# Readers for the round-trip tests; the package itself only writes these files.

def read_results_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report_from_dict(data: dict) -> RunReport:
    data = dict(data)
    data["per_domain"] = [DomainReport(**d) for d in data["per_domain"]]
    if data.get("schedule") is not None:
        data["schedule"] = [ScheduleRecord(**r) for r in data["schedule"]]
    return RunReport(**data)


def read_summary_json(path) -> tuple[list[RunReport], list[dict]]:
    with open(path) as fh:
        payload = json.load(fh)
    return [report_from_dict(r) for r in payload["runs"]], payload.get("deltas", [])


def rec(step, action=ACTION_ADAPTED, c=1, errors=0, size=10, version=1):
    return ScheduleRecord(step=step, action=action,
                          c_value=c if action == ACTION_ADAPTED else None,
                          params_version=version, error_count=errors, batch_size=size)


def sample_report(protocol="offline", avg=0.3):
    domains = [
        DomainReport(domain_id=0, n_batches=10, n_adapted=10, error_rate=avg - 0.1, mean_c=1.0),
        DomainReport(domain_id=1, n_batches=10, n_adapted=5, error_rate=avg + 0.1, mean_c=2.0),
    ]
    return RunReport(
        run_id=f"x-{protocol}", protocol=protocol, scenario="episodic-2",
        adapter="x", eta=1.0, seed=0, per_domain=domains, avg_error=avg,
        mean_c=4 / 3, adapted_fraction=0.75,
        schedule=[rec(0), rec(1, ACTION_SKIPPED_FALLBACK, errors=3)],
        fingerprints=["abc", "def"], notes=["note"],
    )


def test_mean_error_is_the_unweighted_mean_of_the_rows():
    domains = [DomainReport(0, 10, 10, 0.2, 1.0), DomainReport(1, 10, 10, 0.4, 1.0)]
    assert _mean_error(domains) == pytest.approx(0.3)
    assert _mean_error(domains[:1]) == pytest.approx(0.2)


def test_mean_error_is_permutation_invariant():
    domains = [DomainReport(i, 10, 5, e, 2.0) for i, e in enumerate((0.1, 0.5, 0.3))]
    assert _mean_error(domains) == _mean_error(list(reversed(domains)))


def test_collapse_rejects_a_domain_row_without_steps():
    # Domain 1 starts where the run ends, so its row would hold no step.
    columns = [np.array([10, 10]), np.array([1, 2]), np.array([0]), np.array([1])]
    with pytest.raises(ValueError, match="domain has no schedule records"):
        collapse([(0, 0), (1, 2)], *columns)


def test_collapse_takes_each_rows_mean_c_exactly_and_none_where_it_adapted_nowhere():
    # Rows 0, 2 and 4 adapt nowhere: first, between two rows that do, and last.
    domains = [(0, 0), (1, 2), (2, 5), (3, 7), (4, 10)]
    batch_size, error_count = np.full(12, 4), np.zeros(12, dtype=np.int64)
    adapted = np.array([2, 3, 4, 7, 9])
    c_value = np.array([1, 2, 2, 3, 2 ** 40 + 1])
    rows = collapse(domains, batch_size, error_count, adapted, c_value)
    assert [row.mean_c for row in rows] == [None, 5 / 3, None, (3 + 2 ** 40 + 1) / 2, None]
    assert [row.n_adapted for row in rows] == [0, 3, 0, 2, 0]
    nowhere = collapse(domains, batch_size, error_count, adapted[:0], c_value[:0])
    assert [row.mean_c for row in nowhere] == [None] * 5


def test_collapse_mean_c_equals_numpys_mean_below_two_to_the_53():
    rng = np.random.default_rng(4)
    c_value = rng.integers(1, 2 ** 20, size=400)
    adapted = np.sort(rng.choice(1000, size=400, replace=False))
    domains = [(d, start) for d, start in enumerate(range(0, 1000, 50))]
    rows = collapse(domains, np.ones(1000, dtype=np.int64), np.zeros(1000, dtype=np.int64),
                    adapted, c_value)
    cuts = np.searchsorted(adapted, [start for _, start in domains] + [1000])
    assert [row.mean_c for row in rows] == [
        float(np.mean(c_value[a:b])) if b > a else None for a, b in zip(cuts, cuts[1:])]


def test_mean_error_warns_on_unequal_sizes():
    domains = [DomainReport(0, 10, 10, 0.2, 1.0), DomainReport(1, 20, 20, 0.4, 1.0)]
    with pytest.warns(UserWarning, match="unequal"):
        avg = _mean_error(domains)
    assert avg == pytest.approx(0.3)  # still unweighted


def report_of(rows):
    """``run_report`` over rows of (steps, C of each adapted step), each row adapting
    its first steps, with every batch of 4 and no errors."""
    starts = np.cumsum([0] + [steps for steps, _ in rows]).tolist()
    adapted = [start + i for start, (_, cs) in zip(starts, rows) for i in range(len(cs))]
    n = starts[-1]
    return run_report([(d, start) for d, start in enumerate(starts[:-1])], range(n), [4] * n,
                      [0] * n, adapted, [c for _, cs in rows for c in cs],
                      ACTION_SKIPPED_FALLBACK, protocol="online", adapter="x", eta=1.0, seed=0)


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
def test_run_report_mean_c_is_the_exact_total_c_over_the_adapted_count():
    # Row C sums 47 over 23 and 10 over 6: the rows' rounded means, weighted back by
    # their counts, give 1.9655172413793105.
    report = report_of([(23, [2] * 22 + [3]), (6, [2] * 4 + [1] * 2)])
    assert [d.mean_c for d in report.per_domain] == [47 / 23, 10 / 6]
    assert report.mean_c == 57 / 29 == 1.9655172413793103
    assert report_of([(3, []), (2, [])]).mean_c is None


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
@given(st.lists(st.integers(1, 8).flatmap(lambda steps: st.tuples(
    st.just(steps), st.lists(st.integers(1, 2 ** 70), max_size=steps))), min_size=1, max_size=8))
@example([(23, [2] * 22 + [3]), (6, [2] * 4 + [1] * 2)])
@example([(3, [4_500_000_000_000_000_000])] * 15)  # the run's C total passes 2**63
def test_run_report_takes_mean_c_and_adapted_fraction_from_its_columns(rows):
    report = report_of(rows)
    c_values = [c for _, cs in rows for c in cs]
    assert report.adapted_fraction == len(c_values) / sum(steps for steps, _ in rows)
    assert report.mean_c == (sum(c_values) / len(c_values) if c_values else None)
    assert [d.mean_c for d in report.per_domain] == [sum(cs) / len(cs) if cs else None
                                                     for _, cs in rows]


def test_schedule_record_validation():
    with pytest.raises(ValueError):
        ScheduleRecord(0, ACTION_ADAPTED, None, 1, 0, 10)
    with pytest.raises(ValueError):
        ScheduleRecord(0, ACTION_ADAPTED, 1, 1, 11, 10)
    with pytest.raises(ValueError):
        ScheduleRecord(0, "paused", 1, 1, 0, 10)


def test_run_report_rows_follow_the_given_domain_starts():
    # Domain 0, then domain 1, then domain 1 again behind a segment boundary.
    schedule = [rec(0, errors=2), rec(1, ACTION_SKIPPED_FALLBACK, errors=4),
                rec(2, c=3, errors=1, version=2),
                rec(3, ACTION_SKIPPED_FALLBACK, errors=5, version=2),
                rec(0, c=2, errors=0), rec(1, ACTION_SKIPPED_FALLBACK, errors=10)]
    report = run_report([(0, 0), (1, 2), (1, 4)], [0, 1, 2, 3, 0, 1], [10] * 6,
                        [2, 4, 1, 5, 0, 10], [0, 2, 4], [1, 3, 2],
                        ACTION_SKIPPED_FALLBACK, protocol="online", adapter="x", eta=0.5,
                        seed=3, fingerprints=["a", "b", "c"])
    assert [d.domain_id for d in report.per_domain] == [0, 1, 1]
    assert [d.n_batches for d in report.per_domain] == [2, 2, 2]
    assert [d.error_rate for d in report.per_domain] == [6 / 20, 6 / 20, 10 / 20]
    assert [d.mean_c for d in report.per_domain] == [1.0, 3.0, 2.0]
    assert report.avg_error == pytest.approx(1.1 / 3)
    assert report.mean_c == 2.0
    assert report.adapted_fraction == 3 / 6
    assert report.schedule == schedule
    assert (report.protocol, report.adapter, report.eta, report.seed) == ("online", "x", 0.5, 3)
    assert report.fingerprints == ["a", "b", "c"] and report.notes == []


def test_results_csv_columns_and_round_trip(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(path, [sample_report()])
    rows = read_results_csv(path)
    assert list(rows[0].keys()) == RESULT_COLUMNS
    assert len(rows) == 2
    assert rows[0]["error_rate"] == repr(0.3 - 0.1)
    assert float(rows[1]["error_rate"]) == 0.3 + 0.1


def test_schedule_csv_columns(tmp_path):
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, sample_report().schedule)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(SCHEDULE_COLUMNS)


def test_report_json_round_trip_is_lossless(tmp_path):
    report = sample_report(avg=1 / 3)
    report.per_domain[0] = DomainReport(0, 10, 3, 1 / 7, mean_c=None)
    restored = report_from_dict(json.loads(json.dumps(asdict(report))))
    assert restored == report


def test_summary_json_round_trip(tmp_path):
    path = tmp_path / "summary.json"
    reports = [sample_report("offline"), sample_report("online", avg=0.35)]
    write_summary_json(path, reports, deltas=[{"adapter": "x", "delta": 0.05}])
    loaded, deltas = read_summary_json(path)
    assert loaded == reports
    assert deltas == [{"adapter": "x", "delta": 0.05}]


def test_adapted_fraction_consistency():
    report = sample_report()
    total_adapted = sum(d.n_adapted for d in report.per_domain)
    total_batches = sum(d.n_batches for d in report.per_domain)
    assert report.adapted_fraction == pytest.approx(total_adapted / total_batches)
