"""Trace parsing, validation, and counterfactual replay."""

from __future__ import annotations

import math
import re
import tempfile
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamgate.adapters import (
    ADAPTERS,
    Constant,
    EntropyMinAdapter,
    Stochastic,
    clone_adapter,
    make_adapter,
    sample_latency,
)
from streamgate.clock import StreamClock
from streamgate.protocol import ProtocolConfig, run_segments, run_stream
from streamgate.report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    ScheduleRecord,
    write_schedule_csv,
)
from streamgate.trace import (
    TRACE_COLUMNS,
    TraceFormatError,
    TraceRecord,
    adapted_only_error,
    parse_trace,
    replay_online,
    write_trace,
)
from doubles import (
    reference_params_equal,
    reference_replay,
    tiny_params,
    tiny_stream,
    two_domain_stream,
)


def make_trace(rows):
    return [
        TraceRecord(step=i, latency=lat, correct_adapted=ca, correct_fallback=cf,
                    domain_id=dom, batch_size=b)
        for i, (lat, ca, cf, dom, b) in enumerate(rows)
    ]


def write_raw(path, lines):
    path.write_text("\n".join([",".join(TRACE_COLUMNS)] + lines) + "\n")


def test_parse_well_formed_file(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,5,3,0,10", "1,2.0,6,4,0,10", "2,0.5,7,5,1,10"])
    records = parse_trace(path)
    assert len(records) == 3
    assert records[1].latency == 2.0
    assert records[2].domain_id == 1


RECORD = dict(step=0, latency=1.0, correct_adapted=2, correct_fallback=1, domain_id=0,
              batch_size=4)


@pytest.mark.parametrize("field,value,rule", [
    # A fractional count would truncate in the replay's report, but not in
    # adapted_only_error, and the two would disagree.
    ("correct_adapted", 2.5, "a non-negative integer"),
    ("correct_fallback", np.float64(1.0), "a non-negative integer"),
    ("correct_adapted", -1, "a non-negative integer"),
    ("step", 1.0, "a non-negative integer"),
    ("step", True, "a non-negative integer"),
    ("batch_size", 4.0, "an integer"),
    ("domain_id", 0.5, "an integer"),
    ("domain_id", False, "an integer"),
    ("latency", True, "a real number"),
    ("latency", "1.0", "a real number"),
])
def test_trace_record_rejects_a_field_of_the_wrong_type_naming_it(field, value, rule):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
        TraceRecord(**{**RECORD, field: value})


def test_trace_record_takes_numpy_scalars_and_any_integer_domain():
    record = TraceRecord(step=np.int64(3), latency=np.float64(0.5), correct_adapted=np.int32(4),
                         correct_fallback=0, domain_id=-2, batch_size=np.int64(4))
    assert record.domain_id == -2 and record.correct_adapted == 4


def test_parse_rejects_correct_count_above_batch_size(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,11,3,0,10"])
    with pytest.raises(TraceFormatError, match=":2:"):
        parse_trace(path)


def test_parse_rejects_an_empty_batch(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,5,3,0,10", "1,1.0,0,0,1,0"])
    with pytest.raises(TraceFormatError, match=":3: batch_size must be >= 1, got 0"):
        parse_trace(path)


def test_parse_rejects_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, [])
    with pytest.raises(TraceFormatError, match="no records"):
        parse_trace(path)


def test_parse_rejects_an_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(TraceFormatError, match="file is empty"):
        parse_trace(path)


def test_parse_rejects_a_short_row_naming_its_line(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,5,3,0,10", "1,1.0,5,3,0"])
    with pytest.raises(TraceFormatError, match=":3: expected 6 fields"):
        parse_trace(path)


def test_parse_skips_a_blank_line(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,5,3,0,10", "", "1,2.0,6,4,0,10"])
    assert [r.step for r in parse_trace(path)] == [0, 1]


def test_parse_reports_line_numbers_for_malformed_rows(tmp_path):
    path = tmp_path / "t.csv"
    for latency in ("not-a-number", "nan", "inf", "-inf", "0"):
        write_raw(path, ["0,1.0,5,3,0,10", f"1,{latency},5,3,0,10"])
        with pytest.raises(TraceFormatError, match=":3:"):
            parse_trace(path)


def test_parse_rejects_non_contiguous_steps(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,5,3,0,10", "2,1.0,5,3,0,10"])
    with pytest.raises(TraceFormatError, match="contiguous"):
        parse_trace(path)


def test_parse_rejects_wrong_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("step,latency\n")
    with pytest.raises(TraceFormatError, match="header"):
        parse_trace(path)


def test_parse_fills_missing_fallback_from_constant_rate(tmp_path):
    path = tmp_path / "t.csv"
    write_raw(path, ["0,1.0,5,,0,10", "1,1.0,5,,0,10"])
    with pytest.raises(TraceFormatError):
        parse_trace(path)
    records = parse_trace(path, fallback_error_rate=0.4)
    assert all(r.correct_fallback == 6 for r in records)


def test_trace_round_trip(tmp_path):
    records = make_trace([(1.5, 5, 3, 0, 10), (0.25, 6, 4, 0, 10)])
    path = tmp_path / "t.csv"
    write_trace(path, records)
    assert parse_trace(path) == records


@pytest.mark.parametrize("latency", [np.float64(1.5), Fraction(3, 2), np.float32(1.5)])
def test_a_real_latency_is_recorded_as_its_float(tmp_path, latency):
    # write_trace wrote np.float64(1.5) and Fraction(3, 2) as cells that parse_trace
    # rejected, "np.float64(1.5)" and "3/2".
    records = make_trace([(latency, 5, 3, 0, 10), (0.25, 6, 4, 0, 10)])
    assert type(records[0].latency) is float
    path = tmp_path / "t.csv"
    write_trace(path, records)
    assert path.read_text().splitlines()[1] == "0,1.5,5,3,0,10"
    assert parse_trace(path) == records


def test_replay_fast_latencies_recover_adapted_only_error():
    trace = make_trace([(0.9, 8, 2, 0, 10), (1.0, 7, 1, 0, 10), (0.5, 6, 0, 0, 10)])
    report = replay_online(trace, StreamClock())
    assert report.adapted_fraction == 1.0
    assert report.avg_error == pytest.approx(adapted_only_error(trace))
    assert report.avg_error == pytest.approx(1 - (8 + 7 + 6) / 30)


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 20), st.floats(0.0, 1.0),
                  st.floats(1e-6, 1.0)),
        min_size=1, max_size=6,
    ),
    st.floats(1 / 64, 1.0),
)
def test_adapted_only_error_is_the_all_adapted_replay_error(domains, eta):
    # Domains of unequal lengths and batch sizes, every latency within one interval.
    rows = [
        (latency, round(batch_size * accuracy), 0, domain_id, batch_size)
        for domain_id, (n_steps, batch_size, accuracy, latency) in enumerate(domains)
        for _ in range(n_steps)
    ]
    trace = make_trace(rows)
    report = replay_online(trace, StreamClock(eta=eta))
    assert report.adapted_fraction == 1.0
    assert adapted_only_error(trace) == report.avg_error


def test_replay_hand_schedule_constant_three():
    # 6 steps, 3-interval latency, adapted correct / fallback wrong, B=1:
    # adapted at {0, 3}, the other four steps miss -> error 4/6.
    trace = make_trace([(3.0, 1, 0, 0, 1)] * 6)
    report = replay_online(trace, StreamClock())
    assert [r.action for r in report.schedule].count(ACTION_ADAPTED) == 2
    assert report.avg_error == pytest.approx(4 / 6)


def test_replay_heavy_profile_adapts_once_over_782_steps():
    trace = make_trace([(810.0, 10, 5, 0, 10)] * 782)
    report = replay_online(trace, StreamClock())
    assert sum(r.action == ACTION_ADAPTED for r in report.schedule) == 1
    assert report.mean_c == 810.0


def test_replay_keeps_each_c_exact_beyond_int64():
    # At 2**70 batches a second the walk adapts at steps 0, 1 and 3, at C = 1, 2 and
    # 3 * 2**70, which no int64 holds; each row's and the run's mean C are exact.
    trace = make_trace([(2.0 ** -70, 1, 0, 0, 4), (2.0 ** -69, 1, 0, 0, 4),
                        (3.0, 1, 0, 1, 4), (3.0, 1, 0, 1, 4)])
    report = replay_online(trace, StreamClock(base_rate=2.0 ** 70))
    assert [r.c_value for r in report.schedule] == [1, 2, None, 3 * 2 ** 70]
    assert [d.mean_c for d in report.per_domain] == [3 / 2, 3 * 2 ** 70 / 1]
    assert report.mean_c == (3 + 3 * 2 ** 70) / 3
    assert_replay_bits(trace, StreamClock(base_rate=2.0 ** 70))


def test_replay_adapted_volume_monotone_in_eta():
    rng = np.random.default_rng(0)
    trace = make_trace([(float(lat), 8, 4, 0, 10) for lat in rng.uniform(0.5, 6.0, size=60)])
    counts = []
    for eta in (1.0, 1 / 2, 1 / 4, 1 / 8, 1 / 16):
        report = replay_online(trace, StreamClock(eta=eta))
        counts.append(sum(r.action == ACTION_ADAPTED for r in report.schedule))
    assert counts == sorted(counts)


def test_replay_interval_at_max_latency_adapts_everything():
    rng = np.random.default_rng(1)
    lats = rng.uniform(0.5, 9.0, size=40)
    trace = make_trace([(float(lat), 9, 1, 0, 10) for lat in lats])
    clock = StreamClock(base_rate=1.0 / float(lats.max()))
    report = replay_online(trace, clock)
    assert report.adapted_fraction == 1.0
    assert report.avg_error == pytest.approx(adapted_only_error(trace))


def test_replay_of_simulated_run_reproduces_error_exactly():
    params = tiny_params(seed=5)
    stream = tiny_stream(18, seed=6)
    trace = []
    cfg = ProtocolConfig(protocol="online", seed=2)
    adapter = EntropyMinAdapter(params, latency=Constant(2.5), learning_rate=0.3)
    original = run_stream(stream, adapter, params, cfg, trace_out=trace)
    replayed = replay_online(trace, StreamClock())
    assert replayed.avg_error == original.avg_error
    assert replayed.adapted_fraction == original.adapted_fraction
    assert [r.action for r in replayed.schedule] == [r.action for r in original.schedule]


def test_replay_empty_trace_rejected():
    with pytest.raises(TraceFormatError):
        replay_online([], StreamClock())


def test_replay_carries_approximation_note():
    trace = make_trace([(1.0, 5, 5, 0, 10)])
    assert any("correct_adapted and correct_fallback both come from the recorded run" in note
               and "exact at the recording's clock" in note
               for note in replay_online(trace).notes)


def test_a_replay_at_another_clock_is_not_the_run_at_that_clock(mini_pretrained, mini_spec):
    # README "Trace replay": an eta-1 trace replayed where every step adapts gives the
    # recorded trajectory's all-adapted error; the run at that clock is the offline run.
    segments = two_domain_stream(mini_spec)
    slow = StreamClock(eta=0.25)  # a 4 s interval: a 2.5 s step takes one tick

    def run(protocol, clock, trace_out=None):
        adapter = make_adapter("pseudo_label", mini_pretrained, latency=Constant(2.5))
        return run_segments(segments, adapter, mini_pretrained,
                            ProtocolConfig(protocol=protocol, seed=0), clock, trace_out=trace_out)

    trace = []
    recorded = run("online", StreamClock(), trace)
    assert recorded.adapted_fraction < 1.0
    assert replay_online(trace, StreamClock()).avg_error == recorded.avg_error
    replay = replay_online(trace, slow)
    assert replay.adapted_fraction == 1.0 and replay.avg_error == adapted_only_error(trace)
    rerun = run("online", slow)
    assert rerun.adapted_fraction == 1.0
    assert rerun.avg_error == run("offline", StreamClock()).avg_error
    assert rerun.avg_error != replay.avg_error


def test_per_domain_grouping_in_replay():
    trace = make_trace([(1.0, 10, 0, 0, 10), (1.0, 0, 0, 0, 10),
                        (3.0, 10, 0, 1, 10), (1.0, 0, 10, 1, 10)])
    report = replay_online(trace, StreamClock())
    assert [d.domain_id for d in report.per_domain] == [0, 1]
    assert report.per_domain[0].error_rate == pytest.approx(0.5)
    # Domain 1: step 2 adapted (all correct), step 3 skipped (fallback all correct).
    assert report.per_domain[1].error_rate == pytest.approx(0.0)


def test_parse_rejects_a_bad_fallback_error_rate_before_reading(tmp_path):
    path = tmp_path / "e.csv"
    write_raw(path, ["0,1.0,5,,0,10"])
    for rate in (math.nan, math.inf, -math.inf, -0.5, 1.5):
        with pytest.raises(ValueError, match="fallback_error_rate") as info:
            parse_trace(path, fallback_error_rate=rate)
        assert not isinstance(info.value, TraceFormatError)
        # Checked before the file is opened: a missing file reports the rate too.
        with pytest.raises(ValueError, match="fallback_error_rate"):
            parse_trace(tmp_path / "missing.csv", fallback_error_rate=rate)
    for rate, correct in ((0.0, 10), (1.0, 0)):
        assert parse_trace(path, fallback_error_rate=rate)[0].correct_fallback == correct


@pytest.mark.parametrize("rate", [True, False, np.True_, np.False_])
def test_parse_rejects_a_bool_fallback_error_rate(tmp_path, rate):
    # True would fill every empty cell with 0 correct, as a rate of 1.
    path = tmp_path / "e.csv"
    write_raw(path, ["0,1.0,3,,0,4"])
    with pytest.raises(ValueError, match=f"^fallback_error_rate must be a real number, "
                                         f"got {re.escape(repr(rate))}$"):
        parse_trace(path, fallback_error_rate=rate)


# --------------------------------------------------------------------------
# The column-form replay equals the per-step loop it replaced
# --------------------------------------------------------------------------

ETAS = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 10)


@st.composite
def replay_cases(draw):
    """A trace of unequal domains and a clock, with costs of one of three kinds:
    one latency for every step, latencies spread over several Cs, or latencies of
    exactly k intervals (or one float step either side of that)."""
    clock = StreamClock(eta=draw(st.sampled_from(ETAS)))
    interval = clock.effective_interval
    domains = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12), st.integers(1, 16)),
                            min_size=1, max_size=5))
    n = sum(steps for _, steps, _ in domains)
    kind = draw(st.sampled_from(["constant", "spread", "multiples"]))
    if kind == "constant":
        latencies = [draw(st.floats(1e-3, 20 * interval))] * n
    elif kind == "spread":
        latencies = draw(st.lists(st.floats(1e-3, 5 * interval), min_size=n, max_size=n))
    else:
        multiples = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([-1, 0, 0, 1])),
                                  min_size=n, max_size=n))
        latencies = [math.nextafter(k * interval, side * math.inf) if side else k * interval
                     for k, side in multiples]
    rows = []
    for domain_id, steps, batch_size in domains:
        for _ in range(steps):
            rows.append((latencies[len(rows)], draw(st.integers(0, batch_size)),
                         draw(st.integers(0, batch_size)), domain_id, batch_size))
    return make_trace(rows), clock


def bits(value):
    """A value as its type and exact text, so 1 and 1.0 or float and np.float64 differ."""
    return type(value), repr(value)


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
@settings(max_examples=200, deadline=None)
@given(replay_cases())
@example((make_trace([(2.5, 3, 1, 0, 4)]), StreamClock()))
@example((make_trace([(0.5, 3, 1, 0, 4)]), StreamClock(eta=0.5)))
@example((make_trace([(4.5, 3, 1, 0, 4)] * 3), StreamClock()))  # C beyond the trace's end
def test_replay_equals_the_per_step_loop_bit_for_bit(case):
    assert_replay_bits(*case)


def assert_replay_bits(trace, clock):
    got, want = replay_online(trace, clock), reference_replay(trace, clock)
    for name in ("avg_error", "mean_c", "adapted_fraction"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert [[bits(v) for v in astuple(d)] for d in got.per_domain] == \
        [[bits(v) for v in astuple(d)] for d in want.per_domain]
    for d in got.per_domain:
        assert type(d.domain_id) is int and type(d.n_batches) is int
        assert type(d.n_adapted) is int and type(d.error_rate) is float
        assert d.mean_c is None or type(d.mean_c) is float
    assert got.schedule == want.schedule
    assert [[bits(v) for v in astuple(r)] for r in got.schedule] == \
        [[bits(v) for v in astuple(r)] for r in want.schedule]
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_schedule_csv(paths[0], got.schedule)
        write_schedule_csv(paths[1], want.schedule)
        assert paths[0].read_bytes() == paths[1].read_bytes()


# --------------------------------------------------------------------------
# Replaying one records list again reuses its columns; a changed list is read again
# --------------------------------------------------------------------------

REUSE_ROWS = [(2.5, 3, 1, 0, 4)] * 5 + [(0.5, 2, 4, 1, 4)] * 5
ALL_ADAPT = StreamClock(base_rate=1 / 8)  # every latency below is within its interval


def change_trace(trace, change, record=TraceRecord):
    """Edit the list in place: replace one record, or grow or shrink the list."""
    if change == "replace":
        trace[3] = record(step=3, latency=7.0, correct_adapted=0, correct_fallback=4,
                          domain_id=0, batch_size=4)
    elif change == "grow":
        trace.append(record(step=len(trace), latency=1.5, correct_adapted=1,
                            correct_fallback=0, domain_id=2, batch_size=4))
    elif change == "shrink":
        del trace[-3:]


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
@pytest.mark.parametrize("change", ["none", "replace", "grow", "shrink"])
def test_a_replay_again_or_after_a_change_equals_the_per_step_loop(change):
    trace = make_trace(REUSE_ROWS)
    for eta in ETAS:
        assert_replay_bits(trace, StreamClock(eta=eta))
    change_trace(trace, change)
    for eta in ETAS:
        assert_replay_bits(trace, StreamClock(eta=eta))
    assert bits(adapted_only_error(trace)) == bits(reference_replay(trace, ALL_ADAPT).avg_error)


def test_an_empty_trace_is_rejected_before_and_right_after_a_replay():
    for call in (replay_online, adapted_only_error):
        with pytest.raises(TraceFormatError, match="no records"):
            call([])
        call(make_trace(REUSE_ROWS))
        with pytest.raises(TraceFormatError, match="no records"):
            call([])


class CountingRecord(TraceRecord):
    """A record that counts reads of its fields, per field name."""

    reads: dict[str, int] = {}

    def __getattribute__(self, name):
        if name in TRACE_COLUMNS:
            CountingRecord.reads[name] = CountingRecord.reads.get(name, 0) + 1
        return super().__getattribute__(name)


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
@pytest.mark.parametrize("change", ["replace", "grow", "shrink"])
def test_a_second_replay_of_one_list_reads_no_record(change):
    trace = [CountingRecord(*astuple(record)) for record in make_trace(REUSE_ROWS)]
    replay_online(trace)
    CountingRecord.reads = {}
    replay_online(trace, StreamClock(eta=1 / 3))
    adapted_only_error(trace)
    assert CountingRecord.reads == {}
    change_trace(trace, change, CountingRecord)
    CountingRecord.reads = {}
    replay_online(trace, StreamClock(eta=1 / 3))
    # The changed list is read again: every column of every record.
    assert all(CountingRecord.reads.get(name, 0) >= len(trace) for name in TRACE_COLUMNS)


def test_replay_builds_no_schedule_record_until_the_schedule_is_read(monkeypatch):
    built = []
    check = ScheduleRecord.__post_init__

    def counting(self):
        built.append(self.step)
        check(self)

    monkeypatch.setattr(ScheduleRecord, "__post_init__", counting)
    trace = make_trace([(2.5, 3, 1, 0, 4)] * 6 + [(0.5, 2, 2, 1, 4)] * 6)
    report = replay_online(trace, StreamClock())
    assert built == []
    assert [d.n_adapted for d in report.per_domain] == [2, 6]
    schedule = report.schedule
    assert built == list(range(12))
    assert report.schedule is schedule and len(built) == 12


# --------------------------------------------------------------------------
# Trace collection never perturbs the live run
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,latency",
    [(name, Constant(2.5)) for name in sorted(ADAPTERS)]
    + [("pseudo_label", Stochastic(2.0, 1.5, seed=3))],
)
def test_trace_collection_leaves_the_run_unchanged(name, latency, mini_pretrained, mini_spec):
    segments = two_domain_stream(mini_spec)
    cfg = ProtocolConfig(protocol="online", seed=0)
    plain = run_segments(segments, make_adapter(name, mini_pretrained, latency=latency),
                         mini_pretrained, cfg)
    trace = []
    traced = run_segments(segments, make_adapter(name, mini_pretrained, latency=latency),
                          mini_pretrained, cfg, trace_out=trace)
    assert len(trace) == len(segments[0].batches)
    assert any(r.action == ACTION_SKIPPED_FALLBACK for r in plain.schedule)  # ghosts ran
    assert traced.schedule == plain.schedule
    assert traced.fingerprints == plain.fingerprints
    assert traced.per_domain == plain.per_domain


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_ghost_adapt_leaves_the_live_adapter_untouched(name, mini_pretrained, mini_spec):
    first, second = two_domain_stream(mini_spec)[0].batches[:2]
    latency = Stochastic(2.0, 1.5, seed=3)
    adapter = make_adapter(name, mini_pretrained, latency=latency)
    twin = make_adapter(name, mini_pretrained, latency=latency)
    adapter.adapt(first)
    twin.adapt(first)
    params = adapter.params

    clone_adapter(adapter).adapt(second)

    assert adapter.params is params
    assert reference_params_equal(adapter.params, twin.params)
    # The live adapter's latency rng draws next what its twin's draws.
    assert (sample_latency(latency, second.size, adapter._latency_rng)
            == sample_latency(latency, second.size, twin._latency_rng))
