"""Scheduling semantics: busy windows, modulo schedules, fallbacks, determinism."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamgate.adapters import Constant, EntropyMinAdapter, SourceAdapter, Stochastic
from streamgate.clock import StreamClock
from streamgate.model import params_equal, params_fingerprint
from streamgate.protocol import (
    DELAYED,
    IMMEDIATE,
    OFFLINE,
    ONLINE,
    SINGLE_MODEL,
    BusyWindow,
    FixedModulo,
    ProtocolConfig,
    ProtocolError,
    run_segments,
    run_stream,
)
from streamgate.report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    ACTION_SKIPPED_RANDOM,
    ScheduleRecord,
)
from streamgate.stream import StreamSegment
from doubles import (
    BetaShiftAdapter,
    FailingAdapter,
    FixedErrorAdapter,
    PerfectAdapter,
    reference_domain_report,
    tiny_params,
    tiny_stream,
)

OFF = ProtocolConfig(protocol="offline", seed=0)
ON = ProtocolConfig(protocol="online", seed=0)


def adapted_steps(report):
    return [r.step for r in report.schedule if r.action == ACTION_ADAPTED]


def test_busy_window_hand_schedule():
    # Constant cost of 3 intervals over 6 batches: adapt at {0, 3}.
    params = tiny_params()
    stream = tiny_stream(6)
    adapter = SourceAdapter(params, latency=Constant(3.0))
    report = run_stream(stream, adapter, params, ON)
    assert adapted_steps(report) == [0, 3]
    skipped = [r.step for r in report.schedule if r.action == ACTION_SKIPPED_FALLBACK]
    assert skipped == [1, 2, 4, 5]
    assert report.adapted_fraction == pytest.approx(2 / 6)
    assert report.mean_c == 3.0


def test_fast_adapter_recovers_offline_protocol():
    params = tiny_params()
    stream = tiny_stream(12)
    preds_on, preds_off = [], []
    on = run_stream(stream, SourceAdapter(params, latency=Constant(0.8)), params, ON,
                    predictions_out=preds_on)
    off = run_stream(stream, SourceAdapter(params, latency=Constant(0.8)), params, OFF,
                     predictions_out=preds_off)
    assert replace(on, protocol="offline") == off
    assert all(np.array_equal(a, b) for a, b in zip(preds_on, preds_off))


def test_fixed_modulo_two_adapts_even_steps():
    params = tiny_params()
    stream = tiny_stream(10)
    cfg = replace(ON, schedule_mode=FixedModulo(2))
    report = run_stream(stream, SourceAdapter(params, latency=Constant(5.0)), params, cfg)
    assert adapted_steps(report) == [0, 2, 4, 6, 8]
    assert sum(r.action == ACTION_ADAPTED for r in report.schedule) == 5


@pytest.mark.parametrize("latency", [Constant(3.0), Stochastic(2.0, 1.5, seed=9)])
def test_fixed_modulo_one_is_bit_identical_to_offline(latency):
    params = tiny_params(seed=3)
    stream = tiny_stream(15, seed=5)
    p_off, p_mod = [], []
    off = run_stream(stream, EntropyMinAdapter(params, latency=latency, learning_rate=0.3),
                     params, replace(OFF, seed=7), predictions_out=p_off)
    cfg = replace(ON, schedule_mode=FixedModulo(1), seed=7)
    mod = run_stream(stream, EntropyMinAdapter(params, latency=latency, learning_rate=0.3),
                     params, cfg, predictions_out=p_mod)
    assert replace(mod, protocol="offline") == off
    assert len(p_off) == len(p_mod)
    assert all(np.array_equal(a, b) for a, b in zip(p_off, p_mod))


@pytest.mark.parametrize("n,k", [(10, 3), (64, 12), (100, 1)])
def test_skip_count_is_ceiling_of_n_over_k(n, k):
    params = tiny_params()
    report = run_stream(tiny_stream(n), SourceAdapter(params, latency=Constant(float(k))),
                        params, ON)
    assert sum(r.action == ACTION_ADAPTED for r in report.schedule) == -(-n // k)


def test_busy_window_equals_fixed_modulo_for_constant_cost():
    params = tiny_params()
    stream = tiny_stream(12)
    busy = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params, ON)
    fixed = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params,
                       replace(ON, schedule_mode=FixedModulo(3)))
    assert adapted_steps(busy) == adapted_steps(fixed)


def test_adapted_fraction_monotone_in_eta():
    params = tiny_params()
    stream = tiny_stream(24)
    fractions = []
    for eta in (1.0, 0.5, 0.25):
        report = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params, ON,
                            clock=StreamClock(eta=eta))
        fractions.append(report.adapted_fraction)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def test_runs_are_deterministic():
    params = tiny_params(seed=2)
    stream = tiny_stream(20, seed=8)
    reports = [
        run_stream(stream, EntropyMinAdapter(params, latency=Stochastic(2.0, 1.0, seed=1)),
                   params, replace(ON, seed=3))
        for _ in range(2)
    ]
    assert reports[0] == reports[1]


def test_single_model_skips_are_random_and_seeded():
    params = tiny_params()
    stream = tiny_stream(9)
    cfg = ProtocolConfig(protocol="single_model", seed=11)
    a = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params, cfg,
                   num_classes=3)
    b = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params, cfg,
                   num_classes=3)
    assert a == b
    actions = {r.step: r.action for r in a.schedule}
    assert actions[0] == ACTION_ADAPTED
    assert actions[1] == ACTION_SKIPPED_RANDOM


def test_single_model_random_sequence_continues_across_segments():
    # One generator per run: a second domain's busy steps must not replay the
    # first domain's random predictions.
    params = tiny_params()
    batches = tiny_stream(12, batch_size=8)
    segments = [StreamSegment(reset=True, batches=batches) for _ in range(2)]
    adapter = FixedErrorAdapter(params, latency=Constant(3.0))
    report = run_segments(segments, adapter, params,
                          ProtocolConfig(protocol="single_model", seed=9), num_classes=3)
    errors = [r.error_count if r.action == ACTION_SKIPPED_RANDOM else None
              for r in report.schedule]
    assert errors[:12].count(None) == 4  # adapted at 0, 3, 6, 9 in each segment
    assert errors[:12] != errors[12:]


def test_single_model_with_fast_adapter_equals_online():
    params = tiny_params()
    stream = tiny_stream(10)
    single = run_stream(stream, SourceAdapter(params, latency=Constant(1.0)), params,
                        ProtocolConfig(protocol="single_model", seed=0), num_classes=3)
    online = run_stream(stream, SourceAdapter(params, latency=Constant(1.0)), params, ON)
    assert replace(single, protocol="online") == online


def test_single_model_slow_adapter_approaches_chance():
    num_classes = 1000
    params = tiny_params(dim=4, num_classes=num_classes, seed=6)
    stream = tiny_stream(80, batch_size=25, num_classes=num_classes, seed=7)
    cfg = ProtocolConfig(protocol="single_model", seed=5)
    report = run_stream(stream, PerfectAdapter(params, latency=Constant(1e6)), params,
                        cfg, num_classes=num_classes)
    assert sum(r.action == ACTION_ADAPTED for r in report.schedule) == 1
    skipped = [r for r in report.schedule if r.action == ACTION_SKIPPED_RANDOM]
    n = sum(r.batch_size for r in skipped)
    errs = sum(r.error_count for r in skipped)
    p = 1 - 1 / num_classes
    se = np.sqrt(p * (1 - p) / n)
    assert abs(errs / n - p) < 4 * se


def test_immediate_vs_delayed_fallback_visibility():
    params = tiny_params(seed=4)
    stream = tiny_stream(6, seed=9)
    adapter = lambda: BetaShiftAdapter(params, latency=Constant(3.0))
    imm = run_stream(stream, adapter(), params, replace(ON, fallback_visibility="immediate"))
    dly = run_stream(stream, adapter(), params, replace(ON, fallback_visibility="delayed"))
    # Adapted at {0, 3}; versions seen by skipped steps differ by one snapshot.
    assert [r.params_version for r in imm.schedule] == [1, 1, 1, 2, 2, 2]
    assert [r.params_version for r in dly.schedule] == [1, 0, 0, 2, 1, 1]
    imm_errors = [r.error_count for r in imm.schedule]
    dly_errors = [r.error_count for r in dly.schedule]
    assert imm_errors != dly_errors  # the shifted snapshots predict differently


def test_alpha_one_preserves_parameters():
    params = tiny_params(seed=1)
    stream = tiny_stream(8, seed=2)
    adapter = BetaShiftAdapter(params, latency=Constant(1.0))
    run_stream(stream, adapter, params, replace(OFF, alpha=1.0))
    assert params_equal(adapter.params, params)


def test_alpha_half_blends_parameters():
    params = tiny_params(seed=1)
    stream = tiny_stream(1)
    adapter = BetaShiftAdapter(params, latency=Constant(1.0), step=4.0)
    run_stream(stream, adapter, params, replace(OFF, alpha=0.5))
    assert np.allclose(adapter.params.beta, params.beta + 2.0)


def test_empty_stream_rejected():
    params = tiny_params()
    with pytest.raises(ValueError, match="empty"):
        run_stream([], SourceAdapter(params), params, OFF)


def test_non_contiguous_ticks_rejected():
    params = tiny_params()
    stream = tiny_stream(4)
    stream[2] = replace(stream[2], t=5)
    with pytest.raises(ValueError, match="contiguous"):
        run_stream(stream, SourceAdapter(params), params, OFF)
    with pytest.raises(ValueError, match="non-negative"):
        replace(stream[0], t=-1)  # a negative tick never reaches the busy-window rule


def test_adapter_failure_aborts_with_step_index():
    params = tiny_params()
    stream = tiny_stream(8)
    with pytest.raises(ProtocolError, match="step 3"):
        run_stream(stream, FailingAdapter(params, fail_at=3), params, OFF)


class FlakyAdapter(EntropyMinAdapter):
    """Raises on its second adapt call, counted across the clones of one adapter."""

    name = "flaky"
    calls = 0

    def _adapt(self, batch):
        self.calls += 1
        if self.calls == 2:
            raise FloatingPointError("synthetic overflow")
        return super()._adapt(batch)


@pytest.mark.parametrize("cost", [0.5, 3.0])  # step 1 adapts live, or as a traced ghost
def test_traced_failure_names_adapter_and_step_live_or_counterfactual(cost):
    params = tiny_params()
    adapter = FlakyAdapter(params, latency=Constant(cost))
    with pytest.raises(ProtocolError, match="adapter 'flaky' failed at step 1: synthetic"):
        run_stream(tiny_stream(4), adapter, params, ON, trace_out=[])


@pytest.mark.parametrize(
    "adapter_kwargs,cause",
    [
        (dict(step=float("nan")), "beta contains non-finite values"),  # blend validation
        (dict(latency=Constant(float("inf"))), "elapsed must be positive and finite"),
    ],
)
def test_invalid_adapter_output_aborts_naming_adapter_and_step(adapter_kwargs, cause):
    params = tiny_params()
    stream = tiny_stream(4)
    with pytest.raises(ProtocolError, match=f"adapter 'beta_shift' failed at step 0: {cause}"):
        run_stream(stream, BetaShiftAdapter(params, **adapter_kwargs), params, OFF)


def test_runner_protocol_field_is_validated():
    params = tiny_params()
    stream = tiny_stream(2)
    with pytest.raises(ValueError):
        run_stream(stream, SourceAdapter(params), params,
                   ProtocolConfig(protocol="single_model"), num_classes=1)


def test_schedule_mode_validation():
    with pytest.raises(ValueError):
        FixedModulo(0)
    assert FixedModulo(2).k == 2
    assert isinstance(ProtocolConfig().schedule_mode, BusyWindow)


def test_run_segments_resets_between_episodic_domains():
    params = tiny_params(seed=3)
    seg_a = StreamSegment(reset=True, batches=tiny_stream(5, seed=1, domain_id=0))
    seg_b = StreamSegment(reset=True, batches=tiny_stream(5, seed=2, domain_id=1))
    adapter = EntropyMinAdapter(params, latency=Constant(1.0), learning_rate=0.4)
    merged = run_segments([seg_a, seg_b], adapter, params, OFF)

    fresh_a = run_stream(seg_a.batches,
                         EntropyMinAdapter(params, latency=Constant(1.0), learning_rate=0.4),
                         params, OFF)
    fresh_b = run_stream(seg_b.batches,
                         EntropyMinAdapter(params, latency=Constant(1.0), learning_rate=0.4),
                         params, OFF)
    assert merged.per_domain == fresh_a.per_domain + fresh_b.per_domain
    assert merged.avg_error == pytest.approx(
        (fresh_a.avg_error + fresh_b.avg_error) / 2
    )


def test_segment_without_reset_continues_from_current_parameters():
    params = tiny_params(seed=3)
    seg_a = StreamSegment(reset=True, batches=tiny_stream(5, seed=1, domain_id=0))
    seg_b = StreamSegment(reset=False, batches=tiny_stream(5, seed=2, domain_id=1))
    adapter = EntropyMinAdapter(params, latency=Constant(1.0), learning_rate=0.5)
    report = run_segments([seg_a, seg_b], adapter, params, OFF)
    assert report.fingerprints[0] == params_fingerprint(params)
    assert report.fingerprints[1] != params_fingerprint(params)

    # The second segment picks up exactly where one uninterrupted run leaves off.
    first = EntropyMinAdapter(params, latency=Constant(1.0), learning_rate=0.5)
    run_stream(seg_a.batches, first, params, OFF)
    assert report.fingerprints[1] == params_fingerprint(first.params)
    assert [d.domain_id for d in report.per_domain] == [0, 1]


def test_offline_source_adapter_equals_direct_evaluation(source_spec, pretrained):
    from streamgate.model import predict
    from streamgate.stream import CorruptionSpec, ScenarioSpec, compose_stream

    scenario = ScenarioSpec(mode="episodic",
                            domain_order=(CorruptionSpec("rotation", 5, seed=0),),
                            batch_size=64)
    segments = compose_stream(scenario, source_spec, 1280, seed=2)
    report = run_segments(segments, SourceAdapter(pretrained), pretrained, OFF)
    # Oracle: evaluate the initial model directly on the same batches.
    batches = segments[0].batches
    wrong = sum(
        int((predict(pretrained, b.features)[0] != b.labels).sum()) for b in batches
    )
    total = sum(b.size for b in batches)
    assert report.avg_error == wrong / total


def test_total_rejection_matches_source_run_at_forward_cost(mini_pretrained):
    from streamgate.adapters import RejectionEntropyAdapter

    stream = tiny_stream(9, dim=8, num_classes=4, seed=3)
    gated = RejectionEntropyAdapter(mini_pretrained, entropy_threshold=1e-9,
                                    latency=Constant(3.0), latency_reject=Constant(1.0))
    ungated = SourceAdapter(mini_pretrained, latency=Constant(1.0))
    a = run_stream(stream, gated, mini_pretrained, ON)
    b = run_stream(stream, ungated, mini_pretrained, ON)
    assert a.adapted_fraction == b.adapted_fraction == 1.0  # every cost is one tick
    assert [r.error_count for r in a.schedule] == [r.error_count for r in b.schedule]
    assert a.mean_c == b.mean_c == 1.0


def test_offline_adaptation_beats_frozen_source_on_shifted_domain(source_spec, pretrained):
    from streamgate.adapters import EntropyMinAdapter as EMA, SourceAdapter as SA
    from streamgate.stream import CorruptionSpec, ScenarioSpec, compose_stream

    scenario = ScenarioSpec(
        mode="episodic",
        domain_order=(CorruptionSpec("mean_shift", 5, seed=0),
                      CorruptionSpec("mean_shift", 5, seed=9)),
        batch_size=64,
    )
    segments = compose_stream(scenario, source_spec, 5000, seed=0)
    cfg = ProtocolConfig(protocol="offline", seed=0)
    adapted = run_segments(segments, EMA(pretrained), pretrained, cfg)
    # Oracle: the frozen pretrained model evaluated directly on the same stream.
    frozen = run_segments(segments, SA(pretrained), pretrained, cfg)
    for a, f in zip(adapted.per_domain, frozen.per_domain):
        assert a.error_rate < f.error_rate
    assert all(r.action == ACTION_ADAPTED for r in adapted.schedule)


def test_busy_window_spanning_whole_domains_reports_zero_adaptation():
    params = tiny_params(seed=8)
    stream = (tiny_stream(4, seed=1, domain_id=0)
              + [replace(b, t=b.t + 4) for b in tiny_stream(4, seed=2, domain_id=1)]
              + [replace(b, t=b.t + 8) for b in tiny_stream(4, seed=3, domain_id=2)])
    report = run_stream(stream, SourceAdapter(params, latency=Constant(100.0)), params, ON)
    assert [d.n_adapted for d in report.per_domain] == [1, 0, 0]
    assert report.per_domain[1].mean_c is None
    assert report.mean_c == 100.0
    assert report.adapted_fraction == pytest.approx(1 / 12)


def test_measured_timing_runs_and_stays_positive():
    params = tiny_params()
    stream = tiny_stream(6)
    cfg = replace(ON, timing="measured")
    report = run_stream(stream, SourceAdapter(params, latency=Constant(9.0)), params, cfg)
    assert all(r.c_value >= 1 for r in report.schedule if r.action == ACTION_ADAPTED)


def test_run_builds_no_schedule_record_until_the_schedule_is_read(monkeypatch):
    built = []
    check = ScheduleRecord.__post_init__

    def counting(self):
        built.append(self.step)
        check(self)

    monkeypatch.setattr(ScheduleRecord, "__post_init__", counting)
    params = tiny_params()
    report = run_stream(tiny_stream(6), SourceAdapter(params, latency=Constant(3.0)), params, ON)
    assert built == []
    assert report.adapted_fraction == 2 / 6 and report.mean_c == 3.0
    schedule = report.schedule
    assert built == list(range(6))
    assert report.schedule is schedule and len(built) == 6


def relabelled(batches, domain_id, first_tick):
    return [replace(b, domain_id=domain_id, t=first_tick + i) for i, b in enumerate(batches)]


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from([OFFLINE, ONLINE, SINGLE_MODEL]),
    modulo=st.none() | st.integers(1, 3),
    visibility=st.sampled_from([IMMEDIATE, DELAYED]),
    episodic=st.booleans(),
    domains=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    per_domain=st.integers(1, 5),
    latency=st.sampled_from([Constant(0.5), Constant(2.0), Stochastic(2.0, 1.5, seed=4)]),
    seed=st.integers(0, 3),
)
def test_per_domain_rows_equal_the_reference_over_the_built_schedule(
    protocol, modulo, visibility, episodic, domains, per_domain, latency, seed
):
    params = tiny_params()
    chunks = [tiny_stream(per_domain, seed=seed + i) for i in range(len(domains))]
    if episodic:
        segments = [StreamSegment(reset=True, batches=relabelled(chunk, d, 0))
                    for chunk, d in zip(chunks, domains)]
    else:
        batches = [b for i, (chunk, d) in enumerate(zip(chunks, domains))
                   for b in relabelled(chunk, d, i * per_domain)]
        segments = [StreamSegment(reset=True, batches=batches)]
    cfg = ProtocolConfig(protocol=protocol, fallback_visibility=visibility, seed=seed,
                         schedule_mode=BusyWindow() if modulo is None else FixedModulo(modulo))
    report = run_segments(segments, EntropyMinAdapter(params, latency=latency), params, cfg,
                          num_classes=3)

    # A row starts wherever the domain changes and at every segment boundary.
    rows, offset = [], 0
    for segment in segments:
        rows += [(b.domain_id, offset + i) for i, b in enumerate(segment.batches)
                 if i == 0 or b.domain_id != segment.batches[i - 1].domain_id]
        offset += len(segment.batches)
    ends = [start for _, start in rows[1:]] + [offset]
    schedule = report.schedule
    expected = [reference_domain_report(domain_id, schedule[start:end])
                for (domain_id, start), end in zip(rows, ends)]
    assert report.per_domain == expected
    for got, want in zip(report.per_domain, expected):
        assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]
        assert type(got.error_rate) is float and type(got.n_adapted) is int
    assert {type(v) for r in schedule for v in (r.step, r.params_version, r.error_count,
                                                 r.batch_size)} == {int}
