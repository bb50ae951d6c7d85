"""Scheduling semantics: busy windows, modulo schedules, fallbacks, determinism."""

from __future__ import annotations

import gc
import hashlib
import sys
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamgate import model, protocol
from streamgate.adapters import (
    ADAPTERS,
    Constant,
    EntropyMinAdapter,
    NormStatAdapter,
    PerSample,
    RejectionEntropyAdapter,
    SourceAdapter,
    Stochastic,
    make_adapter,
    sample_latency,
)
from streamgate.clock import StreamClock
from streamgate.model import params_fingerprint
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
    schedule_class,
)
from streamgate.report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    ACTION_SKIPPED_RANDOM,
    ScheduleRecord,
    write_results_csv,
    write_summary_json,
)
from streamgate.stream import StreamSegment, compose_stream, default_scenario
from doubles import (
    FIELDS,
    REFERENCE_ADAPTERS,
    BetaShiftAdapter,
    FailingAdapter,
    FixedErrorAdapter,
    PerfectAdapter,
    reference_domain_report,
    reference_log_probabilities,
    reference_params_equal,
    tiny_params,
    tiny_stream,
    two_domain_stream,
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


def test_busy_window_equals_fixed_modulo_under_a_constant_latency():
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


def test_single_model_num_classes_defaults_to_the_models():
    params = tiny_params(num_classes=3)
    stream = tiny_stream(9)
    cfg = ProtocolConfig(protocol="single_model", seed=11)
    omitted = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params, cfg)
    given = run_stream(stream, SourceAdapter(params, latency=Constant(3.0)), params, cfg,
                       num_classes=3)
    assert omitted == given
    assert any(r.action == ACTION_SKIPPED_RANDOM for r in omitted.schedule)


def test_num_classes_other_than_the_models_is_rejected():
    params = tiny_params(num_classes=3)
    segments = [StreamSegment(reset=True, batches=tiny_stream(9))]
    cfg = ProtocolConfig(protocol="single_model")
    with pytest.raises(ValueError, match="num_classes 50 does not match the model's 3"):
        run_segments(segments, SourceAdapter(params, latency=Constant(3.0)), params, cfg,
                     num_classes=50)


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


@pytest.mark.parametrize("cfg,versions", [
    (ON, [1, 1, 1, 2, 2] * 2),
    (replace(ON, fallback_visibility="delayed"), [1, 0, 0, 2, 1] * 2),
    (replace(ON, protocol="single_model"), [1, -1, -1, 2, -1] * 2),
])
def test_versions_restart_at_every_segment_with_or_without_a_reset(cfg, versions):
    # Each segment adapts at its steps 0 and 3; the second continues the first's state.
    params = tiny_params(seed=3)
    segments = [StreamSegment(reset=True, batches=tiny_stream(5, seed=1)),
                StreamSegment(reset=False, batches=tiny_stream(5, seed=2))]
    report = run_segments(segments, BetaShiftAdapter(params, latency=Constant(3.0)), params, cfg)
    assert [r.params_version for r in report.schedule] == versions


def test_alpha_one_preserves_parameters():
    params = tiny_params(seed=1)
    stream = tiny_stream(8, seed=2)
    adapter = BetaShiftAdapter(params, latency=Constant(1.0))
    run_stream(stream, adapter, params, replace(OFF, alpha=1.0))
    assert reference_params_equal(adapter.params, params)


def test_alpha_half_blends_parameters():
    params = tiny_params(seed=1)
    stream = tiny_stream(1)
    adapter = BetaShiftAdapter(params, latency=Constant(1.0), step=4.0)
    run_stream(stream, adapter, params, replace(OFF, alpha=0.5))
    assert np.allclose(adapter.params.beta, params.beta + 2.0)


def test_a_fraction_alpha_runs_as_its_float():
    # ProtocolConfig(alpha=Fraction(1, 2)) passed its check, then every adapted step
    # failed: blend_parameters built an object array that isfinite rejects.
    params = tiny_params(seed=1)
    stream = tiny_stream(8, seed=2)
    runs = []
    for alpha in (Fraction(1, 2), 0.5):
        adapter = EntropyMinAdapter(params, latency=Constant(1.0), learning_rate=0.5)
        predictions = []
        report = run_stream(stream, adapter, params, replace(ON, alpha=alpha),
                            predictions_out=predictions)
        runs.append((report, params_fingerprint(adapter.params),
                     [p.tobytes() for p in predictions]))
    assert runs[0] == runs[1]
    assert runs[0][1] != params_fingerprint(params)


@pytest.mark.parametrize("eta", [np.float64(0.5), Fraction(1, 2), np.float32(0.5)])
def test_a_real_eta_writes_the_outputs_of_its_float(tmp_path, eta):
    # StreamClock(eta=np.float64(0.5)) was written to results.csv as "np.float64(0.5)";
    # Fraction(1, 2) was written as "1/2" and made write_summary_json raise TypeError.
    params = tiny_params(seed=1)
    stream = tiny_stream(8, seed=2)
    outputs = []
    for value in (eta, 0.5):
        adapter = EntropyMinAdapter(params, latency=Constant(1.5))
        report = run_stream(stream, adapter, params, ON, StreamClock(eta=value))
        write_results_csv(tmp_path / "results.csv", [report])
        write_summary_json(tmp_path / "summary.json", [report])
        outputs.append([(tmp_path / name).read_bytes() for name in ("results.csv", "summary.json")])
    assert outputs[0] == outputs[1]
    assert b",0.5," in outputs[0][0]


def test_a_numpy_integer_seed_or_domain_id_writes_the_summary_of_its_int(tmp_path):
    # check_integer takes np.int64, and write_summary_json raised TypeError on it after
    # the whole run.
    params = tiny_params(seed=1)
    outputs = []
    for integer in (np.int64, int):
        stream = tiny_stream(8, seed=2, domain_id=integer(2))
        cfg = ProtocolConfig(protocol="online", seed=integer(0))
        segments = [StreamSegment(True, stream)]
        reports = [run_stream(stream, EntropyMinAdapter(params), params, cfg),
                   run_segments(segments, EntropyMinAdapter(params), params, cfg)]
        write_summary_json(tmp_path / "summary.json", reports)
        outputs.append((tmp_path / "summary.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("make", [
    lambda params, real: NormStatAdapter(params, prior_weight=real(0.1)),
    lambda params, real: EntropyMinAdapter(params, latency=PerSample(real(0.1), real(0.1))),
    lambda params, real: EntropyMinAdapter(params, latency=Stochastic(real(2.1), real(0.1))),
], ids=["prior_weight", "per_sample", "stochastic"])
def test_a_float32_adapter_field_runs_as_its_float(make):
    # Each took float32 arithmetic: prior_weight's complement 1 - w, PerSample's cost
    # and Stochastic's draw, so the run's parameters or its recorded latencies moved.
    params = tiny_params(seed=1)
    stream = tiny_stream(8, seed=2)
    runs = []
    for real in (np.float32, lambda x: float(np.float32(x))):
        adapter, trace, predictions = make(params, real), [], []
        report = run_stream(stream, adapter, params, ON, StreamClock(eta=0.5),
                            predictions_out=predictions, trace_out=trace)
        runs.append((report, trace, params_fingerprint(adapter.params),
                     [p.tobytes() for p in predictions]))
    assert runs[0] == runs[1]


def test_empty_stream_rejected():
    params = tiny_params()
    with pytest.raises(ValueError, match="empty"):
        run_stream([], SourceAdapter(params), params, OFF)


def test_run_guards_name_what_they_reject():
    params = tiny_params()
    source = SourceAdapter(params)
    two = [StreamSegment(reset=True, batches=tiny_stream(2)) for _ in range(2)]
    with pytest.raises(ValueError, match="no segments to run"):
        run_segments([], source, params, OFF)
    with pytest.raises(ValueError, match="trace collection needs a single-segment stream"):
        run_segments(two, source, params, OFF, trace_out=[])
    with pytest.raises(ValueError, match="trace collection is defined for dual-model runs only"):
        run_stream(tiny_stream(2), source, params, replace(ON, protocol=SINGLE_MODEL),
                   trace_out=[])
    # num_classes and trace_out are taken by keyword only.
    with pytest.raises(TypeError, match="positional"):
        run_segments(two, source, params, OFF, StreamClock(), params.num_classes)
    wide = tiny_params(dim=5)
    with pytest.raises(ValueError, match="do not match the stream's feature dimension"):
        run_stream(tiny_stream(2), SourceAdapter(wide), wide, OFF)


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


def test_non_finite_gradient_names_adapter_and_step_and_commits_nothing():
    # A finite W near 1e308 overflows the entropy gradient.  With numpy's own
    # overflow warnings silenced, the descent step's check is what fails it.
    params = tiny_params()
    params.W = params.W / np.abs(params.W).max() * 1e308
    adapter = EntropyMinAdapter(params)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ProtocolError, match="adapter 'entropy_min' failed at step 0: "
                             "non-finite gradient in entropy_min",
    ) as failure:
        run_stream(tiny_stream(3), adapter, params, OFF)
    assert isinstance(failure.value.__cause__, FloatingPointError)
    assert reference_params_equal(adapter.params, params)


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


@pytest.mark.parametrize("traced", [False, True])
def test_failing_fallback_prediction_names_adapter_and_step(traced):
    # Step 1 falls in the busy window of step 0's 3 s update, so only the fallback,
    # and in a traced run the ghost, see its non-finite features.
    params = tiny_params()
    stream = tiny_stream(4)
    stream[1] = replace(stream[1], features=np.full_like(stream[1].features, np.nan))
    adapter = EntropyMinAdapter(params, latency=Constant(3.0))
    with pytest.raises(ProtocolError, match="adapter 'entropy_min' failed at step 1: "
                                            "features contain non-finite values"):
        run_stream(stream, adapter, params, ON, trace_out=[] if traced else None)


class BadCostAdapter(BetaShiftAdapter):
    """Costs 3 s at step 0, which opens a busy window over steps 1 and 2, and
    ``bad_cost`` at every later step, whether it adapts live or as a ghost."""

    name = "bad_cost"

    def __init__(self, pretrained, bad_cost):
        super().__init__(pretrained)
        self.bad_cost = bad_cost

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        outcome.cost = 3.0 if batch.t == 0 else self.bad_cost
        return outcome


@pytest.mark.parametrize("bad_cost", [float("nan"), float("inf")])
@pytest.mark.parametrize("traced,step", [(True, 1), (False, 3)])  # ghost at 1, live at 3
def test_non_finite_cost_names_adapter_and_step_live_or_counterfactual(traced, step, bad_cost):
    params = tiny_params()
    with pytest.raises(ProtocolError, match=f"adapter 'bad_cost' failed at step {step}: "):
        run_stream(tiny_stream(6), BadCostAdapter(params, bad_cost), params, ON,
                   trace_out=[] if traced else None)


@pytest.mark.parametrize("traced,step", [(True, 1), (False, 3)])  # ghost at 1, live at 3
def test_zero_cost_names_adapter_and_step_live_or_counterfactual(traced, step):
    params = tiny_params()
    with pytest.raises(ProtocolError, match=f"adapter 'bad_cost' failed at step {step}: "
                                            "adaptation cost must be positive"):
        run_stream(tiny_stream(6), BadCostAdapter(params, 0.0), params, ON,
                   trace_out=[] if traced else None)


def test_measured_traced_run_wall_clocks_every_step():
    params = tiny_params()
    adapter = EntropyMinAdapter(params, latency=Constant(1000.0))
    cfg = replace(ON, schedule_mode=FixedModulo(2), timing="measured")
    trace = []
    report = run_stream(tiny_stream(6), adapter, params, cfg, trace_out=trace)
    assert [r.action for r in report.schedule] == [ACTION_ADAPTED, ACTION_SKIPPED_FALLBACK] * 3
    assert all(0 < record.latency < 1000.0 for record in trace)


class InfiniteCostAdapter(BetaShiftAdapter):
    """Charges an infinite cost of its own, past every latency model's rule."""

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        outcome.cost = float("inf")
        return outcome


@pytest.mark.parametrize(
    "cls,adapter_kwargs,cause",
    [
        (BetaShiftAdapter, dict(step=float("nan")), "beta contains non-finite values"),  # blend
        # 1e308 s a sample overflows to an infinite cost on a batch of 4.
        (BetaShiftAdapter, dict(latency=PerSample(1e308)),
         "latency model cost must be positive and finite, got inf"),
        (InfiniteCostAdapter, {}, "elapsed must be positive and finite"),  # the clock's check
    ],
)
def test_invalid_adapter_output_aborts_naming_adapter_and_step(cls, adapter_kwargs, cause):
    params = tiny_params()
    stream = tiny_stream(4)
    with pytest.raises(ProtocolError, match=f"adapter 'beta_shift' failed at step 0: {cause}"):
        run_stream(stream, cls(params, **adapter_kwargs), params, OFF)


def test_runner_protocol_field_is_validated():
    params = tiny_params()
    stream = tiny_stream(2)
    with pytest.raises(ValueError, match="unknown protocol 'bogus'"):
        ProtocolConfig(protocol="bogus")
    with pytest.raises(ValueError):
        run_stream(stream, SourceAdapter(params), params,
                   ProtocolConfig(protocol="single_model"), num_classes=1)
    one_class = tiny_params(num_classes=1)
    with pytest.raises(ValueError, match="single-model runs need num_classes >= 2"):
        run_stream(stream, SourceAdapter(one_class), one_class,
                   ProtocolConfig(protocol="single_model"))


def test_schedule_mode_validation():
    with pytest.raises(ValueError):
        FixedModulo(0)
    assert FixedModulo(2).k == 2
    assert isinstance(ProtocolConfig().schedule_mode, BusyWindow)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
def test_fixed_modulo_rejects_a_non_integer_k(k):
    with pytest.raises(ValueError, match="FixedModulo k must be an integer"):
        FixedModulo(k)


@pytest.mark.parametrize("seed", [-1, True, 1.5, "0", None])
def test_protocol_config_rejects_a_seed_that_is_no_non_negative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        ProtocolConfig(seed=seed)
    assert ProtocolConfig(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("alpha", [True, False, "0.5", None, -0.1, 1.5, float("nan")])
def test_protocol_config_rejects_an_alpha_that_is_no_real_in_the_unit_interval(alpha):
    # alpha=True would run as 1: every blend keeps the old parameters.
    with pytest.raises(ValueError, match="alpha must be"):
        ProtocolConfig(alpha=alpha)
    assert ProtocolConfig(alpha=np.float64(0.25)).alpha == 0.25


def test_a_failure_names_the_domain_of_its_step():
    params = tiny_params()
    stream = tiny_stream(3, domain_id=4) + [replace(b, t=b.t + 3)
                                           for b in tiny_stream(3, domain_id=7)]
    with pytest.raises(ProtocolError, match=r"failed at step 4: synthetic adapter failure "
                                            r"\(domain 7\)$"):
        run_stream(stream, FailingAdapter(params, fail_at=4), params, OFF)


@pytest.mark.parametrize("mode", ["modulo:2", "busy_window", 2, None, BusyWindow])
def test_protocol_config_rejects_an_unknown_schedule_mode(mode):
    with pytest.raises(ValueError, match="unknown schedule mode"):
        ProtocolConfig(protocol=ONLINE, schedule_mode=mode)


# --------------------------------------------------------------------------
# Schedule classes
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "interval,latency,latency_reject,expected",
    [
        (1.0, Constant(3.0), Constant(3.0), 3),
        (1.0, Constant(3.0), Constant(2.5), 3),     # two costs closed at a tick boundary
        (1.0, Constant(3.5), Constant(2.5), None),  # two costs across one
        (4.0, Constant(4.0), Constant(0.5), 1),
        (3.0, Constant(3.0000000000000004), Constant(1.0), None),
        (4.0, PerSample(0.75, 0.5), Constant(1.0), 1),   # 3.5 s on a batch of 4
        (1.0, PerSample(0.75, 0.5), Constant(1.0), None),
        # A stochastic model keys no class, even when every draw takes one C.
        (4.0, Stochastic(2.0, 0.5), Constant(1.0), None),
        (4.0, Constant(3.0), Stochastic(2.0, 0.0), None),
    ],
)
def test_schedule_class_is_the_one_c_of_every_latency_model(
    interval, latency, latency_reject, expected
):
    adapter = RejectionEntropyAdapter(tiny_params(), latency=latency,
                                      latency_reject=latency_reject)
    clock = StreamClock(base_rate=1.0 / interval)
    assert clock.effective_interval == interval
    key = schedule_class(ON, adapter, clock, 4)
    if expected is None:
        assert key is None
    else:  # a run that adapts at every step is keyed as offline
        assert key == ("rejection_entropy", expected, OFFLINE if expected == 1 else ONLINE)


LATENCIES = st.one_of(
    st.builds(Constant, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0])),
    st.builds(PerSample, st.sampled_from([0.125, 0.25, 0.75]), st.sampled_from([0.0, 0.5])),
    st.builds(lambda mean_jitter, seed: Stochastic(*mean_jitter, seed),
              st.sampled_from([(mean, jitter) for mean in (1.0, 2.0, 3.5)
                               for jitter in (0.0, 0.25, 1.0, 2.5) if jitter < mean]),
              st.integers(0, 3)),
)
ETAS = st.sampled_from([1.0, 0.5, 1 / 3, 0.25])


def straddles_a_tick(interval, lo, hi):
    """Whether some tick boundary k * interval, k >= 1, lies in [lo, hi), that is,
    whether the range's two ends take different Cs.  Exact rational arithmetic."""
    interval, lo, hi = Fraction(interval), Fraction(lo), Fraction(hi)
    k = max(1, -(-lo // interval))  # the first boundary at or after lo
    return k * interval < hi


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(ADAPTERS)),
    latency=LATENCIES,
    latency_reject=LATENCIES,
    mode=st.sampled_from([BusyWindow(), FixedModulo(1), FixedModulo(2)]),
    protocols=st.tuples(*[st.sampled_from([OFFLINE, ONLINE, SINGLE_MODEL])] * 2),
    etas=st.tuples(ETAS, ETAS),
    seed=st.integers(0, 3),
)
# One C at two etas: interval 3 and interval 4 both give C = 2 for a 5 s cost.
@example(name="entropy_min", latency=Constant(5.0), latency_reject=Constant(1.0),
         mode=BusyWindow(), protocols=(ONLINE, ONLINE), etas=(1 / 3, 0.25), seed=0)
# Every step adapts under both runs, so the single-model run is keyed as offline.
@example(name="rejection_entropy", latency=Constant(2.0),
         latency_reject=Constant(0.5), mode=BusyWindow(), protocols=(SINGLE_MODEL, OFFLINE),
         etas=(0.25, 1 / 3), seed=1)
# A stochastic model keys no class, although every draw here takes C = 1.
@example(name="source", latency=Stochastic(2.0, 1.0), latency_reject=Constant(1.0),
         mode=BusyWindow(), protocols=(ONLINE, ONLINE), etas=(0.25, 0.25), seed=0)
def test_runs_with_one_schedule_class_report_alike(
    name, latency, latency_reject, mode, protocols, etas, seed
):
    params = tiny_params(seed=seed)
    stream = tiny_stream(10, seed=seed)
    runs = []
    for protocol, eta in zip(protocols, etas):
        adapter = make_adapter(name, params, latency=latency, latency_reject=(
            latency_reject if name == "rejection_entropy" else None))
        cfg = ProtocolConfig(protocol=protocol, schedule_mode=mode, seed=seed)
        clock = StreamClock(eta=eta)
        key = schedule_class(cfg, adapter, clock, stream[0].size)
        models = (latency, latency_reject) if name == "rejection_entropy" else (latency,)
        if any(isinstance(m, Stochastic) for m in models):
            assert key is None
        else:
            costs = [sample_latency(m, stream[0].size) for m in models]
            assert (key is None) == straddles_a_tick(clock.effective_interval,
                                                     min(costs), max(costs))
        report = run_stream(stream, adapter, params, cfg, clock)
        if key is not None and report.mean_c is not None:
            assert report.mean_c == key[1]  # every adapted step took the key's C
        runs.append((key, report))
    (key, first), (other_key, second) = runs
    if key is not None and key == other_key:
        assert replace(second, protocol=first.protocol, eta=first.eta,
                       run_id=first.run_id) == first


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


def test_measured_timing_runs_and_stays_positive(monkeypatch):
    # The interval is timed on the loop's own forward pass.  It was timed on model.predict,
    # a second entry point that finished the softmax the fallback pass skips.
    def refuse(*args):
        raise AssertionError("the run loop called model.predict")

    monkeypatch.setattr(protocol, "predict", refuse, raising=False)
    params = tiny_params()
    stream = tiny_stream(6)
    cfg = replace(ON, timing="measured")
    report = run_stream(stream, SourceAdapter(params, latency=Constant(9.0)), params, cfg)
    assert all(r.c_value >= 1 for r in report.schedule if r.action == ACTION_ADAPTED)


def test_a_c_beyond_the_float_range_fails_the_run_naming_adapter_and_step():
    # The run completed and its report's int / int mean C raised an unnamed OverflowError.
    params = tiny_params()
    with pytest.raises(ProtocolError, match=r"^adapter 'source' failed at step 0: elapsed / "
                       r"effective_interval must not exceed the float range, got 3\.0 / 1e-308 "
                       r"\(domain 0\)$"):
        run_stream(tiny_stream(3), SourceAdapter(params, latency=Constant(3.0)), params, ON,
                   StreamClock(base_rate=1e308))


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


# --------------------------------------------------------------------------
# One forward pass per parameter set and batch
# --------------------------------------------------------------------------

DESCENT = sorted(REFERENCE_ADAPTERS)


class Recorded:
    """Logs every step of ``adapt``, live or on a clone (which shares the log)."""

    log: list

    def adapt(self, batch):
        outcome = super().adapt(batch)
        self.log.append(outcome)
        return outcome


def as_bits(array):
    return array.dtype, array.shape, array.tobytes()


def recorded_run(cls, params, stream, cfg, traced, **kwargs):
    """Every adapt step, prediction, trace record and the report of one run, as exact bits."""
    adapter = type(cls.__name__, (Recorded, cls), {})(params, **kwargs)
    adapter.log = []
    predictions, trace = [], [] if traced else None
    report = run_stream(stream, adapter, params, cfg, predictions_out=predictions,
                        trace_out=trace)
    steps = [(as_bits(o.theta_hat.flat), as_bits(o.y_hat), type(o.cost), repr(o.cost), o.note)
             for o in adapter.log]
    return steps, [as_bits(y) for y in predictions], repr(trace), repr(report)


# Of its 12 steps, this run's rejection_entropy rejects every sample on 3 and part of the batch
# on the other 9.
REJECTING = dict(latency=Constant(3.0), threshold=0.5, seed=0, n=12, batch_size=5)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(DESCENT),
    visibility=st.sampled_from([IMMEDIATE, DELAYED]),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    traced=st.booleans(),
    latency=st.sampled_from([Constant(0.5), Constant(3.0), Stochastic(2.0, 1.5, seed=4)]),
    threshold=st.sampled_from([0.1, 0.5, 1.01]),  # times log K
    ties=st.booleans(),
    seed=st.integers(0, 3),
    n=st.integers(1, 12),
    batch_size=st.integers(1, 6),
)
@example(name="rejection_entropy", visibility=IMMEDIATE, alpha=0.0, traced=True, ties=False,
         **REJECTING)
@example(name="rejection_entropy", visibility=DELAYED, alpha=0.5, traced=True, ties=False,
         **REJECTING)
def test_descent_steps_equal_the_per_use_reference_bit_for_bit(
    name, visibility, alpha, traced, latency, threshold, ties, seed, n, batch_size
):
    params = tiny_params(seed=seed)
    if ties:  # every class scores alike, so every argmax is a tie
        params.W = np.zeros_like(params.W)
        params.b = np.zeros_like(params.b)
    stream = tiny_stream(n, batch_size=batch_size, seed=seed)
    cfg = ProtocolConfig(protocol=ONLINE, alpha=alpha, fallback_visibility=visibility,
                         seed=seed)
    kwargs = dict(latency=latency, learning_rate=0.5)
    if name == "rejection_entropy":
        kwargs["entropy_threshold"] = threshold * np.log(params.num_classes)
    got = recorded_run(ADAPTERS[name], params, stream, cfg, traced, **kwargs)
    want = recorded_run(REFERENCE_ADAPTERS[name], params, stream, cfg, traced, **kwargs)
    assert got == want


def test_the_rejecting_example_rejects_all_samples_and_some():
    params = tiny_params(seed=REJECTING["seed"])
    admitted = []

    class Gated(REFERENCE_ADAPTERS["rejection_entropy"]):
        """Logs each step's admitted rows, live or on a clone."""

        def adapt(self, batch):
            _, logp = reference_log_probabilities(self.params, batch.features)
            admitted.append(-(np.exp(logp) * logp).sum(axis=1) <= self.entropy_threshold)
            return super().adapt(batch)

    adapter = Gated(params, latency=REJECTING["latency"], learning_rate=0.5,
                    entropy_threshold=REJECTING["threshold"] * np.log(params.num_classes))
    stream = tiny_stream(REJECTING["n"], batch_size=REJECTING["batch_size"],
                         seed=REJECTING["seed"])
    run_stream(stream, adapter, params, ON, trace_out=[])
    assert sum(not a.any() for a in admitted) == 3
    assert sum(a.any() and not a.all() for a in admitted) == 9


@pytest.fixture()
def forward_calls(monkeypatch):
    """Counts calls of ``model.forward`` at every name a streamgate module binds it to."""
    calls = []
    original = model.forward

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("streamgate") and getattr(module, "forward", None) is original:
            monkeypatch.setattr(module, "forward", counting)
    return calls


@pytest.mark.parametrize("name", DESCENT)
def test_a_traced_step_runs_two_forward_passes(name, forward_calls, mini_pretrained, mini_spec):
    # The pre-step pass serves the fallback, the pseudo-labels, the gate and the
    # gradient; the post-step prediction is the second.  A 2.5 s cost skips two of
    # every three steps, so ghosts run as well.  A call on a stacked set runs one
    # pass per lane: the ticks from one adapted step to the next step as lanes of
    # one call, rejection_entropy's too, whose two latency models are constant.
    segments = two_domain_stream(mini_spec)
    kwargs = {"entropy_threshold": 10.0} if name == "rejection_entropy" else {}
    adapter = make_adapter(name, mini_pretrained, latency=Constant(2.5), **kwargs)
    trace = []
    report = run_segments(segments, adapter, mini_pretrained, ON, trace_out=trace)
    assert 0 < report.adapted_fraction < 1
    passes = sum(len(np.atleast_2d(params.flat)) for params in forward_calls)
    assert passes == 2 * len(trace) == 2 * len(segments[0].batches)
    assert len(forward_calls) < passes


def test_an_all_rejected_traced_step_runs_one_forward_pass(
    forward_calls, mini_pretrained, mini_spec
):
    segments = two_domain_stream(mini_spec)
    adapter = make_adapter("rejection_entropy", mini_pretrained, latency=Constant(2.5),
                           entropy_threshold=1e-300)
    trace = []
    report = run_segments(segments, adapter, mini_pretrained, ON, trace_out=trace)
    assert report.fingerprints[0] == report.fingerprints[-1]  # no update anywhere
    passes = sum(len(np.atleast_2d(params.flat)) for params in forward_calls)
    assert passes == len(trace)


class ForeignPass(EntropyMinAdapter):
    """Carries out a forward pass of another parameter set than the one it steps from,
    or none."""

    name = "foreign_pass"

    def __init__(self, pretrained, other):
        super().__init__(pretrained, latency=Constant(2.5))
        self.other = other

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        return replace(outcome, forward=None if self.other is None
                       else model.forward(self.other, batch.features))


def test_a_traced_run_reads_fallbacks_only_from_a_pass_of_the_fallback_set(
    mini_pretrained, mini_spec
):
    other = mini_pretrained.copy()
    other.W = -other.W  # other labels on every batch
    traces = []
    for carried in (other, None):
        traces.append([])
        run_segments(two_domain_stream(mini_spec), ForeignPass(mini_pretrained, carried),
                     mini_pretrained, ON, trace_out=traces[-1])
    assert traces[0] == traces[1]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", DESCENT)
def test_a_run_keeps_no_domain_array_alive(name, traced, mini_pretrained, mini_spec):
    segments = two_domain_stream(mini_spec)
    domain_array = weakref.ref(segments[0].batches[-1].features.base)
    adapter = make_adapter(name, mini_pretrained, latency=Constant(2.5))
    run_segments(segments, adapter, mini_pretrained, ON, trace_out=[] if traced else None)
    del segments
    gc.collect()
    assert domain_array() is None
    assert adapter.params.dim == mini_pretrained.dim


class CenteringAdapter(EntropyMinAdapter):
    """Centres its batch in place before its step."""

    name = "centering"

    def _adapt(self, batch):
        features = batch.features
        features -= features.mean(axis=0)
        return super()._adapt(batch)


@pytest.mark.parametrize("traced", [False, True])
def test_an_adapter_that_writes_into_its_batch_fails_at_its_first_step(
    traced, mini_pretrained, mini_spec
):
    # A composed stream is read-only: the write fails instead of changing the stream that
    # every later run reads.
    segments = compose_stream(default_scenario(mode="continual", batch_size=16), mini_spec, 64)
    with pytest.raises(ProtocolError, match=r"adapter 'centering' failed at step 0: .*read-only"):
        run_segments(segments, CenteringAdapter(mini_pretrained), mini_pretrained, ON,
                     trace_out=[] if traced else None)


@pytest.mark.parametrize("mode", ["episodic", "continual"])
def test_built_in_runs_leave_the_composed_stream_unchanged(mode, mini_pretrained, mini_spec):
    segments = compose_stream(default_scenario(mode=mode, batch_size=16), mini_spec, 64)

    def digest():
        h = hashlib.sha256()
        for batch in (b for segment in segments for b in segment.batches):
            h.update(batch.features.tobytes())
            h.update(batch.labels.tobytes())
        return h.hexdigest()

    before = digest()
    for name in sorted(ADAPTERS):
        adapter = make_adapter(name, mini_pretrained, latency=Constant(2.5))
        run_segments(segments, adapter, mini_pretrained, ON,
                     trace_out=[] if mode == "continual" else None)
    assert digest() == before


class InPlaceAdapter(EntropyMinAdapter):
    """Steps by assigning its new affine scale on ``self.params``, not on a copy."""

    name = "in_place"

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        self.params.gamma = outcome.theta_hat.gamma
        return outcome


@pytest.mark.parametrize("traced", [False, True])
def test_an_adapter_that_writes_into_its_parameters_fails_at_its_first_step(
    traced, mini_pretrained, mini_spec
):
    # Every set a run holds is read-only.  The write ran silently, and since a throwaway
    # copy shares the live set, a traced run's avg_error differed from its untraced one's.
    segments = compose_stream(default_scenario(mode="continual", batch_size=16), mini_spec, 64)
    with pytest.raises(ProtocolError, match=r"^adapter 'in_place' failed at step 0: gamma: this "
                       r"parameter set is held by a run; assign on params\.copy\(\) \(domain 0\)$"):
        run_segments(segments, InPlaceAdapter(mini_pretrained), mini_pretrained, ON,
                     trace_out=[] if traced else None)


class PretrainedWriter(EntropyMinAdapter):
    """Steps by assigning its new affine scale on ``self.pretrained``, which every later
    reset starts from."""

    name = "pretrained_writer"

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        self.pretrained.gamma = outcome.theta_hat.gamma
        return outcome


@pytest.mark.parametrize("mode", ["episodic", "continual"])
def test_an_adapter_that_writes_into_its_pretrained_set_fails_at_its_first_step(
    mode, mini_pretrained, mini_spec
):
    # The write ran silently and carried into the next episodic segment's start state.
    segments = compose_stream(default_scenario(mode=mode, batch_size=16), mini_spec, 64)
    adapter = PretrainedWriter(mini_pretrained)
    with pytest.raises(ProtocolError, match=r"^adapter 'pretrained_writer' failed at step 0: "
                       r"gamma: this parameter set is held by a run; assign on "
                       r"params\.copy\(\) \(domain 0\)$"):
        run_segments(segments, adapter, adapter.pretrained, ON,
                     trace_out=[] if mode == "continual" else None)
    assert not adapter.pretrained.flat.flags.writeable
    # What a run starts from is a writeable copy.
    adapter.reset()
    assert adapter.params.flat.flags.writeable and adapter.pretrained.copy().flat.flags.writeable
    assert params_fingerprint(adapter.params) == params_fingerprint(mini_pretrained)


@pytest.mark.parametrize("mode", ["episodic", "continual"])
def test_every_set_a_built_in_run_holds_is_read_only(mode, mini_pretrained, mini_spec):
    segments = compose_stream(default_scenario(mode=mode, batch_size=16), mini_spec, 64)
    for name in sorted(ADAPTERS):
        adapter = make_adapter(name, mini_pretrained, latency=Constant(2.5))
        run_segments(segments, adapter, mini_pretrained, ON,
                     trace_out=[] if mode == "continual" else None)
        held = adapter.params
        assert not any(getattr(held, field).flags.writeable for field in ("flat", *FIELDS))
        # The run froze its own copies: the initial set and a copy of the held one stay writeable.
        assert mini_pretrained.flat.flags.writeable and held.copy().flat.flags.writeable
