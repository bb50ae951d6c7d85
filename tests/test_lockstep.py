"""Steps from one state run as lanes of one stacked step, bit for bit as one at a time.

Episodic runs step their reset segments in lockstep.  The oracle stitches
``run_segments([segment])`` over each segment alone, which steps one batch at a
time, and compares every report field, the adapter's final parameters and its
latency rng with the run over all segments at once.

Traced runs step the ticks from one adapted step to the next as one window.  The
oracle runs the same adapter through a trivial subclass, which the lane gate sends
one tick at a time, and compares the traces as well.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamgate.adapters import (
    ADAPTERS,
    Constant,
    EntropyMinAdapter,
    PerSample,
    RejectionEntropyAdapter,
    Stochastic,
    make_adapter,
)
from streamgate.clock import StreamClock
from streamgate.model import forward, params_fingerprint
from streamgate.protocol import (
    DELAYED,
    IMMEDIATE,
    OFFLINE,
    ONLINE,
    BusyWindow,
    FixedModulo,
    ProtocolConfig,
    ProtocolError,
    run_segments,
)
from streamgate.report import ACTION_ADAPTED
from streamgate.stream import (
    ScenarioSpec,
    StreamSegment,
    compose_stream,
    default_corruption_suite,
)
from doubles import reference_run_numbers, tiny_params, tiny_stream

LATENCIES = {
    "one_tick": Constant(0.5),
    "three_ticks": Constant(3.0),
    "stochastic_one_c": Stochastic(0.6, 0.3, seed=5),
    "stochastic_two_cs": Stochastic(2.0, 1.5, seed=4),
}


def episodic(n_segments, n_batches, batch_size=4, scale=(), seed=0):
    """Reset-marked segments of one length, domain i in segment i; the features of
    segment i are multiplied by ``scale[i]`` where given."""
    segments = []
    for i in range(n_segments):
        batches = tiny_stream(n_batches, batch_size=batch_size, seed=seed + i, domain_id=i)
        if i < len(scale):
            batches = [replace(b, features=b.features * scale[i]) for b in batches]
        segments.append(StreamSegment(reset=True, batches=batches))
    return segments


def _counted(step):
    def counted(self, batch):
        self.steps.append(1 if batch.features.ndim == 2 else len(batch.features))
        return step(self, batch)

    return counted


@contextmanager
def counting(*adapters):
    """Log in ``adapter.steps`` the lane count of every step each adapter makes in the
    block, live or on a clone, which shares its original's log.  It patches ``_adapt`` on
    the class defining it, so every adapter keeps its own type and a clone's step
    commits to the clone, not to its original."""
    owners = {next(c for c in type(a).__mro__ if "_adapt" in vars(c)) for a in adapters}
    with pytest.MonkeyPatch.context() as patch:
        for owner in owners:
            patch.setattr(owner, "_adapt", _counted(vars(owner)["_adapt"]))
        for adapter in adapters:
            adapter.steps = []
        yield


def rng_state(adapter):
    return None if adapter._latency_rng is None else adapter._latency_rng.bit_generator.state


def stitched(segments, adapter, params, cfg, clock):
    """The reports of each segment run alone, stitched as one run's report."""
    parts = [run_segments([segment], adapter, params, cfg, clock) for segment in segments]
    per_domain = [row for part in parts for row in part.per_domain]
    schedule = [record for part in parts for record in part.schedule]
    return replace(parts[0], per_domain=per_domain, schedule=schedule,
                   fingerprints=[f for part in parts for f in part.fingerprints],
                   **reference_run_numbers(per_domain, schedule))


def assert_lockstep_equals_sequential(name, kwargs, segments, cfg, clock, lanes, params=None):
    params = tiny_params(seed=2) if params is None else params
    together, alone = (make_adapter(name, params, **kwargs) for _ in range(2))
    with counting(together, alone):
        report = run_segments(segments, together, params, cfg, clock)
        expected = stitched(segments, alone, params, cfg, clock)
    assert report == expected
    assert report.schedule == expected.schedule  # also when == read no schedule
    assert together.params.flat.shape == params.flat.shape
    assert params_fingerprint(together.params) == params_fingerprint(alone.params)
    assert rng_state(together) == rng_state(alone)
    # Lanes adapt at the same ticks, so a lockstep run steps once per tick for all.
    assert len(together.steps) * lanes == len(alone.steps)
    return report


def expected_lanes(name, segments):
    """Every built-in adapter steps all segments together, but rejection_entropy: its two
    latency models could charge its lanes apart."""
    return 1 if name == "rejection_entropy" else len(segments)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(ADAPTERS)),
    protocol=st.sampled_from([OFFLINE, ONLINE]),
    modulo=st.none() | st.integers(1, 3),
    alpha=st.sampled_from([0.0, 0.5]),
    visibility=st.sampled_from([IMMEDIATE, DELAYED]),
    latency=st.sampled_from(sorted(LATENCIES)),
    n_segments=st.integers(2, 4),
    n_batches=st.integers(1, 5),
    batch_size=st.integers(1, 5),
    seed=st.integers(0, 5),
)
@example(name="rejection_entropy", protocol=ONLINE, modulo=None, alpha=0.5,
         visibility=DELAYED, latency="stochastic_one_c", n_segments=3, n_batches=4,
         batch_size=4, seed=0)
# Costs from 0.5 to 3.5 ticks: the lanes' busy windows vary, alike in every lane.
@example(name="entropy_min", protocol=ONLINE, modulo=None, alpha=0.5,
         visibility=IMMEDIATE, latency="stochastic_two_cs", n_segments=3, n_batches=5,
         batch_size=4, seed=1)
def test_lockstep_run_equals_its_segments_run_one_at_a_time(
    name, protocol, modulo, alpha, visibility, latency, n_segments, n_batches, batch_size, seed
):
    kwargs = {"latency": LATENCIES[latency]}
    if name == "rejection_entropy":
        kwargs["latency_reject"] = Stochastic(0.4, 0.1, seed=7)
    segments = episodic(n_segments, n_batches, batch_size, seed=seed)
    cfg = ProtocolConfig(protocol=protocol, alpha=alpha, fallback_visibility=visibility,
                         seed=seed, schedule_mode=BusyWindow() if modulo is None
                         else FixedModulo(modulo))
    lanes = expected_lanes(name, segments)
    assert_lockstep_equals_sequential(name, kwargs, segments, cfg, StreamClock(), lanes)


@pytest.mark.parametrize("latencies", [
    (Stochastic(0.8, 0.1, seed=3), Stochastic(0.5, 0.4, seed=8)),
    (Constant(0.9), Constant(0.2)),
    (Constant(0.9), Stochastic(0.5, 0.4, seed=8)),
])
@pytest.mark.parametrize("protocol", [OFFLINE, ONLINE])
def test_rejection_entropy_steps_one_segment_at_a_time(latencies, protocol):
    # Scaled-up features give confident, admitted rows; scaled-down ones are
    # rejected, so stepped together some segments would update and some would not
    # at one tick, each paying another latency model's cost.
    segments = episodic(4, 5, scale=(30.0, 0.01, 30.0, 0.01))
    kwargs = dict(latency=latencies[0], latency_reject=latencies[1], entropy_threshold=0.05,
                  learning_rate=0.5)
    params = tiny_params(seed=2)
    probe = RejectionEntropyAdapter(params, **kwargs)
    result = forward(params.stack(4), np.stack([s.batches[0].features for s in segments]))
    entropy = -(result.p * result.logp).sum(axis=-1)
    assert list((entropy <= probe.entropy_threshold).any(axis=-1)) == [True, False, True, False]
    cfg = ProtocolConfig(protocol=protocol, alpha=0.5, seed=1)
    assert_lockstep_equals_sequential("rejection_entropy", kwargs, segments, cfg,
                                      StreamClock(), 1)


@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_lockstep_keeps_the_bits_at_the_default_model_and_batch_size(
    name, source_spec, pretrained
):
    # Reductions over 64 rows and 10 classes sum pairwise, unlike the tiny specs'.
    scenario = ScenarioSpec(mode="episodic", domain_order=default_corruption_suite()[::3])
    segments = [replace(s, batches=s.batches[:4])
                for s in compose_stream(scenario, source_spec, 256, seed=1)]
    kwargs = dict(latency=Constant(1.0))
    if name == "rejection_entropy":
        # Some segments reject every row at some ticks.
        kwargs.update(latency_reject=Constant(0.5), entropy_threshold=0.05)
    cfg = ProtocolConfig(protocol=ONLINE, alpha=0.5)
    lanes = 1 if name == "rejection_entropy" else 5
    assert_lockstep_equals_sequential(name, kwargs, segments, cfg, StreamClock(), lanes,
                                      params=pretrained)


def straddling_default_model_case(name, source_spec, pretrained):
    """An online episodic run at the default model and batch size whose Stochastic costs
    span C = 1 to 4: its five segments step together, bit for bit as one at a time."""
    scenario = ScenarioSpec(mode="episodic", domain_order=default_corruption_suite()[::3])
    segments = [replace(s, batches=s.batches[:10])
                for s in compose_stream(scenario, source_spec, 640, seed=1)]
    kwargs = dict(latency=LATENCIES["stochastic_two_cs"])
    cfg = ProtocolConfig(protocol=ONLINE, alpha=0.5)
    report = assert_lockstep_equals_sequential(name, kwargs, segments, cfg, StreamClock(), 5,
                                               params=pretrained)
    assert len({record.c_value for record in report.schedule} - {None}) > 1


@pytest.mark.parametrize("name", ["entropy_min", "input_restore", "norm_stat", "pseudo_label"])
def test_a_straddling_stochastic_run_steps_together_at_the_default_model(
    name, source_spec, pretrained
):
    straddling_default_model_case(name, source_spec, pretrained)


# The same adapters through a trivial subclass each, which the lane gate sends one tick
# at a time.
ONE_TICK_AT_A_TIME = {name: type(f"OneTick{cls.__name__}", (cls,), {})
                      for name, cls in ADAPTERS.items()}

TRACED_LATENCIES = {
    "one_tick": Constant(1.0),
    "three_ticks": Constant(3.0),
    "twelve_ticks": Constant(12.0),
    "stochastic_two_cs": Stochastic(2.0, 1.5, seed=4),
}


def assert_traced_windows_equal_ticks(name, kwargs, batches, cfg, clock, params):
    """A traced run steps its windows as lanes, bit for bit as one tick at a time; it
    makes one adapt call per adapted step, and one more for a window cut at the end."""
    segments = [StreamSegment(reset=True, batches=batches)]
    laned = make_adapter(name, params, **kwargs)
    alone = ONE_TICK_AT_A_TIME[name](params, **kwargs)
    traces = [], []
    with counting(laned, alone):
        report, expected = (run_segments(segments, adapter, params, cfg, clock, trace_out=trace)
                            for adapter, trace in zip((laned, alone), traces))
    assert traces[0] == traces[1]
    assert report == expected
    assert report.schedule == expected.schedule
    assert params_fingerprint(laned.params) == params_fingerprint(alone.params)
    assert rng_state(laned) == rng_state(alone)
    assert alone.steps == [1] * len(batches)
    assert sum(laned.steps) == len(batches)
    actions = [record.action for record in report.schedule]
    if name == "rejection_entropy":  # two latency models: one tick at a time
        assert laned.steps == alone.steps
    else:
        cut = actions[-1] != ACTION_ADAPTED
        assert len(laned.steps) == actions.count(ACTION_ADAPTED) + cut
    return report


@pytest.mark.parametrize("cls", [EntropyMinAdapter, ONE_TICK_AT_A_TIME["entropy_min"]])
def test_counting_leaves_a_traced_run_as_it_is(cls):
    # A clone's step must not reach the live adapter through the counter.
    params = tiny_params(seed=2)
    segments = [StreamSegment(reset=True, batches=tiny_stream(12, seed=1))]

    def traced(adapter):
        trace = []
        report = run_segments(segments, adapter, params, ProtocolConfig(protocol=ONLINE),
                              trace_out=trace)
        return report, report.schedule, trace, params_fingerprint(adapter.params)

    plain, counted = (cls(params, latency=Constant(3.0)) for _ in range(2))
    expected = traced(plain)
    with counting(counted):
        assert traced(counted) == expected
    # C = 3: four adapted steps and a window cut at the end, or one step a tick.
    assert len(counted.steps) == (5 if cls is EntropyMinAdapter else 12)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(ADAPTERS)),
    latency=st.sampled_from(sorted(TRACED_LATENCIES)),
    modulo=st.none() | st.integers(2, 5),
    alpha=st.sampled_from([0.0, 0.5]),
    visibility=st.sampled_from([IMMEDIATE, DELAYED]),
    eta=st.sampled_from([1.0, 0.5, 0.25]),
    n_batches=st.integers(1, 30),
    batch_size=st.integers(1, 5),
    seed=st.integers(0, 5),
)
# C = 12 over 20 ticks: the window from tick 13 is cut at the stream's end.
@example(name="entropy_min", latency="twelve_ticks", modulo=None, alpha=0.5,
         visibility=DELAYED, eta=1.0, n_batches=20, batch_size=4, seed=0)
# C = 3 over 5 ticks: the window from tick 4 is cut to one lane.
@example(name="input_restore", latency="three_ticks", modulo=None, alpha=0.0,
         visibility=IMMEDIATE, eta=1.0, n_batches=5, batch_size=1, seed=0)
# Costs of 0.5 to 3.5 s against a 2 s tick: C is 1 or 2, a window of two ticks or none.
@example(name="pseudo_label", latency="stochastic_two_cs", modulo=None, alpha=0.0,
         visibility=IMMEDIATE, eta=0.5, n_batches=30, batch_size=4, seed=1)
@example(name="norm_stat", latency="three_ticks", modulo=4, alpha=0.5,
         visibility=DELAYED, eta=0.25, n_batches=30, batch_size=3, seed=2)
def test_a_traced_run_steps_its_windows_as_lanes_bit_for_bit(
    name, latency, modulo, alpha, visibility, eta, n_batches, batch_size, seed
):
    kwargs = {"latency": TRACED_LATENCIES[latency]}
    if name == "rejection_entropy":
        kwargs["latency_reject"] = Stochastic(0.4, 0.1, seed=7)
    cfg = ProtocolConfig(protocol=ONLINE, alpha=alpha, fallback_visibility=visibility,
                         seed=seed, schedule_mode=BusyWindow() if modulo is None
                         else FixedModulo(modulo))
    assert_traced_windows_equal_ticks(name, kwargs, tiny_stream(n_batches, batch_size, seed=seed),
                                      cfg, StreamClock(eta=eta), tiny_params(seed=2))


def traced_default_model_case(source_spec, pretrained):
    """A traced continual entropy_min run at the default model and batch size, C = 12:
    its windows of twelve ticks step as lanes, bit for bit as one tick at a time."""
    scenario = ScenarioSpec(mode="continual", domain_order=default_corruption_suite()[::3])
    batches = compose_stream(scenario, source_spec, 640, seed=1)[0].batches
    cfg = ProtocolConfig(protocol=ONLINE, alpha=0.5)
    report = assert_traced_windows_equal_ticks("entropy_min", dict(latency=Constant(12.0)),
                                               batches, cfg, StreamClock(), pretrained)
    assert {record.c_value for record in report.schedule} == {12, None}


def test_a_traced_run_steps_its_windows_as_lanes_at_the_default_model(source_spec, pretrained):
    traced_default_model_case(source_spec, pretrained)


def test_lockstep_keeps_the_bits_at_two_blas_threads():
    # OpenBLAS may split a product across threads, and the stacked products are not the
    # 1-D path's.  Two threads and never more, which any two-core machine runs.
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("from streamgate.stream import SourceSpec, make_source_dataset, "
            "pretrain_source_model\n"
            "from test_lockstep import straddling_default_model_case, "
            "traced_default_model_case\n"
            "spec = SourceSpec()\n"
            "params = pretrain_source_model(*make_source_dataset(spec))\n"
            "straddling_default_model_case('entropy_min', spec, params)\n"
            "traced_default_model_case(spec, params)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr


class ShapeRecorder(EntropyMinAdapter):
    """A custom adapter: it records the shape of every batch it is given."""

    name = "shape_recorder"

    def _adapt(self, batch):
        self.shapes.append((batch.features.shape, batch.labels.shape))
        return super()._adapt(batch)


def test_a_custom_adapter_steps_one_segment_at_a_time_on_2d_batches():
    params = tiny_params(seed=2)
    segments = episodic(3, 4, batch_size=5)
    adapter = ShapeRecorder(params, latency=Constant(1.0))
    adapter.shapes = []
    report = run_segments(segments, adapter, params, ProtocolConfig())
    assert adapter.shapes == [((5, 4), (5,))] * 12
    assert replace(report, adapter="entropy_min") == stitched(
        segments, EntropyMinAdapter(params, latency=Constant(1.0)), params, ProtocolConfig(),
        StreamClock())


class ArrayCost(EntropyMinAdapter):
    """A custom adapter that charges one cost per row, which no step may do."""

    name = "array_cost"

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        outcome.cost = np.full(batch.size, 1.0)
        return outcome


def test_a_custom_adapter_charging_an_array_fails_naming_adapter_step_and_domain():
    params = tiny_params(seed=2)
    adapter = ArrayCost(params, latency=Constant(1.0))
    with pytest.raises(ProtocolError, match=r"adapter 'array_cost' failed at step 0: .*"
                                            r"ambiguous.*\(domain 0\)$"):
        run_segments(episodic(3, 4), adapter, params, ProtocolConfig())


@pytest.mark.filterwarnings("ignore:domains have unequal sizes")
def test_runs_that_cannot_step_together_take_one_segment_at_a_time():
    params = tiny_params(seed=2)
    uneven = episodic(3, 4)
    uneven[1].batches.pop()
    continued = episodic(3, 4)
    continued[2] = replace(continued[2], reset=False)
    mixed_sizes = episodic(3, 4)
    mixed_sizes[0].batches[1] = tiny_stream(2, batch_size=3)[1]
    measured = ProtocolConfig(timing="measured")
    for segments, cfg in [(uneven, ProtocolConfig()), (continued, ProtocolConfig()),
                          (mixed_sizes, ProtocolConfig()), (episodic(3, 4), measured),
                          (episodic(3, 4), ProtocolConfig(protocol="single_model"))]:
        adapter = make_adapter("source", params, latency=Constant(0.5))
        with counting(adapter):
            run_segments(segments, adapter, params, cfg)
        assert adapter.steps == [1] * sum(len(s.batches) for s in segments)


def poisoned(segments, lane, step):
    batch = segments[lane].batches[step]
    segments[lane].batches[step] = replace(batch, features=np.full_like(batch.features, np.nan))
    return segments


def sequential_failure(segments, name, params, cfg):
    adapter = make_adapter(name, params, latency=Constant(1.0))
    with pytest.raises(ProtocolError) as failure:
        for segment in segments:
            run_segments([segment], adapter, params, cfg)
    return failure.value


@pytest.mark.parametrize("name", sorted(ADAPTERS))
@pytest.mark.parametrize("poison,message", [
    ([(2, 3)], "failed at step 3: features contain non-finite values (domain 2)"),
    # Lane 2 fails first in lockstep; one segment at a time, segment 1 fails first.
    ([(2, 1), (1, 3)], "failed at step 3: features contain non-finite values (domain 1)"),
])
def test_a_failing_lane_raises_the_sequential_runs_error(name, poison, message):
    params = tiny_params(seed=2)
    segments = episodic(4, 5)
    for lane, step in poison:
        segments = poisoned(segments, lane, step)
    cfg = ProtocolConfig()
    expected = sequential_failure(segments, name, params, cfg)
    adapter = make_adapter(name, params, latency=Constant(1.0))
    with pytest.raises(ProtocolError) as failure:
        run_segments(segments, adapter, params, cfg)
    assert str(failure.value) == str(expected)
    assert str(failure.value).endswith(message)
    assert type(failure.value.__cause__) is type(expected.__cause__)



@pytest.mark.parametrize("step", [5, 12, 16])  # mid-window, a live tick, a cut window
def test_a_failing_window_fails_as_its_ticks_one_at_a_time(step):
    params = tiny_params(seed=2)
    segments = poisoned([StreamSegment(reset=True, batches=tiny_stream(20, seed=3))], 0, step)
    laned = EntropyMinAdapter(params, latency=Constant(12.0))
    alone = ONE_TICK_AT_A_TIME["entropy_min"](params, latency=Constant(12.0))
    failures, traces = [], []
    with counting(laned, alone):
        for adapter in (laned, alone):
            traces.append([])
            with pytest.raises(ProtocolError) as failure:
                run_segments(segments, adapter, params, ProtocolConfig(protocol=ONLINE),
                             trace_out=traces[-1])
            failures.append(failure.value)
    assert str(failures[0]) == str(failures[1])
    assert str(failures[0]).endswith(
        f"failed at step {step}: features contain non-finite values (domain 0)")
    assert traces[0] == traces[1] and len(traces[0]) == step
    # The failing window (ticks 1 to 12, or 13 to 19 cut at the end) tries one stacked
    # step, then steps its ticks one at a time.
    assert alone.steps == [1] * (step + 1)
    assert laned.steps == ([1, 12] + [1] * step if step <= 12 else
                           [1, 12, 7] + [1] * (step - 12))


def test_a_window_of_two_batch_sizes_steps_one_tick_at_a_time():
    params = tiny_params(seed=2)
    batches = tiny_stream(20, seed=3)
    batches[5] = tiny_stream(6, batch_size=3, seed=4)[5]
    segments = [StreamSegment(reset=True, batches=batches)]
    laned = EntropyMinAdapter(params, latency=PerSample(3.0))  # 12 s a batch of 4
    alone = ONE_TICK_AT_A_TIME["entropy_min"](params, latency=PerSample(3.0))
    traces = [], []
    with counting(laned, alone):
        report, expected = (run_segments(segments, adapter, params,
                                         ProtocolConfig(protocol=ONLINE), trace_out=trace)
                            for adapter, trace in zip((laned, alone), traces))
    assert traces[0] == traces[1]
    assert report == expected
    # Ticks 1 to 12 cannot stack, so they step one at a time; ticks 13 to 19 stack.
    assert laned.steps == [1] * 13 + [7]


def test_a_window_whose_sizes_add_up_as_one_size_steps_one_tick_at_a_time():
    # Batches of 3 and 5 in one window hold as many rows as two of 4, so only a
    # check of each batch's size, not of the total, keeps the lanes apart.
    params = tiny_params(seed=2)
    batches = tiny_stream(20, seed=3)
    batches[5] = tiny_stream(6, batch_size=3, seed=4)[5]
    batches[6] = tiny_stream(7, batch_size=5, seed=5)[6]
    segments = [StreamSegment(reset=True, batches=batches)]
    laned = EntropyMinAdapter(params, latency=PerSample(3.0))
    alone = ONE_TICK_AT_A_TIME["entropy_min"](params, latency=PerSample(3.0))
    traces = [], []
    with counting(laned, alone):
        report, expected = (run_segments(segments, adapter, params,
                                         ProtocolConfig(protocol=ONLINE), trace_out=trace)
                            for adapter, trace in zip((laned, alone), traces))
    assert traces[0] == traces[1]
    assert report == expected
    assert laned.steps == [1] * 13 + [7]
