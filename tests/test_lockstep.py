"""Episodic runs step their reset segments in lockstep, bit for bit as one at a time.

The oracle stitches ``run_segments([segment])`` over each segment alone, which
steps one batch at a time, and compares every report field, the adapter's
final parameters and its latency rng with the run over all segments at once.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamgate.adapters import (
    ADAPTERS,
    Constant,
    EntropyMinAdapter,
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
    schedule_class,
)
from streamgate.report import aggregate
from streamgate.stream import (
    ScenarioSpec,
    StreamSegment,
    compose_stream,
    default_corruption_suite,
)
from doubles import tiny_params, tiny_stream

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


def counting(adapter):
    """Count the adapter's ``adapt`` calls on the instance; its class stays as it is."""
    adapt, adapter.calls = adapter.adapt, 0

    def counted(batch):
        adapter.calls += 1
        return adapt(batch)

    adapter.adapt = counted
    return adapter


def rng_state(adapter):
    return None if adapter._latency_rng is None else adapter._latency_rng.bit_generator.state


def stitched(segments, adapter, params, cfg, clock):
    """The reports of each segment run alone, stitched as one run's report."""
    parts = [run_segments([segment], adapter, params, cfg, clock) for segment in segments]
    per_domain = [row for part in parts for row in part.per_domain]
    avg_error, mean_c, adapted_fraction = aggregate(per_domain)
    return replace(parts[0], per_domain=per_domain, avg_error=avg_error, mean_c=mean_c,
                   adapted_fraction=adapted_fraction,
                   schedule=[record for part in parts for record in part.schedule],
                   fingerprints=[f for part in parts for f in part.fingerprints])


def assert_lockstep_equals_sequential(name, kwargs, segments, cfg, clock, lanes, params=None):
    params = tiny_params(seed=2) if params is None else params
    together = counting(make_adapter(name, params, **kwargs))
    alone = counting(make_adapter(name, params, **kwargs))
    report = run_segments(segments, together, params, cfg, clock)
    expected = stitched(segments, alone, params, cfg, clock)
    assert report == expected
    assert report.schedule == expected.schedule  # also when == read no schedule
    assert together.params.flat.shape == params.flat.shape
    assert params_fingerprint(together.params) == params_fingerprint(alone.params)
    assert rng_state(together) == rng_state(alone)
    # Lanes adapt at the same ticks, so a lockstep run steps once per tick for all.
    assert together.calls * lanes == alone.calls


def expected_lanes(name, kwargs, segments, cfg, clock):
    """rejection_entropy has two latency models, so its lanes could be charged apart."""
    adapter = make_adapter(name, tiny_params(seed=2), **kwargs)
    one_c = schedule_class(cfg, adapter, clock, segments[0].batches[0].size) is not None
    return len(segments) if name != "rejection_entropy" and one_c else 1


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
    clock = StreamClock()
    lanes = expected_lanes(name, kwargs, segments, cfg, clock)
    assert_lockstep_equals_sequential(name, kwargs, segments, cfg, clock, lanes)


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
        adapter = counting(make_adapter("source", params, latency=Constant(0.5)))
        run_segments(segments, adapter, params, cfg)
        assert adapter.calls == sum(len(s.batches) for s in segments)


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

