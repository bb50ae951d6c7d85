"""Differential tests: simulation and replay against an independent busy-window scheduler."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamgate.adapters import ADAPTERS, Constant, PerSample, Stochastic, make_adapter
from streamgate.clock import StreamClock
from streamgate.protocol import ProtocolConfig, run_stream
from streamgate.report import ACTION_ADAPTED
from streamgate.trace import TraceRecord, replay_online
from doubles import tiny_params, tiny_stream


def reference_schedule(cost_at: Callable[[int], float], n: int, interval: float) -> list[int]:
    """Per-step C of a busy-window stream, 0 for a step that falls back.

    Batch t is revealed at time t * interval.  The single worker takes a batch
    only if it is idle when the batch arrives; an adaptation started on batch t
    runs until t * interval + cost, in exact rational time.  ``cost_at(t)`` is
    asked only for the steps that adapt, in order.
    """
    actions: list[int] = []
    idle_from = Fraction(0)  # in units of the interval
    for t in range(n):
        if t < idle_from:
            actions.append(0)
            continue
        ticks = Fraction(cost_at(t)) / Fraction(interval)
        idle_from = t + ticks
        actions.append(max(1, -(-ticks.numerator // ticks.denominator)))
    return actions


def actions_of(report) -> list[int]:
    return [r.c_value if r.action == ACTION_ADAPTED else 0 for r in report.schedule]


def reference_stochastic(model: Stochastic) -> Callable[[int], float]:
    """The latency draws of a fresh Stochastic model, one per adaptation."""
    rng = np.random.default_rng(model.seed)
    return lambda t: max(model.mean + model.jitter * rng.uniform(-1.0, 1.0), 1e-9)


# Clocks whose interval is exact: eta = 1/m gives an interval of m seconds.
clocks = st.integers(min_value=1, max_value=8).map(lambda m: StreamClock(eta=1.0 / m))
costs = st.floats(min_value=0.05, max_value=30.0, allow_nan=False, allow_infinity=False)
EXAMPLES = settings(max_examples=40, deadline=None)
ON = ProtocolConfig(protocol="online", seed=0)

# Random streams have domains of unequal sizes; their reports warn about it.
pytestmark = pytest.mark.filterwarnings("ignore:domains have unequal sizes")


@EXAMPLES
@given(st.lists(costs | st.integers(1, 20).map(float), min_size=1, max_size=60),
       st.integers(min_value=1, max_value=8))
def test_replay_matches_reference_on_arbitrary_costs(latencies, m):
    clock = StreamClock(eta=1.0 / m)
    trace = [TraceRecord(step=t, latency=lat, correct_adapted=1, correct_fallback=0,
                         domain_id=t // 7, batch_size=1) for t, lat in enumerate(latencies)]
    expected = reference_schedule(latencies.__getitem__, len(latencies), clock.effective_interval)
    assert actions_of(replay_online(trace, clock)) == expected


@EXAMPLES
@given(st.sampled_from(["constant", "multiple", "per_sample", "stochastic"]), costs, costs,
       clocks, st.integers(min_value=1, max_value=40))
def test_simulation_matches_reference_for_each_latency_model(kind, a, b, clock, n):
    interval = clock.effective_interval
    if kind == "constant":
        latency, cost_at = Constant(a), lambda t: a
    elif kind == "multiple":  # a cost of exactly k intervals spans k ticks, not k + 1
        k = int(a) + 1
        latency, cost_at = Constant(k * interval), lambda t: k * interval
    elif kind == "per_sample":
        latency, cost_at = PerSample(per_sample=a, base=b), lambda t: a * 4 + b  # B = 4
    else:
        latency = Stochastic(mean=a, jitter=b, seed=int(a * 1000))
        cost_at = reference_stochastic(latency)
    params = tiny_params()
    adapter = make_adapter("source", params, latency=latency)
    report = run_stream(tiny_stream(n), adapter, params, ON, clock)
    assert actions_of(report) == reference_schedule(cost_at, n, interval)


@EXAMPLES
@given(st.floats(min_value=0.01, max_value=1.2), clocks, st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=1000))
def test_data_dependent_cost_matches_reference(threshold, clock, n, seed):
    # rejection_entropy costs 3 s for an update and 1 s when it rejects the
    # whole batch, which depends on the parameters the run has reached.  The
    # trace holds the cost each adapted step was charged.
    params = tiny_params(seed=seed % 7)
    adapter = make_adapter("rejection_entropy", params, entropy_threshold=threshold)
    trace: list = []
    report = run_stream(tiny_stream(n, seed=seed), adapter, params, ON, clock, trace_out=trace)
    charged = [r.latency for r in trace]
    assert actions_of(report) == reference_schedule(charged.__getitem__, n,
                                                    clock.effective_interval)


@EXAMPLES
@given(st.sampled_from(sorted(ADAPTERS)), st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.5, max_value=12.0), st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=1000))
def test_replay_of_a_traced_run_is_the_run(name, eta, mean, n, seed):
    params = tiny_params(seed=seed % 5)
    adapter = make_adapter(name, params, latency=Stochastic(mean=mean, jitter=mean / 2, seed=seed))
    # Two domains, so the per-domain rows are checked too.
    stream = [b if b.t < n // 2 else replace(b, domain_id=1) for b in tiny_stream(n, seed=seed)]
    clock = StreamClock(eta=eta)
    trace: list = []
    run = run_stream(stream, adapter, params, ProtocolConfig(protocol="online", seed=seed),
                     clock, trace_out=trace)
    replayed = replay_online(trace, clock)
    assert replayed.schedule == run.schedule
    assert replayed.per_domain == run.per_domain
    assert replayed.avg_error == run.avg_error
    assert actions_of(run) == reference_schedule(
        [r.latency for r in trace].__getitem__, n, clock.effective_interval)
