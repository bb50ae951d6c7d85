"""Tests of the benchmark itself; they run the traced workloads, so they take minutes.

    python3 -m pytest perfbench/selftest.py

Run from the root of a streamgate checkout.  The file name keeps these tests
out of the repository's default pytest collection.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics whose calls must be non-zero, by workload: the layers each
# workload exercises (see NOTES.md for the metric mapping).
EVERY_WORKLOAD = (
    "stream.compose_stream.calls",
    "model.ModelParams.copy.calls",
    "model.ModelParams.validate.calls",
    "model.blend_parameters.calls",
    "model.predict.calls",
    "model.params_fingerprint.calls",
    "clock.relative_adaptation_speed.calls",
    "protocol.run_segments.calls",
    "adapters.entropy_min.adapt.calls",
)
CLI = (
    "adapters.source.adapt.calls",
    "adapters.norm_stat.adapt.calls",
    "cli.execute_run.calls",
)
DOES_WORK = {
    "episodic-grid": EVERY_WORKLOAD + CLI,
    "eta-sweep": EVERY_WORKLOAD + CLI,
    "continual-trace": EVERY_WORKLOAD + (
        "adapters.pseudo_label.adapt.calls",
        "adapters.rejection_entropy.adapt.calls",
        "adapters.clone_adapter.calls",
        "trace.replay_online.calls",
    ),
}


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_metric_arithmetic_on_synthetic_spans():
    names = ["protocol.run_segments", "model.ModelParams.validate", "adapters.clone_adapter"]
    # run_segments [0, 10] holds validate [1, 2] and [3, 5], and clone [6, 7].
    synthetic = spans.Spans(
        names=names,
        name_id=np.array([0, 1, 1, 2]),
        parent=np.array([-1, 0, 0, 0]),
        start=np.array([0.0, 1.0, 3.0, 6.0]),
        end=np.array([10.0, 2.0, 5.0, 7.0]),
    )
    counts = {"simulated_steps": 4, "adapted_steps": 1, "traced_skipped_steps": 2,
              "replayed_steps": 0, "compose_distinct": 0, "rejection_updates": 0}
    m = spans.layer_metrics(synthetic, counts)
    assert m["protocol.run_segments.calls"] == 1
    assert m["protocol.run_segments.self_s"] == 6.0
    assert m["protocol.self_us_per_step"] == 1.5e6
    assert m["model.ModelParams.validate.calls"] == 2
    assert m["model.validate_per_step"] == 0.5
    assert m["protocol.adapted_ratio"] == 0.25
    assert m["protocol.ghost_ratio"] == 0.5
    assert m["adapters.clone_adapter.us_p50"] == 1e6
    assert m["trace.replay_online.calls"] == 0
    assert m["trace.replay_online.us_per_step"] == 0.0
    assert m["adapters.rejection_entropy.update_ratio"] == 0.0


def test_benchmark_json_lists_the_per_layer_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)


@pytest.fixture(scope="module")
def traced():
    """Two traced invocations of each workload at seed 0, checked like a benchmark run."""
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    results = {}
    for name, workload in wl.WORKLOADS.items():
        pair = []
        for i in range(2):
            out = work / f"{name}-{i}"
            inv = run.invoke(ROOT, workload, wl.stream_seeds(0), out, trace=True)
            assert inv.ok, inv.error
            assert (out / "stderr.txt").read_text() == "", "a span target is missing"
            pair.append((inv, run.layer_metrics(inv)))
        results[name] = pair
    yield results
    shutil.rmtree(work)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_outputs_match_the_reference(traced, workload):
    expected = json.loads(run.reference_path(workload, 0).read_text())
    for inv, _ in traced[workload]:
        assert run.failed_ops(inv, expected, wl.WORKLOADS[workload].ops) == 0


def test_core_speed_is_sampled_through_each_invocation(traced):
    for pair in traced.values():
        for inv, _ in pair:
            # One sample at start, then one per PROBE_INTERVAL_S (0.1 s) of a multi-second body.
            assert inv.child["probe_samples"] > 10 * inv.child["body_s"] * 0.5
            assert 0.0 < inv.child["speed"] < 2.0


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_every_per_layer_metric_is_produced(traced, workload):
    produced = set(traced[workload][0][1]) | {"bench.trace_overhead_frac"}
    assert produced == {name for name, _, _ in spans.PER_LAYER}


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_calls_are_nonzero_where_the_layer_works(traced, workload):
    metrics = traced[workload][0][1]
    assert [name for name in DOES_WORK[workload] if metrics[name] == 0] == []


def test_bypass_predictions(traced):
    for workload in ("episodic-grid", "eta-sweep"):
        assert traced[workload][0][1]["adapters.clone_adapter.calls"] == 0
    continual = traced["continual-trace"][0][1]
    assert continual["stream.compose_stream.calls"] == wl.SEEDS_PER_RUN
    assert continual["protocol.ghost_ratio"] == 1.0


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_counts_and_ratios_repeat_exactly(traced, workload):
    (_, first), (_, second) = traced[workload]
    exact = [name for name in first if spans.is_exact(name)]
    assert exact
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
