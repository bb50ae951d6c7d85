"""Exact work counts of three fixed workloads, each bounded by its count when the bound was set.

The workloads are a one-seed ``run`` and a one-seed ``sweep`` of ``configs/benchmark.cfg``, and
one traced online run each of ``entropy_min`` at ``Constant(12.0)`` and of ``rejection_entropy``
at its defaults, on the continual benchmark stream of seed 0.  A change that does more work fails here; one that
does less lowers the bound it beat.  Each counted function is replaced at every name a
streamgate module binds it to, methods on their class.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from streamgate import adapters, cli, model, stream
from streamgate.adapters import Adapter, Constant, make_adapter
from streamgate.model import ModelParams
from streamgate.protocol import ONLINE, ProtocolConfig, run_segments
from streamgate.stream import TrainSpec, compose_stream, default_scenario
from streamgate.trace import TraceRecord

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"

# "forward" counts calls of model.forward: a stacked call is one, whatever its lanes.  "adapt
# lanes" counts the lanes of every adapt call, one for a batch of one lane.
RUN_BOUNDS = {
    "execute_run": 4,  # README: `run` computes 4 of every seed's 6 runs
    "adapt source": 78,
    "adapt norm_stat": 78,
    "adapt entropy_min": 104,
    "adapt lanes": 3900,
    "forward": 416,
    "ModelParams.copy": 452,
    "ModelParams.stack": 4,
    "sample_domain": 15,
    "clone_adapter": 0,
    "TraceRecord": 0,
}
SWEEP_BOUNDS = {
    "execute_run": 5,  # one computed run per eta of the default grid
    "adapt source": 78,
    "adapt norm_stat": 78,
    "adapt entropy_min": 143,
    "adapt lanes": 4485,
    "forward": 533,
    "ModelParams.copy": 531,
    "ModelParams.stack": 5,
    "sample_domain": 15,
    "clone_adapter": 0,
    "TraceRecord": 0,
}
TRACE_BOUNDS = {
    "adapt entropy_min": 105,  # README: 105 adapter steps at Constant(12.0)
    "adapt rejection_entropy": 417,  # README: 417 at the default 3 s and 1 s
    "adapt lanes": 2 * 1248,  # exact: each tick of each run steps once
    "forward": 1044,
    "ModelParams.copy": 1050,
    "ModelParams.stack": 174,  # README: 104 and 70 stacks
    "sample_domain": 16,
    "clone_adapter": 174,
    "TraceRecord": 2 * 1248,
}


@pytest.fixture()
def counts(monkeypatch, source_spec, pretrained):
    """A Counter that each counted call adds one to.  The session's source model, which the
    benchmark config's equals, stands in for the CLI's pretraining, which is not counted."""
    exp = cli.build_experiment(cli.parse_config_text(CONFIG.read_text()))
    assert (exp.source, exp.train) == (source_spec, TrainSpec())
    monkeypatch.setattr(cli, "_pretrained", lambda source, train: pretrained)
    counted = Counter()

    def count(owner, attr, key, weight=lambda *args: 1):
        original = vars(owner)[attr]

        def counting(*args, **kwargs):
            counted[key(*args)] += weight(*args)
            return original(*args, **kwargs)

        if isinstance(owner, type):
            monkeypatch.setattr(owner, attr, counting)
            return
        for name, module in list(sys.modules.items()):
            if name == "streamgate" or name.startswith("streamgate."):
                for binding in [k for k, v in vars(module).items() if v is original]:
                    monkeypatch.setattr(module, binding, counting)

    count(cli, "execute_run", lambda *args: "execute_run")
    count(model, "forward", lambda *args: "forward")
    count(adapters, "clone_adapter", lambda *args: "clone_adapter")
    count(ModelParams, "copy", lambda *args: "ModelParams.copy")
    count(ModelParams, "stack", lambda *args: "ModelParams.stack")
    count(stream, "sample_domain", lambda *args: "sample_domain")
    count(Adapter, "adapt", lambda adapter, *args: f"adapt {adapter.name}")
    count(Adapter, "adapt", lambda *args: "adapt lanes",
          lambda adapter, batch: batch.labels.size // batch.size)
    count(TraceRecord, "__post_init__", lambda *args: "TraceRecord")
    return counted


def _within(counted: Counter, bounds: dict[str, int]) -> None:
    assert set(counted) <= set(bounds), f"uncounted work: {set(counted) - set(bounds)}"
    over = {key: (counted[key], bound) for key, bound in bounds.items() if counted[key] > bound}
    assert not over, f"(count, bound) above its bound: {over}"


def test_a_one_seed_benchmark_run_does_no_more_work(counts, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STREAMGATE_OUT", raising=False)
    assert cli.main(["run", "--config", str(CONFIG), "--seeds", "0",
                     "--out", str(tmp_path)]) == 0
    _within(counts, RUN_BOUNDS)


def test_a_one_seed_benchmark_sweep_does_no_more_work(counts, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("STREAMGATE_OUT", raising=False)
    assert cli.main(["sweep", "--config", str(CONFIG), "--seeds", "0",
                     "--out", str(tmp_path)]) == 0
    _within(counts, SWEEP_BOUNDS)


def test_two_traced_continual_runs_do_no_more_work(counts, source_spec, pretrained):
    segments = compose_stream(default_scenario(mode="continual", append_clean=True),
                              source_spec, seed=0)
    for name, kwargs in (("entropy_min", {"latency": Constant(12.0)}),
                         ("rejection_entropy", {})):
        adapter = make_adapter(name, pretrained, **kwargs)
        run_segments(segments, adapter, pretrained, ProtocolConfig(protocol=ONLINE),
                     trace_out=[])
    _within(counts, TRACE_BOUNDS)
    assert counts["adapt lanes"] == TRACE_BOUNDS["adapt lanes"]
