"""Traced library runs give the bytes that stepping each busy window as its own stack gave.

A traced run steps its skipped ticks as the lanes of stacks gathered across busy
windows, and ``tests/test_lockstep.py`` compares it with the one-tick-at-a-time path,
which shares the stacks' bookkeeping (fallback source, correct counts, costs).  The
digests below were recorded before stacks gathered several windows, when each busy
window stepped at its first tick, so they check that bookkeeping against code it does
not share.  Each digest covers the trace, the predictions, the report with its
schedule, the final parameters' fingerprint and the latency rng's state.

``python tests/test_traced_reference.py`` prints the digests.  The test runs it at one
BLAS thread, since the pretrained model's bits depend on the thread count; another numpy
or BLAS build than the one named in ``ENV`` may round differently, so the test skips there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from streamgate.adapters import Constant, Stochastic, make_adapter
from streamgate.clock import StreamClock
from streamgate.model import params_fingerprint
from streamgate.protocol import (
    DELAYED,
    IMMEDIATE,
    ONLINE,
    BusyWindow,
    FixedModulo,
    ProtocolConfig,
    run_stream,
)
from streamgate.stream import (
    SourceSpec,
    TrainSpec,
    compose_stream,
    default_scenario,
    make_source_dataset,
    pretrain_source_model,
)

ROOT = Path(__file__).resolve().parents[1]
ENV = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}
TICKS = 240  # of the seed-0 continual stream: stacks of 12 and 13 lanes, and a last one

# name -> ((adapter, latency, visibility, alpha, schedule, eta), SHA-256 of the run's outputs)
CASES = {
    "entropy_min stochastic": (
        ("entropy_min", Stochastic(2.0, 1.5), IMMEDIATE, 0.0, BusyWindow(), 1.0),
        "9b4b75601ceecbfcea5f4cf5117bf1c6dddebec11cafe49d3b39c915019125ab"),
    "entropy_min 12 s delayed half rate": (
        ("entropy_min", Constant(12.0), DELAYED, 0.5, BusyWindow(), 0.5),
        "865df83a042c5d20d4f0a43ace8d2cfe2ea26470e572b5a756453d5370023af0"),
    "rejection_entropy 3 s": (
        ("rejection_entropy", Constant(3.0), IMMEDIATE, 0.0, BusyWindow(), 1.0),
        "0e235744523aa8131a20b04a979e30aadfb4a1f4205112dcda6a918d0ebd6479"),
    "rejection_entropy 3 s delayed modulo": (
        ("rejection_entropy", Constant(3.0), DELAYED, 0.5, FixedModulo(5), 1.0),
        "d1bebcf159960bfe7532acd9c567db38f17e87aadd957befe434e7fae976e863"),
    "pseudo_label 3 s delayed modulo half rate": (
        ("pseudo_label", Constant(3.0), DELAYED, 0.5, FixedModulo(5), 0.5),
        "35198df94930b99090561372e17bfcc67a28fec14e612ec1989fa2fe4acd8176"),
    "norm_stat 3 s blended": (
        ("norm_stat", Constant(3.0), IMMEDIATE, 0.5, BusyWindow(), 1.0),
        "a441fa8d2ee1b33697d1acc42598c40a288db7714b62182449eb940d619c46fd"),
}


def blas() -> str:
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{build.get('name')} {build.get('version')}"


def digest(pretrained, batches, case) -> str:
    """SHA-256 of one traced run's trace, predictions, report, final fingerprint and rng."""
    name, latency, visibility, alpha, schedule, eta = case
    adapter = make_adapter(name, pretrained, latency=latency)
    cfg = ProtocolConfig(protocol=ONLINE, alpha=alpha, fallback_visibility=visibility,
                         schedule_mode=schedule)
    trace, predictions = [], []
    report = run_stream(batches, adapter, pretrained, cfg, StreamClock(eta=eta),
                        trace_out=trace, predictions_out=predictions)
    rng = adapter._latency_rng
    h = hashlib.sha256(json.dumps({
        "trace": [dataclasses.astuple(record) for record in trace],
        "report": dataclasses.asdict(report),
        "fingerprint": params_fingerprint(adapter.params),
        "rng": None if rng is None else rng.bit_generator.state,
    }, sort_keys=True, default=repr).encode())
    for labels in predictions:
        h.update(np.asarray(labels, dtype=np.int64).tobytes())
    return h.hexdigest()


def digests() -> dict[str, str]:
    """Each case's digest, from the default pretrained model in this process."""
    source = SourceSpec()
    pretrained = pretrain_source_model(*make_source_dataset(source), TrainSpec())
    scenario = default_scenario(mode="continual", append_clean=True)
    batches = compose_stream(scenario, source, seed=0)[0].batches[:TICKS]
    return {name: digest(pretrained, batches, case) for name, (case, _) in CASES.items()}


def test_traced_runs_give_the_recorded_bytes():
    here = {"numpy": np.__version__, "blas": blas()}
    differ = [f"{key} {value!r} against {ENV[key]!r}" for key, value in here.items()
              if value != ENV[key]]
    if differ:
        pytest.skip(f"digests were recorded on another build: {', '.join(differ)}")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {name: recorded for name, (_, recorded) in CASES.items()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
