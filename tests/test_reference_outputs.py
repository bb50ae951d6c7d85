"""``streamgate run`` and ``streamgate sweep`` on configs/benchmark.cfg write the bytes
the benchmark's seed-0 references record.

The references in perfbench/reference pin the SHA-256 of each output file at one
BLAS thread, on the numpy and BLAS build named in their ``env``.  Another build may
round differently, so the test skips there, naming what differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference"


def blas() -> str:
    """The BLAS build as perfbench/child.py records it."""
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{build.get('name')} {build.get('version')}"


@pytest.mark.parametrize("command,reference", [("run", "episodic-grid-seed0.json"),
                                               ("sweep", "eta-sweep-seed0.json")])
def test_benchmark_config_outputs_equal_the_reference_bytes(tmp_path, command, reference):
    expected = json.loads((REFERENCE / reference).read_text())
    here = {"numpy": np.__version__, "blas": blas()}
    differ = [f"{key} {value!r} against {expected['env'][key]!r}"
              for key, value in here.items() if value != expected["env"][key]]
    if differ:
        pytest.skip(f"{reference} was recorded on another build: {', '.join(differ)}")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key != "STREAMGATE_OUT"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-m", "streamgate.cli", command, "--config", "configs/benchmark.cfg",
         "--out", str(tmp_path), "--seeds", "0,1,2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in expected["files"]} == expected["files"]
