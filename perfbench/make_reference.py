"""Record the reference digests that perfbench/run.py checks outputs against.

    python3 perfbench/make_reference.py SEED [SEED ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  For each benchmark seed and workload it runs one untraced
invocation under the benchmark's pinned environment and writes
perfbench/reference/<workload>-seed<SEED>.json.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run
import workloads as wl


def main(argv: list[str]) -> int:
    root = Path.cwd()
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    for seed in seeds:
        for workload in wl.WORKLOADS.values():
            out = run.WORK / f"reference-{workload.name}-seed{seed}"
            shutil.rmtree(out, ignore_errors=True)
            inv = run.invoke(root, workload, wl.stream_seeds(seed), out)
            if not inv.ok or inv.closure_failed:
                print(f"error: {workload.name} seed {seed}: "
                      f"{inv.error or sorted(inv.closure_failed)}", file=sys.stderr)
                return 1
            path = run.reference_path(workload.name, seed)
            run.write_digests(path, workload.name, seed, inv)
            shutil.rmtree(out)
            print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
