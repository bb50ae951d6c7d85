"""Workload definitions shared by run.py and its child process.

Every workload is a fixed-size batch job run from one process, so throughput
is stream steps per second at the step count recorded here.  A step is one
batch through ``run_segments`` or one record through ``replay_online``.
"""

from __future__ import annotations

from dataclasses import dataclass

CONFIG = "configs/benchmark.cfg"
SEEDS_PER_RUN = 3           # the CLI's default seeds=0,1,2
DOMAINS = 15                # default corruption suite
BATCHES_PER_DOMAIN = 78     # 5000 samples per domain // batch size 64

# continual-trace: the continual default suite with a clean tail, traced
# online by three adapters, each trace replayed over ETA_POINTS clocks.
CONTINUAL_STEPS = (DOMAINS + 1) * BATCHES_PER_DOMAIN
ETA_POINTS = 32
# A Constant(12 s) latency against a 1 s interval puts 11 of every 12 steps
# inside a busy window; every latency fits the slowest clock's 32 s interval.
ENTROPY_MIN_LATENCY_S = 12.0
CONTINUAL_ADAPTERS = ("entropy_min", "rejection_entropy", "pseudo_label")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str    # "run" or "sweep" through the CLI, or "library"
    ops: int     # simulated runs plus replays per invocation
    steps: int   # stream steps per invocation


def continual_etas() -> list[float]:
    """The replay grid j/ETA_POINTS for j = 1..ETA_POINTS, ending at the run's own clock."""
    return [j / ETA_POINTS for j in range(1, ETA_POINTS + 1)]


def stream_seeds(seed: int) -> list[int]:
    """Stream seeds for one benchmark seed; seed 0 gives the CLI's default 0,1,2."""
    return [SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN)]


_CONTINUAL_RUNS = SEEDS_PER_RUN * len(CONTINUAL_ADAPTERS)

WORKLOADS = {
    w.name: w
    for w in (
        # 3 adapters x offline/online x 3 seeds.
        Workload("episodic-grid", "run", ops=18, steps=18 * DOMAINS * BATCHES_PER_DOMAIN),
        # 3 adapters x 3 seeds x eta in 1/16, 1/8, 1/4, 1/2, 1, all online.
        Workload("eta-sweep", "sweep", ops=45, steps=45 * DOMAINS * BATCHES_PER_DOMAIN),
        Workload(
            "continual-trace",
            "library",
            ops=_CONTINUAL_RUNS * (1 + ETA_POINTS),
            steps=_CONTINUAL_RUNS * CONTINUAL_STEPS * (1 + ETA_POINTS),
        ),
    )
}
