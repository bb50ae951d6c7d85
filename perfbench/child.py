"""One workload invocation, run as its own process by perfbench/run.py.

    python3 perfbench/child.py <workload|setup> --out DIR [--seeds 0,1,2] [--trace]

It times ``import streamgate`` plus source-data generation and pretraining
(set-up) apart from the rest (the body), samples the speed of the core it runs
on (``CoreProbe``), writes the program's outputs and ``child.json`` into DIR,
and with --trace also ``spans.npz``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import streamgate as sg  # noqa: E402

T_IMPORT = time.perf_counter()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

PROBE_INTERVAL_S = 0.1
# The probe kernel's time on an uncontended core of the 2-vCPU machine the
# reference figures come from; speed 1.0 means that core.
PROBE_REFERENCE_S = 0.55e-3


class CoreProbe:
    """Samples the speed of the core the workload runs on, while it runs.

    A host's other tenants can slow a vCPU by half for seconds to minutes.  A
    timer signal runs a fixed kernel of Python and small-array numpy work,
    about 1% of the time, in this same thread and therefore on the same core
    as the workload.  The mean of reference time / kernel time over the run is
    the core's average speed; multiplying a measured time by it gives the time
    the same work takes on the reference core.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 32))
        self.w = rng.standard_normal((32, 10))
        self.samples: list[float] = []

    def sample(self, *_) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(30):
            z = self.x @ self.w
            np.exp(z - z.max(axis=1, keepdims=True)).sum()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> float:
        """Stops sampling; returns the mean speed relative to the reference core."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return statistics.fmean(PROBE_REFERENCE_S / s for s in self.samples)


def _summary(report) -> dict:
    return {
        "avg_error": report.avg_error,
        "adapted_fraction": report.adapted_fraction,
        "mean_c": report.mean_c,
        "per_domain": [
            [d.domain_id, d.n_batches, d.n_adapted, d.mean_c, d.error_rate]
            for d in report.per_domain
        ],
    }


def continual_trace(seeds: list[int], out: Path) -> dict:
    """Trace three adapters online on one composed stream per seed, then replay."""
    source = sg.SourceSpec()
    pretrained = sg.pretrain_source_model(*sg.make_source_dataset(source), sg.TrainSpec())
    scenario = sg.default_scenario(mode="continual", append_clean=True)
    latency = {"entropy_min": {"latency": sg.Constant(wl.ENTROPY_MIN_LATENCY_S)}}
    runs, replays = {}, {}
    for seed in seeds:
        segments = sg.compose_stream(scenario, source, seed=seed)
        for name in wl.CONTINUAL_ADAPTERS:
            adapter = sg.make_adapter(name, pretrained, **latency.get(name, {}))
            trace: list = []
            report = sg.run_segments(
                segments, adapter, adapter.pretrained,
                sg.ProtocolConfig(protocol=sg.ONLINE, seed=seed), sg.StreamClock(),
                trace_out=trace,
            )
            key = f"{name}/seed{seed}"
            path = out / f"{name}-seed{seed}.csv"
            sg.write_trace(path, trace)
            records = sg.parse_trace(path)
            runs[key] = {**_summary(report), "roundtrip": records == trace}
            for j, eta in enumerate(wl.continual_etas(), start=1):
                replay = sg.replay_online(records, sg.StreamClock(eta=eta))
                replays[f"{key}/eta{j}of{wl.ETA_POINTS}"] = _summary(replay)
    return {"runs": runs, "replays": replays}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=[*wl.WORKLOADS, "setup"])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    probe = CoreProbe()
    probe.start()
    recorder = spans.Recorder()
    missing = recorder.instrument(spans.TARGETS if args.trace else spans.SETUP_TARGETS)
    for target in missing:
        print(f"warning: streamgate has no {target}; its spans are empty", file=sys.stderr)
    kind = wl.WORKLOADS[args.workload].kind if args.workload != "setup" else "setup"
    records = None
    if kind == "setup":
        sg.pretrain_source_model(*sg.make_source_dataset(sg.SourceSpec()), sg.TrainSpec())
    elif kind == "library":
        records = continual_trace(seeds, args.out)
    else:
        code = sg.cli.main(
            [kind, "--config", wl.CONFIG, "--out", str(args.out), "--seeds", args.seeds])
        if code != 0:
            return code
    t_end = time.perf_counter()
    speed = probe.stop()

    setup_calls = recorder.seconds_in(spans.SETUP_TARGETS)
    if records is not None:
        (args.out / "records.json").write_text(json.dumps(records, sort_keys=True))
    if args.trace:
        recorder.save(args.out / "spans.npz")
    result = {
        "setup_s": (T_IMPORT - T0) + setup_calls,
        "body_s": (t_end - T_IMPORT) - setup_calls,
        "speed": speed,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "streamgate": sg.__file__,
        "compose_distinct": len(recorder.compose_keys),
        "rejection_updates": recorder.rejection_updates,
        "env": environment(),
    }
    (args.out / "child.json").write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
