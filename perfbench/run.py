"""streamgate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a streamgate checkout.  Each invocation of a workload is
a child process (perfbench/child.py) with BLAS/OpenMP pinned to one thread and
``src`` on its path.  With --trace 0 the workload is invoked repeatedly for
about S seconds and the medians of the end-to-end metrics are reported, each
time scaled to the reference core speed the child measured; with
--trace 1, untraced and traced invocations alternate and the per-layer
metrics come from the traced ones.  Every invocation's simulated outputs are
checked against perfbench/reference/ (or, for a seed without a reference,
against the run's first invocation); an operation (one simulated run or one
replay) fails if it raises or its output differs.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
REFERENCE = HERE / "reference"

CHILD_TIMEOUT_S = 60.0    # several times the slowest invocation
RUN_BUDGET_S = 165.0      # a whole run must end within 180 s
SETUP_RESERVE_S = 15.0    # kept free for set-up-only children
MIN_INVOCATIONS = 2       # untraced invocations per run, so wall_s is a median
MIN_SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Invocation:
    """One child process and what its outputs were checked to be."""

    ok: bool
    wall_s: float
    error: str = ""
    child: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    closure_failed: set = field(default_factory=set)
    pooled_gaps: int = 0
    counts: dict = field(default_factory=dict)
    spans_path: Path | None = None


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("STREAMGATE_OUT", None)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def check_cli(inv: Invocation, out: Path, kind: str) -> None:
    """Per-run digests over the rows of results.csv, summary.json and sweep.csv."""
    names = ["results.csv", "summary.json"] + (["sweep.csv"] if kind == "sweep" else [])
    raw = {name: (out / name).read_bytes() for name in names}
    inv.files = {name: hashlib.sha256(data).hexdigest() for name, data in raw.items()}

    header, *rows = raw["results.csv"].decode().splitlines(keepends=True)
    rows_by_run: dict[str, list[str]] = {}
    simulated = adapted = 0
    for index, line in enumerate(rows):
        fields = next(csv.reader([line]))
        rows_by_run.setdefault(fields[0], []).append(f"{index}:{line}")
        simulated += int(fields[7])
        adapted += int(fields[8])

    summary = json.loads(raw["summary.json"])
    deltas = {(d["adapter"], d["scenario"], d["seed"]): d for d in summary.get("deltas", [])}
    sweep_rows = {}
    if kind == "sweep":
        _, *lines = raw["sweep.csv"].decode().splitlines(keepends=True)
        for line in lines:
            eta, adapter, seed = next(csv.reader([line]))[:3]
            sweep_rows[(eta, adapter, seed)] = line
    for index, run in enumerate(summary["runs"]):
        parts = [header, *rows_by_run.get(run["run_id"], []), f"{index}:{canonical(run)}"]
        if run["protocol"] == "online":
            parts.append(canonical(deltas.get((run["adapter"], run["scenario"], run["seed"]))))
        if kind == "sweep":
            parts.append(sweep_rows.get((repr(run["eta"]), run["adapter"], str(run["seed"])), ""))
        inv.ops[run["run_id"]] = digest(*parts)
    inv.counts = {"simulated_steps": simulated, "adapted_steps": adapted,
                  "traced_skipped_steps": 0, "replayed_steps": 0}


def _adapted_only(trace_csv: bytes) -> tuple[list[float], float]:
    """Per-domain and pooled error if every recorded step had been adapted."""
    domains: dict[int, list[int]] = {}
    _, *rows = csv.reader(trace_csv.decode().splitlines())
    for row in rows:
        total_correct = domains.setdefault(int(row[4]), [0, 0])
        total_correct[0] += int(row[5])
        total_correct[1] += int(row[2])
    rates = [(total - correct) / total for total, correct in domains.values()]
    total = sum(t for t, _ in domains.values())
    return rates, (total - sum(c for _, c in domains.values())) / total


def check_library(inv: Invocation, out: Path) -> None:
    """Digests of each traced run and replay, and trace closure for each run.

    Closure: the replay at the run's own clock reproduces the run exactly, and
    the replay at the slowest clock adapts every step and reproduces each
    domain's all-adapted error exactly.
    """
    records = json.loads((out / "records.json").read_text())
    runs, replays = records["runs"], records["replays"]
    for key, run in runs.items():
        trace_csv = (out / f"{key.replace('/', '-')}.csv").read_bytes()
        inv.ops[key] = digest(trace_csv, canonical(run))
        own = replays.get(f"{key}/eta{wl.ETA_POINTS}of{wl.ETA_POINTS}")
        slow = replays.get(f"{key}/eta1of{wl.ETA_POINTS}")
        rates, pooled = _adapted_only(trace_csv)
        simulated = {k: v for k, v in run.items() if k != "roundtrip"}
        if (not run["roundtrip"] or own != simulated or slow is None
                or slow["adapted_fraction"] != 1.0
                or [d[4] for d in slow["per_domain"]] != rates):
            inv.closure_failed.add(key)
        elif slow["avg_error"] != pooled:
            inv.pooled_gaps += 1
    for key, replay in replays.items():
        inv.ops[key] = digest(canonical(replay))
    simulated = sum(d[1] for run in runs.values() for d in run["per_domain"])
    adapted = sum(d[2] for run in runs.values() for d in run["per_domain"])
    inv.counts = {
        "simulated_steps": simulated,
        "adapted_steps": adapted,
        "traced_skipped_steps": simulated - adapted,
        "replayed_steps": sum(d[1] for r in replays.values() for d in r["per_domain"]),
    }


def invoke(root: Path, workload: wl.Workload | None, seeds: list[int], out: Path,
           trace: bool = False, timeout: float = CHILD_TIMEOUT_S) -> Invocation:
    """Run one child process; workload None runs set-up only."""
    out.mkdir(parents=True)
    name = workload.name if workload else "setup"
    cmd = [sys.executable, str(HERE / "child.py"), name, "--out", str(out),
           "--seeds", ",".join(map(str, seeds))] + (["--trace"] if trace else [])
    with open(out / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        wall = time.perf_counter() - start
    if code != 0:
        tail = (out / "stderr.txt").read_text().strip().splitlines()[-3:]
        why = "timed out" if code is None else f"exit {code}"
        return Invocation(False, wall, f"{name} {why}: {' | '.join(tail)}")
    inv = Invocation(True, wall, child=json.loads((out / "child.json").read_text()))
    src = (root / "src").resolve()
    if not Path(inv.child["streamgate"]).resolve().is_relative_to(src):
        return Invocation(False, wall, f"streamgate imported from {inv.child['streamgate']}")
    if workload is None:
        return inv
    try:
        if workload.kind == "library":
            check_library(inv, out)
        else:
            check_cli(inv, out, workload.kind)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Invocation(False, wall, f"unreadable outputs: {exc!r}")
    steps = inv.counts["simulated_steps"] + inv.counts["replayed_steps"]
    if steps != workload.steps or len(inv.ops) != workload.ops:
        return Invocation(False, wall, f"{steps} steps and {len(inv.ops)} operations, "
                                       f"expected {workload.steps} and {workload.ops}")
    inv.spans_path = out / "spans.npz" if trace else None
    return inv


def failed_ops(inv: Invocation, expected: dict | None, total: int) -> int:
    if not inv.ok or (expected is not None and inv.files != expected["files"]):
        return total
    bad = set(inv.closure_failed)
    if expected is not None:
        keys = set(expected["ops"]) | set(inv.ops)
        bad |= {k for k in keys if inv.ops.get(k) != expected["ops"].get(k)}
    return min(len(bad), total)


def repeat(seconds: float, minimum: int, once, limit: float) -> list:
    """Call once() until about `seconds` have passed, at least `minimum` times.

    No call starts that is predicted to end after `limit` seconds.
    """
    results, durations = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - begin
        upcoming = elapsed + statistics.median(durations)
        if upcoming > limit or (len(results) >= minimum and upcoming > seconds):
            return results


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / f"{workload}-seed{seed}.json"


def write_digests(path: Path, workload: str, seed: int, inv: Invocation) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "env": inv.child["env"],
               "files": inv.files, "ops": dict(sorted(inv.ops.items()))}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def reference_s(inv: Invocation, seconds: float) -> float:
    """Seconds measured in an invocation, scaled to the reference core speed."""
    return seconds * inv.child["speed"]


def layer_metrics(inv: Invocation) -> dict[str, float]:
    counts = {**inv.counts,
              "compose_distinct": inv.child["compose_distinct"],
              "rejection_updates": inv.child["rejection_updates"]}
    return spans.layer_metrics(spans.load(inv.spans_path), counts)


def per_layer(pairs: list[tuple[Invocation, Invocation]]) -> tuple[dict, list[str]]:
    """Per-layer metrics: exact counts from the traced runs, medians of times."""
    traced = [layer_metrics(t) for _, t in pairs if t.ok]
    problems = []
    if not traced:
        return {}, ["no traced invocation succeeded"]
    metrics = {}
    for name, _, _ in spans.PER_LAYER:
        if name == "bench.trace_overhead_frac":
            continue
        values = [m[name] for m in traced]
        if spans.is_exact(name) and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values)
    overhead = [reference_s(t, t.child["body_s"]) / reference_s(u, u.child["body_s"]) - 1.0
                for u, t in pairs if u.ok and t.ok]
    if not overhead:
        problems.append("no untraced/traced pair succeeded")
    metrics["bench.trace_overhead_frac"] = statistics.median(overhead) if overhead else 0.0
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: (value, units[name]) for name, value in metrics.items()}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "streamgate" / "cli.py").is_file() or not (root / wl.CONFIG).is_file():
        print(f"error: {root} is not a streamgate checkout (needs src/streamgate and "
              f"{wl.CONFIG})", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]
    seeds = wl.stream_seeds(args.seed)
    run_dir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    counter = itertools.count()
    begin = time.perf_counter()

    def timeout() -> float:
        return min(CHILD_TIMEOUT_S, RUN_BUDGET_S - (time.perf_counter() - begin))

    def once(trace: bool) -> Invocation:
        inv = invoke(root, workload, seeds, run_dir / f"inv{next(counter)}", trace, timeout())
        label = "traced" if trace else "untraced"
        if inv.ok:
            print(f"{label}: measured wall {inv.wall_s:.3f} s, body {inv.child['body_s']:.3f} s, "
                  f"set-up {inv.child['setup_s']:.3f} s at core speed {inv.child['speed']:.3f} "
                  f"({inv.child['probe_samples']} samples), "
                  f"rss {inv.child['peak_rss_mb']:.1f} MB", flush=True)
        else:
            print(f"{label}: FAILED {inv.error}", flush=True)
        return inv

    print(f"workload {workload.name}: seed {args.seed} (stream seeds "
          f"{','.join(map(str, seeds))}), {workload.steps} steps and {workload.ops} "
          f"operations per invocation, trace {args.trace}", flush=True)
    limit = RUN_BUDGET_S - SETUP_RESERVE_S
    if args.trace:
        pairs = repeat(args.seconds, 1, lambda: (once(False), once(True)), limit)
        invocations = [inv for pair in pairs for inv in pair]
    else:
        invocations = repeat(args.seconds, MIN_INVOCATIONS, lambda: once(False), limit)
    good = [inv for inv in invocations if inv.ok]
    if not good:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1

    ref_file = reference_path(workload.name, args.seed)
    if ref_file.is_file():
        expected = json.loads(ref_file.read_text())
        if expected["env"] != good[0].child["env"]:
            print(f"warning: environment differs from the reference's {expected['env']}; "
                  "digests are only comparable under one numeric environment")
    else:
        out = WORK / "digests" / ref_file.name
        write_digests(out, workload.name, args.seed, good[0])
        print(f"no reference for seed {args.seed}; digests written to {out}")
        expected = {"files": good[0].files, "ops": good[0].ops}
    attempted = workload.ops * len(invocations)
    failed = sum(failed_ops(inv, expected, workload.ops) for inv in invocations)
    if good[0].pooled_gaps:
        print(f"finding: on {good[0].pooled_gaps} of {wl.SEEDS_PER_RUN * len(wl.CONTINUAL_ADAPTERS)} "
              "traces the slowest-clock replay's avg_error differs from the pooled "
              "adapted-only error in its last bits (perfbench/NOTES.md)")
    problems = []

    if args.trace:
        metrics, problems = per_layer(pairs)
    else:
        setups = [reference_s(inv, inv.child["setup_s"]) for inv in good]
        while len(setups) < MIN_SETUP_SAMPLES and timeout() > SETUP_RESERVE_S / 2:
            inv = invoke(root, None, seeds, run_dir / f"setup{len(setups)}", timeout=timeout())
            if not inv.ok:
                problems.append(inv.error)
                break
            setups.append(reference_s(inv, inv.child["setup_s"]))
        values = {
            "wall_s": statistics.median(reference_s(inv, inv.wall_s) for inv in good),
            "steps_per_s": statistics.median(
                workload.steps / reference_s(inv, inv.child["body_s"]) for inv in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(inv.child["peak_rss_mb"] for inv in good),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"{len(good)} of {len(invocations)} invocations ok; set-up median of {len(setups)}; "
              f"measured wall median {statistics.median(inv.wall_s for inv in good):.6g} s "
              "before scaling to the reference core speed")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"{'failed_frac':42s} {failed / attempted:14.6g} ratio ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"problem: {problem}")
    print("env " + canonical(good[0].child["env"]))
    if failed == 0 and not problems:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
