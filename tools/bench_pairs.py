#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark invocations, each side a fresh checkout.

    python3 tools/bench_pairs.py PARENT [--change REV] [--workload W ...] [--pairs N]
                                 [--seed S] [--json PATH]

Exports PARENT and REV (default HEAD) with ``git archive`` into two new temporary
directories, so that neither side runs from a long-lived checkout, and runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in each, with
T the benchmark's ``run_seconds``, one invocation at a time: N pairs per workload
(default every workload of BENCHMARK.json), the side that runs first alternating pair
by pair.  It prints every invocation's final JSON line, then for each end-to-end metric
of BENCHMARK.json each side's median and quartiles, the pairs the change won, whether
the change stays within the metric's bound, and whether it shows a gain: better in at
least nine pairs in ten and by a median gap larger than the parent's interquartile
range.  ``--change PARENT`` is a null check: two checkouts of one commit.  ``--json``
also writes all of it to a file.  The checkouts are removed on exit; nothing in this
checkout is written but that file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path) -> Path:
    """A fresh copy of ``commit``'s tree in ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def invoke(checkout: Path, command: list[str]) -> tuple[str, str]:
    """The final JSON line and the ``env`` line of one invocation in ``checkout``."""
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(command)} failed in {checkout} ({done.returncode}):\n{done.stderr}")
    env = next((line[4:] for line in lines if line.startswith("env ")), "")
    return lines[-1], env


def summarize(finals: dict[str, list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles (6 decimals), the relative gap of the
    medians (4 decimals), the pairs the change won, whether the change is worse by no more
    than the bound, and whether it shows a gain: better in at least nine pairs in ten and
    by a median gap larger than the parent's interquartile range."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [f["metrics"][name]["value"] for f in finals[side]] for side in SIDES}
        stats = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        pairs = len(values["change"])
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        rel = stats["change"]["median"] / stats["parent"]["median"] - 1
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        out[name] = {
            "better": metric["better"], "bound": metric["bound"],
            **{side: {k: round(v, 6) for k, v in stats[side].items()} for side in SIDES},
            "change_minus_parent_rel": round(rel, 4),
            "change_better_in_pairs": f"{wins} of {pairs}",
            "within_bound": sign * rel <= metric["bound"],
            "gain_holds": wins >= math.ceil(0.9 * pairs)
                          and gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    commits = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"),
               "change": git("rev-parse", "--verify", f"{args.change}^{{commit}}")}
    seconds = benchmark["run_seconds"]
    record = {"commits": commits, "seed": args.seed, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {side: export(commits[side], Path(scratch) / side) for side in SIDES}
        for workload in workloads:
            command = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
                       str(args.seed), "--seconds", f"{seconds:g}", "--trace", "0"]
            lines = {side: [] for side in SIDES}
            envs, first = set(), []
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    line, env = invoke(checkouts[side], command)
                    lines[side].append(line)
                    envs.add(env)
                    print(f"{workload} pair {pair} {side}: {line}", flush=True)
            finals = {side: [json.loads(line) for line in lines[side]] for side in SIDES}
            summary = summarize(finals, benchmark["end_to_end"])
            for name, s in summary.items():
                print(f"{workload} {name} ({s['better']} is better): " + "; ".join(
                    f"{side} median {s[side]['median']:.6g} [q1 {s[side]['q1']:.6g}, "
                    f"q3 {s[side]['q3']:.6g}]" for side in SIDES)
                    + f"; change {s['change_minus_parent_rel']:+.2%}, better in "
                    f"{s['change_better_in_pairs']} pairs, within bound {s['within_bound']}, "
                    f"gain {s['gain_holds']}")
            record["workloads"][workload] = {
                "command": " ".join(command), "first_side_per_pair": first, "env": sorted(envs),
                "all_correct_no_failed": {side: all(f["correct"] and f["failed"] == 0
                                                    for f in finals[side]) for side in SIDES},
                "summary": summary, "final_lines": lines,
            }
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
