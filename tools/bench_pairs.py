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
range.  Two unscaled figures are summarized the same way: ``body_s``, the median over
an invocation's untraced children of the body seconds it measured before scaling to
the reference core speed, and ``core_speed``, the median of the speed factor its
children's probe measured.  A gain in ``steps_per_s`` that ``body_s`` does not show
came from the speed factor, not from wall time.

After each workload's end-to-end pairs, a per-layer round runs the same command with
``--trace 1``, LAYER_PAIRS pairs, and summarizes every per-layer metric of
BENCHMARK.json, whose times are not scaled, and the two unscaled figures the same way;
it names the metrics that read 0 on both sides and those that time a whole stack of
lanes per call rather than one step.  ``--change PARENT`` is a null check: two checkouts
of one commit.  ``--json`` also writes all of it to a file.  The checkouts are removed
on exit; nothing in this checkout is written but that file.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
LAYER_PAIRS = 4  # traced pairs per workload, for the per-layer metrics
UNTRACED = re.compile(r"untraced: measured wall \S+ s, body (\S+) s, set-up \S+ s "
                      r"at core speed (\S+) ")
UNSCALED = [{"name": "body_s", "better": "lower"}, {"name": "core_speed", "better": "higher"}]
# Per-layer metrics whose figure is not one step's: each adapt span covers a call,
# and a stacked call steps many lanes.
STACK_TIMED = ("adapters.*.adapt.us_p50", "adapters.*.adapt.us_p99")


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


def invoke(checkout: Path, command: list[str]) -> tuple[str, str, dict[str, float]]:
    """The final JSON line, the ``env`` line and the unscaled medians (``body_s`` and
    ``core_speed`` of the untraced children) of one invocation in ``checkout``."""
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{' '.join(command)} failed in {checkout} ({done.returncode}):\n{done.stderr}")
    env = next((line[4:] for line in lines if line.startswith("env ")), "")
    untraced = [m for m in map(UNTRACED.match, lines) if m]
    unscaled = {name: statistics.median(float(m[i]) for m in untraced)
                for i, name in enumerate(("body_s", "core_speed"), 1)}
    return lines[-1], env, unscaled


def summarize(values: dict[str, list[dict[str, float]]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles (6 decimals), the relative gap of the
    medians (4 decimals; None on a parent median of 0), the pairs the change won, whether
    the change is worse by no more than the bound (None for a metric without one), and
    whether it shows a gain: better in at least nine pairs in ten and by a median gap
    larger than the parent's interquartile range."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        series = {side: [v[name] for v in values[side]] for side in SIDES}
        stats = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(series[side], n=4, method="inclusive")
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        pairs = len(series["change"])
        wins = sum(sign * (c - p) < 0 for p, c in zip(series["parent"], series["change"]))
        base = stats["parent"]["median"]
        rel = stats["change"]["median"] / base - 1 if base else None
        gain = sign * (base - stats["change"]["median"])
        out[name] = {
            "better": metric["better"], "bound": metric.get("bound"),
            **{side: {k: round(v, 6) for k, v in stats[side].items()} for side in SIDES},
            "change_minus_parent_rel": None if rel is None else round(rel, 4),
            "change_better_in_pairs": f"{wins} of {pairs}",
            "within_bound": None if rel is None or "bound" not in metric
                            else sign * rel <= metric["bound"],
            "gain_holds": wins >= math.ceil(0.9 * pairs)
                          and gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def report(workload: str, summary: dict) -> None:
    for name, s in summary.items():
        rel = s["change_minus_parent_rel"]
        print(f"{workload} {name} ({s['better']} is better): " + "; ".join(
            f"{side} median {s[side]['median']:.6g} [q1 {s[side]['q1']:.6g}, "
            f"q3 {s[side]['q3']:.6g}]" for side in SIDES)
            + f"; change {'n/a' if rel is None else format(rel, '+.2%')}, better in "
            f"{s['change_better_in_pairs']} pairs, within bound {s['within_bound']}, "
            f"gain {s['gain_holds']}")


def run_pairs(workload: str, checkouts: dict[str, Path], command: list[str],
              pairs: int) -> tuple[dict, dict[str, list[dict[str, float]]]]:
    """``pairs`` alternating pairs of ``command``: the record of the round, with every
    final line, and each side's per-invocation values, the final line's metrics and the
    unscaled ones."""
    lines = {side: [] for side in SIDES}
    values = {side: [] for side in SIDES}
    envs, first, correct = set(), [], {side: True for side in SIDES}
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            line, env, unscaled = invoke(checkouts[side], command)
            final = json.loads(line)
            lines[side].append(line)
            values[side].append({**{k: m["value"] for k, m in final["metrics"].items()},
                                 **unscaled})
            correct[side] &= final["correct"] and final["failed"] == 0
            envs.add(env)
            print(f"{workload} pair {pair} {side}: {line}", flush=True)
    return {"command": " ".join(command), "first_side_per_pair": first, "env": sorted(envs),
            "all_correct_no_failed": correct, "final_lines": lines}, values


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
            block, values = run_pairs(workload, checkouts, command, args.pairs)
            summary = summarize(values, benchmark["end_to_end"])
            unscaled = summarize(values, UNSCALED)
            report(workload, {**summary, **unscaled})
            command[-1] = "1"
            layer_block, values = run_pairs(workload, checkouts, command, LAYER_PAIRS)
            layers = summarize(values, benchmark["per_layer"] + UNSCALED)
            report(workload, layers)
            zero = [name for name, s in layers.items()
                    if not any(s[side][k] for side in SIDES for k in ("q1", "median", "q3"))]
            stack = [name for name in layers if any(fnmatch.fnmatch(name, p) for p in STACK_TIMED)]
            print(f"{workload} per-layer metrics that read 0 on both sides: {', '.join(zero)}")
            print(f"{workload} per-layer metrics that time a whole stack per call: "
                  f"{', '.join(stack)}")
            record["workloads"][workload] = {
                **block, "summary": summary, "unscaled": unscaled,
                "per_layer": {**layer_block, "summary": layers, "reads_zero": zero,
                              "times_a_stack": stack},
            }
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
