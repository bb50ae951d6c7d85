"""Spans around streamgate's public functions, recorded from outside the package.

A wrapper replaces each target function, by identity, at every name a
streamgate module binds it to, so it sits where callers look the function up:
``protocol`` imports ``predict`` and ``clone_adapter`` into its own namespace,
``cli`` imports ``compose_stream`` and the writers, and so on.  Methods are
wrapped on their class.  Spans (name, start, end, parent) stay in memory and
are saved once the workload has finished.

This module must not import streamgate at import time: the workload child
times ``import streamgate`` itself.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, fields

import numpy as np

# Layer = module of src/streamgate.  Span names are "<layer>.<qualname>",
# except Adapter.adapt, whose spans are named after the adapter instance.
TARGETS = (
    "stream.make_source_dataset",
    "stream.pretrain_source_model",
    "stream.compose_stream",
    "model.ModelParams.copy",
    "model.ModelParams.validate",
    "model.blend_parameters",
    "model.predict",
    "model.params_fingerprint",
    "adapters.Adapter.adapt",
    "adapters.clone_adapter",
    "clock.relative_adaptation_speed",
    "protocol.run_segments",
    "trace.write_trace",
    "trace.parse_trace",
    "trace.replay_online",
    "report.write_results_csv",
    "report.write_summary_json",
    "cli.execute_run",
)

# Set-up as every invocation pays it once before its first step.  Untraced
# children wrap only these two, to split set-up from the workload body.
SETUP_TARGETS = ("stream.make_source_dataset", "stream.pretrain_source_model")

ADAPT_TARGET = "adapters.Adapter.adapt"
COMPOSE_TARGET = "stream.compose_stream"
REPORTED_ADAPTERS = ("source", "norm_stat", "entropy_min", "pseudo_label", "rejection_entropy")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.compose_keys: set[str] = set()
        self.rejection_updates = 0

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: str, fn):
        if target == ADAPT_TARGET:
            return self._wrap_adapt(fn)
        nid = self._intern(target)
        rec = self
        signature = inspect.signature(fn) if target == COMPOSE_TARGET else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.compose_keys.add(repr(tuple(bound.arguments.items())))
            i = rec._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(i)

        return wrapper

    def _wrap_adapt(self, fn):
        rec = self

        @functools.wraps(fn)
        def adapt(adapter, *args, **kwargs):
            before = adapter.params
            i = rec._open(rec._intern(f"adapters.{adapter.name}.adapt"))
            try:
                outcome = fn(adapter, *args, **kwargs)
            finally:
                rec._close(i)
            if adapter.name == "rejection_entropy":
                after = outcome.theta_hat
                rec.rejection_updates += not all(
                    np.array_equal(getattr(before, f.name), getattr(after, f.name))
                    for f in fields(before)
                )
            return outcome

        return adapt

    def instrument(self, targets=TARGETS) -> list[str]:
        """Install wrappers; returns the targets that streamgate no longer has.

        Every layer module is imported first, so names that one module
        imports from another are bound before they are replaced.
        """
        for layer in {t.partition(".")[0] for t in TARGETS}:
            importlib.import_module(f"streamgate.{layer}")
        missing = []
        for target in targets:
            layer, _, qualname = target.partition(".")
            module = sys.modules[f"streamgate.{layer}"]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    missing.append(target)
                else:
                    setattr(owner, attr, self._wrap(target, vars(owner)[attr]))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(target)
                continue
            wrapper = self._wrap(target, fn)
            for mod in [m for n, m in sys.modules.items()
                        if n == "streamgate" or n.startswith("streamgate.")]:
                for key in [k for k, v in vars(mod).items() if v is fn]:
                    setattr(mod, key, wrapper)
        return missing

    def seconds_in(self, names) -> float:
        """Inclusive seconds spent in spans of the given (never nested) names."""
        ids = [self._ids[n] for n in names if n in self._ids]
        mask = np.isin(np.frombuffer(self.name_id, dtype=np.int32), ids)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return float(duration[mask].sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


@dataclass
class Spans:
    names: list[str]
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray


def load(path) -> Spans:
    with np.load(path) as data:
        return Spans(
            names=[str(n) for n in data["names"]],
            name_id=data["name_id"].astype(np.int64),
            parent=data["parent"].astype(np.int64),
            start=data["start"],
            end=data["end"],
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so a span's children never overlap each other
    and the time they cover is the sum of their durations.
    """
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
PER_LAYER = [
    ("stream.pretrain_source_model.self_s", "s", "lower"),
    ("stream.make_source_dataset.self_s", "s", "lower"),
    ("stream.compose_stream.calls", "count", "lower"),
    ("stream.compose_stream.distinct", "count", "lower"),
    ("stream.compose_stream.self_s", "s", "lower"),
    ("model.ModelParams.copy.calls", "count", "lower"),
    ("model.ModelParams.copy.self_s", "s", "lower"),
    ("model.ModelParams.validate.calls", "count", "lower"),
    ("model.validate_per_step", "ratio", "lower"),
    ("model.blend_parameters.calls", "count", "lower"),
    ("model.blend_parameters.self_s", "s", "lower"),
    ("model.predict.calls", "count", "lower"),
    ("model.predict.self_s", "s", "lower"),
    ("model.predict.us_p50", "us", "lower"),
    ("model.params_fingerprint.calls", "count", "lower"),
    ("model.params_fingerprint.self_s", "s", "lower"),
    *[
        (f"adapters.{name}.adapt.{stat}", unit, "lower")
        for name in REPORTED_ADAPTERS
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("us_p99", "us"))
    ],
    ("adapters.rejection_entropy.update_ratio", "ratio", "higher"),
    ("adapters.clone_adapter.calls", "count", "lower"),
    ("adapters.clone_adapter.self_s", "s", "lower"),
    ("adapters.clone_adapter.us_p50", "us", "lower"),
    ("clock.relative_adaptation_speed.calls", "count", "lower"),
    ("clock.relative_adaptation_speed.self_s", "s", "lower"),
    ("clock.relative_adaptation_speed.us_p50", "us", "lower"),
    ("protocol.run_segments.calls", "count", "lower"),
    ("protocol.run_segments.self_s", "s", "lower"),
    ("protocol.self_us_per_step", "us", "lower"),
    ("protocol.adapted_ratio", "ratio", "higher"),
    ("protocol.ghost_ratio", "ratio", "lower"),
    ("trace.write_trace.self_s", "s", "lower"),
    ("trace.parse_trace.self_s", "s", "lower"),
    ("trace.replay_online.calls", "count", "lower"),
    ("trace.replay_online.self_s", "s", "lower"),
    ("trace.replay_online.us_per_step", "us", "lower"),
    ("report.write_results_csv.self_s", "s", "lower"),
    ("report.write_summary_json.self_s", "s", "lower"),
    ("cli.execute_run.calls", "count", "lower"),
    ("cli.execute_run.s_p50", "s", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]

# Exact counts and ratios: they must repeat bit for bit across traced runs.
EXACT_SUFFIXES = (".calls", ".distinct", "_ratio", ".validate_per_step")


def is_exact(metric: str) -> bool:
    return metric.endswith(EXACT_SUFFIXES)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans, counts: dict) -> dict[str, float]:
    """Every per-layer metric except bench.trace_overhead_frac.

    ``counts`` holds what the outputs and the recorder counted:
    simulated_steps, adapted_steps, traced_skipped_steps, replayed_steps,
    compose_distinct and rejection_updates.
    """
    own = self_times(spans.parent, spans.start, spans.end)
    duration = spans.end - spans.start

    def span(name):
        if name not in spans.names:
            return np.zeros(0), np.zeros(0)
        mask = spans.name_id == spans.names.index(name)
        return duration[mask], own[mask]

    def calls(name):
        return float(len(span(name)[0]))

    def self_s(name):
        return float(span(name)[1].sum())

    def inclusive_s(name):
        return float(span(name)[0].sum())

    def pct(name, q, scale):
        d = span(name)[0]
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    steps = counts["simulated_steps"]
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(head)
        elif stat == "self_s":
            out[name] = self_s(head)
        elif stat == "us_p50":
            out[name] = pct(head, 50, 1e6)
        elif stat == "us_p99":
            out[name] = pct(head, 99, 1e6)
        elif stat == "s_p50":
            out[name] = pct(head, 50, 1.0)
    out["stream.compose_stream.distinct"] = float(counts["compose_distinct"])
    out["model.validate_per_step"] = _ratio(calls("model.ModelParams.validate"), steps)
    out["adapters.rejection_entropy.update_ratio"] = _ratio(
        counts["rejection_updates"], calls("adapters.rejection_entropy.adapt"))
    out["protocol.self_us_per_step"] = _ratio(self_s("protocol.run_segments"), steps) * 1e6
    out["protocol.adapted_ratio"] = _ratio(counts["adapted_steps"], steps)
    out["protocol.ghost_ratio"] = _ratio(
        calls("adapters.clone_adapter"), counts["traced_skipped_steps"])
    out["trace.replay_online.us_per_step"] = _ratio(
        inclusive_s("trace.replay_online"), counts["replayed_steps"]) * 1e6
    return out
