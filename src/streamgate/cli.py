"""Command-line front end: declarative configs, eta sweeps, trace replay.

Configs are flat ``key=value`` text ('#' starts a comment).  ``SCHEMA`` defines
each key once: the object it sets, the field, and the value parser.  A key left
out or left empty keeps the object's own default, and a rejected value is
reported under its key.  ``run`` and ``sweep`` share one path: build, construct
each adapter once, then run seed by seed on one composed stream per seed,
every run of an adapter on the adapter constructed for it.  Each seed computes
every schedule class once (see ``protocol.schedule_class``) and gives the
class's other runs relabelled copies of that report.  Outputs are
deterministic under simulated timing: rows are written in sorted order with
floats serialized via their exact repr.

Exit codes: 0 success, 2 usage/config error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Callable

from . import adapters as adapters_mod
from .adapters import Constant, PerSample, Stochastic
from .clock import StreamClock
from .model import ModelParams
from .protocol import (
    MEASURED,
    OFFLINE,
    ONLINE,
    SINGLE_MODEL,
    BusyWindow,
    FixedModulo,
    ProtocolConfig,
    run_segments,
    schedule_class,
)
from .report import (
    RunReport,
    format_percent,
    write_results_csv,
    write_rows,
    write_schedule_csv,
    write_summary_json,
)
from .stream import (
    DEFAULT_SAMPLES_PER_DOMAIN,
    CorruptionSpec,
    ScenarioSpec,
    SourceSpec,
    StreamSegment,
    TrainSpec,
    compose_stream,
    default_scenario,
    make_source_dataset,
    pretrain_source_model,
)
from .trace import TraceFormatError, parse_trace, replay_online, unit_fraction


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key=value format; later keys override earlier ones."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


@contextlib.contextmanager
def _named(name: str):
    """Report a ValueError raised in the block as a ConfigError naming ``name``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _number(raw: str) -> float:
    """A finite float, written as a decimal or as an exact fraction such as 1/16."""
    try:
        return float(Fraction(raw))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"cannot parse {raw!r} as a finite number") from None


def _positive(raw: str) -> float:
    value = _number(raw)
    if value <= 0:
        raise ValueError(f"must be positive, got {raw!r}")
    return value


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {raw!r}")
    return value


def _file_part(raw: str) -> str:
    if "/" in raw:
        raise ValueError(f"must not contain '/', got {raw!r}")
    return raw


def _directory(raw: str) -> Path:
    path = Path(raw)
    if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
        raise ValueError(f"{raw!r} is not a directory")
    return path


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot parse {raw!r} as a boolean")


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"unknown value {raw!r} (known: {', '.join(options)})")
        return raw
    return parse


def _list(item: Callable[[str], object] = str) -> Callable[[str], tuple]:
    """Parser of a comma list of ``item`` values; duplicate values are rejected."""
    def parse(raw: str) -> tuple:
        values = tuple(item(v.strip()) for v in raw.split(",") if v.strip())
        if not values or len(set(values)) < len(values):
            raise ValueError(f"expected one or more distinct entries, got {raw!r}")
        return values
    return parse


def _schedule(raw: str) -> BusyWindow | FixedModulo:
    if raw == "busy_window":
        return BusyWindow()
    if raw.startswith("modulo:"):
        return FixedModulo(int(raw.split(":", 1)[1]))
    raise ValueError(f"unknown schedule {raw!r}")


def _scenario(domains: tuple[str, ...] = ("default",), **kwargs) -> ScenarioSpec:
    """``default_scenario(**kwargs)`` ordered by ``kind[:severity[:seed]]`` domain tokens."""
    spec = default_scenario(**kwargs)
    if domains == ("default",):
        return spec
    # A token without a severity takes the suite's, which scenario.severity sets.
    severity = spec.domain_order[0].severity
    order = []
    for token in domains:
        kind, *numbers = token.split(":")
        if len(numbers) > 2:
            raise ValueError(f"domain token {token!r} has more than three ':' parts")
        given = dict(zip(("severity", "seed"), map(int, numbers)))
        order.append(CorruptionSpec(kind, **{"severity": severity, **given}))
    return replace(spec, domain_order=tuple(order))


_LATENCY_MODELS = {"constant": Constant, "per_sample": PerSample, "stochastic": Stochastic}
# Latency fields without a default of their own.
_LATENCY_DEFAULTS = {"seconds": 1.0, "per_sample": 0.0, "mean": 1.0, "jitter": 0.0}


def _latency(kind: str = "default", **values) -> adapters_mod.LatencyModel | None:
    """The ``kind`` latency model from the fields it takes; "default" keeps each adapter's own."""
    if kind == "default":
        return None
    model = _LATENCY_MODELS[kind]
    takes = inspect.signature(model).parameters
    latency = model(**{k: v for k, v in {**_LATENCY_DEFAULTS, **values}.items() if k in takes})
    # per_sample >= 0 makes a one-sample batch the cheapest one.
    if isinstance(latency, PerSample) and (latency.per_sample < 0
                                           or latency.per_sample + latency.base <= 0):
        raise ValueError(f"{_KEY_OF['latency', 'per_sample']} must be >= 0 and per_sample + base "
                         f"positive, got {latency.per_sample!r} and {latency.base!r}")
    # jitter < mean keeps every draw positive, so sample_latency never clamps one.
    if isinstance(latency, Stochastic) and not 0 <= latency.jitter < latency.mean:
        raise ValueError(f"{_KEY_OF['latency', 'jitter']} must be in [0, mean), "
                         f"got {latency.jitter!r} with mean {latency.mean!r}")
    untaken = [_KEY_OF["latency", field] for field in values if field not in takes]
    if untaken:
        raise ValueError(f"the {kind} latency model does not take {', '.join(untaken)}")
    return latency


# Targets named as ExperimentConfig names them.
_SPECS = {"source": SourceSpec, "train": TrainSpec, "scenario": _scenario,
          "protocol_cfg": ProtocolConfig, "clock": StreamClock}
# "hyper" collects adapter keywords and "run" collects ExperimentConfig fields.
_TARGETS = {**_SPECS, "latency": _latency, "hyper": dict, "run": dict}

# key -> (target, field, parser), applied in this order: a latency kind comes
# after the fields it builds its model from.
SCHEMA: dict[str, tuple[str, str, Callable[[str], object]]] = {
    "source.classes": ("source", "num_classes", int),
    "source.dim": ("source", "dim", int),
    "source.separation": ("source", "class_separation", _number),
    "source.samples_per_class": ("source", "samples_per_class", int),
    "source.seed": ("source", "seed", _seed),
    "pretrain.learning_rate": ("train", "learning_rate", _number),
    "pretrain.iterations": ("train", "iterations", int),
    "stream.batch_size": ("scenario", "batch_size", int),
    "stream.samples_per_domain": ("run", "samples_per_domain", int),
    "scenario.mode": ("scenario", "mode", str),
    "scenario.severity": ("scenario", "severity", int),
    "scenario.domains": ("scenario", "domains", _list()),
    "scenario.append_clean": ("scenario", "append_clean", _bool),
    "adapter.name": ("run", "adapters", _list(_choice(*adapters_mod.ADAPTERS))),
    "adapter.learning_rate": ("hyper", "learning_rate", _number),
    "adapter.entropy_threshold": ("hyper", "entropy_threshold", _number),
    "adapter.prior_weight": ("hyper", "prior_weight", _number),
    "adapter.latency.seconds": ("latency", "seconds", _positive),
    "adapter.latency.per_sample": ("latency", "per_sample", _number),
    "adapter.latency.base": ("latency", "base", _number),
    "adapter.latency.mean": ("latency", "mean", _positive),
    "adapter.latency.jitter": ("latency", "jitter", _number),
    "adapter.latency.seed": ("latency", "seed", _seed),
    "adapter.latency.kind": ("latency", "kind", _choice("default", *_LATENCY_MODELS)),
    "protocol.mode": ("run", "protocols", _list(_choice(OFFLINE, ONLINE, SINGLE_MODEL))),
    "protocol.schedule": ("protocol_cfg", "schedule_mode", _schedule),
    "protocol.alpha": ("protocol_cfg", "alpha", _number),
    "protocol.visibility": ("protocol_cfg", "fallback_visibility", str),
    "protocol.timing": ("protocol_cfg", "timing", str),
    "clock.rate": ("clock", "base_rate", _number),
    "clock.eta": ("clock", "eta", _number),
    "seeds": ("run", "stream_seeds", _list(_seed)),
    "out": ("run", "out_dir", _directory),
    "run.id": ("run", "run_prefix", _file_part),
}

_KEY_OF = {(target, field): key for key, (target, field, _) in SCHEMA.items()}


@dataclass
class ExperimentConfig:
    """Everything a run needs to be a pure function of (config, seed)."""

    source: SourceSpec
    train: TrainSpec
    scenario: ScenarioSpec
    protocol_cfg: ProtocolConfig  # template; per-run protocol/seed filled in
    clock: StreamClock
    adapters: dict[str, dict]     # adapter name -> constructor keywords
    protocols: tuple[str, ...] = (ONLINE,)
    stream_seeds: tuple[int, ...] = (0,)
    samples_per_domain: int = DEFAULT_SAMPLES_PER_DOMAIN
    out_dir: Path = Path("results")
    run_prefix: str = ""


def build_experiment(cfg: dict[str, str]) -> ExperimentConfig:
    """The experiment a parsed config describes; raises ConfigError naming the key."""
    for key in cfg:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    fields: dict[str, dict] = {target: {} for target in _TARGETS}
    built = {target: make() for target, make in _TARGETS.items()}
    for key, (target, field, parse) in SCHEMA.items():
        if not cfg.get(key):
            continue
        with _named(key):
            fields[target][field] = parse(cfg[key])
            built[target] = _TARGETS[target](**fields[target])

    latency, run = built["latency"], fields["run"]
    unused = [_KEY_OF["latency", field] for field in fields["latency"] if field != "kind"]
    if unused and latency is None:
        raise ConfigError(f"{', '.join(unused)}: unused unless "
                          f"{_KEY_OF['latency', 'kind']} names a latency model")
    # Each keyword goes to the chosen adapters whose constructor takes it.
    offered = {**fields["hyper"], **({"latency": latency} if latency else {})}
    adapters = {}
    for name in run.pop("adapters", (adapters_mod.SourceAdapter.name,)):
        takes = inspect.signature(adapters_mod.ADAPTERS[name]).parameters
        adapters[name] = {f: v for f, v in offered.items() if f in takes}
    for field in fields["hyper"]:
        if not any(field in kwargs for kwargs in adapters.values()):
            raise ConfigError(f"{_KEY_OF['hyper', field]}: no chosen adapter takes it")
    exp = ExperimentConfig(**{t: built[t] for t in _SPECS}, adapters=adapters, **run)
    if exp.samples_per_domain < exp.scenario.batch_size:
        raise ConfigError(f"{_KEY_OF['run', 'samples_per_domain']}: {exp.samples_per_domain} "
                          f"samples do not cover one batch of {exp.scenario.batch_size}")
    if exp.protocol_cfg.timing == MEASURED and "base_rate" in fields["clock"]:
        raise ConfigError(f"{_KEY_OF['clock', 'base_rate']}: has no effect under measured "
                          "timing, whose interval is the measured forward pass")
    return exp


@functools.cache
def _pretrained(source: SourceSpec, train: TrainSpec) -> ModelParams:
    features, labels = make_source_dataset(source)
    return pretrain_source_model(features, labels, train)


def execute_run(
    exp: ExperimentConfig, segments: list[StreamSegment], adapter: adapters_mod.Adapter,
    protocol: str, seed: int, clock: StreamClock,
) -> RunReport:
    """One deterministic run of ``adapter`` on the stream composed for ``seed``; each
    composed segment is reset-marked, so the run starts from the pretrained state."""
    cfg = replace(exp.protocol_cfg, protocol=protocol, seed=seed)
    report = run_segments(segments, adapter, adapter.pretrained, cfg, clock)
    report.scenario = _scenario_name(exp)
    report.run_id = _run_id(exp, adapter.name, protocol, clock, seed)
    return report


def _scenario_name(exp: ExperimentConfig) -> str:
    n_domains = len(exp.scenario.domain_order) + (1 if exp.scenario.append_clean else 0)
    return f"{exp.scenario.mode}-{n_domains}"


def _run_id(exp: ExperimentConfig, adapter: str, protocol: str, clock: StreamClock, seed: int) -> str:
    prefix = f"{exp.run_prefix}-" if exp.run_prefix else ""
    return f"{prefix}{adapter}-{_scenario_name(exp)}-{protocol}-eta{clock.eta:g}-seed{seed}"


def _execute_seed(
    exp: ExperimentConfig, seed: int, plan: list[tuple[str, str, StreamClock]],
    adapters: dict[str, adapters_mod.Adapter],
) -> list[RunReport]:
    """Every planned (adapter, protocol, clock) run of one seed on one shared stream.

    ``adapters`` holds the one constructed adapter of each name.  The first run
    of each schedule class is executed; every later one is a copy of its report
    under its own protocol, eta and run_id, which shares no list with the
    original and builds its schedule only when it is read.  A run with no
    class is always executed.  The stream is released on return, so a caller
    looping over seeds holds at most one composed stream at a time.
    """
    segments = compose_stream(exp.scenario, exp.source, exp.samples_per_domain, seed=seed)
    executed: dict[tuple[str, int, str], RunReport] = {}
    reports = []
    for adapter_name, protocol, clock in plan:
        adapter = adapters[adapter_name]
        key = schedule_class(replace(exp.protocol_cfg, protocol=protocol), adapter, clock,
                             exp.scenario.batch_size)
        twin = executed.get(key)
        if twin is None:
            report = execute_run(exp, segments, adapter, protocol, seed, clock)
            if key is not None:
                executed[key] = report
        else:
            # The schedule stays unbuilt until read; then it copies the original's.
            report = replace(twin, protocol=protocol, eta=clock.eta,
                             per_domain=list(twin.per_domain),
                             schedule=lambda original=twin: list(original.schedule),
                             fingerprints=list(twin.fingerprints), notes=list(twin.notes))
            report.run_id = _run_id(exp, adapter_name, protocol, clock, seed)
        reports.append(report)
    return reports


def _execute(
    args: argparse.Namespace,
    plan: Callable[[ExperimentConfig], list[tuple[str, str, StreamClock]]],
    sort_key: Callable[[RunReport], tuple],
    deltas: Callable[[list[RunReport]], list[dict]],
) -> tuple[ExperimentConfig, list[RunReport]]:
    """Build the experiment, run ``plan(exp)`` for every seed and write the sorted reports."""
    cfg = parse_config_text(Path(args.config).read_text())
    cfg.update({key: value for key, value in vars(args).items() if key in SCHEMA and value})
    exp = build_experiment(cfg)
    runs = plan(exp)
    pretrained = _pretrained(exp.source, exp.train)
    # Construct each chosen adapter once, so that a value it rejects fails before any run.
    adapters = {}
    for name, kwargs in exp.adapters.items():
        keys = [_KEY_OF["latency", "kind"] if field == "latency" else _KEY_OF["hyper", field]
                for field in kwargs]
        with _named(", ".join(keys) or _KEY_OF["run", "adapters"]):
            adapters[name] = adapters_mod.make_adapter(name, pretrained, **kwargs)
    reports = [r for seed in sorted(exp.stream_seeds)
               for r in _execute_seed(exp, seed, runs, adapters)]
    reports.sort(key=sort_key)
    _write_outputs(exp.out_dir, reports, deltas(reports), args.emit_schedule)
    return exp, reports


def _write_outputs(
    out_dir: Path, reports: list[RunReport], deltas: list[dict] | None, emit_schedule: bool
) -> None:
    """results.csv, summary.json, which never holds a schedule, and any schedule CSVs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", reports)
    write_summary_json(out_dir / "summary.json",
                       [replace(r, schedule=None) for r in reports], deltas)
    if emit_schedule:
        for r in reports:
            write_schedule_csv(out_dir / f"schedule_{r.run_id}.csv", r.schedule)


def cmd_run(args: argparse.Namespace) -> int:
    exp, reports = _execute(
        args,
        lambda exp: [(adapter_name, protocol, exp.clock)
                     for adapter_name in sorted(exp.adapters) for protocol in exp.protocols],
        lambda r: (r.adapter, r.protocol, r.eta, r.seed),
        _collect_deltas,
    )
    for r in reports:
        print(f"{r.run_id}: error {format_percent(r.avg_error)} "
              f"adapted {format_percent(r.adapted_fraction)}")
    print(f"wrote {len(reports)} runs to {exp.out_dir}")
    return 0


def _collect_deltas(reports: list[RunReport]) -> list[dict]:
    offline = {(r.adapter, r.scenario, r.seed): r for r in reports if r.protocol == OFFLINE}
    deltas = []
    for r in reports:
        if r.protocol != ONLINE:
            continue
        key = (r.adapter, r.scenario, r.seed)
        if key in offline:
            deltas.append({
                "adapter": r.adapter,
                "scenario": r.scenario,
                "seed": r.seed,
                "offline_error": offline[key].avg_error,
                "online_error": r.avg_error,
                "delta": r.avg_error - offline[key].avg_error,
            })
    return deltas


def cmd_sweep(args: argparse.Namespace) -> int:
    def plan(exp: ExperimentConfig) -> list[tuple[str, str, StreamClock]]:
        with _named("--eta-values"):
            clocks = [replace(exp.clock, eta=eta)
                      for eta in sorted(_list(_number)(args.eta_values))]
            runs = [(adapter_name, ONLINE, clock)
                    for clock in clocks for adapter_name in sorted(exp.adapters)]
            # Every seed labels its runs alike, so seed 0 stands for all.
            if len({_run_id(exp, *run, 0) for run in runs}) < len(runs):
                raise ValueError(f"two etas in {args.eta_values!r} share a run_id")
        return runs

    exp, reports = _execute(args, plan, lambda r: (r.eta, r.adapter, r.seed), lambda _: [])
    _write_sweep_csv(exp.out_dir / "sweep.csv", reports)
    print(f"wrote {len(reports)} sweep runs to {exp.out_dir}")
    return 0


def _write_sweep_csv(path: Path, reports: list[RunReport]) -> None:
    columns = ["eta", "adapter", "seed", "avg_error", "adapted_fraction", "mean_c"]
    write_rows(path, columns, map(attrgetter(*columns), reports))


def cmd_replay(args: argparse.Namespace) -> int:
    with _named("--interval"):
        interval = _positive(args.interval)
        clock = StreamClock(base_rate=1.0 / interval)
    with _named("--eta"):
        clock = replace(clock, eta=_number(args.eta))
        # The clock's 1 / (eta * rate) can round below L / eta; step the rate down
        # until it does not.
        while clock.effective_interval < interval / clock.eta:
            clock = replace(clock, base_rate=math.nextafter(clock.base_rate, 0.0))
    with _named("--fallback-error-rate"):
        text = args.fallback_error_rate
        rate = None if text is None else unit_fraction(_number(text), text)
    with _named("STREAMGATE_OUT" if os.environ.get("STREAMGATE_OUT") else "--out"):
        out_dir = _directory(args.out or ExperimentConfig.out_dir)
    records = parse_trace(args.trace, fallback_error_rate=rate)
    report = replay_online(records, clock)
    if rate is not None:
        report.notes.append(f"constant fallback error rate {rate} substituted for missing values")
    report.run_id = f"replay-{Path(args.trace).stem}-eta{clock.eta:g}"
    _write_outputs(out_dir, [report], None, args.emit_schedule)
    print(f"replayed {len(records)} steps: error {format_percent(report.avg_error)} "
          f"adapted {format_percent(report.adapted_fraction)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamgate",
        description="Deterministic benchmark harness for stream-paced test-time adaptation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (("run", cmd_run, "execute the configured runs"),
                             ("sweep", cmd_sweep, "sweep the stream-speed factor eta")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--out", default=None, help="output directory (STREAMGATE_OUT overrides)")
        cmd.add_argument("--seeds", default=None, help="comma-separated seed list override")
        cmd.add_argument("--emit-schedule", action="store_true", help="write per-step schedule CSVs")
        cmd.set_defaults(func=func)
    sub.choices["sweep"].add_argument("--eta-values", default="1/16,1/8,1/4,1/2,1",
                                      help="comma-separated eta grid (default %(default)s)")

    rep = sub.add_parser("replay", help="replay a recorded trace under a chosen clock")
    rep.add_argument("--trace", required=True, help="path to a trace CSV")
    rep.add_argument("--interval", default="1", help="base seconds per batch (default 1)")
    rep.add_argument("--eta", default="1", help="stream-speed factor in (0, 1] (default 1)")
    rep.add_argument("--out", default=None)
    rep.add_argument("--fallback-error-rate", default=None,
                     help="substitute a constant fallback error rate in [0, 1] for missing values")
    rep.add_argument("--emit-schedule", action="store_true")
    rep.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.out = os.environ.get("STREAMGATE_OUT") or args.out
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
