"""Command-line front end: declarative configs, eta sweeps, trace replay.

Configs are flat ``key=value`` text with dotted keys ('#' starts a comment).
All outputs are deterministic under simulated timing: runs execute seed by
seed, each seed's stream composed once and shared by all of that seed's runs,
and are then written in sorted order with floats serialized via their exact
repr.

Exit codes: 0 success, 2 usage/config error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import adapters as adapters_mod
from .clock import StreamClock
from .model import ModelParams
from .protocol import (
    OFFLINE,
    ONLINE,
    SINGLE_MODEL,
    BusyWindow,
    FixedModulo,
    ProtocolConfig,
    run_segments,
)
from .report import (
    RunReport,
    delta,
    format_percent,
    write_results_csv,
    write_schedule_csv,
    write_summary_json,
)
from .stream import (
    CONTINUAL,
    CORRUPTION_KINDS,
    DEFAULT_SAMPLES_PER_DOMAIN,
    EPISODIC,
    CorruptionSpec,
    ScenarioSpec,
    SourceSpec,
    StreamSegment,
    TrainSpec,
    compose_stream,
    default_corruption_suite,
    make_source_dataset,
    pretrain_source_model,
)
from .trace import TraceFormatError, parse_trace, replay_online

DEFAULT_ETA_GRID = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)

PROTOCOLS = (OFFLINE, ONLINE, SINGLE_MODEL)


# Every key build_experiment reads.
CONFIG_KEYS = frozenset({
    "source.classes", "source.dim", "source.separation", "source.samples_per_class",
    "source.seed", "pretrain.learning_rate", "pretrain.iterations", "pretrain.seed",
    "stream.batch_size", "stream.samples_per_domain", "scenario.mode", "scenario.domains",
    "scenario.severity", "scenario.append_clean", "adapter.name", "adapter.learning_rate",
    "adapter.entropy_threshold", "adapter.prior_weight", "adapter.latency.kind",
    "adapter.latency.seconds", "adapter.latency.per_sample", "adapter.latency.base",
    "adapter.latency.mean", "adapter.latency.jitter", "adapter.latency.seed",
    "protocol.mode", "protocol.schedule", "protocol.alpha", "protocol.visibility",
    "protocol.timing", "clock.rate", "clock.eta", "seeds", "out", "run.id",
})


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


def _parse_typed(cfg: dict[str, str], key: str, kind, default):
    raw = cfg.get(key)
    if raw is None or raw == "":
        return default
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None


def _parse_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_domains(cfg: dict[str, str]) -> tuple[CorruptionSpec, ...]:
    raw = cfg.get("scenario.domains", "default")
    severity = _parse_typed(cfg, "scenario.severity", int, 5)
    if raw == "default":
        return default_corruption_suite(severity)
    specs = []
    for token in _parse_list(raw):
        parts = token.split(":")
        kind = parts[0]
        if kind not in CORRUPTION_KINDS:
            raise ConfigError(f"scenario.domains: unknown corruption kind {kind!r}")
        try:
            sev = int(parts[1]) if len(parts) > 1 else severity
            seed = int(parts[2]) if len(parts) > 2 else 0
            specs.append(CorruptionSpec(kind=kind, severity=sev, seed=seed))
        except ValueError as exc:
            raise ConfigError(f"scenario.domains: {token!r}: {exc}") from None
    if not specs:
        raise ConfigError("scenario.domains: no domains given")
    return tuple(specs)


def _parse_latency(cfg: dict[str, str]) -> adapters_mod.LatencyModel | None:
    kind = cfg.get("adapter.latency.kind")
    if kind in (None, "", "default"):
        return None

    def seconds(name: str, default: float) -> float:
        key = f"adapter.latency.{name}"
        value = _parse_typed(cfg, key, float, default)
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {cfg[key]!r}")
        return value

    if kind == "constant":
        value = seconds("seconds", 1.0)
        if value <= 0:
            raw = cfg["adapter.latency.seconds"]
            raise ConfigError(f"adapter.latency.seconds: must be positive, got {raw!r}")
        return adapters_mod.Constant(value)
    if kind == "per_sample":
        per_sample, base = seconds("per_sample", 0.0), seconds("base", 0.0)
        # per_sample >= 0 makes a one-sample batch the cheapest one.
        if per_sample < 0 or per_sample + base <= 0:
            raise ConfigError(
                "adapter.latency.per_sample: per_sample must be >= 0 and "
                f"per_sample + base positive, got {per_sample!r} and {base!r}"
            )
        return adapters_mod.PerSample(per_sample=per_sample, base=base)
    if kind == "stochastic":
        return adapters_mod.Stochastic(
            mean=seconds("mean", 1.0),
            jitter=seconds("jitter", 0.0),
            seed=_parse_typed(cfg, "adapter.latency.seed", int, 0),
        )
    raise ConfigError(f"adapter.latency.kind: unknown kind {kind!r}")


def _parse_schedule(cfg: dict[str, str]) -> BusyWindow | FixedModulo:
    raw = cfg.get("protocol.schedule", "busy_window")
    if raw == "busy_window":
        return BusyWindow()
    if raw.startswith("modulo:"):
        try:
            return FixedModulo(int(raw.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"protocol.schedule: {exc}") from None
    raise ConfigError(f"protocol.schedule: unknown schedule {raw!r}")


@dataclass
class ExperimentConfig:
    """Everything a run needs to be a pure function of (config, seed)."""

    source: SourceSpec
    train: TrainSpec
    scenario: ScenarioSpec
    samples_per_domain: int
    adapter_names: list[str]
    adapter_latency: adapters_mod.LatencyModel | None
    adapter_hyper: dict[str, float | None]
    protocols: list[str]
    protocol_cfg: ProtocolConfig  # template; per-run protocol/seed filled in
    clock: StreamClock
    seeds: list[int]
    out_dir: Path
    run_prefix: str


def build_experiment(cfg: dict[str, str], out_override: str | None = None,
                     seeds_override: list[int] | None = None) -> ExperimentConfig:
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    try:
        source = SourceSpec(
            num_classes=_parse_typed(cfg, "source.classes", int, 10),
            dim=_parse_typed(cfg, "source.dim", int, 32),
            class_separation=_parse_typed(cfg, "source.separation", float, 3.0),
            samples_per_class=_parse_typed(cfg, "source.samples_per_class", int, 500),
            seed=_parse_typed(cfg, "source.seed", int, 0),
        )
        train = TrainSpec(
            learning_rate=_parse_typed(cfg, "pretrain.learning_rate", float, 0.5),
            iterations=_parse_typed(cfg, "pretrain.iterations", int, 300),
            seed=_parse_typed(cfg, "pretrain.seed", int, 0),
        )
        mode = cfg.get("scenario.mode", EPISODIC)
        if mode not in (EPISODIC, CONTINUAL):
            raise ConfigError(f"scenario.mode: unknown mode {mode!r}")
        scenario = ScenarioSpec(
            mode=mode,
            domain_order=_parse_domains(cfg),
            batch_size=_parse_typed(cfg, "stream.batch_size", int, 64),
            append_clean=_parse_typed(cfg, "scenario.append_clean", bool, False),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    adapter_names = _parse_list(cfg.get("adapter.name", "source"))
    for name in adapter_names:
        if name not in adapters_mod.ADAPTERS:
            known = ", ".join(sorted(adapters_mod.ADAPTERS))
            raise ConfigError(f"adapter.name: unknown adapter {name!r} (known: {known})")

    protocols = _parse_list(cfg.get("protocol.mode", ONLINE))
    for proto in protocols:
        if proto not in PROTOCOLS:
            raise ConfigError(f"protocol.mode: unknown protocol {proto!r}")

    try:
        protocol_cfg = ProtocolConfig(
            protocol=protocols[0],
            schedule_mode=_parse_schedule(cfg),
            alpha=_parse_typed(cfg, "protocol.alpha", float, 0.0),
            fallback_visibility=cfg.get("protocol.visibility", "immediate"),
            timing=cfg.get("protocol.timing", "simulated"),
            seed=0,
        )
        clock = StreamClock(
            base_rate=_parse_typed(cfg, "clock.rate", float, 1.0),
            eta=_parse_typed(cfg, "clock.eta", float, 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if seeds_override is not None:
        seeds = seeds_override
    else:
        try:
            seeds = [int(s) for s in _parse_list(cfg.get("seeds", "0"))]
        except ValueError as exc:
            raise ConfigError(f"seeds: {exc}") from None
    if not seeds:
        raise ConfigError("seeds: need at least one seed")

    out_dir = Path(os.environ.get("STREAMGATE_OUT") or out_override or cfg.get("out", "results"))

    hyper = {
        "learning_rate": _parse_typed(cfg, "adapter.learning_rate", float, None),
        "entropy_threshold": _parse_typed(cfg, "adapter.entropy_threshold", float, None),
        "prior_weight": _parse_typed(cfg, "adapter.prior_weight", float, None),
    }
    return ExperimentConfig(
        source=source,
        train=train,
        scenario=scenario,
        samples_per_domain=_parse_typed(cfg, "stream.samples_per_domain", int, DEFAULT_SAMPLES_PER_DOMAIN),
        adapter_names=adapter_names,
        adapter_latency=_parse_latency(cfg),
        adapter_hyper=hyper,
        protocols=protocols,
        protocol_cfg=protocol_cfg,
        clock=clock,
        seeds=seeds,
        out_dir=out_dir,
        run_prefix=cfg.get("run.id", ""),
    )


@functools.cache
def _pretrained(source: SourceSpec, train: TrainSpec) -> ModelParams:
    features, labels = make_source_dataset(source)
    return pretrain_source_model(features, labels, train)


def _make_adapter(exp: ExperimentConfig, name: str) -> adapters_mod.Adapter:
    pretrained = _pretrained(exp.source, exp.train)
    kwargs: dict = {}
    if exp.adapter_latency is not None:
        kwargs["latency"] = exp.adapter_latency
    if name in ("entropy_min", "pseudo_label", "rejection_entropy"):
        kwargs["learning_rate"] = exp.adapter_hyper["learning_rate"]
    if name == "rejection_entropy":
        kwargs["entropy_threshold"] = exp.adapter_hyper["entropy_threshold"]
    if name == "norm_stat":
        kwargs["prior_weight"] = exp.adapter_hyper["prior_weight"]
    return adapters_mod.make_adapter(name, pretrained, **kwargs)


def _scenario_label(exp: ExperimentConfig) -> str:
    n = len(exp.scenario.domain_order) + (1 if exp.scenario.append_clean else 0)
    return f"{exp.scenario.mode}-{n}"


def _eta_label(eta: float) -> str:
    return format(eta, "g")


def execute_run(
    exp: ExperimentConfig, segments: list[StreamSegment], adapter_name: str,
    protocol: str, seed: int, clock: StreamClock,
) -> RunReport:
    """One deterministic run on the stream composed for ``seed``."""
    adapter = _make_adapter(exp, adapter_name)
    cfg = replace(exp.protocol_cfg, protocol=protocol, seed=seed)
    num_classes = exp.source.num_classes if protocol == SINGLE_MODEL else None
    report = run_segments(
        segments, adapter, adapter.pretrained, cfg, clock, num_classes=num_classes
    )
    prefix = f"{exp.run_prefix}-" if exp.run_prefix else ""
    report.run_id = f"{prefix}{adapter_name}-{_scenario_label(exp)}-{protocol}-eta{_eta_label(clock.eta)}-seed{seed}"
    report.scenario = _scenario_label(exp)
    return report


def _execute_seed(
    exp: ExperimentConfig, seed: int, plan: list[tuple[str, str, StreamClock]]
) -> list[RunReport]:
    """Every planned (adapter, protocol, clock) run of one seed on one shared stream.

    The stream is released on return, so a caller looping over seeds holds at
    most one composed stream at a time.
    """
    segments = compose_stream(exp.scenario, exp.source, exp.samples_per_domain, seed=seed)
    return [execute_run(exp, segments, adapter_name, protocol, seed, clock)
            for adapter_name, protocol, clock in plan]


def _emit(exp: ExperimentConfig, reports: list[RunReport], deltas: list[dict],
          emit_schedule: bool) -> None:
    exp.out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(exp.out_dir / "results.csv", reports)
    if emit_schedule:
        for r in reports:
            if r.schedule is not None:
                write_schedule_csv(exp.out_dir / f"schedule_{r.run_id}.csv", r.schedule)
    else:
        reports = [replace(r, schedule=None) for r in reports]
    write_summary_json(exp.out_dir / "summary.json", reports, deltas)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config_text(Path(args.config).read_text())
    exp = build_experiment(cfg, out_override=args.out, seeds_override=_seeds_arg(args))
    plan = [(adapter_name, protocol, exp.clock)
            for adapter_name in sorted(exp.adapter_names) for protocol in exp.protocols]
    reports = [r for seed in sorted(exp.seeds) for r in _execute_seed(exp, seed, plan)]
    reports.sort(key=lambda r: (r.adapter, r.protocol, r.eta, r.seed))
    deltas = _collect_deltas(reports)
    _emit(exp, reports, deltas, args.emit_schedule)
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
                "delta": delta(offline[key], r),
            })
    return deltas


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = parse_config_text(Path(args.config).read_text())
    exp = build_experiment(cfg, out_override=args.out, seeds_override=_seeds_arg(args))
    etas = args.eta_values or list(DEFAULT_ETA_GRID)
    for eta in etas:
        if not 0.0 < eta <= 1.0:
            raise ConfigError(f"eta values must be in (0, 1], got {eta}")
    plan = [(adapter_name, ONLINE, StreamClock(base_rate=exp.clock.base_rate, eta=eta))
            for eta in sorted(etas) for adapter_name in sorted(exp.adapter_names)]
    reports = [r for seed in sorted(exp.seeds) for r in _execute_seed(exp, seed, plan)]
    reports.sort(key=lambda r: (r.eta, r.adapter, r.seed))
    _emit(exp, reports, [], args.emit_schedule)
    _write_sweep_csv(exp.out_dir / "sweep.csv", reports)
    print(f"wrote {len(reports)} sweep runs to {exp.out_dir}")
    return 0


def _write_sweep_csv(path: Path, reports: list[RunReport]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eta", "adapter", "seed", "avg_error", "adapted_fraction", "mean_c"])
        for r in reports:
            writer.writerow([
                repr(r.eta), r.adapter, r.seed, repr(r.avg_error),
                repr(r.adapted_fraction), "" if r.mean_c is None else repr(r.mean_c),
            ])


def cmd_replay(args: argparse.Namespace) -> int:
    records = parse_trace(args.trace, fallback_error_rate=args.fallback_error_rate)
    eta = args.eta if args.eta is not None else 1.0
    interval = args.interval if args.interval is not None else 1.0
    clock = StreamClock(base_rate=1.0 / interval, eta=eta)
    report = replay_online(records, clock)
    if args.fallback_error_rate is not None:
        report.notes.append(
            f"constant fallback error rate {args.fallback_error_rate} substituted for missing values"
        )
    report.run_id = f"replay-{Path(args.trace).stem}-eta{_eta_label(eta)}"
    out_dir = Path(os.environ.get("STREAMGATE_OUT") or args.out or "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", [report])
    write_summary_json(out_dir / "summary.json", [replace(report, schedule=None)])
    if args.emit_schedule and report.schedule is not None:
        write_schedule_csv(out_dir / f"schedule_{report.run_id}.csv", report.schedule)
    print(f"replayed {len(records)} steps: error {format_percent(report.avg_error)} "
          f"adapted {format_percent(report.adapted_fraction)}")
    return 0


def _seeds_arg(args: argparse.Namespace) -> list[int] | None:
    if args.seeds is None:
        return None
    try:
        return [int(s) for s in _parse_list(args.seeds)]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamgate",
        description="Deterministic benchmark harness for stream-paced test-time adaptation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured runs")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument("--out", default=None, help="output directory (STREAMGATE_OUT overrides)")
    run.add_argument("--seeds", default=None, help="comma-separated seed list override")
    run.add_argument("--emit-schedule", action="store_true", help="write per-step schedule CSVs")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="sweep the stream-speed factor eta")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--seeds", default=None)
    sweep.add_argument("--eta-values", default=None, type=_eta_list,
                       help="comma-separated eta grid (default 1/16,1/8,1/4,1/2,1)")
    sweep.add_argument("--emit-schedule", action="store_true")
    sweep.set_defaults(func=cmd_sweep)

    rep = sub.add_parser("replay", help="replay a recorded trace under a chosen clock")
    rep.add_argument("--trace", required=True, help="path to a trace CSV")
    rep.add_argument("--interval", default=None, type=float, help="base seconds per batch (default 1)")
    rep.add_argument("--eta", default=None, type=float, help="stream-speed factor in (0, 1]")
    rep.add_argument("--out", default=None)
    rep.add_argument("--fallback-error-rate", default=None, type=float,
                     help="substitute a constant fallback error rate for missing values")
    rep.add_argument("--emit-schedule", action="store_true")
    rep.set_defaults(func=cmd_replay)
    return parser


def _eta_list(raw: str) -> list[float]:
    from fractions import Fraction

    return [float(Fraction(v.strip())) for v in raw.split(",") if v.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
