"""Offline and online evaluation protocols over a constant-speed batch stream.

The offline protocol lets every batch wait for adaptation.  The online
protocol charges each adaptation its elapsed time in stream ticks: a step
whose cost spans k ticks opens a busy window of k-1 following steps that are
predicted by a fallback (the latest adapted snapshot, or a seeded random
classifier in single-model mode) without adaptation.  With every cost within
one tick the online protocol degenerates to the offline one exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import MEASURED, SIMULATED, Adapter, clone_adapter, sync_barrier
from .clock import (
    ADAPT,
    SKIP,
    StreamClock,
    effective_stream_interval,
    relative_adaptation_speed,
    schedule_decision,
)
from .model import ModelParams, blend_parameters, params_fingerprint, predict
from .report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    ACTION_SKIPPED_RANDOM,
    NO_SNAPSHOT,
    DomainReport,
    RunReport,
    ScheduleRecord,
    aggregate,
    domain_report,
    merge_reports,
)
from .stream import Batch, StreamSegment
from .trace import TraceRecord

OFFLINE = "offline"
ONLINE = "online"
SINGLE_MODEL = "single_model"

IMMEDIATE = "immediate"
DELAYED = "delayed"

__all__ = [
    "OFFLINE", "ONLINE", "SINGLE_MODEL", "IMMEDIATE", "DELAYED", "ADAPT", "SKIP",
    "StreamClock", "effective_stream_interval", "relative_adaptation_speed",
    "schedule_decision", "BusyWindow", "FixedModulo", "ProtocolConfig",
    "ProtocolError", "run_offline", "run_online", "run_single_model", "run_segments",
]


class ProtocolError(RuntimeError):
    """A run aborted mid-stream; the message carries the failing step."""


@dataclass(frozen=True)
class BusyWindow:
    """Schedule driven by each step's own measured/simulated speed."""


@dataclass(frozen=True)
class FixedModulo:
    """Adapt exactly when t mod k == 0, ignoring per-step speed."""

    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("FixedModulo k must be >= 1")


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: str = OFFLINE
    schedule_mode: BusyWindow | FixedModulo = BusyWindow()
    alpha: float = 0.0               # parameter blend: 0 adopts, 1 preserves
    fallback_visibility: str = IMMEDIATE
    timing: str = SIMULATED
    seed: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in (OFFLINE, ONLINE, SINGLE_MODEL):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.fallback_visibility not in (IMMEDIATE, DELAYED):
            raise ValueError(f"unknown fallback visibility {self.fallback_visibility!r}")
        if self.timing not in (SIMULATED, MEASURED):
            raise ValueError(f"unknown timing mode {self.timing!r}")


@dataclass
class _RunState:
    """Mutable scheduling state threaded through one stream."""

    theta: ModelParams
    fallback: ModelParams
    version: int = 0
    fallback_version: int = 0
    busy_until: int = 0


def _validate_stream(stream: Sequence[Batch]) -> None:
    if not stream:
        raise ValueError("stream is empty")
    for i, batch in enumerate(stream):
        if batch.t != i:
            raise ValueError(f"stream ticks must be contiguous from 0; got t={batch.t} at index {i}")


def _measured_interval(params: ModelParams, batch: Batch, eta: float) -> float:
    """Per-step re-measurement of the base model's forward time, scaled by eta."""
    sync_barrier()
    start = time.perf_counter()
    predict(params, batch.features)
    sync_barrier()
    forward = max(time.perf_counter() - start, 1e-9)
    return forward / eta


def _run_protocol(
    stream: Sequence[Batch],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock,
    num_classes: int | None = None,
    predictions_out: list[np.ndarray] | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    _validate_stream(stream)
    if initial.dim != stream[0].features.shape[1]:
        raise ValueError("initial parameters do not match the stream's feature dimension")
    single = cfg.protocol == SINGLE_MODEL
    if single:
        if num_classes is None or num_classes < 2:
            raise ValueError("single-model runs need num_classes >= 2")
        if trace_out is not None:
            raise ValueError("trace collection is defined for dual-model runs only")

    adapter.set_params(initial.copy())
    state = _RunState(theta=adapter.params, fallback=adapter.params)
    rng = np.random.default_rng(cfg.seed)
    records: list[ScheduleRecord] = []
    fingerprints: list[str] = []
    current_domain: int | None = None

    for batch in stream:
        t = batch.t
        if batch.domain_id != current_domain:
            fingerprints.append(params_fingerprint(state.theta))
            current_domain = batch.domain_id

        if cfg.protocol == OFFLINE:
            adapt_now = True
        elif isinstance(cfg.schedule_mode, FixedModulo):
            adapt_now = t % cfg.schedule_mode.k == 0
        else:
            adapt_now = schedule_decision(t, state.busy_until) == ADAPT

        fallback_correct: int | None = None
        if trace_out is not None:
            fb_pred, _ = predict(state.fallback, batch.features)
            fallback_correct = int((fb_pred == batch.labels).sum())

        if adapt_now:
            prev = adapter.params
            try:
                if cfg.timing == MEASURED:
                    interval = _measured_interval(prev, batch, clock.eta)
                    sync_barrier()
                    start = time.perf_counter()
                    outcome = adapter.adapt(batch)
                    sync_barrier()
                    cost = max(time.perf_counter() - start, 1e-9)
                else:
                    interval = clock.effective_interval
                    outcome = adapter.adapt(batch)
                    cost = outcome.cost
                c = relative_adaptation_speed(interval, cost)
                # The blend validates the adapter's output.
                theta_next = blend_parameters(prev, outcome.theta_hat, cfg.alpha)
            except Exception as exc:
                raise ProtocolError(
                    f"adapter {adapter.name!r} failed at step {t}: {exc}"
                ) from exc
            adapter.set_params(theta_next)
            state.version += 1
            if cfg.fallback_visibility == IMMEDIATE:
                state.fallback, state.fallback_version = theta_next, state.version
            else:
                state.fallback, state.fallback_version = prev, state.version - 1
            state.theta = theta_next
            state.busy_until = t + c
            y_hat = outcome.y_hat
            action, c_value, version = ACTION_ADAPTED, c, state.version
            adapted_correct = int((y_hat == batch.labels).sum())
            step_latency = cost
        else:
            if single:
                y_hat = rng.integers(0, num_classes, size=batch.size)
                action, version = ACTION_SKIPPED_RANDOM, NO_SNAPSHOT
            else:
                y_hat, _ = predict(state.fallback, batch.features)
                action, version = ACTION_SKIPPED_FALLBACK, state.fallback_version
            c_value = None
            if trace_out is not None:
                # Counterfactual one-step adaptation on a throwaway copy; the
                # live adapter (including its latency rng) stays untouched.
                ghost = clone_adapter(adapter)
                ghost_out = ghost.adapt(batch)
                adapted_correct = int((ghost_out.y_hat == batch.labels).sum())
                step_latency = ghost_out.cost

        errors = int((y_hat != batch.labels).sum())
        records.append(
            ScheduleRecord(
                step=t,
                action=action,
                c_value=c_value,
                params_version=version,
                error_count=errors,
                batch_size=batch.size,
            )
        )
        if predictions_out is not None:
            predictions_out.append(np.asarray(y_hat).copy())
        if trace_out is not None:
            trace_out.append(
                TraceRecord(
                    step=t,
                    latency=float(step_latency),
                    correct_adapted=adapted_correct,
                    correct_fallback=fallback_correct,
                    domain_id=batch.domain_id,
                    batch_size=batch.size,
                )
            )

    per_domain: list[DomainReport] = []
    start = 0
    for i in range(1, len(stream) + 1):
        if i == len(stream) or stream[i].domain_id != stream[start].domain_id:
            per_domain.append(domain_report(stream[start].domain_id, records[start:i]))
            start = i
    avg_error, overall_c, adapted_fraction = aggregate(per_domain)
    return RunReport(
        run_id="",
        protocol=cfg.protocol,
        scenario="",
        adapter=adapter.name,
        eta=clock.eta,
        seed=cfg.seed,
        per_domain=per_domain,
        avg_error=avg_error,
        mean_c=overall_c,
        adapted_fraction=adapted_fraction,
        schedule=records,
        fingerprints=fingerprints,
    )


def run_offline(
    stream: Sequence[Batch],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock = StreamClock(),
    predictions_out: list[np.ndarray] | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    """Every batch waits for adaptation; the whole stream is adapted."""
    if cfg.protocol != OFFLINE:
        raise ValueError("run_offline requires cfg.protocol == 'offline'")
    return _run_protocol(stream, adapter, initial, cfg, clock,
                         predictions_out=predictions_out, trace_out=trace_out)


def run_online(
    stream: Sequence[Batch],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock = StreamClock(),
    predictions_out: list[np.ndarray] | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    """Constant-speed stream; busy steps fall back to the latest snapshot."""
    if cfg.protocol != ONLINE:
        raise ValueError("run_online requires cfg.protocol == 'online'")
    return _run_protocol(stream, adapter, initial, cfg, clock,
                         predictions_out=predictions_out, trace_out=trace_out)


def run_single_model(
    stream: Sequence[Batch],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    num_classes: int,
    clock: StreamClock = StreamClock(),
    predictions_out: list[np.ndarray] | None = None,
) -> RunReport:
    """Online scheduling with no concurrent fallback model.

    Skipped steps are predicted by a seeded uniform-random classifier over
    num_classes, the strictest stand-in for a deployment that can only host
    the adapting model itself.
    """
    if cfg.protocol != SINGLE_MODEL:
        raise ValueError("run_single_model requires cfg.protocol == 'single_model'")
    return _run_protocol(stream, adapter, initial, cfg, clock,
                         num_classes=num_classes, predictions_out=predictions_out)


def run_segments(
    segments: Sequence[StreamSegment],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock = StreamClock(),
    num_classes: int | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    """Run a composed scenario: each reset-marked segment restarts the adapter."""
    if not segments:
        raise ValueError("no segments to run")
    if trace_out is not None and len(segments) > 1:
        raise ValueError("trace collection needs a single-segment stream")
    reports = []
    for segment in segments:
        if segment.reset:
            adapter.reset()
        reports.append(
            _run_protocol(segment.batches, adapter, initial, cfg, clock,
                          num_classes=num_classes, trace_out=trace_out)
        )
    return merge_reports(reports)
