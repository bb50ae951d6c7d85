"""Offline and online evaluation protocols over a constant-speed batch stream.

One loop runs every protocol; ``cfg.protocol`` only says how a step decides
to adapt.  The offline protocol lets every batch wait for adaptation.  The
online protocol charges each adaptation its elapsed time in stream ticks
through the busy-window rule of ``clock.Worker``, the same rule trace replay
applies: a step whose cost spans k ticks opens a busy window of k-1 following
steps that are predicted by a fallback (the latest adapted snapshot, or a
seeded random classifier in single-model mode) without adaptation.  With
every cost within one tick the online protocol degenerates to the offline one
exactly.  The loop appends each step to the columns that ``report.run_report``
turns into the report, as replay does, and builds no per-step record.

A traced step both adapts on its batch, live or on a throwaway copy, and
predicts it with the fallback.  Either way the step adapts through one call and
is charged alike: the outcome's cost under simulated timing, the call's
wall-clock seconds under measured timing.  One forward pass serves each
parameter set and batch: when the fallback is the very parameter set the
step's forward pass ran on (``AdaptOutcome.forward``), as under immediate
visibility it is on every step, the fallback prediction is read from that pass.

``run_stream`` runs one stream from given parameters; ``run_segments`` runs a
composed scenario, restarting the adapter at every reset marker.  The segments
of an episodic scenario step in lockstep, as lanes of one stacked step per tick
(see ``_lanes``), with the bits of stepping them one at a time.
``schedule_class`` predicts from the loop's rule which runs are equal but for
their labels, so that a caller computes each such class once.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import ADAPTERS, Adapter, clone_adapter
from .clock import StreamClock, Worker, check_ticks, relative_adaptation_speed
from .model import ModelParams, blend_parameters, params_fingerprint, predict
from .report import (
    ACTION_SKIPPED_FALLBACK,
    ACTION_SKIPPED_RANDOM,
    NO_SNAPSHOT,
    RunReport,
    run_report,
)
from .stream import Batch, StreamSegment
from .trace import TraceRecord

OFFLINE = "offline"
ONLINE = "online"
SINGLE_MODEL = "single_model"

IMMEDIATE = "immediate"
DELAYED = "delayed"

SIMULATED = "simulated"
MEASURED = "measured"

_BUILT_IN = frozenset(ADAPTERS.values())  # adapters whose steps take stacked lanes

__all__ = [
    "OFFLINE", "ONLINE", "SINGLE_MODEL", "IMMEDIATE", "DELAYED", "SIMULATED", "MEASURED",
    "BusyWindow", "FixedModulo", "ProtocolConfig", "ProtocolError", "run_stream",
    "run_segments", "schedule_class",
]


class ProtocolError(RuntimeError):
    """A run aborted mid-stream; the message carries the failing step and domain."""


@dataclass(frozen=True)
class BusyWindow:
    """Schedule driven by each step's own measured/simulated speed."""


@dataclass(frozen=True)
class FixedModulo:
    """Adapt exactly when t mod k == 0, ignoring per-step speed."""

    k: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError(f"FixedModulo k must be an integer, got {self.k!r}")
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
        if not isinstance(self.schedule_mode, (BusyWindow, FixedModulo)):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.fallback_visibility not in (IMMEDIATE, DELAYED):
            raise ValueError(f"unknown fallback visibility {self.fallback_visibility!r}")
        if self.timing not in (SIMULATED, MEASURED):
            raise ValueError(f"unknown timing mode {self.timing!r}")
        seed = self.seed  # numpy would reject a negative one only at its first draw
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def _modulo(cfg: ProtocolConfig) -> int | None:
    """Adapt at t iff t % modulo == 0, offline exactly as modulo:1; None: the busy window."""
    if cfg.protocol == OFFLINE:
        return 1
    return cfg.schedule_mode.k if isinstance(cfg.schedule_mode, FixedModulo) else None


def schedule_class(
    cfg: ProtocolConfig, adapter: Adapter, clock: StreamClock, batch_size: int
) -> tuple[str, int, str] | None:
    """The key (adapter, C, protocol) shared by the runs on one stream, among runs
    differing in protocol and clock only, that equal this one but for their labels.
    None under measured timing, or when the adapter's costs on a batch of
    ``batch_size`` span two Cs: ``_run`` reads a simulated clock only through C.
    ``relative_adaptation_speed`` is monotone in the cost, so when the cost
    range's two ends give the same C, so does every cost between them.
    A run that adapts at every step is keyed as offline."""
    if cfg.timing == MEASURED:
        return None
    lo, hi = adapter.cost_range(batch_size)
    c = relative_adaptation_speed(clock.effective_interval, lo)
    if c != relative_adaptation_speed(clock.effective_interval, hi):
        return None
    modulo = _modulo(cfg)
    every_step = modulo == 1 or (modulo is None and c == 1)
    return adapter.name, c, OFFLINE if every_step else cfg.protocol


def _timed(fn, *args):
    """``fn(*args)`` and the seconds it took, floored so that no cost is zero."""
    start = time.perf_counter()
    result = fn(*args)
    return result, max(time.perf_counter() - start, 1e-9)


def _lanes(
    segments: Sequence[StreamSegment], adapter: Adapter, cfg: ProtocolConfig, clock: StreamClock
) -> int:
    """How many segments ``_run`` steps in lockstep, as lanes of one stacked step per tick
    that all adapt at the same ticks: all if each restarts from the initial state, they
    share one length and batch size, busy steps fall back to a snapshot, every cost gives
    one C, and the adapter is a built-in one with one latency model, so that one draw per
    tick charges every lane its own run's cost; otherwise 1."""
    if (len(segments) < 2 or cfg.protocol == SINGLE_MODEL
            or type(adapter) not in _BUILT_IN
            or len(adapter._latency_models()) > 1
            or not all(segment.reset for segment in segments)
            or len({len(segment.batches) for segment in segments}) > 1):
        return 1
    sizes = {batch.size for segment in segments for batch in segment.batches}
    one_c = len(sizes) == 1 and schedule_class(cfg, adapter, clock, sizes.pop()) is not None
    return len(segments) if one_c else 1


def _run(
    segments: Sequence[StreamSegment],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock,
    num_classes: int | None,
    predictions_out: list[np.ndarray] | None,
    trace_out: list[TraceRecord] | None,
    lockstep: bool = True,
) -> RunReport:
    """The run loop of every protocol, over segments that share one report.  It steps
    ``_lanes`` segments at a time, writing each lane's columns back in segment order."""
    single = cfg.protocol == SINGLE_MODEL
    if num_classes is None:
        num_classes = initial.num_classes
    elif num_classes != initial.num_classes:
        raise ValueError(f"num_classes {num_classes} does not match the model's "
                         f"{initial.num_classes}")
    if single:
        if num_classes < 2:
            raise ValueError("single-model runs need num_classes >= 2")
        if trace_out is not None:
            raise ValueError("trace collection is defined for dual-model runs only")
    modulo = _modulo(cfg)
    lanes = _lanes(segments, adapter, cfg, clock) if lockstep else 1
    steps: list[int] = []
    batch_sizes: list[int] = []
    error_counts: list[int] = []
    versions: list[int] = []
    adapted: list[int] = []
    c_values: list[int] = []
    domains: list[tuple[int, int]] = []
    fingerprints: list[str] = []
    # One generator per run, so each domain's busy steps draw fresh predictions.
    rng = np.random.default_rng(cfg.seed)

    for first in range(0, len(segments), lanes):
        group = segments[first:first + lanes]
        for segment in group:
            stream = segment.batches
            if not stream:
                raise ValueError("stream is empty")
            check_ticks(batch.t for batch in stream)
            if initial.dim != stream[0].features.shape[1]:
                raise ValueError("initial parameters do not match the stream's feature dimension")
        if group[0].reset:
            adapter.reset()
            adapter.params = initial.copy() if lanes == 1 else initial.stack(lanes)
        worker = Worker()
        fallback, version, fallback_version = adapter.params, 0, 0
        # Per lane: the current domain and its rows (domain, tick, fingerprint).
        current, rows = [None] * lanes, [[] for _ in range(lanes)]
        # Per tick, alike in every lane but the errors: the batch size, version,
        # adapted ticks and their C, and each lane's error count.
        sizes, tick_versions, tick_adapted, tick_c, errors = [], [], [], [], []

        for i, ticks in enumerate(zip(*(segment.batches for segment in group))):
            batch, t = ticks[0], i  # check_ticks: tick i is t = i
            for k, lane_batch in enumerate(ticks):
                if lane_batch.domain_id != current[k]:
                    current[k] = lane_batch.domain_id
                    params = adapter.params if lanes == 1 else adapter.params.lane(k)
                    rows[k].append((current[k], i, params_fingerprint(params)))

            adapt_now = t >= worker.busy_until if modulo is None else t % modulo == 0
            stepped = adapt_now or trace_out is not None

            # Every call of the step, adapter or fallback, live or counterfactual,
            # fails as one.
            try:
                if lanes > 1:  # a stacked batch, of no one domain
                    batch = Batch(np.stack([b.features for b in ticks]),
                                  np.stack([b.labels for b in ticks]), -1, t)
                if stepped:
                    prev = adapter.params
                    # A counterfactual step adapts a throwaway copy; the live
                    # adapter (including its latency rng) stays untouched.
                    stepper = adapter if adapt_now else clone_adapter(adapter)
                    if cfg.timing == MEASURED:
                        if adapt_now:
                            # The base model's forward time, re-measured at every adapted step.
                            interval = _timed(predict, prev, batch.features)[1] / clock.eta
                        outcome, cost = _timed(stepper.adapt, batch)
                    else:
                        interval = clock.effective_interval
                        outcome = stepper.adapt(batch)
                        cost = outcome.cost
                if adapt_now:
                    c = worker.occupy(t, interval, cost)
                    # The blend validates the adapter's output.
                    theta_next = blend_parameters(prev, outcome.theta_hat, cfg.alpha)
                if trace_out is not None or not (adapt_now or single):
                    seen = outcome.forward if stepped else None
                    fb_pred = (seen.labels if seen is not None and seen.params is fallback
                               else predict(fallback, batch.features)[0])
                if trace_out is not None:
                    trace_out.append(TraceRecord(
                        step=t, latency=float(cost),
                        correct_adapted=int(np.count_nonzero(outcome.y_hat == batch.labels)),
                        correct_fallback=int(np.count_nonzero(fb_pred == batch.labels)),
                        domain_id=batch.domain_id, batch_size=batch.size))
            except Exception as exc:
                if lanes > 1:
                    # Rerun one segment at a time, which raises the sequential run's error.
                    return _run(segments, adapter, initial, cfg, clock, num_classes,
                                predictions_out, trace_out, lockstep=False)
                raise ProtocolError(
                    f"adapter {adapter.name!r} failed at step {t}: {exc} "
                    f"(domain {batch.domain_id})"
                ) from exc

            if adapt_now:
                adapter.params = theta_next
                version += 1
                if cfg.fallback_visibility == IMMEDIATE:
                    fallback, fallback_version = theta_next, version
                else:
                    fallback, fallback_version = prev, version - 1
                y_hat = outcome.y_hat
                tick_adapted.append(i)
                tick_c.append(c)
                tick_versions.append(version)
            elif single:
                y_hat = rng.integers(0, num_classes, size=batch.size)
                tick_versions.append(NO_SNAPSHOT)
            else:
                y_hat = fb_pred
                tick_versions.append(fallback_version)

            sizes.append(batch.size)
            wrong = y_hat != batch.labels
            errors.append(np.count_nonzero(wrong) if lanes == 1 else wrong.sum(axis=-1))
            if predictions_out is not None:
                predictions_out.append(np.asarray(y_hat).copy())

        for lane_rows, lane_errors in zip(rows, np.reshape(errors, (-1, lanes)).T.tolist()):
            base = len(steps)
            domains.extend((domain_id, base + i) for domain_id, i, _ in lane_rows)
            fingerprints.extend(fingerprint for *_, fingerprint in lane_rows)
            steps.extend(range(len(sizes)))
            batch_sizes.extend(sizes)
            error_counts.extend(lane_errors)
            versions.extend(tick_versions)
            adapted.extend(base + i for i in tick_adapted)
            c_values.extend(tick_c)
        if lanes > 1:
            adapter.params = adapter.params.lane(lanes - 1)

    return run_report(
        domains, steps, batch_sizes, error_counts, versions, adapted, c_values,
        ACTION_SKIPPED_RANDOM if single else ACTION_SKIPPED_FALLBACK, protocol=cfg.protocol,
        adapter=adapter.name, eta=clock.eta, seed=cfg.seed, fingerprints=fingerprints,
    )


def run_stream(
    stream: Sequence[Batch],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock = StreamClock(),
    *,
    num_classes: int | None = None,
    predictions_out: list[np.ndarray] | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    """Run ``cfg.protocol`` over one stream, starting from ``initial``.

    The adapter's latency rng carries over from before the call.  Single-model
    runs predict busy steps uniformly at random over ``num_classes``, by
    default ``initial.num_classes`` and rejected if it differs, the strictest
    stand-in for a deployment that can only host the adapting model itself.
    """
    adapter.params = initial.copy()
    return _run([StreamSegment(reset=False, batches=stream)], adapter, initial, cfg, clock,
                num_classes, predictions_out, trace_out)


def run_segments(
    segments: Sequence[StreamSegment],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock = StreamClock(),
    num_classes: int | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    """Run a composed scenario: each reset-marked segment restarts the adapter
    from ``initial``; a segment without the marker continues from its state.  At
    the end the adapter holds the last segment's parameters and latency rng."""
    if not segments:
        raise ValueError("no segments to run")
    if trace_out is not None and len(segments) > 1:
        raise ValueError("trace collection needs a single-segment stream")
    return _run(segments, adapter, initial, cfg, clock, num_classes, None, trace_out)
