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
The ticks from the one after an adapted step through the next adapted one all
start from the live state, so a traced run steps them as the lanes of one stacked
step of a throwaway copy, from which each tick takes its lane's cost and the live
tick its lane and the latency rng.

``run_stream`` runs one stream from given parameters; ``run_segments`` runs a
composed scenario, restarting the adapter at every reset marker.  The segments
of an episodic scenario step in lockstep, as lanes of one stacked step per tick
(see ``run_segments``), with the bits of stepping them one at a time; ``_stacks``
says which adapters step in lanes, with one rule per axis.
``schedule_class`` predicts from the loop's rule which runs are equal but for
their labels, so that a caller computes each such class once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import check_integer, check_real
from .adapters import ADAPTERS, Adapter, Stochastic, clone_adapter, sample_latency
from .clock import StreamClock, Worker, check_ticks, relative_adaptation_speed
from .model import ModelParams, blend_parameters, forward, params_fingerprint
from .report import (
    ACTION_SKIPPED_FALLBACK,
    ACTION_SKIPPED_RANDOM,
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
        check_integer(self.k, "FixedModulo k", 1)


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
        object.__setattr__(self, "alpha", check_real(self.alpha, "alpha", "in [0, 1]"))
        if self.fallback_visibility not in (IMMEDIATE, DELAYED):
            raise ValueError(f"unknown fallback visibility {self.fallback_visibility!r}")
        if self.timing not in (SIMULATED, MEASURED):
            raise ValueError(f"unknown timing mode {self.timing!r}")
        check_integer(self.seed, "seed")


def _modulo(cfg: ProtocolConfig) -> int | None:
    """The worker's fixed period k, to adapt iff t % k == 0: offline 1; None: the busy window."""
    if cfg.protocol == OFFLINE:
        return 1
    return cfg.schedule_mode.k if isinstance(cfg.schedule_mode, FixedModulo) else None


def _stacks(cfg: ProtocolConfig, adapter: Adapter, window: bool = False) -> bool:
    """Whether steps from one adapter state, latency rng included, on batches of one size
    may run as the lanes of one stacked step of a built-in adapter under simulated timing.
    Lockstep lanes share one C a tick: one latency model draws each the cost it would
    alone.  A traced ``window``'s lanes read their own costs: one model, or none stochastic."""
    models = adapter._latency_models()
    return (cfg.timing == SIMULATED and type(adapter) in _BUILT_IN
            and (len(models) == 1
                 or window and not any(isinstance(m, Stochastic) for m in models)))


def _stack(batches: Sequence[Batch]) -> Batch:
    """``batches`` as the lanes of one batch of no one domain, at the first one's tick:
    ``np.stack`` in one concatenate, with its ValueError on batches of two sizes."""
    labels = np.concatenate([b.labels[None] for b in batches])
    return Batch(np.concatenate([b.features for b in batches]).reshape(*labels.shape, -1),
                 labels, -1, batches[0].t)


def _window(adapter: Adapter, fallback: ModelParams, batches: Sequence[Batch]):
    """One step of a throwaway copy of ``adapter`` on the stack of ``batches``: the copy,
    the outcome, each lane's cost and each lane's fallback labels.  None if the step fails,
    batches of two sizes included, so that its ticks step one at a time and fail as they would."""
    try:
        ghost = clone_adapter(adapter)
        ghost.params = adapter.params.stack(len(batches))
        outcome = ghost.adapt(stacked := _stack(batches))
        seen = outcome.forward
        fb = (seen.labels if seen is not None and fallback is adapter.params
              else forward(fallback.stack(len(batches)), stacked.features).labels)
    except Exception:
        return None
    return ghost, outcome, np.full(len(batches), outcome.cost).tolist(), fb


def schedule_class(
    cfg: ProtocolConfig, adapter: Adapter, clock: StreamClock, batch_size: int
) -> tuple[str, int, str] | None:
    """The key (adapter, C, protocol) shared by the runs on one stream, among runs
    differing in protocol and clock only, that equal this one but for their labels.
    None under measured timing, when a latency model of the adapter is stochastic, or
    when its models' costs on a batch of ``batch_size`` give two Cs: ``_run`` reads a
    simulated clock only through C.  A run that adapts at every step is keyed as offline."""
    models = adapter._latency_models()
    if cfg.timing == MEASURED or any(isinstance(m, Stochastic) for m in models):
        return None
    cs = {relative_adaptation_speed(clock.effective_interval, sample_latency(m, batch_size))
          for m in models}
    if len(cs) > 1:
        return None
    (c,) = cs
    every_step = (_modulo(cfg) or c) == 1
    return adapter.name, c, OFFLINE if every_step else cfg.protocol


def _timed(fn, *args):
    """``fn(*args)`` and the seconds it took, floored so that no cost is zero."""
    start = time.perf_counter()
    result = fn(*args)
    return result, max(time.perf_counter() - start, 1e-9)


def _run(
    segments: Sequence[StreamSegment],
    lanes: int,
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock,
    num_classes: int | None,
    predictions_out: list[np.ndarray] | None,
    trace_out: list[TraceRecord] | None,
) -> RunReport:
    """The run loop of every protocol, over segments that share one report.  It steps
    ``lanes`` segments at a time, writing each lane's columns back in segment order."""
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
    interval = clock.effective_interval  # re-measured at every adapted step under measured timing
    windows = trace_out is not None and _stacks(cfg, adapter, window=True)
    steps: list[int] = []
    batch_sizes: list[int] = []
    error_counts: list[int] = []
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
        adapter.params.freeze()  # every set the run holds is read-only
        worker = Worker(_modulo(cfg))
        fallback = adapter.params
        window, window_end = None, -1
        # Per lane: the current domain and its rows (domain, tick, fingerprint).
        current, rows = [None] * lanes, [[] for _ in range(lanes)]
        # Per tick, alike in every lane but the errors: the batch size, adapted
        # ticks and their C, and each lane's error count.
        sizes, tick_adapted, tick_c, errors = [], [], [], []

        for i, ticks in enumerate(zip(*(segment.batches for segment in group))):
            batch, t = ticks[0], i  # check_ticks: tick i is t = i
            for k, lane_batch in enumerate(ticks):
                if lane_batch.domain_id != current[k]:
                    current[k] = lane_batch.domain_id
                    rows[k].append((current[k], i, params_fingerprint(adapter.params.lane(k))))

            adapt_now = t >= worker.busy_until
            stepped = adapt_now or trace_out is not None

            # Every call of the step, adapter or fallback, live or counterfactual,
            # fails as one.
            try:
                batch = _stack(ticks) if lanes > 1 else batch
                if windows and not adapt_now and t > window_end:
                    # The ticks through the next adapted one, cut at the stream's end, all
                    # start from the live state: they step as the lanes of one window.
                    window_start = t
                    window_end = worker.busy_until
                    window = _window(adapter, fallback, group[0].batches[t:window_end + 1])
                laned = window is not None and t <= window_end
                prev = adapter.params
                if laned:
                    ghost, outcome, costs, fb = window
                    j = t - window_start
                    cost, y_adapted, fb_pred = costs[j], outcome.y_hat[j], fb[j]
                    if adapt_now:  # the live tick commits what its own step would
                        theta_hat = adapter.params = outcome.theta_hat.lane(j)
                        adapter._latency_rng = ghost._latency_rng
                elif stepped:
                    # A counterfactual step adapts a throwaway copy; the live
                    # adapter (including its latency rng) stays untouched.
                    stepper = adapter if adapt_now else clone_adapter(adapter)
                    if cfg.timing == MEASURED and adapt_now:
                        # The wall time of the pass a fallback step runs, at every adapted step.
                        interval = _timed(lambda: forward(prev, batch.features).labels)[1] / clock.eta
                    outcome, seconds = _timed(stepper.adapt, batch)
                    cost = seconds if cfg.timing == MEASURED else outcome.cost
                    y_adapted, theta_hat = outcome.y_hat, outcome.theta_hat
                if adapt_now:
                    c = worker.start(t, relative_adaptation_speed(interval, cost))
                    # The blend validates the adapter's output.
                    theta_next = blend_parameters(prev, theta_hat, cfg.alpha)
                    theta_next.freeze()
                if not laned and (trace_out is not None or not (adapt_now or single)):
                    seen = outcome.forward if stepped else None
                    fb_pred = (seen.labels if seen is not None and seen.params is fallback
                               else forward(fallback, batch.features).labels)
                if trace_out is not None:
                    trace_out.append(TraceRecord(
                        step=t, latency=cost,
                        correct_adapted=int(np.count_nonzero(y_adapted == batch.labels)),
                        correct_fallback=int(np.count_nonzero(fb_pred == batch.labels)),
                        domain_id=batch.domain_id, batch_size=batch.size))
            except Exception as exc:
                if lanes > 1:
                    # Rerun one segment at a time, which raises the sequential run's error.
                    return _run(segments, 1, adapter, initial, cfg, clock, num_classes,
                                predictions_out, trace_out)
                raise ProtocolError(
                    f"adapter {adapter.name!r} failed at step {t}: {exc} "
                    f"(domain {batch.domain_id})"
                ) from exc

            if adapt_now:
                adapter.params = theta_next
                fallback = theta_next if cfg.fallback_visibility == IMMEDIATE else prev
                y_hat = y_adapted
                tick_adapted.append(i)
                tick_c.append(c)
            elif single:
                y_hat = rng.integers(0, num_classes, size=batch.size)
            else:
                y_hat = fb_pred

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
            adapted.extend(base + i for i in tick_adapted)
            c_values.extend(tick_c)
        adapter.params = adapter.params.lane(-1)

    return run_report(
        domains, steps, batch_sizes, error_counts, adapted, c_values,
        ACTION_SKIPPED_RANDOM if single else ACTION_SKIPPED_FALLBACK,
        lag=int(cfg.fallback_visibility == DELAYED), protocol=cfg.protocol,
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
    return _run([StreamSegment(reset=False, batches=stream)], 1, adapter, initial, cfg, clock,
                num_classes, predictions_out, trace_out)


def run_segments(
    segments: Sequence[StreamSegment],
    adapter: Adapter,
    initial: ModelParams,
    cfg: ProtocolConfig,
    clock: StreamClock = StreamClock(),
    *,
    num_classes: int | None = None,
    trace_out: list[TraceRecord] | None = None,
) -> RunReport:
    """Run a composed scenario: each reset-marked segment restarts the adapter
    from ``initial``; a segment without the marker continues from its state.  At
    the end the adapter holds the last segment's parameters and latency rng.

    The segments step in lockstep, as lanes of one stacked step per tick, when each
    restarts from the initial state, they share one length and batch size, busy steps
    fall back to a snapshot, timing is simulated and the adapter is a built-in one with
    one latency model.  Each lane then starts from a fresh latency rng and draws the
    same costs at the same ticks, so one draw per tick charges every lane its own run's
    cost.  Otherwise the segments step one at a time."""
    if not segments:
        raise ValueError("no segments to run")
    if trace_out is not None and len(segments) > 1:
        raise ValueError("trace collection needs a single-segment stream")
    together = (_stacks(cfg, adapter) and cfg.protocol != SINGLE_MODEL
                and all(segment.reset for segment in segments)
                and len({len(segment.batches) for segment in segments}) == 1
                and len({b.size for segment in segments for b in segment.batches}) == 1)
    return _run(segments, len(segments) if together else 1, adapter, initial, cfg, clock,
                num_classes, None, trace_out)
