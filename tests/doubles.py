"""Test doubles: adapters with controlled behavior for protocol tests, and oracles."""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.linalg import expm

from streamgate.adapters import (
    AdaptOutcome,
    Adapter,
    Constant,
    EntropyMinAdapter,
    LatencyModel,
    PseudoLabelAdapter,
    RejectionEntropyAdapter,
    sample_latency,
)
from streamgate.clock import StreamClock, Worker, check_ticks, relative_adaptation_speed
from streamgate.model import VAR_FLOOR, ModelParams, predict
from streamgate.report import (
    ACTION_ADAPTED,
    ACTION_SKIPPED_FALLBACK,
    DomainReport,
    RunReport,
    ScheduleRecord,
)
from streamgate.stream import (
    BASE_STRENGTH,
    CORRUPTION_KINDS,
    EPISODIC,
    FEATURE_MASK,
    FEATURE_SCALE,
    GAUSSIAN_NOISE,
    MEAN_SHIFT,
    ROTATION,
    Batch,
    CorruptionSpec,
    ScenarioSpec,
    SourceSpec,
    StreamSegment,
    TrainingError,
    TrainSpec,
    _rotation_generator,
    apply_corruption,
    class_means,
    compose_stream,
)
from streamgate.trace import FALLBACK_APPROXIMATION_NOTE, TraceFormatError, TraceRecord


FIELDS = ("mu", "var", "gamma", "beta", "W", "b")


def tiny_params(dim: int = 4, num_classes: int = 3, seed: int = 0) -> ModelParams:
    rng = np.random.default_rng(seed)
    return ModelParams(
        mu=rng.normal(size=dim),
        var=rng.uniform(0.5, 2.0, size=dim),
        gamma=rng.normal(1.0, 0.2, size=dim),
        beta=rng.normal(0.0, 0.2, size=dim),
        W=rng.normal(size=(num_classes, dim)),
        b=rng.normal(size=num_classes),
    )


def tiny_stream(
    n_batches: int,
    batch_size: int = 4,
    dim: int = 4,
    num_classes: int = 3,
    seed: int = 0,
    domain_id: int = 0,
) -> list[Batch]:
    rng = np.random.default_rng(seed)
    return [
        Batch(
            features=rng.normal(size=(batch_size, dim)),
            labels=rng.integers(0, num_classes, size=batch_size),
            domain_id=domain_id,
            t=t,
        )
        for t in range(n_batches)
    ]


def two_domain_stream(spec: SourceSpec) -> list[StreamSegment]:
    """A continual stream of two 10-batch domains, mean shift then noise."""
    scenario = ScenarioSpec(
        mode="continual",
        domain_order=(CorruptionSpec("mean_shift", 5, seed=0),
                      CorruptionSpec("gaussian_noise", 5, seed=0)),
        batch_size=16,
    )
    return compose_stream(scenario, spec, 160, seed=0)


class FixedErrorAdapter(Adapter):
    """Errs on exactly round(error_rate * B) samples of every adapted batch.

    An oracle fixture: it reads the batch labels, which no real adapter may do.
    """

    name = "fixed_error"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel = Constant(1.0),
                 error_rate: float = 0.2):
        super().__init__(pretrained, latency)
        self.error_rate = error_rate

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        k = round(self.error_rate * batch.size)
        y_hat = batch.labels.copy()
        y_hat[:k] = (y_hat[:k] + 1) % self.params.num_classes
        return AdaptOutcome(batch.features, self.params.copy(), y_hat, cost=None)


class PerfectAdapter(Adapter):
    """Predicts the true labels on adapted batches (oracle fixture)."""

    name = "perfect"

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        return AdaptOutcome(batch.features, self.params.copy(), batch.labels.copy(), cost=None)


class BetaShiftAdapter(Adapter):
    """Adds a constant to beta each step, so every snapshot predicts differently."""

    name = "beta_shift"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel = Constant(1.0),
                 step: float = 5.0):
        super().__init__(pretrained, latency)
        self.step = step

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        theta = self.params.copy()
        theta.beta = theta.beta + self.step
        y_hat, _ = predict(theta, batch.features)
        return AdaptOutcome(batch.features, theta, y_hat, cost=None)


class FailingAdapter(Adapter):
    """Raises on the n-th adapt call."""

    name = "failing"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel = Constant(1.0),
                 fail_at: int = 3):
        super().__init__(pretrained, latency)
        self.fail_at = fail_at
        self.calls = 0

    def reset(self) -> None:
        super().reset()
        self.calls = 0

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        if self.calls == self.fail_at:
            raise RuntimeError("synthetic adapter failure")
        self.calls += 1
        theta = self.params.copy()
        y_hat, _ = predict(theta, batch.features)
        return AdaptOutcome(batch.features, theta, y_hat, cost=None)


def nearest_mean_error(means: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Error of the nearest-class-mean rule; reference oracle for the task."""
    d2 = ((features[:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
    return float((d2.argmin(axis=1) != labels).mean())


def model_error(params: ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    yhat, _ = predict(params, features)
    return float((yhat != labels).mean())


def rotation_matrix(spec: CorruptionSpec, dim: int) -> np.ndarray:
    """The orthogonal matrix a rotation corruption applies, drawn as it draws it."""
    rng = np.random.default_rng([spec.seed, CORRUPTION_KINDS.index(spec.kind), spec.severity])
    return expm((BASE_STRENGTH[spec.kind] * spec.severity) * _rotation_generator(dim, rng))


def _reference_sample_domain(source: SourceSpec, corruption: CorruptionSpec | None,
                             n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """stream.sample_domain with the clean and the corrupted domain's key in two branches."""
    if corruption is None:  # clean segment
        key = [len(CORRUPTION_KINDS), 0, 0]
    else:
        key = [CORRUPTION_KINDS.index(corruption.kind), corruption.severity, corruption.seed]
    rng = np.random.default_rng([seed, *key])
    means = class_means(source)
    labels = rng.integers(0, source.num_classes, size=n)
    features = means[labels] + rng.standard_normal((n, source.dim))
    if corruption is not None:
        features = apply_corruption(features, corruption)
    return features, labels


def reference_compose_stream(scenario: ScenarioSpec, source: SourceSpec,
                             samples_per_domain: int, seed: int) -> list[StreamSegment]:
    """stream.compose_stream written the long way: a tick counter reset per
    episodic segment, a batch count, and one branch per way to open a segment."""
    domains: list[CorruptionSpec | None] = list(scenario.domain_order)
    if scenario.append_clean:
        domains.append(None)
    segments: list[StreamSegment] = []
    t = 0
    for domain_id, corruption in enumerate(domains):
        features, labels = _reference_sample_domain(source, corruption, samples_per_domain, seed)
        n_batches = samples_per_domain // scenario.batch_size
        if scenario.mode == EPISODIC:
            segments.append(StreamSegment(reset=True))
            t = 0
        elif not segments:
            segments.append(StreamSegment(reset=True))
        seg = segments[-1]
        bs = scenario.batch_size
        for i in range(n_batches):
            seg.batches.append(
                Batch(
                    features=features[i * bs:(i + 1) * bs],
                    labels=labels[i * bs:(i + 1) * bs],
                    domain_id=domain_id,
                    t=t,
                )
            )
            t += 1
    return segments


def reference_corruption_suite(severity: int = 5) -> tuple[CorruptionSpec, ...]:
    """stream.default_corruption_suite built from a list of shift seeds and a
    count of seeds per other kind."""
    suite = [
        CorruptionSpec(kind=MEAN_SHIFT, severity=severity, seed=s)
        for s in (0, 6, 9, 10, 19)
    ]
    counts = (
        (GAUSSIAN_NOISE, 3),
        (ROTATION, 3),
        (FEATURE_MASK, 2),
        (FEATURE_SCALE, 2),
    )
    for kind, count in counts:
        for s in range(count):
            suite.append(CorruptionSpec(kind=kind, severity=severity, seed=s))
    return tuple(suite)


def reference_pretrain_source_model(
    features: np.ndarray, labels: np.ndarray, hyper: TrainSpec = TrainSpec()
) -> ModelParams:
    """The plain form of stream.pretrain_source_model's descent: the same
    operations in the same order, one numpy expression per step."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    num_classes = int(labels.max()) + 1
    mu = features.mean(axis=0)
    var = np.maximum(features.var(axis=0), VAR_FLOOR)
    z = (features - mu) / np.sqrt(var)
    n, d = z.shape
    W = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    onehot = np.eye(num_classes)[labels]
    for i in range(hyper.iterations):
        logits = z @ W.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = -logp[np.arange(n), labels].mean()
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at iteration {i}")
        resid = np.exp(logp) - onehot
        W -= hyper.learning_rate * resid.T @ z / n
        b -= hyper.learning_rate * resid.mean(axis=0)
    return ModelParams(mu=mu, var=var, gamma=np.ones(d), beta=np.zeros(d), W=W, b=b)


# Per-field references for the flat-vector parameter operations in streamgate.model,
# and the per-field equality the tests compare parameter sets with.

def reference_params_equal(a: ModelParams, b: ModelParams) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in FIELDS)


def reference_params_fingerprint(params: ModelParams) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(np.ascontiguousarray(getattr(params, name)).tobytes())
    return h.hexdigest()


def reference_blend_parameters(theta: ModelParams, theta_hat: ModelParams,
                               alpha: float) -> ModelParams:
    if alpha in (0.0, 1.0):
        kept = theta_hat if alpha == 0.0 else theta
        return ModelParams(**{name: getattr(kept, name).copy() for name in FIELDS})
    blended = {name: alpha * getattr(theta, name) + (1.0 - alpha) * getattr(theta_hat, name)
               for name in FIELDS}
    blended["var"] = np.maximum(blended["var"], VAR_FLOOR)
    return ModelParams(**blended)


# The per-step replay loop and per-domain sums that streamgate.trace.replay_online
# replaced with its column form: one validated record and one busy-window check
# per step, then each domain's rows summed record by record.

def reference_domain_report(domain_id: int, records: list[ScheduleRecord]) -> DomainReport:
    if not records:
        raise ValueError("domain has no schedule records")
    total = sum(r.batch_size for r in records)
    errors = sum(r.error_count for r in records)
    c_values = [r.c_value for r in records if r.action == ACTION_ADAPTED]
    return DomainReport(
        domain_id=domain_id,
        n_batches=len(records),
        n_adapted=sum(r.action == ACTION_ADAPTED for r in records),
        error_rate=errors / total,
        mean_c=float(np.mean(c_values)) if c_values else None,
    )


def reference_replay(trace: list[TraceRecord], clock: StreamClock = StreamClock()) -> RunReport:
    if not trace:
        raise TraceFormatError("trace contains no records")
    check_ticks((rec.step for rec in trace), TraceFormatError)
    interval = clock.effective_interval
    worker = Worker()
    version = 0
    records: list[ScheduleRecord] = []
    domains: list[tuple[int, int]] = []
    current_domain = None
    for rec in trace:
        if rec.domain_id != current_domain:
            current_domain = rec.domain_id
            domains.append((current_domain, rec.step))
        if rec.step >= worker.busy_until:
            c = worker.start(rec.step, relative_adaptation_speed(interval, rec.latency))
            version += 1
            action, correct = ACTION_ADAPTED, rec.correct_adapted
        else:
            c, action, correct = None, ACTION_SKIPPED_FALLBACK, rec.correct_fallback
        records.append(
            ScheduleRecord(
                step=rec.step,
                action=action,
                c_value=c,
                params_version=version,
                error_count=rec.batch_size - correct,
                batch_size=rec.batch_size,
            )
        )
    ends = [start for _, start in domains[1:]] + [len(records)]
    per_domain = [reference_domain_report(domain_id, records[start:end])
                  for (domain_id, start), end in zip(domains, ends)]
    return RunReport(
        run_id="", protocol="online", scenario="replay", adapter="trace", eta=clock.eta,
        seed=0, per_domain=per_domain, schedule=records, notes=[FALLBACK_APPROXIMATION_NOTE],
        **reference_run_numbers(per_domain, records),
    )


def reference_run_numbers(per_domain: list[DomainReport], records: list[ScheduleRecord]) -> dict:
    """A run's ``avg_error``, the unweighted mean of its rows' error rates, and its
    ``mean_c`` and ``adapted_fraction`` from its per-step records: the exact C total
    of the adapted steps over their count, and that count over the steps."""
    c_values = [r.c_value for r in records if r.action == ACTION_ADAPTED]
    return {"avg_error": float(np.mean([d.error_rate for d in per_domain])),
            "mean_c": sum(c_values) / len(c_values) if c_values else None,
            "adapted_fraction": len(c_values) / len(records)}


# The per-step math of the three descent adapters as they ran it before a step
# shared one forward pass: every use (pseudo-labels, entropy gate, gradient,
# post-step prediction) runs its own pass.  Each class overrides only
# ``_adapt``, as a custom adapter does, so its outcomes carry no forward pass
# and the run loop predicts every traced fallback itself.

def reference_log_probabilities(params: ModelParams,
                                features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(normalized features, row-wise log-softmax of the logits)."""
    u = (features - params.mu) / np.sqrt(params.var)
    logits = (params.gamma * u + params.beta) @ params.W.T + params.b
    shifted = logits - logits.max(axis=1, keepdims=True)
    return u, shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def reference_predict(params: ModelParams, features: np.ndarray) -> np.ndarray:
    _, logp = reference_log_probabilities(params, features)
    return np.exp(logp).argmax(axis=1)


def _reference_affine_gradient(g_logits, u, W):
    gz = g_logits @ W / len(g_logits)
    return (gz * u).sum(axis=0), gz.sum(axis=0)


def reference_entropy_gradient(params, features, mask=None):
    u, logp = reference_log_probabilities(params, features)
    p = np.exp(logp)
    h = -(p * logp).sum(axis=1)
    g_logits = -p * (logp + h[:, None])
    if mask is not None:
        g_logits, u = g_logits[mask], u[mask]
    return _reference_affine_gradient(g_logits, u, params.W)


def reference_cross_entropy_gradient(params, features, labels):
    u, logp = reference_log_probabilities(params, features)
    p = np.exp(logp)
    p[np.arange(len(labels)), labels] -= 1.0
    return _reference_affine_gradient(p, u, params.W)


def _reference_descend(adapter, batch: Batch, g_gamma, g_beta) -> AdaptOutcome:
    if not (np.isfinite(g_gamma).all() and np.isfinite(g_beta).all()):
        raise FloatingPointError(f"non-finite gradient in {adapter.name}")
    theta = adapter.params.copy()
    theta.gamma = theta.gamma - adapter.learning_rate * g_gamma
    theta.beta = theta.beta - adapter.learning_rate * g_beta
    return AdaptOutcome(batch.features, theta, reference_predict(theta, batch.features),
                        cost=None)


class ReferenceEntropyMin(EntropyMinAdapter):
    def _adapt(self, batch: Batch) -> AdaptOutcome:
        return _reference_descend(self, batch,
                                  *reference_entropy_gradient(self.params, batch.features))


class ReferencePseudoLabel(PseudoLabelAdapter):
    def _adapt(self, batch: Batch) -> AdaptOutcome:
        pseudo = reference_predict(self.params, batch.features)
        return _reference_descend(
            self, batch, *reference_cross_entropy_gradient(self.params, batch.features, pseudo))


class ReferenceRejectionEntropy(RejectionEntropyAdapter):
    def _adapt(self, batch: Batch) -> AdaptOutcome:
        _, logp = reference_log_probabilities(self.params, batch.features)
        admitted = -(np.exp(logp) * logp).sum(axis=1) <= self.entropy_threshold
        if not admitted.any():
            theta = self.params.copy()
            y_hat = reference_predict(theta, batch.features)
            cost = sample_latency(self.latency_reject, batch.size, self._latency_rng)
            return AdaptOutcome(batch.features, theta, y_hat, cost=cost,
                                note="all samples rejected: no update")
        return _reference_descend(
            self, batch, *reference_entropy_gradient(self.params, batch.features, admitted))


REFERENCE_ADAPTERS = {
    cls.name: cls for cls in (ReferenceEntropyMin, ReferencePseudoLabel, ReferenceRejectionEntropy)
}
