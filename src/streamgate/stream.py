"""Synthetic source data, corruption transforms, and batch stream composition.

The source task is a Gaussian-mixture classification problem small enough to
run full benchmarks in seconds.  Domains are parameterized corruptions of the
source distribution at integer severities 1..5, composed into episodic
(one domain per stream, reset between) or continual (one concatenated stream)
scenarios.  Every generator is a pure function of its spec and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .model import VAR_FLOOR, ModelParams

EPISODIC = "episodic"
CONTINUAL = "continual"

GAUSSIAN_NOISE = "gaussian_noise"
MEAN_SHIFT = "mean_shift"
FEATURE_SCALE = "feature_scale"
ROTATION = "rotation"
FEATURE_MASK = "feature_mask"

CORRUPTION_KINDS = (GAUSSIAN_NOISE, MEAN_SHIFT, FEATURE_SCALE, ROTATION, FEATURE_MASK)

# Per-unit-severity base strengths.  Chosen so severity 5 degrades the default
# source model substantially while staying above chance.  mean_shift's default
# corresponds to half the default class separation per severity unit.
BASE_STRENGTH = {
    GAUSSIAN_NOISE: 0.4,   # added noise std per severity
    MEAN_SHIFT: 1.5,       # shift vector norm per severity
    FEATURE_SCALE: 1.3,    # multiplicative factor, raised to the severity
    ROTATION: 0.2,         # interpolation fraction toward the full rotation
    FEATURE_MASK: 0.06,    # fraction of features zeroed per severity
}

DEFAULT_BATCH_SIZE = 64
DEFAULT_SAMPLES_PER_DOMAIN = 5000


@dataclass(frozen=True)
class SourceSpec:
    """Generator spec for the source training distribution."""

    num_classes: int = 10
    dim: int = 32
    class_separation: float = 3.0  # expected norm of a class-mean vector
    samples_per_class: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be positive")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption transform at an integer severity."""

    kind: str
    severity: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if self.severity not in (1, 2, 3, 4, 5):
            raise ValueError(f"severity must be in 1..5, got {self.severity}")


@dataclass(frozen=True)
class Batch:
    """One stream revelation: features, labels, the domain id, and the tick."""

    features: np.ndarray  # (B, d)
    labels: np.ndarray    # (B,) int class indices
    domain_id: int
    t: int

    def __post_init__(self) -> None:
        if len(self.features) != len(self.labels) or len(self.labels) < 1:
            raise ValueError("features and labels must be non-empty and aligned")
        if self.t < 0:
            raise ValueError("t must be non-negative")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ScenarioSpec:
    """Domain schedule: episodic (reset per domain) or continual (no resets)."""

    mode: str
    domain_order: tuple[CorruptionSpec, ...]
    batch_size: int = DEFAULT_BATCH_SIZE
    append_clean: bool = False  # continual only: end with an uncorrupted segment

    def __post_init__(self) -> None:
        if self.mode not in (EPISODIC, CONTINUAL):
            raise ValueError(f"mode must be {EPISODIC!r} or {CONTINUAL!r}")
        if not self.domain_order:
            raise ValueError("domain_order must be non-empty")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.append_clean and self.mode != CONTINUAL:
            raise ValueError("append_clean is only valid in continual mode")


@dataclass
class StreamSegment:
    """A run of batches preceded (or not) by an adapter reset marker."""

    reset: bool
    batches: list[Batch] = field(default_factory=list)


@dataclass(frozen=True)
class TrainSpec:
    """Hyperparameters for fitting the source classifier."""

    learning_rate: float = 0.5
    iterations: int = 300

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")


class TrainingError(RuntimeError):
    """Source-model training diverged."""


def class_means(spec: SourceSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Class-mean matrix (K, d), deterministic under the spec seed.

    Means are isotropic Gaussian with per-coordinate std separation/sqrt(d),
    i.e. the expected squared norm of a mean vector is separation**2.  This
    keeps the difficulty of the task independent of the dimension.  They are
    the first draws of ``rng``, by default a fresh generator on the spec seed.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    std = spec.class_separation / np.sqrt(spec.dim)
    return rng.normal(0.0, std, size=(spec.num_classes, spec.dim))


def make_source_dataset(spec: SourceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Labeled source sample set: unit-variance clusters around class means."""
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec, rng)
    n = spec.num_classes * spec.samples_per_class
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    features = means[labels] + rng.standard_normal((n, spec.dim))
    return features, labels


def pretrain_source_model(
    features: np.ndarray, labels: np.ndarray, hyper: TrainSpec = TrainSpec()
) -> ModelParams:
    """Fit the source classifier by full-batch gradient descent.

    The normalizer takes the source feature statistics; the linear head is
    trained on normalized features under multinomial logistic loss from a zero
    init, so the whole procedure is deterministic.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if len(features) == 0:
        raise ValueError("dataset is empty")
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


def _rotation_generator(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Skew-symmetric generator scaled so the full rotation is a quarter turn."""
    g = rng.standard_normal((dim, dim))
    a = (g - g.T) / 2.0
    norm = np.linalg.norm(a, 2)
    if norm > 0:
        a *= (np.pi / 2.0) / norm
    return a


def apply_corruption(features: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Apply one corruption transform; label-preserving and seed-deterministic."""
    features = np.asarray(features, dtype=np.float64)
    dim = features.shape[1]
    rng = np.random.default_rng([spec.seed, CORRUPTION_KINDS.index(spec.kind), spec.severity])
    s = BASE_STRENGTH[spec.kind]
    if spec.kind == GAUSSIAN_NOISE:
        return features + rng.normal(0.0, s * spec.severity, size=features.shape)
    if spec.kind == MEAN_SHIFT:
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        return features + direction * (s * spec.severity)
    if spec.kind == FEATURE_SCALE:
        return features * (s ** spec.severity)
    if spec.kind == ROTATION:
        rot = expm((s * spec.severity) * _rotation_generator(dim, rng))
        return features @ rot.T
    if spec.kind == FEATURE_MASK:
        n_mask = int(round(s * spec.severity * dim))
        masked = features.copy()
        if n_mask > 0:
            idx = rng.choice(dim, size=min(n_mask, dim), replace=False)
            masked[:, idx] = 0.0
        return masked
    raise ValueError(f"unknown corruption kind {spec.kind!r}")


def _domain_key(corruption: CorruptionSpec | None) -> list[int]:
    if corruption is None:  # clean segment
        return [len(CORRUPTION_KINDS), 0, 0]
    return [CORRUPTION_KINDS.index(corruption.kind), corruption.severity, corruption.seed]


def sample_domain(
    source: SourceSpec,
    corruption: CorruptionSpec | None,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n fresh labeled samples from one (possibly corrupted) domain.

    The draw is keyed by the corruption identity rather than its position in a
    scenario, so reordering domains permutes batches without changing them.
    """
    rng = np.random.default_rng([seed, *_domain_key(corruption)])
    means = class_means(source)
    labels = rng.integers(0, source.num_classes, size=n)
    features = means[labels] + rng.standard_normal((n, source.dim))
    if corruption is not None:
        features = apply_corruption(features, corruption)
    return features, labels


def compose_stream(
    scenario: ScenarioSpec,
    source: SourceSpec,
    samples_per_domain: int = DEFAULT_SAMPLES_PER_DOMAIN,
    seed: int = 0,
) -> list[StreamSegment]:
    """Build the scenario's batch streams.

    Episodic mode yields one segment per domain, each starting at t=0 behind a
    reset marker.  Continual mode yields a single segment with t strictly
    increasing across domain boundaries and a single initial reset.  A final
    partial batch is dropped so every batch has exactly ``batch_size`` rows.
    """
    if samples_per_domain < scenario.batch_size:
        raise ValueError("samples_per_domain must cover at least one batch")
    domains: list[CorruptionSpec | None] = list(scenario.domain_order)
    if scenario.append_clean:
        domains.append(None)

    segments: list[StreamSegment] = []
    t = 0
    for domain_id, corruption in enumerate(domains):
        features, labels = sample_domain(source, corruption, samples_per_domain, seed)
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


# Shift directions for the default suite.  Directions vary wildly in how hard
# they hit the source model; these keep every shift domain in the band where
# the model stays majority-correct at severity 5, so descent-style adaptation
# has headroom instead of collapsing onto its own wrong predictions.
_DEFAULT_SHIFT_SEEDS = (0, 6, 9, 10, 19)


def default_corruption_suite(severity: int = 5) -> tuple[CorruptionSpec, ...]:
    """The 15-domain benchmark suite.

    Kind families have unequal sizes, mirroring how natural corruption
    benchmarks group several variants of the same mechanism: five seeded shift
    directions, three noise draws, three rotations, two masks, two scalings.
    """
    suite = [
        CorruptionSpec(kind=MEAN_SHIFT, severity=severity, seed=s)
        for s in _DEFAULT_SHIFT_SEEDS
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


def default_scenario(
    mode: str = EPISODIC,
    severity: int = 5,
    batch_size: int = DEFAULT_BATCH_SIZE,
    append_clean: bool = False,
) -> ScenarioSpec:
    return ScenarioSpec(
        mode=mode,
        domain_order=default_corruption_suite(severity),
        batch_size=batch_size,
        append_clean=append_clean,
    )
