"""Synthetic source data, corruption transforms, and batch stream composition.

The source task is a Gaussian-mixture classification problem small enough to
run full benchmarks in seconds.  Domains are parameterized corruptions of the
source distribution at integer severities 1..5, composed into episodic
(one domain per stream, reset between) or continual (one concatenated stream)
scenarios.  Every generator is a pure function of its spec and seed, computed with
numpy alone: the rotation's matrix exponential comes from numpy's Hermitian
eigendecomposition, on the same LAPACK as every other product here.  The one thread
besides the caller's is ``compose_stream``'s helper, which only fills buffers with
standard normals, each from the one generator that owns them, so it cannot move a bit.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_integer, check_real
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
        check_integer(self.num_classes, "num_classes", 2)
        check_integer(self.dim, "dim", 1)
        object.__setattr__(self, "class_separation", check_real(
            self.class_separation, "class_separation", "positive and finite"))
        check_integer(self.samples_per_class, "samples_per_class", 1)
        check_integer(self.seed, "seed")


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
        check_integer(self.severity, "severity", 1)  # True and 5.0 are in 1..5
        check_integer(self.seed, "seed")


@dataclass(frozen=True)
class Batch:
    """One stream revelation: features, labels, the domain id, and the tick."""

    features: np.ndarray  # (B, d), or (S, B, d) for the protocol's S lockstep lanes
    labels: np.ndarray    # (B,) int class indices, or (S, B)
    domain_id: int
    t: int

    def __post_init__(self) -> None:
        features, labels = np.shape(self.features), np.shape(self.labels)
        if len(features) < 2 or features[:-1] != labels or labels[-1] < 1:
            raise ValueError("features and labels must be non-empty and aligned, shaped "
                             f"(..., B, d) and (..., B), got {features} and {labels}")
        check_integer(self.domain_id, "domain_id", -math.inf)
        check_integer(self.t, "t")

    @property
    def size(self) -> int:
        return self.labels.shape[-1]


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
        check_integer(self.batch_size, "batch_size", 1)
        if type(self.append_clean) is not bool:
            raise ValueError(f"append_clean must be a bool, got {self.append_clean!r}")
        if self.append_clean and self.mode != CONTINUAL:
            raise ValueError("append_clean is only valid in continual mode")


@dataclass
class StreamSegment:
    """A run of batches preceded (or not) by an adapter reset marker."""

    reset: bool
    batches: list[Batch] = field(default_factory=list)

    def __post_init__(self) -> None:
        if type(self.reset) is not bool:
            raise ValueError(f"reset must be a bool, got {self.reset!r}")


@dataclass(frozen=True)
class TrainSpec:
    """Hyperparameters for fitting the source classifier."""

    learning_rate: float = 0.5
    iterations: int = 300

    def __post_init__(self) -> None:
        object.__setattr__(self, "learning_rate",
                           check_real(self.learning_rate, "learning_rate", "positive and finite"))
        check_integer(self.iterations, "iterations")


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
    init, so the whole procedure is deterministic.  Raises ``ValueError``
    naming ``features`` or ``labels`` for input it cannot train on, and
    ``TrainingError`` naming the iteration at which the loss stops being finite.

    Layout rule: the elementwise work between the two products is class-major, on
    contiguous ``(K, n)`` rows; both products keep their row-major ``(n, K)``
    operands (``z @ W.T`` into ``logits``, ``resid.T @ z``), as their bits depend on it.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (samples, dim), got shape {features.shape}")
    if len(features) == 0:
        raise ValueError("dataset is empty")
    if not np.isfinite(features).all():
        raise ValueError(f"features must be finite, got {(~np.isfinite(features)).sum()} "
                         "non-finite values")
    if labels.shape != (len(features),):
        raise ValueError(f"labels must have shape ({len(features)},) to match features, "
                         f"got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class indices, got dtype {labels.dtype}")
    if labels.min() < 0:  # a negative index would train as a class counted from the end
        raise ValueError(f"labels must be non-negative, got {labels.min()}")
    num_classes = int(labels.max()) + 1
    mu = features.mean(axis=0)
    var = np.maximum(features.var(axis=0), VAR_FLOOR)
    z = (features - mu) / np.sqrt(var)
    n, d = z.shape
    W = np.zeros((num_classes, d))
    b = np.zeros(num_classes)
    label_at = np.ravel_multi_index((labels, np.arange(n)), (num_classes, n))  # in by_class.ravel()
    logits, onehot = np.empty((n, num_classes)), np.eye(num_classes)[labels]
    by_class, e = np.empty((num_classes, n)), np.empty((num_classes, n))
    for i in range(hyper.iterations):
        np.matmul(z, W.T, out=logits)
        np.add(logits.T, b[:, None], out=by_class)
        # Max is exact, so the order of the classes can change only the sign
        # of a zero max, and exp maps either zero to 1.0.
        by_class -= by_class.max(axis=0)  # shifted
        by_class -= np.log(_class_sums(np.exp(by_class, out=e)))  # log-probabilities
        if not np.isfinite(by_class.ravel().take(label_at).mean()):
            raise TrainingError(f"non-finite loss at iteration {i}")
        resid = np.exp(by_class.T, out=logits)
        resid -= onehot
        # einsum sums each column in resid.mean's order (tests/test_stream.py checks it).
        b -= hyper.learning_rate * (np.einsum("ij->j", resid) / n)
        resid *= hyper.learning_rate
        W -= resid.T @ z / n
    return ModelParams(mu=mu, var=var, gamma=np.ones(d), beta=np.zeros(d), W=W, b=b)


def _class_sums(e: np.ndarray) -> np.ndarray:
    """Sum the rows of ``e`` into ``e[0]`` in numpy's pairwise order (8 accumulators,
    halves above 128 rows): ``_class_sums(x.T.copy())`` is ``x.sum(axis=-1)`` bit for bit."""
    k = len(e)
    if k > 128:
        half = k // 2 - k // 2 % 8
        _class_sums(e[:half])
        e[0] += _class_sums(e[half:])
        return e[0]
    if k >= 8:
        for i in range(8, k - k % 8, 8):
            e[:8] += e[i:i + 8]
        e[0:8:2] += e[1:8:2]  # ((e0 + e1) + (e2 + e3)) + ((e4 + e5) + (e6 + e7))
        e[0:8:4] += e[2:8:4]
        e[0] += e[4]
    for i in range(k - k % 8 if k >= 8 else 1, k):
        e[0] += e[i]
    return e[0]


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
        # A is real skew-symmetric, so iA = V diag(w) V^H is Hermitian: exp(A) = V diag(e^-iw) V^H.
        w, v = np.linalg.eigh(1j * ((s * spec.severity) * _rotation_generator(dim, rng)))
        return features @ ((v * np.exp(-1j * w)) @ v.conj().T).real.T
    # FEATURE_MASK: CORRUPTION_KINDS.index above has rejected any other kind.
    n_mask = int(round(s * spec.severity * dim))
    masked = features.copy()
    if n_mask > 0:
        idx = rng.choice(dim, size=min(n_mask, dim), replace=False)
        masked[:, idx] = 0.0
    return masked


def sample_domain(
    source: SourceSpec,
    corruption: CorruptionSpec | None,
    n: int,
    seed: int,
    helper: Executor,
) -> tuple[np.ndarray, Future]:
    """Start drawing n fresh labeled samples from one (possibly corrupted) domain.

    The draw is keyed by the corruption identity rather than its position in a
    scenario, so reordering domains permutes batches without changing them.  The
    labels are drawn here; ``helper`` then fills a new ``(n, dim)`` buffer with the
    same generator's standard normals, which the returned future holds.
    """
    key = ([len(CORRUPTION_KINDS), 0, 0] if corruption is None  # clean segment
           else [CORRUPTION_KINDS.index(corruption.kind), corruption.severity, corruption.seed])
    rng = np.random.default_rng([seed, *key])
    labels = rng.integers(0, source.num_classes, size=n)
    return labels, helper.submit(rng.standard_normal, out=np.empty((n, source.dim)))


def compose_stream(
    scenario: ScenarioSpec,
    source: SourceSpec,
    samples_per_domain: int = DEFAULT_SAMPLES_PER_DOMAIN,
    seed: int = 0,
) -> list[StreamSegment]:
    """Build the scenario's batch streams.

    Each segment starts behind a reset marker: episodic mode opens one per
    domain, continual mode one for all domains in order.  A batch's tick ``t``
    is its index in its segment.  A final partial batch is dropped so every
    batch has exactly ``batch_size`` rows, in read-only arrays.

    One helper thread, joined before this returns or raises, fills each domain's
    standard normals one domain ahead, and allocates and runs nothing else.  Every
    other draw, the class means, each corruption and each batch stay on this thread,
    in domain order.  Each domain's normals come from its own generator, after its
    labels, so the stream's bits do not depend on when the helper runs.
    """
    check_integer(samples_per_domain, "samples_per_domain", 1)
    check_integer(seed, "seed")
    if samples_per_domain < scenario.batch_size:
        raise ValueError("samples_per_domain must cover at least one batch")
    domains: list[CorruptionSpec | None] = list(scenario.domain_order)
    if scenario.append_clean:
        domains.append(None)
    bs = scenario.batch_size
    starts = range(0, samples_per_domain - bs + 1, bs)
    segments: list[StreamSegment] = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        drawn = sample_domain(source, domains[0], samples_per_domain, seed, helper)
        means = class_means(source)
        for domain_id, corruption in enumerate(domains):
            labels, normals = drawn  # drops the last domain's future and its raw buffer
            if domain_id + 1 < len(domains):
                drawn = sample_domain(source, domains[domain_id + 1], samples_per_domain,
                                      seed, helper)
            features = normals.result()
            features += means[labels]  # addition commutes: means[labels] + normals, bit for bit
            if corruption is not None:
                features = apply_corruption(features, corruption)
            features.flags.writeable = labels.flags.writeable = False
            if scenario.mode == EPISODIC or not segments:
                segments.append(StreamSegment(reset=True))
            batches = segments[-1].batches
            batches.extend(Batch(features[s:s + bs], labels[s:s + bs], domain_id, t)
                           for t, s in enumerate(starts, len(batches)))
    return segments


def default_corruption_suite(severity: int = 5) -> tuple[CorruptionSpec, ...]:
    """The 15-domain benchmark suite.

    Kind families have unequal sizes, mirroring how natural corruption
    benchmarks group several variants of the same mechanism: five seeded shift
    directions, three noise draws, three rotations, two masks, two scalings.
    """
    table = (
        # Shift directions vary wildly in how hard they hit the source model;
        # these keep every shift domain in the band where the model stays
        # majority-correct at severity 5, so descent-style adaptation has
        # headroom instead of collapsing onto its own wrong predictions.
        (MEAN_SHIFT, (0, 6, 9, 10, 19)),
        (GAUSSIAN_NOISE, (0, 1, 2)),
        (ROTATION, (0, 1, 2)),
        (FEATURE_MASK, (0, 1)),
        (FEATURE_SCALE, (0, 1)),
    )
    return tuple(CorruptionSpec(kind, severity, seed) for kind, seeds in table for seed in seeds)


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
