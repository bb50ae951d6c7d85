"""Adaptation methods and their latency models.

Each adapter mirrors the mechanism of a family of test-time adaptation
approaches at desk scale: statistics replacement, entropy-descent on the
normalizer's affine pair, self-training on own pseudo-labels, entropy-gated
sample rejection, and input moment-matching.  Every adapter carries a latency
model so a stream scheduler can charge it a deterministic per-batch cost.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .model import (
    VAR_FLOOR,
    ModelParams,
    _log_softmax,
    log_probabilities,
    normalized_features,
    predict,
)
from .stream import Batch

SIMULATED = "simulated"
MEASURED = "measured"

_COST_FLOOR = 1e-9


# --------------------------------------------------------------------------
# Latency models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    seconds: float


@dataclass(frozen=True)
class PerSample:
    per_sample: float
    base: float = 0.0


@dataclass(frozen=True)
class Stochastic:
    mean: float
    jitter: float
    seed: int = 0


LatencyModel = Constant | PerSample | Stochastic


def sample_latency(
    model: LatencyModel, batch_size: int, rng: np.random.Generator | None = None
) -> float:
    """One elapsed-time draw; stochastic draws come from the supplied rng."""
    if isinstance(model, Constant):
        value = model.seconds
    elif isinstance(model, PerSample):
        value = model.per_sample * batch_size + model.base
    elif isinstance(model, Stochastic):
        if rng is None:
            rng = np.random.default_rng(model.seed)
        # Uniform jitter; clamped so a cost is always strictly positive.
        value = max(model.mean + model.jitter * rng.uniform(-1.0, 1.0), _COST_FLOOR)
    else:
        raise TypeError(f"unknown latency model {model!r}")
    if value <= 0.0:
        raise ValueError(f"latency model produced non-positive cost {value}")
    return float(value)


# --------------------------------------------------------------------------
# Shared losses and gradients on the affine normalizer pair
# --------------------------------------------------------------------------

def per_sample_entropy(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Prediction entropy H(p_i) per row, in nats."""
    logp = log_probabilities(params, features)
    return -(np.exp(logp) * logp).sum(axis=1)


def mean_prediction_entropy(
    params: ModelParams, features: np.ndarray, mask: np.ndarray | None = None
) -> float:
    """Mean prediction entropy over all rows, or over the masked subset."""
    h = per_sample_entropy(params, features)
    if mask is not None:
        h = h[mask]
    return float(h.mean())


def entropy_gradient(
    params: ModelParams, features: np.ndarray, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of mean prediction entropy w.r.t. (gamma, beta).

    With p = softmax(W z + b) and z = gamma * u + beta the per-logit gradient
    of one row's entropy is -p_k (log p_k + H); chaining through W and the
    affine map gives the two returned vectors.  ``mask`` restricts the mean to
    a row subset.
    """
    u = normalized_features(params, features)
    logp = _log_softmax(params, u)
    p = np.exp(logp)
    h = -(p * logp).sum(axis=1)
    g_logits = -p * (logp + h[:, None])
    if mask is not None:
        g_logits = g_logits[mask]
        u = u[mask]
    return _affine_gradient(g_logits, u, params.W)


def pseudo_label_cross_entropy(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> float:
    """Mean cross-entropy against fixed (pseudo-)labels."""
    logp = log_probabilities(params, features)
    return float(-logp[np.arange(len(labels)), labels].mean())


def cross_entropy_gradient(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of mean cross-entropy to fixed labels w.r.t. (gamma, beta)."""
    u = normalized_features(params, features)
    logp = _log_softmax(params, u)
    p = np.exp(logp)
    p[np.arange(len(labels)), labels] -= 1.0
    return _affine_gradient(p, u, params.W)


def _affine_gradient(
    g_logits: np.ndarray, u: np.ndarray, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean per-logit gradients chained through W and z = gamma * u + beta."""
    gz = g_logits @ W / len(g_logits)
    return (gz * u).sum(axis=0), gz.sum(axis=0)


# --------------------------------------------------------------------------
# Adapter contract
# --------------------------------------------------------------------------

@dataclass
class AdaptOutcome:
    """Result of one adaptation step.

    ``y_hat`` is always the prediction of ``theta_hat`` on ``x_hat``.  ``cost``
    is the elapsed seconds for the step; adapters whose cost does not depend
    on what happened leave it None and the base class samples their latency
    model, so a finished outcome always carries a positive cost.
    """

    x_hat: np.ndarray
    theta_hat: ModelParams
    y_hat: np.ndarray
    cost: float | None
    note: str | None = None


class Adapter:
    """Base adapter: owns working parameters, a pretrained snapshot, a latency model.

    Subclasses rebind ``params`` and any auxiliary state to new objects and
    never write into the existing ones; ``clone_adapter`` relies on this.
    Assigning a ``ModelParams`` field writes into that parameter set, so a
    step assigns fields only on ``self.params.copy()``, never on ``self.params``.
    """

    name = "base"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel):
        self._pretrained = pretrained.copy()
        self.params = pretrained.copy()
        self.latency = latency
        self._latency_rng = self._fresh_latency_rng()

    def _fresh_latency_rng(self) -> np.random.Generator | None:
        if isinstance(self.latency, Stochastic):
            return np.random.default_rng(self.latency.seed)
        return None

    @property
    def pretrained(self) -> ModelParams:
        return self._pretrained

    def sample_cost(self, batch_size: int) -> float:
        return sample_latency(self.latency, batch_size, self._latency_rng)

    def reset(self) -> None:
        """Restore the exact pretrained state and clear auxiliary state."""
        self.params = self._pretrained.copy()
        self._latency_rng = self._fresh_latency_rng()
        self._reset_state()

    def _reset_state(self) -> None:
        pass

    def adapt(self, batch: Batch) -> AdaptOutcome:
        """One adaptation step; commits the adapted parameters as the new state."""
        outcome = self._adapt(batch)
        if outcome.cost is None:
            outcome.cost = self.sample_cost(batch.size)
        if outcome.cost <= 0.0:
            raise ValueError("adaptation cost must be positive")
        self.params = outcome.theta_hat
        return outcome

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        raise NotImplementedError


class SourceAdapter(Adapter):
    """No adaptation: the frozen source model predicts every batch."""

    name = "source"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel = Constant(1.0)):
        super().__init__(pretrained, latency)

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        theta = self.params.copy()
        y_hat, _ = predict(theta, batch.features)
        return AdaptOutcome(x_hat=batch.features, theta_hat=theta, y_hat=y_hat, cost=None)


class NormStatAdapter(Adapter):
    """Replace or re-mix the normalizer statistics from the current batch.

    ``prior_weight`` 0 swaps in pure batch statistics; values in (0, 1] mix the
    source statistics back in as a prior.  Single-sample batches fall back to
    the source statistics outright since a batch variance is undefined.
    """

    name = "norm_stat"

    def __init__(
        self,
        pretrained: ModelParams,
        latency: LatencyModel = Constant(1.0),
        prior_weight: float = 0.0,
    ):
        if not 0.0 <= prior_weight <= 1.0:
            raise ValueError("prior_weight must be in [0, 1]")
        super().__init__(pretrained, latency)
        self.prior_weight = prior_weight

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        theta = self.params.copy()
        note = None
        w = self.prior_weight
        if batch.size < 2:
            w, note = 1.0, "single-sample batch: using source statistics"
        batch_mu = batch.features.mean(axis=0)
        batch_var = batch.features.var(axis=0)
        theta.mu = w * self._pretrained.mu + (1.0 - w) * batch_mu
        theta.var = np.maximum(w * self._pretrained.var + (1.0 - w) * batch_var, VAR_FLOOR)
        y_hat, _ = predict(theta, batch.features)
        return AdaptOutcome(batch.features, theta, y_hat, cost=None, note=note)


class _DescentAdapter(Adapter):
    """One gradient-descent step on the normalizer's affine pair (gamma, beta)."""

    def __init__(
        self,
        pretrained: ModelParams,
        latency: LatencyModel = Constant(3.0),
        learning_rate: float = 0.1,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        super().__init__(pretrained, latency)
        self.learning_rate = learning_rate

    def _descend(self, batch: Batch, g_gamma: np.ndarray, g_beta: np.ndarray) -> AdaptOutcome:
        """Step a copy of the parameters down the gradient and predict with it."""
        if not (np.isfinite(g_gamma).all() and np.isfinite(g_beta).all()):
            raise FloatingPointError(f"non-finite gradient in {self.name}")
        theta = self.params.copy()
        theta.gamma = theta.gamma - self.learning_rate * g_gamma
        theta.beta = theta.beta - self.learning_rate * g_beta
        y_hat, _ = predict(theta, batch.features)
        return AdaptOutcome(batch.features, theta, y_hat, cost=None)


class EntropyMinAdapter(_DescentAdapter):
    """One descent step on (gamma, beta) against mean prediction entropy."""

    name = "entropy_min"

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        return self._descend(batch, *entropy_gradient(self.params, batch.features))


class PseudoLabelAdapter(_DescentAdapter):
    """Self-training: one (gamma, beta) step on cross-entropy to own argmax labels."""

    name = "pseudo_label"
    last_pseudo_labels: np.ndarray | None = None

    def _reset_state(self) -> None:
        self.last_pseudo_labels = None

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        pseudo, _ = predict(self.params, batch.features)
        self.last_pseudo_labels = pseudo
        return self._descend(
            batch, *cross_entropy_gradient(self.params, batch.features, pseudo))


class RejectionEntropyAdapter(_DescentAdapter):
    """Entropy descent restricted to confidently-predicted samples.

    Samples with forward-pass entropy above the threshold are excluded from
    the gradient.  A batch that rejects everything performs no update, and its
    cost is the cheaper forward-pass latency: the step's cost depends on
    whether an update actually happened.
    """

    name = "rejection_entropy"

    def __init__(
        self,
        pretrained: ModelParams,
        latency: LatencyModel = Constant(3.0),
        latency_reject: LatencyModel = Constant(1.0),
        learning_rate: float = 0.1,
        entropy_threshold: float | None = None,
    ):
        super().__init__(pretrained, latency, learning_rate)
        self.latency_reject = latency_reject
        if entropy_threshold is None:
            entropy_threshold = 0.4 * np.log(pretrained.num_classes)
        if entropy_threshold <= 0:
            raise ValueError("entropy_threshold must be positive")
        self.entropy_threshold = float(entropy_threshold)
        self.last_admitted: np.ndarray | None = None

    def _reset_state(self) -> None:
        self.last_admitted = None

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        admitted = per_sample_entropy(self.params, batch.features) <= self.entropy_threshold
        self.last_admitted = admitted
        if not admitted.any():
            theta = self.params.copy()
            y_hat, _ = predict(theta, batch.features)
            cost = sample_latency(self.latency_reject, batch.size, self._latency_rng)
            return AdaptOutcome(batch.features, theta, y_hat, cost=cost,
                                note="all samples rejected: no update")
        return self._descend(
            batch, *entropy_gradient(self.params, batch.features, mask=admitted))


class InputRestoreAdapter(Adapter):
    """Match the batch's feature moments back to the source statistics.

    The model parameters are never touched; only the inputs move.  The default
    latency makes this by far the slowest method, so online schedules skip
    nearly the whole stream.
    """

    name = "input_restore"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel = Constant(810.0)):
        super().__init__(pretrained, latency)

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        src_mu = self.params.mu
        src_std = np.sqrt(self.params.var)
        batch_mu = batch.features.mean(axis=0)
        if batch.size < 2:
            batch_std = src_std
        else:
            # Constant features (e.g. masked to zero) get the floor, not a 0-divide.
            batch_std = np.maximum(batch.features.std(axis=0), np.sqrt(VAR_FLOOR))
        x_hat = (batch.features - batch_mu) / batch_std * src_std + src_mu
        theta = self.params.copy()
        y_hat, _ = predict(theta, x_hat)
        return AdaptOutcome(x_hat, theta, y_hat, cost=None)


# --------------------------------------------------------------------------
# Registry and throwaway copies
# --------------------------------------------------------------------------

ADAPTERS: dict[str, type[Adapter]] = {
    cls.name: cls
    for cls in (
        SourceAdapter,
        NormStatAdapter,
        EntropyMinAdapter,
        PseudoLabelAdapter,
        RejectionEntropyAdapter,
        InputRestoreAdapter,
    )
}


def make_adapter(name: str, pretrained: ModelParams, **kwargs) -> Adapter:
    """Construct a registered adapter by name."""
    if name not in ADAPTERS:
        known = ", ".join(sorted(ADAPTERS))
        raise ValueError(f"unknown adapter {name!r} (known: {known})")
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    return ADAPTERS[name](pretrained, **kwargs)


def clone_adapter(adapter: Adapter) -> Adapter:
    """Throwaway copy for counterfactual what-if steps; the original is untouched.

    The copy is shallow except for the latency rng, whose draws advance it in
    place.  Sharing everything else is safe because adapters rebind, never
    mutate in place, their parameters and auxiliary state: ``adapt`` on the
    copy replaces the copy's attributes and leaves the original's objects as
    they were.
    """
    ghost = copy.copy(adapter)
    ghost._latency_rng = copy.deepcopy(adapter._latency_rng)
    return ghost
