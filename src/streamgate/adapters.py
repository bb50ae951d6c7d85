"""Adaptation methods and their latency models.

Each adapter mirrors the mechanism of a family of test-time adaptation
approaches at desk scale: statistics replacement, entropy-descent on the
normalizer's affine pair, self-training on own pseudo-labels, entropy-gated
sample rejection, and input moment-matching.  Every adapter carries a latency
model so a stream scheduler can charge it a deterministic per-batch cost.

A step runs one forward pass per parameter set and batch.  The source and
descent adapters compute the pre-step pass once and read from it their
prediction, pseudo-labels, entropy gate and gradient; the post-step
prediction reuses its normalized features, since a descent step moves only
gamma and beta.  The pass is kept on the step's outcome only, so it goes
with the step.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .model import VAR_FLOOR, Forward, ModelParams, forward
from .stream import Batch, check_integer, check_real

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

    def __post_init__(self) -> None:
        # Adapter.cost_range bounds every draw by mean +- jitter.
        check_real(self.mean, "mean")
        check_real(self.jitter, "jitter")
        if not 0.0 < self.mean < float("inf"):
            raise ValueError(f"mean must be positive and finite, got {self.mean!r}")
        if not 0.0 <= self.jitter < float("inf"):
            raise ValueError(f"jitter must be non-negative and finite, got {self.jitter!r}")
        check_integer(self.seed, "seed")


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
    if not value > 0.0:  # NaN fails too
        raise ValueError(f"latency model cost must be positive, got {value}")
    return float(value)


# --------------------------------------------------------------------------
# Shared losses and gradients on the affine normalizer pair
# --------------------------------------------------------------------------

def _entropy(result: Forward) -> np.ndarray:
    """Prediction entropy H(p_i) per row, in nats."""
    return -(result.p * result.logp).sum(axis=-1)


def mean_prediction_entropy(params: ModelParams, features: np.ndarray) -> float:
    """Mean prediction entropy over the rows."""
    return float(_entropy(forward(params, features)).mean())


def entropy_gradient(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of mean prediction entropy w.r.t. (gamma, beta).

    With p = softmax(W z + b) and z = gamma * u + beta the per-logit gradient
    of one row's entropy is -p_k (log p_k + H); chaining through W and the
    affine map gives the two returned vectors.
    """
    return _entropy_gradient(forward(params, features))


def _entropy_gradient(
    result: Forward, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``entropy_gradient`` from the forward pass it starts with; ``mask``
    restricts the mean to a row subset."""
    u, logp, p = result.u, result.logp, result.p
    g_logits = -p * (logp + _entropy(result)[..., None])
    if mask is not None:
        g_logits = g_logits[mask]
        u = u[mask]
    return _affine_gradient(g_logits, u, result.params.W)


def pseudo_label_cross_entropy(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> float:
    """Mean cross-entropy against fixed (pseudo-)labels."""
    logp = forward(params, features).logp
    return float(-logp[np.arange(len(labels)), labels].mean())


def cross_entropy_gradient(
    params: ModelParams, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of mean cross-entropy to fixed labels w.r.t. (gamma, beta)."""
    return _cross_entropy_gradient(forward(params, features), labels)


def _cross_entropy_gradient(
    result: Forward, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``cross_entropy_gradient`` from the forward pass it starts with."""
    g_logits, labels = result.p.copy(), np.asarray(labels)
    g_logits.reshape(-1, g_logits.shape[-1])[np.arange(labels.size), labels.ravel()] -= 1.0
    return _affine_gradient(g_logits, result.u, result.params.W)


def _affine_gradient(
    g_logits: np.ndarray, u: np.ndarray, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean per-logit gradients chained through W and z = gamma * u + beta."""
    gz = g_logits @ W / g_logits.shape[-2]
    return (gz * u).sum(axis=-2), gz.sum(axis=-2)


# --------------------------------------------------------------------------
# Adapter contract
# --------------------------------------------------------------------------

@dataclass
class AdaptOutcome:
    """Result of one adaptation step.

    ``y_hat`` is always the prediction of ``theta_hat`` on ``x_hat``.  ``cost``
    is the elapsed seconds for the step; adapters whose cost does not depend
    on what happened leave it None and the base class samples their latency
    model, so a finished outcome always carries a positive cost.  ``forward``
    is the step's forward pass of its pre-step parameters on the batch, when
    the step ran one.
    """

    x_hat: np.ndarray
    theta_hat: ModelParams
    y_hat: np.ndarray
    cost: float | None
    note: str | None = None
    forward: Forward | None = None


class Adapter:
    """Base adapter: owns working parameters, a pretrained snapshot, a latency model.

    An adapter's state is its parameters and one latency rng.  Subclasses rebind
    ``params`` to a new object and never write into the existing one;
    ``clone_adapter`` relies on this.
    Assigning a ``ModelParams`` field writes into that parameter set, so a
    step assigns fields only on ``self.params.copy()``, never on ``self.params``.
    """

    name = "base"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel):
        self._pretrained = pretrained.copy()
        self.params = pretrained.copy()
        self.latency = latency
        self._latency_rng = self._fresh_latency_rng()

    def _latency_models(self) -> tuple[LatencyModel, ...]:
        """Every latency model a step may be charged, first to last."""
        return (self.latency,)

    def _fresh_latency_rng(self) -> np.random.Generator | None:
        """One generator serves every stochastic model, seeded by the first."""
        for model in self._latency_models():
            if isinstance(model, Stochastic):
                return np.random.default_rng(model.seed)
        return None

    @property
    def pretrained(self) -> ModelParams:
        return self._pretrained

    def cost_range(self, batch_size: int) -> tuple[float, float]:
        """The least and greatest cost a step on a batch of ``batch_size``
        samples can draw, under any of the adapter's latency models.  Only a
        stochastic draw varies, within mean +- jitter and clamped as
        ``sample_latency`` clamps it; any other model costs its one draw."""
        lows, highs = [], []
        for model in self._latency_models():
            if isinstance(model, Stochastic):
                lows.append(max(model.mean - model.jitter, _COST_FLOOR))
                highs.append(model.mean + model.jitter)
            else:
                cost = sample_latency(model, batch_size)
                lows.append(cost)
                highs.append(cost)
        return min(lows), max(highs)

    def reset(self) -> None:
        """Restore the exact pretrained parameters and a fresh latency rng.  A
        subclass with state of its own overrides this to restore it too."""
        self.params = self._pretrained.copy()
        self._latency_rng = self._fresh_latency_rng()

    def adapt(self, batch: Batch) -> AdaptOutcome:
        """One adaptation step; commits the adapted parameters as the new state.

        A step runs at most one forward pass of its pre-step parameters on the
        batch and carries it out as ``outcome.forward``, where a traced run reads
        the fallback prediction whenever the fallback is those very parameters.
        """
        outcome = self._adapt(batch)
        if outcome.cost is None:
            outcome.cost = sample_latency(self.latency, batch.size, self._latency_rng)
        if not outcome.cost > 0.0:  # NaN fails too; an infinite cost fails at the clock
            raise ValueError(f"adaptation cost must be positive, got {outcome.cost}")
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
        result = forward(self.params, batch.features)
        return AdaptOutcome(x_hat=batch.features, theta_hat=self.params.copy(),
                            y_hat=result.labels, cost=None, forward=result)


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
        check_real(prior_weight, "prior_weight")
        if not 0.0 <= prior_weight <= 1.0:
            raise ValueError("prior_weight must be in [0, 1]")
        super().__init__(pretrained, latency)
        self.prior_weight = prior_weight

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        theta, w, note = self.params.copy(), self.prior_weight, None
        if batch.size < 2:
            w, note = 1.0, "single-sample batch: using source statistics"
        batch_mu = batch.features.mean(axis=-2)
        batch_var = batch.features.var(axis=-2)
        theta.mu = w * self._pretrained.mu + (1.0 - w) * batch_mu
        theta.var = np.maximum(w * self._pretrained.var + (1.0 - w) * batch_var, VAR_FLOOR)
        y_hat = forward(theta, batch.features).labels
        return AdaptOutcome(batch.features, theta, y_hat, cost=None, note=note)


class _DescentAdapter(Adapter):
    """One gradient-descent step on the normalizer's affine pair (gamma, beta)."""

    def __init__(
        self,
        pretrained: ModelParams,
        latency: LatencyModel = Constant(3.0),
        learning_rate: float = 0.1,
    ):
        check_real(learning_rate, "learning_rate")
        if not 0 < learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be positive and finite, got {learning_rate!r}")
        super().__init__(pretrained, latency)
        self.learning_rate = learning_rate

    def _descend(
        self, batch: Batch, result: Forward, g_gamma: np.ndarray, g_beta: np.ndarray
    ) -> AdaptOutcome:
        """Step a copy of the parameters down the gradient and predict with it.
        ``result`` is the pre-step forward pass; the step keeps mu and var, so
        the prediction reuses its normalized features."""
        if not (np.isfinite(g_gamma).all() and np.isfinite(g_beta).all()):
            raise FloatingPointError(f"non-finite gradient in {self.name}")
        theta = self.params.copy()
        theta.gamma = theta.gamma - self.learning_rate * g_gamma
        theta.beta = theta.beta - self.learning_rate * g_beta
        y_hat = forward(theta, batch.features, result.u).labels
        return AdaptOutcome(batch.features, theta, y_hat, cost=None, forward=result)


class EntropyMinAdapter(_DescentAdapter):
    """One descent step on (gamma, beta) against mean prediction entropy."""

    name = "entropy_min"

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        result = forward(self.params, batch.features)
        return self._descend(batch, result, *_entropy_gradient(result))


class PseudoLabelAdapter(_DescentAdapter):
    """Self-training: one (gamma, beta) step on cross-entropy to own argmax labels."""

    name = "pseudo_label"

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        result = forward(self.params, batch.features)
        return self._descend(batch, result, *_cross_entropy_gradient(result, result.labels))


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
        # Set before the base class seeds the latency rng from both models.
        self.latency_reject = latency_reject
        super().__init__(pretrained, latency, learning_rate)
        if entropy_threshold is None:
            entropy_threshold = 0.4 * np.log(pretrained.num_classes)
        check_real(entropy_threshold, "entropy_threshold")
        if not entropy_threshold > 0:
            raise ValueError(f"entropy_threshold must be positive, got {entropy_threshold!r}")
        self.entropy_threshold = float(entropy_threshold)

    def _latency_models(self) -> tuple[LatencyModel, ...]:
        """A step pays the update's cost or the rejection's."""
        return self.latency, self.latency_reject

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        result = forward(self.params, batch.features)
        admitted = _entropy(result) <= self.entropy_threshold
        if not admitted.any():
            cost = sample_latency(self.latency_reject, batch.size, self._latency_rng)
            return AdaptOutcome(batch.features, self.params.copy(), result.labels, cost=cost,
                                note="all samples rejected: no update", forward=result)
        return self._descend(batch, result, *_entropy_gradient(result, admitted))


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
        batch_mu = batch.features.mean(axis=-2)
        if batch.size < 2:
            batch_std = src_std
        else:
            # Constant features (e.g. masked to zero) get the floor, not a 0-divide.
            batch_std = np.maximum(batch.features.std(axis=-2), np.sqrt(VAR_FLOOR))
        x_hat = ((batch.features - batch_mu[..., None, :]) / batch_std[..., None, :]
                 * src_std[..., None, :] + src_mu[..., None, :])
        theta = self.params.copy()
        return AdaptOutcome(x_hat, theta, forward(theta, x_hat).labels, cost=None)


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
    place.  Sharing the parameters is safe because adapters rebind, never
    mutate in place, them: ``adapt`` on the copy replaces the copy's
    ``params`` and leaves the original's object as it was.
    """
    ghost = copy.copy(adapter)
    ghost._latency_rng = copy.deepcopy(adapter._latency_rng)
    return ghost
