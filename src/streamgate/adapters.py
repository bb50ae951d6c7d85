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

from ._checks import check_integer, check_real
from .model import VAR_FLOOR, Forward, ModelParams, forward
from .stream import Batch


# --------------------------------------------------------------------------
# Latency models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    seconds: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "seconds",
                           check_real(self.seconds, "seconds", "positive and finite"))


@dataclass(frozen=True)
class PerSample:
    per_sample: float
    base: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_sample",
                           check_real(self.per_sample, "per_sample", "non-negative and finite"))
        object.__setattr__(self, "base", check_real(self.base, "base"))
        # per_sample >= 0 makes a one-sample batch, which costs per_sample + base, the cheapest.
        if not 0.0 < self.per_sample + self.base < np.inf:
            raise ValueError("per_sample + base must be positive and finite, "
                             f"got {self.per_sample!r} + {self.base!r}")


@dataclass(frozen=True)
class Stochastic:
    """Costs drawn uniformly within mean +- jitter: jitter < mean keeps every draw positive,
    and a finite mean + jitter, the largest draw, keeps every draw finite."""

    mean: float
    jitter: float
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", check_real(self.mean, "mean", "positive and finite"))
        object.__setattr__(self, "jitter",
                           check_real(self.jitter, "jitter", "non-negative and finite"))
        if not self.jitter < self.mean:
            raise ValueError(f"jitter must be below mean {self.mean!r}, got {self.jitter!r}")
        if not self.mean + self.jitter < np.inf:
            raise ValueError(f"mean + jitter must be finite, got {self.mean!r} + {self.jitter!r}")
        check_integer(self.seed, "seed")


LatencyModel = Constant | PerSample | Stochastic


def sample_latency(
    model: LatencyModel, batch_size: int, rng: np.random.Generator | None = None
) -> float:
    """One elapsed-time draw, charged as drawn; stochastic draws come from the supplied rng.
    Raises ``ValueError`` on a cost that is not positive and finite: the models' rules leave
    only a ``batch_size`` below 1, or a per-sample cost that overflows on a large batch."""
    if isinstance(model, Constant):
        value = model.seconds
    elif isinstance(model, PerSample):
        value = model.per_sample * float(batch_size) + model.base
    elif isinstance(model, Stochastic):
        if rng is None:
            rng = np.random.default_rng(model.seed)
        value = model.mean + model.jitter * rng.uniform(-1.0, 1.0)
    else:
        raise TypeError(f"unknown latency model {model!r}")
    return check_real(value, "latency model cost", "positive and finite")


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
    restricts the mean to a row subset.  A (B,) mask takes its rows; an (S, B) mask
    zeroes each lane's other rows and divides by that lane's own count, at least 1."""
    u, logp, p = result.u, result.logp, result.p
    g_logits, rows = -p * (logp + _entropy(result)[..., None]), None
    if mask is not None and mask.ndim == 1:
        g_logits, u = g_logits[mask], u[mask]
    elif mask is not None:
        g_logits = np.where(mask[..., None], g_logits, 0.0)
        rows = np.maximum(np.count_nonzero(mask, axis=-1), 1)[:, None, None]
    return _affine_gradient(g_logits, u, result.params.W, rows)


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
    g_logits: np.ndarray, u: np.ndarray, W: np.ndarray, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Mean per-logit gradients over ``rows`` rows (default all), through W and z."""
    gz = g_logits @ W / (g_logits.shape[-2] if rows is None else rows)
    return (gz * u).sum(axis=-2), gz.sum(axis=-2)


# --------------------------------------------------------------------------
# Adapter contract
# --------------------------------------------------------------------------

@dataclass
class AdaptOutcome:
    """Result of one adaptation step.

    ``y_hat`` is always the prediction of ``theta_hat`` on ``x_hat``.  ``cost`` is the
    elapsed seconds for the step, or an (S,) array of each lane's; adapters whose cost
    does not depend on what happened leave it None and the base class samples their
    latency model, so a finished outcome always carries a positive cost.  ``forward`` is
    the step's forward pass of its pre-step parameters on the batch, when it ran one.
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
    ``params`` to a new object and never write into it or into ``pretrained``, both held
    read-only: a step assigns fields only on ``self.params.copy()``, and one that leaves
    the parameters as they are returns ``self.params`` as ``theta_hat``.
    """

    name = "base"

    def __init__(self, pretrained: ModelParams, latency: LatencyModel):
        self.pretrained = pretrained.copy()
        self.pretrained.freeze()  # every run of the adapter starts from it
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

    def reset(self) -> None:
        """Restore the exact pretrained parameters and a fresh latency rng.  A
        subclass with state of its own overrides this to restore it too."""
        self.params = self.pretrained.copy()
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
        cost = outcome.cost  # NaN fails too; an infinite cost fails at the clock
        if not (cost > 0.0 if type(cost) is float or batch.labels.ndim == 1
                else (cost > 0.0).all()):
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
        return AdaptOutcome(x_hat=batch.features, theta_hat=self.params,
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
        self.prior_weight = check_real(prior_weight, "prior_weight", "in [0, 1]")
        super().__init__(pretrained, latency)

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        theta, w, note = self.params.copy(), self.prior_weight, None
        if batch.size < 2:
            w, note = 1.0, "single-sample batch: using source statistics"
        batch_mu = batch.features.mean(axis=-2)
        batch_var = batch.features.var(axis=-2)
        theta.mu = w * self.pretrained.mu + (1.0 - w) * batch_mu
        theta.var = np.maximum(w * self.pretrained.var + (1.0 - w) * batch_var, VAR_FLOOR)
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
        self.learning_rate = check_real(learning_rate, "learning_rate", "positive and finite")
        super().__init__(pretrained, latency)

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
    the gradient.  A batch (or lane) that rejects everything performs no update, and
    its cost is the cheaper forward-pass latency: the step's cost depends on whether an
    update happened.  A stacked step raises if a lane admits one row, whose product
    would take other bits than in a larger one.
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
        self.entropy_threshold = check_real(entropy_threshold, "entropy_threshold", "positive")

    def _latency_models(self) -> tuple[LatencyModel, ...]:
        """A step pays the update's cost or the rejection's."""
        return self.latency, self.latency_reject

    def _adapt(self, batch: Batch) -> AdaptOutcome:
        result = forward(self.params, batch.features)
        admitted = _entropy(result) <= self.entropy_threshold
        if not admitted.any():
            cost = sample_latency(self.latency_reject, batch.size, self._latency_rng)
            return AdaptOutcome(batch.features, self.params, result.labels, cost=cost,
                                note="all samples rejected: no update", forward=result)
        if admitted.ndim == 1:
            return self._descend(batch, result, *_entropy_gradient(result, admitted))
        if 1 in (counts := np.count_nonzero(admitted, axis=-1)):
            raise ValueError("a lane admits one row")
        g_gamma, g_beta = _entropy_gradient(result, admitted)
        g_gamma[counts == 0] = g_beta[counts == 0] = 0.0  # a lane that rejects all keeps theta
        outcome = self._descend(batch, result, g_gamma, g_beta)
        outcome.cost = np.array([sample_latency(self.latency if n else self.latency_reject,
                                                batch.size, self._latency_rng) for n in counts])
        return outcome


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
        return AdaptOutcome(x_hat, self.params, forward(self.params, x_hat).labels, cost=None)


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
    place.  Sharing the parameters is safe because a run holds them read-only:
    ``adapt`` on the copy rebinds the copy's ``params`` and leaves the
    original's object as it was.
    """
    ghost = copy.copy(adapter)
    ghost._latency_rng = copy.deepcopy(adapter._latency_rng)
    return ghost
