"""Classifier parameter state and the shared forward-pass / blending math.

The deployable model is a per-feature normalizer (running mean/variance plus
an affine scale and shift) feeding a linear softmax head.  Everything that
adapts at test time rebinds some subset of these fields, so they live in one
container with strict shape and finiteness checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Variances are divided into the normalizer; keep them bounded away from zero.
VAR_FLOOR = 1e-8

_VECTOR_FIELDS = ("mu", "var", "gamma", "beta")
_FIELD_NAMES = (*_VECTOR_FIELDS, "W", "b")


@dataclass(eq=False)
class ModelParams:
    """Full classifier state: normalizer statistics, affine pair, linear head.

    Shapes, finiteness and positive variances are checked at the trust
    boundaries: on construction, and on every ``blend_parameters`` result,
    which is how an adapter's output enters a run.  ``copy()`` does not
    re-check, so a copy an adapter edits is unchecked until it is blended.
    """

    mu: np.ndarray      # (d,) per-feature running mean
    var: np.ndarray     # (d,) per-feature running variance, strictly positive
    gamma: np.ndarray   # (d,) affine scale
    beta: np.ndarray    # (d,) affine shift
    W: np.ndarray       # (K, d) class weight matrix
    b: np.ndarray       # (K,) class bias

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.validate()

    def validate(self) -> None:
        d = self.mu.shape[0] if self.mu.ndim == 1 else -1
        for name in _VECTOR_FIELDS:
            arr = getattr(self, name)
            if arr.shape != (d,):
                raise ValueError(f"{name} must have shape ({d},), got {arr.shape}")
        if self.W.ndim != 2 or self.W.shape[1] != d:
            raise ValueError(f"W must have shape (K, {d}), got {self.W.shape}")
        if self.b.shape != (self.W.shape[0],):
            raise ValueError(f"b must have shape ({self.W.shape[0]},), got {self.b.shape}")
        for name in _FIELD_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite values")
        if np.any(self.var <= 0.0):
            raise ValueError("var must be strictly positive elementwise")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    def copy(self) -> "ModelParams":
        """Independent arrays with the same values; skips ``validate()``."""
        clone = object.__new__(ModelParams)
        clone.__dict__.update({name: getattr(self, name).copy() for name in _FIELD_NAMES})
        return clone


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Exact (bitwise value) equality over every field."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _FIELD_NAMES)


def params_fingerprint(params: ModelParams) -> str:
    """SHA-256 over the raw bytes of all fields; equal iff params are bit-equal."""
    h = hashlib.sha256()
    for name in _FIELD_NAMES:
        arr = np.ascontiguousarray(getattr(params, name))
        h.update(arr.tobytes())
    return h.hexdigest()


def normalized_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """u = (x - mu) / sqrt(var), the pre-affine normalized features."""
    return (features - params.mu) / np.sqrt(params.var)


def log_probabilities(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the classifier logits.

    Computed via the log-sum-exp shift so extreme logits underflow to
    probability zero instead of producing NaNs downstream.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.dim:
        raise ValueError(
            f"features must have shape (B, {params.dim}), got {features.shape}"
        )
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    z = params.gamma * normalized_features(params, features) + params.beta
    logits = z @ params.W.T + params.b
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def predict(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass: (labels, class probabilities).

    Ties in the argmax resolve to the lowest class index, which keeps label
    sequences reproducible across platforms.
    """
    logp = log_probabilities(params, features)
    probs = np.exp(logp)
    labels = np.argmax(probs, axis=1)
    return labels, probs


def blend_parameters(theta: ModelParams, theta_hat: ModelParams, alpha: float) -> ModelParams:
    """Elementwise convex combination alpha * theta + (1 - alpha) * theta_hat.

    alpha=0 adopts the adapted parameters wholesale; alpha=1 keeps the current
    ones.  Both endpoints return exact copies so the blend is bit-faithful at
    the extremes.  Variances are clamped to VAR_FLOOR afterwards.  The result
    is always validated: this is where an adapter's output is checked.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    for name in _FIELD_NAMES:
        if getattr(theta, name).shape != getattr(theta_hat, name).shape:
            raise ValueError(f"shape mismatch in field {name}")
    if alpha == 0.0:
        out = theta_hat.copy()
    elif alpha == 1.0:
        out = theta.copy()
    else:
        blended = {
            name: alpha * getattr(theta, name) + (1.0 - alpha) * getattr(theta_hat, name)
            for name in _FIELD_NAMES
        }
        blended["var"] = np.maximum(blended["var"], VAR_FLOOR)
        return ModelParams(**blended)  # validated on construction
    out.validate()
    return out
