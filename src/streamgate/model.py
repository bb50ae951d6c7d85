"""Classifier parameter state and the shared forward-pass / blending math.

The deployable model is a per-feature normalizer (running mean/variance plus
an affine scale and shift) feeding a linear softmax head.  A parameter set is
one float64 vector ``mu, var, gamma, beta, W`` (row-major), ``b`` with the six
fields as views into it: copying, checking, blending, comparing and hashing are
one array operation each, and assigning a field is a shape-checked write.
``forward`` is the one forward pass; ``predict`` and every adapter read it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Variances are divided into the normalizer; keep them bounded away from zero.
VAR_FLOOR = 1e-8

_FIELD_NAMES = ("mu", "var", "gamma", "beta", "W", "b")


def _bind(params: "ModelParams", flat: np.ndarray, k: int, d: int) -> "ModelParams":
    """Set ``flat`` and the six fields as views into it, in one ``__dict__`` update."""
    w = (4 + k) * d
    W = flat[..., 4 * d:w]  # a leading lane axis, if any, stays on every field
    params.__dict__.update(flat=flat, mu=flat[..., :d], var=flat[..., d:2 * d],
                           gamma=flat[..., 2 * d:3 * d], beta=flat[..., 3 * d:4 * d],
                           W=W.reshape(k, d) if W.ndim == 1 else W.reshape(-1, k, d),
                           b=flat[..., w:])
    return params


@dataclass(eq=False, init=False)
class ModelParams:
    """Full classifier state: normalizer statistics, affine pair, linear head.

    The fields are views into one vector, ``flat``.  Assigning a field writes
    into ``flat`` (so assign only on a ``copy()`` you own) and raises
    ``ValueError`` naming the field unless the value has the field's shape.
    Finiteness and ``var > 0`` are checked on construction and on every
    ``blend_parameters`` result; ``copy()`` does not re-check.  A stacked set
    (``stack``), which only the run loop builds, has a leading lane axis on
    ``flat`` and on every field.
    """

    mu: np.ndarray      # (d,) per-feature running mean
    var: np.ndarray     # (d,) per-feature running variance, strictly positive
    gamma: np.ndarray   # (d,) affine scale
    beta: np.ndarray    # (d,) affine shift
    W: np.ndarray       # (K, d) class weight matrix
    b: np.ndarray       # (K,) class bias

    def __init__(self, mu, var, gamma, beta, W, b) -> None:
        arrays = [np.asarray(a, dtype=np.float64) for a in (mu, var, gamma, beta, W, b)]
        if arrays[0].ndim != 1:
            raise ValueError(f"mu must have shape (d,), a 1-D array, got {arrays[0].shape}")
        d = arrays[0].shape[0]
        for name, arr in zip(_FIELD_NAMES[:4], arrays):
            if arr.shape != (d,):
                raise ValueError(f"{name} must have shape ({d},), got {arr.shape}")
        W, b = arrays[4:]
        if W.ndim != 2 or W.shape[1] != d:
            raise ValueError(f"W must have shape (K, {d}), got {W.shape}")
        if b.shape != (W.shape[0],):
            raise ValueError(f"b must have shape ({W.shape[0]},), got {b.shape}")
        _bind(self, np.concatenate([a.ravel() for a in arrays]), *W.shape)
        self.validate()

    def __setattr__(self, name: str, value) -> None:
        if name not in _FIELD_NAMES:
            raise AttributeError(f"cannot set {name!r}: only the six fields are assignable")
        value, view = np.asarray(value, dtype=np.float64), self.__dict__[name]
        if value.shape != view.shape:
            raise ValueError(f"{name} must have shape {view.shape}, got {value.shape}")
        view[...] = value

    def __reduce__(self):  # copy, deepcopy and pickle rebuild the views on a new vector
        return ModelParams, tuple(getattr(self, name) for name in _FIELD_NAMES)

    def validate(self) -> None:
        if not np.isfinite(self.flat).all():
            bad = next(n for n in _FIELD_NAMES if not np.isfinite(getattr(self, n)).all())
            raise ValueError(f"{bad} contains non-finite values")
        if not (self.var > 0.0).all():
            raise ValueError("var must be strictly positive elementwise")

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]

    @property
    def num_classes(self) -> int:
        return self.W.shape[-2]

    def copy(self) -> "ModelParams":
        """An independent vector with the same values; skips ``validate()``."""
        return _bind(object.__new__(ModelParams), self.flat.copy(), *self.W.shape[-2:])

    def stack(self, lanes: int) -> "ModelParams":
        """``lanes`` copies of a 1-D set along a leading axis of every field, each of which
        ``forward``, ``blend_parameters`` and the built-in steps treat bit for bit as a
        1-D set."""
        return _bind(object.__new__(ModelParams), np.tile(self.flat, (lanes, 1)), *self.W.shape)

    def lane(self, k: int) -> "ModelParams":
        """Lane ``k`` of a stacked set, as a 1-D view into it."""
        return _bind(object.__new__(ModelParams), self.flat[k], *self.W.shape[-2:])


def params_fingerprint(params: ModelParams) -> str:
    """SHA-256 over the raw bytes of all fields; equal iff params are bit-equal."""
    return hashlib.sha256(params.flat.tobytes()).hexdigest()


def normalized_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """u = (x - mu) / sqrt(var) for a finite (B, d) batch, or (S, B, d) for S lanes;
    ValueError otherwise."""
    features = np.asarray(features, dtype=np.float64)
    lanes = params.mu.ndim - 1
    if features.ndim != lanes + 2 or features.shape[-1] != params.dim:
        raise ValueError(f"features must have shape ({'S, ' * lanes}B, {params.dim}), "
                         f"got {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    mu, sd = params.mu, np.sqrt(params.var)
    if lanes:  # each lane's statistics broadcast over its own rows
        mu, sd = mu[:, None], sd[:, None]
    return (features - mu) / sd


@dataclass(eq=False, slots=True)
class Forward:
    """One forward pass of ``params`` on a batch: the normalized features ``u``
    and the row-wise log-probabilities ``logp`` and probabilities ``p = exp(logp)``."""

    params: ModelParams
    u: np.ndarray
    logp: np.ndarray
    p: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        """Argmax over ``p``; ties resolve to the lowest class index, which keeps
        label sequences reproducible across platforms."""
        return self.p.argmax(axis=-1)


def forward(params: ModelParams, features: np.ndarray, u: np.ndarray | None = None) -> Forward:
    """The forward pass of ``params`` on a (B, d) feature batch, or of S lanes on (S, B, d).

    ``u`` stands in for ``normalized_features(params, features)``: a caller
    holding it from a pass of parameters with the same ``mu`` and ``var`` skips
    the normalization.  Logits are shifted by the row max, so extreme logits
    underflow to probability zero instead of NaN.
    """
    if u is None:
        u = normalized_features(params, features)
    gamma, beta, b = params.gamma, params.beta, params.b
    if b.ndim > 1:  # lanes, as in normalized_features
        gamma, beta, b = gamma[:, None], beta[:, None], b[:, None]
    logits = (gamma * u + beta) @ params.W.swapaxes(-1, -2) + b
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return Forward(params, u, logp, np.exp(logp))


def predict(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass: (labels, class probabilities); see ``Forward.labels``."""
    result = forward(params, features)
    return result.labels, result.p


def blend_parameters(theta: ModelParams, theta_hat: ModelParams, alpha: float) -> ModelParams:
    """Elementwise alpha * theta + (1 - alpha) * theta_hat; alpha 0 and 1 give exact
    copies.  Variances are clamped to VAR_FLOOR, and the result is always validated:
    this is where an adapter's output is checked."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if theta.W.shape != theta_hat.W.shape:  # (K, d): equal vector lengths are not enough
        raise ValueError(f"shape mismatch: (K, d) {theta.W.shape} vs {theta_hat.W.shape}")
    if alpha == 0.0:
        out = theta_hat.copy()
    elif alpha == 1.0:
        out = theta.copy()
    else:
        out = _bind(object.__new__(ModelParams),
                    alpha * theta.flat + (1.0 - alpha) * theta_hat.flat, *theta.W.shape[-2:])
        np.maximum(out.var, VAR_FLOOR, out=out.var)
    out.validate()
    return out
