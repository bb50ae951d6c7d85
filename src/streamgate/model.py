"""Classifier parameter state and the shared forward-pass / blending math.

The deployable model is a per-feature normalizer (running mean/variance plus
an affine scale and shift) feeding a linear softmax head.  A parameter set is
one float64 vector ``mu, var, gamma, beta, W`` (row-major), ``b`` with the six
fields as views into it: copying, checking, blending, comparing and hashing are
one array operation each, and assigning a field is a shape-checked write.
``forward`` is the one forward pass; ``predict`` and every adapter read it.  It finishes
``logp`` and ``p`` on first read.  Read before ``p``, ``labels`` are the logits' argmax
when every row max is finite and every row has one logit within 1e-9 of it: that logit's
``logp`` is exactly ``-lse`` and every other one's at least 1e-9 lower, a gap exp's
rounding cannot close.  A custom adapter that calls ``forward`` sees the same values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import check_real

# Variances are divided into the normalizer; keep them bounded away from zero.
VAR_FLOOR = 1e-8

_FIELD_NAMES = ("mu", "var", "gamma", "beta", "W", "b")

# Indexes a (d,) or (K,) field so that each lane's values broadcast over that lane's rows.
_ROWS = np.s_[..., None, :]


def _bind(params: "ModelParams", flat: np.ndarray, k: int, d: int) -> "ModelParams":
    """Set ``flat`` and the six fields as views into it, in one ``__dict__`` update; a
    leading lane axis of ``flat``, if any, stays on every field."""
    w = (4 + k) * d
    params.__dict__.update(flat=flat, mu=flat[..., :d], var=flat[..., d:2 * d],
                           gamma=flat[..., 2 * d:3 * d], beta=flat[..., 3 * d:4 * d],
                           W=flat[..., 4 * d:w].reshape(*flat.shape[:-1], k, d),
                           b=flat[..., w:])
    return params


@dataclass(eq=False, init=False)
class ModelParams:
    """Full classifier state: normalizer statistics, affine pair, linear head.

    The fields are views into one vector, ``flat``.  Assigning a field writes
    into ``flat`` (so assign only on a ``copy()`` you own) and raises
    ``ValueError`` naming the field unless the value has the field's shape, or
    on a set a run holds, which it ``freeze``s: ``copy()`` is writeable.
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
        if not view.flags.writeable:
            raise ValueError(f"{name}: this parameter set is held by a run; assign on params.copy()")
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

    def freeze(self) -> None:
        """Make ``flat``, then every field bound anew from it, read-only (older views are not)."""
        self.flat.flags.writeable = False
        _bind(self, self.flat, *self.W.shape[-2:])

    def stack(self, lanes: int) -> "ModelParams":
        """``lanes`` copies of a 1-D set along a leading axis of every field, each of which
        ``forward``, ``blend_parameters`` and the built-in steps treat bit for bit as a
        1-D set."""
        return _bind(object.__new__(ModelParams), np.tile(self.flat, (lanes, 1)), *self.W.shape)

    def lane(self, k: int) -> "ModelParams":
        """Lane ``k`` of a stacked set, as a 1-D view into it; a 1-D set is its own lane 0."""
        return _bind(object.__new__(ModelParams), np.atleast_2d(self.flat)[k], *self.W.shape[-2:])


def params_fingerprint(params: ModelParams) -> str:
    """SHA-256 over the raw bytes of all fields; equal iff params are bit-equal."""
    return hashlib.sha256(params.flat.tobytes()).hexdigest()


@dataclass(eq=False)
class Forward:
    """One forward pass of ``params`` on a batch: the normalized features ``u``, and
    the row-wise log-probabilities ``logp`` and probabilities ``p = exp(logp)``."""

    params: ModelParams
    u: np.ndarray
    _top: np.ndarray      # (..., B, 1) row maxes of the logits
    _shifted: np.ndarray  # the logits less their row max

    @cached_property
    def logp(self) -> np.ndarray:
        return self._shifted - np.log(np.exp(self._shifted).sum(axis=-1, keepdims=True))

    p = cached_property(lambda self: np.exp(self.logp))

    @property
    def labels(self) -> np.ndarray:
        """Argmax over ``p``, lowest class index first on ties, which keeps label sequences
        reproducible across platforms; before ``p`` is read, see the module docstring."""
        if ("p" not in self.__dict__ and np.isfinite(self._top).all()
                and np.count_nonzero(self._shifted > -1e-9) == self._top.size):
            return self._shifted.argmax(axis=-1)
        return self.p.argmax(axis=-1)


def forward(params: ModelParams, features: np.ndarray, u: np.ndarray | None = None) -> Forward:
    """The forward pass of ``params`` on a finite (B, d) feature batch, or of S lanes on
    (S, B, d); ``ValueError`` for features of another shape or with a non-finite value.

    ``u`` stands in for the normalized features (x - mu) / sqrt(var): a caller holding it
    from a pass of parameters with the same ``mu`` and ``var`` skips the normalization and
    its input check.  Logits are shifted by the row max, so extreme logits underflow to
    probability zero instead of NaN.  A class-major copy gives the max faster, and the same
    but for a zero's sign, which no output sees.
    """
    if u is None:
        features = np.asarray(features, dtype=np.float64)
        lanes = params.mu.ndim - 1
        if features.ndim != lanes + 2 or features.shape[-1] != params.dim:
            raise ValueError(f"features must have shape ({'S, ' * lanes}B, {params.dim}), "
                             f"got {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        u = (features - params.mu[_ROWS]) / np.sqrt(params.var)[_ROWS]
    z = params.gamma[_ROWS] * u
    z += params.beta[_ROWS]
    logits = z @ params.W.swapaxes(-1, -2)
    logits += params.b[_ROWS]
    top = np.ascontiguousarray(logits.swapaxes(-1, -2)).max(axis=-2)[..., None]
    logits -= top
    return Forward(params, u, top, logits)


def predict(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass: (labels, class probabilities); see ``Forward.labels``."""
    p = forward(params, features).p
    return p.argmax(axis=-1), p


def blend_parameters(theta: ModelParams, theta_hat: ModelParams, alpha: float) -> ModelParams:
    """Elementwise alpha * theta + (1 - alpha) * theta_hat; alpha 0 and 1 give exact
    copies.  Variances are clamped to VAR_FLOOR, and the result is always validated:
    this is where an adapter's output is checked.  ``alpha`` blends as its float."""
    alpha = check_real(alpha, "alpha", "in [0, 1]")
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
