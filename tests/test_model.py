"""Forward pass, parameter blending, and parameter-container invariants."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from streamgate.model import (
    VAR_FLOOR,
    ModelParams,
    blend_parameters,
    forward,
    params_fingerprint,
    predict,
)
from doubles import (
    FIELDS,
    reference_blend_parameters,
    reference_log_probabilities,
    reference_params_equal,
    reference_params_fingerprint,
    reference_predict,
    tiny_params,
)


def flat_params(dim=3, num_classes=4, **overrides):
    base = dict(
        mu=np.zeros(dim),
        var=np.ones(dim),
        gamma=np.ones(dim),
        beta=np.zeros(dim),
        W=np.zeros((num_classes, dim)),
        b=np.zeros(num_classes),
    )
    base.update(overrides)
    return ModelParams(**base)


def test_zero_weights_give_uniform_probabilities_and_label_zero():
    params = flat_params()
    labels, probs = predict(params, np.random.default_rng(0).normal(size=(5, 3)))
    assert np.allclose(probs, 0.25)
    assert np.all(labels == 0)  # lowest-index tie break


def test_two_class_threshold_model_confident_far_from_boundary():
    params = ModelParams(
        mu=np.zeros(1), var=np.ones(1), gamma=np.ones(1), beta=np.zeros(1),
        W=np.array([[1.0], [-1.0]]), b=np.zeros(2),
    )
    labels, probs = predict(params, np.array([[10.0]]))
    # Closed form: p(class 0) = 1 / (1 + exp(-20)).
    assert labels[0] == 0
    assert probs[0, 0] > 0.99
    assert probs[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-20.0)))


def test_probabilities_invariant_to_constant_logit_shift():
    params = tiny_params(seed=3)
    shifted = params.copy()
    shifted.b = shifted.b + 7.5
    x = np.random.default_rng(1).normal(size=(6, 4))
    _, p1 = predict(params, x)
    _, p2 = predict(shifted, x)
    assert np.allclose(p1, p2, atol=1e-12)


def test_probability_rows_sum_to_one():
    params = tiny_params(seed=4)
    x = np.random.default_rng(2).normal(size=(64, 4)) * 50.0
    _, probs = predict(params, x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_predict_rejects_non_finite_features():
    params = flat_params()
    bad = np.zeros((2, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        predict(params, bad)


def test_predict_rejects_wrong_width():
    with pytest.raises(ValueError):
        predict(flat_params(dim=3), np.zeros((2, 4)))


def test_stacked_lanes_compute_each_lane_bit_for_bit_as_alone():
    lanes = [tiny_params(dim=5, num_classes=4, seed=s) for s in range(3)]
    stacked = lanes[0].stack(3)
    stacked.flat[1:] = [p.flat for p in lanes[1:]]
    features = np.random.default_rng(1).normal(size=(3, 7, 5))
    result = forward(stacked, features)
    blended = blend_parameters(stacked, lanes[2].stack(3), 0.3)
    for k, params in enumerate(lanes):
        alone = forward(params, features[k])
        assert np.shares_memory(stacked.lane(k).flat, stacked.flat)
        assert np.array_equal(result.logp[k], alone.logp)
        assert np.array_equal(result.labels[k], alone.labels)
        assert reference_params_equal(blended.lane(k), blend_parameters(params, lanes[2], 0.3))
    assert (stacked.dim, stacked.num_classes, stacked.W.shape) == (5, 4, (3, 4, 5))


def _pass_case(seed, dim, num_classes, batch, gap, top, overflow):
    """Random parameters and features from ``seed``.  With a ``gap``, classes 0 and 1
    have zero weights and every row's two top logits: ``top`` at class 1 and ``top``
    less ``gap`` at class 0 ("ulp": the float below ``top``), so that where ``p`` ties
    the argmax of the logits would read 1 and that of ``p`` reads 0.  With an
    ``overflow``, row 0's last logit overflows to -inf or to inf - inf, NaN."""
    params = tiny_params(dim, num_classes, seed)
    features = np.random.default_rng(seed).normal(size=(batch, dim))
    if gap is not None:
        params.W[:2] = 0.0
        params.b[2:] -= 100.0
        params.b[1] = top
        params.b[0] = np.nextafter(top, -np.inf) if gap == "ulp" else top - gap
    if overflow is not None:
        params.gamma[:2] = np.abs(params.gamma[:2])  # row 0's z[:2] are both huge, positive
        params.W[-1, :2] = (-1e10, -1e10) if overflow == "-inf" else (1e10, -1e10)
        params.b[-1] = -1e300  # the other rows' last logit is never their top
        features[0, :2] = 1e300
    return params, features


@given(lanes=st.integers(0, 15), dim=st.integers(2, 6), num_classes=st.integers(2, 12),
       batch=st.integers(1, 8), seed=st.integers(0, 2**16),
       gap=st.sampled_from([None, 0.0, "ulp", 5e-10, 2e-9]),
       top=st.sampled_from([0.0, 0.01, -0.05, 1.0, 50.0]),
       overflow=st.sampled_from([None, "-inf", "nan"]))
@example(lanes=0, dim=3, num_classes=4, batch=5, seed=0, gap=0.0, top=1.0, overflow=None)
@example(lanes=3, dim=3, num_classes=4, batch=5, seed=1, gap="ulp", top=0.01, overflow=None)
@example(lanes=0, dim=3, num_classes=4, batch=5, seed=2, gap="ulp", top=50.0, overflow=None)
@example(lanes=0, dim=3, num_classes=4, batch=5, seed=3, gap=5e-10, top=1.0, overflow=None)
@example(lanes=15, dim=3, num_classes=12, batch=5, seed=4, gap=2e-9, top=1.0, overflow=None)
@example(lanes=0, dim=3, num_classes=4, batch=5, seed=5, gap=2e-9, top=0.0, overflow=None)
@example(lanes=0, dim=2, num_classes=3, batch=2, seed=6, gap="ulp", top=0.01, overflow="nan")
@example(lanes=2, dim=2, num_classes=3, batch=2, seed=7, gap="ulp", top=0.01, overflow="-inf")
@example(lanes=0, dim=4, num_classes=5, batch=3, seed=8, gap=2e-9, top=0.01, overflow="-inf")
def test_labels_logp_and_p_match_the_reference_pass(
    lanes, dim, num_classes, batch, seed, gap, top, overflow
):
    # Labels are read before p, which may take the argmax of the logits, and after it.
    if num_classes < 3:
        overflow = None  # the last class would be one of the pair
    cases = [_pass_case(seed + k, dim, num_classes, batch, gap, top, overflow)
             for k in range(max(lanes, 1))]
    params, features = cases[0]
    if lanes:
        params = params.stack(lanes)
        params.flat[:] = [lane.flat for lane, _ in cases]
        features = np.stack([x for _, x in cases])
    with np.errstate(all="ignore"):
        result = forward(params, features)
        before = result.labels
        logp, p = result.logp, result.p
        after = result.labels
        for k, (lane, x) in enumerate(cases):
            _, ref_logp = reference_log_probabilities(lane, x)
            ref_labels = reference_predict(lane, x)
            ref_p = np.exp(ref_logp)
            at = (k,) if lanes else ()
            assert logp[at].tobytes() == ref_logp.tobytes()
            assert p[at].tobytes() == ref_p.tobytes()
            assert np.array_equal(before[at], ref_labels)
            assert np.array_equal(after[at], ref_labels)


def test_features_must_carry_the_parameters_lane_axis():
    params = tiny_params(dim=5)
    with pytest.raises(ValueError, match=re.escape("shape (B, 5), got (2, 3, 5)")):
        forward(params, np.zeros((2, 3, 5)))
    with pytest.raises(ValueError, match=re.escape("shape (S, B, 5), got (3, 5)")):
        forward(params.stack(2), np.zeros((3, 5)))


def test_blend_alpha_zero_returns_adapted_exactly():
    theta, theta_hat = tiny_params(seed=1), tiny_params(seed=2)
    out = blend_parameters(theta, theta_hat, 0.0)
    assert reference_params_equal(out, theta_hat)
    assert out is not theta_hat


def test_blend_alpha_one_returns_current_exactly():
    theta, theta_hat = tiny_params(seed=1), tiny_params(seed=2)
    assert reference_params_equal(blend_parameters(theta, theta_hat, 1.0), theta)


def test_blend_midpoint_scalar_field():
    theta = flat_params(beta=np.zeros(3))
    theta_hat = flat_params(beta=np.full(3, 2.0))
    assert np.allclose(blend_parameters(theta, theta_hat, 0.5).beta, 1.0)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_blend_convexity(alpha):
    theta, theta_hat = tiny_params(seed=5), tiny_params(seed=6)
    out = blend_parameters(theta, theta_hat, alpha)
    for name in ("mu", "var", "gamma", "beta", "W", "b"):
        a, b, c = getattr(theta, name), getattr(theta_hat, name), getattr(out, name)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(c >= lo - 1e-12) and np.all(c <= hi + 1e-12)


def test_blend_keeps_variance_at_floor():
    theta = flat_params(var=np.full(3, VAR_FLOOR))
    theta_hat = flat_params(var=np.full(3, VAR_FLOOR))
    assert np.all(blend_parameters(theta, theta_hat, 0.5).var >= VAR_FLOOR)


def test_blend_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        blend_parameters(flat_params(dim=3), flat_params(dim=4), 0.5)


def test_blend_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        blend_parameters(tiny_params(), tiny_params(), 1.5)


@pytest.mark.parametrize("alpha", [True, False, "0.5", None, 0.5j])
def test_blend_rejects_an_alpha_that_is_not_a_real_number(alpha):
    # True would blend as 1, a copy of theta; "0.5" raised a bare TypeError.
    with pytest.raises(ValueError, match=r"^alpha must be a real number, got "):
        blend_parameters(tiny_params(), tiny_params(seed=1), alpha)


@pytest.mark.parametrize("alpha", [0, 1, np.float64(0.5), np.float32(0.25), np.float32(0.1),
                                   Fraction(1, 2), Fraction(1, 3)])
def test_blend_takes_any_real_alpha(alpha):
    # A Fraction blended into an object array that validate's isfinite rejects.
    theta, theta_hat = tiny_params(), tiny_params(seed=1)
    expected = blend_parameters(theta, theta_hat, float(alpha))
    assert params_fingerprint(blend_parameters(theta, theta_hat, alpha)) == params_fingerprint(
        expected)


def test_params_validation():
    with pytest.raises(ValueError):
        flat_params(var=np.zeros(3))  # variance must be strictly positive
    with pytest.raises(ValueError):
        flat_params(mu=np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        flat_params(b=np.zeros(5))  # K mismatch
    with pytest.raises(ValueError, match=re.escape("mu must have shape (d,), a 1-D array, "
                                                   "got (3, 1)")):
        flat_params(mu=np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"W must have shape \(K, 3\), got \(4, 2\)"):
        flat_params(W=np.zeros((4, 2)))


@pytest.mark.parametrize("name", ["var", "gamma", "beta"])
def test_params_reject_a_vector_of_the_wrong_length_naming_it(name):
    with pytest.raises(ValueError, match=re.escape(f"{name} must have shape (3,), got (2,)")):
        flat_params(**{name: np.ones(2)})


def test_copy_is_independent():
    params = tiny_params(seed=7)
    clone = params.copy()
    clone.beta[0] += 1.0
    assert not reference_params_equal(params, clone)


def test_fingerprint_tracks_bit_equality():
    a, b = tiny_params(seed=8), tiny_params(seed=8)
    assert params_fingerprint(a) == params_fingerprint(b)
    b.gamma[0] = np.nextafter(b.gamma[0], 2.0)
    assert params_fingerprint(a) != params_fingerprint(b)


@given(
    alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    dim=st.integers(min_value=1, max_value=6),
    num_classes=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    below_floor=st.booleans(),
)
@example(alpha=0.5, dim=3, num_classes=2, seed=0, below_floor=True)
def test_flat_operations_match_the_per_field_reference(alpha, dim, num_classes, seed, below_floor):
    theta = tiny_params(dim, num_classes, seed=seed)
    theta_hat = tiny_params(dim, num_classes, seed=seed + 1)
    if below_floor:
        # Every convex combination of these is below VAR_FLOOR, so 0 < alpha < 1 clamps.
        rng = np.random.default_rng(seed)
        theta.var = rng.uniform(1e-12, 1e-9, size=dim)
        theta_hat.var = rng.uniform(1e-12, 1e-9, size=dim)
    out = blend_parameters(theta, theta_hat, alpha)
    ref = reference_blend_parameters(theta, theta_hat, alpha)
    for name in FIELDS:
        assert getattr(out, name).tobytes() == getattr(ref, name).tobytes(), name
    if below_floor and 0.0 < alpha < 1.0:
        assert np.all(out.var == VAR_FLOOR)
    for params in (theta, theta_hat, out):
        assert params_fingerprint(params) == reference_params_fingerprint(params)


def test_params_equal_compares_shapes_not_only_the_vector():
    # (d, K) = (2, 2) and (1, 5) both give a 14-float vector.
    a = flat_params(dim=2, num_classes=2)
    b = flat_params(dim=1, num_classes=5)
    assert a.flat.shape == b.flat.shape
    b.flat[:] = a.flat
    with pytest.raises(ValueError, match="shape mismatch"):
        blend_parameters(a, b, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", FIELDS)
def test_validate_names_the_non_finite_field(name, bad):
    params = tiny_params(seed=10)
    getattr(params, name).reshape(-1)[-1] = bad  # writes through the view
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
        params.validate()
    fields = {f: getattr(params, f) for f in FIELDS}
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
        ModelParams(**fields)


@pytest.mark.parametrize("kind", ["scalar", "one_longer", "broadcastable"])
@pytest.mark.parametrize("name", FIELDS)
def test_assigning_a_wrong_shape_raises_naming_the_field(name, kind):
    params = tiny_params(dim=4, num_classes=3, seed=11)
    shape = getattr(params, name).shape
    value = {"scalar": 1.0,
             "one_longer": np.ones(np.prod(shape) + 1),
             "broadcastable": np.ones((1, *shape))}[kind]
    with pytest.raises(ValueError, match=f"^{name} must have shape"):
        setattr(params, name, value)
    assert reference_params_equal(params, tiny_params(dim=4, num_classes=3, seed=11))


def test_only_the_six_fields_are_assignable():
    params = tiny_params()
    for name in ("flat", "gama"):  # the vector itself, and a mistyped field
        with pytest.raises(AttributeError, match=f"cannot set '{name}'"):
            setattr(params, name, 1.0)


def test_assigning_a_field_on_a_copy_leaves_the_original_unchanged():
    params = tiny_params(seed=12)
    before = params.flat.copy()
    clone = params.copy()
    for name in FIELDS:
        setattr(clone, name, getattr(clone, name) + 1.0)
    assert np.array_equal(params.flat, before)
    assert np.array_equal(clone.flat, before + 1.0)
    assert all(np.shares_memory(getattr(clone, name), clone.flat) for name in FIELDS)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))])
def test_copy_module_and_pickle_give_independent_flat_params(duplicate):
    params = tiny_params(seed=13)
    before = params.flat.copy()
    dup = duplicate(params)
    assert reference_params_equal(dup, params)
    dup.beta = dup.beta + 1.0
    assert np.array_equal(params.flat, before)
    assert np.array_equal(dup.beta, params.beta + 1.0)
    # The fields are views into dup's own vector, so the flat fingerprint sees the edit.
    assert params_fingerprint(dup) == reference_params_fingerprint(dup)


@pytest.mark.parametrize("lanes", [None, 3])
def test_a_frozen_set_is_read_only_and_names_the_field_a_write_hits(lanes):
    params = tiny_params(seed=14) if lanes is None else tiny_params(seed=14).stack(lanes)
    params.freeze()
    before = params.flat.copy()
    assert not any(getattr(params, name).flags.writeable for name in ("flat", *FIELDS))
    assert not params.lane(0).flat.flags.writeable and not params.lane(0).W.flags.writeable
    for name in FIELDS:
        with pytest.raises(ValueError, match=f"^{name}: this parameter set is held by a run; "
                                             r"assign on params\.copy\(\)$"):
            setattr(params, name, getattr(params, name))
    assert np.array_equal(params.flat, before)
    # What a step builds from a frozen set is its own and writeable.
    one = params.lane(0)
    for fresh in (params.copy(), one.stack(2), blend_parameters(one, one, 0.5),
                  blend_parameters(one, one, 0.0), copy.deepcopy(one)):
        assert all(getattr(fresh, name).flags.writeable for name in ("flat", *FIELDS))
