"""Adapter behavior: statistics, gradients, rejection, restoration, latency."""

from __future__ import annotations

import re

import numpy as np
import pytest

from streamgate.adapters import (
    Adapter,
    Constant,
    EntropyMinAdapter,
    InputRestoreAdapter,
    NormStatAdapter,
    PerSample,
    PseudoLabelAdapter,
    RejectionEntropyAdapter,
    SourceAdapter,
    Stochastic,
    cross_entropy_gradient,
    entropy_gradient,
    make_adapter,
    mean_prediction_entropy,
    pseudo_label_cross_entropy,
    sample_latency,
)
from streamgate.model import params_fingerprint, predict
from streamgate.stream import Batch, CorruptionSpec, SourceSpec, apply_corruption, sample_domain
from doubles import (
    BetaShiftAdapter,
    reference_log_probabilities,
    reference_params_equal,
    tiny_params,
    tiny_stream,
)


def make_batch(features, labels, t=0, domain_id=0):
    return Batch(features=features, labels=labels, domain_id=domain_id, t=t)


def domain_batch(source_spec, corruption, n=256, seed=0):
    features, labels = sample_domain(source_spec, corruption, n, seed=seed)
    return make_batch(features, labels)


# --------------------------------------------------------------------------
# Latency models
# --------------------------------------------------------------------------

def test_constant_latency():
    assert sample_latency(Constant(2.0), 64) == 2.0


def test_per_sample_latency_arithmetic():
    assert sample_latency(PerSample(0.01, 0.5), 64) == pytest.approx(1.14)


def test_stochastic_latency_deterministic_sequence(mini_pretrained):
    a = SourceAdapter(mini_pretrained, latency=Stochastic(3.0, 0.5, seed=11))
    b = SourceAdapter(mini_pretrained, latency=Stochastic(3.0, 0.5, seed=11))
    batch = make_batch(np.zeros((8, mini_pretrained.dim)), np.zeros(8, dtype=int))
    seq_a = [a.adapt(batch).cost for _ in range(20)]
    seq_b = [b.adapt(batch).cost for _ in range(20)]
    assert seq_a == seq_b
    assert all(2.5 <= v <= 3.5 for v in seq_a)
    assert len(set(seq_a)) > 1


def test_nonpositive_latency_rejected():
    with pytest.raises(ValueError):
        sample_latency(Constant(0.0), 4)


def test_nan_latency_rejected():
    with pytest.raises(ValueError, match="latency model cost must be positive, got nan"):
        sample_latency(Constant(float("nan")), 4)


def test_unknown_latency_model_rejected():
    with pytest.raises(TypeError, match="unknown latency model 2.0"):
        sample_latency(2.0, 4)


def test_the_base_adapter_has_no_step():
    adapter = Adapter(tiny_params(), Constant(1.0))
    with pytest.raises(NotImplementedError):
        adapter.adapt(tiny_stream(1)[0])


class NanCostAdapter(BetaShiftAdapter):
    name = "nan_cost"

    def _adapt(self, batch):
        outcome = super()._adapt(batch)
        outcome.cost = float("nan")
        return outcome


def test_nan_cost_fails_the_step_and_commits_nothing():
    adapter = NanCostAdapter(tiny_params())
    before = adapter.params
    with pytest.raises(ValueError, match="adaptation cost must be positive, got nan"):
        adapter.adapt(tiny_stream(1)[0])
    assert adapter.params is before


@pytest.mark.parametrize(
    "model,expected",
    [
        (Constant(2.0), (2.0, 2.0)),
        (PerSample(0.25, 1.0), (17.0, 17.0)),   # a batch of 64 samples
        (PerSample(-0.25, 20.0), (4.0, 4.0)),
        (Stochastic(3.0, 0.5), (2.5, 3.5)),
        (Stochastic(1.0, 1.0), (1e-9, 2.0)),    # a draw is clamped to stay positive
    ],
)
def test_cost_range_bounds_every_draw(mini_pretrained, model, expected):
    assert SourceAdapter(mini_pretrained, latency=model).cost_range(64) == expected
    rng = np.random.default_rng(0)
    lo, hi = expected
    assert all(lo <= sample_latency(model, 64, rng) <= hi for _ in range(200))


@pytest.mark.parametrize("mean,jitter,message", [
    (2.0, -1.0, "jitter must be non-negative and finite, got -1.0"),
    (2.0, -np.inf, "jitter must be non-negative and finite, got -inf"),
    (2.0, np.inf, "jitter must be non-negative and finite, got inf"),
    (2.0, np.nan, "jitter must be non-negative and finite, got nan"),
    (-1.0, 0.5, "mean must be positive and finite, got -1.0"),
    (0.0, 0.0, "mean must be positive and finite, got 0.0"),
    (np.nan, 0.0, "mean must be positive and finite, got nan"),
    (True, 0.5, "mean must be a real number, got True"),
    ("1", 0.5, "mean must be a real number, got '1'"),
    (2.0, False, "jitter must be a real number, got False"),
    (2.0, "0.5", "jitter must be a real number, got '0.5'"),
])
def test_stochastic_rejects_a_bad_mean_or_jitter(mean, jitter, message):
    # cost_range bounds every draw by mean +- jitter: a negative jitter inverts
    # the range, and a non-positive mean clamps every draw to 1e-9 s.
    with pytest.raises(ValueError, match=re.escape(message)):
        Stochastic(mean, jitter)


def test_cost_range_spans_both_rejection_models(mini_pretrained):
    adapter = RejectionEntropyAdapter(mini_pretrained, latency=Stochastic(3.0, 0.5),
                                      latency_reject=PerSample(0.25, 0.0))
    assert adapter.cost_range(8) == (2.0, 3.5)
    assert adapter.cost_range(2) == (0.5, 3.5)
    assert SourceAdapter(mini_pretrained, latency=PerSample(0.5, 1.0)).cost_range(8) == (5.0, 5.0)


# --------------------------------------------------------------------------
# Source adapter
# --------------------------------------------------------------------------

def test_source_adapter_is_identity(mini_pretrained, mini_spec):
    adapter = SourceAdapter(mini_pretrained)
    batch = domain_batch(mini_spec, CorruptionSpec("mean_shift", 3, seed=0))
    out = adapter.adapt(batch)
    assert reference_params_equal(out.theta_hat, mini_pretrained)
    assert out.x_hat is batch.features
    expected, _ = predict(mini_pretrained, batch.features)
    assert np.array_equal(out.y_hat, expected)


# --------------------------------------------------------------------------
# Normalizer-statistics adapter
# --------------------------------------------------------------------------

def test_norm_stat_batch_mean_within_standard_error(source_spec, pretrained):
    batch = domain_batch(source_spec, None, n=4096, seed=8)
    adapter = NormStatAdapter(pretrained)
    out = adapter.adapt(batch)
    # Oracle: the batch mean of n iid draws sits within ~3 standard errors.
    se = np.sqrt(pretrained.var / batch.size)
    assert np.all(np.abs(out.theta_hat.mu - pretrained.mu) < 4.0 * se)
    assert np.mean(np.abs(out.theta_hat.mu - pretrained.mu) < 3.0 * se) > 0.9


def test_norm_stat_recenters_shifted_domain(source_spec, pretrained):
    corruption = CorruptionSpec("mean_shift", 5, seed=2)
    batch = domain_batch(source_spec, corruption, n=2048, seed=9)
    adapter = NormStatAdapter(pretrained)
    out = adapter.adapt(batch)
    normalized = (batch.features - out.theta_hat.mu) / np.sqrt(out.theta_hat.var)
    assert np.all(np.abs(normalized.mean(axis=0)) < 1e-9)
    source_err = np.mean(predict(pretrained, batch.features)[0] != batch.labels)
    adapted_err = np.mean(out.y_hat != batch.labels)
    assert adapted_err < source_err


def test_norm_stat_single_sample_falls_back_to_source_stats(mini_pretrained):
    adapter = NormStatAdapter(mini_pretrained)
    batch = make_batch(np.random.default_rng(0).normal(size=(1, 8)), np.array([0]))
    out = adapter.adapt(batch)
    assert np.array_equal(out.theta_hat.mu, mini_pretrained.mu)
    assert np.array_equal(out.theta_hat.var, mini_pretrained.var)
    assert out.note is not None


def test_norm_stat_full_prior_keeps_source_stats(mini_pretrained, mini_spec):
    adapter = NormStatAdapter(mini_pretrained, prior_weight=1.0)
    out = adapter.adapt(domain_batch(mini_spec, CorruptionSpec("mean_shift", 4, seed=1)))
    assert np.array_equal(out.theta_hat.mu, mini_pretrained.mu)


# --------------------------------------------------------------------------
# Gradient adapters
# --------------------------------------------------------------------------

def finite_difference(loss, params, field, step=1e-5):
    grad = np.zeros_like(getattr(params, field))
    for j in range(grad.shape[0]):
        plus = params.copy()
        getattr(plus, field)[j] += step
        minus = params.copy()
        getattr(minus, field)[j] -= step
        grad[j] = (loss(plus) - loss(minus)) / (2 * step)
    return grad


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(10):
        params = tiny_params(dim=6, num_classes=4, seed=rng.integers(1 << 30))
        x = rng.normal(size=(5, 6))
        g_gamma, g_beta = entropy_gradient(params, x)
        fd_gamma = finite_difference(lambda p: mean_prediction_entropy(p, x), params, "gamma")
        fd_beta = finite_difference(lambda p: mean_prediction_entropy(p, x), params, "beta")
        assert relative_error(g_gamma, fd_gamma) < 1e-5
        assert relative_error(g_beta, fd_beta) < 1e-5


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(10):
        params = tiny_params(dim=5, num_classes=3, seed=rng.integers(1 << 30))
        x = rng.normal(size=(6, 5))
        labels = rng.integers(0, 3, size=6)
        g_gamma, g_beta = cross_entropy_gradient(params, x, labels)
        fd_gamma = finite_difference(lambda p: pseudo_label_cross_entropy(p, x, labels), params, "gamma")
        fd_beta = finite_difference(lambda p: pseudo_label_cross_entropy(p, x, labels), params, "beta")
        assert relative_error(g_gamma, fd_gamma) < 1e-5
        assert relative_error(g_beta, fd_beta) < 1e-5


def test_uniform_probabilities_are_entropy_stationary():
    params = tiny_params(dim=4, num_classes=3, seed=0)
    params.W = np.zeros_like(params.W)
    params.b = np.zeros_like(params.b)
    g_gamma, g_beta = entropy_gradient(params, np.random.default_rng(0).normal(size=(8, 4)))
    assert np.allclose(g_gamma, 0.0, atol=1e-15)
    assert np.allclose(g_beta, 0.0, atol=1e-15)


def test_entropy_step_descends_for_small_learning_rate(source_spec, pretrained):
    corruption = CorruptionSpec("gaussian_noise", 3, seed=0)
    for seed in range(5):
        batch = domain_batch(source_spec, corruption, n=64, seed=seed)
        adapter = EntropyMinAdapter(pretrained, learning_rate=1e-3)
        before = mean_prediction_entropy(adapter.params, batch.features)
        out = adapter.adapt(batch)
        after = mean_prediction_entropy(out.theta_hat, batch.features)
        assert after <= before + 1e-12


def test_entropy_adapter_updates_only_affine_fields(mini_pretrained, mini_spec):
    adapter = EntropyMinAdapter(mini_pretrained, learning_rate=0.5)
    out = adapter.adapt(domain_batch(mini_spec, CorruptionSpec("mean_shift", 3, seed=0)))
    assert np.array_equal(out.theta_hat.mu, mini_pretrained.mu)
    assert np.array_equal(out.theta_hat.var, mini_pretrained.var)
    assert np.array_equal(out.theta_hat.W, mini_pretrained.W)
    assert np.array_equal(out.theta_hat.b, mini_pretrained.b)
    assert not np.array_equal(out.theta_hat.beta, mini_pretrained.beta)


def test_entropy_state_accumulates_across_batches(mini_pretrained, mini_spec):
    adapter = EntropyMinAdapter(mini_pretrained, learning_rate=0.5)
    b1 = domain_batch(mini_spec, CorruptionSpec("mean_shift", 3, seed=0), seed=1)
    b2 = domain_batch(mini_spec, CorruptionSpec("mean_shift", 3, seed=0), seed=2)
    out1 = adapter.adapt(b1)
    out2 = adapter.adapt(b2)
    assert not reference_params_equal(out1.theta_hat, out2.theta_hat)
    assert reference_params_equal(adapter.params, out2.theta_hat)


def test_pseudo_labels_equal_pre_step_predictions(mini_pretrained, mini_spec):
    adapter = PseudoLabelAdapter(mini_pretrained, learning_rate=0.3)
    batch = domain_batch(mini_spec, CorruptionSpec("gaussian_noise", 2, seed=0))
    before, _ = predict(adapter.params, batch.features)
    assert not np.array_equal(before, batch.labels)  # pseudo-labels differ from the truth
    out = adapter.adapt(batch)
    g_gamma, g_beta = cross_entropy_gradient(mini_pretrained, batch.features, before)
    assert np.array_equal(out.theta_hat.gamma, mini_pretrained.gamma - 0.3 * g_gamma)
    assert np.array_equal(out.theta_hat.beta, mini_pretrained.beta - 0.3 * g_beta)


def test_confident_batch_has_negligible_pseudo_label_gradient(mini_pretrained, mini_spec):
    from streamgate.stream import class_means

    rng = np.random.default_rng(21)
    # Confident: points pushed far out along their class-mean directions.
    means = class_means(mini_spec)
    labels = np.tile(np.arange(mini_spec.num_classes), 16)
    confident_x = mini_pretrained.mu + (means[labels] - mini_pretrained.mu) * 40.0
    _, probs = predict(mini_pretrained, confident_x)
    assert probs.max(axis=1).min() > 0.99
    g_conf = np.concatenate(cross_entropy_gradient(
        mini_pretrained, confident_x, predict(mini_pretrained, confident_x)[0]))
    fuzzy_x = rng.normal(size=(64, 8)) * 0.05 + mini_pretrained.mu
    g_fuzzy = np.concatenate(cross_entropy_gradient(
        mini_pretrained, fuzzy_x, predict(mini_pretrained, fuzzy_x)[0]))
    assert np.linalg.norm(g_conf) < 1e-3 * np.linalg.norm(g_fuzzy)


@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0, float("inf"), True, "0.5"])
@pytest.mark.parametrize("cls,keyword", [
    (EntropyMinAdapter, "learning_rate"),
    (PseudoLabelAdapter, "learning_rate"),
    (RejectionEntropyAdapter, "learning_rate"),
    (RejectionEntropyAdapter, "entropy_threshold"),
])
def test_non_positive_hyperparameter_fails_at_construction(mini_pretrained, cls, keyword, value):
    # NaN fails every comparison, so a check written as `value <= 0` lets it through.
    # An infinite rate would fail only mid-run, on a non-finite gamma.
    if (keyword, value) == ("entropy_threshold", float("inf")):  # admits every sample
        assert cls(mini_pretrained, **{keyword: value}).entropy_threshold == value
        return
    rule = ("a real number" if isinstance(value, (bool, str))
            else "positive" if keyword == "entropy_threshold" else "positive and finite")
    with pytest.raises(ValueError, match=re.escape(f"{keyword} must be {rule}, got {value!r}")):
        cls(mini_pretrained, **{keyword: value})


@pytest.mark.parametrize("value,message", [
    (True, "prior_weight must be a real number, got True"),
    ("0.5", "prior_weight must be a real number, got '0.5'"),
    (1.5, "prior_weight must be in [0, 1]"),
    (float("nan"), "prior_weight must be in [0, 1]"),
])
def test_prior_weight_must_be_a_real_number_in_the_unit_interval(mini_pretrained, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        NormStatAdapter(mini_pretrained, prior_weight=value)


# --------------------------------------------------------------------------
# Rejection adapter
# --------------------------------------------------------------------------

def test_rejection_with_max_threshold_equals_entropy_adapter(mini_pretrained, mini_spec):
    batch = domain_batch(mini_spec, CorruptionSpec("gaussian_noise", 4, seed=0))
    plain = EntropyMinAdapter(mini_pretrained, learning_rate=0.2)
    gated = RejectionEntropyAdapter(
        mini_pretrained, learning_rate=0.2,
        entropy_threshold=np.log(mini_pretrained.num_classes) + 1e-9,
    )
    out_plain = plain.adapt(batch)
    out_gated = gated.adapt(batch)
    assert np.allclose(out_plain.theta_hat.gamma, out_gated.theta_hat.gamma, atol=1e-15)
    assert np.allclose(out_plain.theta_hat.beta, out_gated.theta_hat.beta, atol=1e-15)


def test_rejection_total_refusal_never_updates(mini_pretrained, mini_spec):
    adapter = RejectionEntropyAdapter(mini_pretrained, entropy_threshold=1e-9,
                                      latency=Constant(3.0), latency_reject=Constant(1.0))
    batch = domain_batch(mini_spec, CorruptionSpec("gaussian_noise", 5, seed=0))
    out = adapter.adapt(batch)
    assert reference_params_equal(out.theta_hat, mini_pretrained)
    assert out.cost == 1.0  # forward-pass latency only
    assert out.note is not None
    expected, _ = predict(mini_pretrained, batch.features)
    assert np.array_equal(out.y_hat, expected)


def test_rejection_update_cost_differs_from_refusal_cost(mini_pretrained, mini_spec):
    adapter = RejectionEntropyAdapter(mini_pretrained,
                                      entropy_threshold=np.log(mini_pretrained.num_classes),
                                      latency=Constant(3.0), latency_reject=Constant(1.0))
    out = adapter.adapt(domain_batch(mini_spec, None))
    assert out.cost == 3.0


def test_rejection_draws_every_stochastic_cost_from_one_generator(mini_pretrained, mini_spec):
    batch = domain_batch(mini_spec, CorruptionSpec("gaussian_noise", 5, seed=0))
    reject = Stochastic(1.0, 0.5, seed=4)
    adapter = RejectionEntropyAdapter(mini_pretrained, entropy_threshold=1e-9,
                                      latency=Constant(3.0), latency_reject=reject)
    costs = [adapter.adapt(batch).cost for _ in range(6)]
    lo, hi = SourceAdapter(mini_pretrained, latency=reject).cost_range(batch.size)
    assert len(set(costs)) == len(costs)
    assert all(lo <= cost <= hi for cost in costs)
    adapter.reset()
    assert [adapter.adapt(batch).cost for _ in range(6)] == costs
    # With both models stochastic, the update model's seed seeds the one generator.
    adapter = RejectionEntropyAdapter(mini_pretrained, entropy_threshold=1e-9,
                                      latency=Stochastic(3.0, 0.5, seed=7), latency_reject=reject)
    rng = np.random.default_rng(7)
    assert [adapter.adapt(batch).cost for _ in range(6)] == [
        sample_latency(reject, batch.size, rng) for _ in range(6)]


def test_rejection_gradient_restricted_to_admitted_rows(mini_pretrained, mini_spec):
    batch = domain_batch(mini_spec, CorruptionSpec("gaussian_noise", 3, seed=1), n=128)
    _, logp = reference_log_probabilities(mini_pretrained, batch.features)
    entropy = -(np.exp(logp) * logp).sum(axis=1)
    threshold = float(np.median(entropy))
    adapter = RejectionEntropyAdapter(mini_pretrained, learning_rate=0.3,
                                      entropy_threshold=threshold)
    out = adapter.adapt(batch)
    admitted = entropy <= threshold
    assert 0 < admitted.sum() < batch.size
    # Oracle: the admitted rows treated as their own batch give the same step.
    g_gamma, g_beta = entropy_gradient(mini_pretrained, batch.features[admitted])
    assert np.allclose(out.theta_hat.gamma, mini_pretrained.gamma - 0.3 * g_gamma, atol=1e-12)
    assert np.allclose(out.theta_hat.beta, mini_pretrained.beta - 0.3 * g_beta, atol=1e-12)


# --------------------------------------------------------------------------
# Input-restoration adapter
# --------------------------------------------------------------------------

def test_input_restore_fixed_point(mini_pretrained):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(512, 8))
    params = mini_pretrained.copy()
    params.mu = x.mean(axis=0)
    params.var = x.var(axis=0)
    adapter = InputRestoreAdapter(params)
    out = adapter.adapt(make_batch(x, np.zeros(len(x), dtype=int)))
    assert np.allclose(out.x_hat, x, atol=1e-9)
    assert reference_params_equal(out.theta_hat, params)  # model untouched


def test_input_restore_matches_source_moments(source_spec, pretrained):
    batch = domain_batch(source_spec, CorruptionSpec("mean_shift", 5, seed=0), n=1024)
    adapter = InputRestoreAdapter(pretrained)
    out = adapter.adapt(batch)
    assert np.allclose(out.x_hat.mean(axis=0), pretrained.mu, atol=1e-9)
    assert np.allclose(out.x_hat.std(axis=0), np.sqrt(pretrained.var), atol=1e-9)


def test_input_restore_single_sample_uses_source_std(mini_pretrained):
    x = np.random.default_rng(5).normal(size=(1, 8)) + 10.0
    adapter = InputRestoreAdapter(mini_pretrained)
    out = adapter.adapt(make_batch(x, np.array([0])))
    assert np.allclose(out.x_hat[0], mini_pretrained.mu, atol=1e-12)


def test_input_restore_default_latency_is_very_slow(mini_pretrained):
    assert InputRestoreAdapter(mini_pretrained).cost_range(64) == (810.0, 810.0)


# --------------------------------------------------------------------------
# Reset, isolation, shared invariants
# --------------------------------------------------------------------------

ALL_NAMES = ["source", "norm_stat", "entropy_min", "pseudo_label",
             "rejection_entropy", "input_restore"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_reset_restores_pretrained_and_replays_identically(name, mini_pretrained, mini_spec):
    adapter = make_adapter(name, mini_pretrained,
                           latency=Stochastic(2.0, 0.5, seed=3))
    batches = [domain_batch(mini_spec, CorruptionSpec("mean_shift", 4, seed=0), seed=s)
               for s in range(10)]
    first = [adapter.adapt(b) for b in batches]
    adapter.reset()
    assert params_fingerprint(adapter.params) == params_fingerprint(mini_pretrained)
    second = [adapter.adapt(b) for b in batches]
    for a, b in zip(first, second):
        assert np.array_equal(a.y_hat, b.y_hat)
        assert a.cost == b.cost
        assert reference_params_equal(a.theta_hat, b.theta_hat)
    adapter.reset()
    adapter.reset()  # idempotent
    assert params_fingerprint(adapter.params) == params_fingerprint(mini_pretrained)


def test_adapters_are_state_isolated(mini_pretrained, mini_spec):
    a = EntropyMinAdapter(mini_pretrained, learning_rate=0.5)
    b = EntropyMinAdapter(mini_pretrained, learning_rate=0.5)
    a.adapt(domain_batch(mini_spec, CorruptionSpec("mean_shift", 5, seed=0)))
    assert reference_params_equal(b.params, mini_pretrained)
    assert reference_params_equal(a.pretrained, mini_pretrained)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_outcome_invariants(name, mini_pretrained, mini_spec):
    adapter = make_adapter(name, mini_pretrained)
    batch = domain_batch(mini_spec, CorruptionSpec("gaussian_noise", 5, seed=0))
    out = adapter.adapt(batch)
    assert out.cost > 0
    labels, probs = predict(out.theta_hat, out.x_hat)
    assert np.array_equal(out.y_hat, labels)  # predictions match reported state
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_make_adapter_rejects_unknown_name(mini_pretrained):
    with pytest.raises(ValueError, match="unknown adapter"):
        make_adapter("diffusion", mini_pretrained)


def test_default_latency_profile_by_adapter(mini_pretrained):
    expected = {"source": 1.0, "norm_stat": 1.0, "entropy_min": 3.0,
                "pseudo_label": 3.0, "input_restore": 810.0}
    for name, seconds in expected.items():
        assert make_adapter(name, mini_pretrained).cost_range(64) == (seconds, seconds)
