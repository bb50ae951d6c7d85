"""Source data generation, pretraining, corruptions, and stream composition."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from streamgate.stream import (
    CONTINUAL,
    EPISODIC,
    CorruptionSpec,
    ScenarioSpec,
    SourceSpec,
    TrainSpec,
    TrainingError,
    apply_corruption,
    class_means,
    compose_stream,
    default_corruption_suite,
    make_source_dataset,
    pretrain_source_model,
    sample_domain,
)
from doubles import model_error, nearest_mean_error, rotation_matrix


def test_two_separated_1d_clusters_are_thresholdable():
    spec = SourceSpec(num_classes=2, dim=1, class_separation=10.0,
                      samples_per_class=100, seed=3)
    features, labels = make_source_dataset(spec)
    # Oracle: nearest class mean, equivalent to a midpoint threshold in 1-D.
    assert nearest_mean_error(class_means(spec), features, labels) < 0.01


def test_dataset_deterministic_under_seed():
    spec = SourceSpec(seed=42)
    x1, y1 = make_source_dataset(spec)
    x2, y2 = make_source_dataset(spec)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    x3, _ = make_source_dataset(SourceSpec(seed=43))
    assert not np.array_equal(x1, x3)


def test_default_task_nearest_mean_error_below_15_percent(source_spec):
    # Monte-Carlo estimate with the nearest-mean oracle on fresh draws.
    features, labels = sample_domain(source_spec, None, 20_000, seed=77)
    assert nearest_mean_error(class_means(source_spec), features, labels) < 0.15


def test_pretrain_drives_separable_problem_to_zero_error():
    spec = SourceSpec(num_classes=2, dim=2, class_separation=20.0,
                      samples_per_class=100, seed=3)
    features, labels = make_source_dataset(spec)
    params = pretrain_source_model(features, labels, TrainSpec(iterations=500))
    assert model_error(params, features, labels) == 0.0


def test_pretrain_regime_on_default_spec(source_spec, pretrained):
    features, labels = sample_domain(source_spec, None, 10_000, seed=5)
    source_err = model_error(pretrained, features, labels)
    assert source_err < 0.15
    # Pretrained head should be competitive with the nearest-mean oracle.
    oracle = nearest_mean_error(class_means(source_spec), features, labels)
    assert source_err <= oracle + 0.02
    corrupted = apply_corruption(features, CorruptionSpec("gaussian_noise", 5, seed=0))
    assert model_error(pretrained, corrupted, labels) > 0.30


def test_pretrain_zero_iterations_is_uniform_classifier():
    spec = SourceSpec(num_classes=5, dim=4, samples_per_class=50, seed=1)
    features, labels = make_source_dataset(spec)
    params = pretrain_source_model(features, labels, TrainSpec(iterations=0))
    # All-zero head predicts class 0; balanced classes give error 1 - 1/K.
    assert model_error(params, features, labels) == pytest.approx(1 - 1 / 5)


def test_pretrain_divergence_reports_iteration():
    spec = SourceSpec(num_classes=3, dim=4, samples_per_class=30, seed=2)
    features, labels = make_source_dataset(spec)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingError, match="iteration"):
            pretrain_source_model(features, labels, TrainSpec(learning_rate=1e308, iterations=5))


def test_rotation_is_orthogonal_and_invertible():
    spec = CorruptionSpec("rotation", 4, seed=9)
    rot = rotation_matrix(spec, dim=12)
    assert np.allclose(rot.T @ rot, np.eye(12), atol=1e-10)
    x = np.random.default_rng(1).normal(size=(20, 12))
    rotated = apply_corruption(x, spec)
    assert np.allclose(rotated @ rot, x, atol=1e-10)


def test_corruptions_preserve_shape_and_determinism():
    x = np.random.default_rng(2).normal(size=(32, 16))
    for spec in default_corruption_suite(severity=3)[:8]:
        a = apply_corruption(x, spec)
        b = apply_corruption(x, spec)
        assert a.shape == x.shape
        assert np.array_equal(a, b)


def test_gaussian_noise_error_monotone_in_severity(source_spec, pretrained):
    # Averaged over 5 corruption seeds at each severity.
    features, labels = sample_domain(source_spec, None, 4000, seed=11)
    means = []
    for severity in range(1, 6):
        errs = [
            model_error(pretrained,
                        apply_corruption(features, CorruptionSpec("gaussian_noise", severity, seed=s)),
                        labels)
            for s in range(5)
        ]
        means.append(np.mean(errs))
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


def test_mask_fraction_scales_with_severity():
    x = np.ones((4, 50))
    out1 = apply_corruption(x, CorruptionSpec("feature_mask", 1, seed=0))
    out5 = apply_corruption(x, CorruptionSpec("feature_mask", 5, seed=0))
    assert (out1 == 0).sum() == 4 * round(0.06 * 1 * 50)
    assert (out5 == 0).sum() == 4 * round(0.06 * 5 * 50)


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("gaussian_noise", 0)
    with pytest.raises(ValueError):
        CorruptionSpec("fog", 3)


def three_domain_scenario(mode):
    order = tuple(CorruptionSpec("mean_shift", 5, seed=s) for s in range(3))
    return ScenarioSpec(mode=mode, domain_order=order, batch_size=64)


def test_episodic_composition_arity(source_spec):
    segments = compose_stream(three_domain_scenario(EPISODIC), source_spec, 640, seed=0)
    assert len(segments) == 3
    assert all(seg.reset for seg in segments)
    assert all(len(seg.batches) == 10 for seg in segments)
    for seg in segments:
        assert [b.t for b in seg.batches] == list(range(10))


def test_continual_composition_single_segment(source_spec):
    segments = compose_stream(three_domain_scenario(CONTINUAL), source_spec, 640, seed=0)
    assert len(segments) == 1
    batches = segments[0].batches
    assert len(batches) == 30
    assert [b.t for b in batches] == list(range(30))
    changes = [b.t for a, b in zip(batches, batches[1:]) if a.domain_id != b.domain_id]
    assert changes == [10, 20]


def test_partial_final_batch_is_dropped(source_spec):
    scenario = three_domain_scenario(EPISODIC)
    segments = compose_stream(scenario, source_spec, 650, seed=0)
    assert all(len(seg.batches) == 10 for seg in segments)
    assert all(b.size == 64 for seg in segments for b in seg.batches)


def test_permuted_order_same_multiset_different_sequence(source_spec):
    scenario = three_domain_scenario(CONTINUAL)
    base = compose_stream(scenario, source_spec, 640, seed=4)[0].batches
    order = scenario.domain_order
    reordered = replace(scenario, domain_order=(order[2], order[0], order[1]))
    shuffled = compose_stream(reordered, source_spec, 640, seed=4)[0].batches
    key = lambda b: b.features.tobytes()
    assert sorted(key(b) for b in base) == sorted(key(b) for b in shuffled)
    assert [key(b) for b in base] != [key(b) for b in shuffled]


def test_append_clean_adds_uncorrupted_final_domain(source_spec):
    order = (CorruptionSpec("mean_shift", 5, seed=0),)
    scenario = ScenarioSpec(mode=CONTINUAL, domain_order=order, batch_size=64, append_clean=True)
    batches = compose_stream(scenario, source_spec, 640, seed=0)[0].batches
    assert {b.domain_id for b in batches} == {0, 1}
    clean = np.vstack([b.features for b in batches if b.domain_id == 1])
    labels = np.concatenate([b.labels for b in batches if b.domain_id == 1])
    # Clean segment matches the source distribution: the oracle stays accurate.
    assert nearest_mean_error(class_means(source_spec), clean, labels) < 0.15


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(mode=EPISODIC, domain_order=())
    with pytest.raises(ValueError):
        ScenarioSpec(mode="batch", domain_order=(CorruptionSpec("mean_shift", 1),))
    with pytest.raises(ValueError):
        ScenarioSpec(mode=EPISODIC, domain_order=(CorruptionSpec("mean_shift", 1),),
                     append_clean=True)


def test_default_suite_is_15_domains_at_severity_5():
    suite = default_corruption_suite()
    assert len(suite) == 15
    assert all(s.severity == 5 for s in suite)
    assert len(set(suite)) == 15
