"""Source data generation, pretraining, corruptions, and stream composition."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from streamgate import stream
from streamgate._checks import check_real
from streamgate.adapters import Constant, NormStatAdapter, Stochastic
from streamgate.clock import StreamClock, relative_adaptation_speed
from streamgate.model import params_fingerprint
from streamgate.protocol import ProtocolConfig
from streamgate.stream import (
    CONTINUAL,
    EPISODIC,
    ROTATION,
    Batch,
    CorruptionSpec,
    ScenarioSpec,
    SourceSpec,
    StreamSegment,
    TrainSpec,
    TrainingError,
    _class_sums,
    apply_corruption,
    class_means,
    compose_stream,
    default_corruption_suite,
    default_scenario,
    make_source_dataset,
    pretrain_source_model,
)
from doubles import (
    _reference_sample_domain,
    model_error,
    nearest_mean_error,
    reference_compose_stream,
    reference_corruption_suite,
    reference_pretrain_source_model,
    rotation_matrix,
    tiny_params,
)


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
    features, labels = _reference_sample_domain(source_spec, None, 20_000, seed=77)
    assert nearest_mean_error(class_means(source_spec), features, labels) < 0.15


def test_pretrain_drives_separable_problem_to_zero_error():
    spec = SourceSpec(num_classes=2, dim=2, class_separation=20.0,
                      samples_per_class=100, seed=3)
    features, labels = make_source_dataset(spec)
    params = pretrain_source_model(features, labels, TrainSpec(iterations=500))
    assert model_error(params, features, labels) == 0.0


def test_pretrain_regime_on_default_spec(source_spec, pretrained):
    features, labels = _reference_sample_domain(source_spec, None, 10_000, seed=5)
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


# Rates that are not powers of two, so that scaling by one is not exact and
# moving the scaling to another operand would change the bits.
@pytest.mark.parametrize("num_classes,dim,samples_per_class,iterations,learning_rate", [
    (2, 5, 300, 200, 0.3),
    (8, 16, 200, 300, 0.7),
    (10, 7, 60, 150, 0.3),
    (17, 9, 111, 300, 0.9),
])
def test_pretrain_matches_the_reference_bit_for_bit(num_classes, dim, samples_per_class,
                                                    iterations, learning_rate):
    spec = SourceSpec(num_classes=num_classes, dim=dim, samples_per_class=samples_per_class,
                      seed=num_classes)
    features, labels = make_source_dataset(spec)
    hyper = TrainSpec(learning_rate=learning_rate, iterations=iterations)
    assert (params_fingerprint(pretrain_source_model(features, labels, hyper))
            == params_fingerprint(reference_pretrain_source_model(features, labels, hyper)))


def test_pretrain_matches_the_reference_on_the_default_spec(source_spec, pretrained):
    reference = reference_pretrain_source_model(*make_source_dataset(source_spec))
    assert params_fingerprint(pretrained) == params_fingerprint(reference)


@settings(max_examples=40, deadline=None)
@given(num_classes=st.integers(1, 40), dim=st.integers(1, 64), n=st.integers(1, 300),
       skip=st.booleans(), learning_rate=st.floats(0.01, 2.0), iterations=st.integers(0, 25),
       dtype=st.sampled_from(["int64", "int8", "uint8", "uint64"]), seed=st.integers(0, 2**32 - 1))
@example(num_classes=8, dim=32, n=200, skip=False, learning_rate=0.3, iterations=20,
         dtype="int64", seed=0)
@example(num_classes=9, dim=7, n=150, skip=True, learning_rate=0.7, iterations=20,
         dtype="uint8", seed=1)
@example(num_classes=16, dim=64, n=300, skip=False, learning_rate=0.9, iterations=20,
         dtype="int8", seed=2)
@example(num_classes=17, dim=3, n=250, skip=True, learning_rate=0.3, iterations=20,
         dtype="uint64", seed=3)
@example(num_classes=5, dim=1, n=1, skip=False, learning_rate=0.5, iterations=3,
         dtype="int64", seed=4)
def test_pretrain_matches_the_reference_on_any_shape(num_classes, dim, n, skip, learning_rate,
                                                     iterations, dtype, seed):
    # The loop keeps the reference's bits in every shape: class-major elementwise work,
    # pairwise class sums, labels that leave a class below the largest with no row, and
    # narrow label dtypes, in which labels * n would overflow.
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n).astype(dtype)
    labels[-1] = num_classes - 1
    if skip and num_classes > 1:
        labels[labels == num_classes // 2 - 1] = num_classes - 1
    features = rng.normal(size=(n, dim)) + rng.normal(size=(num_classes, dim))[labels] * 2.0
    hyper = TrainSpec(learning_rate=learning_rate, iterations=iterations)
    assert (params_fingerprint(pretrain_source_model(features, labels, hyper))
            == params_fingerprint(reference_pretrain_source_model(features, labels, hyper)))


def test_class_sums_add_in_the_order_of_a_numpy_row_sum():
    # pretrain_source_model's class sums re-implement numpy's pairwise order; another
    # numpy order would move the pretrained bits, so this fails first.
    rng = np.random.default_rng(0)
    for k in range(1, 301):
        rows = rng.normal(size=(7, k)) * 10.0 ** rng.integers(-8, 9, size=(7, k))
        expected = rows.sum(axis=-1)
        assert _class_sums(rows.T.copy()).tobytes() == expected.tobytes(), k


def test_pretrain_diverges_at_the_reference_iteration():
    spec = SourceSpec(num_classes=3, dim=4, samples_per_class=30, seed=2)
    features, labels = make_source_dataset(spec)
    hyper = TrainSpec(learning_rate=1e308, iterations=5)
    messages = []
    for train in (pretrain_source_model, reference_pretrain_source_model):
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as info:
            train(features, labels, hyper)
        messages.append(str(info.value))
    assert messages == ["non-finite loss at iteration 1"] * 2


def test_rotation_is_orthogonal_and_invertible():
    spec = CorruptionSpec("rotation", 4, seed=9)
    rot = rotation_matrix(spec, dim=12)
    assert np.allclose(rot.T @ rot, np.eye(12), atol=1e-10)
    x = np.random.default_rng(1).normal(size=(20, 12))
    rotated = apply_corruption(x, spec)
    assert np.allclose(rotated @ rot, x, atol=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 12, 32])
def test_rotation_matches_the_scipy_oracle_and_is_orthogonal(dim):
    for severity in range(1, 6):
        for seed in range(3):
            spec = CorruptionSpec(ROTATION, severity, seed)
            rot = apply_corruption(np.eye(dim), spec).T
            assert np.abs(rot - rotation_matrix(spec, dim)).max() <= 1e-13
            assert np.abs(rot @ rot.T - np.eye(dim)).max() <= 1e-13


ROTATION_DIGEST = """\
import hashlib
from streamgate.stream import ROTATION, ScenarioSpec, SourceSpec, compose_stream, \\
    default_corruption_suite
order = tuple(spec for spec in default_corruption_suite() if spec.kind == ROTATION)
segments = compose_stream(ScenarioSpec("episodic", order), SourceSpec())
print(hashlib.sha256(b"".join(b.features.tobytes() for s in segments for b in s.batches))
      .hexdigest())
"""


def test_the_rotation_keeps_its_bits_at_two_blas_threads():
    # The eigendecomposition and the products run on numpy's BLAS, which may split
    # them across threads.  Two threads and never more, which any two-core machine runs.
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run([sys.executable, "-c", ROTATION_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_corruptions_preserve_shape_and_determinism():
    x = np.random.default_rng(2).normal(size=(32, 16))
    for spec in default_corruption_suite(severity=3)[:8]:
        a = apply_corruption(x, spec)
        b = apply_corruption(x, spec)
        assert a.shape == x.shape
        assert np.array_equal(a, b)


def test_gaussian_noise_error_monotone_in_severity(source_spec, pretrained):
    # Averaged over 5 corruption seeds at each severity.
    features, labels = _reference_sample_domain(source_spec, None, 4000, seed=11)
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


def test_specs_reject_a_negative_seed_naming_it():
    # numpy would reject the seed only at the spec's first draw.
    for make in (lambda: CorruptionSpec("mean_shift", 5, seed=-1), lambda: SourceSpec(seed=-1)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            make()


@pytest.mark.parametrize("make", [lambda seed: CorruptionSpec("mean_shift", 5, seed=seed),
                                  lambda seed: SourceSpec(seed=seed),
                                  lambda seed: Stochastic(1.0, 0.0, seed=seed)],
                         ids=["corruption", "source", "stochastic"])
@pytest.mark.parametrize("seed", [-1, True, 1.5])
def test_seeded_specs_reject_a_seed_that_is_no_non_negative_integer(make, seed):
    # numpy fails on -1 and 1.5 only at the first draw, unnamed, and takes True as 1.
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        make(seed)
    assert make(np.int64(3)).seed == 3


@pytest.mark.parametrize("spec,field", [(SourceSpec, "class_separation"),
                                        (TrainSpec, "learning_rate")])
@pytest.mark.parametrize("value,rule", [
    (float("nan"), "positive and finite"), (0.0, "positive and finite"),
    (-1.0, "positive and finite"), (float("inf"), "positive and finite"),
    (True, "a real number"), ("0.5", "a real number"),
])
def test_specs_reject_a_rate_that_is_not_positive_naming_it(spec, field, value, rule):
    # An infinite rate would fail only later, in training, under another name; True
    # would train at rate 1, and a string fail unnamed on the comparison.
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
        spec(**{field: value})


def test_a_fraction_learning_rate_pretrains_as_its_float():
    # TrainSpec(learning_rate=Fraction(1, 2)) made pretraining raise UFuncTypeError.
    features, labels = make_source_dataset(SourceSpec(num_classes=3, dim=4, samples_per_class=20))
    fingerprints = [params_fingerprint(pretrain_source_model(
        features, labels, TrainSpec(learning_rate=value, iterations=20)))
        for value in (Fraction(1, 2), 0.5)]
    assert fingerprints[0] == fingerprints[1]


@pytest.mark.parametrize("make,field,rule", [
    (lambda v: SourceSpec(num_classes=v), "num_classes", "an integer"),
    (lambda v: SourceSpec(dim=v), "dim", "an integer"),
    (lambda v: SourceSpec(samples_per_class=v), "samples_per_class", "an integer"),
    (lambda v: TrainSpec(iterations=v), "iterations", "a non-negative integer"),
    (lambda v: ScenarioSpec(EPISODIC, default_corruption_suite(), batch_size=v), "batch_size",
     "an integer"),
    (lambda v: CorruptionSpec(ROTATION, v), "severity", "an integer"),
    (lambda v: Batch(np.zeros((2, 3)), np.zeros(2, dtype=int), domain_id=0, t=v), "t",
     "a non-negative integer"),
    (lambda v: Batch(np.zeros((2, 3)), np.zeros(2, dtype=int), domain_id=v, t=0), "domain_id",
     "an integer"),
], ids=["num_classes", "dim", "samples_per_class", "iterations", "batch_size", "severity", "t",
        "domain_id"])
@pytest.mark.parametrize("value", [True, 4.0])
def test_integer_fields_reject_a_non_integer_naming_the_field(make, field, rule, value):
    # range() and numpy take True as 1, and fail on a float only later, unnamed.
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {rule}, got {value!r}")):
        make(value)
    assert getattr(make(np.int64(4)), field) == 4


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("rule,inside,outside", [
    ("positive and finite", [5e-324, 1, 2.5], [0.0, -1.0, INF, -INF, NAN]),
    ("non-negative and finite", [0.0, 0, 3.0], [-5e-324, INF, NAN]),
    ("positive", [5e-324, 1, INF], [0.0, -1.0, NAN]),
    ("in [0, 1]", [0.0, 0, 0.5, 1], [-5e-324, 1.5, INF, NAN]),
    ("in (0, 1]", [5e-324, 0.5, 1.0], [0.0, -1.0, 1.5, NAN]),
])
def test_check_real_holds_a_value_to_the_rule_it_names(rule, inside, outside):
    # The range is tested on the float that runs, and that float is returned.
    for real in [*inside, *map(np.float64, inside), Fraction(1, 2), 1, np.float32(0.5)]:
        result = check_real(real, "x", rule)
        assert type(result) is float and result == float(real)
    for value in outside:
        with pytest.raises(ValueError, match=re.escape(f"x must be {rule}, got {value!r}")):
            check_real(value, "x", rule)
    with pytest.raises(ValueError, match=re.escape("x must be a real number, got True")):
        check_real(True, "x", rule)


def test_check_real_reads_a_value_too_large_for_a_float_as_infinite():
    assert check_real(10**400, "x") == INF
    assert check_real(Fraction(-10**400), "x") == -INF


@pytest.mark.parametrize("make,message", [
    (lambda: NormStatAdapter(tiny_params(), prior_weight=1.5),
     "prior_weight must be in [0, 1], got 1.5"),
    (lambda: StreamClock(eta=1.5), "eta must be in (0, 1], got 1.5"),
    (lambda: ProtocolConfig(alpha=-0.5), "alpha must be in [0, 1], got -0.5"),
    # A bad range on the first field is reported before a bad type on the second.
    (lambda: StreamClock(eta=0.0, base_rate="1"), "eta must be in (0, 1], got 0.0"),
    # Each value passed its range as given and then ran as a float of 0 or none at all:
    # a ZeroDivisionError, a bare OverflowError, or a learning rate of 0.0.
    (lambda: relative_adaptation_speed(Fraction(1, 10**400), 1.0),
     "effective_interval must be positive and finite, got Fraction(1, 1000"),
    (lambda: relative_adaptation_speed(1.0, 10**400),
     "elapsed must be positive and finite, got 1000"),
    (lambda: relative_adaptation_speed(1.0, -10**400),
     "elapsed must be positive and finite, got -1000"),
    (lambda: TrainSpec(learning_rate=Fraction(1, 10**400)),
     "learning_rate must be positive and finite, got Fraction(1, 1000"),
    # base_rate's own range shows the value given, not the float it is stored as.
    (lambda: StreamClock(base_rate=10**400), "base_rate must be positive and finite, got 1000"),
    (lambda: StreamClock(base_rate=0), "base_rate must be positive and finite, got 0"),
    (lambda: StreamClock(base_rate=np.nan), "base_rate must be positive and finite, got nan"),
    (lambda: StreamClock(base_rate=1e-320),
     "base_rate must give a positive, finite interval 1 / (eta * base_rate), got base_rate=1e-320"),
])
def test_a_range_error_shows_the_value(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_a_real_field_holds_its_float():
    # These three fields kept the object they were given.
    assert type(Constant(Fraction(3, 2)).seconds) is float
    assert type(SourceSpec(class_separation=Fraction(3)).class_separation) is float
    assert SourceSpec(class_separation=Fraction(3)) == SourceSpec(class_separation=3.0)
    assert type(ProtocolConfig(alpha=np.float32(0.5)).alpha) is float


def three_domain_scenario(mode):
    order = tuple(CorruptionSpec("mean_shift", 5, seed=s) for s in range(3))
    return ScenarioSpec(mode=mode, domain_order=order, batch_size=64)


@pytest.mark.parametrize("make,message", [
    (lambda: SourceSpec(samples_per_class=0), "samples_per_class must be >= 1, got 0"),
    (lambda: SourceSpec(num_classes=1), "num_classes must be >= 2, got 1"),
    (lambda: SourceSpec(dim=0), "dim must be >= 1, got 0"),
    (lambda: TrainSpec(iterations=-1), "iterations must be a non-negative integer, got -1"),
    (lambda: ScenarioSpec(EPISODIC, default_corruption_suite(), batch_size=0),
     "batch_size must be >= 1, got 0"),
    (lambda: CorruptionSpec(ROTATION, 6), "severity must be in 1..5, got 6"),
    (lambda: Batch(np.zeros((2, 3)), np.zeros(3, dtype=int), domain_id=0, t=0),
     "features and labels must be non-empty and aligned"),
    (lambda: Batch(np.zeros((0, 3)), np.zeros(0, dtype=int), domain_id=0, t=0),
     "features and labels must be non-empty and aligned"),
    # A (B, 1) column of labels would compare against (B,) predictions as (B, B).
    (lambda: Batch(np.zeros((8, 3)), np.zeros((8, 1), dtype=int), domain_id=0, t=0),
     "shaped (..., B, d) and (..., B), got (8, 3) and (8, 1)"),
    (lambda: Batch(np.zeros(3), np.zeros(3, dtype=int), domain_id=0, t=0),
     "shaped (..., B, d) and (..., B), got (3,) and (3,)"),
    # An untraced run would report a row for domain 0.5; a traced one fails mid-run.
    (lambda: Batch(np.zeros((2, 3)), np.zeros(2, dtype=int), domain_id=0.5, t=0),
     "domain_id must be an integer, got 0.5"),
    # Any truthy value would append a clean segment or reset the adapter.
    (lambda: ScenarioSpec(CONTINUAL, default_corruption_suite()[:2], append_clean="no"),
     "append_clean must be a bool, got 'no'"),
    (lambda: ScenarioSpec(EPISODIC, default_corruption_suite()[:2], append_clean=0),
     "append_clean must be a bool, got 0"),
    (lambda: StreamSegment(reset="no"), "reset must be a bool, got 'no'"),
    (lambda: StreamSegment(reset=1), "reset must be a bool, got 1"),
    (lambda: pretrain_source_model(np.zeros((0, 3)), np.zeros(0, dtype=int)),
     "dataset is empty"),
    (lambda: compose_stream(three_domain_scenario(EPISODIC), SourceSpec(), 63),
     "samples_per_domain must cover at least one batch"),
    # numpy fails on a float count and seed unnamed, takes True as 1 and -1 at the first draw.
    (lambda: compose_stream(three_domain_scenario(EPISODIC), SourceSpec(), 640.0),
     "samples_per_domain must be an integer, got 640.0"),
    (lambda: compose_stream(three_domain_scenario(EPISODIC), SourceSpec(), True),
     "samples_per_domain must be an integer, got True"),
    (lambda: compose_stream(three_domain_scenario(EPISODIC), SourceSpec(), 640, seed=True),
     "seed must be a non-negative integer, got True"),
    (lambda: compose_stream(three_domain_scenario(EPISODIC), SourceSpec(), 640, seed=1.5),
     "seed must be a non-negative integer, got 1.5"),
    (lambda: compose_stream(three_domain_scenario(EPISODIC), SourceSpec(), 640, seed=-1),
     "seed must be a non-negative integer, got -1"),
    # A label of -1 would train as the last class and shrink num_classes.
    (lambda: pretrain_source_model(np.zeros((3, 2)), np.array([0, 1, -1])),
     "labels must be non-negative, got -1"),
    (lambda: pretrain_source_model(np.zeros((3, 2)), np.array([0.0, 1.0, 2.0])),
     "labels must be integer class indices, got dtype float64"),
    (lambda: pretrain_source_model(np.zeros((3, 2)), np.array([0, 1])),
     "labels must have shape (3,) to match features, got (2,)"),
    (lambda: pretrain_source_model(np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0, 1])),
     "features must be finite, got 1 non-finite values"),
    (lambda: pretrain_source_model(np.zeros(3), np.array([0, 1, 2])),
     "features must be 2-D (samples, dim), got shape (3,)"),
], ids=["no-samples-per-class", "one-class", "no-dim", "negative-iterations",
        "no-batch-size", "severity-6", "misaligned-batch", "empty-batch", "column-labels-batch",
        "1-d-features-batch", "float-domain-id", "string-append-clean", "int-append-clean",
        "string-reset", "int-reset", "empty-dataset",
        "domain-below-one-batch", "float-samples-per-domain", "bool-samples-per-domain",
        "bool-seed", "float-seed", "negative-seed", "negative-label", "float-labels",
        "labels-misaligned", "nan-features", "1-d-features"])
def test_bad_input_is_rejected_naming_it(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


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


@pytest.mark.parametrize("severity", [1, 2, 3, 4, 5])
def test_default_suite_matches_the_reference(severity):
    assert default_corruption_suite(severity) == reference_corruption_suite(severity)


@pytest.mark.parametrize("mode,append_clean", [(EPISODIC, False), (CONTINUAL, False),
                                               (CONTINUAL, True)],
                         ids=["episodic", "continual", "continual-clean"])
@pytest.mark.parametrize("samples,batch_size", [(640, 64), (640, 50), (64, 64)],
                         ids=["divides", "partial", "one-batch"])
@pytest.mark.parametrize("seed", [0, 3])
def test_composed_stream_matches_the_reference(mode, append_clean, samples, batch_size, seed):
    source = SourceSpec(samples_per_class=50)
    scenario = ScenarioSpec(mode, reference_corruption_suite(5), batch_size, append_clean)
    got = compose_stream(scenario, source, samples, seed=seed)
    want = reference_compose_stream(scenario, source, samples, seed)
    assert [seg.reset for seg in got] == [seg.reset for seg in want]
    assert [len(seg.batches) for seg in got] == [len(seg.batches) for seg in want]
    for seg, ref in zip(got, want):
        for a, b in zip(seg.batches, ref.batches):
            assert (a.domain_id, a.t) == (b.domain_id, b.t)
            assert a.features.shape == b.features.shape
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.dtype == b.labels.dtype and a.labels.tobytes() == b.labels.tobytes()


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


def test_compose_stream_joins_its_helper_when_it_returns_and_when_it_raises(
        source_spec, monkeypatch):
    threads = threading.active_count()
    compose_stream(three_domain_scenario(EPISODIC), source_spec, 640, seed=0)
    assert threading.active_count() == threads
    corrupted = []

    def third_domain_fails(features, spec):
        corrupted.append(spec)
        if len(corrupted) == 3:
            raise RuntimeError("third domain")
        return apply_corruption(features, spec)

    # Domain 4's fill is queued when domain 3 raises: the helper finishes it and is joined.
    monkeypatch.setattr(stream, "apply_corruption", third_domain_fails)
    with pytest.raises(RuntimeError, match="third domain"):
        compose_stream(default_scenario(), source_spec, 640, seed=0)
    assert len(corrupted) == 3 and threading.active_count() == threads


class _RecordedGenerator:
    """A generator whose buffer fills (``standard_normal(out=...)``) record their thread,
    and raise if ``failing`` is set."""

    def __init__(self, generator, fills: list, failing: bool) -> None:
        self.generator, self.fills, self.failing = generator, fills, failing

    def __getattr__(self, name):
        return getattr(self.generator, name)

    def standard_normal(self, *args, **kwargs):
        if "out" in kwargs:
            self.fills.append(threading.current_thread())
            if self.failing:
                raise FloatingPointError("no normals")
        return self.generator.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("failing", [False, True], ids=["fills", "raises"])
def test_one_helper_thread_fills_every_domain_and_its_error_reaches_the_caller(
        source_spec, monkeypatch, failing):
    default_rng, fills = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: _RecordedGenerator(
        default_rng(*args, **kwargs), fills, failing))
    threads = threading.active_count()
    if failing:
        with pytest.raises(FloatingPointError, match="no normals"):
            compose_stream(three_domain_scenario(CONTINUAL), source_spec, 640, seed=0)
    else:
        compose_stream(three_domain_scenario(CONTINUAL), source_spec, 640, seed=0)
        assert len(fills) == 3
    assert threading.active_count() == threads
    assert len(set(fills)) == 1 and fills[0] is not threading.main_thread()


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
