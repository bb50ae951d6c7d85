"""Acceptance suite: one test per release criterion, printed pass/fail per line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from streamgate.adapters import Constant, make_adapter
from streamgate.clock import StreamClock, relative_adaptation_speed
from streamgate.model import params_fingerprint
from streamgate.protocol import (
    FixedModulo,
    ProtocolConfig,
    run_segments,
    run_stream,
)
from streamgate.report import ACTION_ADAPTED
from streamgate.stream import (
    CorruptionSpec,
    ScenarioSpec,
    compose_stream,
    default_scenario,
)
from streamgate.trace import adapted_only_error, replay_online
from streamgate.cli import main as cli_main
from doubles import FixedErrorAdapter, tiny_params, tiny_stream

SEEDS = (0, 1, 2)

ALL_ADAPTERS = ["source", "norm_stat", "entropy_min", "pseudo_label",
                "rejection_entropy", "input_restore"]


def announce(number: int, name: str) -> None:
    print(f"[criterion {number:2d}] PASS — {name}")


def bench_segments(source_spec, seed, samples=5000):
    return compose_stream(default_scenario(), source_spec, samples, seed=seed)


def scenario_run(source_spec, pretrained, adapter_name, protocol, seed,
                 eta=1.0, latency=None, **hyper):
    kwargs = dict(hyper)
    if latency is not None:
        kwargs["latency"] = latency
    adapter = make_adapter(adapter_name, pretrained, **kwargs)
    cfg = ProtocolConfig(protocol=protocol, seed=seed)
    return run_segments(bench_segments(source_spec, seed), adapter, pretrained, cfg,
                        StreamClock(eta=eta))


def test_criterion_1_offline_recovery(mini_spec, mini_pretrained):
    """FixedModulo(1) online runs are bit-identical to offline for every adapter."""
    scenario = ScenarioSpec(
        mode="episodic",
        domain_order=(CorruptionSpec("mean_shift", 5, seed=0),
                      CorruptionSpec("gaussian_noise", 5, seed=0)),
        batch_size=32,
    )
    for name in ALL_ADAPTERS:
        for seed in SEEDS:
            segments = compose_stream(scenario, mini_spec, 320, seed=seed)
            stream = [b for seg in segments for b in seg.batches]
            # re-tick the concatenated stream for a single-run comparison
            stream = [replace(b, t=i) for i, b in enumerate(stream)]
            preds_off, preds_mod = [], []
            off = run_stream(stream, make_adapter(name, mini_pretrained), mini_pretrained,
                              ProtocolConfig(protocol="offline", seed=seed),
                              predictions_out=preds_off)
            mod = run_stream(stream, make_adapter(name, mini_pretrained), mini_pretrained,
                             ProtocolConfig(protocol="online", schedule_mode=FixedModulo(1),
                                            seed=seed),
                             predictions_out=preds_mod)
            assert replace(mod, protocol="offline") == off, (name, seed)
            assert len(preds_off) == len(preds_mod)
            assert all(np.array_equal(a, b) for a, b in zip(preds_off, preds_mod)), (name, seed)
    announce(1, "offline recovery: FixedModulo(1) is bit-identical to offline")


@pytest.mark.parametrize("k", [1, 2, 3, 12, 54, 810])
def test_criterion_2_skip_fraction_exactness(k):
    params = tiny_params(dim=2, num_classes=2, seed=0)
    for n in (10, 64, 1000):
        stream = tiny_stream(n, batch_size=2, dim=2, num_classes=2, seed=1)
        adapter = FixedErrorAdapter(params, latency=Constant(float(k)), error_rate=0.0)
        report = run_stream(stream, adapter, params,
                            ProtocolConfig(protocol="online", seed=0))
        adapted = sum(r.action == ACTION_ADAPTED for r in report.schedule)
        assert adapted == -(-n // k), (n, k)
    if k == 810:
        announce(2, "skip-fraction exactness: ceil(N/k) adapted steps for all profiles")


def test_criterion_3_ceiling_formula_against_rational_oracle():
    rng = np.random.default_rng(2024)

    def oracle(interval: float, elapsed: float) -> int:
        fi, fe = Fraction(interval), Fraction(elapsed)
        num = fe.numerator * fi.denominator
        den = fe.denominator * fi.numerator
        return max(-(-num // den), 1)

    checked = 0
    for _ in range(4000):
        interval = float(rng.uniform(1e-4, 1e4))
        elapsed = float(rng.uniform(1e-4, 1e4))
        assert relative_adaptation_speed(interval, elapsed) == oracle(interval, elapsed)
        checked += 1
    for _ in range(3000):
        p, q, r, s = (int(v) for v in rng.integers(1, 10_000, size=4))
        interval, elapsed = p / q, r / s
        assert relative_adaptation_speed(interval, elapsed) == oracle(interval, elapsed)
        checked += 1
    for _ in range(3000):
        # exact-multiple boundaries: elapsed is an integer multiple of interval
        k = int(rng.integers(1, 1000))
        interval = float(rng.uniform(1e-3, 1e3))
        elapsed = k * interval
        if elapsed / interval == k:  # representable product
            assert relative_adaptation_speed(interval, elapsed) == oracle(interval, elapsed)
        checked += 1
    assert checked == 10_000
    announce(3, "ceiling formula matches the exact rational oracle on 10,000 inputs")


def test_criterion_4_gradient_checks():
    from streamgate.adapters import (
        cross_entropy_gradient,
        entropy_gradient,
        mean_prediction_entropy,
        pseudo_label_cross_entropy,
    )

    rng = np.random.default_rng(7)
    step = 1e-5

    def finite_diff(loss, params, field):
        grad = np.zeros_like(getattr(params, field))
        for j in range(grad.shape[0]):
            plus, minus = params.copy(), params.copy()
            getattr(plus, field)[j] += step
            getattr(minus, field)[j] -= step
            grad[j] = (loss(plus) - loss(minus)) / (2 * step)
        return grad

    def rel_err(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)

    for i in range(100):
        dim = int(rng.integers(2, 9))
        num_classes = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 9))
        params = tiny_params(dim=dim, num_classes=num_classes, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(batch, dim)) * rng.uniform(0.5, 2.0)
        labels = rng.integers(0, num_classes, size=batch)

        g_gamma, g_beta = entropy_gradient(params, x)
        assert rel_err(g_gamma, finite_diff(lambda p: mean_prediction_entropy(p, x),
                                            params, "gamma")) < 1e-5
        assert rel_err(g_beta, finite_diff(lambda p: mean_prediction_entropy(p, x),
                                           params, "beta")) < 1e-5

        c_gamma, c_beta = cross_entropy_gradient(params, x, labels)
        assert rel_err(c_gamma, finite_diff(lambda p: pseudo_label_cross_entropy(p, x, labels),
                                            params, "gamma")) < 1e-5
        assert rel_err(c_beta, finite_diff(lambda p: pseudo_label_cross_entropy(p, x, labels),
                                           params, "beta")) < 1e-5
    announce(4, "entropy and pseudo-label gradients match central differences (100 instances)")


def test_criterion_5_single_model_mixture(mini_spec, mini_pretrained):
    num_classes = 10
    batch_size = 50
    n_batches = 200  # 10,000 samples
    params = tiny_params(dim=4, num_classes=num_classes, seed=3)
    stream = tiny_stream(n_batches, batch_size=batch_size, dim=4,
                         num_classes=num_classes, seed=4)
    adapter = FixedErrorAdapter(params, latency=Constant(2.0), error_rate=0.2)
    report = run_stream(stream, adapter, params,
                              ProtocolConfig(protocol="single_model", seed=9),
                              num_classes=num_classes)
    total = n_batches * batch_size
    expected = 0.5 * 0.2 + 0.5 * (1 - 1 / num_classes)  # 0.55
    se = np.sqrt(expected * (1 - expected) / total)
    assert abs(report.avg_error - expected) < 3 * se, report.avg_error

    # A keeps-pace adapter is indistinguishable from the dual-model online run.
    scenario = ScenarioSpec(mode="episodic",
                            domain_order=(CorruptionSpec("mean_shift", 5, seed=0),),
                            batch_size=32)
    segments = compose_stream(scenario, mini_spec, 320, seed=0)
    single = run_segments(segments, make_adapter("norm_stat", mini_pretrained),
                          mini_pretrained,
                          ProtocolConfig(protocol="single_model", seed=0),
                          num_classes=mini_spec.num_classes)
    online = run_segments(segments, make_adapter("norm_stat", mini_pretrained),
                          mini_pretrained, ProtocolConfig(protocol="online", seed=0))
    assert replace(single, protocol="online") == online
    announce(5, "single-model mixture matches the analytic oracle; C=1 unaffected")


def test_criterion_6_trend_reproduction(source_spec, pretrained):
    norm_deltas, entropy_flags, restore_gaps = [], [], []
    for seed in SEEDS:
        n_off = scenario_run(source_spec, pretrained, "norm_stat", "offline", seed)
        n_on = scenario_run(source_spec, pretrained, "norm_stat", "online", seed)
        assert n_on.avg_error == n_off.avg_error  # keeps pace: zero penalty
        norm_deltas.append(n_on.avg_error - n_off.avg_error)

        e_off = scenario_run(source_spec, pretrained, "entropy_min", "offline", seed,
                             latency=Constant(3.0))
        e_on = scenario_run(source_spec, pretrained, "entropy_min", "online", seed,
                            latency=Constant(3.0))
        entropy_flags.append(e_on.avg_error > e_off.avg_error)

        s_on = scenario_run(source_spec, pretrained, "source", "online", seed)
        r_on = scenario_run(source_spec, pretrained, "input_restore", "online", seed,
                            latency=Constant(810.0))
        restore_gaps.append(abs(r_on.avg_error - s_on.avg_error))

    assert all(d == 0.0 for d in norm_deltas)
    assert sum(entropy_flags) >= 2, entropy_flags
    assert all(gap < 0.01 for gap in restore_gaps), restore_gaps
    announce(6, "trend reproduction: norm-stat unaffected, entropy penalized, "
                "slow restoration collapses to the source model")


def test_criterion_7_eta_sweep_monotonicity(source_spec, pretrained):
    grid = (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
    by_eta = {eta: [] for eta in grid}
    offline_errors = []
    for seed in SEEDS:
        off = scenario_run(source_spec, pretrained, "entropy_min", "offline", seed,
                           latency=Constant(3.0))
        offline_errors.append(off.avg_error)
        for eta in grid:
            on = scenario_run(source_spec, pretrained, "entropy_min", "online", seed,
                              eta=eta, latency=Constant(3.0))
            by_eta[eta].append(on.avg_error)
    means = {eta: float(np.mean(v)) for eta, v in by_eta.items()}
    offline_mean = float(np.mean(offline_errors))
    assert abs(means[1 / 4] - offline_mean) < 0.001  # C=1 at eta<=1/4
    ordered = [means[eta] for eta in sorted(grid)]  # increasing eta
    assert all(b >= a - 1e-12 for a, b in zip(ordered, ordered[1:])), means
    announce(7, "eta sweep: error non-increasing as the stream slows; "
                "eta=1/4 recovers the offline error")


def test_criterion_8_episodic_and_continual_semantics(source_spec, pretrained):
    suite = default_scenario().domain_order[:3]
    episodic = ScenarioSpec(mode="episodic", domain_order=suite, batch_size=64)
    segments = compose_stream(episodic, source_spec, 1280, seed=0)
    cfg = ProtocolConfig(protocol="online", seed=0)
    adapter = make_adapter("entropy_min", pretrained, latency=Constant(3.0))
    merged = run_segments(segments, adapter, pretrained, cfg)

    independent = []
    for segment in segments:
        fresh = make_adapter("entropy_min", pretrained, latency=Constant(3.0))
        independent.append(run_stream(segment.batches, fresh, pretrained, cfg))
    assert merged.per_domain == [d for r in independent for d in r.per_domain]
    assert merged.schedule == [rec for r in independent for rec in r.schedule]

    continual = ScenarioSpec(mode="continual", domain_order=suite, batch_size=64)
    c_segments = compose_stream(continual, source_spec, 1280, seed=0)
    c_adapter = make_adapter("entropy_min", pretrained, latency=Constant(3.0))
    c_report = run_segments(c_segments, c_adapter, pretrained, cfg)
    reset_fp = params_fingerprint(pretrained)
    assert c_report.fingerprints is not None and len(c_report.fingerprints) == 3
    assert c_report.fingerprints[0] == reset_fp
    assert all(fp != reset_fp for fp in c_report.fingerprints[1:])
    announce(8, "episodic equals independent per-domain runs; continual carries state")


def test_criterion_9_trace_replay_closure(source_spec, pretrained):
    scenario = ScenarioSpec(
        mode="continual",
        domain_order=(CorruptionSpec("mean_shift", 5, seed=0),
                      CorruptionSpec("gaussian_noise", 5, seed=1)),
        batch_size=64,
    )
    segments = compose_stream(scenario, source_spec, 1280, seed=1)
    stream = segments[0].batches
    cfg = ProtocolConfig(protocol="online", seed=1)
    trace = []
    adapter = make_adapter("entropy_min", pretrained, latency=Constant(3.0))
    original = run_stream(stream, adapter, pretrained, cfg, trace_out=trace)

    replayed = replay_online(trace, StreamClock())
    assert replayed.avg_error == original.avg_error
    assert replayed.adapted_fraction == original.adapted_fraction
    assert [d.error_rate for d in replayed.per_domain] == [
        d.error_rate for d in original.per_domain
    ]

    max_latency = max(r.latency for r in trace)
    slow = replay_online(trace, StreamClock(base_rate=1.0 / max_latency))
    assert slow.adapted_fraction == 1.0
    assert slow.avg_error == adapted_only_error(trace)
    announce(9, "trace replay reproduces its source run exactly and recovers "
                "the all-adapted error at a slow clock")


def test_criterion_10_cli_byte_determinism(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "source.samples_per_class=200\n"
        "pretrain.iterations=120\n"
        "stream.batch_size=32\n"
        "stream.samples_per_domain=320\n"
        "scenario.mode=episodic\n"
        "scenario.domains=mean_shift:5:0,rotation:5:1\n"
        "adapter.name=entropy_min,norm_stat\n"
        "protocol.mode=offline,online\n"
        "seeds=0,1\n"
    )
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["run", "--config", str(config), "--out", str(out),
                         "--emit-schedule"]) == 0
        outputs.append(out)
    for name in ["results.csv", "summary.json"]:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    schedules_a = sorted(p.name for p in outputs[0].glob("schedule_*.csv"))
    schedules_b = sorted(p.name for p in outputs[1].glob("schedule_*.csv"))
    assert schedules_a == schedules_b and schedules_a
    for name in schedules_a:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    announce(10, "CLI outputs are byte-identical across executions")
