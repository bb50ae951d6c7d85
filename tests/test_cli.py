"""CLI behavior: configs, outputs, exit codes, determinism."""

from __future__ import annotations

import json
import os
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from streamgate import adapters as adapters_mod
from streamgate import cli
from streamgate.cli import main, parse_config_text, build_experiment, ConfigError
from streamgate.report import RunReport, ScheduleRecord
from streamgate.stream import TrainSpec, compose_stream
from streamgate.trace import TraceRecord, write_trace
from doubles import FailingAdapter

BASE_CONFIG = """
# demo experiment, sized for test speed
source.samples_per_class=200
pretrain.iterations=120
stream.batch_size=32
stream.samples_per_domain=320
scenario.mode=episodic
scenario.domains=mean_shift:5:0,gaussian_noise:5:0
adapter.name=entropy_min
adapter.latency.kind=constant
adapter.latency.seconds=3.0
protocol.mode=offline,online
seeds=0,1,2
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*argv):
    return main(list(argv))


def test_parse_config_text_basics():
    cfg = parse_config_text("a.b=1\n# comment\nc=two  # trailing\n\na.b=3\n")
    assert cfg == {"a.b": "3", "c": "two"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("not a pair\n")


def test_build_experiment_rejects_unknown_key():
    # A known prefix is not enough: a mistyped key would otherwise be ignored.
    # pretrain.seed was once a key, but pretraining starts from zeros and never read it.
    for key in ("sourc.classes", "adapter.latncy.kind", "clock.etaa", "run.name",
                "pretrain.seed"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_experiment({key: "constant"})


def test_build_experiment_rejects_unknown_adapter():
    with pytest.raises(ConfigError, match="adapter.name"):
        build_experiment({"adapter.name": "diffusion"})


def test_run_emits_expected_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config_path), "--out", str(out)) == 0
    payload = json.loads((out / "summary.json").read_text())
    # 1 adapter x 2 protocols x 3 seeds
    assert len(payload["runs"]) == 6
    assert len(payload["deltas"]) == 3
    runs = {(r["adapter"], r["scenario"], r["seed"], r["protocol"]): r for r in payload["runs"]}
    for d in payload["deltas"]:
        key = (d["adapter"], d["scenario"], d["seed"])
        assert d["offline_error"] == runs[(*key, "offline")]["avg_error"]
        assert d["online_error"] == runs[(*key, "online")]["avg_error"]
        assert d["delta"] == d["online_error"] - d["offline_error"]
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 2  # header + per-domain rows


def test_the_cached_pretrained_set_is_read_only(mini_spec, mini_pretrained):
    # Every adapter of an invocation starts from this one set; a write would reach them all.
    train = TrainSpec(iterations=150)
    params = cli._pretrained(mini_spec, train)
    assert params is cli._pretrained(mini_spec, train)
    assert not params.flat.flags.writeable and not params.gamma.flags.writeable
    assert params.flat.tobytes() == mini_pretrained.flat.tobytes()
    with pytest.raises(ValueError, match="^gamma: this parameter set is held by a run"):
        params.gamma = params.gamma


def test_run_is_byte_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", str(config_path), "--out", str(out1)) == 0
    assert run_cli("run", "--config", str(config_path), "--out", str(out2)) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_unknown_adapter_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + "adapter.name=diffusion\n")
    assert run_cli("run", "--config", str(path)) == 2
    assert "adapter.name" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 2


def test_env_var_overrides_out(config_path, tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("STREAMGATE_OUT", str(env_out))
    assert run_cli("run", "--config", str(config_path), "--out", str(tmp_path / "ignored")) == 0
    assert (env_out / "results.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_emit_schedule_writes_per_run_ledgers(config_path, tmp_path):
    out = tmp_path / "sched"
    assert run_cli("run", "--config", str(config_path), "--out", str(out),
                   "--seeds", "0", "--emit-schedule") == 0
    files = sorted(out.glob("schedule_*.csv"))
    assert len(files) == 2  # offline + online for one seed
    header = files[0].read_text().splitlines()[0]
    assert header == "step,action,c_value,params_version,error_count,batch_size"


def test_summary_json_is_the_same_with_or_without_emit_schedule(config_path, tmp_path):
    outs = [tmp_path / "plain", tmp_path / "emit"]
    for out, flags in zip(outs, [(), ("--emit-schedule",)]):
        assert run_cli("run", "--config", str(config_path), "--out", str(out),
                       "--seeds", "0", *flags) == 0
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_sweep_grid_arity_and_order(config_path, tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(config_path), "--out", str(out),
                   "--eta-values", "1/4,1,1/2", "--seeds", "0,1") == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eta,adapter,seed,avg_error,adapted_fraction,mean_c"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6  # 3 etas x 1 adapter x 2 seeds
    etas = [float(r[0]) for r in rows]
    assert etas == sorted(etas)


def test_sweep_eta_one_matches_run_online(config_path, tmp_path):
    out_run = tmp_path / "run_out"
    out_sweep = tmp_path / "sweep_out"
    assert run_cli("run", "--config", str(config_path), "--out", str(out_run), "--seeds", "0") == 0
    assert run_cli("sweep", "--config", str(config_path), "--out", str(out_sweep),
                   "--eta-values", "1", "--seeds", "0") == 0
    runs = json.loads((out_run / "summary.json").read_text())["runs"]
    online = [r for r in runs if r["protocol"] == "online"][0]
    sweep_row = (out_sweep / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(sweep_row[3]) == online["avg_error"]


def test_sweep_rejects_eta_out_of_range(config_path, tmp_path):
    assert run_cli("sweep", "--config", str(config_path), "--out", str(tmp_path / "x"),
                   "--eta-values", "2") == 2


def test_replay_command(tmp_path):
    trace_path = tmp_path / "trace.csv"
    records = [
        TraceRecord(step=i, latency=4.0, correct_adapted=10, correct_fallback=5,
                    domain_id=0, batch_size=10)
        for i in range(8)
    ]
    write_trace(trace_path, records)
    out = tmp_path / "replay_out"
    assert run_cli("replay", "--trace", str(trace_path), "--out", str(out)) == 0
    payload = json.loads((out / "summary.json").read_text())
    run = payload["runs"][0]
    assert run["adapted_fraction"] == 0.25  # C=4 at interval 1

    out_slow = tmp_path / "replay_slow"
    assert run_cli("replay", "--trace", str(trace_path), "--out", str(out_slow),
                   "--eta", "0.25") == 0
    slow = json.loads((out_slow / "summary.json").read_text())["runs"][0]
    assert slow["adapted_fraction"] == 1.0  # interval quadrupled, C=1

    out_fast = tmp_path / "replay_fast"
    assert run_cli("replay", "--trace", str(trace_path), "--out", str(out_fast),
                   "--interval", "1e-300", "--eta", "1e-10") == 0
    fast = json.loads((out_fast / "summary.json").read_text())["runs"][0]
    # C = ceil(4 s / 1e-290 s) is past 2**63 and is summed exactly.
    assert fast["mean_c"] == fast["per_domain"][0]["mean_c"] == pytest.approx(4e290, rel=1e-15)


def test_replay_interval_is_never_rounded_down(tmp_path, capsys):
    # A step costing exactly the clock's interval L / eta takes one tick.
    for interval, eta in [
        (7.565469048855985, 1.0),  # 1 / (1 / L) < L
        # 1 / (e * r) < L / e, also for the largest r with 1 / r >= L.
        (0.09575981791266419, 0.3),
    ]:
        assert 1.0 / (eta * (1.0 / interval)) < interval / eta
        trace_path = tmp_path / "trace.csv"
        write_trace(trace_path, [
            TraceRecord(step=i, latency=interval / eta, correct_adapted=10, correct_fallback=5,
                        domain_id=0, batch_size=10)
            for i in range(4)
        ])
        assert run_cli("replay", "--trace", str(trace_path), "--out", str(tmp_path / "out"),
                       "--interval", repr(interval), "--eta", repr(eta)) == 0
        assert "adapted 100.0%" in capsys.readouterr().out


@pytest.mark.parametrize("rate", [1.5e18, 1e300])
def test_a_run_whose_c_passes_int64_reports_its_rows_mean_c(tmp_path, rate):
    # Each of three domains adapts once at C = ceil(3 s * rate), past 2**63; their
    # total wrapped in int64 at 1.5e18 and failed the run at 1e300.
    path = tmp_path / "fast.cfg"
    path.write_text(BASE_CONFIG + f"clock.rate={rate!r}\nprotocol.mode=online\nseeds=0\n"
                    "scenario.domains=mean_shift:5:0,gaussian_noise:5:0,mean_shift:3:0\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 0
    (run,) = json.loads((out / "summary.json").read_text())["runs"]
    assert [d["n_adapted"] for d in run["per_domain"]] == [1, 1, 1]
    assert [d["mean_c"] for d in run["per_domain"]] == [run["mean_c"]] * 3
    assert run["mean_c"] == pytest.approx(3 * rate, rel=1e-15)


def test_single_model_and_continual_modes(tmp_path):
    path = tmp_path / "single.cfg"
    path.write_text(
        "source.samples_per_class=200\n"
        "pretrain.iterations=120\n"
        "stream.batch_size=32\n"
        "stream.samples_per_domain=320\n"
        "scenario.mode=continual\n"
        "scenario.domains=mean_shift:5:0,gaussian_noise:5:0\n"
        "scenario.append_clean=true\n"
        "adapter.name=entropy_min\n"
        "protocol.mode=online,single_model\n"
        "seeds=0\n"
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 0
    runs = {r["protocol"]: r for r in json.loads((out / "summary.json").read_text())["runs"]}
    assert set(runs) == {"online", "single_model"}
    for r in runs.values():
        assert [d["domain_id"] for d in r["per_domain"]] == [0, 1, 2]  # incl. clean
    # Random predictions on skipped steps make single-model strictly worse here.
    assert runs["single_model"]["avg_error"] > runs["online"]["avg_error"]
    assert runs["single_model"]["adapted_fraction"] == runs["online"]["adapted_fraction"]


def test_malformed_numeric_config_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario.domains=mean_shift:x\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "scenario.domains" in capsys.readouterr().err
    cfg.write_text("seeds=a,b\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert run_cli("run", "--config", str(cfg), "--seeds", "zero") == 2


@pytest.mark.parametrize(
    "lines,key",
    [
        ("adapter.latency.seconds=inf\n", "adapter.latency.seconds"),
        ("adapter.latency.seconds=0\n", "adapter.latency.seconds"),
        ("adapter.latency.seconds=-3\n", "adapter.latency.seconds"),
        ("adapter.latency.kind=per_sample\nadapter.latency.base=nan\n", "adapter.latency.base"),
        ("adapter.latency.kind=stochastic\nadapter.latency.jitter=-inf\n", "adapter.latency.jitter"),
        # per_sample and base both default to 0: every step would cost nothing.
        ("adapter.latency.kind=per_sample\n", "adapter.latency.per_sample"),
        ("adapter.latency.kind=per_sample\nadapter.latency.per_sample=-1\n"
         "adapter.latency.base=40\n", "adapter.latency.per_sample"),
        # A cost that overflows on a batch of 32, or at the largest draw.
        ("adapter.latency.kind=per_sample\nadapter.latency.seconds=\n"
         "adapter.latency.per_sample=1e308\n",
         "adapter.latency.per_sample, adapter.latency.base: "
         "latency model cost must be positive and finite, got inf"),
        ("adapter.latency.kind=stochastic\nadapter.latency.mean=1.7e308\n"
         "adapter.latency.jitter=1e308\n",
         "adapter.latency.mean, adapter.latency.jitter, adapter.latency.seed: "
         "mean + jitter must be finite, got 1.7e+308 + 1e+308"),
    ],
)
def test_bad_latency_config_exits_2_naming_the_key(tmp_path, capsys, lines, key):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + lines)
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_latency_value_its_model_rejects_is_named_by_every_key_the_model_takes(
    tmp_path, capsys
):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + "adapter.latency.kind=stochastic\nadapter.latency.seconds=\n"
                    "adapter.latency.mean=1\nadapter.latency.jitter=5\n")
    assert run_cli("run", "--config", str(path)) == 2
    assert capsys.readouterr().err == (
        "error: adapter.latency.mean, adapter.latency.jitter, adapter.latency.seed: "
        "jitter must be below mean 1.0, got 5.0\n")


def _write_replay_trace(path):
    write_trace(path, [
        TraceRecord(step=i, latency=4.0, correct_adapted=10, correct_fallback=5,
                    domain_id=0, batch_size=10)
        for i in range(8)
    ])
    return path


@pytest.mark.parametrize(
    "argv,lines,name",
    [
        (["run"], "adapter.name=source\nadapter.learning_rate=0.5\n", "adapter.learning_rate"),
        (["run"], "adapter.name=norm_stat\nadapter.prior_weight=2\n", "adapter.prior_weight"),
        (["run"], "stream.samples_per_domain=10\n", "stream.samples_per_domain"),
        (["run"], "source.classes=1\n", "source.classes"),
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.mean=-5\n",
         "adapter.latency.mean"),
        (["run"], "adapter.name=source,source\n", "adapter.name"),
        (["run"], "seeds=0,0\n", "seeds"),
        (["run"], "clock.rate=2\nprotocol.timing=measured\n", "clock.rate"),
        (["run"], "protocol.timing=measured\n", "adapter.latency.kind"),
        (["run"], "clock.rate=nan\n", "clock.rate"),
        (["run"], "clock.eta=1/0\n", "clock.eta"),
        (["run", "--seeds", "0,0"], "", "seeds"),
        (["sweep", "--eta-values", "2"], "", "--eta-values"),
        (["sweep", "--eta-values", "1/2,0.5"], "", "--eta-values"),
        (["replay", "--eta", "2"], None, "--eta"),
        (["replay", "--interval", "0"], None, "--interval"),
        (["replay", "--interval", "nan"], None, "--interval"),
        # 1 / interval overflows for the interval alone, interval / eta for the pair.
        (["replay", "--interval", "1e-320"], None, "--interval: 1 / interval and interval / eta "
         "must be finite, got interval=1e-320 at eta=1.0"),
        (["replay", "--interval", "1e308", "--eta", "1e-10"], None, "--interval, --eta: 1 / "
         "interval and interval / eta must be finite, got interval=1e+308 at eta=1e-10"),
        # A C beyond the float range: 3 s at 1e308 batches a second, a 4 s trace at 1e-308 s.
        (["run"], "clock.rate=1e308\n", "clock.rate: elapsed / effective_interval must not "
         "exceed the float range, got 3.0 / 1e-308"),
        (["replay", "--interval", "1e-308"], None, "--interval: elapsed / effective_interval "
         "must not exceed the float range, got 4.0 / 1e-308"),
        (["run"], "seeds=-1\n", "seeds"),
        (["run", "--seeds", "-1"], "", "seeds"),
        (["run"], "source.seed=-1\n", "source.seed"),
        (["run"], "adapter.name=entropy_min\nadapter.learning_rate=nan\n",
         "adapter.learning_rate"),
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.seed=-1\n",
         "adapter.latency.seed"),
        # jitter >= mean would let a draw reach zero, so Stochastic rejects it.
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.mean=1\n"
         "adapter.latency.jitter=5\n", "adapter.latency.jitter"),
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.jitter=-0.5\n",
         "adapter.latency.jitter"),
        (["run"], "scenario.domains=mean_shift:5:0:9\n", "scenario.domains"),
        (["run"], "scenario.domains=mean_shift:5:-1\n", "scenario.domains"),
        # Values that only the spec they build rejects.
        (["run"], "protocol.alpha=2\n", "protocol.alpha"),
        (["run"], "protocol.visibility=sideways\n", "protocol.visibility"),
        (["run"], "protocol.timing=wallclock\n", "protocol.timing"),
        (["run"], "protocol.schedule=every\n", "protocol.schedule"),
        (["run"], "scenario.append_clean=maybe\n", "scenario.append_clean"),
        (["run"], "source.dim=0\n", "source.dim"),
        (["run"], "source.separation=0\n", "source.separation"),
        (["run"], "stream.batch_size=0\n", "stream.batch_size"),
        (["run"], "pretrain.learning_rate=0\n", "pretrain.learning_rate"),
        (["run"], "pretrain.iterations=-1\n", "pretrain.iterations"),
        # A latency field needs a latency kind that takes it.
        (["run"], "adapter.latency.kind=\n", "adapter.latency.seconds"),
        (["run"], "adapter.latency.kind=default\n", "adapter.latency.seconds"),
        (["run"], "adapter.latency.mean=5\n", "adapter.latency.mean"),
        # Names that become files: two etas printing alike, and a '/' in a run_id.
        (["sweep", "--eta-values", "1/3,0.333333"], "", "--eta-values"),
        (["run", "--emit-schedule"], "run.id=a/b\n", "run.id"),
        (["replay", "--fallback-error-rate", "nan"], None, "--fallback-error-rate"),
        (["replay", "--fallback-error-rate", "inf"], None, "--fallback-error-rate"),
        (["replay", "--fallback-error-rate", "2"], None, "--fallback-error-rate"),
        (["replay", "--fallback-error-rate", "-1"], None, "--fallback-error-rate"),
    ],
)
def test_bad_input_exits_2_naming_it(tmp_path, capsys, argv, lines, name):
    if lines is None:
        source = ["--trace", str(_write_replay_trace(tmp_path / "trace.csv"))]
    else:
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + lines)
        source = ["--config", str(path)]
    out = tmp_path / "out"
    assert run_cli(argv[0], *source, "--out", str(out), *argv[1:]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_a_mid_stream_failure_exits_1_naming_adapter_and_step(config_path, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(adapters_mod, "make_adapter",
                        lambda name, pretrained, **kwargs: FailingAdapter(pretrained, **kwargs))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(config_path), "--out", str(out)) == 1
    assert ("runtime failure: adapter 'failing' failed at step 3: synthetic adapter failure"
            in capsys.readouterr().err)
    assert not out.exists()


def test_a_stochastic_c_beyond_the_float_range_exits_1_naming_adapter_and_step(tmp_path, capsys):
    # A stochastic cost has no schedule class, so its C is first taken at the run's first step.
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + "clock.rate=1e308\nadapter.latency.kind=stochastic\n"
                    "adapter.latency.seconds=\nadapter.latency.mean=3\nadapter.latency.jitter=1\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: adapter 'entropy_min' failed at step 0: elapsed / "
                          "effective_interval must not exceed the float range, got ")
    assert not out.exists()


def test_run_id_prefixes_every_run_and_schedule_file(tmp_path):
    path = tmp_path / "named.cfg"
    path.write_text(BASE_CONFIG + "run.id=exp7\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(path), "--out", str(out), "--emit-schedule") == 0
    run_ids = [run["run_id"] for run in json.loads((out / "summary.json").read_text())["runs"]]
    assert len(run_ids) == 6 and all(run_id.startswith("exp7-entropy_min-") for run_id in run_ids)
    assert sorted(p.name for p in out.glob("schedule_*.csv")) == sorted(
        f"schedule_{run_id}.csv" for run_id in run_ids)


def test_rejected_adapter_construction_names_a_key(tmp_path, capsys, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("rejected")

    monkeypatch.setattr(adapters_mod, "make_adapter", reject)
    path = tmp_path / "exp.cfg"
    # No hyperparameter and no latency model: the adapter name is the only key left.
    path.write_text(BASE_CONFIG + "adapter.latency.kind=\nadapter.latency.seconds=\n")
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == 2
    assert "error: adapter.name: rejected" in capsys.readouterr().err
    path.write_text(BASE_CONFIG)
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == 2
    assert "error: adapter.latency.kind: rejected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fractions_and_empty_values_are_accepted(tmp_path):
    # An empty value means unset, so the defaults apply.
    exp = build_experiment({"clock.eta": "1/16", "protocol.mode": "", "adapter.name": ""})
    assert exp.clock.eta == 1 / 16
    assert exp.protocols == ("online",)
    assert exp.adapters == {"source": {}}
    # Each hyperparameter goes only to the adapters whose constructor takes it.
    exp = build_experiment({"adapter.name": "norm_stat,rejection_entropy",
                            "adapter.learning_rate": "0.2", "adapter.prior_weight": "1/2"})
    assert exp.adapters == {"norm_stat": {"prior_weight": 0.5},
                            "rejection_entropy": {"learning_rate": 0.2}}
    trace = _write_replay_trace(tmp_path / "trace.csv")
    out = tmp_path / "replay_out"
    assert run_cli("replay", "--trace", str(trace), "--out", str(out), "--eta", "1/4") == 0
    run = json.loads((out / "summary.json").read_text())["runs"][0]
    assert run["eta"] == 0.25 and run["adapted_fraction"] == 1.0


def test_fallback_error_rate_is_a_fraction_checked_as_a_flag(tmp_path, capsys):
    path = tmp_path / "e.csv"
    path.write_text("step,latency,correct_adapted,correct_fallback,domain_id,batch_size\n"
                    "0,4.0,10,,0,10\n1,4.0,10,,0,10\n")
    out = tmp_path / "out"
    assert run_cli("replay", "--trace", str(path), "--out", str(out),
                   "--fallback-error-rate", "1/2") == 0
    run = json.loads((out / "summary.json").read_text())["runs"][0]
    assert "constant fallback error rate 0.5 substituted for missing values" in run["notes"]
    # A bad rate is blamed on the flag, not on the trace line it would fill.
    capsys.readouterr()
    assert run_cli("replay", "--trace", str(path), "--fallback-error-rate", "nan") == 2
    err = capsys.readouterr().err
    assert "--fallback-error-rate" in err and "e.csv" not in err
    # The rate is shown as the number it parses to.
    assert run_cli("replay", "--trace", str(path), "--fallback-error-rate", "3/2") == 2
    assert "--fallback-error-rate: rate must be in [0, 1], got 1.5" in capsys.readouterr().err


def test_replay_missing_file_exits_2(tmp_path):
    assert run_cli("replay", "--trace", str(tmp_path / "none.csv")) == 2


def test_replay_malformed_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("step,latency\n")
    assert run_cli("replay", "--trace", str(path)) == 2
    header = "step,latency,correct_adapted,correct_fallback,domain_id,batch_size\n"
    for latency in ("nan", "inf"):
        path.write_text(header + "0,1.0,5,3,0,10\n" + f"1,{latency},5,3,0,10\n")
        capsys.readouterr()
        assert run_cli("replay", "--trace", str(path)) == 2
        assert f"{path}:3: latency must be positive and finite" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Schedule classes: each seed runs every class of equal runs once
# --------------------------------------------------------------------------

SMALL = {
    "source.classes": "3", "source.dim": "4", "source.samples_per_class": "40",
    "pretrain.iterations": "40", "stream.batch_size": "8", "stream.samples_per_domain": "48",
    "scenario.domains": "mean_shift:5:0,gaussian_noise:5:0",
}
ETAS = ("1/16", "1/8", "1/4", "1/3", "1/2", "1")


def _plan(exp, etas):
    clocks = [replace(exp.clock, eta=float(Fraction(eta))) for eta in etas]
    return [(name, protocol, clock) for clock in clocks for name in sorted(exp.adapters)
            for protocol in exp.protocols]


def _adapters(exp):
    pretrained = cli._pretrained(exp.source, exp.train)
    return {name: adapters_mod.make_adapter(name, pretrained, **kwargs)
            for name, kwargs in exp.adapters.items()}


_latencies = st.one_of(
    st.just({}),
    st.sampled_from(["1", "2", "3", "1/2", "6", "810"]).map(
        lambda s: {"adapter.latency.kind": "constant", "adapter.latency.seconds": s}),
    st.tuples(st.sampled_from(["1/8", "1/4", "3/8"]), st.sampled_from(["0", "1", "1/2"])).map(
        lambda pb: {"adapter.latency.kind": "per_sample", "adapter.latency.per_sample": pb[0],
                    "adapter.latency.base": pb[1]}),
    # A stochastic model keys no schedule class, so each of its runs is computed on its own.
    st.tuples(st.sampled_from(["1", "5/2", "3"]), st.sampled_from(["0", "1/10", "9/10"]),
              st.integers(0, 3)).map(
        lambda mjs: {"adapter.latency.kind": "stochastic", "adapter.latency.mean": mjs[0],
                     "adapter.latency.jitter": mjs[1], "adapter.latency.seed": str(mjs[2])}),
)


@st.composite
def _experiments(draw):
    names = draw(st.lists(st.sampled_from(sorted(adapters_mod.ADAPTERS)), min_size=1,
                          max_size=6, unique=True))
    cfg = {
        **SMALL, **draw(_latencies),
        "adapter.name": ",".join(names),
        "protocol.mode": ",".join(draw(st.lists(
            st.sampled_from(["offline", "online", "single_model"]), min_size=1, unique=True))),
        "protocol.schedule": draw(st.sampled_from(["busy_window", "modulo:1", "modulo:3"])),
        "protocol.visibility": draw(st.sampled_from(["immediate", "delayed"])),
        "protocol.alpha": draw(st.sampled_from(["0", "1/2"])),
        "scenario.mode": draw(st.sampled_from(["episodic", "continual"])),
        "clock.rate": draw(st.sampled_from(["1", "4"])),
    }
    if "rejection_entropy" in names:
        # Unset, a threshold that rejects some batches, and one that rejects none.
        cfg["adapter.entropy_threshold"] = draw(st.sampled_from(["", "1/50", "2"]))
    etas = draw(st.lists(st.sampled_from(ETAS), min_size=1, max_size=4, unique=True))
    return cfg, etas, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(_experiments())
# A constant cost of 3 s at eta 1/3 lies exactly on a tick boundary; rejection_entropy's
# two default models (3 s and 1 s) fall in different C bands at eta 1/2 and 1.
@example(({**SMALL, "adapter.name": "entropy_min,rejection_entropy",
           "adapter.entropy_threshold": "1/50", "protocol.mode": "offline,online,single_model"},
          ["1/3", "1/2", "1"], 0))
# At rate 4, eta 1/4 and 1/3 give a 1/2 s update C 1 and the 1 s rejection C 1 and C 2.
@example(({**SMALL, "adapter.name": "rejection_entropy", "adapter.entropy_threshold": "1/50",
           "adapter.latency.kind": "constant", "adapter.latency.seconds": "1/2",
           "clock.rate": "4", "protocol.mode": "online"}, ["1/4", "1/3"], 0))
@example(({**SMALL, "adapter.name": "source,pseudo_label", "adapter.latency.kind": "constant",
           "adapter.latency.seconds": "3", "protocol.mode": "offline,online"},
          ["1/4", "1/3", "1"], 1))
def test_every_planned_run_equals_an_independent_run(drawn):
    cfg, etas, seed = drawn
    exp = build_experiment(cfg)
    plan = _plan(exp, etas)
    reports = cli._execute_seed(exp, seed, plan, _adapters(exp))
    segments = compose_stream(exp.scenario, exp.source, exp.samples_per_domain, seed=seed)
    assert len(reports) == len(plan)
    for (name, protocol, clock), report in zip(plan, reports):
        adapter = adapters_mod.make_adapter(name, cli._pretrained(exp.source, exp.train),
                                            **exp.adapters[name])
        assert report == cli.execute_run(exp, segments, adapter, protocol, seed, clock)


@pytest.fixture()
def counted_runs(monkeypatch):
    calls = []
    execute_run = cli.execute_run

    def counting(*args):
        calls.append((args[2].name, *args[3:5]))
        return execute_run(*args)

    monkeypatch.setattr(cli, "execute_run", counting)
    return calls


def _small_config(tmp_path, **extra):
    path = tmp_path / "small.cfg"
    lines = {**SMALL, "adapter.name": "source,norm_stat,entropy_min", "seeds": "0,1", **extra}
    path.write_text("".join(f"{key}={value}\n" for key, value in lines.items()))
    return path


def test_each_schedule_class_runs_once(tmp_path, counted_runs):
    # At the default latencies (1 s, 1 s and 3 s) the default grid of five etas gives
    # entropy_min three Cs and each of the others one.
    path = _small_config(tmp_path)
    assert run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "sweep")) == 0
    assert len(counted_runs) == 5 * 2
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 15 * 2
    # offline and online share a class wherever C is 1.
    counted_runs.clear()
    path = _small_config(tmp_path, **{"protocol.mode": "offline,online"})
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 0
    assert [(name, protocol) for name, protocol, _ in counted_runs] == [
        ("entropy_min", "offline"), ("entropy_min", "online"),
        ("norm_stat", "offline"), ("source", "offline")] * 2


def test_measured_timing_runs_every_planned_run(tmp_path, counted_runs):
    path = _small_config(tmp_path, **{"protocol.timing": "measured"})
    assert run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "sweep")) == 0
    assert len(counted_runs) == 15 * 2


def test_stochastic_latency_runs_every_planned_run(tmp_path, counted_runs):
    # Every draw of 3 +- 1/10 s takes one C at most of the default etas.
    path = _small_config(tmp_path, **{"adapter.latency.kind": "stochastic",
                                      "adapter.latency.mean": "3",
                                      "adapter.latency.jitter": "1/10"})
    assert run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "sweep")) == 0
    assert len(counted_runs) == 15 * 2


def test_relabelled_reports_share_no_list():
    exp = build_experiment({**SMALL, "protocol.mode": "offline,online"})
    offline, online = cli._execute_seed(exp, 0, _plan(exp, ["1"]), _adapters(exp))
    assert (offline.protocol, online.protocol) == ("offline", "online")
    assert online.run_id == offline.run_id.replace("-offline-", "-online-")
    # Every list the twin carries, including any field added later.
    lists = [f.name for f in fields(RunReport) if isinstance(getattr(offline, f.name), list)]
    assert {"per_domain", "schedule", "fingerprints", "notes"} <= set(lists)
    for field in lists:
        assert getattr(online, field) == getattr(offline, field)
        assert getattr(online, field) is not getattr(offline, field)
    online.notes.append("changed")
    assert offline.notes == []


def test_relabelled_reports_build_no_schedule_until_it_is_read(tmp_path, monkeypatch):
    built = []
    check = ScheduleRecord.__post_init__

    def counting(self):
        built.append(self.step)
        check(self)

    monkeypatch.setattr(ScheduleRecord, "__post_init__", counting)
    path = _small_config(tmp_path)
    assert run_cli("sweep", "--config", str(path), "--out", str(tmp_path / "sweep")) == 0
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 0
    assert built == []

    exp = build_experiment({**SMALL, "protocol.mode": "offline,online"})
    offline, online = cli._execute_seed(exp, 0, _plan(exp, ["1"]), _adapters(exp))
    assert built == []
    schedule = online.schedule
    assert len(built) == len(schedule) > 0
    assert schedule == offline.schedule and schedule is not offline.schedule
    assert online.schedule is schedule and len(built) == len(schedule)


def test_each_adapter_is_constructed_once(tmp_path, monkeypatch):
    made = []
    make_adapter = adapters_mod.make_adapter

    def counting(name, *args, **kwargs):
        made.append(name)
        return make_adapter(name, *args, **kwargs)

    monkeypatch.setattr(adapters_mod, "make_adapter", counting)
    # Three adapters, two protocols and two seeds: 12 planned runs.
    path = _small_config(tmp_path, **{"protocol.mode": "offline,online"})
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "run")) == 0
    assert sorted(made) == ["entropy_min", "norm_stat", "source"]


@pytest.mark.parametrize(
    "given", ["out", "--out", "STREAMGATE_OUT", "replay --out", "replay STREAMGATE_OUT"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_a_file_exits_2_before_any_run(
    tmp_path, capsys, monkeypatch, counted_runs, given, below
):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = str(taken / "sub" if below else taken)
    command, _, given = given.rpartition(" ")
    read = []
    if command == "replay":
        # The trace is never read.
        monkeypatch.setattr(cli, "parse_trace", lambda *args, **kwargs: read.append(args))
        argv = ["replay", "--trace", str(_write_replay_trace(tmp_path / "t.csv"))]
        named = given  # replay has no config: the flag or variable that gave the path
    else:
        path = _small_config(tmp_path, **({"out": out} if given == "out" else {}))
        argv, named = ["run", "--config", str(path)], "out"
    argv += ["--out", out] if given == "--out" else []
    if given == "STREAMGATE_OUT":
        monkeypatch.setenv("STREAMGATE_OUT", out)
    assert run_cli(*argv) == 2
    assert f"error: {named}: " in capsys.readouterr().err
    assert counted_runs == [] and read == []
    assert taken.read_text() == "kept\n"
