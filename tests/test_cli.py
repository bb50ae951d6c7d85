"""CLI behavior: configs, outputs, exit codes, determinism."""

from __future__ import annotations

import json
import os

import pytest

from streamgate import adapters as adapters_mod
from streamgate.cli import main, parse_config_text, build_experiment, ConfigError
from streamgate.trace import TraceRecord, write_trace

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
    for key in ("sourc.classes", "adapter.latncy.kind", "clock.etaa", "run.name"):
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
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 2  # header + per-domain rows


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


def test_replay_interval_is_never_rounded_down(tmp_path, capsys):
    # 1 / (1 / L) < L for this L; a step costing exactly the interval takes one tick.
    latency = 7.565469048855985
    assert 1.0 / (1.0 / latency) < latency
    trace_path = tmp_path / "trace.csv"
    write_trace(trace_path, [
        TraceRecord(step=i, latency=latency, correct_adapted=10, correct_fallback=5,
                    domain_id=0, batch_size=10)
        for i in range(4)
    ])
    assert run_cli("replay", "--trace", str(trace_path), "--out", str(tmp_path / "out"),
                   "--interval", repr(latency)) == 0
    assert "adapted 100.0%" in capsys.readouterr().out


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
    ],
)
def test_bad_latency_config_exits_2_naming_the_key(tmp_path, capsys, lines, key):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE_CONFIG + lines)
    assert run_cli("run", "--config", str(path), "--out", str(tmp_path / "out")) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
        (["run"], "clock.rate=nan\n", "clock.rate"),
        (["run"], "clock.eta=1/0\n", "clock.eta"),
        (["run", "--seeds", "0,0"], "", "seeds"),
        (["sweep", "--eta-values", "2"], "", "--eta-values"),
        (["sweep", "--eta-values", "1/2,0.5"], "", "--eta-values"),
        (["replay", "--eta", "2"], None, "--eta"),
        (["replay", "--interval", "0"], None, "--interval"),
        (["replay", "--interval", "nan"], None, "--interval"),
        (["run"], "seeds=-1\n", "seeds"),
        (["run", "--seeds", "-1"], "", "seeds"),
        (["run"], "source.seed=-1\n", "source.seed"),
        (["run"], "pretrain.seed=-1\n", "pretrain.seed"),
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.seed=-1\n",
         "adapter.latency.seed"),
        # jitter >= mean would let a draw reach zero, which sample_latency clamps to 1e-9 s.
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.mean=1\n"
         "adapter.latency.jitter=5\n", "adapter.latency.jitter"),
        (["run"], "adapter.latency.kind=stochastic\nadapter.latency.jitter=-0.5\n",
         "adapter.latency.jitter"),
        (["run"], "scenario.domains=mean_shift:5:0:9\n", "scenario.domains"),
        # A latency field needs a latency kind that takes it.
        (["run"], "adapter.latency.kind=\n", "adapter.latency.seconds"),
        (["run"], "adapter.latency.kind=default\n", "adapter.latency.seconds"),
        (["run"], "adapter.latency.mean=5\n", "adapter.latency.mean"),
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
