"""End-to-end command-line behaviour: exit codes, files, determinism."""

import argparse
import copy
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fpgrad as fp
from fpgrad import cli
from fpgrad.cli import main

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_CONFIG = {
    "shape": {"input_dim": 2, "layer_dims": [2, 2, 1]},
    "activation": "logistic",
    "relaxation": {"step_size": 0.1, "max_steps": 100000, "tolerance": 1e-12, "record_every": 1},
    "method": {"name": "rbp", "betas": [1e-3, 5e-4, 2.5e-4], "num_steps": 300},
    "seed": 42,
}

XOR_CONFIG = {
    "shape": {"input_dim": 2, "layer_dims": [1, 4]},
    "activation": "tanh",
    "relaxation": {"step_size": 0.25, "max_steps": 100000, "tolerance": 1e-6, "record_every": 0},
    "method": {"name": "eqprop", "beta": 1e-3},
    "seed": 42,
    "train": {"epochs": 120, "learning_rates": 0.5},
}


@pytest.fixture
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(ws, cfg, name="cfg.json"):
    p = ws / name
    p.write_text(json.dumps(cfg))
    return str(p)


def write_xor(ws):
    p = ws / "xor.csv"
    p.write_text("x0,x1,y0\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
    return str(p)


# ---------------------------------------------------------------------------
# relax
# ---------------------------------------------------------------------------

def test_relax_converged_exit_zero(ws, capsys, monkeypatch):
    # the trajectory is plain Euler's at a tolerance of 1e-12 too: no Newton finish
    monkeypatch.setattr(fp.model.CurvatureOps, "solve", lambda *a: pytest.fail("a CG solve in relax"))
    cfg = write_config(ws, BASE_CONFIG)
    code = main(["relax", "--config", cfg, "--x", "0.3,-0.5", "--out", "out"])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert (ws / "out" / "trajectory.csv").exists()


def test_relax_zero_weight_checkpoint_decays_to_zero(ws):
    shape = fp.NetworkShape(2, (2, 1))
    theta = [np.zeros(s) for s in shape.weight_shapes()]
    fp.save_checkpoint(theta, shape, "logistic", ws / "zero.ckpt")
    cfg = dict(BASE_CONFIG)
    cfg.pop("shape")
    code = main(
        ["relax", "--config", write_config(ws, cfg), "--checkpoint", str(ws / "zero.ckpt"),
         "--x", "1.0,1.0", "--out", "out"]
    )
    assert code == 0
    rows = (ws / "out" / "trajectory.csv").read_text().splitlines()
    last_vals = [float(r.split(",")[3]) for r in rows[-3:]]
    assert all(abs(v) <= 1e-10 for v in last_vals)


def test_relax_max_steps_one_fails_without_flag(ws):
    cfg = write_config(ws, BASE_CONFIG)
    args = ["relax", "--config", cfg, "--x", "0.3,-0.5", "--max-steps", "1", "--out", "out"]
    assert main(args) == 1
    assert main(args + ["--allow-nonconverged"]) == 0


def test_relax_needs_input_vector(ws):
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["relax", "--config", cfg, "--out", "out"]) == 2


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_rbp_passes(ws):
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["gradcheck", "--config", cfg, "--out", "out"]) == 0
    report = json.loads((ws / "out" / "gradcheck_report.json").read_text())
    assert report["reports"][0]["passed"]
    assert report["reports"][0]["blocks"][0]["max_rel_error"] <= 1e-3


def test_gradcheck_fault_injection_fails(ws):
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["gradcheck", "--config", cfg, "--inject-fault", "--out", "out"]) == 1


def test_gradcheck_rejects_bad_betas_before_the_oracle_runs(ws, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(fp.oracle, "fd_objective_gradient", lambda *a, **k: calls.append(1))
    cfg = write_config(ws, BASE_CONFIG)
    code = main(["gradcheck", "--config", cfg, "--method", "eqprop", "--beta=-1e-3", "--out", "out"])
    assert code == 2
    assert calls == []
    assert "method.betas: betas must be positive, got -0.001" in capsys.readouterr().err


def test_gradcheck_eqprop_relaxes_the_free_phase_once(ws, monkeypatch):
    # the oracle keeps its own reference relaxation (`dynamics.relax`); the
    # estimates of every beta share one free phase (`dynamics.relax_free`)
    calls = []
    relax_free = fp.dynamics.relax_free
    monkeypatch.setattr(fp.dynamics, "relax_free", lambda *a: calls.append(1) or relax_free(*a))
    cfg = write_config(ws, BASE_CONFIG)
    code = main(
        ["gradcheck", "--config", cfg, "--method", "eqprop", "--beta", "2e-4,1e-4", "--out", "out"]
    )
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("method", ["rbp", "eqprop"])
def test_gradcheck_relaxes_from_the_zero_state_once(ws, monkeypatch, method):
    # the oracle's reference relaxation continues from the estimator's free
    # fixed point instead of running the free phase again from zero
    zero_starts = []
    relax = fp.dynamics.relax

    def counted(force, s_init, rcfg):
        zero_starts.append(not any(np.any(sk) for sk in s_init))
        return relax(force, s_init, rcfg)

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["gradcheck", "--config", cfg, "--method", method, "--out", "out"]) == 0
    assert sum(zero_starts) == 1


def test_one_parser_serves_every_call_of_a_process(ws, capsys):
    cfg = write_config(ws, BASE_CONFIG)
    codes = [
        main(["gradcheck", "--config", cfg, "--out", "first"]),
        main(["gradcheck", "--config", cfg, "--no-such-flag"]),
        main(["gradcheck", "--config", cfg, "--out", "second"]),
    ]
    assert codes == [0, 2, 0]
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    first, second = ws / "first", ws / "second"
    assert sorted(os.listdir(first)) == sorted(os.listdir(second)) == ["gradcheck_report.json"]
    for name in os.listdir(first):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert fp.cli.build_parser() is fp.cli.build_parser()


def test_gradcheck_eqprop_beta_pair_reports_scaling(ws):
    cfg = write_config(ws, BASE_CONFIG)
    code = main(
        ["gradcheck", "--config", cfg, "--method", "eqprop", "--beta", "1e-3,5e-4", "--out", "out"]
    )
    assert code == 0
    report = json.loads((ws / "out" / "gradcheck_report.json").read_text())
    kinds = [r["method"] for r in report["reports"]]
    assert kinds == ["eqprop", "eqprop", "eqprop-beta-scaling"]
    ratio = report["reports"][2]["error_ratios"][0]
    assert 1.5 <= ratio <= 2.5


@pytest.mark.parametrize("betas", ["1e-4,2e-4", "2e-4,2e-4"], ids=["increasing", "repeated"])
def test_gradcheck_takes_betas_in_the_order_given(ws, betas):
    # gradcheck, unlike a sweep, accepts any order and repeats
    cfg = write_config(ws, BASE_CONFIG)
    argv = ["gradcheck", "--config", cfg, "--method", "eqprop", "--beta", betas, "--out", "out"]
    assert main(argv) == 0
    reports = json.loads((ws / "out" / "gradcheck_report.json").read_text())["reports"]
    given = [float(b) for b in betas.split(",")]
    assert [r.get("beta") for r in reports[:2]] == given
    assert reports[2]["betas"] == given
    assert all(r["passed"] for r in reports[:2])
    if given[0] == given[1]:
        assert reports[0]["blocks"] == reports[1]["blocks"]
        assert reports[2]["error_ratios"] == [1.0]


def test_one_beta_gradcheck_is_the_serial_estimate_byte_for_byte(ws, monkeypatch, capsys):
    cfg = write_config(ws, BASE_CONFIG)
    argv = ["gradcheck", "--config", cfg, "--method", "eqprop", "--beta", "1e-4", "--out"]
    assert main(argv + ["stacked"]) == 0
    stacked = capsys.readouterr().out

    def serial(theta, x, y, betas, act, rcfg, s_free=None):
        return [fp.eqprop_gradient(theta, x, y, b, act, rcfg, s_free) for b in betas]

    monkeypatch.setattr(fp.eqprop, "eqprop_gradients", serial)
    assert main(argv + ["serial"]) == 0
    assert capsys.readouterr().out == stacked.replace("stacked", "serial")
    report = "gradcheck_report.json"
    assert (ws / "stacked" / report).read_bytes() == (ws / "serial" / report).read_bytes()


def _hard_sigmoid_gradcheck(ws, *extra):
    # under the hard sigmoid the zero state is a fixed point that the
    # weights cannot move, so the fd reference is identically zero
    cfg = dict(BASE_CONFIG, activation="hard-sigmoid")
    argv = ["gradcheck", "--config", write_config(ws, cfg), "--method", "eqprop",
            "--beta", "2e-4,1e-4", "--out", "out", *extra]
    return main(argv), (ws / "out" / "gradcheck_report.json").read_text()


def test_gradcheck_flags_an_all_zero_reference_as_degenerate(ws, capsys):
    code, text = _hard_sigmoid_gradcheck(ws)
    report = json.loads(text)
    assert code == 0
    assert report["note"].startswith("degenerate")
    assert f"gradcheck: {report['note']}" in capsys.readouterr().out.splitlines()
    graded = [r for r in report["reports"] if "passed" in r]
    assert len(graded) == 2
    assert all(r["passed"] is None for r in graded)


def test_gradcheck_degenerate_reference_still_fails_a_wrong_estimate(ws):
    code, text = _hard_sigmoid_gradcheck(ws, "--inject-fault")
    assert code == 1
    assert all(r["passed"] is False for r in json.loads(text)["reports"] if "passed" in r)


def test_gradcheck_report_is_strict_json(ws):
    # both errors are 0, so the beta-scaling ratio is undefined: null, not
    # the non-standard Infinity token
    _, text = _hard_sigmoid_gradcheck(ws)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(text, parse_constant=reject)
    assert report["reports"][-1]["error_ratios"] == [None]


# ---------------------------------------------------------------------------
# equivalence and sweep
# ---------------------------------------------------------------------------

def test_equivalence_gate_passes_with_slope_near_one(ws, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["method"] = dict(cfg["method"], name="eqprop")
    code = main(["equivalence", "--config", write_config(ws, cfg), "--out", "out"])
    assert code == 0
    summary = json.loads((ws / "out" / "equivalence_summary.json").read_text())
    assert 0.8 <= summary["s_slope"] <= 1.2
    assert 0.8 <= summary["theta_slope"] <= 1.2
    assert (ws / "out" / "equivalence_beta0.csv").exists()


def test_equivalence_degenerate_instance_notes_and_passes(ws, capsys):
    # zero weights and a zero target put the free point exactly on target
    shape = fp.NetworkShape(2, (1,))
    theta = [np.zeros(s) for s in shape.weight_shapes()]
    fp.save_checkpoint(theta, shape, "logistic", ws / "zero.ckpt")
    (ws / "deg.csv").write_text("x0,x1,y0\n0.5,0.5,0\n")
    cfg = dict(BASE_CONFIG)
    cfg.pop("shape")
    cfg["checkpoint"] = str(ws / "zero.ckpt")
    cfg["dataset"] = str(ws / "deg.csv")
    code = main(["equivalence", "--config", write_config(ws, cfg), "--out", "out"])
    assert code == 0
    assert "degenerate" in capsys.readouterr().out


def test_equivalence_rejects_mismatched_grid(ws):
    cfg = dict(BASE_CONFIG)
    cfg["method"] = dict(cfg["method"], step_size=0.2)
    assert main(["equivalence", "--config", write_config(ws, cfg), "--out", "out"]) == 2


@pytest.mark.parametrize("betas", ["1e-3", "1e-3,1e-3"])
def test_equivalence_rejects_one_distinct_beta_before_relaxing(ws, monkeypatch, capsys, betas):
    # no slope can be fitted, so the gate could never pass
    calls = []
    monkeypatch.setattr(fp.eqprop, "second_phase", lambda *a: calls.append(1))
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["equivalence", "--config", cfg, "--beta", betas, "--out", "out"]) == 2
    assert calls == []
    assert "at least two distinct betas" in capsys.readouterr().err


def _eqprop_equivalence(ws, **method):
    cfg = dict(BASE_CONFIG)
    cfg["method"] = dict(cfg["method"], name="eqprop", **method)
    return ["equivalence", "--config", write_config(ws, cfg), "--out", "out"]


def test_equivalence_with_a_zero_gap_threshold_runs_and_fails_its_gate(ws, capsys):
    # 0 is a valid threshold, not a config error (exit 2); no positive
    # relative gap is within it
    assert main(_eqprop_equivalence(ws, gap_threshold=0)) == 1
    err = capsys.readouterr().err
    assert "equivalence: gate failed (slopes in [0.8, 1.2]? True; relative gap " in err
    assert "<= 0.0? False)" in err and "Traceback" not in err


@pytest.mark.parametrize("slope", [1.3, 0.7])
@pytest.mark.parametrize("key", ["s_slope", "theta_slope"])
def test_equivalence_fails_its_gate_on_a_slope_outside_the_band(ws, capsys, monkeypatch, key, slope):
    summarize = fp.equivalence.summarize
    monkeypatch.setattr(fp.equivalence, "summarize", lambda reports: dict(summarize(reports), **{key: slope}))
    assert main(_eqprop_equivalence(ws)) == 1
    summary = json.loads((ws / "out" / "equivalence_summary.json").read_text())
    assert summary[key] == slope
    assert "equivalence: gate failed (slopes in [0.8, 1.2]? False; " in capsys.readouterr().err


@pytest.mark.parametrize("beta", [1e-3, 2.5e-4])
def test_degenerate_floor_is_ten_tolerances_over_beta_inclusive(beta):
    tol = 1e-12
    floor = 10.0 * tol / beta

    def rep(gap):
        return fp.equivalence.EquivalenceReport(beta, 0.1, 1, [], [], [], [], gap, gap / 2, 1.0)

    assert cli._degenerate(rep(floor), tol)
    assert not cli._degenerate(rep(np.nextafter(floor, np.inf)), tol)
    assert not cli._degenerate(rep(50.0 * tol / beta), tol)


def test_sweep_accepts_one_beta(ws):
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["sweep", "--config", cfg, "--beta", "1e-3", "--out", "out"]) == 0
    assert len((ws / "out" / "sweep_summary.csv").read_text().splitlines()) == 2


def test_sweep_writes_summary(ws):
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["sweep", "--config", cfg, "--out", "out"]) == 0
    rows = (ws / "out" / "sweep_summary.csv").read_text().splitlines()
    assert rows[0] == "beta,max_s_gap,max_theta_gap,reference_scale"
    assert len(rows) == 4


# ---------------------------------------------------------------------------
# train and predict
# ---------------------------------------------------------------------------

def test_train_then_predict_xor(ws):
    cfg = dict(XOR_CONFIG)
    cfg["dataset"] = write_xor(ws)
    cfg_path = write_config(ws, cfg)
    assert main(["train", "--config", cfg_path, "--out", "run"]) == 0
    log_rows = (ws / "run" / "trainlog.csv").read_text().splitlines()
    assert log_rows[0] == "epoch,mean_cost,accuracy,grad_norm"
    last = log_rows[-1].split(",")
    assert float(last[1]) <= 0.05 and float(last[2]) == 1.0
    # predict from the saved checkpoint
    pcfg = dict(XOR_CONFIG)
    pcfg.pop("shape")
    pcfg["dataset"] = cfg["dataset"]
    pcfg["checkpoint"] = str(ws / "run" / "model.ckpt")
    assert main(["predict", "--config", write_config(ws, pcfg, "p.json"), "--out", "pred"]) == 0
    rows = (ws / "pred" / "predictions.csv").read_text().splitlines()
    assert rows[0] == "index,out0"
    preds = [float(r.split(",")[1]) for r in rows[1:]]
    targets = [0.0, 1.0, 1.0, 0.0]
    assert all((p >= 0.5) == (t >= 0.5) for p, t in zip(preds, targets))


def test_train_resume_matches_uninterrupted(ws):
    cfg = dict(XOR_CONFIG)
    cfg["dataset"] = write_xor(ws)
    cfg["train"] = dict(cfg["train"], epochs=8)
    cfg_path = write_config(ws, cfg)
    assert main(["train", "--config", cfg_path, "--out", "full"]) == 0
    assert main(["train", "--config", cfg_path, "--epochs", "4", "--out", "half"]) == 0
    assert (
        main(
            ["train", "--config", cfg_path, "--out", "tail",
             "--resume", str(ws / "half" / "model.ckpt"), "--start-epoch", "4"]
        )
        == 0
    )
    assert (ws / "full" / "model.ckpt").read_bytes() == (ws / "tail" / "model.ckpt").read_bytes()


def test_train_divergence_reports_epoch(ws, capsys):
    cfg = dict(XOR_CONFIG)
    cfg["dataset"] = write_xor(ws)
    cfg["train"] = dict(cfg["train"], learning_rates=1e9, epochs=5)
    code = main(["train", "--config", write_config(ws, cfg), "--out", "run"])
    assert code == 1
    err = capsys.readouterr().err
    assert "epoch" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--start-epoch", "5", "--epochs", "2"],
         "no epochs to run: start epoch 5 is not below epochs 2"),
        (["--start-epoch=-1"], "--start-epoch must be >= 0, got -1"),
    ],
    ids=["past-the-end", "negative-start"],
)
def test_train_resume_outside_the_epoch_range_exits_2_without_traceback(ws, flags, message):
    shape = fp.NetworkShape(2, (1, 4))
    fp.save_checkpoint(fp.init_params(shape, 0), shape, "tanh", ws / "start.ckpt")
    cfg = dict(XOR_CONFIG, dataset=write_xor(ws))
    argv = ["train", "--config", write_config(ws, cfg), "--resume", str(ws / "start.ckpt")]
    proc = _run_cli(argv + flags + ["--out", "out"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not (ws / "out" / "trainlog.csv").exists()


def _xor_checkpoint(ws):
    shape = fp.NetworkShape(2, (1, 4))
    fp.save_checkpoint(fp.init_params(shape, 0), shape, "tanh", ws / "model.ckpt")
    return str(ws / "model.ckpt")


def test_predict_rejects_a_config_shape_that_disagrees_with_the_checkpoint(ws, capsys):
    cfg = dict(XOR_CONFIG, shape={"input_dim": 2, "layer_dims": [1, 3]}, dataset=write_xor(ws))
    argv = ["predict", "--config", write_config(ws, cfg), "--checkpoint", _xor_checkpoint(ws)]
    assert main(argv + ["--out", "out"]) == 2
    assert "config shape 2->[1, 3] disagrees with checkpoint shape 2->[1, 4]" in capsys.readouterr().err
    assert not (ws / "out" / "predictions.csv").exists()


@pytest.mark.parametrize("activation", ["tanh", "logistic"])
def test_predict_runs_an_explicit_activation(ws, activation):
    cfg = dict(XOR_CONFIG, activation=activation, dataset=write_xor(ws))
    argv = ["predict", "--config", write_config(ws, cfg), "--checkpoint", _xor_checkpoint(ws)]
    assert main(argv + ["--out", "out"]) == 0
    theta, _, _ = fp.load_checkpoint(ws / "model.ckpt")
    rcfg = fp.RelaxationConfig(**XOR_CONFIG["relaxation"])
    rows = (ws / "out" / "predictions.csv").read_text().splitlines()[1:]
    for i, sample in enumerate(fp.load_dataset(ws / "xor.csv").samples):
        pred = fp.predict(theta, sample.x, fp.get_activation(activation), rcfg)
        assert rows[i] == f"{i}," + ",".join(repr(float(v)) for v in pred)


# ---------------------------------------------------------------------------
# config validation and determinism
# ---------------------------------------------------------------------------

def test_unknown_config_key_rejected(ws):
    cfg = dict(BASE_CONFIG)
    cfg["surprise"] = 1
    assert main(["relax", "--config", write_config(ws, cfg), "--x", "0,0"]) == 2


def test_unknown_nested_key_rejected(ws):
    cfg = dict(BASE_CONFIG)
    cfg["relaxation"] = dict(cfg["relaxation"], stepsize=0.1)
    assert main(["relax", "--config", write_config(ws, cfg), "--x", "0,0"]) == 2


def test_persistent_state_key_is_rejected(ws, capsys):
    cfg = dict(XOR_CONFIG, dataset=write_xor(ws))
    cfg["train"] = dict(cfg["train"], persistent_state=False)
    assert main(["train", "--config", write_config(ws, cfg), "--out", "run"]) == 2
    assert "persistent_state" in capsys.readouterr().err
    assert not (ws / "run").exists()


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(os.path.join(_REPO, "configs")) if f.endswith(".json"))
)
def test_shipped_config_loads(monkeypatch, name):
    monkeypatch.chdir(_REPO)  # configs name their dataset relative to the repo root
    cfg = cli.load_config(os.path.join("configs", name))
    cli._apply_overrides(cfg, argparse.Namespace())
    if cfg["dataset"] is not None:
        assert cli._train_config(cfg).epochs == cfg["train"]["epochs"]


def test_flags_set_their_keys(ws):
    (ws / "d.csv").write_text("x0,y0\n0,0\n")  # a path flag needs only an existing file
    cfg = cli.load_config(None)
    cli._apply_overrides(cfg, argparse.Namespace(
        step_size=0.2, max_steps=7, tolerance=1e-5, method="eqprop", beta="2e-3,1e-3", steps=5,
        seed=3, dataset="d.csv", checkpoint="d.csv", x="0.5,-0.25", epochs=9,
    ))
    assert cfg["relaxation"] == {"step_size": 0.2, "max_steps": 7, "tolerance": 1e-5, "record_every": 1}
    assert cfg["method"]["name"] == "eqprop" and cfg["method"]["num_steps"] == 5
    # --beta sets the betas, and its first value is method.beta
    assert cfg["method"]["betas"] == [2e-3, 1e-3] and cfg["method"]["beta"] == 2e-3
    assert (cfg["seed"], cfg["dataset"], cfg["checkpoint"]) == (3, "d.csv", "d.csv")
    assert cfg["input_x"] == [0.5, -0.25] and cfg["train"]["epochs"] == 9


# the option strings of each command, as literal data: no flag is gained or lost
_HELP = ["-h", "--help"]
_COMMON = _HELP + ["--config", "--out", "--seed", "--max-steps", "--tolerance", "--step-size"]
_OPTIONS = {
    "relax": _COMMON + ["--x", "--checkpoint", "--allow-nonconverged"],
    "gradcheck": _COMMON + ["--method", "--beta", "--checkpoint", "--dataset", "--inject-fault"],
    "equivalence": _COMMON + ["--beta", "--steps", "--checkpoint", "--dataset"],
    "sweep": _COMMON + ["--beta", "--steps", "--checkpoint", "--dataset"],
    "train": _COMMON + ["--method", "--beta", "--epochs", "--dataset", "--resume", "--start-epoch"],
    "predict": _COMMON + ["--checkpoint", "--dataset"],
}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_command_takes_its_flags():
    options = {
        name: sorted(o for a in p._actions for o in a.option_strings)
        for name, p in _subparsers().items()
    }
    assert options == {name: sorted(flags) for name, flags in _OPTIONS.items()}


def test_readme_lists_the_flags_of_every_command():
    with open(os.path.join(_REPO, "README.md")) as f:
        text = f.read()
    common = re.search(r"Every command takes (.*?)\.", text, re.S).group(1)
    rows = dict(re.findall(r"^- `(\w+)`: (`--.*)$", text, re.M))
    assert set(rows) == set(_subparsers())
    for name, p in _subparsers().items():
        shown = {o for a in p._actions if a.help != argparse.SUPPRESS for o in a.option_strings}
        assert sorted(re.findall(r"`(--[a-z-]+)`", common + rows[name])) == sorted(shown - set(_HELP))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["relax", "--x", "0,0", "--seed", "2.5"], "--seed: cannot read '2.5' as int"),
        (["train", "--method", "bogus"],
         "--method: cannot read 'bogus' as one of eqprop, eqprop-truncated, rbp"),
        (["gradcheck", "--method", "eqprop-truncated"], "gradcheck supports methods rbp and eqprop"),
    ],
    ids=["seed-fraction", "train-method", "gradcheck-method"],
)
def test_malformed_flags_exit_2_naming_their_kind(ws, argv, message):
    cfg = dict(XOR_CONFIG, dataset=write_xor(ws)) if argv[0] == "train" else BASE_CONFIG
    proc = _run_cli(argv + ["--config", write_config(ws, cfg), "--out", "out"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_readme_config_table_names_every_key_and_default():
    with open(os.path.join(_REPO, "README.md")) as f:
        rows = [line.split("|")[1:-1] for line in f if line.startswith("| `")]
    table = {key.strip(" `"): json.loads(default.strip(" `")) for key, _, default, _ in rows}
    assert table == {key: default for key, (_, default, _) in cli._KEYS.items()}


def test_missing_dataset_path_rejected(ws):
    cfg = dict(BASE_CONFIG)
    cfg["dataset"] = "nowhere.csv"
    assert main(["gradcheck", "--config", write_config(ws, cfg)]) == 2


def test_invalid_json_rejected(ws):
    p = ws / "bad.json"
    p.write_text("{not json")
    assert main(["relax", "--config", str(p), "--x", "0,0"]) == 2


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["relax", "--x", "0.3,-0.5", "--tol", "1e-6"], "--tol 1e-6"),
        (["relax", "--x", "0.3,-0.5", "--allow"], "--allow"),
        (["gradcheck", "--method", "eqprop", "--bet", "1e-3"], "--bet 1e-3"),
        (["train", "--start", "1"], "--start 1"),
    ],
    ids=["tolerance", "allow-nonconverged", "beta", "start-epoch"],
)
def test_a_flag_is_spelled_in_full(ws, capsys, argv, flag):
    # a prefix of a flag is not that flag: argparse's abbreviations are off
    assert main(argv[:1] + ["--config", write_config(ws, BASE_CONFIG), "--out", "out"] + argv[1:]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (ws / "out").exists()


def test_a_list_flag_with_a_negative_first_entry_takes_the_equals_form(ws, capsys):
    cfg = write_config(ws, BASE_CONFIG)
    assert main(["relax", "--config", cfg, "--x", "-0.5,0.3", "--out", "out"]) == 2
    assert "argument --x: expected one argument" in capsys.readouterr().err
    assert main(["relax", "--config", cfg, "--x=-0.5,0.3", "--out", "out"]) == 0
    assert (ws / "out" / "trajectory.csv").exists()


def test_package_runs_as_a_module():
    proc = _run_cli(["--help"], module="fpgrad")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: fpgrad ")


def test_reruns_are_byte_identical(ws):
    cfg = write_config(ws, BASE_CONFIG)
    for out in ("a", "b"):
        assert main(["relax", "--config", cfg, "--x", "0.3,-0.5", "--out", out]) == 0
        assert main(["gradcheck", "--config", cfg, "--out", out]) == 0
    for name in ("trajectory.csv", "gradcheck_report.json"):
        assert (ws / "a" / name).read_bytes() == (ws / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["relax", "--x", "0.3,abc"], "'abc'"),
        (["equivalence", "--beta", "1e-3,x"], "'x'"),
        (["equivalence", "--beta", "1e-3,,5e-4"], "''"),
    ],
    ids=["relax-x", "equivalence-beta", "equivalence-beta-empty"],
)
def test_malformed_numbers_exit_2_without_traceback(ws, argv, bad):
    proc = _run_cli(argv + ["--config", write_config(ws, BASE_CONFIG), "--out", "out"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert bad in proc.stderr


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("equivalence", "method.gap_threshold", "abc"),
        ("gradcheck", "method.delta", "x"),
        ("relax", "seed", "s"),
        ("relax", "relaxation.tolerance", None),
        ("sweep", "method.num_steps", "n"),
        ("train", "method.beta", "b"),
        ("train", "method.truncation_steps", "t"),
        ("train", "train.epochs", "e"),
        # every key is read when the config loads, used by the command or not
        ("gradcheck", "method.gap_threshold", "abc"),
        ("relax", "method.delta", "d"),
        ("sweep", "train.learning_rates", "r"),
        ("equivalence", "method.beta", "b"),
        ("sweep", "method.name", "bogus"),
    ],
)
def test_malformed_config_numbers_exit_2_without_traceback(ws, command, key, value):
    cfg = copy.deepcopy(XOR_CONFIG if command == "train" else BASE_CONFIG)
    if command == "train":
        cfg["dataset"] = write_xor(ws)
        # the truncated method reads both beta and truncation_steps
        cfg["method"]["name"] = "eqprop-truncated"
    section, _, name = key.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[name] = value
    argv = [command, "--config", write_config(ws, cfg), "--out", "out"]
    proc = _run_cli(argv + (["--x", "0,0"] if command == "relax" else []))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{key}: cannot read {value!r}" in proc.stderr


def _with(cfg, key, value):
    cfg = copy.deepcopy(cfg)
    section, _, name = key.rpartition(".")
    cfg[section][name] = value
    return cfg


_ONE_BETA = "method.betas: equivalence needs at least two distinct betas to fit a slope"
_TINY_BETA = "method.betas: betas must be large enough for a positive tolerance beta * 1e-3, got 1e-322"


@pytest.mark.parametrize(
    "argv, message, cfg",
    [
        (["equivalence", "--beta=-1e-3"], "method.betas: betas must be positive, got -0.001",
         BASE_CONFIG),
        (["sweep", "--beta", "1e-4,1e-3"], "method.betas: betas must be non-increasing",
         BASE_CONFIG),
        (["sweep", "--steps=-1"], "method.num_steps must be >= 0, got -1", BASE_CONFIG),
        (["gradcheck", "--method", "eqprop", "--beta=-1e-3"], "betas must be positive",
         BASE_CONFIG),
        # non-finite settings
        (["relax", "--x", "0,0"], "step_size must be positive and finite, got nan",
         _with(BASE_CONFIG, "relaxation.step_size", float("nan"))),
        (["relax", "--x", "0,0", "--step-size", "nan"],
         "step_size must be positive and finite, got nan", BASE_CONFIG),
        (["relax", "--x", "nan,0.1"], "--x: component 0 is not finite: nan", BASE_CONFIG),
        (["relax", "--x", "0.1,inf"], "--x: component 1 is not finite: inf", BASE_CONFIG),
        (["relax"], "input_x: component 0 is not finite: -inf",
         dict(BASE_CONFIG, input_x=[float("-inf"), 0.1])),
        (["gradcheck", "--method", "rbp"], "tolerance must be positive and finite, got nan",
         _with(BASE_CONFIG, "relaxation.tolerance", float("nan"))),
        (["gradcheck", "--method", "rbp"], "delta must be positive and finite, got inf",
         _with(BASE_CONFIG, "method.delta", float("inf"))),
        (["gradcheck", "--method", "eqprop", "--beta", "inf"],
         "method.betas: betas must be finite, got inf", BASE_CONFIG),
        (["gradcheck", "--method", "eqprop"], "method.betas: betas must be non-empty",
         _with(BASE_CONFIG, "method.betas", [])),
        (["equivalence", "--beta", "inf"], "method.betas: betas must be finite, got inf",
         BASE_CONFIG),
        (["sweep"], "method.betas: betas must be finite, got inf",
         _with(BASE_CONFIG, "method.betas", [float("inf"), 1e-3])),
        (["equivalence"], "method.gap_threshold must be finite and >= 0, got nan",
         _with(BASE_CONFIG, "method.gap_threshold", float("nan"))),
        (["train", "--beta", "inf"], "requires a finite beta > 0", XOR_CONFIG),
        # a beta whose second-phase tolerance beta * 1e-3 rounds to 0
        (["gradcheck", "--method", "eqprop", "--beta", "1e-322"], _TINY_BETA, BASE_CONFIG),
        (["equivalence", "--beta", "1e-322,5e-323"], _TINY_BETA, BASE_CONFIG),
        (["train", "--beta", "1e-322"], _TINY_BETA.replace("method.betas: ", "method.beta: "), XOR_CONFIG),
        (["train"], "learning rates must be finite and non-negative",
         _with(XOR_CONFIG, "train.learning_rates", float("nan"))),
        # an empty epoch range, or a start epoch with nothing to resume
        (["train", "--epochs", "0"], "no epochs to run: start epoch 0 is not below epochs 0",
         XOR_CONFIG),
        (["train", "--start-epoch", "1"], "--start-epoch 1 needs --resume CKPT", XOR_CONFIG),
        # a negative seed, from the flag or from the config
        (["relax", "--x", "0,0", "--seed", "-1"], "seed must be a non-negative integer, got -1",
         BASE_CONFIG),
        (["train", "--seed", "-1"], "seed must be a non-negative integer, got -1", XOR_CONFIG),
        (["gradcheck", "--method", "rbp"], "seed must be a non-negative integer, got -5",
         dict(BASE_CONFIG, seed=-5)),
        (["sweep"], "seed must be a non-negative integer, got -5", dict(BASE_CONFIG, seed=-5)),
        # a slope needs two distinct betas
        (["equivalence", "--beta", "1e-3"], _ONE_BETA, BASE_CONFIG),
        (["equivalence", "--beta", "1e-3,1e-3"], _ONE_BETA, BASE_CONFIG),
        (["equivalence"], _ONE_BETA, _with(BASE_CONFIG, "method.betas", [5e-4])),
        # numbers read strictly: an int setting takes no fraction, and a bool is no number
        (["gradcheck", "--method", "rbp"], "relaxation.max_steps: cannot read 2.7 as int",
         _with(BASE_CONFIG, "relaxation.max_steps", 2.7)),
        (["gradcheck", "--method", "rbp"], "shape.layer_dims: cannot read 2.6 as int",
         _with(BASE_CONFIG, "shape.layer_dims", [2, 2.6, 1])),
        (["gradcheck", "--method", "rbp"], "seed: cannot read True as int",
         dict(BASE_CONFIG, seed=True)),
        (["gradcheck", "--method", "rbp"], "relaxation.tolerance: cannot read True as float",
         _with(BASE_CONFIG, "relaxation.tolerance", True)),
        (["gradcheck", "--method", "eqprop"], "method.betas: cannot read True as float",
         _with(BASE_CONFIG, "method.betas", [True, 1e-4])),
        (["train"], "train.learning_rates: cannot read True as float",
         _with(XOR_CONFIG, "train.learning_rates", True)),
        # values of the wrong type, or a rate list of the wrong length
        (["gradcheck", "--method", "rbp"], "unknown activation '['tanh']'",
         dict(BASE_CONFIG, activation=["tanh"])),
        (["gradcheck", "--method", "rbp"], "unknown activation '{'name': 'tanh'}'",
         dict(BASE_CONFIG, activation={"name": "tanh"})),
        (["gradcheck", "--method", "rbp"], "dataset: cannot read ['xor.csv'] as a file path",
         dict(BASE_CONFIG, dataset=["xor.csv"])),
        (["gradcheck", "--method", "rbp"], "checkpoint: cannot read ['model.ckpt'] as a file path",
         dict(BASE_CONFIG, checkpoint=["model.ckpt"])),
        (["train"], "got 1 learning rates for 2 weight matrices",
         _with(XOR_CONFIG, "train.learning_rates", [0.5])),
    ],
    ids=["equivalence-beta", "sweep-beta-order", "sweep-steps", "gradcheck-beta",
         "step-size-config", "step-size-flag", "x-nan", "x-inf", "input-x-inf", "tolerance-nan", "delta-inf",
         "gradcheck-beta-inf", "gradcheck-betas-empty", "equivalence-beta-inf", "sweep-betas-inf", "gap-threshold-nan",
         "train-beta-inf", "gradcheck-beta-underflow", "equivalence-beta-underflow", "train-beta-underflow",
         "learning-rate-nan", "train-no-epochs",
         "train-start-without-resume", "relax-seed-flag", "train-seed-flag",
         "gradcheck-seed-config", "sweep-seed-config", "equivalence-one-beta",
         "equivalence-repeated-beta", "equivalence-one-beta-config", "max-steps-fraction",
         "layer-width-fraction", "seed-bool", "tolerance-bool", "betas-bool", "learning-rates-bool",
         "activation-list", "activation-object", "dataset-list", "checkpoint-list", "learning-rates-count"],
)
def test_out_of_range_values_exit_2_without_traceback(ws, argv, message, cfg):
    if argv[0] == "train":
        cfg = dict(cfg, dataset=write_xor(ws))
    proc = _run_cli(argv + ["--config", write_config(ws, cfg), "--out", "out"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_integral_floats_still_read_as_ints(ws):
    cfg = _with(_with(BASE_CONFIG, "relaxation.max_steps", 100000.0), "shape.layer_dims", [2.0, 2, 1])
    assert main(["gradcheck", "--config", write_config(ws, dict(cfg, seed=42.0)), "--out", "float"]) == 0
    assert main(["gradcheck", "--config", write_config(ws, BASE_CONFIG), "--out", "int"]) == 0
    report = "gradcheck_report.json"
    assert (ws / "float" / report).read_bytes() == (ws / "int" / report).read_bytes()


@pytest.mark.parametrize("method", ["rbp", "eqprop"])
@pytest.mark.parametrize("shape", [(2, [1]), (2, [2, 2, 1]), (4, [3, 3, 2])], ids=["2-1", "2-221", "4-332"])
def test_gradcheck_builds_one_force_per_network(ws, monkeypatch, method, shape):
    # per command: the free phase's force and its Newton finish's curvature,
    # the oracle's probed force, its Hessian's and its stack's, then rbp's
    # curvature, or eqprop's betas' Hessian and stack and one force per
    # beta.  The free phase's Euler
    # run and its certificate, the oracle's reference and each probe, and
    # each beta, make one `relax` call; a start within tolerance is certified
    # by one evaluation, so at most the free phase, the stacks and the
    # betas run a flow, and rbp's side process one more
    counts = {"forces": 0, "relax": 0, "flows": 0}
    init, relax, flow = fp.model.Force.__init__, fp.dynamics.relax, fp.dynamics._flow

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fp.model.Force, "__init__", counted("forces", init))
    monkeypatch.setattr(fp.dynamics, "relax", counted("relax", relax))
    monkeypatch.setattr(fp.dynamics, "_flow", counted("flows", flow))
    with open(os.path.join(_REPO, "configs", "gradcheck.json")) as f:
        cfg = dict(json.load(f), shape={"input_dim": shape[0], "layer_dims": shape[1]})
    argv = ["gradcheck", "--config", write_config(ws, cfg), "--method", method, "--out", "out"]
    assert main(argv + (["--beta", "2e-4,1e-4"] if method == "eqprop" else [])) == 0
    probes = 2 * fp.NetworkShape(shape[0], tuple(shape[1])).num_params
    forces, relax_calls, flows = (6, 3 + probes, 3) if method == "rbp" else (9, 5 + probes, 4)
    assert counts["forces"] == forces and counts["relax"] == relax_calls
    assert counts["flows"] <= flows


@pytest.mark.parametrize("act", ["logistic", "tanh"])
@pytest.mark.parametrize("shape", [(2, [1]), (2, [2, 2, 1]), (4, [3, 3, 2])], ids=["2-1", "2-221", "4-332"])
def test_rbp_gradcheck_is_within_1e_5_of_the_oracle(ws, capsys, shape, act):
    # the gradcheck shapes of the benchmark, seeds 0-2: measured at most
    # 1.1e-6 (2-221 tanh seed 2), against up to 8.3e-5 (2-221 tanh seed 0)
    # when the oracle's probes settled by Euler alone, tolerance / (2 delta)
    # of error in every difference
    with open(os.path.join(_REPO, "configs", "gradcheck.json")) as f:
        base = dict(json.load(f), shape={"input_dim": shape[0], "layer_dims": shape[1]}, activation=act)
    for seed in range(3):
        cfg = write_config(ws, dict(base, seed=seed))
        assert main(["gradcheck", "--config", cfg, "--method", "rbp", "--out", "out"]) == 0
        [report] = json.loads((ws / "out" / "gradcheck_report.json").read_text())["reports"]
        assert report["max_rel_error"] <= 1e-5
    capsys.readouterr()


def test_non_finite_dataset_value_exits_2_naming_the_line(ws):
    data = ws / "xor.csv"
    data.write_text("x0,x1,y0\n0,0,0\n0,1,nan\n1,0,1\n1,1,0\n")
    cfg = dict(XOR_CONFIG, dataset=str(data), train=dict(XOR_CONFIG["train"], epochs=2))
    proc = _run_cli(["train", "--config", write_config(ws, cfg), "--out", "out"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 3: non-finite value" in proc.stderr
    assert not (ws / "out" / "trainlog.csv").exists()


def _run_cli(argv, module="fpgrad.cli"):
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
    )

