"""Command-line front end: reproducible experiments from JSON configs.

Subcommands (the rows of `_COMMANDS`): relax, gradcheck, equivalence,
sweep, train, predict.  `main` loads the config and applies the flags,
read as their keys' kinds (see `_KEYS`), once before the command runs.
Every numeric output is printed with full round-trip precision and every
command is deterministic given config + seed, so rerunning a command
produces byte-identical files.  Exit codes: 0 success, 1 tolerance or
convergence failure, 2 configuration or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import dynamics, eqprop, equivalence, model, oracle, rbp, training
from .dynamics import RelaxationConfig
from .exceptions import (
    CheckpointError,
    ConfigError,
    DatasetError,
    FpgradError,
    ShapeError,
    UnsupportedActivationError,
)
from .model import NetworkShape

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2

# method-vs-oracle gates used by gradcheck
_RBP_TOL, _RBP_FLOOR = 1e-3, 1e-7
_EQPROP_TOL, _EQPROP_FLOOR = 1e-2, 1e-7

# Every config key, dotted by section: (kind, default, the flag that
# overrides it, named as its argparse dest: `step_size` is `--step-size`).
# `load_config` reads every key as its kind (see `_read`); a key whose
# default is None may be null.
_KEYS = {
    "shape": ("shape", None, None),
    "activation": (None, "logistic", None),
    "relaxation.step_size": (float, 0.1, "step_size"),
    "relaxation.max_steps": (int, 100_000, "max_steps"),
    "relaxation.tolerance": (float, 1e-8, "tolerance"),
    "relaxation.record_every": (int, 1, None),
    "method.name": (training.TRAIN_METHODS, "rbp", "method"),
    "method.beta": (float, 1e-3, None),  # and the first of --beta's betas
    "method.betas": ([float], [1e-3, 5e-4, 2.5e-4], "beta"),
    "method.num_steps": (int, 300, "steps"),
    "method.truncation_steps": (int, 100, None),
    "method.delta": (float, 1e-4, None),
    "method.gap_threshold": (float, 0.01, None),
    "method.step_size": (float, None, None),
    "seed": (int, 0, "seed"),
    "dataset": ("path", None, "dataset"),
    "checkpoint": ("path", None, "checkpoint"),
    "input_x": ([float], None, "x"),
    "train.epochs": (int, 100, "epochs"),
    "train.learning_rates": ("rates", 0.5, None),
}
_SECTIONS = {key.partition(".")[0] for key in _KEYS if "." in key}


def _read(value, kind, what: str):
    """`value` read strictly as `kind`, or a ConfigError naming `what`.  A
    kind is int or float (a bool is no number, a fraction no int), [kind]
    for a list of them, a tuple of the names allowed, "rates" for a float
    or a list of floats, "path" for an existing file, "shape" for a
    NetworkShape, or None for a value its command checks itself."""
    if kind is None:
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{what}: cannot read {value!r} as one of {', '.join(kind)}")
        return value
    if kind == "rates":
        kind = [float] if isinstance(value, list) else float
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{what}: cannot read {value!r} as a list")
        return [_read(v, kind[0], what) for v in value]
    if kind == "path":
        if not isinstance(value, str):
            raise ConfigError(f"{what}: cannot read {value!r} as a file path")
        if not os.path.exists(value):
            raise ConfigError(f"{what}: missing file {value}")
        return value
    if kind == "shape":
        if not isinstance(value, dict) or set(value) != {"input_dim", "layer_dims"}:
            raise ConfigError(f"shape: cannot read {value!r} as an object of input_dim and layer_dims")
        return NetworkShape(_read(value["input_dim"], int, "shape.input_dim"),
                            tuple(_read(value["layer_dims"], [int], "shape.layer_dims")))
    try:
        if isinstance(value, bool) or kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what}: cannot read {value!r} as {kind.__name__}") from None


def _put(cfg: dict, key: str, value) -> None:
    section, _, name = key.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[name] = value


def load_config(path):
    """Parse an experiment config file, fill in the defaults and read every
    key as its kind (see `_KEYS`), whether or not the command uses it."""
    raw = {}
    if path is not None:
        try:
            with open(path) as f:
                raw = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot open config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
    given = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            given[key] = value
        elif isinstance(value, dict):
            given.update((f"{key}.{k}", v) for k, v in value.items())
        else:
            raise ConfigError(f"{path}: '{key}' must be an object")
    unknown = sorted(set(given) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {unknown}")
    cfg = {"_explicit": set(raw)}
    for key, (kind, default, _) in _KEYS.items():
        value = given.get(key, default)
        _put(cfg, key, value if value is None and default is None else _read(value, kind, key))
    return cfg


def _apply_overrides(cfg, args) -> None:
    """Set the key of each flag given, read as the key's kind (see `_KEYS`;
    a list flag is split on commas), then check the rules that join keys."""
    flags = {name: value for name, value in vars(args).items() if value is not None}
    config_step = cfg["relaxation"]["step_size"]
    for key, (kind, _, flag) in _KEYS.items():
        if flag in flags:
            value = flags[flag].split(",") if isinstance(kind, list) else flags[flag]
            _put(cfg, key, _read(value, kind, "--" + flag.replace("_", "-")))
    if "beta" in flags:
        cfg["method"]["beta"] = cfg["method"]["betas"][0]
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']}")
    # a second-phase step must be the relaxation step, of the config and
    # after the flags: otherwise the processes live on different grids
    override = cfg["method"]["step_size"]
    for step in (config_step, cfg["relaxation"]["step_size"]):
        if override is not None and override != step:
            raise ConfigError(
                f"method.step_size {override!r} differs from relaxation.step_size "
                f"{step!r}; both phases must share one grid"
            )


def _resolve_network(cfg, with_point=False):
    """(shape, activation, weights) from checkpoint if given, else seeded;
    with_point, then (x, y) from the first dataset row if given, else
    seeded, drawn with the seeded weights in one instance."""
    ckpt, shape, act_name = cfg["checkpoint"], cfg["shape"], cfg["activation"]
    if ckpt is not None:
        theta, ck_shape, ck_act = training.load_checkpoint(ckpt)
        if shape is not None and shape != ck_shape:
            raise ConfigError(
                f"config shape {shape.input_dim}->{list(shape.layer_dims)} disagrees with "
                f"checkpoint shape {ck_shape.input_dim}->{list(ck_shape.layer_dims)}"
            )
        shape = ck_shape
        if "activation" not in cfg["_explicit"]:
            act_name = ck_act
    elif shape is None:
        raise ConfigError("this command needs 'shape' in the config (or a checkpoint)")
    else:
        seeded = model.random_instance(shape, cfg["seed"])
        theta = seeded[0]
    net = (shape, model.get_activation(act_name), theta)
    if not with_point:
        return net
    if cfg["dataset"] is not None:
        ds = training.load_dataset(cfg["dataset"], shape)
        return net + (ds.samples[0].x, ds.samples[0].y)
    if ckpt is not None:
        seeded = model.random_instance(shape, cfg["seed"])
    return net + seeded[1:]


def _out_path(args, name: str) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_relax(cfg, args) -> int:
    shape, act, theta = _resolve_network(cfg)
    x, what = cfg["input_x"], "input_x" if args.x is None else "--x"
    if x is None:
        raise ConfigError("relax needs an input vector: --x or config 'input_x'")
    for i, v in enumerate(x):
        if not math.isfinite(v):
            raise ConfigError(f"{what}: component {i} is not finite: {v!r}")
    if len(x) != shape.input_dim:
        raise ConfigError(f"input vector has {len(x)} components, network expects {shape.input_dim}")
    x = np.array(x)
    rcfg = RelaxationConfig(**cfg["relaxation"])
    s, traj = dynamics.relax_free(theta, x, shape.zero_state(), act, rcfg)
    csv_path = _out_path(args, "trajectory.csv")
    dynamics.write_trajectory_csv(traj, csv_path)
    e = model.energy(theta, x, s, act)
    print(
        f"relax: steps={traj.steps_taken} residual={traj.final_residual!r} "
        f"energy={e!r} converged={traj.converged}"
    )
    print(f"relax: trajectory written to {csv_path}")
    if not traj.converged and not args.allow_nonconverged:
        print(
            f"relax: did not reach tolerance {rcfg.tolerance!r} within "
            f"{rcfg.max_steps} steps",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _named(key, fn, *args):
    """fn(*args); its ConfigErrors, all caused by the value of `key`, name it."""
    try:
        return fn(*args)
    except ConfigError as e:
        raise ConfigError(f"{key}: {e}") from None


def cmd_gradcheck(cfg, args) -> int:
    shape, act, theta, x, y = _resolve_network(cfg, with_point=True)
    rcfg = RelaxationConfig(**cfg["relaxation"])
    fd = oracle.FDConfig(delta=cfg["method"]["delta"])
    method, betas = cfg["method"]["name"], cfg["method"]["betas"]
    if method not in ("rbp", "eqprop"):
        raise ConfigError(f"gradcheck supports methods rbp and eqprop, got '{method}'")
    if method == "rbp":
        estimates = [rbp.rbp_gradient(theta, x, y, act, rcfg)]
    else:  # one free phase for every beta; their nudged phases, in the order given, as one stack
        estimates = _named("method.betas", eqprop.eqprop_gradients, theta, x, y, betas, act, rcfg)
    # the oracle starts from the estimator's free point and re-certifies it under its own tolerance
    reference = oracle.fd_objective_gradient(theta, x, y, act, rcfg, fd, estimates[0].free_point)

    def corrupted(grad):
        if args.inject_fault:
            grad = model.copy_blocks(grad)
            grad[0][0, 0] += 1e-2
        return grad

    reports = []
    if method == "rbp":
        [est] = estimates
        rep = oracle.gradient_report(corrupted(est.grad), reference.grad, _RBP_TOL, _RBP_FLOOR)
        rep["method"] = "rbp"
        reports.append(rep)
    else:
        errors = []
        for beta, est in zip(betas, estimates):
            grad = corrupted(est.grad)
            rep = oracle.gradient_report(grad, reference.grad, _EQPROP_TOL, _EQPROP_FLOOR)
            rep.update(method="eqprop", beta=beta)
            errors.append(model.inf_norm([a - b for a, b in zip(grad, reference.grad)]))
            reports.append(rep)
        if len(betas) >= 2:
            # null, not Infinity, where the smaller beta's error is 0: strict JSON
            ratios = [a / b if b > 0 else None for a, b in zip(errors, errors[1:])]
            reports.append({"method": "eqprop-beta-scaling", "betas": betas,
                            "max_abs_errors": errors, "error_ratios": ratios})
    payload = {"reports": reports}
    if not any(np.any(g) for g in reference.grad):
        # an all-zero reference (a fixed point the weights cannot move)
        # verifies nothing: an estimate within tolerance of it is not a pass
        payload["note"] = "degenerate: the finite-difference reference is identically zero"
        for r in reports:
            if r.get("passed"):
                r["passed"] = None
    report_path = _out_path(args, "gradcheck_report.json")
    _write_json(report_path, payload)
    ok = not any(r.get("passed") is False for r in reports)
    for r in reports:
        if "passed" in r:
            tag = f"method={r['method']}" + (f" beta={r['beta']!r}" if "beta" in r else "")
            print(
                f"gradcheck: {tag} max_rel_error={r['max_rel_error']!r} "
                f"passed={r['passed']}"
            )
        else:
            print(
                f"gradcheck: beta scaling errors={r['max_abs_errors']!r} "
                f"ratios={r['error_ratios']!r}"
            )
    if "note" in payload:
        print(f"gradcheck: {payload['note']}")
    print(f"gradcheck: report written to {report_path}")
    if not ok:
        worst = max((r for r in reports if "passed" in r), key=lambda r: r["max_rel_error"])
        print(
            f"gradcheck: tolerance breach, worst max_rel_error={worst['max_rel_error']!r}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _run_sweep(cfg, args, fit_slope=False):
    shape, act, theta, x, y = _resolve_network(cfg, with_point=True)
    rcfg = RelaxationConfig(**cfg["relaxation"])
    betas, num_steps = cfg["method"]["betas"], cfg["method"]["num_steps"]
    _named("method.betas", eqprop.check_betas, betas)
    if fit_slope and len(set(betas)) < 2:
        raise ConfigError("method.betas: equivalence needs at least two distinct betas to fit a slope")
    if num_steps < 0:
        raise ConfigError(f"method.num_steps must be >= 0, got {num_steps}")
    reports = equivalence.beta_sweep(theta, x, y, betas, num_steps, act, rcfg)
    paths = [_out_path(args, f"equivalence_beta{i}.csv") for i in range(len(reports))]
    equivalence._write_csvs(reports, paths)
    return reports, paths, rcfg


def _degenerate(rep, tolerance) -> bool:
    # an instance whose output already matches the target has identically
    # tiny processes; gaps then sit at the residual noise floor
    return max(rep.max_s_gap, rep.max_theta_gap) <= 10.0 * tolerance / rep.beta


def cmd_equivalence(cfg, args) -> int:
    threshold = cfg["method"]["gap_threshold"]
    if not 0 <= threshold < math.inf:
        raise ConfigError(f"method.gap_threshold must be finite and >= 0, got {threshold}")
    reports, paths, rcfg = _run_sweep(cfg, args, fit_slope=True)
    summary = equivalence.summarize(reports)
    tol = eqprop.tightened(rcfg, min(r.beta for r in reports)).tolerance
    if all(_degenerate(r, tol) for r in reports):
        summary["note"] = "degenerate: processes are at the residual floor; slope fit skipped"
        _write_json(_out_path(args, "equivalence_summary.json"), summary)
        print(f"equivalence: {summary['note']}")
        return EXIT_OK
    _write_json(_out_path(args, "equivalence_summary.json"), summary)
    smallest = min(reports, key=lambda r: r.beta)
    rel_gap = smallest.max_s_gap / smallest.reference_scale
    print(
        f"equivalence: s_slope={summary['s_slope']!r} theta_slope={summary['theta_slope']!r} "
        f"rel_gap_at_beta={smallest.beta!r}: {rel_gap!r}"
    )
    for p in paths:
        print(f"equivalence: per-step gaps written to {p}")
    slopes_ok = (
        summary["s_slope"] is not None
        and 0.8 <= summary["s_slope"] <= 1.2
        and 0.8 <= summary["theta_slope"] <= 1.2
    )
    if not slopes_ok or rel_gap > threshold:
        print(
            f"equivalence: gate failed (slopes in [0.8, 1.2]? {slopes_ok}; "
            f"relative gap {rel_gap!r} <= {threshold!r}? {rel_gap <= threshold})",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_sweep(cfg, args) -> int:
    reports, paths, _ = _run_sweep(cfg, args)
    summary_path = _out_path(args, "sweep_summary.csv")
    with open(summary_path, "w") as f:
        f.write("beta,max_s_gap,max_theta_gap,reference_scale\n")
        for r in reports:
            f.write(
                f"{r.beta!r},{r.max_s_gap!r},{r.max_theta_gap!r},{r.reference_scale!r}\n"
            )
    for p in paths:
        print(f"sweep: per-step gaps written to {p}")
    print(f"sweep: summary written to {summary_path}")
    return EXIT_OK


def _train_config(cfg) -> training.TrainConfig:
    m = cfg["method"]
    tcfg = training.TrainConfig(
        method=m["name"],
        beta=m["beta"],
        truncation_steps=m["truncation_steps"] if m["name"] == "eqprop-truncated" else None,
        learning_rates=cfg["train"]["learning_rates"],
        epochs=cfg["train"]["epochs"],
        relaxation=RelaxationConfig(**cfg["relaxation"]),
        seed=cfg["seed"],
    )
    if tcfg.method != "rbp":
        _named("method.beta", eqprop.check_betas, [tcfg.beta])
    return tcfg


def cmd_train(cfg, args) -> int:
    if cfg["dataset"] is None:
        raise ConfigError("train needs a dataset path in the config or --dataset")
    start_epoch = args.start_epoch
    if start_epoch < 0:
        raise ConfigError(f"--start-epoch must be >= 0, got {start_epoch}")
    if start_epoch and args.resume is None:
        raise ConfigError(f"--start-epoch {start_epoch} needs --resume CKPT")
    cfg["checkpoint"] = args.resume  # training starts from --resume, else from its seeded init
    shape, act, theta = _resolve_network(cfg)
    ds = training.load_dataset(cfg["dataset"], shape)
    tcfg = _train_config(cfg)
    if start_epoch >= tcfg.epochs:
        raise ConfigError(
            f"no epochs to run: start epoch {start_epoch} is not below epochs {tcfg.epochs}"
        )
    theta, log = training.sgd_train(
        ds, shape, act, tcfg, initial_params=theta if args.resume else None, start_epoch=start_epoch
    )
    log_path = _out_path(args, "trainlog.csv")
    training.write_trainlog_csv(log, log_path, start_epoch=start_epoch)
    ckpt_path = _out_path(args, "model.ckpt")
    training.save_checkpoint(theta, shape, act.name, ckpt_path)
    print(
        f"train: epochs={start_epoch}..{tcfg.epochs} final_mean_cost={log.mean_costs[-1]!r} "
        f"final_accuracy={log.accuracies[-1]!r}"
    )
    print(f"train: log written to {log_path}, checkpoint to {ckpt_path}")
    return EXIT_OK


def cmd_predict(cfg, args) -> int:
    if cfg["checkpoint"] is None:
        raise ConfigError("predict needs a checkpoint in the config or --checkpoint")
    if cfg["dataset"] is None:
        raise ConfigError("predict needs a dataset path in the config or --dataset")
    shape, act, theta = _resolve_network(cfg)
    ds = training.load_dataset(cfg["dataset"], shape)
    rcfg = RelaxationConfig(**cfg["relaxation"])
    out_path = _out_path(args, "predictions.csv")
    width = shape.layer_dims[0]
    with open(out_path, "w") as f:
        f.write("index," + ",".join(f"out{i}" for i in range(width)) + "\n")
        for i, sm in enumerate(ds.samples):
            pred = training.predict(theta, sm.x, act, rcfg)
            f.write(f"{i}," + ",".join(repr(float(v)) for v in pred) + "\n")
    print(f"predict: {len(ds.samples)} outputs written to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

# Every command: (function, help line, the `_KEYS` flags it takes besides
# the four of every command, its own switches with their argparse keywords).
_COMMON_FLAGS = ("seed", "max_steps", "tolerance", "step_size")
_COMMANDS = {
    "relax": (cmd_relax, "relax freely from the zero state, dump trajectory",
              ("x", "checkpoint"), {"--allow-nonconverged": {"action": "store_true"}}),
    "gradcheck": (cmd_gradcheck, "compare a gradient method against the FD oracle",
                  ("method", "beta", "checkpoint", "dataset"),
                  {"--inject-fault": {"action": "store_true", "help": argparse.SUPPRESS}}),
    "equivalence": (cmd_equivalence, "matched-grid process comparison with gates",
                    ("beta", "steps", "checkpoint", "dataset"), {}),
    "sweep": (cmd_sweep, "beta sweep of the process comparison, no gates",
              ("beta", "steps", "checkpoint", "dataset"), {}),
    "train": (cmd_train, "per-sample SGD on a CSV dataset", ("method", "beta", "epochs", "dataset"),
              {"--resume": {"help": "checkpoint to continue from"},
               "--start-epoch": {"type": int, "default": 0}}),
    "predict": (cmd_predict, "outputs at the free fixed point per dataset row",
                ("checkpoint", "dataset"), {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from `_COMMANDS`: parsing
    leaves it unchanged.  A flag is spelled in full; one of `_KEYS` keeps
    its string, which `_apply_overrides` reads as its key's kind."""
    parser = argparse.ArgumentParser(
        prog="fpgrad", allow_abbrev=False,
        description=(
            "Fixed-point recurrent network gradients: relaxation, gradient "
            "checking, process-equivalence harnesses, and toy training."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {flag: f"sets {key}" + (", comma-separated" if isinstance(kind, list) else "")
            for key, (kind, _, flag) in _KEYS.items() if flag}
    for name, (func, text, flags, switches) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output directory (default: current)")
        for flag in _COMMON_FLAGS + flags:
            p.add_argument("--" + flag.replace("_", "-"), help=helps[flag])
        for switch, keywords in switches.items():
            p.add_argument(switch, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        return args.func(cfg, args)
    except (
        ConfigError,
        CheckpointError,
        DatasetError,
        ShapeError,
        UnsupportedActivationError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FpgradError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
