"""The four workloads: inputs made from the workload seed, the command of
each op, and the check of each op's outputs.

An op is one `fpgrad.cli.main(argv)` call.  A workload has a fixed
number of distinct commands, `distinct_ops`; a run cycles through them
(see run.py) and runs at least the first one twice, and two ops with the
same inputs must write byte-identical files.  Command d takes its seed
from (workload seed, d) alone, so the same workload seed always gives the
same commands.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# equivalence gate, as in the `equivalence` command's contract
SLOPE_RANGE = (0.8, 1.2)
MAX_REL_GAP = 0.01
# training gate on the final epoch's mean cost
MAX_FINAL_COST = 0.05
TRAIN_EPOCHS = 200
GRADCHECK_BETAS = "2e-4,1e-4"

# gradcheck shapes as (input_dim, layer_dims), 2 to 23 weights; the middle
# one is the shape of configs/gradcheck.json.  Op times cluster by shape,
# and with an odd number of shapes the median falls inside the middle
# cluster, not on the edge between two.
GRADCHECK_SHAPES = ((2, (1,)), (2, (2, 2, 1)), (4, (3, 3, 2)))

WIDE_SHAPE = (64, (10, 256, 256))
WIDE_BETAS = [1e-3, 5e-4, 2.5e-4]
WIDE_STEPS = 300
WIDE_TOLERANCE = 1e-12


def op_seed(workload_seed: int, salt: int, d: int) -> int:
    return int(np.random.SeedSequence([workload_seed, salt, d]).generate_state(1)[0] >> 1)


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)


class Workload:
    """Base: subclasses set `name`, `why`, `salt`, `distinct_ops`,
    `trace_ops` and implement `_setup`, `argv`, `warmup_argv`, `check` and
    `kernel_instance`."""

    name = ""
    why = ""
    salt = 0
    # distinct commands of an end-to-end run, cycled through while time lasts
    distinct_ops = 1
    # an op's time is divided by the reference loop's slowdown to this
    # power (see run.SpeedProbe): 1 for interpreter-bound ops
    speed_exponent = 1.0
    # distinct commands of a traced run; fixed so two traced runs count the same work
    trace_ops = 1

    def __init__(self, root, seed, work_dir):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self._setup()

    def _path(self, *parts):
        return os.path.join(self.root, *parts)

    def _setup(self):
        raise NotImplementedError

    def argv(self, d: int, out_dir: str) -> list:
        raise NotImplementedError

    def check(self, d: int, out_dir: str, run_cli) -> str | None:
        """None if the op's outputs pass, else the reason they do not."""
        raise NotImplementedError

    def kernel_instance(self, fp):
        """(theta, x, free fixed point, direction, activation) at this
        workload's shape, for timing the model kernels."""
        raise NotImplementedError

    def warmup_argv(self, out_dir):
        """A small untimed command on the same code paths as the ops."""
        raise NotImplementedError


def _free_point(fp, theta, x, act, tolerance, step_size):
    cfg = fp.RelaxationConfig(step_size=step_size, tolerance=tolerance)
    s, traj = fp.relax_free(theta, x, fp.model.zero_state_like(theta), act, cfg)
    if not traj.converged:
        raise RuntimeError("kernel instance: free phase did not converge")
    return s


def _direction(rng, s):
    return [rng.standard_normal(sk.shape[0]) for sk in s]


class XorTraining(Workload):
    method = ""
    distinct_ops = 6
    trace_ops = 2

    def _setup(self):
        cfg = _read_json(self._path("configs", f"xor_{self.method}.json"))
        cfg["dataset"] = self._path("data", "xor.csv")
        cfg["train"]["epochs"] = TRAIN_EPOCHS
        self.config = cfg
        self.config_path = os.path.join(self.work_dir, f"xor_{self.method}.json")
        _write_json(self.config_path, cfg)
        with open(cfg["dataset"], newline="") as f:
            rows = list(csv.DictReader(f))
        self.targets = [float(r["y0"]) for r in rows]

    def argv(self, d, out_dir):
        seed = op_seed(self.seed, self.salt, d)
        return ["train", "--config", self.config_path, "--seed", str(seed), "--out", out_dir]

    def warmup_argv(self, out_dir):
        return self.argv(0, out_dir) + ["--epochs", "2"]

    def check(self, d, out_dir, run_cli):
        with open(os.path.join(out_dir, "trainlog.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != TRAIN_EPOCHS:
            return f"trainlog has {len(rows)} epochs, expected {TRAIN_EPOCHS}"
        final = float(rows[-1]["mean_cost"])
        if not final <= MAX_FINAL_COST:
            return f"final mean cost {final!r} > {MAX_FINAL_COST}"
        accuracy = float(rows[-1]["accuracy"])
        if accuracy != 1.0:
            return f"final training accuracy {accuracy!r}, not 4/4"
        pred_dir = os.path.join(out_dir, "predict")
        rc = run_cli(
            ["predict", "--config", self.config_path,
             "--checkpoint", os.path.join(out_dir, "model.ckpt"), "--out", pred_dir]
        )
        if rc != 0:
            return f"predict exited {rc}"
        with open(os.path.join(pred_dir, "predictions.csv"), newline="") as f:
            preds = [float(r["out0"]) for r in csv.DictReader(f)]
        if len(preds) != len(self.targets) or not all(np.isfinite(preds)):
            return f"predict wrote {preds!r} for {len(self.targets)} rows"
        hits = sum((p >= 0.5) == (y >= 0.5) for p, y in zip(preds, self.targets))
        if hits != len(self.targets):
            return f"predict {hits}/{len(self.targets)} on XOR: {preds!r}"
        return None

    def kernel_instance(self, fp):
        c = self.config
        shape = fp.NetworkShape(c["shape"]["input_dim"], tuple(c["shape"]["layer_dims"]))
        act = fp.get_activation(c["activation"])
        theta = fp.init_params(shape, op_seed(self.seed, self.salt, 0))
        x = np.array([0.0, 1.0])
        r = c["relaxation"]
        s = _free_point(fp, theta, x, act, r["tolerance"], r["step_size"])
        return theta, x, s, _direction(np.random.default_rng(self.seed), s), act


class XorRbp(XorTraining):
    name = "xor-rbp"
    why = "XOR training with rbp: the only workload where the rbp side process does most of the work"
    salt = 1
    method = "rbp"
    # its ops are the slowest: five must fit in a run on a slow host
    distinct_ops = 4


class XorEqprop(XorTraining):
    name = "xor-eqprop"
    why = "XOR training with eqprop: free and nudged relax dominate and the rbp side process is never called"
    salt = 2
    method = "eqprop"
    trace_ops = 3


class GradcheckSmall(Workload):
    name = "gradcheck-small"
    why = "gradcheck of rbp and eqprop on 2 to 23 weights: the fd-oracle relaxations dominate"
    salt = 3
    # three instances of each shape under each method, so that the median
    # and the command with ten beyond it both fall in the middle shape
    distinct_ops = 6 * len(GRADCHECK_SHAPES)
    trace_ops = 2 * len(GRADCHECK_SHAPES)

    def _setup(self):
        base = _read_json(self._path("configs", "gradcheck.json"))
        self.config_paths = []
        for j, (nx, dims) in enumerate(GRADCHECK_SHAPES):
            cfg = dict(base, shape={"input_dim": nx, "layer_dims": list(dims)})
            path = os.path.join(self.work_dir, f"gradcheck_{j}.json")
            _write_json(path, cfg)
            self.config_paths.append(path)

    def argv(self, d, out_dir):
        slot = (d // 2) % len(GRADCHECK_SHAPES)
        seed = op_seed(self.seed, self.salt, d // 2)
        argv = ["gradcheck", "--config", self.config_paths[slot], "--seed", str(seed)]
        if d % 2 == 0:
            argv += ["--method", "rbp"]
        else:
            argv += ["--method", "eqprop", "--beta", GRADCHECK_BETAS]
        return argv + ["--out", out_dir]

    def warmup_argv(self, out_dir):
        return self.argv(0, out_dir)

    def check(self, d, out_dir, run_cli):
        report = _read_json(os.path.join(out_dir, "gradcheck_report.json"))
        graded = [r for r in report["reports"] if "passed" in r]
        if not graded:
            return "gradcheck report has no graded entry"
        bad = [r for r in graded if r["passed"] is not True]
        if bad:
            return f"gradcheck report did not pass: max_rel_error {bad[0]['max_rel_error']!r}"
        return None

    def kernel_instance(self, fp):
        nx, dims = max(GRADCHECK_SHAPES, key=lambda s: sum(s[1]))
        shape = fp.NetworkShape(nx, dims)
        theta, x, _ = fp.random_instance(shape, op_seed(self.seed, self.salt, 0))
        act = fp.LOGISTIC
        s = _free_point(fp, theta, x, act, 1e-12, 0.1)
        return theta, x, s, _direction(np.random.default_rng(self.seed), s), act


class EquivalenceWide(Workload):
    name = "equivalence-wide"
    why = "equivalence on 64->[10,256,256]: arithmetic, bytes and recorded snapshots dominate, not interpreter overhead"
    salt = 4
    distinct_ops = 3
    # bound by arithmetic and bytes, these ops slow down less than the
    # reference loop: over 40 ops on a 2-vCPU Xeon VM, the log of their time
    # against the log of the loop's slowdown had slope 0.81
    speed_exponent = 0.8
    trace_ops = 2

    def _setup(self):
        cfg = _read_json(self._path("configs", "equivalence.json"))
        cfg["shape"] = {"input_dim": WIDE_SHAPE[0], "layer_dims": list(WIDE_SHAPE[1])}
        cfg["activation"] = "logistic"
        cfg["relaxation"]["tolerance"] = WIDE_TOLERANCE
        cfg["method"].update(betas=WIDE_BETAS, num_steps=WIDE_STEPS)
        self.config_path = os.path.join(self.work_dir, "equivalence_wide.json")
        _write_json(self.config_path, cfg)

    def argv(self, d, out_dir):
        seed = op_seed(self.seed, self.salt, d)
        return ["equivalence", "--config", self.config_path, "--seed", str(seed), "--out", out_dir]

    def warmup_argv(self, out_dir):
        # an ungated one-beta sweep: it records as many snapshots as one
        # beta of an op does, so the first op does not pay for growing the
        # process's heap
        seed = op_seed(self.seed, self.salt, 0)
        return ["sweep", "--config", self.config_path, "--seed", str(seed),
                "--beta", repr(WIDE_BETAS[0]), "--out", out_dir]

    def check(self, d, out_dir, run_cli):
        summary = _read_json(os.path.join(out_dir, "equivalence_summary.json"))
        if "degenerate" in summary.get("note", ""):
            return "degenerate equivalence instance"
        lo, hi = SLOPE_RANGE
        for key in ("s_slope", "theta_slope"):
            v = summary.get(key)
            if v is None or not lo <= v <= hi:
                return f"{key} {v!r} outside [{lo}, {hi}]"
        i = int(np.argmin(summary["betas"]))
        rel_gap = summary["max_s_gaps"][i] / summary["reference_scales"][i]
        if not rel_gap <= MAX_REL_GAP:
            return f"relative gap {rel_gap!r} > {MAX_REL_GAP}"
        return None

    def kernel_instance(self, fp):
        shape = fp.NetworkShape(WIDE_SHAPE[0], WIDE_SHAPE[1])
        theta, x, _ = fp.random_instance(shape, op_seed(self.seed, self.salt, 0))
        act = fp.LOGISTIC
        s = _free_point(fp, theta, x, act, WIDE_TOLERANCE, 0.1)
        return theta, x, s, _direction(np.random.default_rng(self.seed), s), act


WORKLOADS = {w.name: w for w in (XorRbp, XorEqprop, GradcheckSmall, EquivalenceWide)}

# Runnable by name but not listed in BENCHMARK.json, which lists only
# workloads on which every op passes its check.  Most of their ops fail
# the XOR `predict` check: training with `persistent_state` relaxes each
# sample from its stored state, `predict` relaxes from the zero state, and
# the two settle at different fixed points.
HELD_OUT = ("xor-rbp", "xor-eqprop")
