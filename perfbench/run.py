#!/usr/bin/env python3
"""fpgrad benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; fpgrad is imported from `src/`.
One client sends one command at a time, in process, through
`fpgrad.cli.main(argv)`; an op is one such call.  Each op's outputs are
checked (see workloads.py) and a failed check counts the op as failed.

With `--trace 0` the run measures end-to-end metrics for `--seconds`:
set-up time of a fresh process (median of several), then ops that cycle
through the workload's distinct commands for as long as they fit; a
command's time is the median of its repeats, and ops per second, the
median and the tail op time are taken over those command times.  The
process's peak RSS covers the whole run.

Op and set-up times are rescaled to a reference host speed.  A shared
host can run the same code at very different speeds for longer than a
run lasts: on a 2-vCPU Xeon VM at 2.0 GHz a loop of small numpy calls
(`reference_s`) ran at 5 us per call in one phase and 8-9 us in the
other; phases lasted from under a second to minutes, one of them could
prevail for over an hour, and the raw medians of ten runs spread by up
to a third of their value.  So while an op runs, `SpeedProbe` times a
short reference loop every PROBE_INTERVAL_S, and the op's time, less
those samples, is divided by their mean time per call over
REFERENCE_CALL_S, raised to the workload's `speed_exponent`: 1 where the
op is interpreter-bound like the loop, less where it is bound by
arithmetic and bytes, which slow down less.  Set-up time is rescaled
with exponent 1, by a probe in each set-up process.  The raw seconds
are in the details; per-layer times of a traced run are raw.

With `--trace 1` it runs a fixed set of commands, each untraced and then
with spans around the public functions of each layer (tracing.py), runs
one again under tracemalloc where `compare_processes` is called, and
reports per-layer self times and work counts, that call's peak memory,
the model kernels' per-call times at the workload's shape (kernels.py),
and the tracing overhead as the median of the per-command traced to
untraced ratios of rescaled op times.  Times of layers that a workload
bypasses are in the details, not the result line (LAYER_UNITS_IN_DETAILS).
`--fast` shortens set-up timing, the traced op set and kernel timing, for
the benchmark's own tests.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it holds the
details: the environment, every op time, the tail level, the fail ratio
and any failure reasons.  Both, and the spans of a traced run, are also
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import kernels  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# op_s_tail is the command with this many slower ones beyond it
TAIL_BEYOND = 10
# the reference loop's time per call in the fast phase of the VM
# described above
REFERENCE_CALL_S = 5e-6
# while an op runs, a short reference loop is timed this often
PROBE_INTERVAL_S = 0.05
PROBE_CALLS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_fpgrad():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fpgrad", "cli.py")):
        raise BenchError(f"no fpgrad sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import fpgrad
    import fpgrad.cli

    if os.path.dirname(os.path.abspath(fpgrad.__file__)) != os.path.join(src, "fpgrad"):
        raise BenchError(f"imported fpgrad from {fpgrad.__file__}, not from {src}")
    return fpgrad


# Per-layer metrics of the result line.  Every listed workload runs these
# layers, so none of their times reads 0 on every run.
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "equivalence.compare_processes.peak_mb": "MB",
    "equivalence.error_process_path.steps": "count",
    "eqprop.nudged_steps": "count",
    "rbp.side_steps": "count",
    "oracle.probes": "count",
    "oracle.probe_steps": "count",
    "dynamics.relax.calls": "count",
    "dynamics.relax.steps": "count",
    "dynamics.relax.self_s": "s",
    "dynamics.relax.us_per_step": "us",
    "dynamics.relax.converged_ratio": "ratio",
    "dynamics.relax_free.steps": "count",
    "dynamics.relax_nudged.steps": "count",
    "dynamics.path.steps": "count",
    **{f"model.{k}.{field}": unit for k in kernels.KERNELS
       for field, unit in (("us", "us"), ("flops", "flop"), ("bytes", "bytes"))},
    "trace.overhead_pct": "%",
}
# Times of layers that only some workloads run (0 on the others), and the
# training layer, which no listed workload runs: in the details line.
LAYER_UNITS_IN_DETAILS = {
    "training.sgd_train.self_s": "s",
    "training.samples": "count",
    "equivalence.compare_processes.self_s": "s",
    "equivalence.error_process_path.self_s": "s",
    "eqprop.eqprop_gradient.self_s": "s",
    "eqprop.temporal_derivative_process.self_s": "s",
    "rbp.rbp_gradient.self_s": "s",
    "rbp.us_per_side_step": "us",
    "oracle.fd_objective_gradient.self_s": "s",
    "dynamics.path.self_s": "s",
    "dynamics.path.us_per_step": "us",
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_threads(np):
    # numpy wheels bundle OpenBLAS under numpy.libs; ask it directly
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fpgrad", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment(fpgrad_threads_inherited):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_runtime": _openblas_threads(np),
        "fpgrad_threads_inherited": fpgrad_threads_inherited,
        "fpgrad_threads_used": os.environ.get("FPGRAD_THREADS"),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class OpRunner:
    """Runs ops one at a time, checks their outputs, and counts failures."""

    def __init__(self, cli, workload, work_dir):
        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.output_bytes = []
        self._digests = {}
        self._ops = 0

    def _call(self, argv, op=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                self.tracer.op = op
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed op, not a dead benchmark
                rc = None
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.op = None
        return rc, dt, out.getvalue(), err.getvalue()

    def check_cli(self, argv):
        return self._call(argv)[0]

    def warmup(self):
        out_dir = os.path.join(self.work_dir, "warmup")
        rc, _, _, err = self._call(self.workload.warmup_argv(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
        if rc != 0:
            self.failures.append(f"warm-up exited {rc}: {err[-500:]}")

    def op(self, d):
        """Run distinct command d; return its wall time in seconds."""
        i = self._ops
        self._ops += 1
        out_dir = os.path.join(self.work_dir, f"op{i}")
        argv = self.workload.argv(d, out_dir)
        rc, dt, out, err = self._call(argv, op=i)
        reason = None
        if rc != 0:
            reason = f"exit {rc}: {err[-500:]}"
        else:
            digests, size = _digest_files(out_dir)
            self.output_bytes.append(size + len(out.encode()) + len(err.encode()))
            key = tuple("<out>" if a == out_dir else a for a in argv)
            first = self._digests.setdefault(key, digests)
            if first != digests:
                reason = "outputs differ from an earlier op with the same inputs"
            else:
                try:
                    reason = self.workload.check(d, out_dir, self.check_cli)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                    reason = f"unreadable output: {e!r}"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"op {i} {' '.join(argv)}: {reason}")
        return dt


def _digest_files(out_dir):
    digests = {}
    size = 0
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                data = f.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


def reference_s(calls):
    """Wall time of a loop of small numpy calls, the kind of work that
    interpreter-bound code such as fpgrad's relaxation loops does."""
    a = np.linspace(0.0, 1.0, 4)
    b = a[::-1].copy()
    t0 = time.perf_counter()
    for _ in range(calls):
        float(np.max(np.abs(a - 0.1 * b)))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed while an op runs: once before it, then
    every PROBE_INTERVAL_S of wall time from a SIGALRM handler, which runs
    in the thread that runs the op, it times the reference loop."""

    def __enter__(self):
        self.samples = [reference_s(PROBE_CALLS)]
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(reference_s(PROBE_CALLS))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def inside_s(self):
        """Time spent in the samples taken after the first."""
        return sum(self.samples[1:])

    def slowdown(self):
        """Mean time per reference call over REFERENCE_CALL_S."""
        return statistics.fmean(self.samples) / (PROBE_CALLS * REFERENCE_CALL_S)

    def rescale(self, seconds, exponent=1.0):
        """`seconds` of op time, less the samples taken inside it, as they
        would read on a host where a reference call takes REFERENCE_CALL_S,
        for work that slows down as the loop's slowdown to `exponent`."""
        return (seconds - self.inside_s()) / self.slowdown() ** exponent


def timed_op(runner, d):
    """(raw, rescaled) seconds of one op of command d."""
    with SpeedProbe() as probe:
        t = runner.op(d)
    return t, probe.rescale(t, runner.workload.speed_exponent)


def tail(times):
    """(value, level in percent) of the highest percentile with at least
    TAIL_BEYOND values beyond it: the (TAIL_BEYOND + 1)-th largest.  With
    few values that level is low, so it is always reported beside the
    value; with TAIL_BEYOND values or fewer the smallest is the nearest
    there is."""
    s = sorted(times)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * i / len(s)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def time_setup(args, repeats):
    """Wall times of fresh processes importing fpgrad and making the
    workload's inputs, raw and rescaled by a SpeedProbe in each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    walls, scaled = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if r.returncode != 0:
            raise BenchError(f"set-up process failed: {r.stderr.strip()[-500:]}")
        inside, slowdown = map(float, r.stdout.split())
        walls.append(wall)
        scaled.append((wall - inside) / slowdown)
    return walls, scaled


def run_end_to_end(args, runner):
    setup_walls, setup_scaled = time_setup(args, 1 if args.fast else SETUP_REPEATS)
    runner.warmup()
    m = 1 if args.fast else runner.workload.distinct_ops
    times = [[] for _ in range(m)]  # times[d]: raw op seconds of command d
    scaled = [[] for _ in range(m)]
    t_start = time.perf_counter()
    i = 0
    # cycle through the commands, each at least once and the first twice,
    # so two ops with the same inputs are compared; start an op only if
    # one as slow as the slowest so far still fits
    while i <= m or (
        time.perf_counter() - t_start + max(map(max, times)) <= args.seconds
    ):
        t, r = timed_op(runner, i % m)
        times[i % m].append(t)
        scaled[i % m].append(r)
        i += 1
    per_command = [statistics.median(t) for t in scaled]
    value, level = tail(per_command)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": m / sum(per_command),
        "op_s_p50": statistics.median(per_command),
        "op_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "commands": m, "ops": i, "op_s_tail_level_pct": level,
        "raw_setup_s": setup_walls,
        "raw_op_s_by_command": times, "op_s_by_command": scaled,
        "raw_op_s_p50": statistics.median(statistics.median(t) for t in times),
    }
    return metrics, END_TO_END_UNITS, details


def run_traced(args, runner, fp):
    n = 1 if args.fast else runner.workload.trace_ops
    runner.warmup()
    # each command untraced, then traced right after, so a change in host
    # speed between the two is as small as it can be; both are rescaled as
    # in an end-to-end run
    tracer = tracing.Tracer()
    untraced, traced, out_bytes = [], [], []
    for d in range(n):
        untraced.append(timed_op(runner, d)[1])
        kept = len(runner.output_bytes)
        runner.tracer = tracer.install()
        with tracer:
            traced.append(timed_op(runner, d)[1])
        runner.tracer = None
        out_bytes += runner.output_bytes[kept:]

    summary = tracer.summary()
    peaks = []
    if "equivalence.compare_processes" in summary:
        with tracing.PeakMemory() as memory:
            runner.op(0)
        peaks = memory.peaks

    theta, x, s, v, act = runner.workload.kernel_instance(fp)
    batches, min_batch = (3, 0.002) if args.fast else (7, 0.02)
    kernel_us = kernels.time_kernels(fp.model, theta, x, s, v, act, batches, min_batch)
    costs = kernels.kernel_costs(x.shape[0], tuple(w.shape[0] for w in theta))

    def get(name, field="self_s"):
        return summary.get(name, {}).get(field, 0.0)

    def per_step_us(name):
        steps = get(name, "steps")
        return 1e6 * get(name) / steps if steps else 0.0

    probes = tracer.child_counts("oracle.fd_objective_gradient", "dynamics.relax", skip_first=1)
    relax_calls = get("dynamics.relax", "calls")
    m = {
        "cli.main.self_s": get("cli.main"),
        "cli.output_bytes": sum(out_bytes),
        "training.sgd_train.self_s": get("training.sgd_train"),
        "training.samples": get("training.sgd_train", "samples"),
        "equivalence.compare_processes.self_s": get("equivalence.compare_processes"),
        "equivalence.error_process_path.self_s": get("equivalence.error_process_path"),
        "equivalence.error_process_path.steps": get("equivalence.error_process_path", "steps"),
        "eqprop.eqprop_gradient.self_s": get("eqprop.eqprop_gradient"),
        "eqprop.nudged_steps": get("eqprop.eqprop_gradient", "steps"),
        "eqprop.temporal_derivative_process.self_s": get("eqprop.temporal_derivative_process"),
        "rbp.rbp_gradient.self_s": get("rbp.rbp_gradient"),
        "rbp.side_steps": get("rbp.rbp_gradient", "steps"),
        "oracle.fd_objective_gradient.self_s": get("oracle.fd_objective_gradient"),
        "oracle.probes": probes["calls"],
        "oracle.probe_steps": probes["steps"],
        "dynamics.relax.calls": relax_calls,
        "dynamics.relax.steps": get("dynamics.relax", "steps"),
        "dynamics.relax.self_s": get("dynamics.relax"),
        "dynamics.relax_free.steps": get("dynamics.relax_free", "steps"),
        "dynamics.relax_nudged.steps": get("dynamics.relax_nudged", "steps"),
        "dynamics.path.steps": get("dynamics.path", "steps"),
        "dynamics.path.self_s": get("dynamics.path"),
    }
    # whole-run totals become per-op values; ratios are taken on totals
    m = {name: value / n for name, value in m.items()}
    m["equivalence.compare_processes.peak_mb"] = max(peaks) / 2**20 if peaks else 0.0
    m["rbp.us_per_side_step"] = per_step_us("rbp.rbp_gradient")
    m["dynamics.relax.us_per_step"] = per_step_us("dynamics.relax")
    m["dynamics.relax.converged_ratio"] = (
        get("dynamics.relax", "converged") / relax_calls if relax_calls else 0.0
    )
    m["dynamics.path.us_per_step"] = per_step_us("dynamics.path")
    for k in kernels.KERNELS:
        m[f"model.{k}.us"] = kernel_us[k]
        m[f"model.{k}.flops"] = costs[k][0]
        m[f"model.{k}.bytes"] = costs[k][1]
    m["trace.overhead_pct"] = 100.0 * (
        statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    )

    os.makedirs(OUT, exist_ok=True)
    tracer.write_csv(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
    details = {
        "ops_traced": n,
        "layer_metrics": {k: {"value": m[k], "unit": u} for k, u in LAYER_UNITS_IN_DETAILS.items()},
        "op_s_untraced": untraced,
        "op_s_traced": traced,
        "spans": len(tracer.spans),
        "span_calls": {k: v["calls"] for k, v in sorted(summary.items())},
        "model_flops_bytes": "computed from the shape (kernels.py), not measured",
    }
    return m, PER_LAYER_UNITS, details


def setup_only(args):
    """Body of the fresh process whose wall time is `setup_s`."""
    fp = import_fpgrad()
    work = os.path.join(OUT, f"setup-{os.getpid()}")
    try:
        WORKLOADS[args.workload](ROOT, args.seed, work)
        fp.cli.build_parser()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true",
                   help="one set-up, one traced op, short kernel timing (for tests)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # the default, sequential path is the one measured
    inherited = os.environ.pop("FPGRAD_THREADS", None)
    try:
        if args.setup_only:
            # set-up is interpreter-bound for every workload
            with SpeedProbe() as probe:
                setup_only(args)
            print(probe.inside_s(), probe.slowdown())
            return 0
        fp = import_fpgrad()
        env = environment(inherited)
        work = os.path.join(OUT, f"work-{os.getpid()}")
        try:
            workload = WORKLOADS[args.workload](ROOT, args.seed, work)
            runner = OpRunner(fp.cli, workload, work)
            if args.trace:
                metrics, units, details = run_traced(args, runner, fp)
            else:
                metrics, units, details = run_end_to_end(args, runner)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        fail_ratio=runner.failed / runner.attempted, failures=runner.failures,
        environment=env,
    )
    result = {
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({"result": result, "details": details}, f, indent=1)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
