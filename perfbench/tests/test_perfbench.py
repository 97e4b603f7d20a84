"""Tests of the benchmark itself: its output contract, its failure
accounting, its tracing, and its refusal to run without the sources."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import kernels  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import GRADCHECK_SHAPES, HELD_OUT, TRAIN_EPOCHS, WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def fp():
    return run.import_fpgrad()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_fast_mode_emits_every_named_metric_with_its_unit(trace, section):
    r = _bench("--workload", "gradcheck-small", "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--fast")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        # times of layers the other workload bypasses are in the details
        layers = json.loads(r.stdout.strip().splitlines()[-2])["details"]["layer_metrics"]
        assert {k: v["unit"] for k, v in layers.items()} == run.LAYER_UNITS_IN_DETAILS
        assert layers["rbp.us_per_side_step"]["value"] > 0


def test_spec_names_the_workloads_the_benchmark_runs():
    listed = [w["name"] for w in _spec()["workloads"]]
    assert listed == [w for w in WORKLOADS if w not in HELD_OUT]


def test_injected_gradcheck_fault_counts_as_failed_op(fp, tmp_path):
    workload = WORKLOADS["gradcheck-small"](ROOT, 0, str(tmp_path / "work"))
    argv = workload.argv
    workload.argv = lambda d, out_dir: argv(d, out_dir) + ["--inject-fault"]
    runner = run.OpRunner(fp.cli, workload, str(tmp_path / "work"))
    runner.op(0)
    runner.op(1)
    assert (runner.attempted, runner.failed) == (2, 2)

    # the report alone fails the check, whatever the exit code says
    out_dir = str(tmp_path / "faulty")
    assert runner.check_cli(argv(0, out_dir) + ["--inject-fault"]) == 1
    assert workload.check(0, out_dir, runner.check_cli) is not None


@pytest.mark.parametrize("outputs,passes", [((0.1, 0.9, 0.8, 0.2), True),
                                             ((0.1, 0.9, 0.8, 0.7), False)])
def test_xor_op_fails_unless_predict_gets_all_four_rows(tmp_path, outputs, passes):
    workload = WORKLOADS["xor-rbp"](ROOT, 0, str(tmp_path / "work"))
    out_dir = tmp_path / "op"
    out_dir.mkdir()
    rows = [f"{e},0.01,1.0,0.0" for e in range(TRAIN_EPOCHS)]
    (out_dir / "trainlog.csv").write_text("epoch,mean_cost,accuracy,grad_norm\n" + "\n".join(rows))

    def fake_predict(argv):
        pred_dir = argv[argv.index("--out") + 1]
        os.makedirs(pred_dir)
        with open(os.path.join(pred_dir, "predictions.csv"), "w") as f:
            f.write("out0\n" + "\n".join(map(str, outputs)) + "\n")
        return 0

    reason = workload.check(0, str(out_dir), fake_predict)
    assert (reason is None) == passes, reason


def test_same_inputs_with_different_outputs_fail(fp, tmp_path):
    workload = WORKLOADS["gradcheck-small"](ROOT, 0, str(tmp_path / "work"))
    runner = run.OpRunner(fp.cli, workload, str(tmp_path / "work"))
    for d in (0, 1, 0):
        runner.op(d)
    assert runner.failed == 0
    key = next(iter(runner._digests))
    runner._digests[key] = {"gradcheck_report.json": "0" * 64}
    runner.op(0)
    assert runner.failed == 1


def test_traced_counts_repeat_and_originals_come_back(fp, tmp_path):
    originals = {
        (m, n): getattr(sys.modules[f"fpgrad.{m}"], n) for m, n, _ in tracing.TRACED
    }
    training_rbp = fp.training.rbp_gradient
    counts = []
    for rep in range(2):
        workload = WORKLOADS["gradcheck-small"](ROOT, 5, str(tmp_path / f"w{rep}"))
        runner = run.OpRunner(fp.cli, workload, str(tmp_path / f"w{rep}"))
        tracer = tracing.Tracer().install()
        runner.tracer = tracer
        with tracer:
            runner.op(0)
            runner.op(1)
        assert runner.failed == 0
        s = tracer.summary()
        counts.append({
            name: {k: v for k, v in e.items() if k not in ("total_s", "self_s")}
            for name, e in s.items()
        })
        assert s["cli.main"]["calls"] == 2
        assert s["oracle.fd_objective_gradient"]["calls"] == 2
        # ops 0 and 1 check one instance: two central-difference probes per weight
        weights = fp.NetworkShape(*GRADCHECK_SHAPES[0]).num_params
        probes = tracer.child_counts("oracle.fd_objective_gradient", "dynamics.relax", 1)
        assert probes["calls"] == 2 * 2 * weights
        for name, start, end, parent, op, _ in tracer.spans:
            assert end >= start and op in (0, 1)
            if parent is not None:
                p = tracer.spans[parent]
                assert p[1] <= start and end <= p[2]
        for e in s.values():
            assert e["self_s"] <= e["total_s"] + 1e-12
    assert counts[0] == counts[1]
    for (m, n), fn in originals.items():
        assert getattr(sys.modules[f"fpgrad.{m}"], n) is fn
    assert fp.training.rbp_gradient is training_rbp


def test_kernel_costs_follow_the_shape():
    costs = kernels.kernel_costs(3, (2, 4))
    # one 2x4 state-state block and one 4x3 input block; 9 state units
    assert costs["grad_theta_energy"] == (2 * 20 + 9, 8 * 20 + 16 * 9)
    wide = kernels.kernel_costs(64, (10, 256, 256))
    assert all(wide[k][0] > 100 * costs[k][0] for k in kernels.KERNELS)


def test_speed_probe_samples_during_an_op_and_puts_the_handler_back():
    handler = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        t_end = time.perf_counter() + 4 * run.PROBE_INTERVAL_S
        while time.perf_counter() < t_end:
            pass
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is handler
    # a host four times as slow as the reference: the op, less its samples,
    # takes a quarter of its time, or half for work that slows as its root
    probe.samples = [4 * run.PROBE_CALLS * run.REFERENCE_CALL_S] * 3
    assert probe.rescale(1.0 + probe.inside_s()) == pytest.approx(0.25)
    assert probe.rescale(1.0 + probe.inside_s(), 0.5) == pytest.approx(0.5)


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    times = [float(i) for i in range(40)]
    value, level = run.tail(times)
    assert value == 29.0 and level == 72.5
    assert sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    r = _bench("--workload", "xor-rbp", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
