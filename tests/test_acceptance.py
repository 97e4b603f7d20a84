"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them live) and
enforces its runtime budget.  Tolerances are pinned here, not derived at
run time.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import fpgrad as fp
from fpgrad.cli import main
from fpgrad.equivalence import summarize
from fpgrad.model import Sample
from fpgrad.training import Dataset, TrainConfig

from conftest import make_instance, random_state
from test_model import fd_energy_grad_s, fd_energy_grad_theta

TIGHT = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12, max_steps=100_000)

# FD objective references shared between the estimator criteria; computed
# once per session on first use
_FD_CACHE = {}


def _fd_reference(i):
    if i not in _FD_CACHE:
        shape, theta, x, y = make_instance(i)
        _FD_CACHE[i] = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, TIGHT)
    return _FD_CACHE[i]


def _within(err_blocks, ref_blocks, tol, floor):
    for err, ref in zip(err_blocks, ref_blocks):
        if not np.all(np.abs(err) <= np.maximum(tol * np.abs(ref), floor)):
            return False
    return True


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


def test_criterion_1_analytic_derivative_certification():
    tol, floor = 1e-5, 1e-9
    start = time.time()
    worst = 0.0
    for i in range(100):
        shape, theta, x, y = make_instance(i)
        assert shape.num_params <= 60
        rng = np.random.default_rng(5000 + i)
        s = random_state(shape, rng)
        v = [rng.standard_normal(d) for d in shape.layer_dims]
        act = fp.LOGISTIC
        pairs = [
            (fp.grad_s_energy(theta, x, s, act), fd_energy_grad_s(theta, x, s, act)),
            (fp.grad_theta_energy(theta, x, s, act), fd_energy_grad_theta(theta, x, s, act)),
            (fp.hvp_ss(theta, x, s, v, act), fp.fd_hvp_ss(theta, x, s, v, act)),
            (fp.hvp_theta_s(theta, x, s, v, act), fp.fd_hvp_theta_s(theta, x, s, v, act)),
        ]
        for got, ref in pairs:
            for a, b in zip(got, ref):
                err = np.abs(np.asarray(a) - np.asarray(b))
                bound = np.maximum(tol * np.abs(b), floor)
                worst = max(worst, float(np.max(err / bound)))
                assert np.all(err <= bound), f"instance {i}"
    elapsed = time.time() - start
    _report(1, True, f"100 instances, 4 operators, worst err/bound {worst:.3f}", elapsed, 30)
    assert elapsed <= 30


def test_criterion_2_rbp_gradient_correctness():
    start = time.time()
    for i in range(20):
        shape, theta, x, y = make_instance(i)
        est = fp.rbp_gradient(theta, x, y, fp.LOGISTIC, TIGHT)
        ref = _fd_reference(i)
        err = [np.abs(a - b) for a, b in zip(est.grad, ref.grad)]
        assert _within(err, ref.grad, 1e-3, 1e-7), f"instance {i}"
    elapsed = time.time() - start
    _report(2, True, "20 instances vs FD objective oracle at 1e-3/1e-7", elapsed, 120)
    assert elapsed <= 120


def test_criterion_3_eqprop_first_order_in_beta():
    start = time.time()
    checked = 0
    for i in range(20):
        shape, theta, x, y = make_instance(i)
        ref = _fd_reference(i)
        hi = fp.eqprop_gradient(theta, x, y, 2e-4, fp.LOGISTIC, TIGHT)
        lo = fp.eqprop_gradient(theta, x, y, 1e-4, fp.LOGISTIC, TIGHT)
        for a2, a1, b in zip(hi.grad, lo.grad, ref.grad):
            e2 = np.abs(np.asarray(a2) - b)
            e1 = np.abs(np.asarray(a1) - b)
            mask = (e2 > 1e-7) & (e1 > 1e-7)
            if np.any(mask):
                ratio = e2[mask] / e1[mask]
                checked += int(mask.sum())
                assert np.all((ratio >= 1.5) & (ratio <= 2.5)), f"instance {i}"
    elapsed = time.time() - start
    _report(3, True, f"halving 2e-4 -> 1e-4 on {checked} components above floor", elapsed, 120)
    assert checked > 0
    assert elapsed <= 120


def test_criterion_4_process_equivalence_and_beta_slope():
    start = time.time()
    betas = [1e-3, 5e-4, 2.5e-4]
    slope_lo, slope_hi, worst_rel = np.inf, -np.inf, 0.0
    for i in range(10):
        shape, theta, x, y = make_instance(i)
        reports = fp.beta_sweep(theta, x, y, betas, 300, fp.LOGISTIC, TIGHT)
        s = summarize(reports)
        for slope in (s["s_slope"], s["theta_slope"]):
            assert 0.8 <= slope <= 1.2, f"instance {i}: slope {slope}"
            slope_lo, slope_hi = min(slope_lo, slope), max(slope_hi, slope)
        smallest = reports[-1]
        assert smallest.beta == 2.5e-4
        rel_s = smallest.max_s_gap / smallest.reference_scale
        rel_t = smallest.max_theta_gap / smallest.reference_scale
        worst_rel = max(worst_rel, rel_s, rel_t)
        assert rel_s <= 0.01 and rel_t <= 0.01, f"instance {i}"
    elapsed = time.time() - start
    _report(
        4,
        True,
        f"slopes in [{slope_lo:.3f}, {slope_hi:.3f}], worst gap {100 * worst_rel:.3f}% of scale",
        elapsed,
        120,
    )
    assert elapsed <= 120


def test_criterion_5_truncated_correspondence():
    start = time.time()
    worst = 0.0
    for i in range(10):
        shape, theta, x, y = make_instance(i)
        for K in (10, 50, 200):
            gap = fp.truncation_correspondence(theta, x, y, 1e-4, K, fp.LOGISTIC, TIGHT)
            worst = max(worst, gap)
            assert gap <= 0.01, f"instance {i}, K={K}"
    elapsed = time.time() - start
    _report(5, True, f"worst normalised endpoint gap {worst:.2e}", elapsed, 60)
    assert elapsed <= 60


def test_criterion_6_structural_identities():
    start = time.time()
    fine = dataclasses.replace(TIGHT, step_size=1e-3, max_steps=10_000_000)
    worst_ratio = 0.0
    for i in range(10):
        shape, theta, x, y = make_instance(i)
        rng = np.random.default_rng(900 + i)
        s = random_state(shape, rng)
        t = (0.2, 0.5, 1.0)[i % 3]
        r = fp.check_backward_identity(
            theta, x, y, s, t, fp.LOGISTIC, fine, fp.FDConfig(delta=1e-4)
        )
        n = round(t / fine.step_size)
        lp = fp.projected_cost(theta, x, y, s, (n + 1) * fine.step_size, fp.LOGISTIC, fine)
        lm = fp.projected_cost(theta, x, y, s, (n - 1) * fine.step_size, fp.LOGISTIC, fine)
        dl_dt = (lp - lm) / (2 * fine.step_size)
        bound = 1e-3 * (1.0 + abs(dl_dt))
        worst_ratio = max(worst_ratio, r / bound)
        assert r <= bound, f"instance {i}: residual {r:.3e} > {bound:.3e}"
    # envelope identity: halving delta divides the residual by ~4
    shape, theta, x, y = make_instance(2)
    res = [
        fp.check_dbeta_energy_identity(theta, x, y, 1e-2, fp.LOGISTIC, TIGHT, fp.FDConfig(delta=d))
        for d in (1e-4, 5e-5)
    ]
    ratio = res[0] / res[1]
    assert 3.0 <= ratio <= 5.0
    elapsed = time.time() - start
    _report(
        6,
        True,
        f"backward residual at {100 * worst_ratio:.0f}% of bound, envelope decay x{ratio:.2f}",
        elapsed,
        120,
    )
    assert elapsed <= 120


def test_criterion_7_process_decay():
    start = time.time()
    worst = 0.0
    for i in range(10):
        shape, theta, x, y = make_instance(i)
        rep = fp.compare_processes(theta, x, y, 1e-4, 600, fp.LOGISTIC, TIGHT)
        r_bar = rep.per_step_sbar_norm[-1] / rep.per_step_sbar_norm[0]
        r_tilde = rep.per_step_stilde_norm[-1] / rep.per_step_stilde_norm[0]
        worst = max(worst, r_bar, r_tilde)
        assert r_bar <= 1e-6 and r_tilde <= 1e-6, f"instance {i}"
    elapsed = time.time() - start
    _report(7, True, f"worst final/initial norm ratio {worst:.2e}", elapsed, 120)
    assert elapsed <= 120


def _xor_dataset():
    return Dataset(
        samples=[
            Sample(np.array([0.0, 0.0]), np.array([0.0])),
            Sample(np.array([0.0, 1.0]), np.array([1.0])),
            Sample(np.array([1.0, 0.0]), np.array([1.0])),
            Sample(np.array([1.0, 1.0]), np.array([0.0])),
        ],
        name="xor",
    )


@pytest.mark.parametrize("method", ["eqprop", "rbp"])
def test_criterion_8_xor_training(method):
    shape = fp.NetworkShape(2, (1, 4))
    act = fp.TANH
    cfg = TrainConfig(
        method=method,
        beta=1e-3,
        learning_rates=0.5,
        epochs=2000,
        relaxation=fp.RelaxationConfig(step_size=0.25, tolerance=1e-6),
        seed=42,
    )
    ds = _xor_dataset()
    start = time.time()
    theta, log = fp.sgd_train(ds, shape, act, cfg)
    elapsed = time.time() - start
    reached = next((e for e, c in enumerate(log.mean_costs) if c <= 0.05), None)
    assert reached is not None and reached < 2000
    assert log.mean_costs[-1] <= 0.05
    hits = 0
    for sm in ds.samples:
        pred = fp.predict(theta, sm.x, act, cfg.relaxation)
        hits += (pred[0] >= 0.5) == (sm.y[0] >= 0.5)
    assert hits == 4
    # determinism of the full run
    theta2, log2 = fp.sgd_train(ds, shape, act, cfg)
    for a, b in zip(theta, theta2):
        np.testing.assert_array_equal(a, b)
    assert log.mean_costs == log2.mean_costs
    _report(
        8,
        True,
        f"xor/{method}: cost <= 0.05 at epoch {reached}, 4/4 correct, deterministic",
        elapsed,
        120,
    )
    assert elapsed <= 120


def test_criterion_9_determinism_and_persistence(tmp_path, monkeypatch):
    start = time.time()
    monkeypatch.chdir(tmp_path)
    cfg = {
        "shape": {"input_dim": 2, "layer_dims": [2, 2, 1]},
        "activation": "logistic",
        "relaxation": {
            "step_size": 0.1,
            "max_steps": 100000,
            "tolerance": 1e-12,
            "record_every": 1,
        },
        "method": {"name": "eqprop", "betas": [1e-3, 5e-4], "num_steps": 120},
        "seed": 42,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    for out in ("a", "b"):
        assert main(["relax", "--config", str(cfg_path), "--x", "0.3,-0.5", "--out", out]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", out]) == 0
    for name in ("trajectory.csv", "sweep_summary.csv", "equivalence_beta0.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # checkpoint round-trip is bitwise lossless
    shape = fp.NetworkShape(4, (3, 3, 2))
    theta = fp.init_params(shape, 123)
    fp.save_checkpoint(theta, shape, "logistic", tmp_path / "m.ckpt")
    theta2, _, _ = fp.load_checkpoint(tmp_path / "m.ckpt")
    for a, b in zip(theta, theta2):
        np.testing.assert_array_equal(a, b)
    fp.save_checkpoint(theta2, shape, "logistic", tmp_path / "m2.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()
    elapsed = time.time() - start
    _report(9, True, "byte-identical reruns and lossless checkpoints", elapsed, 120)
