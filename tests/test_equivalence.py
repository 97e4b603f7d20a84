"""Matched-grid comparison of the side process and the rescaled velocities."""

import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fpgrad as fp
from fpgrad import model
from fpgrad.eqprop import _free_fixed_point, tightened
from fpgrad.equivalence import error_process_path, summarize


@pytest.fixture
def converged(seeded_net, tight_cfg):
    shape, theta, x, y, act = seeded_net
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    assert traj.converged
    return shape, theta, x, y, act, s0, tight_cfg


def test_degenerate_instance_has_floor_level_gaps(converged):
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-3
    rep = fp.compare_processes(theta, x, s0[0].copy(), beta, 50, act, cfg, s_free=s0)
    bound = cfg.tolerance / beta * 10
    assert rep.max_s_gap <= bound
    assert rep.max_theta_gap <= bound


def test_zero_weights_closed_form_recursion():
    # identity Hessian forces s_bar_k = (1 - eps)^k (s0_out - y); the
    # rescaled velocities must track it to first order in beta
    shape = fp.NetworkShape(1, (1,))
    theta = [np.zeros((1, 1))]
    x = np.array([0.4])
    y = np.array([0.8])
    act = fp.LOGISTIC
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-14)
    beta = 1e-4
    K = 80
    rep = fp.compare_processes(theta, x, y, beta, K, act, cfg)
    s_bars, _ = error_process_path(
        theta, x, y, [np.zeros(1)], act, cfg.step_size, K, cfg.tolerance
    )
    for k in range(K + 1):
        want = (1 - cfg.step_size) ** k * (0.0 - y[0])
        assert s_bars[k][0][0] == pytest.approx(want, rel=1e-12)
    assert rep.max_s_gap <= 5 * beta * abs(y[0])


def test_error_process_path_rejects_negative_steps(converged):
    shape, theta, x, y, act, s0, cfg = converged
    with pytest.raises(ValueError, match="num_steps must be >= 0, got -1"):
        error_process_path(theta, x, y, s0, act, cfg.step_size, -1, cfg.tolerance)


def test_seeded_gaps_small_and_linear_in_beta(converged):
    shape, theta, x, y, act, s0, cfg = converged
    K = 300
    rep1 = fp.compare_processes(theta, x, y, 1e-4, K, act, cfg, s_free=s0)
    assert rep1.num_steps == K
    assert len(rep1.per_step_s_gap) == K + 1
    assert rep1.max_s_gap / rep1.reference_scale <= 0.01
    rep2 = fp.compare_processes(theta, x, y, 2e-4, K, act, cfg, s_free=s0)
    ratio = rep2.max_s_gap / rep1.max_s_gap
    assert 1.5 <= ratio <= 2.5
    ratio_t = rep2.max_theta_gap / rep1.max_theta_gap
    assert 1.5 <= ratio_t <= 2.5


def test_initial_condition_matches_cost_gradient(converged):
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-4
    rep = fp.compare_processes(theta, x, y, beta, 10, act, cfg, s_free=s0)
    c = 10.0  # generous constant for the first-order term
    assert rep.per_step_s_gap[0] <= cfg.tolerance / beta + c * beta


def _exact_theta_gaps(theta, x, s_free, states, s_bars, act, beta, eps):
    """||theta_tilde_k - theta_bar_k||_inf at every grid point, in exact
    rational arithmetic.

    The inputs are the float64 quantities both processes share: the
    nudged states, the side process's s_bar, and the firing rates and
    slopes that `act` gives for them.  Everything after that (the
    two-point readout, the step-by-step theta_bar sum, the difference)
    is exact, unlike a longdouble evaluation, which is float64 on some
    platforms.
    """
    def exact(v):
        return [Fraction(float(e)) for e in v]

    rho = [exact(act.f(v)) for v in s_free]
    d1 = [exact(act.df(v)) for v in s_free]
    rho_x = exact(act.f(np.asarray(x, dtype=float)))
    down = rho[1:] + [rho_x]
    beta, eps = Fraction(beta), Fraction(eps)
    theta_bar = [[[Fraction(0)] * w.shape[1] for _ in range(w.shape[0])] for w in theta]
    gaps = []
    for s, s_bar in zip(states, s_bars):
        r = [exact(act.f(v)) for v in s]
        r_down = r[1:] + [rho_x]
        gaps.append(max(
            abs(-(r[k][i] * r_down[k][j] - rho[k][i] * down[k][j]) / beta - t)
            for k, block in enumerate(theta_bar)
            for i, row in enumerate(block)
            for j, t in enumerate(row)
        ))
        v = [exact(b) for b in s_bar]
        for k, block in enumerate(theta_bar):
            for i, row in enumerate(block):
                for j in range(len(row)):
                    h = -d1[k][i] * v[k][i] * down[k][j]
                    if k + 1 < len(theta):
                        h -= rho[k][i] * d1[k + 1][j] * v[k + 1][j]
                    row[j] -= eps * h
    return gaps


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_streamed_gaps_equal_the_recorded_processes(act, tight_cfg):
    # the streamed comparison must give exactly the s gaps and norms of the
    # two recorded processes it replaces, step for step; its theta gaps,
    # formed from state-sized factors, must match an exact evaluation to
    # 1e-7 relative per step
    beta, K = 5e-4, 60
    cfg = tightened(tight_cfg, beta)
    for shape, seed in [
        (fp.NetworkShape(3, (2, 4, 3)), 11),
        (fp.NetworkShape(4, (3, 3, 2)), 5),
        (fp.NetworkShape(2, (2, 2, 1)), 7),
    ]:
        theta, x, y = fp.random_instance(shape, seed)
        s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
        assert traj.converged
        rep = fp.compare_processes(theta, x, y, beta, K, act, tight_cfg, s_free=s0)
        s_bars, _ = error_process_path(theta, x, y, s0, act, cfg.step_size, K, cfg.tolerance)
        record = fp.temporal_derivative_process(theta, x, y, beta, K, act, tight_cfg, s_free=s0)
        gaps = [model.inf_norm([u - v for u, v in zip(p, q)]) for p, q in zip(record.s_tilde, s_bars)]
        assert rep.per_step_s_gap == gaps
        assert rep.per_step_sbar_norm == [model.inf_norm(b) for b in s_bars]
        assert rep.per_step_stilde_norm == [model.inf_norm(b) for b in record.s_tilde]
        states = fp.nudged_path(theta, x, y, beta, s0, act, cfg.step_size, K)
        exact = _exact_theta_gaps(theta, x, s0, states, s_bars, act, beta, cfg.step_size)
        for got, want in zip(rep.per_step_theta_gap, exact):
            assert abs(Fraction(got) - want) <= Fraction(1, 10**7) * want


def test_compare_memory_does_not_grow_with_steps(tight_cfg):
    # weight-shaped memory is a fixed set of buffers: going from 50 to 200
    # grid points adds less than one weight vector to the peak (recording
    # both processes would add 300 of them)
    shape = fp.NetworkShape(1024, (8, 32))
    theta, x, y = fp.random_instance(shape, 5)
    beta = 1e-3
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), fp.LOGISTIC, tightened(tight_cfg, beta))
    theta_bytes = 8 * shape.num_params

    def peak(num_steps):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fp.compare_processes(theta, x, y, beta, num_steps, fp.LOGISTIC, tight_cfg, s_free=s0)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(50)
        short, long = peak(50), peak(200)
    finally:
        tracemalloc.stop()
    assert long - short < theta_bytes


def test_beta_sweep_slope_near_one(converged):
    shape, theta, x, y, act, s0, cfg = converged
    betas = [1e-3, 5e-4, 2.5e-4]
    reports = fp.beta_sweep(theta, x, y, betas, 300, act, cfg)
    assert [r.beta for r in reports] == betas
    s = summarize(reports)
    assert 0.8 <= s["s_slope"] <= 1.2
    assert 0.8 <= s["theta_slope"] <= 1.2


def test_beta_sweep_duplicate_beta_is_bitwise_identical(converged):
    shape, theta, x, y, act, s0, cfg = converged
    reports = fp.beta_sweep(theta, x, y, [1e-3, 1e-3], 50, act, cfg)
    a, b = reports
    assert a.per_step_s_gap == b.per_step_s_gap
    assert a.per_step_theta_gap == b.per_step_theta_gap


def test_beta_sweep_validates_order(converged):
    shape, theta, x, y, act, s0, cfg = converged
    with pytest.raises(ValueError, match="non-increasing"):
        fp.beta_sweep(theta, x, y, [1e-4, 1e-3], 10, act, cfg)
    with pytest.raises(ValueError, match="positive"):
        fp.beta_sweep(theta, x, y, [1e-3, -1e-4], 10, act, cfg)


def test_beta_sweep_reports_equal_each_comparison_alone(converged):
    shape, theta, x, y, act, s0, cfg = converged
    betas = [1e-3, 5e-4]
    sweep = fp.beta_sweep(theta, x, y, betas, 40, act, cfg)
    # the sweep's shared free point: located once, tightened for the smallest beta
    s_free = _free_fixed_point(theta, x, act, tightened(cfg, min(betas)))
    assert len(sweep) == len(betas)
    for beta, rep in zip(betas, sweep):
        assert rep == fp.compare_processes(theta, x, y, beta, 40, act, cfg, s_free=s_free)


def test_beta_sweep_runs_one_side_process(converged, monkeypatch):
    # the side process does not depend on beta: K steps of it serve all
    # three betas, and it is not advanced past step K
    shape, theta, x, y, act, s0, cfg = converged
    calls = []
    apply_ss = model.CurvatureOps.apply_ss

    def counted(self, v):
        calls.append(1)
        return apply_ss(self, v)

    monkeypatch.setattr(model.CurvatureOps, "apply_ss", counted)
    K = 40
    reports = fp.beta_sweep(theta, x, y, [1e-3, 5e-4, 2.5e-4], K, act, cfg)
    assert len(calls) == K
    assert [len(r.per_step_s_gap) for r in reports] == [K + 1] * 3


@settings(max_examples=200, deadline=None)
@given(
    g=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=8),
    beta=st.floats(1e-150, 1e150),
)
def test_stilde_norm_from_the_residual_is_bit_for_bit(g, beta):
    # beta_sweep reads max|g/beta| as max|g|/beta: division by a positive
    # beta is correctly rounded and monotone, so the two agree exactly
    g = np.array(g)
    assert float(np.abs(g).max()) / beta == float(np.abs(g / beta).max())


def test_late_time_decay_of_both_processes(converged):
    shape, theta, x, y, act, s0, cfg = converged
    K = 600
    rep = fp.compare_processes(theta, x, y, 1e-4, K, act, cfg, s_free=s0)
    assert rep.per_step_sbar_norm[-1] <= 1e-6 * rep.per_step_sbar_norm[0]
    assert rep.per_step_stilde_norm[-1] <= 1e-6 * rep.per_step_stilde_norm[0]


def test_truncation_correspondence_zero_steps(converged):
    shape, theta, x, y, act, s0, cfg = converged
    assert fp.truncation_correspondence(theta, x, y, 1e-3, 0, act, cfg) == 0.0


def test_truncation_correspondence_small_gap(converged):
    shape, theta, x, y, act, s0, cfg = converged
    gap = fp.truncation_correspondence(theta, x, y, 1e-4, 50, act, cfg)
    assert gap <= 0.01


def test_truncation_correspondence_endpoint_limit(converged):
    # far past both convergences the gap settles at the difference between
    # the two-point estimate and the side-process limit, which is O(beta)
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-3
    gap_large = fp.truncation_correspondence(theta, x, y, beta, 800, act, cfg)
    full = fp.eqprop_gradient(theta, x, y, beta, act, cfg, s_free=s0)
    rbp_est = fp.rbp_gradient(theta, x, y, act, cfg, s_free=s0)
    endpoint = max(
        np.max(np.abs(a - b)) for a, b in zip(full.grad, rbp_est.grad)
    ) / (1.0 + max(np.max(np.abs(b)) for b in rbp_est.grad))
    assert gap_large == pytest.approx(endpoint, rel=0.05, abs=1e-6)
    assert gap_large <= 10 * beta


def test_truncation_correspondence_matches_recorded_side_process(converged):
    shape, theta, x, y, act, s0, cfg = converged
    beta, K = 1e-3, 40
    gap = fp.truncation_correspondence(theta, x, y, beta, K, act, cfg)
    tight = tightened(cfg, beta)
    truncated = fp.truncated_eqprop_gradient(theta, x, y, beta, K, act, cfg, s_free=s0)
    _, theta_bars = error_process_path(theta, x, y, s0, act, tight.step_size, K, tight.tolerance)
    want = model.inf_norm([a - b for a, b in zip(truncated.grad, theta_bars[-1])])
    assert gap == want / (1.0 + model.inf_norm(theta_bars[-1]))


def test_report_csv_and_summary_export(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rep = fp.compare_processes(theta, x, y, 1e-3, 5, act, cfg, s_free=s0)
    buf = io.StringIO()
    fp.write_equivalence_csv(rep, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,t,s_gap,theta_gap,sbar_norm,stilde_norm"
    assert len(lines) == 1 + 6
    k, t, sg, tg, nb, nt = lines[3].split(",")
    assert int(k) == 2 and float(t) == pytest.approx(2 * cfg.step_size)
    assert float(sg) == rep.per_step_s_gap[2]
    s = summarize([rep])
    assert s["s_slope"] is None  # single beta: no fit
    assert s["betas"] == [1e-3]
