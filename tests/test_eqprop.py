"""Two-phase estimator, truncated variant, and the rescaled velocity record."""

import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

import fpgrad as fp

from conftest import SHAPE_POOL, dense_hessian, make_instance, random_state


@pytest.fixture
def converged(seeded_net, tight_cfg):
    shape, theta, x, y, act = seeded_net
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    assert traj.converged
    return shape, theta, x, y, act, s0, tight_cfg


def test_estimate_metadata_validation():
    grad = [np.zeros((1, 1))]
    with pytest.raises(ValueError):
        fp.GradientEstimate(grad=grad, method="nope", step=0.1)
    with pytest.raises(ValueError):
        fp.GradientEstimate(grad=grad, method="eqprop", step=0.1, horizon_t=1.0)
    with pytest.raises(ValueError):
        fp.GradientEstimate(grad=grad, method="rbp", step=0.1, beta=0.1, horizon_t=1.0)
    with pytest.raises(ValueError):
        fp.GradientEstimate(grad=[np.array([[np.inf]])], method="fd-oracle", step=0.1)
    # valid combinations construct fine
    fp.GradientEstimate(grad=grad, method="fd-oracle", step=0.1)
    fp.GradientEstimate(grad=grad, method="eqprop", step=0.1, beta=1e-3, horizon_t=2.0)


def test_zero_gradient_when_output_matches_target(converged):
    shape, theta, x, y, act, s0, cfg = converged
    est = fp.eqprop_gradient(theta, x, s0[0].copy(), 1e-3, act, cfg)
    for b in est.grad:
        np.testing.assert_array_equal(b, 0.0)


def test_two_point_formula_is_definitional_for_zero_weights():
    # with zero weights and zero target the free point is the origin; the
    # estimate must equal the formula evaluated on the two endpoints
    shape = fp.NetworkShape(1, (1,))
    theta = [np.zeros((1, 1))]
    x = np.array([0.3])
    y = np.array([0.0])
    act = fp.LOGISTIC
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    beta = 1e-3
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    nudged_cfg = dataclasses.replace(cfg, tolerance=beta * 1e-3)
    s_b, _ = fp.relax_nudged(theta, x, y, beta, s0, act, nudged_cfg)
    # the origin is already the fixed point of both phases, so the
    # endpoints coincide exactly and the identity is bitwise
    np.testing.assert_array_equal(s_b[0], s0[0])
    est = fp.eqprop_gradient(theta, x, y, beta, act, cfg)
    want = (
        fp.grad_theta_energy(theta, x, s_b, act)[0]
        + beta * fp.grad_theta_cost(theta, y, s_b)[0]
        - fp.grad_theta_energy(theta, x, s0, act)[0]
    ) / beta
    np.testing.assert_array_equal(est.grad[0], want)


def test_matches_fd_oracle_and_error_halves_with_beta(converged):
    shape, theta, x, y, act, s0, cfg = converged
    ref = fp.fd_objective_gradient(theta, x, y, act, cfg)
    est = fp.eqprop_gradient(theta, x, y, 1e-4, act, cfg, s_free=s0)
    for a, b in zip(est.grad, ref.grad):
        err = np.abs(a - b)
        assert np.all(err <= np.maximum(1e-2 * np.abs(b), 1e-7))
    est2 = fp.eqprop_gradient(theta, x, y, 2e-4, act, cfg, s_free=s0)
    err1 = max(np.max(np.abs(a - b)) for a, b in zip(est.grad, ref.grad))
    err2 = max(np.max(np.abs(a - b)) for a, b in zip(est2.grad, ref.grad))
    assert err1 > 1e-7 and err2 > 1e-7
    assert 1.5 <= err2 / err1 <= 2.5


def test_first_order_error_scaling_per_component():
    for i in range(6):
        shape, theta, x, y = make_instance(i)
        cfg = fp.RelaxationConfig(tolerance=1e-12)
        ref = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, cfg)
        hi = fp.eqprop_gradient(theta, x, y, 2e-4, fp.LOGISTIC, cfg)
        lo = fp.eqprop_gradient(theta, x, y, 1e-4, fp.LOGISTIC, cfg)
        for a2, a1, b in zip(hi.grad, lo.grad, ref.grad):
            e2 = np.abs(a2 - b)
            e1 = np.abs(a1 - b)
            mask = (e2 > 1e-7) & (e1 > 1e-7)
            if np.any(mask):
                ratio = e2[mask] / e1[mask]
                assert np.all((ratio >= 1.5) & (ratio <= 2.5)), f"instance {i}"


def test_requires_positive_beta(converged):
    shape, theta, x, y, act, s0, cfg = converged
    with pytest.raises(ValueError):
        fp.eqprop_gradient(theta, x, y, 0.0, act, cfg)
    with pytest.raises(ValueError):
        fp.truncated_eqprop_gradient(theta, x, y, -1e-3, 10, act, cfg)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), 0.0, -1e-3])
@pytest.mark.parametrize(
    "second_phase",
    [
        lambda t, x, y, b, a, c: fp.eqprop_gradient(t, x, y, b, a, c),
        lambda t, x, y, b, a, c: fp.truncated_eqprop_gradient(t, x, y, b, 0, a, c),
        lambda t, x, y, b, a, c: fp.temporal_derivative_process(t, x, y, b, 0, a, c),
        lambda t, x, y, b, a, c: fp.truncation_correspondence(t, x, y, b, 0, a, c),
        lambda t, x, y, b, a, c: fp.beta_sweep(t, x, y, [b], 0, a, c),
    ],
    ids=["eqprop", "truncated", "temporal", "correspondence", "sweep"],
)
def test_second_phases_reject_a_beta_not_finite_and_positive(converged, second_phase, beta):
    # nan and inf fail as early as 0 and negative betas, naming the rule
    shape, theta, x, y, act, s0, cfg = converged
    with pytest.raises(ValueError, match=r"^betas must be (finite|positive), got "):
        second_phase(theta, x, y, beta, act, cfg)


@pytest.mark.parametrize(
    "second_phase",
    [
        lambda t, x, y, a, c: fp.truncated_eqprop_gradient(t, x, y, 1e-3, -1, a, c),
        lambda t, x, y, a, c: fp.temporal_derivative_process(t, x, y, 1e-3, -1, a, c),
        lambda t, x, y, a, c: fp.truncation_correspondence(t, x, y, 1e-3, -1, a, c),
        lambda t, x, y, a, c: fp.beta_sweep(t, x, y, [1e-3], -1, a, c),
    ],
    ids=["truncated", "temporal", "correspondence", "sweep"],
)
def test_fixed_horizons_reject_negative_steps_before_the_free_phase(
    converged, second_phase, monkeypatch
):
    shape, theta, x, y, act, s0, cfg = converged
    calls = []
    relax = fp.dynamics.relax

    def counted(*args):
        calls.append(1)
        return relax(*args)

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    with pytest.raises(ValueError, match=r"^num_steps must be >= 0, got -1$"):
        second_phase(theta, x, y, act, cfg)
    assert calls == []


def test_truncated_memory_does_not_grow_with_steps(tight_cfg):
    # the truncated estimate reads the last state of the nudged flow; going
    # from 50 to 400 steps adds less than one weight vector to the peak
    # (keeping the path would add 350 states)
    shape = fp.NetworkShape(64, (10, 256, 256))
    theta, x, y = fp.random_instance(shape, 0)
    beta = 1e-3
    cfg = fp.eqprop.tightened(tight_cfg, beta)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), fp.LOGISTIC, cfg)
    theta_bytes = 8 * shape.num_params

    def peak(num_steps):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fp.truncated_eqprop_gradient(theta, x, y, beta, num_steps, fp.LOGISTIC, cfg, s_free=s0)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(50)
        short, long = peak(50), peak(400)
    finally:
        tracemalloc.stop()
    assert long - short < theta_bytes


def test_truncated_zero_steps_gives_zero_gradient(converged):
    shape, theta, x, y, act, s0, cfg = converged
    est = fp.truncated_eqprop_gradient(theta, x, y, 1e-3, 0, act, cfg)
    for b in est.grad:
        np.testing.assert_array_equal(b, 0.0)
    assert est.horizon_t == 0.0


def test_truncated_far_past_convergence_matches_full(converged):
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-3
    full = fp.eqprop_gradient(theta, x, y, beta, act, cfg, s_free=s0)
    K = round(full.horizon_t / cfg.step_size) + 300
    trunc = fp.truncated_eqprop_gradient(theta, x, y, beta, K, act, cfg, s_free=s0)
    gap = max(np.max(np.abs(a - b)) for a, b in zip(full.grad, trunc.grad))
    assert gap <= 1e-9


def test_truncated_at_convergence_step_count_is_bitwise_identical(converged):
    # at 1e-8 the nudged phase is plain Euler; at 1e-12 chord steps settle
    # it, and its horizon counts no Euler step
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-3
    assert fp.eqprop_gradient(theta, x, y, beta, act, cfg, s_free=s0).horizon_t == 0.0
    cfg = dataclasses.replace(cfg, tolerance=1e-8)
    full = fp.eqprop_gradient(theta, x, y, beta, act, cfg, s_free=s0)
    assert full.horizon_t > 0
    K = round(full.horizon_t / cfg.step_size)
    trunc = fp.truncated_eqprop_gradient(theta, x, y, beta, K, act, cfg, s_free=s0)
    for a, b in zip(full.grad, trunc.grad):
        np.testing.assert_array_equal(a, b)


def test_temporal_process_initial_step(converged):
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-3
    rec = fp.temporal_derivative_process(theta, x, y, beta, 10, act, cfg, s_free=s0)
    want = fp.grad_s_cost(y, s0)
    # the residual of the free phase enters scaled by 1/beta
    for a, b in zip(rec.s_tilde[0], want):
        np.testing.assert_allclose(a, b, atol=cfg.tolerance / beta + 1e-12, rtol=1e-3)
    for b in rec.theta_tilde[0]:
        np.testing.assert_array_equal(b, 0.0)


def test_temporal_process_flat_when_output_matches_target(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rec = fp.temporal_derivative_process(theta, x, s0[0].copy(), 1e-3, 20, act, cfg, s_free=s0)
    bound = cfg.tolerance / 1e-3 * 10
    for st in rec.s_tilde:
        assert max(np.max(np.abs(b)) for b in st) <= bound
    for tt in rec.theta_tilde:
        assert max(np.max(np.abs(b)) for b in tt) <= bound


def test_temporal_endpoint_equals_truncated_bitwise(converged):
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-4
    K = 57
    rec = fp.temporal_derivative_process(theta, x, y, beta, K, act, cfg, s_free=s0)
    trunc = fp.truncated_eqprop_gradient(theta, x, y, beta, K, act, cfg, s_free=s0)
    for a, b in zip(rec.theta_tilde[-1], trunc.grad):
        np.testing.assert_array_equal(a, b)
    assert len(rec.times) == K + 1
    assert rec.times[-1] == pytest.approx(K * cfg.step_size)


def test_velocity_equals_euler_state_difference(converged):
    # under explicit Euler the analytic velocity readout reproduces the
    # forward difference of consecutive trajectory states exactly
    shape, theta, x, y, act, s0, cfg = converged
    beta = 1e-3
    K = 30
    states = fp.nudged_path(theta, x, y, beta, s0, act, cfg.step_size, K)
    rec = fp.temporal_derivative_process(theta, x, y, beta, K, act, cfg, s_free=s0)
    for k in range(K):
        for st, sk, sk1 in zip(rec.s_tilde[k], states[k], states[k + 1]):
            fd = -(sk1 - sk) / (cfg.step_size * beta)
            np.testing.assert_allclose(st, fd, rtol=1e-9, atol=1e-12)


def test_nudged_phase_reduces_cost_on_seeded_instances():
    ok = 0
    total = 20
    for i in range(total):
        shape, theta, x, y = make_instance(i)
        cfg = fp.RelaxationConfig(tolerance=1e-12)
        s0, _ = fp.relax_free(theta, x, shape.zero_state(), fp.LOGISTIC, cfg)
        beta = 1e-2
        s_b, traj = fp.relax_nudged(theta, x, y, beta, s0, fp.LOGISTIC, cfg)
        assert traj.converged
        if fp.cost(y, s_b) <= fp.cost(y, s0):
            ok += 1
    assert ok >= 0.95 * total


def test_temporal_process_evaluates_the_activation_once_per_state():
    # K Euler steps visit K + 1 states; the readouts reuse the rates the
    # nudged force computed there instead of evaluating them again
    shape = fp.NetworkShape(3, (2, 4))  # no layer, nor the state, 3 wide
    theta, x, y = fp.random_instance(shape, 5)
    n = sum(shape.layer_dims)
    evaluated = []

    def counted(fn):
        def wrapped(v):
            if np.size(v) != shape.input_dim:  # rho(x) is pinned, not a state
                evaluated.append(np.size(v))
            return fn(v)
        return wrapped

    act = fp.Activation("counted", counted(fp.LOGISTIC.f), fp.LOGISTIC.df,
                        fp.LOGISTIC.d2f, counted(fp.LOGISTIC.f_df))
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12)
    s_free, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    evaluated.clear()
    K = 12
    record = fp.temporal_derivative_process(theta, x, y, 1e-3, K, act, cfg, s_free=s_free)
    assert len(record.theta_tilde) == K + 1
    assert sum(evaluated) == (K + 1) * n


def test_temporal_csv_export(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rec = fp.temporal_derivative_process(theta, x, y, 1e-3, 3, act, cfg, s_free=s0)
    buf = io.StringIO()
    fp.write_temporal_csv(rec, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,kind,layer_or_block,index,value"
    dim_s = sum(shape.layer_dims)
    dim_t = shape.num_params
    assert len(lines) == 1 + 4 * (dim_s + dim_t)
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"s_tilde", "theta_tilde"}


# the gradcheck shapes of the benchmark, 2 to 23 weights
GRADCHECK_SHAPES = [fp.NetworkShape(2, (1,)), fp.NetworkShape(2, (2, 2, 1)), fp.NetworkShape(4, (3, 3, 2))]


@pytest.mark.parametrize("tolerance", [1e-12, 1e-6])
@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_stacked_betas_match_the_serial_estimates(index, act, tolerance):
    # any order, repeats too; at 1e-6 the betas tighten to different
    # tolerances, one per column.  Measured on these instances and seeds
    # 1201-1220: at most 1.5e-11 of the largest entry apart
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=tolerance)
    betas = [2e-4, 1e-4, 1e-3, 1e-4]
    _, _, s_free = fp.eqprop.second_phase(theta, x, act, cfg, [min(betas)])
    stacked = fp.eqprop.eqprop_gradients(theta, x, y, betas, act, cfg, s_free)
    assert [e.beta for e in stacked] == betas
    for beta, est in zip(betas, stacked):
        serial = fp.eqprop_gradient(theta, x, y, beta, act, cfg, s_free)
        largest = max(np.max(np.abs(g)) for g in serial.grad)
        for a, b in zip(est.grad, serial.grad):
            assert np.max(np.abs(a - b)) <= 1e-10 * largest
        # the column froze at the serial phase's step
        assert est.horizon_t == serial.horizon_t
    # a repeated beta gives the same estimate bit for bit
    for a, b in zip(stacked[1].grad, stacked[3].grad):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "betas, message",
    [
        ([], "betas must be non-empty"),
        ([1e-3, float("nan")], "betas must be finite, got nan"),
        ([float("inf")], "betas must be finite, got inf"),
        ([1e-3, 0.0], "betas must be positive, got 0.0"),
        ([-1e-4, 1e-3], "betas must be positive, got -0.0001"),
        ([1e-3, 2e-321], r"betas must be large enough for a positive tolerance beta \* 1e-3, got 2e-321"),
    ],
    ids=["empty", "nan", "inf", "zero", "negative", "tolerance-underflow"],
)
def test_stacked_betas_are_checked_before_any_relaxation(betas, message, converged, monkeypatch):
    shape, theta, x, y, act, s0, cfg = converged

    def relaxed(*args, **kwargs):
        raise AssertionError("relaxed before its betas were checked")

    monkeypatch.setattr(fp.dynamics, "_flow", relaxed)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fp.eqprop.eqprop_gradients(theta, x, y, betas, act, cfg, s0)


def test_a_beta_is_taken_exactly_when_its_tightened_tolerance_is_positive():
    # 2e-321 * 1e-3 rounds to 0, and 3e-321 * 1e-3 to the smallest subnormal
    with pytest.raises(fp.ConfigError, match=r"beta \* 1e-3, got 2e-321$"):
        fp.eqprop.check_betas([2e-321])
    [beta] = fp.eqprop.check_betas([3e-321])
    assert fp.eqprop.tightened(fp.RelaxationConfig(), beta).tolerance > 0


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_one_stacked_beta_is_the_serial_estimate_bit_for_bit(index, act):
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 7 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    _, _, s_free = fp.eqprop.second_phase(theta, x, act, cfg, [1e-4])
    [est] = fp.eqprop.eqprop_gradients(theta, x, y, [1e-4], act, cfg, s_free)
    serial = fp.eqprop_gradient(theta, x, y, 1e-4, act, cfg, s_free)
    assert est.horizon_t == serial.horizon_t
    for a, b in zip(est.grad, serial.grad):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_the_readout_of_the_settling_force_is_grad_theta_energy_bit_for_bit(index, act):
    # dE/dW at the nudged point is read from the force that evaluated it
    # last: after the serial certification of each stacked beta's column,
    # a one-beta estimate's too, each stack settled by its chord steps
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    betas = [2e-4, 1e-4]
    _, _, s_free = fp.eqprop.second_phase(theta, x, act, cfg, betas)
    g_free = fp.grad_theta_energy(theta, x, s_free, act)
    hessian = fp.dynamics.fd_hessian(theta, x, s_free, act)
    cfgs = [fp.eqprop.tightened(cfg, beta) for beta in betas]
    starts = []
    for b, c in [(betas, cfgs), (betas[1:], cfgs[1:])]:
        stack = [np.repeat(sk[:, None], len(b), axis=1) for sk in s_free]
        force = fp.model.Force(theta, x, stack, act, y, b)
        ends, _ = fp.dynamics.relax_columns(force, stack, cfg, "nudged phase", [d.tolerance for d in c], hessian)
        starts += [fp.model.split(end, force.bounds) for end in ends.T]
    estimates = fp.eqprop.eqprop_gradients(theta, x, y, betas, act, cfg, s_free)
    estimates.append(fp.eqprop_gradient(theta, x, y, betas[1], act, cfg, s_free))
    for beta, c, start, est in zip(betas + betas[1:], cfgs + cfgs[1:], starts, estimates):
        s_nudged, _ = fp.relax_nudged(theta, x, y, beta, start, act, c)
        want = [(gn - gf) / beta for gn, gf in zip(fp.grad_theta_energy(theta, x, s_nudged, act), g_free)]
        assert [b.tobytes() for b in est.grad] == [b.tobytes() for b in want]


_ESTIMATORS = {
    "rbp": lambda t, x, y, a, c, s: [fp.rbp_gradient(t, x, y, a, c, s)],
    "eqprop": lambda t, x, y, a, c, s: [fp.eqprop_gradient(t, x, y, 1e-4, a, c, s)],
    "truncated": lambda t, x, y, a, c, s: [fp.truncated_eqprop_gradient(t, x, y, 1e-4, 50, a, c, s)],
    "stacked": lambda t, x, y, a, c, s: fp.eqprop.eqprop_gradients(t, x, y, [1e-4, 2e-4, 1e-4], a, c, s),
}


@pytest.mark.parametrize("method", list(_ESTIMATORS))
def test_an_estimate_reports_the_free_point_it_was_read_at(seeded_net, method):
    # located as `second_phase` locates it for the smallest beta, 1e-4,
    # and for rbp at the config's tolerance; a point given is reported as is
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-6)
    if method == "rbp":
        want = fp.eqprop._free_fixed_point(theta, x, act, cfg)
    else:
        _, _, want = fp.eqprop.second_phase(theta, x, act, cfg, [1e-4])
    for est in _ESTIMATORS[method](theta, x, y, act, cfg, None):
        assert [b.tobytes() for b in est.free_point] == [b.tobytes() for b in want]
        assert "free_point" not in repr(est)
    for est in _ESTIMATORS[method](theta, x, y, act, cfg, want):
        assert est.free_point is want


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_stacked_betas_without_a_free_point_match_those_given_one(index, act):
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-6)
    betas = [2e-4, 1e-4, 1e-3]
    _, _, s_free = fp.eqprop.second_phase(theta, x, act, cfg, [min(betas)])
    given = fp.eqprop.eqprop_gradients(theta, x, y, betas, act, cfg, s_free)
    located = fp.eqprop.eqprop_gradients(theta, x, y, betas, act, cfg)
    for a, b in zip(given, located):
        assert (a.beta, a.horizon_t) == (b.beta, b.horizon_t)
        assert [g.tobytes() for g in a.grad] == [g.tobytes() for g in b.grad]
        assert [s.tobytes() for s in b.free_point] == [s.tobytes() for s in s_free]


@pytest.mark.parametrize("beta", [1e-3, 2.5e-4])
def test_a_second_phase_runs_at_beta_times_1e_3(seeded_net, beta):
    # read back from the second phase of the smallest beta; a config
    # already tighter than that keeps its own tolerance
    shape, theta, x, y, act = seeded_net
    loose = fp.RelaxationConfig(tolerance=1e-2)
    _, cfg, _ = fp.eqprop.second_phase(theta, x, act, loose, [2 * beta, beta], s_free=shape.zero_state())
    assert cfg.tolerance == beta * 1e-3
    tight = fp.RelaxationConfig(tolerance=beta * 1e-4)
    assert fp.eqprop.tightened(tight, beta).tolerance == beta * 1e-4


# ---------------------------------------------------------------------------
# the free phase's Newton finish
# ---------------------------------------------------------------------------

def _plain_euler(theta, x, act, cfg):
    """The free phase as plain Euler runs it, from the zero state."""
    result = fp.relax_free(theta, x, fp.model.zero_state_like(theta), act, cfg)
    return fp.dynamics.converged_state(result, cfg, "free phase")


def _counted_solves(monkeypatch):
    """A list that gets one entry, the solve's result, per `CurvatureOps.solve` call."""
    calls, solve = [], fp.model.CurvatureOps.solve
    monkeypatch.setattr(fp.model.CurvatureOps, "solve", lambda *a: calls.append(solve(*a)) or calls[-1])
    return calls


@pytest.mark.parametrize("tolerance, finished", [(1e-6, False), (1e-8, False), (1e-9, True), (1e-12, True)])
def test_the_newton_finish_engages_six_decades_below_its_switch(seeded_net, monkeypatch, tolerance, finished):
    # Euler to a residual of 1e-3, then Newton, only at a tolerance <= 1e-9
    shape, theta, x, y, act = seeded_net
    calls = _counted_solves(monkeypatch)
    cfg = fp.RelaxationConfig(tolerance=tolerance)
    s = fp.eqprop._free_fixed_point(theta, x, act, cfg)
    assert bool(calls) == finished
    assert fp.model.max_abs(fp.model.flatten(fp.grad_s_energy(theta, x, s, act))) <= tolerance
    if not finished:
        assert [b.tobytes() for b in s] == [b.tobytes() for b in _plain_euler(theta, x, act, cfg)]


def test_an_activation_without_curvature_keeps_plain_euler(seeded_net, monkeypatch):
    shape, theta, x, y, _ = seeded_net
    act = fp.model.Activation("tanh-no-d2f", np.tanh, fp.TANH.df)
    calls = _counted_solves(monkeypatch)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    s = fp.eqprop._free_fixed_point(theta, x, act, cfg)
    assert calls == []
    assert [b.tobytes() for b in s] == [b.tobytes() for b in _plain_euler(theta, x, act, cfg)]


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_the_newton_point_is_within_tol_over_lambda_min_of_a_long_euler_run(index, act):
    shape, theta, x, _ = make_instance(index)
    tol = 1e-12
    s = fp.model.flatten(fp.eqprop._free_fixed_point(theta, x, act, fp.RelaxationConfig(tolerance=tol)))
    long = fp.model.flatten(_plain_euler(theta, x, act, fp.RelaxationConfig(tolerance=1e-14)))
    ops = fp.model.CurvatureOps(theta, x, fp.model.split(long, fp.model.layer_bounds(shape.zero_state())), act)
    assert np.abs(s - long).max() <= tol / np.linalg.eigvalsh(dense_hessian(ops))[0]


# the weights of 2->[1,4] tanh that XOR eqprop training (configs/xor_eqprop.json)
# reaches in epoch 324, and the sample x = (0, 1): at the residual of 1e-3,
# after 11 Euler steps of 0.25, d2E/ds2 has an eigenvalue of -0.38
_XOR_INDEFINITE = (
    [["-0x1.e682b23270752p-2", "0x1.309a32de6b85ap+0", "0x1.e496c0fc8e1bep+0", "0x1.f1504fbe743b6p-2"]],
    [["-0x1.089d69b0cc5e0p-1", "0x1.eae4d4dd6fd55p+0"], ["0x1.0891392e07c97p+1", "0x1.97eef845d03a3p+1"],
     ["-0x1.692ab6a3ee248p+0", "-0x1.145b97fe807d2p+0"], ["0x1.5138f47efae0dp+0", "0x1.1883195106e45p+1"]],
)


def _xor_indefinite():
    theta = [np.array([[float.fromhex(v) for v in row] for row in w]) for w in _XOR_INDEFINITE]
    return theta, np.array([0.0, 1.0]), fp.RelaxationConfig(step_size=0.25, tolerance=1e-12)


def _euler_steps(monkeypatch):
    """A list of the step count of every `dynamics.relax` call."""
    steps, relax = [], fp.dynamics.relax

    def counted(*args):
        result = relax(*args)
        steps.append(result[1].steps_taken)
        return result

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    return steps


def _refused_solves(monkeypatch):
    """A list that gets one entry per `CurvatureOps.solve` call, each refused."""
    calls = []
    monkeypatch.setattr(fp.model.CurvatureOps, "solve", lambda *a: calls.append(None))
    return calls


def test_a_refused_solve_leaves_the_free_phase_to_euler(monkeypatch):
    # every solve refused: at the switch 1e-3 and at each retry one decade
    # lower, down to 1e-6, six decades above the tolerance; Euler goes on
    # from each point where it stopped, so the free phase is plain Euler's
    theta, x, cfg = _xor_indefinite()
    calls = _refused_solves(monkeypatch)
    steps = _euler_steps(monkeypatch)
    s = fp.eqprop._free_fixed_point(theta, x, fp.TANH, cfg)
    assert calls == [None] * 4 and len(steps) == 5
    monkeypatch.undo()
    assert [b.tobytes() for b in s] == [b.tobytes() for b in _plain_euler(theta, x, fp.TANH, cfg)]


def test_a_solve_refused_at_the_switch_is_retried_one_decade_lower(monkeypatch):
    # at 1e-3 d2E/ds2 is indefinite and the solve is refused; Euler goes on
    # to 1e-4, where the solve is accepted and Newton settles the point:
    # 11 + 119 Euler steps, and none to certify it, against plain Euler's 271
    theta, x, cfg = _xor_indefinite()
    calls, steps = _counted_solves(monkeypatch), _euler_steps(monkeypatch)
    s = fp.eqprop._free_fixed_point(theta, x, fp.TANH, cfg)
    assert calls[0] is None and all(c is not None for c in calls[1:])
    assert steps == [11, 119, 0]
    assert fp.model.max_abs(fp.model.flatten(fp.grad_s_energy(theta, x, s, fp.TANH))) <= cfg.tolerance
    monkeypatch.undo()
    plain = fp.relax_free(theta, x, fp.model.zero_state_like(theta), fp.TANH, cfg)[1]
    assert plain.steps_taken == 271


@pytest.mark.parametrize("cap", [5, 10, 11, 12, 40, 200])
def test_a_capped_free_phase_keeps_plain_eulers_message_and_budget(monkeypatch, cap):
    # after every solve is refused (the first at step 11), the Euler steps
    # before and after each switch add up to at most max_steps, and a phase
    # that does not converge raises plain Euler's message, word for word
    theta, x, cfg = _xor_indefinite()
    cfg = dataclasses.replace(cfg, max_steps=cap)
    with pytest.raises(fp.ConvergenceError) as plain:
        _plain_euler(theta, x, fp.TANH, cfg)
    _refused_solves(monkeypatch)
    steps = _euler_steps(monkeypatch)
    with pytest.raises(fp.ConvergenceError) as got:
        fp.eqprop._free_fixed_point(theta, x, fp.TANH, cfg)
    assert str(got.value) == str(plain.value)
    assert sum(steps) <= cap


def test_a_free_phase_capped_at_its_switch_takes_no_newton_step(seeded_net, monkeypatch):
    # the switch at step k leaves no Euler step: the phase raises plain
    # Euler's message; one step more leaves room for the finish, whose
    # point is certified in one evaluation
    shape, theta, x, y, act = seeded_net
    switch = fp.RelaxationConfig(tolerance=1e-3)
    k = fp.relax_free(theta, x, shape.zero_state(), act, switch)[1].steps_taken
    cfg = fp.RelaxationConfig(tolerance=1e-12, max_steps=k)
    with pytest.raises(fp.ConvergenceError) as plain:
        _plain_euler(theta, x, act, cfg)
    calls, steps = _counted_solves(monkeypatch), _euler_steps(monkeypatch)
    with pytest.raises(fp.ConvergenceError) as got:
        fp.eqprop._free_fixed_point(theta, x, act, cfg)
    assert str(got.value) == str(plain.value) and calls == []
    fp.eqprop._free_fixed_point(theta, x, act, dataclasses.replace(cfg, max_steps=k + 1))
    assert len(calls) >= 1 and steps[1:] == [k, 0]


# tanh starts from which the full Newton step s - d raises the residual; the
# half step s - d/2 lowers it from the last three, and from the first three
# neither does, so the start comes back as it was
@pytest.mark.parametrize("index, scale, halved", [
    (4, 2.0, False), (6, 1.0, False), (8, 1.0, False), (1, 2.0, True), (5, 0.5, True), (16, 2.0, True),
])
def test_a_newton_step_is_taken_only_where_it_lowers_the_residual(monkeypatch, index, scale, halved):
    shape, theta, x, _ = make_instance(index)
    start = random_state(shape, np.random.default_rng(index), scale)
    s, tol = fp.model.flatten(start), 1e-12

    def residual(v):
        return fp.model.CurvatureOps(theta, x, fp.model.split(v, fp.model.layer_bounds(start)), fp.TANH).residual

    ops = fp.model.CurvatureOps(theta, x, start, fp.TANH)
    d = ops.solve(ops.gradient, 0.5 * tol)
    assert residual(s - d) >= ops.residual
    frozen, freeze = [], fp.model.CurvatureOps.freeze
    monkeypatch.setattr(fp.model.CurvatureOps, "freeze", lambda self, v: frozen.append(v.copy()) or freeze(self, v))
    got = fp.eqprop._newton_steps(ops, s, tol)
    assert [v.tobytes() for v in frozen[:2]] == [(s - d).tobytes(), (s - 0.5 * d).tobytes()]
    if halved:
        assert residual(got) < residual(s)
    else:
        assert got.tobytes() == s.tobytes() and len(frozen) == 2
