"""The finite-difference oracles and the two structural identity checks."""

import dataclasses

import numpy as np
import pytest

import fpgrad as fp
from fpgrad import oracle
from fpgrad.exceptions import BasinJumpError, ConvergenceError, DivergenceError

from conftest import make_instance, random_state


@pytest.fixture
def converged(seeded_net, tight_cfg):
    shape, theta, x, y, act = seeded_net
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    assert traj.converged
    return shape, theta, x, y, act, s0, tight_cfg


def test_fd_config_validation():
    with pytest.raises(ValueError):
        fp.FDConfig(delta=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            fp.FDConfig(delta=bad)
    with pytest.raises(ValueError):
        fp.FDConfig(scheme="forward")


# ---------------------------------------------------------------------------
# projected cost
# ---------------------------------------------------------------------------

def test_projected_cost_zero_duration_is_raw_cost(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rng = np.random.default_rng(2)
    s = random_state(shape, rng)
    assert fp.projected_cost(theta, x, y, s, 0.0, act, cfg) == fp.cost(y, s)


def test_projected_cost_constant_from_fixed_point(converged):
    shape, theta, x, y, act, s0, cfg = converged
    l0 = fp.projected_cost(theta, x, y, s0, 0.0, act, cfg)
    for t in (1.0, 5.0, 10.0):
        lt = fp.projected_cost(theta, x, y, s0, t, act, cfg)
        assert abs(lt - l0) <= cfg.tolerance * (t / cfg.step_size)


def test_projected_cost_approaches_objective(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rng = np.random.default_rng(3)
    s = random_state(shape, rng, scale=0.5)
    j = fp.cost(y, s0)
    assert abs(fp.projected_cost(theta, x, y, s, 80.0, act, cfg) - j) <= 1e-6


def test_projected_cost_requires_grid_multiple(converged):
    shape, theta, x, y, act, s0, cfg = converged
    with pytest.raises(ValueError, match="multiple"):
        fp.projected_cost(theta, x, y, s0, 0.25001, act, cfg)
    with pytest.raises(ValueError):
        fp.projected_cost(theta, x, y, s0, -0.1, act, cfg)


# ---------------------------------------------------------------------------
# FD objective gradient
# ---------------------------------------------------------------------------

def test_fd_gradient_zero_for_perfect_prediction(converged):
    shape, theta, x, y, act, s0, cfg = converged
    est = fp.fd_objective_gradient(theta, x, s0[0].copy(), act, cfg)
    # pure FD noise remains: cost at the fixed point is exactly quadratic
    # around zero discrepancy, so the central difference is ~delta^2
    for b in est.grad:
        assert np.max(np.abs(b)) <= 1e-7
    assert est.method == "fd-oracle"


def test_fd_gradient_richardson_self_consistency(converged):
    shape, theta, x, y, act, s0, cfg = converged
    est1 = fp.fd_objective_gradient(theta, x, y, act, cfg, fp.FDConfig(delta=1e-4))
    est2 = fp.fd_objective_gradient(theta, x, y, act, cfg, fp.FDConfig(delta=5e-5))
    for a, b in zip(est1.grad, est2.grad):
        err = np.abs(a - b)
        assert np.all(err <= np.maximum(1e-3 * np.abs(b), 1e-7))


def test_fd_gradient_richardson_across_instances():
    for i in range(5):
        shape, theta, x, y = make_instance(i)
        cfg = fp.RelaxationConfig(tolerance=1e-12)
        est1 = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, cfg, fp.FDConfig(delta=1e-4))
        est2 = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, cfg, fp.FDConfig(delta=5e-5))
        for a, b in zip(est1.grad, est2.grad):
            err = np.abs(a - b)
            assert np.all(err <= np.maximum(1e-3 * np.abs(b), 1e-7)), f"instance {i}"


def test_fd_gradient_cold_start_matches_warm(converged):
    # starting points differ, so the two probes agree only to the noise of
    # residual-level objective differences amplified by 1/(2*delta)
    shape, theta, x, y, act, s0, cfg = converged
    warm = fp.fd_objective_gradient(theta, x, y, act, cfg, fp.FDConfig(warm_start=True))
    cold = fp.fd_objective_gradient(theta, x, y, act, cfg, fp.FDConfig(warm_start=False))
    for a, b in zip(warm.grad, cold.grad):
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-8)


def test_fd_gradient_relaxes_once_per_probe(converged, monkeypatch):
    shape, theta, x, y, act, s0, cfg = converged
    calls = []
    relax = fp.dynamics.relax

    def counted(force, s_init, rcfg):
        evaluations = []

        def evaluated(s):
            evaluations.append(1)
            return force(s)

        result = relax(evaluated, s_init, rcfg)
        calls.append((rcfg.tolerance, len(evaluations), result[1].steps_taken))
        return result

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    fp.fd_objective_gradient(theta, x, y, act, cfg)
    # the reference fixed point, then two central-difference probes per weight
    assert len(calls) == 1 + 2 * shape.num_params
    assert {tol for tol, _, _ in calls} == {oracle._ORACLE_TOLERANCE}
    # one evaluation per state, the start's not repeated: the reference
    # flows from the zero state, and each probe's stacked endpoint is
    # certified by one evaluation of the force, with no step
    assert all(n == steps + 1 for _, n, steps in calls)
    assert calls[0][2] > 0
    assert [n for _, n, _ in calls[1:]] == [1] * (2 * shape.num_params)


def test_basin_jump_detection(converged, monkeypatch):
    shape, theta, x, y, act, s0, cfg = converged
    # shrink the threshold below the perturbation response to exercise the guard
    monkeypatch.setattr(oracle, "BASIN_JUMP_THRESHOLD", 1e-12)
    with pytest.raises(BasinJumpError):
        fp.fd_objective_gradient(theta, x, y, act, cfg)


def _serial_fd_reference(theta, x, y, act, cfg, fd):
    """`fd_objective_gradient` as it was before the stacked probes, under
    the same finish: one serial relaxation per perturbed network, from the
    same start; warm, it first takes the chord steps of a one-column stack
    on the same Hessian."""
    tight = dataclasses.replace(cfg, tolerance=min(cfg.tolerance, 1e-12), record_every=0)
    zero = fp.model.zero_state_like(theta)
    s0 = oracle._relaxed_fixed_point(fp.model.Force(theta, x, zero, act), zero, tight)
    start = s0 if fd.warm_start else zero
    hessian = fp.dynamics.fd_hessian(theta, x, s0, act) if fd.warm_start else None
    grad = []
    for k, w in enumerate(theta):
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            costs = []
            for delta in (fd.delta, -fd.delta):
                perturbed = fp.model.copy_blocks(theta)
                perturbed[k][idx] = w[idx] + delta
                force = fp.model.Force(perturbed, x, start, act)
                s_end = start
                if fd.warm_start:
                    column = [sk[:, None] for sk in start]
                    one = fp.model.Force(perturbed, x, column, act)
                    end = fp.dynamics.relax_columns(one, column, tight, "probe", hessian=hessian)[0]
                    s_end = fp.model.split(end[:, 0], force.bounds)
                costs.append(fp.cost(y, oracle._relaxed_fixed_point(force, s_end, tight)))
            g[idx] = (costs[0] - costs[1]) / (2.0 * fd.delta)
        grad.append(g)
    return grad


def _bits(blocks):
    return [b.tobytes() for b in blocks]


# the gradcheck shapes of the benchmark, 2 to 23 weights
GRADCHECK_SHAPES = [fp.NetworkShape(2, (1,)), fp.NetworkShape(2, (2, 2, 1)), fp.NetworkShape(4, (3, 3, 2))]


def _per_probe_force_oracle(theta, x, y, act, cfg, fd=fp.FDConfig()):
    """`fd_objective_gradient` as it was before one force served every
    probe: the inner-block probes share one `Force`, and an input-block
    probe builds its own once its entry is set.  Warm probes take the
    chord steps on the same Hessian."""
    tight = dataclasses.replace(cfg, tolerance=min(cfg.tolerance, 1e-12), record_every=0)
    zero = fp.model.zero_state_like(theta)
    probed = fp.model.copy_blocks(theta)
    force = fp.model.Force(probed, x, zero, act)
    s0 = oracle._relaxed_fixed_point(force, zero, tight)
    start, bounds = (s0 if fd.warm_start else zero), fp.model.layer_bounds(s0)
    hessian = fp.dynamics.fd_hessian(theta, x, s0, act) if fd.warm_start else None
    probes = [
        (k, i, j, sign * fd.delta)
        for k, w in enumerate(theta)
        for i, j in np.ndindex(*w.shape)
        for sign in (1.0, -1.0)
    ]
    costs = []
    for first in range(0, len(probes), oracle._STACK_COLUMNS):
        chunk = probes[first:first + oracle._STACK_COLUMNS]
        ends = oracle._relaxed_stack(theta, x, start, act, chunk, tight, hessian)
        for c, (k, i, j, d) in enumerate(chunk):
            probed[k][i, j] = theta[k][i, j] + d
            s_end = fp.model.split(ends[:, c], bounds)
            probe = force if k < len(theta) - 1 else fp.model.Force(probed, x, s_end, act)
            costs.append(fp.cost(y, oracle._relaxed_fixed_point(probe, s_end, tight)))
            probed[k][i, j] = theta[k][i, j]
    grad = fp.model.zero_params_like(theta)
    for (k, i, j, _), j_plus, j_minus in zip(probes[0::2], costs[0::2], costs[1::2]):
        grad[k][i, j] = (j_plus - j_minus) / (2.0 * fd.delta)
    return grad


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_one_force_for_every_probe_gives_the_per_probe_forces_bits(index, act, warm_start):
    # 2->[1] has only input-block probes, whose drive is the whole drive
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    fd = fp.FDConfig(warm_start=warm_start)
    shared = fp.fd_objective_gradient(theta, x, y, act, cfg, fd).grad
    assert _bits(shared) == _bits(_per_probe_force_oracle(theta, x, y, act, cfg, fd))


@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_a_probe_pushed_off_tolerance_relaxes_serially_to_the_reference_bits(index, monkeypatch):
    # the first probe and the last, an input-block one, start off their
    # fixed points: their certification runs the flow, under the shared
    # force with the probed entry set, and lands where a fresh force does
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    stacked = oracle._relaxed_stack

    def pushed(*args):
        ends = stacked(*args)
        ends[:, [0, -1]] += 1e-6
        return ends

    monkeypatch.setattr(oracle, "_relaxed_stack", pushed)
    reference = _per_probe_force_oracle(theta, x, y, fp.LOGISTIC, cfg)
    steps = []
    relax = fp.dynamics.relax

    def counted(force, s_init, rcfg):
        result = relax(force, s_init, rcfg)
        steps.append(result[1].steps_taken)
        return result

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    shared = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, cfg).grad
    assert steps[1] > 0 and steps[-1] > 0
    assert steps[2:-1] == [0] * (len(steps) - 3)
    assert _bits(shared) == _bits(reference)


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_stacked_probes_match_the_serial_reference(index, act, warm_start):
    # the hard sigmoid has slope 0 at the zero state, so its gradient is 0
    # there: that case checks the stack's exit when no column moves
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    fd = fp.FDConfig(warm_start=warm_start)
    stacked = fp.fd_objective_gradient(theta, x, y, act, cfg, fd).grad
    serial = _serial_fd_reference(theta, x, y, act, cfg, fd)
    largest = max(np.max(np.abs(g)) for g in serial)
    for a, b in zip(stacked, serial):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10 * largest


def test_stacked_probes_are_bitwise_repeatable(converged):
    shape, theta, x, y, act, s0, cfg = converged
    first = fp.fd_objective_gradient(theta, x, y, fp.TANH, cfg).grad
    second = fp.fd_objective_gradient(theta, x, y, fp.TANH, cfg).grad
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_stacked_probes_beyond_one_stack_match_the_serial_reference(monkeypatch):
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[1], 7)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    whole = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, cfg).grad
    # 16 probes in stacks of 3: five full stacks and one of a single column
    monkeypatch.setattr(oracle, "_STACK_COLUMNS", 3)
    chunked = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, cfg).grad
    largest = max(np.max(np.abs(g)) for g in whole)
    for a, b in zip(chunked, whole):
        assert np.max(np.abs(a - b)) <= 1e-10 * largest


def _relax_calls(monkeypatch):
    """Records whether each `dynamics.relax` call converged."""
    calls = []
    relax = fp.dynamics.relax

    def counted(force, s_init, rcfg):
        result = relax(force, s_init, rcfg)
        calls.append(result[1].converged)
        return result

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    return calls


def _poisoned_oracle(converged, monkeypatch, scale, poisoned_at):
    """The DivergenceError of an oracle on the chord Hessian times `scale`,
    column 3 of its stacked activations NaN at their evaluation number
    `poisoned_at`: the Hessian's 2n columns are the first, the chord's
    start the second, then its trial points, then Euler's steps."""
    shape, theta, x, y, act, s0, cfg = converged
    evaluations = []

    def rate_slope(v):
        f, df = act.rate_slope(v)
        if np.ndim(v) == 2:
            evaluations.append(1)
            if len(evaluations) == poisoned_at:
                f[:, 3] = np.nan
        return f, df

    hessian = fp.dynamics.fd_hessian
    monkeypatch.setattr(fp.dynamics, "fd_hessian", lambda *args: scale * hessian(*args))
    calls = _relax_calls(monkeypatch)
    with pytest.raises(DivergenceError) as info:
        fp.fd_objective_gradient(theta, x, y, dataclasses.replace(act, f_df=rate_slope), cfg)
    # the reference converged; no probe reached its certification
    assert calls == [True]
    return info.value


def test_a_non_finite_probe_diverges_at_its_step(converged, monkeypatch):
    # the chord's second trial point, before any Euler step
    err = _poisoned_oracle(converged, monkeypatch, 1.0, 4)
    assert str(err) == "non-finite state at chord step 2, before Euler step 0" and err.step == 0


def test_a_probe_non_finite_after_the_chord_diverges_at_its_euler_step(converged, monkeypatch):
    # on 2.5 H the first chord step leaves 0.6 of the residual and is
    # dropped, so Euler runs the stack, and its fourth step turns NaN
    err = _poisoned_oracle(converged, monkeypatch, 2.5, 7)
    assert str(err) == "non-finite state at step 4" and err.step == 4


def test_a_stack_at_max_steps_raises_before_any_certification(converged, monkeypatch):
    shape, theta, x, y, act, s0, cfg = converged
    # cold probes of a large delta settle a few steps after the reference
    steps = fp.relax_free(theta, x, shape.zero_state(), act, cfg)[1].steps_taken
    capped = dataclasses.replace(cfg, max_steps=steps)
    calls = _relax_calls(monkeypatch)
    with pytest.raises(ConvergenceError, match=f"oracle relaxation did not converge within {steps} steps"):
        fp.fd_objective_gradient(theta, x, y, act, capped, fp.FDConfig(delta=0.3, warm_start=False))
    assert calls == [True]


@pytest.mark.parametrize("loose", [1e-6, 1e-8])
@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(GRADCHECK_SHAPES)))
def test_a_looser_free_point_gives_the_zero_start_gradient_bit_for_bit(index, act, loose, monkeypatch):
    theta, x, y = fp.random_instance(GRADCHECK_SHAPES[index], 1201 + index)
    cfg = fp.RelaxationConfig(tolerance=1e-12)
    zero = fp.model.zero_state_like(theta)
    p, to_loose = fp.relax_free(theta, x, zero, act, dataclasses.replace(cfg, tolerance=loose))
    to_tight = fp.relax_free(theta, x, zero, act, cfg)[1]
    assert to_loose.converged and to_tight.converged
    p_bits = _bits(p)
    from_zero = fp.fd_objective_gradient(theta, x, y, act, cfg).grad
    steps = []
    relax = fp.dynamics.relax

    def counted(force, s_init, rcfg):
        result = relax(force, s_init, rcfg)
        steps.append(result[1].steps_taken)
        return result

    monkeypatch.setattr(fp.dynamics, "relax", counted)
    from_p = fp.fd_objective_gradient(theta, x, y, act, cfg, s_free=p).grad
    assert _bits(from_p) == _bits(from_zero)
    # the reference relaxation continues the zero-start flow where p left it
    assert steps[0] == to_tight.steps_taken - to_loose.steps_taken
    assert _bits(p) == p_bits


def test_cold_probes_take_no_chord_step(converged, monkeypatch):
    # from the zero state, far from their fixed points, the probes are
    # plain Euler's, as they were before the chord
    shape, theta, x, y, act, s0, cfg = converged
    monkeypatch.setattr(fp.dynamics, "fd_hessian", lambda *a: pytest.fail("a chord Hessian"))
    monkeypatch.setattr(fp.dynamics, "_chord", lambda *a: pytest.fail("a chord step"))
    fp.fd_objective_gradient(theta, x, y, act, cfg, fp.FDConfig(warm_start=False))


def test_fd_gradient_never_writes_the_callers_weights(converged, monkeypatch):
    shape, theta, x, y, act, s0, cfg = converged
    before = _bits(theta)
    fp.fd_objective_gradient(theta, x, y, act, cfg)
    assert _bits(theta) == before
    # the guard fires on the first probe, with 2P - 1 probes left
    monkeypatch.setattr(oracle, "BASIN_JUMP_THRESHOLD", 1e-12)
    with pytest.raises(BasinJumpError):
        fp.fd_objective_gradient(theta, x, y, act, cfg)
    assert _bits(theta) == before


# ---------------------------------------------------------------------------
# FD Hessian-vector products
# ---------------------------------------------------------------------------

def test_fd_hvp_zero_direction(converged):
    shape, theta, x, y, act, s0, cfg = converged
    z = shape.zero_state()
    for b in fp.fd_hvp_ss(theta, x, s0, z, act):
        np.testing.assert_array_equal(b, 0.0)
    for b in fp.fd_hvp_theta_s(theta, x, s0, z, act):
        np.testing.assert_array_equal(b, 0.0)


def test_fd_hvp_identity_for_zero_weights():
    shape = fp.NetworkShape(2, (2, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    rng = np.random.default_rng(5)
    s = random_state(shape, rng)
    v = [rng.standard_normal(d) for d in shape.layer_dims]
    h = fp.fd_hvp_ss(theta, np.zeros(2), s, v, fp.LOGISTIC)
    for a, b in zip(h, v):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_fd_hvps_match_analytic(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rng = np.random.default_rng(6)
    s = random_state(shape, rng)
    v = [rng.standard_normal(d) for d in shape.layer_dims]
    for a, b in zip(fp.fd_hvp_ss(theta, x, s, v, act), fp.hvp_ss(theta, x, s, v, act)):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-9)
    for a, b in zip(
        fp.fd_hvp_theta_s(theta, x, s, v, act), fp.hvp_theta_s(theta, x, s, v, act)
    ):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------------------
# backward identity of the projected cost
# ---------------------------------------------------------------------------

def _fine_cfg(cfg):
    # the identity holds for the continuous flow; the discrete residual is
    # first order in the step, so the check runs on a finer grid
    return dataclasses.replace(cfg, step_size=1e-3, max_steps=10_000_000)


def test_backward_identity_small_at_fixed_point(converged):
    shape, theta, x, y, act, s0, cfg = converged
    r = fp.check_backward_identity(theta, x, y, s0, 1.0, act, _fine_cfg(cfg))
    assert r <= 1e-6


def test_backward_identity_t_zero_forward_difference(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rng = np.random.default_rng(8)
    s = random_state(shape, rng)
    r = fp.check_backward_identity(theta, x, y, s, 0.0, act, _fine_cfg(cfg))
    assert np.isfinite(r)
    assert r <= 5e-3


def test_backward_identity_seeded_pairs(converged):
    shape, theta, x, y, act, s0, cfg = converged
    fine = _fine_cfg(cfg)
    rng = np.random.default_rng(9)
    for t in (0.2, 0.5, 1.0):
        s = random_state(shape, rng)
        r = fp.check_backward_identity(theta, x, y, s, t, act, fine, fp.FDConfig(delta=1e-4))
        n = round(t / fine.step_size)
        lp = fp.projected_cost(theta, x, y, s, (n + 1) * fine.step_size, act, fine)
        lm = fp.projected_cost(theta, x, y, s, (n - 1) * fine.step_size, act, fine)
        dl_dt = (lp - lm) / (2 * fine.step_size)
        assert r <= 1e-3 * (1.0 + abs(dl_dt))


# ---------------------------------------------------------------------------
# envelope identity of the relaxed augmented energy
# ---------------------------------------------------------------------------

def test_dbeta_identity_at_beta_zero(converged):
    shape, theta, x, y, act, s0, cfg = converged
    r = fp.check_dbeta_energy_identity(theta, x, y, 0.0, act, cfg, fp.FDConfig(delta=1e-4))
    assert r <= 1e-4 * (1.0 + fp.cost(y, s0))


def test_dbeta_identity_second_order_decay(converged):
    shape, theta, x, y, act, s0, cfg = converged
    residuals = [
        fp.check_dbeta_energy_identity(theta, x, y, 1e-2, act, cfg, fp.FDConfig(delta=d))
        for d in (1e-4, 5e-5)
    ]
    ratio = residuals[0] / residuals[1]
    assert 3.0 <= ratio <= 5.0


def test_dbeta_identity_degenerate_target(converged):
    shape, theta, x, y, act, s0, cfg = converged
    r = fp.check_dbeta_energy_identity(theta, x, s0[0].copy(), 0.0, act, cfg)
    assert r <= 1e-8


# ---------------------------------------------------------------------------
# report format
# ---------------------------------------------------------------------------

def test_gradient_report_structure():
    est = [np.array([[1.0, 2.0]]), np.array([[3.0]])]
    ref = [np.array([[1.0, 2.0000005]]), np.array([[3.1]])]
    rep = fp.gradient_report(est, ref, tol=1e-3, floor=1e-7)
    assert not rep["passed"]
    assert rep["blocks"][0]["max_rel_error"] <= 1e-3
    assert rep["blocks"][1]["worst_index"] == [0, 0]
    assert rep["max_rel_error"] == rep["blocks"][1]["max_rel_error"]
    ok = fp.gradient_report(est, est, tol=1e-3, floor=1e-7)
    assert ok["passed"] and ok["max_rel_error"] == 0.0


def test_gradient_report_fails_an_estimate_holding_a_nan():
    # Python's max keeps 0.0 over a NaN; the report must not
    ref = [np.array([[1.0, 2.0]]), np.array([[3.0]])]
    est = [np.array([[1.0, 2.0]]), np.array([[np.nan]])]
    rep = fp.gradient_report(est, ref, tol=1e-3, floor=1e-7)
    assert not rep["passed"]
    assert np.isnan(rep["max_rel_error"])
    assert np.isnan(rep["blocks"][1]["max_rel_error"])
    assert rep["blocks"][0]["max_rel_error"] == 0.0
