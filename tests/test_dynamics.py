"""Relaxation behaviour: convergence, descent, recording, divergence guards."""

import dataclasses
import io
import re
import warnings

import numpy as np
import pytest

import fpgrad as fp
from fpgrad.exceptions import ConvergenceError, DivergenceError

from conftest import SHAPE_POOL, dense_hessian, make_instance, random_state

# free fixed point of the canonical instance (2 -> [2, 2, 1], seed 42,
# logistic, eps 0.1, tol 1e-8 from the zero state), frozen after its first
# verified run (energy descent + residual checked below and in-run)
GOLDEN_FIXED_POINT = [
    ["0x1.0a52a9459552ap-4", "0x1.6d3ec2c1a28a5p-3"],
    ["0x1.8fa3741bf2b71p-5", "0x1.d2cde9c503920p-3"],
    ["0x1.8d678076a60b0p-3"],
]


def test_config_validation():
    with pytest.raises(ValueError):
        fp.RelaxationConfig(step_size=0.0)
    with pytest.raises(ValueError):
        fp.RelaxationConfig(tolerance=-1.0)
    with pytest.raises(ValueError):
        fp.RelaxationConfig(max_steps=0)
    with pytest.raises(ValueError):
        fp.RelaxationConfig(record_every=-1)


@pytest.mark.parametrize("key", ["step_size", "tolerance"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_non_finite_settings(key, value):
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        fp.RelaxationConfig(**{key: value})


def test_fixed_horizon_flow_rejects_non_finite_step(seeded_net):
    shape, theta, x, y, act = seeded_net
    with pytest.raises(ValueError, match="step_size must be positive and finite, got nan"):
        fp.free_path(theta, x, shape.zero_state(), act, float("nan"), 3)


def test_every_unconverged_relaxation_raises_one_message(seeded_net, tight_cfg, monkeypatch):
    # with every Hessian refused, the stacks take no chord step: the
    # nudged phase is left to Euler, whose cap it meets
    monkeypatch.setattr(fp.dynamics, "_positive_definite", lambda h: False)
    shape, theta, x, y, act = seeded_net
    short = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12, max_steps=5)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    ds = fp.Dataset([fp.Sample(x, y)])
    runs = [
        ("free phase", lambda: fp.eqprop_gradient(theta, x, y, 1e-3, act, short)),
        ("nudged phase", lambda: fp.eqprop_gradient(theta, x, y, 1e-3, act, short, s_free=s0)),
        ("free phase", lambda: fp.predict(theta, x, act, short)),
        ("epoch 0, sample 0: free phase",
         lambda: fp.sgd_train(ds, shape, act, fp.TrainConfig(method="rbp", epochs=1, relaxation=short))),
        ("oracle relaxation", lambda: fp.fd_objective_gradient(theta, x, y, act, short)),
    ]
    for phase, run in runs:
        with pytest.raises(ConvergenceError) as e:
            run()
        assert re.fullmatch(
            rf"{phase} did not converge within 5 steps \(residual \S+ > tolerance 1e-12\)",
            str(e.value),
        ), str(e.value)


def test_free_fixed_points_record_no_snapshots(seeded_net, tight_cfg, monkeypatch):
    # rbp_gradient and predict read only the free fixed point: their
    # relaxations record nothing, whatever the caller's record_every; at
    # this tolerance each free phase is two, Euler to the Newton finish's
    # switch and the certificate of its point
    shape, theta, x, y, act = seeded_net
    seen = []
    relax = fp.dynamics.relax

    def spy(force, s_init, cfg):
        seen.append(cfg.record_every)
        return relax(force, s_init, cfg)

    monkeypatch.setattr(fp.dynamics, "relax", spy)
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12, record_every=1)
    fp.rbp_gradient(theta, x, y, act, cfg)
    fp.predict(theta, x, act, cfg)
    assert seen == [0, 0, 0, 0]


def test_zero_weights_contract_to_zero_state():
    shape = fp.NetworkShape(2, (2, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    rng = np.random.default_rng(0)
    s_init = random_state(shape, rng)
    cfg = fp.RelaxationConfig(tolerance=1e-10)
    s, traj = fp.relax_free(theta, np.zeros(2), s_init, fp.LOGISTIC, cfg)
    assert traj.converged
    assert max(np.max(np.abs(b)) for b in s) <= 1e-10


def test_fixed_point_input_converges_at_step_zero(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-8)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    s, traj = fp.relax_free(theta, x, s0, act, cfg)
    assert traj.converged
    assert traj.steps_taken == 0
    assert len(traj.states) == 1 and len(traj.times) == 1
    for a, b in zip(s, s0):
        np.testing.assert_array_equal(a, b)


def test_seeded_relaxation_descends_and_matches_golden(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-8, record_every=1)
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    assert traj.converged and traj.final_residual <= 1e-8
    energies = [fp.energy(theta, x, s, act) for s in traj.states]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12
    assert energies[-1] <= energies[0]
    golden = [np.array([float.fromhex(v) for v in layer]) for layer in GOLDEN_FIXED_POINT]
    for got, want in zip(s0, golden):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_one_extra_step_barely_moves_a_converged_state(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-10)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    stepped = fp.free_path(theta, x, s0, act, cfg.step_size, 1)[-1]
    move = max(np.max(np.abs(a - b)) for a, b in zip(stepped, s0))
    assert move <= cfg.step_size * cfg.tolerance


def test_flow_semigroup_is_exact(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(5)
    s = random_state(shape, rng)
    both = fp.free_path(theta, x, s, act, 0.1, 30)[-1]
    first = fp.free_path(theta, x, s, act, 0.1, 12)[-1]
    second = fp.free_path(theta, x, first, act, 0.1, 18)[-1]
    for a, b in zip(both, second):
        np.testing.assert_array_equal(a, b)


def test_nudged_beta_zero_is_stationary_at_fixed_point(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-8, record_every=1, max_steps=1000)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    s, traj = fp.relax_nudged(theta, x, y, 0.0, s0, act, cfg)
    bound = cfg.tolerance * cfg.max_steps * cfg.step_size
    for state in traj.states:
        drift = max(np.max(np.abs(a - b)) for a, b in zip(state, s0))
        assert drift <= bound


def test_nudged_stationary_when_output_equals_target(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-8)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    y_match = s0[0].copy()
    s, traj = fp.relax_nudged(theta, x, y_match, 0.5, s0, act, cfg)
    assert traj.converged and traj.steps_taken == 0


def test_nudged_descends_augmented_energy(seeded_net):
    shape, theta, x, y, act = seeded_net
    beta = 1e-3
    cfg = fp.RelaxationConfig(tolerance=1e-8, record_every=1)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    s, traj = fp.relax_nudged(theta, x, y, beta, s0, act, cfg)
    assert traj.converged
    assert traj.final_residual <= cfg.tolerance
    aug = [fp.energy(theta, x, st, act) + beta * fp.cost(y, st) for st in traj.states]
    for a, b in zip(aug, aug[1:]):
        assert b <= a + 1e-12


def test_nudged_warns_on_loose_tolerance(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-4)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    with pytest.warns(UserWarning, match="loose relative to"):
        fp.relax_nudged(theta, x, y, 1e-3, s0, act, cfg)


def test_nudged_rejects_negative_beta(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig()
    with pytest.raises(ValueError, match="beta"):
        fp.relax_nudged(theta, x, y, -1e-3, shape.zero_state(), act, cfg)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -1e-3])
@pytest.mark.parametrize(
    "nudged",
    [
        lambda t, x, y, b, s, a: fp.relax_nudged(t, x, y, b, s, a, fp.RelaxationConfig()),
        lambda t, x, y, b, s, a: fp.nudged_path(t, x, y, b, s, a, 0.1, 3),
        lambda t, x, y, b, s, a: fp.grad_s_augmented(t, x, y, s, b, a),
        lambda t, x, y, b, s, a: fp.check_dbeta_energy_identity(t, x, y, b, a, fp.RelaxationConfig()),
    ],
    ids=["relax_nudged", "nudged_path", "grad_s_augmented", "dbeta_identity"],
)
def test_nudged_dynamics_reject_a_beta_not_finite_and_non_negative(seeded_net, nudged, beta):
    shape, theta, x, y, act = seeded_net
    with pytest.raises(ValueError, match=r"^beta must be finite and >= 0, got "):
        nudged(theta, x, y, beta, shape.zero_state(), act)


@pytest.mark.parametrize(
    "run",
    [
        lambda t, x, s, a: fp.relax_free(t, x, s, a, fp.RelaxationConfig()),
        lambda t, x, s, a: fp.free_path(t, x, s, a, 0.1, 3),
    ],
    ids=["relax", "path"],
)
def test_non_finite_start_state_diverges_at_step_zero(seeded_net, run):
    # before, relax returned an unconverged trajectory after 0 steps
    shape, theta, x, y, act = seeded_net
    start = shape.zero_state()
    start[1][0] = np.nan
    with pytest.raises(DivergenceError, match="non-finite state at step 0") as err:
        run(theta, x, start, act)
    assert err.value.step == 0


def test_divergence_guard_reports_step(seeded_net):
    shape, theta, x, y, act = seeded_net
    big = fp.RelaxationConfig(step_size=1e6, tolerance=1e-8, max_steps=5000)
    with pytest.raises(DivergenceError) as err:
        fp.relax_free(theta, x, [b + 1.0 for b in shape.zero_state()], act, big)
    assert err.value.step is not None and err.value.step >= 1
    assert str(err.value.step) in str(err.value)


def test_record_every_controls_snapshots(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-8, record_every=10)
    s, traj = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    spacing = np.diff(traj.times[:-1])
    assert np.allclose(spacing, cfg.step_size * cfg.record_every)
    assert traj.times[-1] == pytest.approx(traj.steps_taken * cfg.step_size)
    # endpoints-only mode
    cfg0 = fp.RelaxationConfig(tolerance=1e-8, record_every=0)
    _, traj0 = fp.relax_free(theta, x, shape.zero_state(), act, cfg0)
    assert len(traj0.states) == 2


def test_trajectory_csv_round_trip(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-6, record_every=25)
    s, traj = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    buf = io.StringIO()
    fp.write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,layer,index,value"
    dim = sum(shape.layer_dims)
    assert len(lines) == 1 + dim * len(traj.states)
    # values parse back to the recorded floats exactly
    t, layer, index, value = lines[1].split(",")
    assert float(t) == traj.times[0]
    assert float(value) == traj.states[0][int(layer)][int(index)]


# ---------------------------------------------------------------------------
# the flat integrators against the list-of-layers loops they replaced
# ---------------------------------------------------------------------------

def _reference_force(theta, x, act, y=None, beta=0.0):
    """dE/ds (plus the nudge when y is given), one array per layer."""
    rho_x = act.f(np.asarray(x, dtype=float))
    L = len(theta)

    def force(s):
        rho = [act.f(sk) for sk in s]
        g = []
        for k in range(L):
            a = theta[k] @ (rho[k + 1] if k < L - 1 else rho_x)
            if k > 0:
                a = a + theta[k - 1].T @ rho[k - 1]
            g.append(s[k] - act.df(s[k]) * a)
        if y is not None:
            g[0] = g[0] + beta * (s[0] - y)
        return g

    return force


def _reference_relax(force, s_init, cfg):
    """The list-of-layers Euler loop of `relax` before the flat state."""
    eps = cfg.step_size
    s = [np.array(b, dtype=float) for b in s_init]
    g = force(s)
    residual = max(float(np.max(np.abs(b))) for b in g)
    times, states = [0.0], [[b.copy() for b in s]]
    last_recorded = k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while residual > cfg.tolerance and k < cfg.max_steps:
            s = [sk - eps * gk for sk, gk in zip(s, g)]
            k += 1
            g = force(s)
            residual = max(float(np.max(np.abs(b))) for b in g)
            if not np.isfinite(residual):
                raise DivergenceError(f"non-finite state at step {k}", step=k)
            if cfg.record_every > 0 and k % cfg.record_every == 0:
                times.append(k * eps)
                states.append([b.copy() for b in s])
                last_recorded = k
    if k > last_recorded:
        times.append(k * eps)
        states.append([b.copy() for b in s])
    return s, fp.Trajectory(times, states, residual <= cfg.tolerance, k, residual)


def _reference_path(force, s_init, step_size, n_steps):
    s = [np.array(b, dtype=float) for b in s_init]
    out = [s]
    for _ in range(n_steps):
        s = [sk - step_size * gk for sk, gk in zip(s, force(s))]
        out.append(s)
    return out


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.float64 and a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _assert_same_relaxation(got, want):
    (s, traj), (s_ref, traj_ref) = got, want
    _assert_same_bits(s, s_ref)
    assert type(traj.steps_taken) is int and traj.steps_taken == traj_ref.steps_taken
    assert type(traj.final_residual) is float
    assert traj.final_residual == traj_ref.final_residual
    assert traj.converged is traj_ref.converged
    assert traj.times == traj_ref.times
    assert len(traj.states) == len(traj_ref.states)
    for snap, snap_ref in zip(traj.states, traj_ref.states):
        _assert_same_bits(snap, snap_ref)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
@pytest.mark.parametrize("record_every", [0, 1, 3])
@pytest.mark.parametrize("index", [0, 2, 4, 5])  # 2->[1], 2->[2,2,1], 4->[3,3,2], 3->[1,4]
def test_flat_relax_matches_list_reference_bit_for_bit(act, record_every, index):
    shape, theta, x, y = make_instance(index)
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-10, max_steps=2000,
                              record_every=record_every)
    # inside (0, 1), where the hard sigmoid is not flat
    start = random_state(shape, np.random.default_rng(index), 0.4)
    start = [0.5 + b for b in start]
    s0, traj = fp.relax_free(theta, x, start, act, cfg)
    _assert_same_relaxation((s0, traj), _reference_relax(_reference_force(theta, x, act), start, cfg))
    assert traj.steps_taken > 7
    beta = 0.5
    _assert_same_relaxation(
        fp.relax_nudged(theta, x, y, beta, s0, act, cfg),
        _reference_relax(_reference_force(theta, x, act, y, beta), s0, cfg),
    )
    # a relaxation cut at max_steps, ending between two recorded steps
    short = fp.RelaxationConfig(step_size=0.1, tolerance=1e-10, max_steps=7,
                                record_every=record_every)
    _assert_same_relaxation(
        fp.relax_free(theta, x, start, act, short),
        _reference_relax(_reference_force(theta, x, act), start, short),
    )


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
def test_flat_paths_match_list_reference_bit_for_bit(seeded_net, act):
    shape, theta, x, y, _ = seeded_net
    s = random_state(shape, np.random.default_rng(3))
    for got, want in zip(fp.free_path(theta, x, s, act, 0.1, 25),
                         _reference_path(_reference_force(theta, x, act), s, 0.1, 25)):
        _assert_same_bits(got, want)
    nudged = _reference_path(_reference_force(theta, x, act, y, 0.3), s, 0.1, 25)
    for got, want in zip(fp.nudged_path(theta, x, y, 0.3, s, act, 0.1, 25), nudged):
        _assert_same_bits(got, want)
    end = fp.dynamics.free_endpoint(theta, x, s, act, 0.1, 25)
    _assert_same_bits(end, _reference_path(_reference_force(theta, x, act), s, 0.1, 25)[-1])


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_flat_relax_diverges_at_the_reference_step(seeded_net, act):
    shape, theta, x, y, _ = seeded_net
    s_init = [b + 1.0 for b in shape.zero_state()]
    big = fp.RelaxationConfig(step_size=1e3, tolerance=1e-8, max_steps=5000)
    with pytest.raises(DivergenceError) as want:
        _reference_relax(_reference_force(theta, x, act), s_init, big)
    with pytest.raises(DivergenceError) as got:
        fp.relax_free(theta, x, s_init, act, big)
    assert got.value.step == want.value.step > 1


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_paths_diverge_at_the_reference_step_without_warnings(seeded_net, act):
    # a path and a relaxation share one Euler loop and one divergence rule;
    # overflow shows in the residual, never as a RuntimeWarning
    shape, theta, x, y, _ = seeded_net
    s_init = [b + 1.0 for b in shape.zero_state()]
    big = fp.RelaxationConfig(step_size=1e3, tolerance=1e-8, max_steps=5000)
    with pytest.raises(DivergenceError) as want:
        _reference_relax(_reference_force(theta, x, act), s_init, big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as got:
            fp.free_path(theta, x, s_init, act, 1e3, 5000)
    assert got.value.step == want.value.step > 1


def test_flows_leave_the_numpy_error_state_alone(seeded_net, tight_cfg):
    # the flows ignore overflow in their own context; a consumer between
    # two steps, and the caller after a flow is dropped, see its own state
    shape, theta, x, y, act = seeded_net
    outside = np.geterr()
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    force = fp.model.Force(theta, x, s0, act, y, 1e-3)
    flows = [fp.dynamics._flow(force, s0, 0.1, 5) for _ in range(2)]
    for _ in zip(*flows):
        assert np.geterr() == outside
    dropped = fp.dynamics._flow(force, s0, 0.1, 5)
    next(dropped)
    del dropped
    fp.beta_sweep(theta, x, y, [1e-3, 5e-4], 5, act, tight_cfg, s_free=s0)
    assert np.geterr() == outside


@pytest.mark.parametrize("record_every", [0, 1, 3])
def test_a_start_within_tolerance_is_certified_by_one_evaluation(seeded_net, tight_cfg, record_every, monkeypatch):
    # relax evaluates its start once.  Within tolerance, it returns what the
    # flow would without starting it; otherwise the flow takes that
    # evaluation as its first, so each state is evaluated once
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=tight_cfg.tolerance, record_every=record_every)
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    force = fp.model.Force(theta, x, s0, act)
    evaluations = []

    def counted(s):
        evaluations.append(1)
        return force(s)

    for start, flow in ((s0, None), (shape.zero_state(), fp.dynamics._flow)):
        evaluations.clear()
        monkeypatch.setattr(fp.dynamics, "_flow", flow)
        got = fp.relax(counted, start, cfg)
        assert len(evaluations) == got[1].steps_taken + 1
        _assert_same_relaxation(got, _reference_relax(_reference_force(theta, x, act), start, cfg))
    assert got[1].steps_taken > 0


def test_a_start_that_overflows_diverges_at_step_zero_without_warnings(seeded_net):
    shape, *_ = seeded_net

    def overflowing(s):
        return np.full_like(s, 1e308) * 10.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite state at step 0"):
            fp.relax(overflowing, shape.zero_state(), fp.RelaxationConfig())


def test_kept_states_are_distinct_arrays(seeded_net):
    # the flow updates one vector in place: the snapshots of a relaxation,
    # its final state and the states of a path are copies
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-8, max_steps=6, record_every=1)
    s, traj = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    paths = fp.free_path(theta, x, shape.zero_state(), act, 0.1, 6)
    for kept in (traj.states, paths):
        assert len(kept) == 7
        for a, b in zip(kept, kept[1:]):
            assert not np.shares_memory(a[0], b[0])
            assert not np.array_equal(a[0], b[0])
    assert not np.shares_memory(s[0], traj.states[-1][0])
    _assert_same_bits(s, traj.states[-1])
    _assert_same_bits(paths[-1], s)


def _stack_of(s, width):
    return [np.repeat(sk[:, None], width, axis=1) for sk in s]


def test_stacked_columns_stop_at_their_serial_step_counts(seeded_net, tight_cfg):
    # one beta per column, each column to its own tolerance
    shape, theta, x, y, act = seeded_net
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    betas, tolerances = [1e-3, 1e-4, 1e-2], [1e-12, 1e-9, 1e-6]
    stack = _stack_of(s0, 3)
    force = fp.model.Force(theta, x, stack, act, y, betas)
    ends, steps = fp.dynamics.relax_columns(force, stack, tight_cfg, "nudged phase", tolerances)
    assert ends.shape == (sum(shape.layer_dims), 3)
    for j, (beta, tol) in enumerate(zip(betas, tolerances)):
        cfg = fp.RelaxationConfig(tolerance=tol)
        s, traj = fp.relax_nudged(theta, x, y, beta, s0, act, cfg)
        assert steps[j] == traj.steps_taken > 0
        assert np.max(np.abs(ends[:, j] - fp.model.flatten(s))) <= 1e-12


def test_an_unconverged_stack_names_a_moving_column(seeded_net, tight_cfg):
    shape, theta, x, y, act = seeded_net
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    stack = _stack_of(s0, 2)
    force = fp.model.Force(theta, x, stack, act, y, [1e-3, 1e-3])
    short = fp.RelaxationConfig(tolerance=1e-12, max_steps=5)
    with pytest.raises(ConvergenceError) as e:
        # the first column is settled at 1, the second moves at 1e-12
        fp.dynamics.relax_columns(force, stack, short, "nudged phase", [1.0, 1e-12])
    assert re.fullmatch(
        r"nudged phase did not converge within 5 steps \(residual \S+ > tolerance 1e-12\)",
        str(e.value),
    ), str(e.value)


def _poisoned(force, at, column=None):
    """force, with a NaN in its result at its evaluation number `at` (in
    `column` of a stack)."""
    calls = []

    def poisoned(s):
        g = force(s)
        calls.append(1)
        if len(calls) == at + 1:
            g[(..., column) if column is not None else 0] = np.nan
        return g

    return poisoned


@pytest.mark.parametrize("step", [0, 1, 7])
def test_a_nan_force_diverges_at_its_step(seeded_net, tight_cfg, step):
    shape, theta, x, y, act = seeded_net
    one = _poisoned(fp.model.Force(theta, x, shape.zero_state(), act), step)
    with pytest.raises(DivergenceError, match=f"at step {step}") as err:
        fp.dynamics.relax(one, shape.zero_state(), tight_cfg)
    assert err.value.step == step
    stack = _stack_of(shape.zero_state(), 3)
    many = _poisoned(fp.model.Force(theta, x, stack, act), step, column=1)
    with pytest.raises(DivergenceError, match=f"at step {step}") as err:
        fp.dynamics.relax_columns(many, stack, tight_cfg, "stack")
    assert err.value.step == step


def _reference_relax_columns(force, stack, cfg, tolerance):
    """`relax_columns` as a plain loop that writes the freeze masks at
    every step: the flat endpoint and each column's step count."""
    s = fp.model.flatten(stack)
    steps = np.zeros(s.shape[1], dtype=int)
    for _ in range(cfg.max_steps + 1):
        g = force(s)
        col = np.max(np.abs(g), axis=0)
        done = col <= tolerance
        g[:, done] = col[done] = 0.0
        steps += col > 0.0
        if not col.max():
            return s, steps
        s -= cfg.step_size * g
    raise AssertionError("the reference stack did not settle")


def test_stacked_columns_match_a_loop_that_writes_the_masks_every_step(seeded_net, tight_cfg):
    # four columns frozen at four different steps, the last at step 0
    shape, theta, x, y, act = seeded_net
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    betas, tolerances = [1e-3, 1e-4, 1e-2, 1e-2], np.array([1e-12, 1e-9, 1e-6, 1.0])
    stack = _stack_of(s0, 4)
    ends, steps = fp.dynamics.relax_columns(
        fp.model.Force(theta, x, stack, act, y, betas), stack, tight_cfg, "nudged phase", tolerances
    )
    ref, ref_steps = _reference_relax_columns(
        fp.model.Force(theta, x, stack, act, y, betas), stack, tight_cfg, tolerances
    )
    assert steps[3] == 0 and len(set(steps.tolist())) == 4
    np.testing.assert_array_equal(steps, ref_steps)
    np.testing.assert_array_equal(ends.view(np.int64), ref.view(np.int64))


def _flow_residuals(monkeypatch):
    """The residuals `relax_columns`' flow yields, recorded as they pass."""
    seen, flow = [], fp.dynamics._flow

    def recorded(*args, **kwargs):
        for point in flow(*args, **kwargs):
            seen.append((point[1].copy(), point[2]))
            yield point

    monkeypatch.setattr(fp.dynamics, "_flow", recorded)
    return seen


def test_the_stacked_flow_residual_is_the_max_over_moving_columns(monkeypatch):
    # g = rate * s per column: column j shrinks by (1 - eps * rate_j) a
    # step, so the three columns freeze at three different steps, after
    # which the residual is exactly 0.0
    seen = _flow_residuals(monkeypatch)
    rates = np.array([1.0, 2.0, 4.0])
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-3)
    stack = [np.array([[1.0, -2.0, 0.5], [-0.25, 1.0, -3.0]]), np.array([[0.5, 0.0, -1.0]])]
    ends, steps = fp.dynamics.relax_columns(lambda s: s * rates, stack, cfg, "stack")
    assert len(set(steps.tolist())) == 3
    residuals = [r for _, r in seen]
    assert all(type(r) is float for r in residuals)
    assert residuals[-1] == 0.0 and all(residuals[:-1])
    for k, (g, r) in enumerate(seen):
        moving = g[:, steps > k]  # frozen columns were zeroed by the flow's hook
        assert np.float64(r).tobytes() == np.max(np.abs(moving), initial=0.0).tobytes()


@pytest.mark.parametrize("column", [0, 2])
def test_a_nan_column_diverges_though_the_others_are_frozen(column):
    # the other columns are within tolerance at step 0 and freeze there
    stack = [np.zeros((2, 3)), np.zeros((1, 3))]
    stack[1][0, column] = np.nan
    cfg = fp.RelaxationConfig(tolerance=1e-3)
    with pytest.raises(DivergenceError, match="non-finite state at step 0") as err:
        fp.dynamics.relax_columns(lambda s: 2.0 * s, stack, cfg, "stack")
    assert err.value.step == 0


def test_nudged_warns_only_past_beta_times_1e_3(seeded_net):
    shape, theta, x, y, act = seeded_net
    beta = 1e-3
    s0, _ = fp.relax_free(theta, x, shape.zero_state(), act, fp.RelaxationConfig(tolerance=1e-12))
    at = fp.RelaxationConfig(tolerance=beta * 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fp.relax_nudged(theta, x, y, beta, s0, act, at)
    above = fp.RelaxationConfig(tolerance=float(np.nextafter(at.tolerance, np.inf)))
    with pytest.warns(UserWarning, match="loose relative to"):
        fp.relax_nudged(theta, x, y, beta, s0, act, above)


# g = s with powers of two: every Euler step of size 1/2 halves s exactly
_TOL = 2.0 ** -20


def test_a_start_whose_residual_equals_the_tolerance_is_certified_in_zero_steps():
    cfg = fp.RelaxationConfig(step_size=0.5, tolerance=_TOL)
    s, traj = fp.dynamics.relax(lambda s: 1.0 * s, [np.array([_TOL, -_TOL / 2])], cfg)
    assert traj.converged and traj.steps_taken == 0 and traj.final_residual == _TOL
    assert traj.times == [0.0] and s[0].tolist() == [_TOL, -_TOL / 2]
    # a flow whose residual reaches the tolerance exactly stops at that step
    s, traj = fp.dynamics.relax(lambda s: 1.0 * s, [np.array([2 * _TOL])], cfg)
    assert traj.converged and traj.steps_taken == 1 and s[0].tolist() == [_TOL]


def test_a_column_whose_residual_equals_its_tolerance_freezes_at_step_0():
    cfg = fp.RelaxationConfig(step_size=0.5, tolerance=_TOL)
    stack = [np.array([[_TOL, 2 * _TOL], [-_TOL / 2, _TOL]])]
    ends, steps = fp.dynamics.relax_columns(lambda s: 1.0 * s, stack, cfg, "stack")
    assert steps.tolist() == [0, 1]
    assert ends.tolist() == [[_TOL, _TOL], [-_TOL / 2, _TOL / 2]]


# ---------------------------------------------------------------------------
# chord steps before the column-freezing flow
# ---------------------------------------------------------------------------

def _nudged_stack(index, act, betas=(1e-3, 2e-4, 1e-4)):
    """A nudged stack at the free fixed point of instance `index`, its
    force, that point's d2E/ds2 from `fd_hessian` and its dense λ_min."""
    shape, theta, x, y = make_instance(index)
    s_free = fp.eqprop._free_fixed_point(theta, x, act, fp.RelaxationConfig(tolerance=1e-14))
    stack = _stack_of(s_free, len(betas))
    force = fp.model.Force(theta, x, stack, act, y, list(betas))
    lam = np.linalg.eigvalsh(dense_hessian(fp.model.CurvatureOps(theta, x, s_free, act)))[0]
    return stack, force, fp.dynamics.fd_hessian(theta, x, s_free, act), lam


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_chord_endpoints_lie_within_tol_over_lambda_min_of_a_long_euler_run(index, act):
    # every column is settled by the chord, at step 0
    stack, force, hessian, lam = _nudged_stack(index, act)
    tol = 1e-12
    ends, steps = fp.dynamics.relax_columns(force, stack, fp.RelaxationConfig(tolerance=tol), "stack",
                                            hessian=hessian)
    long, _ = fp.dynamics.relax_columns(force, stack, fp.RelaxationConfig(tolerance=1e-14), "stack")
    assert steps.tolist() == [0, 0, 0]
    assert np.abs(ends - long).max() <= tol / lam


@pytest.mark.parametrize("bad", ["indefinite", "nan", "too-stiff"])
@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_a_refused_hessian_or_a_chord_step_that_does_not_halve_leaves_the_stack_to_euler(act, bad, tight_cfg):
    # "too-stiff", 4 H: the first chord step leaves 3/4 of the residual, is
    # dropped, and Euler starts from the stack as given; under a cap, the
    # same holds for the message
    stack, force, hessian, _ = _nudged_stack(4, act)
    if bad == "indefinite":
        hessian = hessian - (np.linalg.eigvalsh(hessian)[0] + 0.1) * np.eye(len(hessian))
    elif bad == "nan":
        hessian = hessian.copy()
        hessian[-1, -1] = np.nan
    else:
        hessian = 4.0 * hessian
    chords = []
    chord = fp.dynamics._chord

    def counted(*args):
        chords.append(1)
        return chord(*args)

    plain = fp.dynamics.relax_columns(force, stack, tight_cfg, "stack")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp.dynamics, "_chord", counted)
        got = fp.dynamics.relax_columns(force, stack, tight_cfg, "stack", hessian=hessian)
    assert len(chords) == (bad == "too-stiff")
    assert plain[1].tolist() == got[1].tolist() and min(got[1]) > 0
    assert plain[0].tobytes() == got[0].tobytes()
    short = dataclasses.replace(tight_cfg, max_steps=5)
    messages = []
    for h in (None, hessian):
        with pytest.raises(ConvergenceError) as e:
            fp.dynamics.relax_columns(force, stack, short, "stack", hessian=h)
        messages.append(str(e.value))
    assert messages[0] == messages[1]


def test_a_stack_within_tolerance_takes_no_chord_step(tight_cfg):
    # the chord's start is certified as `relax` certifies one: in one
    # evaluation, the stack coming back as it was
    stack, force, hessian, _ = _nudged_stack(4, fp.TANH)
    ends, steps = fp.dynamics.relax_columns(force, stack, fp.RelaxationConfig(tolerance=1.0), "stack",
                                            hessian=hessian)
    assert steps.tolist() == [0, 0, 0]
    assert ends.tobytes() == fp.model.flatten(stack).tobytes()


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_the_fd_hessian_is_the_closed_form_curvature(index, act):
    # central differences of the force, h = 1e-5, against `apply_ss`
    shape, theta, x, _ = make_instance(index)
    s = random_state(shape, np.random.default_rng(index))
    h = fp.dynamics.fd_hessian(theta, x, s, act)
    exact = dense_hessian(fp.model.CurvatureOps(theta, x, s, act))
    assert h.tobytes() == h.T.tobytes()
    assert np.abs(h - exact).max() <= 1e-8 * max(1.0, np.abs(exact).max())
