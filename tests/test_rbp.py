"""Error-derivative side process: initial conditions, updates, gradient limit."""

import dataclasses
from itertools import islice

import numpy as np
import pytest

import fpgrad as fp
from fpgrad.exceptions import (
    ConvergenceError,
    DivergenceError,
    InstabilityError,
    NotAtFixedPointError,
)

from conftest import SHAPE_POOL, make_instance, random_state


@pytest.fixture
def converged(seeded_net, tight_cfg):
    shape, theta, x, y, act = seeded_net
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    assert traj.converged
    return shape, theta, x, y, act, s0, tight_cfg


def test_init_zero_when_output_matches_target(converged):
    shape, theta, x, y, act, s0, cfg = converged
    p = fp.rbp_init(theta, x, s0[0].copy(), s0, act, cfg.tolerance)
    for b in p.s_bar:
        np.testing.assert_array_equal(b, 0.0)
    for b in p.theta_bar:
        np.testing.assert_array_equal(b, 0.0)
    assert p.t == 0.0


def test_init_sets_cost_gradient(converged):
    shape, theta, x, y, act, s0, cfg = converged
    p = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    np.testing.assert_array_equal(p.s_bar[0], s0[0] - y)
    for b in p.s_bar[1:]:
        np.testing.assert_array_equal(b, 0.0)
    for b in p.theta_bar:
        np.testing.assert_array_equal(b, 0.0)


def test_init_rejects_non_fixed_point(converged):
    shape, theta, x, y, act, s0, cfg = converged
    rng = np.random.default_rng(3)
    with pytest.raises(NotAtFixedPointError):
        fp.rbp_init(theta, x, y, random_state(shape, rng), act, cfg.tolerance)


def test_side_process_checks_its_start_with_its_curvatures_residual(converged, monkeypatch):
    # `SideProcess.at` reads the residual of its `CurvatureOps` evaluation:
    # one force per start, and `rbp_init`'s verdict and message
    shape, theta, x, y, act, s0, cfg = converged
    builds = []
    init = fp.model.Force.__init__

    def counted(self, *args, **kwargs):
        builds.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fp.model.Force, "__init__", counted)
    side = fp.rbp.SideProcess.at(theta, x, y, s0, act, cfg.tolerance)
    assert builds == ["CurvatureOps"]
    p = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    np.testing.assert_array_equal(side.s_bar_0, fp.model.flatten(p.s_bar))
    off = random_state(shape, np.random.default_rng(3))
    nan = [sk.copy() for sk in s0]
    nan[1][0] = np.nan
    for s in (off, nan):
        with pytest.raises(NotAtFixedPointError) as want:
            fp.rbp_init(theta, x, y, s, act, cfg.tolerance)
        with pytest.raises(NotAtFixedPointError) as got:
            fp.rbp.SideProcess.at(theta, x, y, s, act, cfg.tolerance)
        assert str(got.value) == str(want.value)


def test_init_rejects_a_state_with_a_nan_component(converged):
    # a NaN residual must fail the fixed-point check, not slip past it
    shape, theta, x, y, act, s0, cfg = converged
    s = [sk.copy() for sk in s0]
    s[1][0] = np.nan
    with pytest.raises(NotAtFixedPointError, match="nan"):
        fp.rbp_init(theta, x, y, s, act, cfg.tolerance)
    with pytest.raises(NotAtFixedPointError):
        fp.rbp_gradient(theta, x, y, act, cfg, s_free=s)


def test_step_stationary_at_zero(converged):
    shape, theta, x, y, act, s0, cfg = converged
    p = fp.rbp_init(theta, x, s0[0].copy(), s0, act, cfg.tolerance)
    for _ in range(5):
        p = fp.rbp_step(p, theta, x, s0, act, 0.1)
    for b in p.s_bar:
        np.testing.assert_array_equal(b, 0.0)
    for b in p.theta_bar:
        np.testing.assert_array_equal(b, 0.0)


def test_step_zero_weights_closed_form():
    # identity Hessian: s_bar contracts by (1 - eps) each step
    shape = fp.NetworkShape(1, (1,))
    theta = [np.zeros((1, 1))]
    x = np.zeros(1)
    y = np.array([0.75])
    s0 = shape.zero_state()
    eps = 0.1
    p = fp.rbp_init(theta, x, y, s0, act := fp.LOGISTIC, 1e-12)
    expected = s0[0] - y
    for k in range(1, 21):
        p = fp.rbp_step(p, theta, x, s0, act, eps)
        np.testing.assert_allclose(p.s_bar[0], (1 - eps) ** k * expected, rtol=1e-12)
    # theta_bar accumulates the closed-form mixed product of each step
    acc = np.zeros((1, 1))
    sb = s0[0] - y
    for _ in range(20):
        h = fp.hvp_theta_s(theta, x, s0, [sb], act)
        acc = acc - eps * h[0]
        sb = (1 - eps) * sb
    np.testing.assert_allclose(p.theta_bar[0], acc, rtol=1e-12)


def test_step_matches_hand_composed_hvps(converged):
    shape, theta, x, y, act, s0, cfg = converged
    p = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    eps = 0.1
    q = fp.rbp_step(p, theta, x, s0, act, eps)
    h_ss = fp.fd_hvp_ss(theta, x, s0, p.s_bar, act)
    h_ts = fp.fd_hvp_theta_s(theta, x, s0, p.s_bar, act)
    want_s = [sb - eps * hb for sb, hb in zip(p.s_bar, h_ss)]
    want_t = [tb - eps * hb for tb, hb in zip(p.theta_bar, h_ts)]
    # FD oracles are exact to ~1e-10 here; the composed update must agree
    for a, b in zip(q.s_bar, want_s):
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)
    for a, b in zip(q.theta_bar, want_t):
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)
    # and against the analytic hvps the composition is exact to rounding
    want_exact_s = [
        sb - eps * hb for sb, hb in zip(p.s_bar, fp.hvp_ss(theta, x, s0, p.s_bar, act))
    ]
    for a, b in zip(q.s_bar, want_exact_s):
        np.testing.assert_allclose(a, b, rtol=1e-12)
    assert q.t == pytest.approx(eps)


def test_gradient_zero_for_perfect_prediction(converged):
    shape, theta, x, y, act, s0, cfg = converged
    est = fp.rbp_gradient(theta, x, s0[0].copy(), act, cfg)
    for b in est.grad:
        np.testing.assert_array_equal(b, 0.0)
    assert est.method == "rbp" and est.beta is None


def test_gradient_matches_fd_oracle(converged):
    shape, theta, x, y, act, s0, cfg = converged
    est = fp.rbp_gradient(theta, x, y, act, cfg)
    ref = fp.fd_objective_gradient(theta, x, y, act, cfg)
    for a, b in zip(est.grad, ref.grad):
        err = np.abs(a - b)
        assert np.all(err <= np.maximum(1e-3 * np.abs(b), 1e-7))


def test_gradient_correctness_twenty_instances(tight_cfg):
    for i in range(20):
        shape, theta, x, y = make_instance(i)
        est = fp.rbp_gradient(theta, x, y, fp.LOGISTIC, tight_cfg)
        ref = fp.fd_objective_gradient(theta, x, y, fp.LOGISTIC, tight_cfg)
        for a, b in zip(est.grad, ref.grad):
            err = np.abs(a - b)
            assert np.all(err <= np.maximum(1e-3 * np.abs(b), 1e-7)), f"instance {i}"


def test_longer_horizon_changes_nothing_after_decay(converged):
    shape, theta, x, y, act, s0, cfg = converged
    import dataclasses

    cfg10 = dataclasses.replace(cfg, tolerance=1e-10)
    est = fp.rbp_gradient(theta, x, y, act, cfg10, s_free=s0)
    # continue the process for twice the horizon by hand
    from fpgrad.equivalence import error_process_path

    steps = round(est.horizon_t / cfg.step_size)
    _, theta_bars = error_process_path(
        theta, x, y, s0, act, cfg.step_size, 2 * steps, cfg.tolerance
    )
    drift = max(
        np.max(np.abs(a - b)) for a, b in zip(est.grad, theta_bars[2 * steps])
    )
    assert drift <= 1e-9


def test_norm_decays_monotonically_after_warmup(converged):
    shape, theta, x, y, act, s0, cfg = converged
    record = []
    fp.rbp_gradient(theta, x, y, act, cfg, s_free=s0, record=record)
    norms = [r[1] for r in record]
    for a, b in zip(norms[10:], norms[11:]):
        assert b <= a + 1e-12
    assert norms[-1] <= cfg.tolerance


def test_process_is_linear_in_cost_discrepancy(converged):
    # replacing y by s0 + c*(y - s0) scales the whole process by c
    shape, theta, x, y, act, s0, cfg = converged
    c = 3.5
    y_scaled = s0[0] + c * (y - s0[0])
    from fpgrad.equivalence import error_process_path

    sb1, tb1 = error_process_path(theta, x, y, s0, act, 0.1, 50, cfg.tolerance)
    sb2, tb2 = error_process_path(theta, x, y_scaled, s0, act, 0.1, 50, cfg.tolerance)
    for k in range(51):
        for a, b in zip(sb2[k], sb1[k]):
            np.testing.assert_allclose(a, c * b, rtol=1e-12, atol=1e-15)
        for a, b in zip(tb2[k], tb1[k]):
            np.testing.assert_allclose(a, c * b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_neumann_theta_bar_matches_stepwise_accumulation(act, tight_cfg):
    # theta_bar_0 - eps * J(sum of past s_bar), formed only where it is
    # read, is the step-by-step theta_bar sum of rbp_step up to rounding
    from fpgrad.equivalence import error_process_path

    shape = fp.NetworkShape(3, (2, 4, 3))
    theta, x, y = fp.random_instance(shape, 11)
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, tight_cfg)
    assert traj.converged
    K = 200
    s_bars, theta_bars = error_process_path(
        theta, x, y, s0, act, tight_cfg.step_size, K, tight_cfg.tolerance
    )
    p = fp.rbp_init(theta, x, y, s0, act, tight_cfg.tolerance)
    for k in range(K + 1):
        for a, b in zip(s_bars[k], p.s_bar):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(theta_bars[k], p.theta_bar):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        p = fp.rbp_step(p, theta, x, s0, act, tight_cfg.step_size)


def test_instability_error_for_oversized_step(converged):
    shape, theta, x, y, act, s0, cfg = converged
    import dataclasses

    bad = dataclasses.replace(cfg, step_size=25.0)
    with pytest.raises(InstabilityError):
        fp.rbp_gradient(theta, x, y, act, bad, s_free=s0)


def test_side_process_cut_at_max_steps_raises(converged):
    shape, theta, x, y, act, s0, cfg = converged
    import dataclasses

    short = dataclasses.replace(cfg, max_steps=3)
    with pytest.raises(ConvergenceError, match="side process did not converge within 3 steps"):
        fp.rbp_gradient(theta, x, y, act, short, s_free=s0)


def test_non_finite_initial_s_bar_raises(converged):
    # a NaN target makes s_bar_0 NaN; the gradient must not come back as
    # the zero theta_bar_0
    shape, theta, x, y, act, s0, cfg = converged
    with pytest.raises(DivergenceError, match="non-finite side process at t=0.0"):
        fp.rbp_gradient(theta, x, np.full_like(y, np.nan), act, cfg, s_free=s0)


@pytest.mark.parametrize("member", ["s_bar", "theta_bar"])
def test_step_raises_on_a_non_finite_result(converged, member):
    # a non-finite theta_bar with a finite s_bar must raise too
    shape, theta, x, y, act, s0, cfg = converged
    p = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    getattr(p, member)[-1][...] = np.nan
    with pytest.raises(DivergenceError, match="non-finite side process at t="):
        fp.rbp_step(p, theta, x, s0, act, cfg.step_size)


def test_step_leaves_its_input_unchanged(converged):
    shape, theta, x, y, act, s0, cfg = converged
    p = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    before = [b.copy() for b in p.s_bar + p.theta_bar]
    q = fp.rbp_step(p, theta, x, s0, act, cfg.step_size)
    for a, b in zip(p.s_bar + p.theta_bar, before):
        np.testing.assert_array_equal(a, b)
    assert p.t == 0.0 and q.t == cfg.step_size
    assert not np.array_equal(q.s_bar[0], p.s_bar[0])


def _per_block_apply_ss(ops, v):
    """(d2E/ds2) . v as a loop over the weight blocks: each coupling term
    is subtracted from its layer's slice in turn, every W_k (d1 v)_{k+1}
    first, then every W_k^T (d1 v)_k."""
    rows = [slice(a, b) for a, b in zip(ops.bounds, ops.bounds[1:])]
    h = v - ops.d2_drive * v
    dv = np.multiply(ops.slopes, v, out=np.empty_like(v))
    inner = list(enumerate(ops.theta[:-1]))
    for k, w in inner:
        hk = h[rows[k]]
        hk -= ops.slopes[rows[k]] * (w @ dv[rows[k + 1]])
    for k, w in inner:
        hk = h[rows[k + 1]]
        hk -= ops.slopes[rows[k + 1]] * (w.T @ dv[rows[k]])
    return h


def _assert_rbp_gradient_is_the_per_block_one_bit_for_bit(theta, x, y, act, cfg, monkeypatch):
    est = fp.rbp_gradient(theta, x, y, act, cfg)
    monkeypatch.setattr(fp.model.CurvatureOps, "apply_ss", _per_block_apply_ss)
    ref = fp.rbp_gradient(theta, x, y, act, cfg)
    assert est.horizon_t == ref.horizon_t > 0
    for a, b in zip(est.grad, ref.grad):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_rbp_gradient_equals_the_per_block_curvature_product_bit_for_bit(
    act, index, tight_cfg, monkeypatch
):
    # the pool's states are within the dense bound: with the bound at 0,
    # their side processes step on `apply_ss`, which is pinned here
    monkeypatch.setattr(fp.rbp, "_DENSE_STATES", 0)
    _assert_rbp_gradient_is_the_per_block_one_bit_for_bit(*make_instance(index)[1:], act, tight_cfg, monkeypatch)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_rbp_gradient_above_the_dense_bound_equals_the_per_block_curvature_product_bit_for_bit(
    act, tight_cfg, monkeypatch
):
    half = fp.rbp._DENSE_STATES // 2
    shape = fp.NetworkShape(8, (4, half, half))
    assert sum(shape.layer_dims) > fp.rbp._DENSE_STATES
    _assert_rbp_gradient_is_the_per_block_one_bit_for_bit(*fp.random_instance(shape, 0), act, tight_cfg, monkeypatch)


def _count_products(monkeypatch):
    """The names of the `CurvatureOps` product methods, one per call from now on."""
    calls = []
    for name in ("apply_ss", "dense_ss"):
        method = getattr(fp.model.CurvatureOps, name)
        monkeypatch.setattr(fp.model.CurvatureOps, name,
                            lambda self, *v, _m=method, _n=name: calls.append(_n) or _m(self, *v))
    return calls


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_rbp_gradient_below_the_dense_bound_makes_no_apply_ss_call(act, index, tight_cfg, monkeypatch):
    shape, theta, x, y = make_instance(index)
    s0 = fp.eqprop._free_fixed_point(theta, x, act, tight_cfg)
    calls = _count_products(monkeypatch)
    assert fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0).horizon_t > 0
    assert calls == ["dense_ss"]


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_the_state_count_selects_the_side_process_product(act, tight_cfg, monkeypatch):
    # at the bound rbp reads the side process off one dense Hessian, with
    # no `apply_ss`; one state more, it builds none and steps on one
    # `apply_ss` per grid point
    bound = fp.rbp._DENSE_STATES
    instances = []
    for states in (bound, bound + 1):
        theta, x, y = fp.random_instance(fp.NetworkShape(3, (2, states - 2)), 0)
        instances.append((theta, x, y, fp.eqprop._free_fixed_point(theta, x, act, tight_cfg)))
    calls = _count_products(monkeypatch)
    for (theta, x, y, s0), dense in zip(instances, (True, False)):
        est = fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0)
        steps = round(est.horizon_t / tight_cfg.step_size)
        assert steps > 0
        assert calls == (["dense_ss"] if dense else ["apply_ss"] * (steps + 1))
        calls.clear()


def _stepwise(apply_ss, s_bar, eps):
    """The side process as a hand-written Euler step, outside
    `dynamics._flow`: yields (s_bar_k, S_k) for k = 0, 1, ..., with
    s_bar <- s_bar - eps * (d2E/ds2) . s_bar and S_k summed beside it."""
    eps0, s_sum = np.array(eps, dtype=float), np.zeros_like(s_bar)
    while True:
        yield s_bar, s_sum
        h = apply_ss(s_bar)
        s_sum += s_bar
        s_bar = s_bar - eps0 * h


def _neumann_theta_bar(ops, theta_bar_0, s_sum, eps):
    """theta_bar_0 - eps * J(S_k), J the mixed product at the frozen point."""
    return [t0 - eps * j for t0, j in zip(theta_bar_0, ops.apply_theta_s(fp.model.split(s_sum, ops.bounds)))]


def _bits(blocks):
    return [b.tobytes() for b in blocks]


def _stepwise_estimate(ops, p0, cfg):
    """(steps, theta_bar) of the side process stepped by `_stepwise` on
    `apply_ss` until ||s_bar||_inf is within cfg.tolerance."""
    for steps, (s_bar, s_sum) in enumerate(_stepwise(ops.apply_ss, fp.model.flatten(p0.s_bar), cfg.step_size)):
        if np.abs(s_bar).max() <= cfg.tolerance:
            return steps, _neumann_theta_bar(ops, p0.theta_bar, s_sum, cfg.step_size)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_every_side_process_path_is_the_stepwise_recursion_bit_for_bit(act, index, tight_cfg, monkeypatch):
    # every flow of a side process steps on `apply_ss`, and so does
    # rbp_gradient with the dense bound at 0
    from fpgrad.equivalence import error_process_path, truncation_correspondence

    shape, theta, x, y = make_instance(index)
    beta, K, eps, tol = 1e-3, 40, tight_cfg.step_size, tight_cfg.tolerance
    # tight_cfg's tolerance is below beta * 1e-3: the second phase's free point is rbp's
    _, _, s0 = fp.eqprop.second_phase(theta, x, act, tight_cfg, [beta])
    p0 = fp.rbp_init(theta, x, y, s0, act, tol)
    ops = fp.model.CurvatureOps(theta, x, s0, act)
    apply_ss = ops.apply_ss

    steps, theta_bar = _stepwise_estimate(ops, p0, tight_cfg)
    monkeypatch.setattr(fp.rbp, "_DENSE_STATES", 0)
    est = fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0)
    assert est.horizon_t == steps * eps
    assert _bits(est.grad) == _bits(theta_bar)

    s_bars, theta_bars = error_process_path(theta, x, y, s0, act, eps, K, tol)
    assert len(s_bars) == len(theta_bars) == K + 1
    for k, (s_bar, s_sum) in zip(range(K + 1), _stepwise(apply_ss, fp.model.flatten(p0.s_bar), eps)):
        assert fp.model.flatten(s_bars[k]).tobytes() == s_bar.tobytes()
        assert _bits(theta_bars[k]) == _bits(_neumann_theta_bar(ops, p0.theta_bar, s_sum, eps))

    truncated = fp.truncated_eqprop_gradient(theta, x, y, beta, K, act, tight_cfg, s0).grad
    theta_bar = theta_bars[K]
    gap = fp.model.inf_norm([a - b for a, b in zip(truncated, theta_bar)]) / (1.0 + fp.model.inf_norm(theta_bar))
    assert truncation_correspondence(theta, x, y, beta, K, act, tight_cfg) == gap

    p = p0
    for _ in range(3):
        _, (s_bar, s_sum) = islice(_stepwise(apply_ss, fp.model.flatten(p.s_bar), eps), 2)
        want = (s_bar.tobytes(), _bits(_neumann_theta_bar(ops, p.theta_bar, s_sum, eps)), p.t + eps)
        p = fp.rbp_step(p, theta, x, s0, act, eps)
        assert (fp.model.flatten(p.s_bar).tobytes(), _bits(p.theta_bar), p.t) == want


def test_instability_is_declared_after_exactly_the_patience(converged):
    shape, theta, x, y, act, s0, cfg = converged
    import dataclasses

    bad = dataclasses.replace(cfg, step_size=25.0)
    patience = fp.rbp._INSTABILITY_PATIENCE
    with pytest.raises(InstabilityError, match=f"grew for {patience} consecutive steps"):
        fp.rbp_gradient(theta, x, y, act, bad, s_free=s0)


# below the dense bound rbp reads the side process off one eigendecomposition
# of the Hessian, which rounds differently from stepping it: its gradients
# must stay within this share of their largest entry (measured: at most
# 3.3e-14, on 552 instances of up to 124 states)
_SPECTRAL_RTOL = 1e-12


def _assert_close_to_largest_entry(got, want):
    scale = max(np.abs(b).max() for b in want)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= _SPECTRAL_RTOL * scale


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_the_spectral_side_process_is_the_stepwise_recursion_to_rounding(act, index, tight_cfg, monkeypatch):
    shape, theta, x, y = make_instance(index)
    s0 = fp.eqprop._free_fixed_point(theta, x, act, tight_cfg)
    assert sum(shape.layer_dims) <= fp.rbp._DENSE_STATES
    steps, theta_bar = _stepwise_estimate(fp.model.CurvatureOps(theta, x, s0, act),
                                          fp.rbp_init(theta, x, y, s0, act, tight_cfg.tolerance), tight_cfg)
    record = []
    est = fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0, record=record)
    assert est.horizon_t == steps * tight_cfg.step_size > 0
    _assert_close_to_largest_entry(est.grad, theta_bar)

    # the decay record: the same times, and norms and theta_bar changes to rounding
    monkeypatch.setattr(fp.rbp, "_DENSE_STATES", 0)
    stepped = []
    fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0, record=stepped)
    assert [r[0] for r in record] == [r[0] for r in stepped] and len(record) == steps
    for column in (1, 2):
        got, want = (np.array([r[column] for r in rec]) for rec in (record, stepped))
        assert np.abs(got - want).max() <= 1e-13 * want.max()


def test_a_side_process_that_stops_on_a_block_edge(tight_cfg):
    # a stiff tanh instance (lambda_min 0.28) whose side process runs for
    # many blocks: with the tolerance at the norm of a block's first step,
    # it stops there, and S_K holds the steps of the blocks before it only
    block, act = fp.rbp._BLOCK, fp.TANH
    shape, theta, x, y = make_instance(2)
    s0 = fp.eqprop._free_fixed_point(theta, x, act, tight_cfg)
    record = []
    natural = round(fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0, record=record).horizon_t
                    / tight_cfg.step_size)
    edge = natural // block * block
    assert edge >= 4 * block and edge < natural
    cfg = dataclasses.replace(tight_cfg, tolerance=record[edge - 1][1])  # the norm at step `edge`
    est = fp.rbp_gradient(theta, x, y, act, cfg, s_free=s0)
    assert est.horizon_t == edge * cfg.step_size
    ops = fp.model.CurvatureOps(theta, x, s0, act)
    p0 = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    steps = _stepwise(ops.apply_ss, fp.model.flatten(p0.s_bar), cfg.step_size)
    s_sum = next(islice(steps, edge, None))[1]
    _assert_close_to_largest_entry(est.grad, _neumann_theta_bar(ops, p0.theta_bar, s_sum, cfg.step_size))


def test_a_side_process_that_starts_within_tolerance_returns_its_start(converged):
    # XOR's (0, 0) sample under tanh: the zero state is the free point and
    # its output is the target, so s_bar_0 = 0; and a start with a nonzero
    # s_bar_0 within tolerance: both stop at step 0 with theta_bar_0
    shape = fp.NetworkShape(2, (1, 4))
    theta, x, y = fp.init_params(shape, 0), np.zeros(2), np.zeros(1)
    cfg = fp.RelaxationConfig(step_size=0.25, tolerance=1e-6)
    est = fp.rbp_gradient(theta, x, y, fp.TANH, cfg)
    assert est.horizon_t == 0.0
    assert all(not f.any() for f in est.free_point)
    assert _bits(est.grad) == _bits(fp.model.grad_theta_cost(theta, y, est.free_point))

    shape, theta, x, y, act, s0, cfg = converged
    y = s0[0] + 0.5 * cfg.tolerance
    p = fp.rbp_init(theta, x, y, s0, act, cfg.tolerance)
    assert 0 < fp.model.inf_norm(p.s_bar) <= cfg.tolerance
    est = fp.rbp_gradient(theta, x, y, act, cfg, s_free=s0)
    assert est.horizon_t == 0.0
    assert _bits(est.grad) == _bits(p.theta_bar)


@pytest.mark.parametrize("change, error", [
    ({"step_size": 25.0}, InstabilityError),
    ({"max_steps": 3}, ConvergenceError),
    ({"step_size": 1e200}, DivergenceError),  # s_bar_2 overflows
    ({"target": np.nan}, DivergenceError),
], ids=["unstable", "cut", "overflow", "nan"])
def test_the_spectral_side_process_raises_as_stepping_does(converged, monkeypatch, change, error):
    shape, theta, x, y, act, s0, cfg = converged
    change = dict(change)
    if "target" in change:
        y = np.full_like(y, change.pop("target"))
    cfg = dataclasses.replace(cfg, **change)
    messages = []
    for bound in (fp.rbp._DENSE_STATES, 0):
        monkeypatch.setattr(fp.rbp, "_DENSE_STATES", bound)
        with pytest.raises(error) as got:
            fp.rbp_gradient(theta, x, y, act, cfg, s_free=s0)
        messages.append((str(got.value), getattr(got.value, "step", None)))
    assert messages[0] == messages[1]
    if error is DivergenceError:
        assert messages[0][0] == f"non-finite side process at t={messages[0][1] * cfg.step_size!r}"


def test_the_rules_read_the_norms_in_step_order(converged, monkeypatch):
    # rbp_gradient's stopping rules on given blocks of norms: a rise
    # resets its count when the norm falls, and within a block the first
    # step that meets a rule decides
    shape, theta, x, y, act, s0, cfg = converged
    n, tol, patience = sum(shape.layer_dims), cfg.tolerance, fp.rbp._INSTABILITY_PATIENCE

    def run(norms, block=64):
        def blocks(side, step_size, n_steps):
            s_sum = np.zeros(n)
            for k in range(0, len(norms), block):
                part = norms[k:k + block]
                yield np.zeros((len(part), n)), part, s_sum
        monkeypatch.setattr(fp.rbp, "_side_blocks", blocks)
        return fp.rbp_gradient(theta, x, y, act, cfg, s_free=s0)

    # 3 * patience rises, never two in a row, then a norm within tolerance
    zigzag = [(1.0 - 1e-3 * k) * (1.1 if k % 2 else 1.0) for k in range(6 * patience)] + [tol]
    assert sum(b > a for a, b in zip(zigzag, zigzag[1:])) == 3 * patience
    assert run(zigzag).horizon_t == 6 * patience * cfg.step_size
    rising = [1.0 + k for k in range(patience + 1)]
    with pytest.raises(InstabilityError, match=f"grew for {patience} consecutive"):
        run(rising + [np.nan, tol])
    with pytest.raises(DivergenceError, match=f"at t={3 * cfg.step_size!r}"):
        run([1.0, 0.5, 0.25, np.inf, tol])
    assert run([1.0, 0.5, tol, np.nan]).horizon_t == 2 * cfg.step_size
