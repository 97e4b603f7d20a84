"""Error-derivative side process: initial conditions, updates, gradient limit."""

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
    shape = fp.NetworkShape(8, (4, 80, 80))
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
def test_the_state_count_selects_the_side_process_product(act, monkeypatch):
    # at the bound the flow steps on the dense Hessian, built once; one
    # state more, it builds none and takes one `apply_ss` per grid point
    bound, rng = fp.rbp._DENSE_STATES, np.random.default_rng(0)
    calls = _count_products(monkeypatch)
    for states, want in [(bound, ["dense_ss"]), (bound + 1, ["apply_ss"] * 4)]:
        shape = fp.NetworkShape(3, (2, states - 2))
        theta, x, y = fp.random_instance(shape, 0)
        s = random_state(shape, rng, 0.5)
        p = fp.ErrorProcessState(fp.model.grad_s_cost(y, s), fp.model.grad_theta_cost(theta, y, s), 0.0)
        fp.rbp.SideProcess(p, theta, x, s, act).endpoint(0.1, 3)
        assert calls == want
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


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_every_side_process_path_is_the_stepwise_recursion_bit_for_bit(act, index, tight_cfg):
    from fpgrad.equivalence import error_process_path, truncation_correspondence

    shape, theta, x, y = make_instance(index)
    beta, K, eps, tol = 1e-3, 40, tight_cfg.step_size, tight_cfg.tolerance
    # tight_cfg's tolerance is below beta * 1e-3: the second phase's free point is rbp's
    _, _, s0 = fp.eqprop.second_phase(theta, x, act, tight_cfg, [beta])
    p0 = fp.rbp_init(theta, x, y, s0, act, tol)
    # the product every side process at s0 steps on, and the curvature it was built from
    side = fp.rbp.SideProcess(p0, theta, x, s0, act)
    apply_ss, ops = side.apply_ss, side.curvature

    for steps, (s_bar, s_sum) in enumerate(_stepwise(apply_ss, fp.model.flatten(p0.s_bar), eps)):
        if np.abs(s_bar).max() <= tol:
            break
    est = fp.rbp_gradient(theta, x, y, act, tight_cfg, s_free=s0)
    assert est.horizon_t == steps * eps
    assert _bits(est.grad) == _bits(_neumann_theta_bar(ops, p0.theta_bar, s_sum, eps))

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
