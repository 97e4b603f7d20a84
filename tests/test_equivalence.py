"""Matched-grid comparison of the side process and the rescaled velocities."""

import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fpgrad as fp
from fpgrad import dynamics, eqprop, equivalence, model, rbp
from fpgrad.eqprop import _free_fixed_point, tightened
from fpgrad.equivalence import EquivalenceReport, error_process_path, summarize

from conftest import SHAPE_POOL, make_instance, random_direction, random_state


def _serial_sweep_reference(theta, x, y, betas, num_steps, act, cfg, s_free=None):
    """The beta sweep as it ran with its nudged phases serial: one
    one-state nudged force and Euler loop per beta, zipped in lockstep
    with one side process, and each theta gap reduced from the dense
    (m x 3) @ (3 x c) product of every weight block (rows u, rho*,
    drho/beta against rho*, u, drho, see `equivalence._theta_gap`)."""
    betas, cfg, s_free = eqprop.second_phase(theta, x, act, cfg, betas, s_free)
    eps = cfg.step_size
    side = rbp.SideProcess.at(theta, x, y, s_free, act, cfg.tolerance)
    ops = side.curvature
    rho, bounds, n = ops.rho, ops.bounds + [len(ops.rates)], len(ops.rho)
    eps_d1 = eps * ops.slopes
    blocks = [bounds[k : k + 3] for k in range(len(theta))]
    forces = [model.Force(theta, x, s_free, act, y, b) for b in betas]
    flows = zip(*(dynamics._flow(f, s_free, eps, num_steps) for f in forces))
    reports = [EquivalenceReport(b, eps, num_steps, [], [], [], [], 0.0, 0.0, 0.0) for b in betas]
    s_sum = np.zeros(n)
    for points, (s_bar, _, _) in zip(flows, side.flow(eps, num_steps)):
        sbar_norm = float(np.abs(s_bar).max())
        for r, force, (_, g, residual) in zip(reports, forces, points):
            drho = force.rho - rho
            u = drho / r.beta + eps_d1 * s_sum
            left, right = np.stack([u, rho, drho / r.beta]), np.zeros((3, len(ops.rates)))
            right[0], right[1, :n], right[2, :n] = ops.rates, u, drho
            gap = max(float(np.abs(left[:, a:b].T @ right[:, b:c]).max()) for a, b, c in blocks)
            r.per_step_s_gap.append(float(np.abs(g / r.beta - s_bar).max()))
            r.per_step_theta_gap.append(gap)
            r.per_step_sbar_norm.append(sbar_norm)
            r.per_step_stilde_norm.append(residual / r.beta)
        s_sum += s_bar
    for r in reports:
        r.max_s_gap = max(r.per_step_s_gap)
        r.max_theta_gap = max(r.per_step_theta_gap)
        r.reference_scale = max(r.per_step_sbar_norm)
    return reports


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
    # the streamed comparison must give the s gaps and norms of the two
    # recorded processes it replaces, step for step, to the rounding of its
    # stacked products (the bounds of `_assert_within_serial`); its theta
    # gaps, formed from state-sized factors, must match an exact evaluation
    # of its own nudged states and s_bar to 1e-7 relative per step
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
        bound = 1e-3 * cfg.tolerance / beta
        _assert_series_within(rep.per_step_s_gap, gaps, bound)
        sbar_norms = [model.inf_norm(b) for b in s_bars]
        _assert_series_within(rep.per_step_sbar_norm, sbar_norms, _SBAR_NORM_REL * max(sbar_norms))
        _assert_series_within(rep.per_step_stilde_norm, [model.inf_norm(b) for b in record.s_tilde], bound)
        # the sweep's own inputs: its stack of the nudged state and s_bar,
        # run by the same force and flow
        stack = [np.column_stack([a, b]) for a, b in zip(s0, model.grad_s_cost(y, s0))]
        ops = model.CurvatureOps(theta, x, s0, act)
        force = equivalence._SideColumnForce(theta, x, stack, act, y, [beta], ops)
        path = dynamics.path(force, stack, cfg.step_size, K)
        states, sweep_s_bars = ([[v[:, j] for v in p] for p in path] for j in (0, 1))
        exact = _exact_theta_gaps(theta, x, s0, states, sweep_s_bars, act, beta, cfg.step_size)
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


# ||s_bar_k|| of the sweep's side column against `rbp.SideProcess`'s, as a
# share of the series' max: measured at most 8.5e-17 on the AVX-512, AVX2
# and SSE kernels of OpenBLAS, a margin of 11
_SBAR_NORM_REL = 1e-15


def _assert_series_within(got, want, bound):
    assert len(got) == len(want)
    assert np.max(np.abs(np.array(got) - np.array(want))) <= bound


def _assert_within_serial(sweep, serial, tolerance, share=1e-3):
    # the stacked products, the side column's too, round differently from
    # the one-state force and `apply_ss`: sbar_norm stays within
    # _SBAR_NORM_REL of its max, every other per-step value within share *
    # tol / beta of the serial sweep, and the fitted slopes within 1e-8
    for rep, ref in zip(sweep, serial):
        assert (rep.beta, rep.step, rep.num_steps) == (ref.beta, ref.step, ref.num_steps)
        _assert_series_within(rep.per_step_sbar_norm, ref.per_step_sbar_norm, _SBAR_NORM_REL * ref.reference_scale)
        assert rep.reference_scale == ref.reference_scale
        bound = share * tolerance / rep.beta
        for field in ("per_step_s_gap", "per_step_theta_gap", "per_step_stilde_norm"):
            _assert_series_within(getattr(rep, field), getattr(ref, field), bound)
    got, want = summarize(sweep), summarize(serial)
    if want["s_slope"] is not None:
        assert abs(got["s_slope"] - want["s_slope"]) <= 1e-8
        assert abs(got["theta_slope"] - want["theta_slope"]) <= 1e-8


def test_beta_sweep_reports_equal_each_comparison_alone(converged):
    # each beta's report is its comparison run alone in the serial sweep,
    # to the rounding of the stacked products
    shape, theta, x, y, act, s0, cfg = converged
    betas = [1e-3, 5e-4, 2.5e-4]
    sweep = fp.beta_sweep(theta, x, y, betas, 300, act, cfg)
    # the sweep's shared free point: located once, tightened for the smallest beta
    tight = tightened(cfg, min(betas))
    s_free = _free_fixed_point(theta, x, act, tight)
    alone = [_serial_sweep_reference(theta, x, y, [b], 300, act, cfg, s_free)[0] for b in betas]
    assert len(sweep) == len(betas)
    _assert_within_serial(sweep, alone, tight.tolerance)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_beta_sweep_stays_within_the_serial_sweep(act, tight_cfg):
    betas = [1e-3, 5e-4, 2.5e-4]
    for shape, seed in [
        (fp.NetworkShape(2, (2, 2, 1)), 42),
        (fp.NetworkShape(4, (3, 3, 2)), 5),
        (fp.NetworkShape(16, (5, 20, 24)), 3),
    ]:
        theta, x, y = fp.random_instance(shape, seed)
        sweep = fp.beta_sweep(theta, x, y, betas, 100, act, tight_cfg)
        serial = _serial_sweep_reference(theta, x, y, betas, 100, act, tight_cfg)
        _assert_within_serial(sweep, serial, tightened(tight_cfg, min(betas)).tolerance)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_one_beta_sweep_stays_within_the_serial_sweep(act, tight_cfg):
    # a single beta is a two-column stack, its nudged state and s_bar; the
    # gaps and ||s_tilde|| measured at most 0.5 of 1e-3 * tol / beta on the
    # AVX-512, AVX2 and SSE kernels
    for shape, seed in [
        (fp.NetworkShape(2, (2, 2, 1)), 42),
        (fp.NetworkShape(16, (5, 20, 24)), 3),
        (fp.NetworkShape(8, (30, 40)), 1),
    ]:
        theta, x, y = fp.random_instance(shape, seed)
        rep = fp.compare_processes(theta, x, y, 5e-4, 80, act, tight_cfg)
        serial = _serial_sweep_reference(theta, x, y, [5e-4], 80, act, tight_cfg)
        _assert_within_serial([rep], serial, tightened(tight_cfg, 5e-4).tolerance)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_one_layer_sweep_stays_within_the_serial_sweep(act, tight_cfg):
    # in a one-layer network the input's drive is the whole drive, written
    # once when the force is built: the side column must have none of it
    for shape, seed in [(fp.NetworkShape(2, (1,)), 0), (fp.NetworkShape(3, (4,)), 8)]:
        theta, x, y = fp.random_instance(shape, seed)
        betas = [1e-3, 5e-4]
        sweep = fp.beta_sweep(theta, x, y, betas, 60, act, tight_cfg)
        serial = _serial_sweep_reference(theta, x, y, betas, 60, act, tight_cfg)
        _assert_within_serial(sweep, serial, tightened(tight_cfg, min(betas)).tolerance)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("i", range(len(SHAPE_POOL)))
def test_side_column_is_the_curvature_product(i, act):
    # the last column of the sweep's force is (d2E/ds2) . s_bar at the
    # frozen point, as `apply_ss` takes it: over 200 draws per shape and
    # activation on the AVX-512, AVX2 and SSE kernels it differed by at
    # most 4.0e-16 of max|h|, a margin of 5; the betas' columns are the
    # plain stacked force's (equal there, bit for bit)
    shape, theta, x, y = make_instance(i)
    rng = np.random.default_rng(100 + i)
    ops = model.CurvatureOps(theta, x, random_state(shape, rng), act)
    betas = [1e-3, 5e-4]
    nudged = [np.stack(c, axis=1) for c in zip(*(random_state(shape, rng) for _ in betas))]
    s_bar = model.flatten(random_direction(shape, rng))
    stack = [np.column_stack([a, b]) for a, b in zip(nudged, model.split(s_bar, ops.bounds))]
    force = equivalence._SideColumnForce(theta, x, stack, act, y, betas, ops)
    g = force(model.flatten(stack))
    h = ops.apply_ss(s_bar)
    assert np.max(np.abs(g[:, -1] - h)) <= 2e-15 * np.max(np.abs(h))
    plain = model.Force(theta, x, nudged, act, y, betas)(model.flatten(nudged))
    assert np.max(np.abs(g[:, :-1] - plain)) <= 1e-15 * np.max(np.abs(plain))


_FACTOR = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),  # zeros and ties
    st.floats(-4.0, 4.0),
    st.floats(1e-300, 1e-298),  # products underflow
    st.floats(-1e-298, -1e-300),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 3),
    rows=st.integers(1, 48),
    cols=st.integers(1, 24),
    nan=st.sampled_from([None, "left", "right"]),
)
def test_certified_block_max_is_the_dense_max_bit_for_bit(data, width, rows, cols, nan):
    left = data.draw(arrays(np.float64, (width, 3, rows), elements=_FACTOR))
    right = data.draw(arrays(np.float64, (width, 3, cols), elements=_FACTOR))
    if nan is not None:
        target = left if nan == "left" else right
        target[data.draw(st.tuples(*(st.integers(0, d - 1) for d in target.shape)))] = math.nan
    got = equivalence._block_max(left, right)
    want = np.array([np.abs(left[i].T @ right[i]).max() for i in range(width)])
    assert got.shape == (width,)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[~np.isnan(got)].view(np.int64), want[~np.isnan(want)].view(np.int64))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 24),
    sizes=st.lists(st.sampled_from([1, 3, 10, 16, 17, 24, 40]), min_size=2, max_size=4),
    poisons=st.lists(st.sampled_from(["nan", "inf", "inf facing a zero"]), max_size=2),
)
def test_blocks_max_is_the_max_of_dense_block_maxima_bit_for_bit(data, width, sizes, poisons):
    # a batch of rows whose blocks of at most 16 rows and of more are, row
    # by row, some scaled down or to zero so that their bound falls under
    # the others' max: only some rows of a batch need a block multiplied
    # out; a NaN or an inf goes in any block, one whose bound alone would
    # skip it included, and an inf facing a zero makes a NaN entry
    bounds = np.cumsum([0] + sizes).tolist()
    left = data.draw(arrays(np.float64, (width, 3, bounds[-2]), elements=_FACTOR))
    right = data.draw(arrays(np.float64, (width, 3, bounds[-1]), elements=_FACTOR))
    spans = [bounds[k : k + 3] for k in range(len(sizes) - 1)]
    scale = st.lists(st.sampled_from([1.0, 1e-3, 0.0]), min_size=width, max_size=width)
    for a, b, _ in spans:
        left[:, :, a:b] *= np.array(data.draw(scale))[:, None, None]
    for poison in poisons:
        a, b, c = data.draw(st.sampled_from(spans))
        i, r = data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, 2))
        left[i, r, data.draw(st.integers(a, b - 1))] = math.nan if poison == "nan" else math.inf
        if poison == "inf facing a zero":
            right[i, r, data.draw(st.integers(b, c - 1))] = 0.0
    with np.errstate(invalid="ignore"):
        got = equivalence._blocks_max(left, right, bounds)
        want = np.max([equivalence._dense_max(left[:, :, a:b], right[:, :, b:c]) for a, b, c in spans], axis=0)
    assert got.shape == (width,)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[~np.isnan(got)].view(np.int64), want[~np.isnan(want)].view(np.int64))


def test_dense_max_of_a_strided_view_is_that_of_its_copy_bit_for_bit():
    # `_blocks_max` reduces copied rows; a block sliced from the factors
    # must give the same bits, as in the 3.0e-301 case of width 2 and
    # block sizes [1, 1, 16] that once differed by an ulp
    rng = np.random.default_rng(15)
    for sizes in ([1, 1, 16], [3, 10, 17], [16, 24, 40]):
        bounds = np.cumsum([0] + sizes).tolist()
        for _ in range(50):
            left = rng.standard_normal((2, 3, bounds[-2]))
            right = rng.standard_normal((2, 3, bounds[-1]))
            for a, b, c in (bounds[k : k + 3] for k in range(len(sizes) - 1)):
                view = equivalence._dense_max(left[:, :, a:b], right[:, :, b:c])
                copy = equivalence._dense_max(left[:, :, a:b].copy(), right[:, :, b:c].copy())
                np.testing.assert_array_equal(view.view(np.int64), copy.view(np.int64))


def test_certified_block_max_of_a_one_column_block_is_the_dense_max_bit_for_bit():
    # with one column, matmul takes a matrix-vector loop whose rounding of
    # a row depends on the number of rows, so the top rows multiplied out
    # alone could round otherwise than in the dense block (width 1, block
    # sizes [17, 1] once did)
    rng = np.random.default_rng(16)
    for m in (17, 18, 19, 21, 30):
        for _ in range(40):
            left = rng.standard_normal((2, 3, m))
            left[:, :, : m - 16] *= 1e-3  # the last 16 rows certify the block
            right = rng.standard_normal((2, 3, 1))
            got, want = equivalence._block_max(left, right), equivalence._dense_max(left, right)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("nan_block", [0, 1])
def test_blocks_max_never_skips_while_the_running_max_is_infinite(nan_block):
    # both blocks' bounds are inf: one block's max is inf, and the other
    # holds an inf facing a zero, a NaN entry; in either order of visit,
    # the NaN is found
    bounds = [0, 2, 4, 6]
    left, right = np.ones((1, 3, 4)), np.ones((1, 3, 6))
    left[0, 0, bounds[0]] = left[0, 0, bounds[1]] = math.inf
    right[0, 0, bounds[nan_block + 1]] = 0.0
    with np.errstate(invalid="ignore"):
        assert np.isnan(equivalence._blocks_max(left, right, bounds)).all()


def test_small_blocks_at_inf_hold_no_block_that_holds_a_nan():
    # the 2-row block is multiplied out first and its max is inf; the
    # 17-row block's bound is inf too, and it holds an inf facing a zero,
    # a NaN entry: an inf max holds no block, so the NaN is found
    bounds = [0, 2, 19, 21]
    left, right = np.ones((1, 3, 19)), np.ones((1, 3, 21))
    left[0, 0, 0] = left[0, 0, 5] = math.inf
    right[0, 0, 19] = 0.0
    with np.errstate(invalid="ignore"):
        assert np.isnan(equivalence._blocks_max(left, right, bounds)).all()


def test_a_block_whose_widened_bound_is_the_small_blocks_max_is_held(monkeypatch):
    # the 17-row block's bound is 0.5 * 0.5, and the 1-row block's max is
    # that bound widened by the margins, exactly: the larger block is held
    # without `_block_max`, and the max is the small block's
    calls = _count_block_max(monkeypatch)
    bounds = [0, 1, 18, 20]
    left, right = np.zeros((1, 3, 18)), np.zeros((1, 3, 20))
    wide = 0.25 * (1.0 + equivalence._MARGIN) + equivalence._TINY
    left[0, 0, 0], right[0, 0, 1:18] = wide, 1.0
    left[0, 0, 1:18], right[0, 0, 18:20] = 0.5, 0.5
    got = equivalence._blocks_max(left, right, bounds)
    assert got.tolist() == [wide] and calls == []


def _dense_window_gap(ops, eps, betas, rho_w, s_sums):
    """One window of `_theta_gap` from its definition: for each grid point
    and beta, the largest `_dense_max` over the blocks of the factor rows
    (u, rho*, drho/beta) against (rho*|rho(x), u, drho)."""
    w, n, N = len(rho_w), len(ops.rho), len(ops.rates)
    drho = rho_w - ops.rho
    drho_beta = drho / np.asarray(betas)[:, None]
    u = drho_beta + ((eps * ops.slopes) * s_sums)[:, None]
    left = np.stack([u, np.broadcast_to(ops.rho, u.shape), drho_beta], axis=2).reshape(-1, 3, n)
    right = np.zeros((w, len(betas), 3, N))
    right[:, :, 0], right[:, :, 1, :n], right[:, :, 2, :n] = ops.rates, u, drho
    right = right.reshape(-1, 3, N)
    bounds = ops.bounds + [N]
    spans = zip(bounds, bounds[1:], bounds[2:])
    blocks = [equivalence._dense_max(left[:, :, a:b], right[:, :, b:c]) for a, b, c in spans]
    return np.max(blocks, axis=0).reshape(w, -1)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dims=st.lists(st.sampled_from([1, 3, 10, 16, 17, 24]), min_size=1, max_size=3),
    act=st.sampled_from([fp.LOGISTIC, fp.TANH]),
    at_zero=st.booleans(),
    betas=st.lists(st.sampled_from([1.0, 0.3, 1e-3, 2.5e-4]), min_size=1, max_size=3),
    moves=st.sampled_from([(0.0, 0.0), (1e-6, 1e-3), (1e-3, 0.0), (1.0, 1.0)]),
    poison=st.sampled_from([None, math.nan, math.inf, -math.inf]),
)
def test_a_window_of_theta_gaps_is_the_dense_max_of_every_block_bit_for_bit(
    data, dims, act, at_zero, betas, moves, poison
):
    # one-layer networks, first blocks of more than 16 rows, rates that
    # stay at the free point with S = 0 (every bound 0, as at step 0), and
    # a NaN or an inf in the rates or in S; at the zero state tanh's rho*
    # is 0, so only drho_a drho_b^T / beta moves the inner blocks
    shape = fp.NetworkShape(data.draw(st.integers(1, 4)), tuple(dims))
    theta, x, _ = fp.random_instance(shape, data.draw(st.integers(0, 99)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = shape.zero_state() if at_zero else random_state(shape, rng)
    ops = model.CurvatureOps(theta, x, s, act)
    w, n = data.draw(st.integers(1, equivalence._WINDOW)), len(ops.rho)
    rho_w = ops.rho + moves[0] * rng.standard_normal((w, len(betas), n))
    s_sums = moves[1] * rng.standard_normal((w, n))
    if poison is not None:
        target = data.draw(st.sampled_from([rho_w, s_sums]))
        target[data.draw(st.tuples(*(st.integers(0, d - 1) for d in target.shape)))] = poison
    with np.errstate(invalid="ignore", over="ignore"):
        got = equivalence._theta_gap(ops, 0.1, betas)(rho_w, s_sums)
        want = _dense_window_gap(ops, 0.1, betas, rho_w, s_sums)
    assert got.shape == (w, len(betas))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got[~np.isnan(got)].view(np.int64), want[~np.isnan(want)].view(np.int64))


def test_a_sweeps_csvs_written_together_are_each_written_alone_byte_for_byte(tmp_path):
    # the shared columns k, t and sbar_norm are formatted once per sweep
    theta, x, y = fp.random_instance(fp.NetworkShape(4, (3, 3, 2)), 5)
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12)
    reports = fp.beta_sweep(theta, x, y, [1e-3, 5e-4, 2.5e-4], 30, fp.TANH, cfg)
    paths = [tmp_path / f"equivalence_beta{i}.csv" for i in range(len(reports))]
    equivalence._write_csvs(reports, paths)
    for rep, path in zip(reports, paths):
        alone = io.StringIO()
        fp.write_equivalence_csv(rep, alone)
        columns = zip(rep.per_step_s_gap, rep.per_step_theta_gap, rep.per_step_sbar_norm, rep.per_step_stilde_norm)
        rows = [f"{k},{k * rep.step!r},{a!r},{b!r},{c!r},{d!r}\n" for k, (a, b, c, d) in enumerate(columns)]
        header = "k,t,s_gap,theta_gap,sbar_norm,stilde_norm\n"
        assert path.read_bytes() == alone.getvalue().encode() == "".join([header] + rows).encode()


@pytest.mark.parametrize("column", ["per_step_s_gap", "per_step_sbar_norm"])
def test_a_report_with_a_column_short_of_its_grid_is_not_written(column):
    rep = EquivalenceReport(1e-3, 0.1, 2, [0.0] * 3, [0.0] * 3, [0.0] * 3, [0.0] * 3, 0.0, 0.0, 0.0)
    getattr(rep, column).pop()
    with pytest.raises(ValueError):
        fp.write_equivalence_csv(rep, io.StringIO())


def _count_block_max(monkeypatch, name="_block_max"):
    """(batch rows, block rows) of each call of `_block_max` (or of `name`):
    how many (grid point, beta) entries reach it, and the row count of
    their block."""
    calls = []
    block_max = getattr(equivalence, name)

    def counted(left, right):
        calls.append(left.shape[::2])
        return block_max(left, right)

    monkeypatch.setattr(equivalence, name, counted)
    return calls


def _entries(calls, rows):
    """The entries of `calls` that reached `_block_max` with a block of `rows` rows."""
    return sum(batch for batch, block in calls if block == rows)


def test_wide_sweep_takes_no_dense_fallback(monkeypatch):
    # on 64 -> [10, 256, 256] the bound of each 256-row block certifies it
    # below the output block's max at every grid point, so only the 10-row
    # output block is multiplied out, once per grid point and beta: blocks
    # of at most 16 rows are multiplied out for the whole batch, step 0
    # included, where every factor but rho* is zero and every bound is 0
    calls = _count_block_max(monkeypatch, "_dense_max")
    shape = fp.NetworkShape(64, (10, 256, 256))
    theta, x, y = fp.random_instance(shape, 601)
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12)
    K, betas = 100, [1e-3, 5e-4, 2.5e-4]
    fp.beta_sweep(theta, x, y, betas, K, fp.LOGISTIC, cfg)
    assert {block for _, block in calls} == {10}
    assert _entries(calls, 10) == (K + 1) * len(betas)


def _dense_blocks_max(left, right, bounds, bound=None):
    """`equivalence._blocks_max` as the max of every block's dense max."""
    blocks = zip(bounds, bounds[1:], bounds[2:])
    return np.max([equivalence._dense_max(left[:, :, a:b], right[:, :, b:c]) for a, b, c in blocks], axis=0)


def test_wide_sweep_with_multiplied_out_blocks_is_the_serial_sweep(monkeypatch, tight_cfg):
    # under tanh at seed 602 the block bounds skip most 256-row blocks but
    # not all: both branches give the dense value bit for bit, and the
    # report stays within the serial sweep.  A 256-wide block's drive sums
    # 256 products, whose rounding the stacked and one-state products take
    # at a larger scale than in the small networks: the gaps differ by at
    # most 1.22 times 1e-3 * tol / beta (on the AVX2 kernel; 0.89 on
    # AVX-512, 0.78 on SSE), so the share is 1e-2, a margin of 8
    calls = _count_block_max(monkeypatch)
    shape = fp.NetworkShape(64, (10, 256, 256))
    theta, x, y = fp.random_instance(shape, 602)
    K = 60
    rep = fp.compare_processes(theta, x, y, 1e-3, K, fp.TANH, tight_cfg)
    assert 0 < _entries(calls, 256) < 2 * K
    monkeypatch.setattr(equivalence, "_blocks_max", _dense_blocks_max)
    assert rep == fp.compare_processes(theta, x, y, 1e-3, K, fp.TANH, tight_cfg)
    serial = _serial_sweep_reference(theta, x, y, [1e-3], K, fp.TANH, tight_cfg)
    _assert_within_serial([rep], serial, tightened(tight_cfg, 1e-3).tolerance, share=1e-2)


@pytest.mark.parametrize(
    "shape, seed, act, betas, K",
    [
        (fp.NetworkShape(16, (5, 20, 24)), 3, fp.LOGISTIC, [1e-3, 5e-4, 2.5e-4], K)
        for K in (0, 1, 2, 5, 6, 7, 30)
    ] + [
        (fp.NetworkShape(4, (3, 3, 2)), 5, fp.TANH, [5e-4], 9),
        (fp.NetworkShape(4, (3, 3, 2)), 5, fp.LOGISTIC, [1e-3, 1e-3, 5e-4, 5e-4], 10),
        (fp.NetworkShape(64, (10, 256, 256)), 602, fp.TANH, [1e-3, 5e-4, 2.5e-4], 61),
    ],
    ids=[f"K={K}" for K in (0, 1, 2, 5, 6, 7, 30)] + ["one-beta", "repeated-betas", "wide-tanh-602"],
)
def test_windowed_sweep_is_the_one_point_window_bit_for_bit(monkeypatch, shape, seed, act, betas, K):
    # reducing several grid points per call changes no bit of any report,
    # whether or not K + 1 fills the last window
    theta, x, y = fp.random_instance(shape, seed)
    cfg = fp.RelaxationConfig(step_size=0.1, tolerance=1e-12)
    assert equivalence._WINDOW > 1
    windowed = fp.beta_sweep(theta, x, y, betas, K, act, cfg)
    monkeypatch.setattr(equivalence, "_WINDOW", 1)
    one = fp.beta_sweep(theta, x, y, betas, K, act, cfg)
    assert repr(windowed) == repr(one)
    assert [len(r.per_step_theta_gap) for r in windowed] == [K + 1] * len(betas)


def test_beta_sweep_runs_one_side_process(converged, monkeypatch):
    # the side process does not depend on beta: it is one more column of
    # the betas' stack, so each of the K + 1 grid points takes one stacked
    # force call of 3 + 1 columns, and no `apply_ss` call of its own: each
    # is a product of the free phase's Newton finish, inside `solve`
    shape, theta, x, y, act, s0, cfg = converged
    applied, stacked, solving = [], [], []
    apply_ss, call, solve = model.CurvatureOps.apply_ss, model.Force.__call__, model.CurvatureOps.solve

    def counted_apply_ss(self, v):
        applied.append(bool(solving))
        return apply_ss(self, v)

    def marked_solve(self, b, target):
        solving.append(1)
        try:
            return solve(self, b, target)
        finally:
            solving.pop()

    def counted_call(self, s):
        if np.ndim(s) == 2:
            stacked.append(np.shape(s)[1])
        return call(self, s)

    monkeypatch.setattr(model.CurvatureOps, "apply_ss", counted_apply_ss)
    monkeypatch.setattr(model.CurvatureOps, "solve", marked_solve)
    monkeypatch.setattr(model.Force, "__call__", counted_call)
    K = 40
    reports = fp.beta_sweep(theta, x, y, [1e-3, 5e-4, 2.5e-4], K, act, cfg)
    assert all(applied)
    assert stacked == [4] * (K + 1)
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
    # the free fixed point both read from, located as the function locates it
    s_free = _free_fixed_point(theta, x, act, tight)
    truncated = fp.truncated_eqprop_gradient(theta, x, y, beta, K, act, cfg, s_free=s_free)
    _, theta_bars = error_process_path(theta, x, y, s_free, act, tight.step_size, K, tight.tolerance)
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


@pytest.mark.parametrize("member", ["max_s_gap", "max_theta_gap"])
def test_a_zero_gap_makes_the_summary_degenerate(member):
    # no log-log slope through a zero gap
    reports = [EquivalenceReport(b, 0.1, 1, [], [], [], [], b, 2 * b, 1.0) for b in (1e-3, 5e-4, 2.5e-4)]
    setattr(reports[1], member, 0.0)
    s = summarize(reports)
    assert s["s_slope"] is None and s["theta_slope"] is None
    assert s["max_s_gaps"] == [r.max_s_gap for r in reports]
    assert summarize([EquivalenceReport(b, 0.1, 1, [], [], [], [], b, 2 * b, 1.0) for b in (1e-3, 5e-4)])["s_slope"] is not None
