"""Energy, cost, and analytic-derivative checks against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fpgrad as fp
from fpgrad.exceptions import ShapeError, UnsupportedActivationError

from conftest import SHAPE_POOL, dense_hessian, make_instance, random_direction, random_state


def fd_energy_grad_s(theta, x, s, act, delta=1e-5):
    """Central difference of the energy over every state component."""
    out = []
    for k in range(len(s)):
        g = np.zeros_like(s[k])
        for i in range(s[k].shape[0]):
            sp = [b.copy() for b in s]
            sp[k][i] += delta
            sm = [b.copy() for b in s]
            sm[k][i] -= delta
            g[i] = (fp.energy(theta, x, sp, act) - fp.energy(theta, x, sm, act)) / (2 * delta)
        out.append(g)
    return out


def fd_energy_grad_theta(theta, x, s, act, delta=1e-5):
    """Central difference of the energy over every weight entry."""
    out = []
    for k in range(len(theta)):
        g = np.zeros_like(theta[k])
        for idx in np.ndindex(*theta[k].shape):
            tp = [w.copy() for w in theta]
            tp[k][idx] += delta
            tm = [w.copy() for w in theta]
            tm[k][idx] -= delta
            g[idx] = (fp.energy(tp, x, s, act) - fp.energy(tm, x, s, act)) / (2 * delta)
        out.append(g)
    return out


def assert_blocks_close(got, want, tol, floor):
    for k, (a, b) in enumerate(zip(got, want)):
        err = np.abs(np.asarray(a) - np.asarray(b))
        bound = np.maximum(tol * np.abs(b), floor)
        assert np.all(err <= bound), (
            f"block {k}: max err {err.max():.3e} vs bound {bound.min():.3e}"
        )


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["logistic", "tanh", "hard-sigmoid"])
@settings(max_examples=60, deadline=None)
@given(v=st.floats(-20, 20))
def test_activation_first_derivative_matches_fd(name, v):
    act = fp.get_activation(name)
    if name == "hard-sigmoid":
        # stay away from the two kinks where the derivative jumps
        if min(abs(v), abs(v - 1.0)) < 1e-3:
            return
    h = 1e-5
    arr = np.array([v])
    fd = (act.f(arr + h) - act.f(arr - h)) / (2 * h)
    assert abs(fd[0] - act.df(arr)[0]) <= 1e-6 * max(1.0, abs(fd[0]))


@pytest.mark.parametrize("name", ["logistic", "tanh"])
@settings(max_examples=60, deadline=None)
@given(v=st.floats(-20, 20))
def test_activation_second_derivative_matches_fd(name, v):
    act = fp.get_activation(name)
    h = 1e-5
    arr = np.array([v])
    fd = (act.df(arr + h) - act.df(arr - h)) / (2 * h)
    assert abs(fd[0] - act.d2f(arr)[0]) <= 1e-6 * max(1.0, abs(fd[0]))


def _piecewise_logistic(v):
    """The boolean-mask form of the logistic that `_logistic` replaced."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def test_logistic_equals_piecewise_form_bit_for_bit():
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0,
                        745.0, -745.0, 1e-300, -1e-300, 5e-324, 36.7, -36.7])
    rng = np.random.default_rng(0)
    cases = [special, special.reshape(3, 5), rng.standard_normal((7, 9)) * 5]
    for n in (1, 2, 3, 5, 17, 64, 257):
        v = rng.standard_normal(n) * 20
        v[rng.integers(0, n, size=max(1, n // 4))] = rng.choice(special)
        cases.append(v)
    # neither form may overflow, whatever the input
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for v in cases:
            got = fp.model._logistic(v)
            want = _piecewise_logistic(v)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _where_logistic(v):
    """The `np.where` form that `_logistic` replaced."""
    v = np.asarray(v, dtype=float)
    e = np.exp(np.minimum(v, -v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(
    st.one_of(
        st.integers(0, 2**64 - 1),  # any double, NaN payloads of both signs included
        st.sampled_from([0x7FF8000000000001, 0xFFF0000000000001, 0x8000000000000000, 1]),
    ),
    min_size=1, max_size=40,
))
def test_logistic_equals_the_where_form_bit_for_bit(bits):
    v = np.array(bits, dtype=np.uint64).view(np.float64)
    with np.errstate(invalid="ignore"):
        got, want = fp.model._logistic(v), _where_logistic(v)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0])


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
def test_rate_slope_is_the_pair_of_separate_calls_bit_for_bit(act):
    rng = np.random.default_rng(1)
    with np.errstate(invalid="ignore"):
        for v in (_SPECIAL, rng.standard_normal(33) * 10, np.linspace(-1.0, 2.0, 31)):
            f, df = act.rate_slope(v)
            for got, want in ((f, act.f(v)), (df, act.df(v))):
                assert got.shape == want.shape
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_rate_slope_defaults_to_f_and_df():
    # an activation built without f_df still gets both from rate_slope
    calls = []

    def f(v):
        calls.append("f")
        return np.sin(v)

    def df(v):
        calls.append("df")
        return np.cos(v)

    act = fp.Activation("sine", f, df)
    v = np.array([0.5, -1.0])
    rates, slopes = act.rate_slope(v)
    assert calls == ["f", "df"]
    np.testing.assert_array_equal(rates, np.sin(v))
    np.testing.assert_array_equal(slopes, np.cos(v))


def test_unknown_activation_rejected():
    with pytest.raises(UnsupportedActivationError):
        fp.get_activation("relu")


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_zero_weights_zero_state_is_zero():
    shape = fp.NetworkShape(2, (2, 2, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    s = shape.zero_state()
    assert fp.energy(theta, np.zeros(2), s, fp.LOGISTIC) == 0.0


def test_energy_zero_weights_is_half_square_norm():
    shape = fp.NetworkShape(2, (2, 2, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    rng = np.random.default_rng(0)
    s = random_state(shape, rng)
    want = 0.5 * sum(float(b @ b) for b in s)
    assert fp.energy(theta, rng.uniform(-1, 1, 2), s, fp.LOGISTIC) == pytest.approx(want, rel=1e-15)


def test_energy_matches_term_by_term_transcription(seeded_net):
    # independent oracle: scalar loops over every term of the energy
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(7)
    s = random_state(shape, rng)
    L = len(theta)
    total = 0.0
    for k in range(L):
        for i in range(s[k].shape[0]):
            total += 0.5 * s[k][i] ** 2
    for k in range(L - 1):
        for i in range(s[k].shape[0]):
            for j in range(s[k + 1].shape[0]):
                total -= float(act.f(s[k][i : i + 1])[0]) * theta[k][i, j] * float(
                    act.f(s[k + 1][j : j + 1])[0]
                )
    for i in range(s[L - 1].shape[0]):
        for j in range(x.shape[0]):
            total -= float(act.f(s[L - 1][i : i + 1])[0]) * theta[L - 1][i, j] * float(
                act.f(x[j : j + 1])[0]
            )
    got = fp.energy(theta, x, s, act)
    assert got == pytest.approx(total, rel=1e-12)


def test_energy_shape_error_names_layer():
    shape = fp.NetworkShape(2, (2, 2, 1))
    theta, x, _ = fp.random_instance(shape, 0)
    s = shape.zero_state()
    s[1] = np.zeros(3)
    with pytest.raises(ShapeError, match="layer 1"):
        fp.energy(theta, x, s, fp.LOGISTIC)


# ---------------------------------------------------------------------------
# first derivatives
# ---------------------------------------------------------------------------

def test_grad_s_zero_weights_returns_state():
    shape = fp.NetworkShape(2, (2, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    rng = np.random.default_rng(1)
    s = random_state(shape, rng)
    g = fp.grad_s_energy(theta, np.zeros(2), s, fp.LOGISTIC)
    for a, b in zip(g, s):
        np.testing.assert_array_equal(a, b)


def test_grad_s_vanishes_at_fixed_point(seeded_net):
    shape, theta, x, y, act = seeded_net
    cfg = fp.RelaxationConfig(tolerance=1e-8)
    s0, traj = fp.relax_free(theta, x, shape.zero_state(), act, cfg)
    assert traj.converged
    g = fp.grad_s_energy(theta, x, s0, act)
    assert max(np.max(np.abs(b)) for b in g) <= cfg.tolerance


class _ReferenceForce:
    """`model.Force` as it was before the one-pass rates: separate act.f
    and act.df calls per step and a fresh list of layer views."""

    def __init__(self, theta, x, s, act, y=None, beta=0.0):
        fp.model._check_network(theta, x, s)
        self.theta, self.act, self.beta = theta, act, beta
        self.y = None if y is None else fp.model._target(y, s)
        self.bounds = fp.model.layer_bounds(s)
        self.rho_x = act.f(np.asarray(x, dtype=float))
        self._drive = np.empty(self.bounds[-1])
        self._drive_layers = fp.model.split(self._drive, self.bounds)

    def __call__(self, s):
        rates = fp.model.split(self.act.f(s), self.bounds) + [self.rho_x]
        for k, a in enumerate(self._drive_layers):
            np.dot(self.theta[k], rates[k + 1], out=a)
            if k > 0:
                a += np.dot(self.theta[k - 1].T, rates[k - 1])
        g = s - self.act.df(s) * self._drive
        if self.y is not None:
            n = self.bounds[1]
            g[:n] += self.beta * (s[:n] - self.y)
        return g


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
@pytest.mark.parametrize("index", [0, 2, 4, 5])  # 2->[1], 2->[2,2,1], 4->[3,3,2], 3->[1,4]
def test_force_equals_the_reference_force_bit_for_bit(act, index):
    shape, theta, x, y = make_instance(index)
    rng = np.random.default_rng(600 + index)
    s = random_state(shape, rng)
    for target, beta in ((None, 0.0), (y, 0.7)):
        force = fp.model.Force(theta, x, s, act, target, beta)
        reference = _ReferenceForce(theta, x, s, act, target, beta)
        # successive calls on different states: the buffers carry nothing over
        for scale in (1.0, 0.3, 2.5):
            v = fp.model.flatten(s) * scale
            np.testing.assert_array_equal(force(v).view(np.int64), reference(v).view(np.int64))
            # the force keeps the rates of the state it evaluated last
            np.testing.assert_array_equal(force.rho.view(np.int64), act.f(v).view(np.int64))


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("index", [2, 4])  # 2->[2,2,1], 4->[3,3,2]
def test_force_sees_inner_block_edits_and_keeps_the_input_drive_it_took(index, stacked):
    # inner-block entries may be set in place under one force; the input
    # block's drive is taken once, until `take_input_drive` retakes it
    shape, theta, x, _ = make_instance(index)
    s = random_state(shape, np.random.default_rng(650 + index))
    if stacked:
        s = [np.stack([sk, 0.5 * sk], axis=1) for sk in s]
    v, theta = fp.model.flatten(s), fp.model.copy_blocks(theta)
    force = fp.model.Force(theta, x, s, fp.LOGISTIC)
    theta[0][1, 0] += 0.25
    fresh = fp.model.Force(theta, x, s, fp.LOGISTIC)(v)
    np.testing.assert_array_equal(force(v).view(np.int64), fresh.view(np.int64))
    theta[-1][0, 1] += 0.25
    np.testing.assert_array_equal(force(v).view(np.int64), fresh.view(np.int64))
    assert not np.array_equal(fp.model.Force(theta, x, s, fp.LOGISTIC)(v), fresh)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("index", [0, 2, 4])  # 2->[1], 2->[2,2,1], 4->[3,3,2]
def test_a_retaken_input_drive_is_a_fresh_forces_bit_for_bit(index, stacked):
    # the oracle's one force serves the input-block probes: it retakes the
    # drive when an entry is set and when it is restored.  In a one-layer
    # network that drive is the whole drive
    shape, theta, x, _ = make_instance(index)
    s = random_state(shape, np.random.default_rng(660 + index))
    if stacked:
        s = [np.stack([sk, 0.5 * sk], axis=1) for sk in s]
    v, theta = fp.model.flatten(s), fp.model.copy_blocks(theta)
    force = fp.model.Force(theta, x, s, fp.LOGISTIC)
    before = force(v)
    theta[-1][0, 1] += 0.25
    force.take_input_drive()
    fresh = fp.model.Force(theta, x, s, fp.LOGISTIC)(v)
    np.testing.assert_array_equal(force(v).view(np.int64), fresh.view(np.int64))
    assert not np.array_equal(fresh, before)
    theta[-1][0, 1] -= 0.25
    force.take_input_drive()
    np.testing.assert_array_equal(force(v).view(np.int64), before.view(np.int64))


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
@pytest.mark.parametrize("index", [0, 2, 4, 5])  # 2->[1], 2->[2,2,1], 4->[3,3,2], 3->[1,4]
def test_stacked_force_columns_match_the_one_state_force(act, index):
    shape, theta, x, y = make_instance(index)
    rng = np.random.default_rng(700 + index)
    columns = [random_state(shape, rng, scale=2.0) for _ in range(5)]
    stack = [np.stack(layers, axis=1) for layers in zip(*columns)]
    force = fp.model.Force(theta, x, stack, act)
    g = force(fp.model.flatten(stack))
    assert g.shape == (force.bounds[-1], 5)
    for c, s in enumerate(columns):
        one = fp.model.Force(theta, x, s, act)(fp.model.flatten(s))
        assert np.max(np.abs(g[:, c] - one)) <= 1e-13 * np.max(np.abs(one))
        # the stack keeps the rates of each column, rho(x) pinned below them
        np.testing.assert_array_equal(force.rates[force.bounds[-1]:, c], act.f(x))


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", [0, 2, 4])
def test_a_nudged_stack_takes_one_beta_per_column(act, index):
    shape, theta, x, y = make_instance(index)
    rng = np.random.default_rng(800 + index)
    columns = [random_state(shape, rng) for _ in range(3)]
    betas = np.array([0.7, 1e-3, 0.0])
    stack = [np.stack(layers, axis=1) for layers in zip(*columns)]
    force = fp.model.Force(theta, x, stack, act, y, betas)
    g = force(fp.model.flatten(stack))
    for c, s in enumerate(columns):
        one = fp.model.Force(theta, x, s, act, y, betas[c])(fp.model.flatten(s))
        assert np.max(np.abs(g[:, c] - one)) <= 1e-13 * np.max(np.abs(one))
    # a one-column stack is the one-state force bit for bit
    s = columns[0]
    one = fp.model.Force(theta, x, s, act, y, 0.7)(fp.model.flatten(s))
    column = [sk[:, None] for sk in s]
    g1 = fp.model.Force(theta, x, column, act, y, betas[:1])(fp.model.flatten(column))
    np.testing.assert_array_equal(g1[:, 0].view(np.int64), one.view(np.int64))
    with pytest.raises(ShapeError, match=r"beta has shape \(2,\), expected \(\) or \(3,\)"):
        fp.model.Force(theta, x, stack, act, y, betas[:2])
    with pytest.raises(ShapeError, match="target has shape"):
        fp.model.Force(theta, x, stack, act, np.append(y, 0.0), betas)


def test_a_stack_needs_one_trailing_axis_on_every_layer():
    shape, theta, x, y = make_instance(2)
    stack = [np.zeros((d, 3)) for d in shape.layer_dims]
    fp.model.Force(theta, x, stack, fp.LOGISTIC)
    with pytest.raises(ShapeError, match=r"layer 1 has width \(2, 4\), expected \(2, 3\)"):
        fp.model.Force(theta, x, [stack[0], np.zeros((2, 4)), stack[2]], fp.LOGISTIC)
    with pytest.raises(ShapeError, match="layer 0"):
        fp.model.Force(theta, x, [np.zeros((d, 3, 1)) for d in shape.layer_dims], fp.LOGISTIC)


def test_grad_theta_logistic_zero_state_quarter_blocks():
    # 1-wide layers, zero voltages and zero input: every rate is 1/2
    shape = fp.NetworkShape(1, (1, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    g = fp.grad_theta_energy(theta, np.zeros(1), shape.zero_state(), fp.LOGISTIC)
    for b in g:
        np.testing.assert_allclose(b, -0.25)


def test_grad_theta_tanh_zero_state_all_zero():
    shape = fp.NetworkShape(2, (2, 2, 1))
    theta, x, _ = fp.random_instance(shape, 3)
    g = fp.grad_theta_energy(theta, x, shape.zero_state(), fp.TANH)
    for b in g:
        np.testing.assert_array_equal(b, 0.0)


@pytest.mark.parametrize("i", range(len(SHAPE_POOL)))
def test_gradients_match_fd_per_shape(i):
    shape, theta, x, y = make_instance(i)
    rng = np.random.default_rng(100 + i)
    s = random_state(shape, rng)
    act = fp.LOGISTIC
    assert_blocks_close(
        fp.grad_s_energy(theta, x, s, act), fd_energy_grad_s(theta, x, s, act), 1e-6, 1e-9
    )
    assert_blocks_close(
        fp.grad_theta_energy(theta, x, s, act),
        fd_energy_grad_theta(theta, x, s, act),
        1e-6,
        1e-9,
    )


def test_gradient_consistency_hundred_instances():
    # spec invariant: 100 seeded (theta, x, s) triples, step 1e-5
    for i in range(100):
        shape, theta, x, y = make_instance(i)
        rng = np.random.default_rng(1000 + i)
        s = random_state(shape, rng)
        assert_blocks_close(
            fp.grad_s_energy(theta, x, s, fp.LOGISTIC),
            fd_energy_grad_s(theta, x, s, fp.LOGISTIC),
            1e-6,
            1e-9,
        )


# ---------------------------------------------------------------------------
# cost and its derivatives
# ---------------------------------------------------------------------------

def test_cost_zero_when_output_matches():
    s = [np.array([0.3, -0.2]), np.array([0.1])]
    assert fp.cost(np.array([0.3, -0.2]), s) == 0.0


def test_cost_half_unit():
    s = [np.array([0.0])]
    assert fp.cost(np.array([1.0]), s) == 0.5


def test_cost_matches_direct_formula(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(11)
    s = random_state(shape, rng)
    want = 0.5 * sum((y[i] - s[0][i]) ** 2 for i in range(y.shape[0]))
    assert fp.cost(y, s) == pytest.approx(want, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4))
def test_cost_nonnegative_and_zero_iff_match(vals):
    y = np.array(vals)
    s = [y + 1e-3, np.zeros(2)]
    assert fp.cost(y, s) > 0.0
    assert fp.cost(y, [y.copy(), np.zeros(2)]) == 0.0


def test_grad_s_cost_output_block_only():
    s = [np.array([0.25]), np.array([1.0, 2.0])]
    g = fp.grad_s_cost(np.array([1.0]), s)
    np.testing.assert_allclose(g[0], [-0.75])
    np.testing.assert_array_equal(g[1], 0.0)


def test_grad_s_cost_matches_fd(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(13)
    s = random_state(shape, rng)
    g = fp.grad_s_cost(y, s)
    delta = 1e-5
    for k in range(len(s)):
        for i in range(s[k].shape[0]):
            sp = [b.copy() for b in s]
            sp[k][i] += delta
            sm = [b.copy() for b in s]
            sm[k][i] -= delta
            fd = (fp.cost(y, sp) - fp.cost(y, sm)) / (2 * delta)
            assert abs(fd - g[k][i]) <= 1e-6 * max(1.0, abs(fd))


def test_grad_theta_cost_identically_zero(seeded_net):
    # the quadratic cost reads only (y, s); a weight perturbation at fixed s
    # cannot change it, so the derivative is structurally zero
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(17)
    s = random_state(shape, rng)
    g = fp.grad_theta_cost(theta, y, s)
    for b in g:
        np.testing.assert_array_equal(b, 0.0)
    c_base = fp.cost(y, s)
    perturbed = [w.copy() for w in theta]
    perturbed[0][0, 0] += 1e-4
    assert abs(fp.cost(y, s) - c_base) <= 1e-10


# ---------------------------------------------------------------------------
# augmented gradient
# ---------------------------------------------------------------------------

def test_augmented_beta_zero_equals_energy_gradient(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(19)
    s = random_state(shape, rng)
    ga = fp.grad_s_augmented(theta, x, y, s, 0.0, act)
    ge = fp.grad_s_energy(theta, x, s, act)
    for a, b in zip(ga, ge):
        np.testing.assert_array_equal(a, b)


def test_augmented_vanishing_cost_gradient(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(23)
    s = random_state(shape, rng)
    s[0] = y.copy()
    ga = fp.grad_s_augmented(theta, x, y, s, 1.0, act)
    ge = fp.grad_s_energy(theta, x, s, act)
    for a, b in zip(ga, ge):
        np.testing.assert_array_equal(a, b)


def test_augmented_matches_fd(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(29)
    s = random_state(shape, rng)
    beta = 0.5
    g = fp.grad_s_augmented(theta, x, y, s, beta, act)
    delta = 1e-5
    for k in range(len(s)):
        for i in range(s[k].shape[0]):
            sp = [b.copy() for b in s]
            sp[k][i] += delta
            sm = [b.copy() for b in s]
            sm[k][i] -= delta
            fd = (
                fp.energy(theta, x, sp, act) + beta * fp.cost(y, sp)
                - fp.energy(theta, x, sm, act) - beta * fp.cost(y, sm)
            ) / (2 * delta)
            assert abs(fd - g[k][i]) <= 1e-6 * max(1.0, abs(fd))


def test_augmented_linearity_is_exact(seeded_net):
    shape, theta, x, y, act = seeded_net
    rng = np.random.default_rng(31)
    s = random_state(shape, rng)
    beta = 0.37
    ga = fp.grad_s_augmented(theta, x, y, s, beta, act)
    ge = fp.grad_s_energy(theta, x, s, act)
    gc = fp.grad_s_cost(y, s)
    for a, e, c in zip(ga, ge, gc):
        np.testing.assert_array_equal(a - e, beta * c)


def test_augmented_rejects_negative_beta(seeded_net):
    shape, theta, x, y, act = seeded_net
    with pytest.raises(ValueError, match="beta"):
        fp.grad_s_augmented(theta, x, y, shape.zero_state(), -0.1, act)


# ---------------------------------------------------------------------------
# Hessian-vector products
# ---------------------------------------------------------------------------

def test_hvp_ss_identity_for_zero_weights():
    shape = fp.NetworkShape(2, (2, 1))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    rng = np.random.default_rng(37)
    s = random_state(shape, rng)
    v = random_direction(shape, rng)
    h = fp.hvp_ss(theta, np.zeros(2), s, v, fp.LOGISTIC)
    for a, b in zip(h, v):
        np.testing.assert_array_equal(a, b)


def test_hvp_ss_zero_direction(seeded_net):
    shape, theta, x, y, act = seeded_net
    s = random_state(shape, np.random.default_rng(41))
    h = fp.hvp_ss(theta, x, s, shape.zero_state(), act)
    for b in h:
        np.testing.assert_array_equal(b, 0.0)


def test_hvp_ss_rejects_hard_sigmoid(seeded_net):
    shape, theta, x, y, _ = seeded_net
    s = shape.zero_state()
    v = shape.zero_state()
    with pytest.raises(UnsupportedActivationError):
        fp.hvp_ss(theta, x, s, v, fp.HARD_SIGMOID)


@pytest.mark.parametrize("i", range(len(SHAPE_POOL)))
def test_hvp_ss_matches_fd_of_gradient(i):
    shape, theta, x, y = make_instance(i)
    rng = np.random.default_rng(200 + i)
    s = random_state(shape, rng)
    v = random_direction(shape, rng)
    h = fp.hvp_ss(theta, x, s, v, fp.LOGISTIC)
    fd = fp.fd_hvp_ss(theta, x, s, v, fp.LOGISTIC)
    assert_blocks_close(h, fd, 1e-5, 1e-9)


def _reference_hvp_ss(theta, x, s, v, act):
    """(d2E/ds2) . v one layer at a time, as before the flat product."""
    L = len(theta)
    d1 = [act.df(sk) for sk in s]
    rates = [act.f(sk) for sk in s] + [act.f(x)]
    out = []
    for k in range(L):
        drive = theta[k] @ rates[k + 1]
        if k > 0:
            drive = drive + theta[k - 1].T @ rates[k - 1]
        h = v[k] - act.d2f(s[k]) * drive * v[k]
        if k < L - 1:
            h = h - d1[k] * (theta[k] @ (d1[k + 1] * v[k + 1]))
        if k > 0:
            h = h - d1[k] * (theta[k - 1].T @ (d1[k - 1] * v[k - 1]))
        out.append(h)
    return out


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("i", range(len(SHAPE_POOL)))
def test_flat_hvp_ss_equals_the_layer_loop_bitwise(i, act):
    shape, theta, x, y = make_instance(i)
    rng = np.random.default_rng(500 + i)
    s = random_state(shape, rng)
    v = random_direction(shape, rng)
    got = fp.hvp_ss(theta, x, s, v, act)
    want = _reference_hvp_ss(theta, x, s, v, act)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


def test_hvp_ss_symmetry_twenty_instances():
    for i in range(20):
        shape, theta, x, y = make_instance(i)
        rng = np.random.default_rng(300 + i)
        s = random_state(shape, rng)
        u = random_direction(shape, rng)
        v = random_direction(shape, rng)
        hu = fp.hvp_ss(theta, x, s, u, fp.LOGISTIC)
        hv = fp.hvp_ss(theta, x, s, v, fp.LOGISTIC)
        uhv = sum(float(a @ b) for a, b in zip(u, hv))
        vhu = sum(float(a @ b) for a, b in zip(v, hu))
        assert abs(uhv - vhu) <= 1e-9 * (1.0 + abs(uhv))


_shape_index = st.integers(0, len(SHAPE_POOL) - 1)


@settings(max_examples=40, deadline=None)
@given(index=_shape_index, seed=st.integers(0, 2**32 - 1),
       act=st.sampled_from([fp.LOGISTIC, fp.TANH]), scale=st.floats(0.1, 3.0))
def test_hvp_ss_is_symmetric(index, seed, act, scale):
    # <u, H v> = <H u, v> at any state, not only at fixed points
    shape, theta, x, y = make_instance(index)
    rng = np.random.default_rng(seed)
    s = random_state(shape, rng, scale)
    u = random_direction(shape, rng)
    v = random_direction(shape, rng)
    hu = fp.hvp_ss(theta, x, s, u, act)
    hv = fp.hvp_ss(theta, x, s, v, act)
    uhv = sum(float(a @ b) for a, b in zip(u, hv))
    vhu = sum(float(a @ b) for a, b in zip(v, hu))
    size = sum(float(np.abs(a) @ np.abs(b)) for a, b in zip(u, hv))
    assert abs(uhv - vhu) <= 1e-12 * (1.0 + size)


@settings(max_examples=40, deadline=None)
@given(index=_shape_index, seed=st.integers(0, 2**32 - 1),
       act=st.sampled_from([fp.LOGISTIC, fp.TANH]), eps=st.floats(1e-3, 0.05))
def test_energy_never_increases_along_the_free_euler_flow(index, seed, act, eps):
    # with eps well below 2 / lambda_max(H) every Euler step descends
    shape, theta, x, y = make_instance(index)
    rng = np.random.default_rng(seed)
    path = fp.free_path(theta, x, random_state(shape, rng), act, eps, 40)
    energies = [fp.energy(theta, x, s, act) for s in path]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-13 * (1.0 + abs(before))


def test_hvp_theta_s_zero_direction(seeded_net):
    shape, theta, x, y, act = seeded_net
    s = random_state(shape, np.random.default_rng(43))
    h = fp.hvp_theta_s(theta, x, s, shape.zero_state(), act)
    for b in h:
        np.testing.assert_array_equal(b, 0.0)


def test_hvp_theta_s_tanh_zero_state_vanishes():
    # every outer-product factor carries a rate of tanh(0) = 0
    shape = fp.NetworkShape(2, (2, 2))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    rng = np.random.default_rng(47)
    v = random_direction(shape, rng)
    h = fp.hvp_theta_s(theta, np.zeros(2), shape.zero_state(), v, fp.TANH)
    for b in h:
        np.testing.assert_array_equal(b, 0.0)


@pytest.mark.parametrize("i", range(len(SHAPE_POOL)))
def test_hvp_theta_s_matches_fd_of_gradient(i):
    shape, theta, x, y = make_instance(i)
    rng = np.random.default_rng(400 + i)
    s = random_state(shape, rng)
    v = random_direction(shape, rng)
    h = fp.hvp_theta_s(theta, x, s, v, fp.LOGISTIC)
    fd = fp.fd_hvp_theta_s(theta, x, s, v, fp.LOGISTIC)
    assert_blocks_close(h, fd, 1e-5, 1e-9)


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
def test_weight_shaped_products_are_bitwise_outer_products(act):
    # the row-filling outer products must equal plain np.outer products bit
    # for bit, signed zeros included
    shape, theta, x, y = make_instance(4)
    rng = np.random.default_rng(9)
    s = random_state(shape, rng)
    s[1][0] = 0.0
    v = random_direction(shape, rng)
    v[0][0] = -0.0
    want = fp.hvp_theta_s(theta, x, s, v, act)
    got = fp.model.CurvatureOps(theta, x, s, act).apply_theta_s(v)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]
    rho = [act.f(sk) for sk in s] + [act.f(x)]
    want = [-np.outer(rho[k], rho[k + 1]) for k in range(len(theta))]
    got = fp.grad_theta_energy(theta, x, s, act)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
def test_energy_and_grad_theta_equal_the_per_layer_rates_bit_for_bit(act):
    # both read the rates of one activation pass over the flat state; the
    # reference evaluates act.f one layer at a time, the input last.  Zero
    # and negative-zero voltages and inputs give rates of both signs of
    # zero under tanh, and outer products that carry them
    shape, theta, x, y = make_instance(4)
    s = random_state(shape, np.random.default_rng(11))
    s[0][0], s[1][1], s[2][0] = 0.0, -0.0, -0.0
    x = x.copy()
    x[1] = -0.0
    rho = [act.f(sk) for sk in s] + [act.f(x)]
    total = 0.0
    for sk in s:
        total += 0.5 * float(np.dot(sk, sk))
    for k, w in enumerate(theta):
        total -= float(rho[k] @ w @ rho[k + 1])
    assert np.float64(fp.energy(theta, x, s, act)).tobytes() == np.float64(total).tobytes()
    want = [-np.outer(rho[k], rho[k + 1]) for k in range(len(theta))]
    got = fp.grad_theta_energy(theta, x, s, act)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH, fp.HARD_SIGMOID], ids=lambda a: a.name)
@pytest.mark.parametrize("i", range(len(SHAPE_POOL)))
def test_energy_and_grad_theta_without_a_force_equal_a_forces_readout_bit_for_bit(i, act):
    # both activate the flat state and rho(x) with no force built: the
    # same activation calls on the same arrays as a `Force` evaluation
    shape, theta, x, y = make_instance(i)
    s = random_state(shape, np.random.default_rng(730 + i))
    force = fp.model.Force(theta, x, s, act).activate(fp.model.flatten(s))
    want = force.grad_theta()
    got = fp.grad_theta_energy(theta, x, s, act)
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]
    r = force.rate_layers
    total = 0.0
    for sk in s:
        total += 0.5 * float(np.dot(sk, sk))
    for k, w in enumerate(theta):
        total -= float(r[k] @ w @ r[k + 1])
    assert np.float64(fp.energy(theta, x, s, act)).tobytes() == np.float64(total).tobytes()


def test_hvp_theta_s_needs_no_curvature_but_curvature_ops_does():
    # the mixed product reads rates and slopes only, so the hard sigmoid
    # works; the operator pair also holds d2E/ds2 and rejects it
    shape, theta, x, y = make_instance(4)
    rng = np.random.default_rng(13)
    s = random_state(shape, rng, scale=2.0)
    v = random_direction(shape, rng)
    act = fp.HARD_SIGMOID
    got = fp.hvp_theta_s(theta, x, s, v, act)
    rho = [act.f(sk) for sk in s] + [act.f(x)]
    d1 = [act.df(sk) for sk in s]
    for k, b in enumerate(got):
        want = -np.outer(d1[k] * v[k], rho[k + 1])
        if k < len(theta) - 1:
            want = want - np.outer(rho[k], d1[k + 1] * v[k + 1])
        np.testing.assert_array_equal(b, want)
    with pytest.raises(UnsupportedActivationError):
        fp.model.CurvatureOps(theta, x, s, act)


def test_inf_norm_propagates_nan_from_any_block():
    assert np.isnan(fp.model.inf_norm([np.array([1.0]), np.array([np.nan])]))
    assert np.isnan(fp.model.inf_norm([np.array([np.nan]), np.array([1.0])]))
    assert fp.model.inf_norm([np.array([1.0, -3.0]), np.zeros((2, 2))]) == 3.0


# ---------------------------------------------------------------------------
# shapes and containers
# ---------------------------------------------------------------------------

def test_shape_validation():
    with pytest.raises(ShapeError):
        fp.NetworkShape(0, (1,))
    with pytest.raises(ShapeError):
        fp.NetworkShape(2, ())
    with pytest.raises(ShapeError):
        fp.NetworkShape(2, (2, 0))


def test_weight_shapes_chain():
    shape = fp.NetworkShape(3, (2, 4, 5))
    assert shape.weight_shapes() == [(2, 4), (4, 5), (5, 3)]
    assert shape.num_params == 2 * 4 + 4 * 5 + 5 * 3


def test_init_params_bounds_and_determinism():
    shape = fp.NetworkShape(4, (3, 3, 2))
    a = fp.init_params(shape, 7)
    b = fp.init_params(shape, 7)
    for wa, wb, (r, c) in zip(a, b, shape.weight_shapes()):
        np.testing.assert_array_equal(wa, wb)
        assert np.all(np.abs(wa) <= np.sqrt(6.0 / (r + c)))


@pytest.mark.parametrize("name", ["ZERO", "ONE"])
def test_the_scalar_operands_are_read_only(name):
    c = getattr(fp.model, name)
    before = float(c)
    assert c.shape == () and c.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        c[...] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(c, 1.0, out=c)
    assert float(c) == before


# ---------------------------------------------------------------------------
# max_abs: the residual of every Euler step
# ---------------------------------------------------------------------------

_max_abs_shapes = st.one_of(
    st.tuples(st.integers(1, 9)),
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=_max_abs_shapes)
def test_max_abs_is_the_numpy_max_of_abs_bit_for_bit(data, shape):
    # infinities and signed zeros included; a NaN is tested below
    v = data.draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False, width=64)))
    got = fp.model.max_abs(v)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(np.max(np.abs(v))).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_max_abs_shapes)
def test_max_abs_of_an_array_holding_a_nan_is_nan(data, shape):
    v = data.draw(arrays(np.float64, shape, elements=st.floats(width=64)))
    v.flat[data.draw(st.integers(0, v.size - 1))] = np.nan
    got = fp.model.max_abs(v)
    assert type(got) is float and math.isnan(got)


@pytest.mark.parametrize(
    "v, want",
    [
        ([np.nan, 1.0, -np.inf], np.nan),
        ([1.0, -np.inf, np.nan], np.nan),
        ([np.nan], np.nan),
        ([[0.5, np.nan], [np.inf, 2.0]], np.nan),
        ([1.0, -np.inf, 3.0], np.inf),
        ([np.inf, -2.0], np.inf),
        ([[1.0, 2.0], [-np.inf, 0.0]], np.inf),
        ([-0.0, -0.0], 0.0),
        ([[-0.0], [-0.0]], 0.0),
    ],
    ids=["nan-first", "nan-last", "nan-alone", "nan-stack", "minus-inf", "plus-inf",
         "inf-stack", "minus-zeros", "minus-zeros-stack"],
)
def test_max_abs_at_its_edges(v, want):
    got = fp.model.max_abs(np.array(v))
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("act", [fp.LOGISTIC, fp.TANH], ids=lambda a: a.name)
@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_the_cg_solve_is_a_dense_solve_at_the_free_fixed_point(index, act):
    # with max|b - H z| <= target, |z - H^-1 b|_inf <= |z - H^-1 b|_2
    # <= |b - H z|_2 / lambda_min <= sqrt(n) * target / lambda_min
    shape, theta, x, _ = make_instance(index)
    s = fp.eqprop._free_fixed_point(theta, x, act, fp.RelaxationConfig(tolerance=1e-12))
    ops = fp.model.CurvatureOps(theta, x, s, act)
    h = dense_hessian(ops)
    lam_min, n, target = np.linalg.eigvalsh(h)[0], len(h), 1e-12
    assert lam_min > 0
    b = np.random.default_rng(index).standard_normal(n)
    z = ops.solve(b, target)
    assert np.abs(b - h @ z).max() <= target
    assert np.abs(z - np.linalg.solve(h, b)).max() <= math.sqrt(n) * target / lam_min


@pytest.mark.parametrize("index", range(len(SHAPE_POOL)))
def test_the_cg_solve_refuses_an_indefinite_hessian(index):
    # tanh weights ten times their init make d2E/ds2 indefinite at a random
    # state: CG meets p.Hp <= 0 before the residual is within target
    shape, theta, x, _ = make_instance(index)
    theta = [10.0 * w for w in theta]
    rng = np.random.default_rng(index)
    for _ in range(5):
        ops = fp.model.CurvatureOps(theta, x, random_state(shape, rng), fp.TANH)
        if np.linalg.eigvalsh(dense_hessian(ops))[0] < 0:
            break
    else:
        pytest.fail("no indefinite Hessian in five draws")
    assert ops.solve(rng.standard_normal(ops.bounds[-1]), 1e-12) is None


def test_the_cg_solve_of_zero_is_zero_without_a_product(monkeypatch):
    shape, theta, x, _ = make_instance(2)
    ops = fp.model.CurvatureOps(theta, x, shape.zero_state(), fp.LOGISTIC)
    monkeypatch.setattr(ops, "apply_ss", lambda v: pytest.fail("a product for b = 0"))
    assert ops.solve(np.zeros(ops.bounds[-1]), 1e-12).tolist() == [0.0] * ops.bounds[-1]


@settings(max_examples=60, deadline=None)
@given(index=_shape_index, seed=st.integers(0, 2**32 - 1),
       act=st.sampled_from([fp.LOGISTIC, fp.TANH]), scale=st.floats(0.1, 3.0))
def test_the_dense_hessian_is_exactly_symmetric_and_the_columns_of_apply_ss(index, seed, act, scale):
    # each entry is a product of at most three factors, taken in another
    # order than `apply_ss` takes them: two roundings apart at most
    shape, theta, x, _ = make_instance(index)
    ops = fp.model.CurvatureOps(theta, x, random_state(shape, np.random.default_rng(seed), scale), act)
    h, columns = ops.dense_ss(), dense_hessian(ops)
    assert (h == h.T).all()
    assert (np.abs(h - columns) <= 2 * np.finfo(float).eps * np.abs(columns)).all()


def test_freezing_at_a_state_is_building_there_bit_for_bit():
    # `freeze` moves the operators; `apply_ss` and the residual then read as
    # those of a `CurvatureOps` built at the new state
    shape, theta, x, _ = make_instance(4)
    rng = np.random.default_rng(4)
    a, b = random_state(shape, rng), random_state(shape, rng)
    moved = fp.model.CurvatureOps(theta, x, a, fp.TANH)
    moved.freeze(fp.model.flatten(b))
    built = fp.model.CurvatureOps(theta, x, b, fp.TANH)
    v = rng.standard_normal(built.bounds[-1])
    assert moved.apply_ss(v).tobytes() == built.apply_ss(v).tobytes()
    assert moved.gradient.tobytes() == built.gradient.tobytes() and moved.residual == built.residual
