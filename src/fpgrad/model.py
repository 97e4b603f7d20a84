"""Layered energy network: energy, cost, and their analytic derivatives.

The network is a chain of L neuron layers plus a clamped input vector:

    s_0  --W_0--  s_1  --W_1--  ...  --W_{L-2}--  s_{L-1}  --W_{L-1}--  x

Layer 0 is the output layer where predictions are read; the index grows
towards the input, which is the reverse of the usual feed-forward
numbering.  Weight matrix k couples layer k to layer k+1, and the last
matrix couples the innermost hidden layer to the clamped input x.  The
energy of a state s = (s_0, ..., s_{L-1}) is

    E(s) = 1/2 * sum_k ||s_k||^2
           - sum_{k<L-1} rho(s_k)^T W_k rho(s_{k+1})
           - rho(s_{L-1})^T W_{L-1} rho(x)

with rho a pointwise firing-rate nonlinearity applied elementwise.  The
quadratic cost 1/2 * ||y - s_0||^2 penalises the output layer's distance
to a target y, and the augmented energy E + beta*C blends the two.

Everything here is a pure function: first derivatives of E in the state
and in the weights, the cost and its derivatives, and the two
Hessian-vector products (d2E/ds2 . v and d2E/dtheta ds . v) that drive
the gradient estimators.  All are closed-form and cross-checked against
finite differences in the test suite.

States and parameters are plain lists of float64 arrays: State is a list
of L vectors (entry k of dimension d_k), Params a list of L matrices
(matrix k of shape d_k x d_{k+1}, with d_L meaning the input dimension).
The relaxations run on the flat state instead, the L vectors laid end to
end in one float64 vector (`flatten`, `split`), under the one force
kernel `Force`.  dE/ds and both curvature products read the rates,
slopes and drive of a `Force` evaluation; the energy and dE/dW read the
rates alone, from the same activation calls with no force built.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, Optional

import numpy as np

from .exceptions import ShapeError, UnsupportedActivationError

State = List[np.ndarray]
Params = List[np.ndarray]


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# read-only 0-d operands of the per-step calls: numpy dispatches a 0-d
# array faster than a Python number, with the same result
ZERO, ONE = np.zeros(()), np.ones(())
ZERO.flags.writeable = ONE.flags.writeable = False


def _logistic(v):
    # e = exp(-|v|) never overflows, and 1/(1+e) for v >= 0, e/(1+e) below,
    # are bit for bit the two branches of the piecewise form; min(v, -v)
    # gives -|v| while keeping the sign of a NaN, which -abs(v) would not;
    # e <= 1, so max(e, v >= 0) is 1 for v >= 0 and e (a NaN too) below
    v = np.asarray(v, dtype=float)
    e = np.exp(np.minimum(v, -v))
    return np.maximum(e, v >= ZERO) / (ONE + e)


def _logistic_rate_slope(v):
    f = _logistic(v)
    return f, f * (ONE - f)


def _logistic_d1(v):
    return _logistic_rate_slope(v)[1]


def _logistic_d2(v):
    f = _logistic(v)
    return f * (1.0 - f) * (1.0 - 2.0 * f)


def _tanh_rate_slope(v):
    t = np.tanh(v)
    return t, ONE - t * t


def _tanh_d1(v):
    return _tanh_rate_slope(v)[1]


def _tanh_d2(v):
    t = np.tanh(v)
    return -2.0 * t * (1.0 - t * t)


def _hard_sigmoid(v):
    return np.clip(np.asarray(v, dtype=float), 0.0, 1.0)


def _hard_sigmoid_d1(v):
    v = np.asarray(v, dtype=float)
    return ((v > 0.0) & (v < 1.0)).astype(float)


@dataclass(frozen=True)
class Activation:
    """Pointwise firing-rate nonlinearity with its analytic derivatives.

    `d2f` may be None for activations whose second derivative does not
    exist (piecewise-linear ones); operations that need curvature reject
    those explicitly.  `f_df`, if given, returns (f(v), df(v)) from one
    evaluation of f, bit for bit the pair of separate calls.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_df: Optional[Callable[[np.ndarray], tuple]] = None

    def rate_slope(self, v):
        """(f(v), df(v)): the firing rates and their slopes."""
        if self.f_df is None:
            return self.f(v), self.df(v)
        return self.f_df(v)

    def require_curvature(self) -> None:
        if self.d2f is None:
            raise UnsupportedActivationError(
                f"activation '{self.name}' has no second derivative; "
                "Hessian-based operations need a twice-differentiable activation"
            )


LOGISTIC = Activation("logistic", _logistic, _logistic_d1, _logistic_d2, _logistic_rate_slope)
TANH = Activation("tanh", np.tanh, _tanh_d1, _tanh_d2, _tanh_rate_slope)
HARD_SIGMOID = Activation("hard-sigmoid", _hard_sigmoid, _hard_sigmoid_d1, None)

ACTIVATIONS = {a.name: a for a in (LOGISTIC, TANH, HARD_SIGMOID)}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except (KeyError, TypeError):  # TypeError: a list or object, unhashable
        raise UnsupportedActivationError(
            f"unknown activation '{name}'; available: {sorted(ACTIVATIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# shapes and containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetworkShape:
    """Layer layout of a network.

    `layer_dims[0]` is the width of the output (read-out) layer and
    `layer_dims[-1]` the hidden layer adjacent to the clamped input.
    """

    input_dim: int
    layer_dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if self.input_dim < 1:
            raise ShapeError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.layer_dims) < 1:
            raise ShapeError("need at least one layer")
        for k, d in enumerate(self.layer_dims):
            if d < 1:
                raise ShapeError(f"layer {k} has non-positive width {d}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims)

    def weight_shapes(self) -> list:
        """Shape of each weight matrix; the last one couples to the input."""
        dims = list(self.layer_dims) + [self.input_dim]
        return [(dims[k], dims[k + 1]) for k in range(self.num_layers)]

    @property
    def num_params(self) -> int:
        return sum(r * c for r, c in self.weight_shapes())

    def zero_state(self) -> State:
        return [np.zeros(d) for d in self.layer_dims]


@dataclass(frozen=True)
class Sample:
    """One supervised pair: input vector x, target vector y."""

    x: np.ndarray
    y: np.ndarray


def _check_params_chain(theta: Params) -> None:
    if len(theta) < 1:
        raise ShapeError("parameter list is empty")
    for k, w in enumerate(theta):
        if np.ndim(w) != 2:
            raise ShapeError(f"weight matrix {k} is not 2-D")
    for k in range(len(theta) - 1):
        if theta[k].shape[1] != theta[k + 1].shape[0]:
            raise ShapeError(
                f"weight matrices {k} and {k + 1} disagree on the width of "
                f"layer {k + 1}: {theta[k].shape[1]} vs {theta[k + 1].shape[0]}"
            )


def _check_network(theta: Params, x: np.ndarray, s: State) -> None:
    _check_params_chain(theta)
    if len(s) != len(theta):
        raise ShapeError(f"state has {len(s)} layers, weights imply {len(theta)}")
    # a stack of states carries one trailing axis, the same on every layer
    stack = np.shape(s[0])[1:2]
    for k, (w, sk) in enumerate(zip(theta, s)):
        if np.shape(sk) != (w.shape[0],) + stack:
            raise ShapeError(
                f"layer {k} has width {np.shape(sk)}, expected {(w.shape[0],) + stack}"
            )
    if np.shape(x) != (theta[-1].shape[1],):
        raise ShapeError(
            f"input has shape {np.shape(x)}, expected ({theta[-1].shape[1]},)"
        )


def validate_params(shape: NetworkShape, theta: Params) -> None:
    """Check a weight list against a layout, including finiteness."""
    expected = shape.weight_shapes()
    if len(theta) != len(expected):
        raise ShapeError(f"expected {len(expected)} weight matrices, got {len(theta)}")
    for k, (w, exp) in enumerate(zip(theta, expected)):
        if np.shape(w) != exp:
            raise ShapeError(f"weight matrix {k} has shape {np.shape(w)}, expected {exp}")
        if not np.all(np.isfinite(w)):
            raise ShapeError(f"weight matrix {k} contains non-finite entries")


# ---------------------------------------------------------------------------
# block-vector arithmetic helpers
# ---------------------------------------------------------------------------

def inf_norm(blocks) -> float:
    """Max absolute entry across a list of arrays; NaN if any entry is NaN."""
    return float(np.max([np.max(np.abs(b)) for b in blocks]))


def max_abs(v: np.ndarray) -> float:
    """max|v| as a Python float, NaN if v holds one (`argmax` finds the
    first NaN): read at its `argmax`, about half the cost of a ufunc
    reduction on a few entries, and exact, as any max is."""
    a = np.abs(v)
    return a.item(a.argmax())


def add_scaled(a, c: float, b):
    """Elementwise a + c*b over matching block lists."""
    return [ai + c * bi for ai, bi in zip(a, b)]


def _outer(a, b, out):
    """np.outer(a, b, out=out), bit for bit: filling the rows with b and
    scaling each row by its entry of a runs about twice as fast on a
    256 x 256 block."""
    out[...] = b
    out *= a[:, None]
    return out


def copy_blocks(blocks):
    return [np.array(b, dtype=float) for b in blocks]


def layer_bounds(s: State) -> list:
    """Offsets of the layers in the flat state: layer k is v[b[k]:b[k+1]]."""
    return list(accumulate((len(sk) for sk in s), initial=0))


def flatten(s: State) -> np.ndarray:
    """The layers of s end to end, in a fresh float64 vector."""
    return np.concatenate(s).astype(float, copy=False)


def split(v: np.ndarray, bounds: list) -> State:
    """The layer views of a flat state."""
    return [v[a:b] for a, b in zip(bounds, bounds[1:])]


def all_finite(blocks) -> bool:
    return all(np.all(np.isfinite(b)) for b in blocks)


def zero_state_like(theta: Params) -> State:
    return [np.zeros(w.shape[0]) for w in theta]


def zero_params_like(theta: Params) -> Params:
    return [np.zeros_like(w) for w in theta]


@contextmanager
def text_output(path_or_file):
    """A text file to write: `path_or_file` opened for writing (and closed
    afterwards) if it is a path, else the open file itself."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w") as f:
            yield f
    else:
        yield path_or_file


# ---------------------------------------------------------------------------
# energy and cost
# ---------------------------------------------------------------------------

def _rate_layers(theta: Params, x, s: State, act: Activation) -> list:
    """rho(s_0), ..., rho(s_{L-1}), rho(x), as a `Force` evaluation at s holds them."""
    _check_network(theta, x, s)
    return split(act.f(flatten(s)), layer_bounds(s)) + [act.f(np.asarray(x, dtype=float))]


def _grad_theta(theta: Params, r: list) -> Params:
    """dE/dW = -r_k r_{k+1}^T from the rates r of `_rate_layers`."""
    return [_outer(-r[k], r[k + 1], np.empty(w.shape)) for k, w in enumerate(theta)]


def energy(theta: Params, x: np.ndarray, s: State, act: Activation) -> float:
    """Scalar energy of a state given clamped input x."""
    r = _rate_layers(theta, x, s, act)
    total = 0.0
    for sk in s:
        total += 0.5 * float(np.dot(sk, sk))
    for k, w in enumerate(theta):
        total -= float(r[k] @ w @ r[k + 1])
    return total


class Force:
    """d(E + beta*C)/ds as a function of the flat state: the negated
    velocity of the free relaxation (no target) or of the nudged one.

    Built once per relaxation: the network is checked against the layout
    of the state `s`, the buffers are allocated, the weight matrices bound
    and the clamped input's drive W_{L-1} rho(x) taken.  The entries of
    the weight blocks may change in place; after a change to the input
    block W_{L-1}, `take_input_drive` retakes its drive.  `activate` evaluates
    the activation once over the whole state (`Activation.rate_slope`)
    into `rates`, whose tail holds rho(x), pinned, and `slopes`; a call
    activates, writes the drive into one buffer block by block (no dense
    N x N matrix), and adds the nudge to the output layer.  `rho` (the
    head of `rates`), `slopes` and `drive` then hold the rates, slopes and
    drive of the state evaluated last, which `grad_theta` and
    `apply_theta_s` read.  Any real beta is accepted (see `check_beta`).

    A stack of B free states, each layer of shape (d_k, B), is evaluated
    in the same pass: the flat state, the rates and the drive then carry
    the trailing axis, rho(x) is broadcast along it, and each block of the
    drive is one matrix product.  A column agrees with the one-state
    evaluation to rounding, not bit for bit.  A nudged stack shares one
    target y, as wide as the output layer, and takes one beta or one per
    column; a one-column stack is the one-state force bit for bit.
    """

    def __init__(self, theta: Params, x, s: State, act: Activation, y=None, beta=0.0):
        _check_network(theta, x, s)
        self.bounds = bounds = layer_bounds(s)
        n, stack = bounds[-1], np.shape(s[0])[1:]
        if np.shape(beta) not in ((), stack):
            raise ShapeError(f"beta has shape {np.shape(beta)}, expected () or {stack}")
        if y is not None:
            y = _target(y, [np.asarray(s[0])[:, 0]])[:, None] if stack else _target(y, s)
        self.theta, self.act, self.y, self.beta = theta, act, y, np.asarray(beta, dtype=float)
        self.rates = np.empty((n + len(x),) + stack)
        rho_x = act.f(np.asarray(x, dtype=float))
        self.rates[n:] = rho_x.reshape(rho_x.shape + (1,) * len(stack))
        self.rho = self.rates[:n]
        # the layers' rates, then the input's
        self.rate_layers = split(self.rates, bounds + [len(self.rates)])
        self.drive = np.empty((n,) + stack)
        r, a = self.rate_layers, split(self.drive, bounds)
        self.take_input_drive()
        # (W_k, r_{k+1}, drive_k) and (W_k^T, r_k, drive_{k+1}) between
        # layers, the innermost layer's last: it adds to the input's drive
        self._down = list(zip(theta[:-1], r[1:-1], a[:-1]))
        up = list(zip([w.T for w in theta[:-1]], r, a[1:]))
        self._up, self._up_innermost = up[:-1], up[-1:]

    def take_input_drive(self) -> None:
        """Take the clamped input's drive W_{L-1} rho(x), at construction and
        after W_{L-1} changes; in a one-layer network it is the whole drive."""
        a = self.drive[self.bounds[-2]:]
        self._input_drive = np.dot(self.theta[-1], self.rate_layers[-1], out=a).copy()

    def activate(self, s: np.ndarray) -> "Force":
        """The force, holding the rates and slopes of the flat state s."""
        self.rho[...], self.slopes = self.act.rate_slope(s)
        return self

    def __call__(self, s: np.ndarray) -> np.ndarray:
        self.activate(s)
        # total synaptic input to each layer, W_k rho(next), then += W_{k-1}^T rho(prev);
        # the innermost layer's W_{L-1} rho(x) is the one taken at construction
        for w, r, a in self._down:
            w.dot(r, out=a)
        for w, r, a in self._up:
            a += w.dot(r)
        for w, r, a in self._up_innermost:
            np.add(self._input_drive, w.dot(r), out=a)
        g = s - self.slopes * self.drive
        if self.y is not None:
            n = self.bounds[1]
            g[:n] += self.beta * (s[:n] - self.y)
        return g

    def grad_theta(self) -> Params:
        """dE/dW at the state evaluated last (`_grad_theta`)."""
        return _grad_theta(self.theta, self.rate_layers)

    def _check_direction(self, v: State) -> None:
        got = [np.shape(vk) for vk in v]
        want = [(b - a,) for a, b in zip(self.bounds, self.bounds[1:])]
        if got != want:
            raise ShapeError(f"direction has layer shapes {got}, state has {want}")

    def apply_theta_s(self, v: State) -> Params:
        """(d2E/dW ds) . v at the state evaluated last: sensitivity of each
        synaptic outer product to a state perturbation.  The clamped input
        contributes no perturbation term to the last matrix."""
        self._check_direction(v)
        r, d1 = self.rate_layers, split(self.slopes, self.bounds)
        out = []
        for k, w in enumerate(self.theta):
            b = _outer(-(d1[k] * v[k]), r[k + 1], np.empty(w.shape))
            if k < len(self.theta) - 1:
                b -= _outer(r[k], d1[k + 1] * v[k + 1], np.empty(w.shape))
            out.append(b)
        return out


def grad_s_energy(theta: Params, x: np.ndarray, s: State, act: Activation) -> State:
    """dE/ds; its negative is the velocity of the free relaxation."""
    force = Force(theta, x, s, act)
    return split(force(flatten(s)), force.bounds)


def grad_theta_energy(theta: Params, x: np.ndarray, s: State, act: Activation) -> Params:
    """dE/dW as one outer product of firing rates per weight matrix."""
    return _grad_theta(theta, _rate_layers(theta, x, s, act))


def _target(y, s: State) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if np.shape(y) != np.shape(s[0]):
        raise ShapeError(
            f"target has shape {np.shape(y)}, output layer has {np.shape(s[0])}"
        )
    return y


def cost(y: np.ndarray, s: State) -> float:
    """Quadratic readout cost 1/2 * ||y - s_0||^2."""
    d = _target(y, s) - s[0]
    return 0.5 * float(np.dot(d, d))


def grad_s_cost(y: np.ndarray, s: State) -> State:
    """dC/ds: s_0 - y on the output layer, zero elsewhere."""
    y = _target(y, s)
    out = [np.zeros_like(sk) for sk in s]
    out[0] = s[0] - y
    return out


def grad_theta_cost(theta: Params, y: np.ndarray, s: State) -> Params:
    """dC/dW, identically zero: the quadratic cost has no weight term."""
    return zero_params_like(theta)


def check_beta(beta: float) -> None:
    """A ValueError naming beta unless it is finite and >= 0."""
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def grad_s_augmented(
    theta: Params,
    x: np.ndarray,
    y: np.ndarray,
    s: State,
    beta: float,
    act: Activation,
) -> State:
    """d(E + beta*C)/ds for a finite beta >= 0."""
    check_beta(beta)
    force = Force(theta, x, s, act, y, beta)
    return split(force(flatten(s)), force.bounds)


# ---------------------------------------------------------------------------
# second-order operators
# ---------------------------------------------------------------------------

class CurvatureOps(Force):
    """Both second-derivative products of the energy at one frozen state:
    the free `Force` evaluated once at s, plus the curvature of its drive.

    Everything that depends only on (theta, x, s) is computed once at
    construction, so repeatedly applying the operators to different
    directions (the inner loop of the error-derivative process) costs only
    the matrix-vector work; calling it as a force again would move the
    state it is frozen at, and `freeze` moves it, with its buffers kept.
    `apply_ss` maps a flat direction to a flat product, and `solve` takes
    a flat right-hand side through it; `dense_ss` writes the same operator
    out as a matrix, for small states, where one matrix-vector product
    costs less than `apply_ss`'s per-block dispatches; `apply_theta_s`
    takes a direction in per-layer form.
    """

    def __init__(self, theta: Params, x: np.ndarray, s: State, act: Activation):
        act.require_curvature()
        super().__init__(theta, x, s, act)
        # W_k (d1 v)_{k+1} into layers 0..L-2 and W_k^T (d1 v)_k into layers
        # 1..L-1: one product per block, one buffer per side, flat rows [0, m) and [n0, n)
        n0, m, n = self.bounds[1], self.bounds[-2], self.bounds[-1]
        self._dv, self._coupled = np.empty(n), (np.empty(m), np.empty(n - n0))
        (down, up), dv, inner = self._coupled, split(self._dv, self.bounds), list(enumerate(theta[:-1]))
        down, up = split(down, self.bounds[:-1]), split(up, [b - n0 for b in self.bounds[1:]])
        self._products = [(w, dv[k + 1], down[k]) for k, w in inner] + [(w.T, dv[k], up[k]) for k, w in inner]
        self.freeze(flatten(s))

    def freeze(self, v: np.ndarray) -> None:
        """Freeze the operators at the flat state v: the force there
        (`gradient`, dE/ds), its max|dE/ds| (`residual`), the slopes and
        the curvature of the drive."""
        self.gradient = self(v)
        self.residual = max_abs(self.gradient)
        # curvature of the leak-plus-drive term, diagonal per layer
        self.d2_drive = self.act.d2f(v) * self.drive
        (down, up), n0, m = self._coupled, self.bounds[1], self.bounds[-2]
        self._sides = [(slice(0, m), self.slopes[:m], down), (slice(n0, None), self.slopes[n0:], up)]

    def apply_ss(self, v: np.ndarray) -> np.ndarray:
        """(d2E/ds2) . v for a flat direction v: diagonal curvature of each
        layer plus coupling through the weights to both neighbours (the
        clamped input carries no direction component)."""
        h = v - self.d2_drive * v
        np.multiply(self.slopes, v, out=self._dv)
        for w, dv, out in self._products:
            np.matmul(w, dv, out=out)
        for rows, d1, coupling in self._sides:
            h[rows] -= d1 * coupling
        return h

    def dense_ss(self) -> np.ndarray:
        """d2E/ds2 as a dense (n, n) matrix, from the terms `apply_ss`
        applies: 1 - d2_drive on the diagonal, -d1_k W_k d1_{k+1} in the
        coupling block of layers k and k+1 and its transpose in theirs of
        k+1 and k, so that the matrix is exactly symmetric.  A product
        with it is `apply_ss`'s to rounding."""
        b, d1 = self.bounds, self.slopes
        h = np.zeros((b[-1], b[-1]))
        np.fill_diagonal(h, 1.0 - self.d2_drive)
        for k, w in enumerate(self.theta[:-1]):
            rows, cols = slice(b[k], b[k + 1]), slice(b[k + 1], b[k + 2])
            h[rows, cols] = block = -(d1[rows, None] * w * d1[cols])
            h[cols, rows] = block.T
        return h

    def solve(self, b: np.ndarray, target: float) -> Optional[np.ndarray]:
        """z with max|b - (d2E/ds2) . z| <= target, by conjugate gradients
        on `apply_ss` from z = 0, reading the residual of the recurrence; or
        None, the solve refused: where a search direction p meets p.Hp <= 0
        (the Hessian is not positive definite here), or where the residual
        is not within target after as many products as the state has
        entries, when CG would have converged in exact arithmetic."""
        z, r, p = np.zeros_like(b), b.copy(), b.copy()
        rr = r @ r
        for _ in range(len(b)):
            if max_abs(r) <= target:
                break
            hp = self.apply_ss(p)
            curvature = p @ hp
            if not curvature > 0:
                return None
            a = rr / curvature
            z += a * p
            r -= a * hp
            rr, last = r @ r, rr
            p *= rr / last
            p += r
        return z if max_abs(r) <= target else None


def hvp_ss(theta: Params, x: np.ndarray, s: State, v: State, act: Activation) -> State:
    """Hessian-vector product (d2E/ds2) . v, evaluated analytically."""
    ops = CurvatureOps(theta, x, s, act)
    ops._check_direction(v)
    return split(ops.apply_ss(flatten(v)), ops.bounds)


def hvp_theta_s(theta: Params, x: np.ndarray, s: State, v: State, act: Activation) -> Params:
    """Mixed product (d2E/dW ds) . v; needs no second derivative of the
    activation."""
    return Force(theta, x, s, act).activate(flatten(s)).apply_theta_s(v)


# ---------------------------------------------------------------------------
# seeded construction
# ---------------------------------------------------------------------------

def init_params(shape: NetworkShape, rng) -> Params:
    """Fan-balanced uniform weight init, +/- sqrt(6/(fan_in+fan_out))."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    theta = []
    for rows, cols in shape.weight_shapes():
        bound = np.sqrt(6.0 / (rows + cols))
        theta.append(rng.uniform(-bound, bound, size=(rows, cols)))
    return theta


def random_instance(shape: NetworkShape, seed: int):
    """Seeded (weights, input, target) triple for checks and demos."""
    rng = np.random.default_rng(seed)
    theta = init_params(shape, rng)
    x = rng.uniform(-1.0, 1.0, size=shape.input_dim)
    y = rng.uniform(-1.0, 1.0, size=shape.layer_dims[0])
    return theta, x, y
