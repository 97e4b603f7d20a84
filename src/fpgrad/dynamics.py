"""Explicit-Euler relaxation of the free and nudged gradient dynamics.

The state follows ds/dt = -g(s) where g is either dE/ds (free phase) or
d(E + beta*C)/ds (nudged phase).  Integration is deliberately plain
explicit Euler with one shared step size: the process comparisons in the
equivalence harness need both phases and the error-derivative side
process to live on exactly the same time grid, and a higher-order
integrator would break that step-by-step alignment.

Every integrator is one Euler loop (`_flow`) on the flat state, one
float64 vector with the layers end to end (see `model.flatten`), under a
force that maps such a vector to its flat drift, such as `model.Force`,
or `model.CurvatureOps.apply_ss` for the linear rbp side process.
Lists of per-layer arrays appear only at the boundary: the initial state
in, the final state and the recorded snapshots out.  A stack of states,
one per column, relaxes as one flow that freezes each column once it
has converged (`relax_columns`): the oracle's probes and gradcheck's betas.
A stack that starts at a fixed point and settles near it may first take
chord steps on one dense Hessian (`fd_hessian`), so that Euler is left
only what they do not settle.
"""

from __future__ import annotations

import contextvars
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List

import numpy as np

from . import model
from .exceptions import ConfigError, ConvergenceError, DivergenceError
from .model import Activation, Params, State

FlatForce = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RelaxationConfig:
    """Euler integration settings.

    `tolerance` is a threshold on the infinity norm of the driving
    gradient; `record_every` = 0 records only the endpoints of a
    trajectory.
    """

    step_size: float = 0.1
    max_steps: int = 100_000
    tolerance: float = 1e-8
    record_every: int = 0

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ConfigError(f"step_size must be positive and finite, got {self.step_size}")
        if not 0 < self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.record_every < 0:
            raise ConfigError(f"record_every must be >= 0, got {self.record_every}")


@dataclass
class Trajectory:
    """Recorded snapshots of one relaxation, aligned with times t_k = k*eps."""

    times: List[float]
    states: List[State]
    converged: bool
    steps_taken: int
    final_residual: float


def relax(force: FlatForce, s_init: State, cfg: RelaxationConfig):
    """Run the Euler flow (`_flow`) from s_init until the residual
    max|force(s)| drops below tolerance or max_steps is reached.

    Returns (final state, Trajectory), both in per-layer form.
    Convergence is checked before stepping: a start within tolerance is
    certified by that one evaluation and comes back unchanged, with its
    one-snapshot trajectory built directly, without starting the flow.
    """
    s, bounds = model.flatten(s_init), model.layer_bounds(s_init)
    with np.errstate(over="ignore", invalid="ignore"):  # as in `_flow`
        g = force(s)
    residual = model.max_abs(g)
    if residual <= cfg.tolerance:
        return model.split(s, bounds), Trajectory([0.0], [model.split(s.copy(), bounds)], True, 0, residual)
    eps, every, tol, last = cfg.step_size, cfg.record_every, cfg.tolerance, cfg.max_steps
    times, snapshots = [0.0], [s.copy()]
    for k, (s, _, residual) in enumerate(_flow(force, [s], eps, last, g=g)):
        if residual <= tol or k == last:
            break
        if every and k and not k % every:
            times.append(k * eps)
            snapshots.append(s.copy())
    times.append(k * eps)
    snapshots.append(s.copy())
    states = [model.split(v, bounds) for v in snapshots]
    return model.split(s, bounds), Trajectory(times, states, residual <= tol, k, residual)


def converged_state(result, cfg: RelaxationConfig, phase: str) -> State:
    """The final state of a `relax` result (state, Trajectory) run under
    cfg, or a ConvergenceError naming the phase if it did not converge."""
    s, traj = result
    return settled_state(s, traj.final_residual, cfg, phase)


def settled_state(s, residual: float, cfg: RelaxationConfig, phase: str):
    """s, the last state of a flow run for at most cfg.max_steps steps, if
    its residual is within cfg.tolerance, else a ConvergenceError naming
    the phase."""
    if not residual <= cfg.tolerance:
        raise ConvergenceError(
            f"{phase} did not converge within {cfg.max_steps} steps "
            f"(residual {residual:.3e} > tolerance {cfg.tolerance:g})"
        )
    return s


def relax_free(theta: Params, x, s_init: State, act: Activation, cfg: RelaxationConfig):
    """Relax under the energy gradient alone, towards a free fixed point."""
    return relax(model.Force(theta, x, s_init, act), s_init, cfg)


def relax_nudged(
    theta: Params,
    x,
    y,
    beta: float,
    s_init: State,
    act: Activation,
    cfg: RelaxationConfig,
):
    """Relax under the augmented gradient d(E + beta*C)/ds, beta >= 0.

    Warns when the tolerance is loose relative to beta: downstream
    consumers divide residual-sized quantities by beta, so the free
    fixed point feeding this phase should be located to well below
    beta * 1e-3.
    """
    model.check_beta(beta)
    if beta > 0 and cfg.tolerance > beta * 1e-3:
        warnings.warn(
            f"relaxation tolerance {cfg.tolerance:g} is loose relative to "
            f"beta {beta:g}; rescaled-velocity readouts divide by beta and "
            "will inherit the residual noise",
            stacklevel=2,
        )
    return relax(model.Force(theta, x, s_init, act, y, beta), s_init, cfg)


def _flow(force: FlatForce, s_init: State, step_size: float, n_steps: int,
          norm=None, g=None, diverged="non-finite state at step {k}"):
    """The one Euler loop: yields (s_k, g_k, residual_k) for k =
    0..n_steps, g_k the force at s_k and s_{k+1} = s_k - eps * g_k.  The
    residual is max|g_k| (`model.max_abs`, taken inline), or `norm(s_k,
    g_k)`, a Python float, which may edit g_k.  s_k is a copy of s_init
    updated in place (copy what you keep); g_k is fresh, g_0 the caller's
    `g` if given.  A non-finite residual, the initial one included,
    raises DivergenceError at its step, with the message `diverged`
    formatted with the step k and the time t = k * eps.  numpy keeps its
    error state in a context variable: the loop runs in a copy of the
    caller's context that ignores overflow (it surfaces in the residual),
    so the setting never reaches the consumer."""
    if not 0 < step_size < math.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    eps = np.array(step_size, dtype=float)  # a faster operand than the float, same bits

    def euler(s: np.ndarray, g):
        if g is None:
            g = force(s)
        for k in range(n_steps + 1):
            if k:
                s -= eps * g
                g = force(s)
            if norm is None:
                a = np.abs(g)
                residual = a.item(a.argmax())
            else:
                residual = norm(s, g)
            # a non-finite component anywhere surfaces in the residual
            if not math.isfinite(residual):
                raise DivergenceError(diverged.format(k=k, t=k * step_size), step=k)
            yield s, g, residual

    ctx = contextvars.copy_context()
    ctx.run(np.seterr, over="ignore", invalid="ignore")
    return iter(partial(ctx.run, next, euler(model.flatten(s_init), g)), None)


def relax_columns(force: FlatForce, stack: State, cfg: RelaxationConfig, phase: str, tolerance=None,
                  hessian=None):
    """The column-freezing relaxation: the flat (n, B) endpoint of a stack
    of B states and each column's step count.  A column stops, as a serial
    `relax` of it would, once max|g[:, j]| is within its tolerance (one per
    column, default cfg.tolerance), and its count is the step it stopped
    at, written then.  The column maxima, one reduction a step, give the
    flow's residual, read at their `argmax` as `model.max_abs` reads it,
    0 once no column moves; one still moving after cfg.max_steps raises
    a ConvergenceError.

    `hessian`, a dense n x n matrix taken at the stack's common start
    (`fd_hessian`), first moves every column by chord steps (`_chord`);
    the Euler flow then starts where they stop, a column they settled
    freezing at step 0, so the counts are Euler steps only.  Without it,
    or where the chord takes no step, the flow is plain Euler's bit for
    bit."""
    steps = np.full(np.shape(stack[0])[1], -1)
    tol = np.broadcast_to(cfg.tolerance if tolerance is None else tolerance, steps.shape)
    k = frozen = 0

    def moving(s, g):
        nonlocal k, frozen
        col = np.maximum.reduce(np.abs(g), axis=0)
        done = col <= tol  # never for a NaN, which then diverges
        n = np.count_nonzero(done)
        if n:
            g[:, done] = col[done] = 0.0
            if n > frozen:  # a frozen column stays frozen: its force is unchanged
                steps[done & (steps < 0)], frozen = k, n
        k += 1
        return col.item(col.argmax())

    start, g = model.flatten(stack), None
    if hessian is not None and _positive_definite(hessian):
        with np.errstate(over="ignore", invalid="ignore"):  # as in `_flow`
            start, g = _chord(force, start, hessian, tol)
    for s, g, residual in _flow(force, [start], cfg.step_size, cfg.max_steps, moving, g):
        if not residual:
            return s, steps
    worst = np.abs(g).max(axis=0).argmax()  # a moving column, past its tolerance
    return settled_state(s, residual, replace(cfg, tolerance=float(tol[worst])), phase), steps


def _positive_definite(h: np.ndarray) -> bool:
    """Whether np.linalg.cholesky accepts h, with a finite factor."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(h)).all())
    except np.linalg.LinAlgError:
        return False


def _chord(force: FlatForce, s: np.ndarray, hessian: np.ndarray, tol):
    """Chord steps s <- s - H^-1 force(s) on every column of the flat stack
    s at once, one `np.linalg.solve` a step: the last point kept and its
    force.  They run only where some column starts above its tolerance
    `tol`: a stack within tolerance comes back as it was, as `relax`
    certifies a start.  A step is kept only where it at least halves the
    stack's max|force|, and the steps stop at the first that does not, at
    the rounding floor at the latest, so that where they settle a column
    its point does not depend on the stack around it.  A non-finite force
    at the start is left to the flow, which raises at step 0; one at a
    trial point raises DivergenceError here."""
    g = force(s)
    if not (np.maximum.reduce(np.abs(g), axis=0) > tol).any():
        return s, g
    residual, j = model.max_abs(g), 0
    while 0 < residual < math.inf:
        j += 1
        trial = s - np.linalg.solve(hessian, g)
        g_trial = force(trial)
        r = model.max_abs(g_trial)
        if not math.isfinite(r):
            raise DivergenceError(f"non-finite state at chord step {j}, before Euler step 0", step=0)
        if not r <= 0.5 * residual:
            break
        s, g, residual = trial, g_trial, r
    return s, g


def fd_hessian(theta: Params, x, s: State, act: Activation) -> np.ndarray:
    """d2E/ds2 at s as a dense n x n matrix, symmetrised: central
    differences of dE/ds, the 2n states s +/- h e_i (h = 1e-5) evaluated
    as the columns of one stacked `model.Force`.  It reads no closed-form
    curvature (`model.CurvatureOps`), only the force the relaxations run."""
    v, h = model.flatten(s), 1e-5
    n = len(v)
    shift = h * np.eye(n)
    stack = np.concatenate([v[:, None] + shift, v[:, None] - shift], axis=1)
    force = model.Force(theta, x, model.split(stack, model.layer_bounds(s)), act)
    g = force(stack)
    d = (g[:, :n] - g[:, n:]) / (2.0 * h)
    return 0.5 * (d + d.T)


def path(force: FlatForce, s_init: State, step_size: float, n_steps: int):
    """Run exactly n_steps Euler updates, recording every state.

    Returns a list of n_steps + 1 states including the initial one.
    """
    bounds = model.layer_bounds(s_init)
    return [model.split(s.copy(), bounds) for s, _, _ in _flow(force, s_init, step_size, n_steps)]


def free_path(theta: Params, x, s_init: State, act: Activation, step_size: float, n_steps: int):
    return path(model.Force(theta, x, s_init, act), s_init, step_size, n_steps)


def nudged_path(
    theta: Params,
    x,
    y,
    beta: float,
    s_init: State,
    act: Activation,
    step_size: float,
    n_steps: int,
):
    model.check_beta(beta)
    return path(model.Force(theta, x, s_init, act, y, beta), s_init, step_size, n_steps)


def free_endpoint(theta: Params, x, s_init: State, act: Activation, step_size: float, n_steps: int) -> State:
    """Final state of a fixed-horizon free flow, without recording."""
    for s, _, _ in _flow(model.Force(theta, x, s_init, act), s_init, step_size, n_steps):
        pass
    return model.split(s, model.layer_bounds(s_init))


def write_trajectory_csv(traj: Trajectory, path_or_file) -> None:
    """One row per recorded state component: t,layer,index,value."""
    with model.text_output(path_or_file) as f:
        f.write("t,layer,index,value\n")
        for t, s in zip(traj.times, traj.states):
            for k, layer in enumerate(s):
                for i, val in enumerate(layer):
                    f.write(f"{t!r},{k},{i},{float(val)!r}\n")
