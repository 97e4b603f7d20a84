"""Equilibrium propagation: two-phase gradient estimation.

The free phase relaxes to a fixed point s0 of the energy; the nudged
phase then relaxes under E + beta*C towards a nearby fixed point with
lower cost.  The objective gradient is estimated from the two endpoint
measurements

    (1/beta) * ( dE^beta/dW (s_nudged) - dE/dW (s_free) ),

which converges to the true gradient as beta -> 0.  Halting the nudged
phase after K steps instead of at convergence gives a truncated
estimate, and recording the rescaled state velocity along the way gives
the temporal-derivative process that the equivalence harness compares
against the error-derivative side process.
Every second phase, here and in `equivalence`, starts from one setup
(`second_phase`); one run to a fixed horizon is one `dynamics._flow` under
one nudged `model.Force`, which in a beta sweep has one column per beta.
gradcheck's betas relax to their fixed points as such a stack too
(`eqprop_gradients`), each column then certified by a serial phase.
Each estimator, rbp's too, reports the free fixed point it was read at
(`GradientEstimate.free_point`): its callers leave the free phase to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import dynamics, model
from .dynamics import RelaxationConfig
from .exceptions import ConfigError
from .model import Activation, Params, State

METHODS = ("rbp", "eqprop", "eqprop-truncated", "fd-oracle")


@dataclass(frozen=True)
class GradientEstimate:
    """A weight-shaped gradient plus provenance metadata, and the free fixed
    point it was read at (`free_point`, which == and repr ignore)."""

    grad: Params
    method: str
    step: float
    beta: Optional[float] = None
    horizon_t: Optional[float] = None
    free_point: Optional[State] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method '{self.method}'; expected one of {METHODS}")
        if not model.all_finite(self.grad):
            raise ValueError("gradient estimate contains non-finite entries")
        if self.method in ("eqprop", "eqprop-truncated"):
            if self.beta is None or self.beta <= 0:
                raise ValueError(f"method '{self.method}' requires beta > 0")
        elif self.beta is not None:
            raise ValueError(f"method '{self.method}' carries no beta")
        if self.method != "fd-oracle" and self.horizon_t is None:
            raise ValueError(f"method '{self.method}' requires horizon_t")


@dataclass
class TemporalProcessRecord:
    """Rescaled velocity and two-point readouts along a nudged trajectory."""

    times: List[float]
    s_tilde: List[State]
    theta_tilde: List[Params]
    beta: float


def tightened(cfg: RelaxationConfig, beta: float) -> RelaxationConfig:
    """Cap the tolerance at beta * 1e-3 so residuals survive the 1/beta
    rescaling of the second phase.  Also drops snapshot recording: none
    of the estimators read trajectories, only endpoints."""
    return replace(cfg, tolerance=min(cfg.tolerance, beta * 1e-3), record_every=0)


def _two_point_gradient(g_nudged: Params, g_free: Params, beta: float) -> Params:
    """(1/beta) * (g_nudged - g_free), formed in g_nudged, from dE^beta/dW
    at the nudged state and dE/dW at the free state.  The quadratic cost
    has no weight term (`model.grad_theta_cost` is zero), so dE^beta/dW
    is dE/dW."""
    for gn, gf in zip(g_nudged, g_free):
        gn -= gf
        gn /= beta
    return g_nudged


# The free phase's Newton finish: Euler runs down to a residual of _SWITCH
# and Newton steps take over, only where at least six decades separate the
# switch from the tolerance (at most _FINISH_BELOW): there Euler would spend
# most of its steps on the linear tail.  Nearer the switch, at XOR
# training's 1e-6 say, the free phase is plain Euler.  The steps are the
# stacks' chord loop (`dynamics._chord`), and the stacked nudged phases
# take their chord steps under the same rule (`eqprop_gradients`).
_SWITCH, _FINISH_BELOW = 1e-3, 1e-9


def _free_fixed_point(theta, x, act, cfg) -> State:
    """The free fixed point from the zero state, recording no snapshots.

    At a tolerance at most _FINISH_BELOW, for an activation with a second
    derivative, Euler stops at a residual of _SWITCH and Newton steps move
    the point on: the loop of `dynamics._chord`, with `CurvatureOps.freeze`
    as its force and `CurvatureOps.solve` to half the tolerance as its
    solve, so a step is kept only where it at least halves the residual.
    Where they take no step (a refused solve, or s - d does not halve the
    residual), Euler goes on to a residual one decade lower and they try
    again, while six decades still separate that residual from the
    tolerance.  `dynamics.relax` then certifies the point at the
    tolerance: in one evaluation if it is within it, else by Euler steps
    from it.  Euler takes at most cfg.max_steps steps in all, and a phase
    that does not converge raises plain Euler's ConvergenceError."""
    cfg = replace(cfg, record_every=0)
    finish = act.d2f is not None and cfg.tolerance <= _FINISH_BELOW
    s, traj = dynamics.relax_free(theta, x, model.zero_state_like(theta), act,
                                  replace(cfg, tolerance=_SWITCH) if finish else cfg)
    left, retries = cfg.max_steps - traj.steps_taken, 0
    while finish and traj.converged and left and traj.final_residual > cfg.tolerance:
        flat, ops = model.flatten(s), model.CurvatureOps(theta, x, s, act)
        end, _ = dynamics._chord(ops.freeze, flat, ops.gradient, lambda g: ops.solve(g, 0.5 * cfg.tolerance),
                                 cfg.tolerance)
        retries += 1
        switch = _SWITCH / 10 ** retries
        if end is not flat or switch < cfg.tolerance * (_SWITCH / _FINISH_BELOW):
            s, traj = dynamics.relax(ops, model.split(end, ops.bounds), replace(cfg, max_steps=left))
            break
        s, traj = dynamics.relax(ops, s, replace(cfg, tolerance=switch, max_steps=left))
        left -= traj.steps_taken
    return dynamics.settled_state(s, traj.final_residual, cfg, "free phase")


def check_betas(betas) -> List[float]:
    """The betas of a second phase as floats: non-empty, finite, positive,
    large enough for a positive `tightened` tolerance, non-increasing; a
    ConfigError says which rule a value breaks."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ConfigError("betas must be non-empty")
    for b in betas:
        if not math.isfinite(b):
            raise ConfigError(f"betas must be finite, got {b}")
        if not b > 0:
            raise ConfigError(f"betas must be positive, got {b}")
        if not b * 1e-3 > 0:
            raise ConfigError(f"betas must be large enough for a positive tolerance beta * 1e-3, got {b}")
    for a, b in zip(betas, betas[1:]):
        if b > a:
            raise ConfigError(f"betas must be non-increasing, got {a} before {b}")
    return betas


def check_num_steps(num_steps: int) -> None:
    """A ConfigError naming num_steps unless it is >= 0."""
    if num_steps < 0:
        raise ConfigError(f"num_steps must be >= 0, got {num_steps}")


def second_phase(theta: Params, x, act: Activation, cfg: RelaxationConfig, betas, s_free=None):
    """(betas, cfg, s_free) for a second phase: the betas checked, cfg
    tightened for the smallest, and the free fixed point located under it
    once, unless `s_free` is given."""
    betas = check_betas(betas)
    cfg = tightened(cfg, min(betas))
    if s_free is None:
        s_free = _free_fixed_point(theta, x, act, cfg)
    return betas, cfg, s_free


def eqprop_gradient(
    theta: Params,
    x,
    y,
    beta: float,
    act: Activation,
    cfg: RelaxationConfig,
    s_free: Optional[State] = None,
) -> GradientEstimate:
    """Two-fixed-point gradient estimate at influence beta > 0.

    Pass `s_free` to reuse an already-converged free fixed point; by
    default the free phase is run here, from the zero state, with the
    tolerance tightened to beta * 1e-3.  At a tightened tolerance of at
    most _FINISH_BELOW the estimate is the one column of
    `eqprop_gradients`, chord steps included; above it, one serial
    nudged phase of plain Euler, which is that column bit for bit.
    """
    [beta], tight, s_free = second_phase(theta, x, act, cfg, [beta], s_free)
    if tight.tolerance <= _FINISH_BELOW:
        return _stacked_estimates(theta, x, y, [beta], act, cfg, s_free)[0]
    g_free = model.grad_theta_energy(theta, x, s_free, act)
    return _nudged_estimate(theta, x, y, beta, s_free, act, tight, g_free, s_free)


def eqprop_gradients(theta: Params, x, y, betas, act: Activation, cfg: RelaxationConfig, s_free=None):
    """`eqprop_gradient` of each beta, in the order given (repeats too),
    from one free fixed point, located under the smallest beta's tolerance
    unless `s_free` is given.  The nudged phases relax as one stack, a beta
    per column, each to its beta's tolerance; a serial phase from each
    column then certifies it.  A column agrees with the serial estimate to
    rounding; one beta is it.

    Where every tightened tolerance is at most _FINISH_BELOW, the stack
    first takes chord steps on d2E/ds2 at s_free (`dynamics.fd_hessian`,
    `dynamics.relax_columns`): each column settles O(beta) from s_free.
    `horizon_t` counts Euler steps only, the stack's and the certifying
    phase's, so it is 0 where the chord settles a column."""
    # a second phase's betas, in any order
    _, _, s_free = second_phase(theta, x, act, cfg, sorted(betas, reverse=True), s_free)
    return _stacked_estimates(theta, x, y, betas, act, cfg, s_free)


def _stacked_estimates(theta, x, y, betas, act, cfg, s_free):
    """The estimates of `eqprop_gradients` from its free point s_free."""
    cfgs = [tightened(cfg, beta) for beta in betas]
    tolerances = [c.tolerance for c in cfgs]
    hessian = dynamics.fd_hessian(theta, x, s_free, act) if max(tolerances) <= _FINISH_BELOW else None
    stack = [np.repeat(sk[:, None], len(cfgs), axis=1) for sk in s_free]
    force = model.Force(theta, x, stack, act, y, betas)
    ends, steps = dynamics.relax_columns(force, stack, cfg, "nudged phase", tolerances, hessian)
    g_free = model.grad_theta_energy(theta, x, s_free, act)
    return [
        _nudged_estimate(theta, x, y, b, model.split(end, force.bounds), act, c, g_free, s_free, k)
        for b, c, end, k in zip(betas, cfgs, ends.T, steps.tolist())
    ]


def _nudged_estimate(theta, x, y, beta, start: State, act, cfg, g_free: Params, s_free, steps=0):
    """The two-point estimate from a nudged phase `steps` in at `start`, read from its force."""
    force = model.Force(theta, x, start, act, y, beta)
    result = dynamics.relax(force, start, cfg)
    dynamics.converged_state(result, cfg, "nudged phase")
    grad = _two_point_gradient(force.grad_theta(), g_free, beta)
    horizon = (steps + result[1].steps_taken) * cfg.step_size
    return GradientEstimate(grad, "eqprop", cfg.step_size, beta, horizon, free_point=s_free)


def truncated_eqprop_gradient(
    theta: Params,
    x,
    y,
    beta: float,
    num_steps: int,
    act: Activation,
    cfg: RelaxationConfig,
    s_free: Optional[State] = None,
) -> GradientEstimate:
    """Same two-point formula, but the nudged phase is halted after
    exactly `num_steps` Euler updates; only the current state is held.
    dE/dW is read from the nudged force at s_free, its first state, and
    at its last."""
    check_num_steps(num_steps)
    [beta], cfg, s_free = second_phase(theta, x, act, cfg, [beta], s_free)
    force = model.Force(theta, x, s_free, act, y, beta)
    for k, _ in enumerate(dynamics._flow(force, s_free, cfg.step_size, num_steps)):
        if k == 0:
            g_free = force.grad_theta()
    grad = _two_point_gradient(force.grad_theta(), g_free, beta)
    return GradientEstimate(
        grad, "eqprop-truncated", cfg.step_size, beta, num_steps * cfg.step_size, free_point=s_free
    )


def temporal_derivative_process(
    theta: Params,
    x,
    y,
    beta: float,
    num_steps: int,
    act: Activation,
    cfg: RelaxationConfig,
    s_free: Optional[State] = None,
) -> TemporalProcessRecord:
    """Record, along a K-step nudged trajectory from the free fixed point,

      s_tilde_k  = (1/beta) * d(E + beta*C)/ds at the k-th state, i.e. the
                   exact instantaneous -(1/beta) * ds/dt of the phase, and
      theta_tilde_k = the two-point gradient readout at the k-th state.

    Under explicit Euler the analytic velocity equals the forward state
    difference (s_{k+1} - s_k)/eps exactly, so no finite differencing of
    the trajectory is needed.  dE/dW is read from the nudged force.
    """
    check_num_steps(num_steps)
    [beta], cfg, s_free = second_phase(theta, x, act, cfg, [beta], s_free)
    force = model.Force(theta, x, s_free, act, y, beta)
    record = TemporalProcessRecord(times=[], s_tilde=[], theta_tilde=[], beta=beta)
    for k, (_, g, _) in enumerate(dynamics._flow(force, s_free, cfg.step_size, num_steps)):
        if k == 0:
            g_free = force.grad_theta()
        record.times.append(k * cfg.step_size)
        record.s_tilde.append(model.split(g / beta, force.bounds))
        record.theta_tilde.append(_two_point_gradient(force.grad_theta(), g_free, beta))
    return record


def write_temporal_csv(record: TemporalProcessRecord, path_or_file) -> None:
    """Rows t,kind,layer_or_block,index,value with kind in {s_tilde, theta_tilde}.

    Matrix entries are flattened row-major within their block.
    """
    with model.text_output(path_or_file) as f:
        f.write("t,kind,layer_or_block,index,value\n")
        for t, sv, tv in zip(record.times, record.s_tilde, record.theta_tilde):
            for k, layer in enumerate(sv):
                for i, val in enumerate(layer):
                    f.write(f"{t!r},s_tilde,{k},{i},{float(val)!r}\n")
            for k, block in enumerate(tv):
                for i, val in enumerate(np.ravel(block)):
                    f.write(f"{t!r},theta_tilde,{k},{i},{float(val)!r}\n")
