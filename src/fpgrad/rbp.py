"""Recurrent backpropagation: the error-derivative side process.

After the free phase has settled at a fixed point s0, a pair of side
variables is integrated on the same Euler grid:

    s_bar_0     = dC/ds (s0)          s_bar'     = -(d2E/ds2)(s0) . s_bar
    theta_bar_0 = dC/dW (s0)          theta_bar' = -(d2E/dW ds)(s0) . s_bar

Both Hessians are evaluated at s0, frozen: the process is linear in
s_bar.  Since the Hessian at an energy minimum is positive definite,
s_bar decays to zero and theta_bar converges to the objective gradient;
the decay of ||s_bar|| is the natural stopping certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import model
from .dynamics import RelaxationConfig
from .eqprop import GradientEstimate, _free_fixed_point
from .exceptions import (
    ConvergenceError,
    DivergenceError,
    InstabilityError,
    NotAtFixedPointError,
)
from .model import Activation, Params, State

# consecutive growth steps of ||s_bar|| before declaring the step unstable
_INSTABILITY_PATIENCE = 100


@dataclass
class ErrorProcessState:
    """The side-process pair at one instant.

    `s_bar` is the sensitivity of the projected cost to the starting
    state; `theta_bar` accumulates the parameter gradient; `t` is the
    process time.
    """

    s_bar: State
    theta_bar: Params
    t: float


def rbp_init(theta: Params, x, y, s_star: State, act: Activation, tolerance: float) -> ErrorProcessState:
    """Start the side process at a converged free fixed point."""
    residual = model.inf_norm(model.grad_s_energy(theta, x, s_star, act))
    if residual > tolerance:
        raise NotAtFixedPointError(
            f"state is not a converged fixed point: residual {residual:.3e} "
            f"> tolerance {tolerance:g}"
        )
    return ErrorProcessState(
        s_bar=model.grad_s_cost(y, s_star),
        theta_bar=model.grad_theta_cost(theta, y, s_star),
        t=0.0,
    )


def _step_raw(
    curvature: model.CurvatureOps,
    p: ErrorProcessState,
    step_size: float,
    work: tuple = (None, None),
) -> None:
    """Advance the pair one forward-Euler step in place.

    `work` is the (out, scratch) pair of weight-shaped blocks that
    `CurvatureOps.apply_theta_s` may fill instead of allocating.
    """
    h_ss = curvature.apply_ss(p.s_bar)
    h_ts = curvature.apply_theta_s(p.s_bar, *work)
    p.s_bar = [sb - step_size * hb for sb, hb in zip(p.s_bar, h_ss)]
    for tb, hb in zip(p.theta_bar, h_ts):
        hb *= step_size
        tb -= hb
    p.t += step_size


def side_process(
    theta: Params, x, y, s_star: State, act: Activation, step_size: float, tolerance: float
):
    """An endless iterator over the pair at k = 0, 1, 2, ... steps.

    Every item is the same ErrorProcessState, advanced in place, and the
    weight-shaped work of a step reuses two sets of blocks allocated once
    here, so running K steps holds no K-long history.  Copy what must
    outlive the next step.  The fixed-point check runs at the call.
    """
    p = rbp_init(theta, x, y, s_star, act, tolerance)
    curvature = model.CurvatureOps(theta, x, s_star, act)
    work = tuple([np.empty(w.shape) for w in theta] for _ in range(2))

    def steps():
        while True:
            yield p
            _step_raw(curvature, p, step_size, work)

    return steps()


def rbp_step(
    p: ErrorProcessState,
    theta: Params,
    x,
    s_star: State,
    act: Activation,
    step_size: float,
) -> ErrorProcessState:
    """One forward-Euler update of the pair, returned as a new state.

    Both equations advance from the time-t values: the theta_bar update
    uses the pre-update s_bar.  The Hessians stay pinned at s_star.
    """
    q = ErrorProcessState(model.copy_blocks(p.s_bar), model.copy_blocks(p.theta_bar), p.t)
    _step_raw(model.CurvatureOps(theta, x, s_star, act), q, step_size)
    if not (model.all_finite(q.s_bar) and model.all_finite(q.theta_bar)):
        raise DivergenceError(f"non-finite side process at t={q.t!r}")
    return q


def rbp_gradient(
    theta: Params,
    x,
    y,
    act: Activation,
    cfg: RelaxationConfig,
    s_free: Optional[State] = None,
    record: Optional[list] = None,
) -> GradientEstimate:
    """Objective gradient via the side process.

    Runs the free phase from the zero state (unless `s_free` is given),
    then integrates the side process with the same step size until
    ||s_bar||_inf falls below cfg.tolerance; a ConvergenceError is raised
    if that takes more than max_steps.  If the norm grows for many
    consecutive steps the step size is too large for the local curvature
    and an InstabilityError is raised.

    `record`, if given a list, receives (t, ||s_bar||_inf,
    ||delta theta_bar||_inf) tuples for decay plots.
    """
    eps = cfg.step_size
    if s_free is None:
        s_free = _free_fixed_point(theta, x, act, cfg)
    side = side_process(theta, x, y, s_free, act, eps, cfg.tolerance)
    p = next(side)
    norm = model.inf_norm(p.s_bar)
    rising = 0
    steps = 0
    while norm > cfg.tolerance and steps < cfg.max_steps:
        previous = model.copy_blocks(p.theta_bar) if record is not None else None
        next(side)
        new_norm = model.inf_norm(p.s_bar)
        if not np.isfinite(new_norm):
            raise DivergenceError(f"non-finite side process at t={p.t!r}")
        if record is not None:
            delta = model.inf_norm(
                [a - b for a, b in zip(p.theta_bar, previous)]
            )
            record.append((p.t, new_norm, delta))
        if new_norm > norm:
            rising += 1
            if rising >= _INSTABILITY_PATIENCE:
                raise InstabilityError(
                    f"||s_bar|| grew for {rising} consecutive steps "
                    f"(now {new_norm:.3e}); step size {eps:g} is too large "
                    "for the largest curvature at this fixed point"
                )
        else:
            rising = 0
        norm = new_norm
        steps += 1
    if norm > cfg.tolerance:
        raise ConvergenceError(
            f"side process did not converge within {cfg.max_steps} steps "
            f"(||s_bar|| {norm:.3e} > tolerance {cfg.tolerance:g})"
        )
    return GradientEstimate(
        grad=p.theta_bar,
        method="rbp",
        step=eps,
        horizon_t=p.t,
    )


def write_error_process_csv(rows: List[tuple], path_or_file) -> None:
    """Per-step decay dump: t,norm_sbar,norm_thetabar_delta."""
    close = False
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        f = open(path_or_file, "w")
        close = True
    else:
        f = path_or_file
    try:
        f.write("t,norm_sbar,norm_thetabar_delta\n")
        for t, ns, nd in rows:
            f.write(f"{float(t)!r},{float(ns)!r},{float(nd)!r}\n")
    finally:
        if close:
            f.close()
