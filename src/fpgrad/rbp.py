"""Recurrent backpropagation: the error-derivative side process.

After the free phase has settled at a fixed point s0, a pair of side
variables is integrated on the same Euler grid:

    s_bar_0     = dC/ds (s0)          s_bar'     = -(d2E/ds2)(s0) . s_bar
    theta_bar_0 = dC/dW (s0)          theta_bar' = -(d2E/dW ds)(s0) . s_bar

Both Hessians are evaluated at s0, frozen: the process is linear in
s_bar.  Since the Hessian at an energy minimum is positive definite,
s_bar decays to zero and theta_bar converges to the objective gradient;
the decay of ||s_bar|| is the natural stopping certificate.  Being linear,
theta_bar_k is theta_bar_0 minus eps times the mixed product of the sum
of s_bar_0 .. s_bar_{k-1}, so the integration carries only s_bar and
that sum (`SideProcess`, built from a pair).  s_bar runs in the one Euler
loop, `dynamics._flow`, under the linear force (d2E/ds2)(s0) . s_bar
(`SideProcess.flow`), and its consumers take the sum as they read the
steps; the matched-grid sweep runs it as one more column of its stacked
nudged flow instead.  In `SideProcess.flow`, up to `_DENSE_STATES`
states, that force is one product with the Hessian written out as a
matrix (`model.CurvatureOps.dense_ss`), built from the weight blocks at
the first step; above it, the per-block `model.CurvatureOps.apply_ss`.
The sweep's column keeps its own per-block product
(`equivalence._SideColumnForce`), so below the bound the sweep and its
serial reference, which runs `SideProcess.flow`, agree to rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from . import dynamics, model
from .dynamics import RelaxationConfig
from .eqprop import GradientEstimate, _free_fixed_point
from .exceptions import ConvergenceError, DivergenceError, InstabilityError, NotAtFixedPointError
from .model import Activation, Params, State

# consecutive growth steps of ||s_bar|| before declaring the step unstable
_INSTABILITY_PATIENCE = 100
# the most states at which the side process steps on the dense Hessian: the
# largest size at which, timed per call, its product was no slower than
# `apply_ss` on every layout tried, one layer (a diagonal Hessian) the
# closest; no benchmark workload runs a side-process flow above it
_DENSE_STATES = 160


def _s_bar_norm(s_bar, _):
    """||s_bar||_inf, the side flow's residual (`model.max_abs`, inline)."""
    a = np.abs(s_bar)
    return a.item(a.argmax())


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


def _check_fixed_point(residual: float, tolerance: float) -> None:
    # written so that a NaN residual fails too
    if not residual <= tolerance:
        raise NotAtFixedPointError(
            f"state is not a converged fixed point: residual {residual:.3e} "
            f"> tolerance {tolerance:g}"
        )


def rbp_init(theta: Params, x, y, s_star: State, act: Activation, tolerance: float) -> ErrorProcessState:
    """Start the side process at a converged free fixed point."""
    _check_fixed_point(model.inf_norm(model.grad_s_energy(theta, x, s_star, act)), tolerance)
    return ErrorProcessState(
        s_bar=model.grad_s_cost(y, s_star),
        theta_bar=model.grad_theta_cost(theta, y, s_star),
        t=0.0,
    )


class SideProcess:
    """The side process in its Neumann-series form, started from a pair.

    The operators are frozen at s_star, so theta_bar is linear in the past
    s_bar: theta_bar_k = theta_bar_0 - eps * J(S_k), with J the mixed
    product d2E/dW ds and S_k = s_bar_0 + ... + s_bar_{k-1} (Liao et al.
    2018, "Reviving and Improving Recurrent Back-Propagation").  Only
    s_bar advances (`flow`, the Euler loop itself, one generator resume a
    step), and its consumer sums S_k, both flat state vectors (`endpoint`
    for the last pair of a fixed horizon); `theta_bar(S_k, eps)` forms
    the weight-shaped member of the pair where it is read.  The process
    itself holds only its start and operators, the dense Hessian among
    them once a flow has built it (`apply_ss`).
    """

    def __init__(self, p: ErrorProcessState, theta: Params, x, s_star: State, act: Activation):
        self.curvature = model.CurvatureOps(theta, x, s_star, act)
        self.theta_bar_0 = p.theta_bar
        self.s_bar_0 = model.flatten(p.s_bar)
        self._apply_ss = None

    @classmethod
    def at(cls, theta: Params, x, y, s_star: State, act: Activation, tolerance):
        """`rbp_init`'s process, checked by its own curvature's residual."""
        p = ErrorProcessState(model.grad_s_cost(y, s_star), model.grad_theta_cost(theta, y, s_star), 0.0)
        side = cls(p, theta, x, s_star, act)
        _check_fixed_point(side.curvature.residual, tolerance)
        return side

    @property
    def apply_ss(self):
        """v -> (d2E/ds2) . v, the product every flow of this process
        steps on: up to `_DENSE_STATES` states the product with the dense
        Hessian (`CurvatureOps.dense_ss`), built at the first use, else
        `CurvatureOps.apply_ss`."""
        if self._apply_ss is None:
            ops = self.curvature
            self._apply_ss = ops.dense_ss().dot if ops.bounds[-1] <= _DENSE_STATES else ops.apply_ss
        return self._apply_ss

    def flow(self, step_size: float, n_steps: int):
        """The Euler flow (`dynamics._flow`) of s_bar under `apply_ss`
        itself: yields (s_bar_k, (d2E/ds2) . s_bar_k, ||s_bar_k||_inf) for
        k = 0..n_steps, s_bar_k updated in place (copy what you keep).
        The consumer sums S_k, adding s_bar_k after it has read S_k.
        ||s_bar_k||, the flow's residual, is the stopping certificate; a
        non-finite one raises DivergenceError at t = k * eps."""
        return dynamics._flow(self.apply_ss, [self.s_bar_0], step_size, n_steps,
                              _s_bar_norm, diverged="non-finite side process at t={t!r}")

    def endpoint(self, step_size: float, n_steps: int):
        """(s_bar_n, S_n), n = n_steps: the flow run to its last step."""
        s_sum, steps = np.zeros_like(self.s_bar_0), self.flow(step_size, n_steps)
        for s_bar, _, _ in islice(steps, n_steps):
            s_sum += s_bar
        return next(steps)[0], s_sum

    def mixed(self, v: np.ndarray) -> Params:
        """J(v) = (d2E/dW ds) . v for a flat v."""
        return self.curvature.apply_theta_s(model.split(v, self.curvature.bounds))

    def theta_bar(self, s_sum: np.ndarray, step_size: float) -> Params:
        """theta_bar_k = theta_bar_0 - eps * J(S_k), in fresh blocks."""
        return [t0 - step_size * j for t0, j in zip(self.theta_bar_0, self.mixed(s_sum))]


def rbp_step(p: ErrorProcessState, theta: Params, x, s_star: State, act: Activation,
             step_size: float) -> ErrorProcessState:
    """One forward-Euler update of the pair, returned as a new state: one
    step of the `SideProcess` started from p.

    Both equations advance from the time-t values: the theta_bar update
    uses the pre-update s_bar.  The Hessians stay pinned at s_star.
    """
    side = SideProcess(p, theta, x, s_star, act)
    s_bar, s_sum = side.endpoint(step_size, 1)
    s_bar = model.split(s_bar, side.curvature.bounds)
    q = ErrorProcessState(s_bar, side.theta_bar(s_sum, step_size), p.t + step_size)
    if not model.all_finite(q.theta_bar):
        raise DivergenceError(f"non-finite side process at t={q.t!r}")
    return q


def rbp_gradient(theta: Params, x, y, act: Activation, cfg: RelaxationConfig,
                 s_free: Optional[State] = None, record: Optional[list] = None) -> GradientEstimate:
    """Objective gradient via the side process.

    Runs the free phase from the zero state (unless `s_free` is given),
    then the side process's flow with the same step size until
    ||s_bar||_inf falls below cfg.tolerance; a ConvergenceError is raised
    if that takes more than max_steps.  If the norm grows for many
    consecutive steps the step size is too large for the local curvature
    and an InstabilityError is raised.  theta_bar is formed once, from
    the sum of the s_bar, at the end, and the horizon is steps * eps.

    `record`, if given a list, receives (t, ||s_bar||_inf,
    ||delta theta_bar||_inf) tuples for decay plots, where the change of
    theta_bar over a step is eps * J(s_bar) of the pre-step s_bar.
    """
    eps = cfg.step_size
    if s_free is None:
        s_free = _free_fixed_point(theta, x, act, cfg)
    side = SideProcess.at(theta, x, y, s_free, act, cfg.tolerance)
    rising, s_sum = 0, np.zeros_like(side.s_bar_0)
    for k, (s_bar, _, norm) in enumerate(side.flow(eps, cfg.max_steps)):
        if k:
            if record is not None:
                record.append((k * eps, norm, delta))
            rising = rising + 1 if norm > last else 0
            if rising >= _INSTABILITY_PATIENCE:
                raise InstabilityError(
                    f"||s_bar|| grew for {rising} consecutive steps "
                    f"(now {norm:.3e}); step size {eps:g} is too large "
                    "for the largest curvature at this fixed point"
                )
        if norm <= cfg.tolerance:
            return GradientEstimate(side.theta_bar(s_sum, eps), "rbp", eps, horizon_t=k * eps,
                                    free_point=s_free)
        if record is not None:
            delta = eps * model.inf_norm(side.mixed(s_bar))
        s_sum += s_bar
        last = norm
    raise ConvergenceError(
        f"side process did not converge within {cfg.max_steps} steps "
        f"(||s_bar|| {norm:.3e} > tolerance {cfg.tolerance:g})"
    )
