"""Matched-grid comparison of the two second-phase processes.

The error-derivative pair (s_bar, theta_bar) integrated at the frozen
free fixed point and the rescaled temporal readouts (s_tilde,
theta_tilde) of the nudged phase are run on the same Euler grid (same
step, same step count, time origin at the start of the second phase) and
compared step by step.  Matching the discretisations removes the
integrator's own error from the gap, leaving the finite-beta effect: the
per-step gaps shrink linearly as beta -> 0, which a sweep over beta
values turns into a fitted log-log slope near one.

The comparison holds no weight-sized state.  The side process carries
s_bar and the running sum of s_bar (its Neumann-series form, see
`rbp.SideProcess`), and both theta_bar and theta_tilde are sums of a few
outer products of state-sized vectors per weight block, so their
difference is formed from state-sized factors and reduced to its norm
block by block (`_theta_gap`).  The side process does not depend on
beta: after the shared setup (`eqprop.second_phase`), every comparison
zips one `rbp.SideProcess` behind the lockstep flow of its betas' nudged
phases (`eqprop.nudged_flows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional

import numpy as np

from . import eqprop, model, rbp
from .dynamics import RelaxationConfig
from .model import Activation, Params, State


@dataclass
class EquivalenceReport:
    """Step-by-step gaps between the two processes at one beta."""

    beta: float
    step: float
    num_steps: int
    per_step_s_gap: List[float]
    per_step_theta_gap: List[float]
    per_step_sbar_norm: List[float]
    per_step_stilde_norm: List[float]
    max_s_gap: float
    max_theta_gap: float
    reference_scale: float


def error_process_path(
    theta: Params,
    x,
    y,
    s_star: State,
    act: Activation,
    step_size: float,
    num_steps: int,
    tolerance: float,
):
    """The side-process pair recorded at every grid point k = 0..num_steps."""
    eqprop.check_num_steps(num_steps)
    side = rbp.SideProcess.at(theta, x, y, s_star, act, step_size, tolerance)
    s_bars, theta_bars = [], []
    for p in islice(side, num_steps + 1):
        s_bars.append(model.split(p.s_bar, p.curvature.bounds))
        theta_bars.append(p.theta_bar())
    side.check_finite()
    return s_bars, theta_bars


def _theta_gap(theta: Params, ops: model.CurvatureOps, step_size: float):
    """The map (rho_k, beta, S_k) -> ||theta_tilde_k - theta_bar_k||_inf,
    with rho_k the firing rates of the k-th nudged state at that beta and
    S_k the sum of the first k s_bar; `ops` holds the rates and slopes at
    the free point.

    For the block of layers a and b (b the clamped input for the last
    block), with rho* and d1* the rates and slopes at the free point,
    drho = rho_k - rho* and u = drho/beta + eps * d1* . S_k,

        theta_tilde_k - theta_bar_k = -[u_a rho*_b^T + rho*_a u_b^T + drho_a drho_b^T / beta]

    since the quadratic cost has no weight term: theta_bar_0 = 0 and the
    readout has no dC/dW part.  Over the input, which moves with neither
    process, u_b and drho_b are zero.  The cancellation between the two
    processes happens in the state-sized u and drho; each block is one
    (m x 3) @ (3 x n) product into one buffer, shared by every beta, then
    its max and min.
    """
    rho, bounds = ops.rho, ops.bounds + [len(ops.rates)]
    n = len(rho)
    eps_d1 = step_size * ops.slopes
    # rows (u, rho*, drho/beta) and (rho*, u, drho), the second padded with
    # (rho(x), 0, 0) over the input: block (a, b) of their product is
    # left[:, a].T @ right[:, b]
    left, right = np.empty((3, n)), np.zeros((3, len(ops.rates)))
    left[1], right[0] = rho, ops.rates
    u, drho_beta, drho = left[0], left[2], right[2, :n]
    buf = np.empty(max(w.size for w in theta))

    def gap(rho_k: np.ndarray, beta: float, s_sum: np.ndarray) -> float:
        np.subtract(rho_k, rho, out=drho)
        np.divide(drho, beta, out=drho_beta)
        np.add(drho_beta, np.multiply(eps_d1, s_sum, out=u), out=u)
        right[1, :n] = u
        worst = []
        for k, w in enumerate(theta):
            a, b, c = bounds[k : k + 3]
            out = np.matmul(left[:, a:b].T, right[:, b:c], out=buf[: w.size].reshape(w.shape))
            worst.append(max(out.max(), -out.min()))
        return float(np.max(worst))

    return gap


def compare_processes(
    theta: Params,
    x,
    y,
    beta: float,
    num_steps: int,
    act: Activation,
    cfg: RelaxationConfig,
    s_free: Optional[State] = None,
) -> EquivalenceReport:
    """Run both processes for num_steps on the shared grid and report
    gaps: the sweep (`beta_sweep`) of the single beta."""
    return beta_sweep(theta, x, y, [beta], num_steps, act, cfg, s_free=s_free)[0]


def beta_sweep(
    theta: Params,
    x,
    y,
    betas,
    num_steps: int,
    act: Activation,
    cfg: RelaxationConfig,
    s_free: Optional[State] = None,
) -> List[EquivalenceReport]:
    """One report per beta, all on the identical grid.

    The free fixed point is located once (unless `s_free` is given), at a
    tolerance tight enough for the smallest beta, and shared by every
    comparison.  The side process does not depend on beta, so one runs
    for the whole sweep; each beta's nudged phase is one Euler loop, and
    all of them advance in lockstep with it.  The force g_k of a nudged
    step gives both the next state and the readout s_tilde_k = g_k /
    beta, and its firing rates give the theta gap (see `_theta_gap`):
    neither theta_tilde nor theta_bar is ever built, no weight-shaped
    quantity is carried from one step to the next, and memory does not
    grow with num_steps beyond the four per-step lists of each beta.
    """
    eqprop.check_num_steps(num_steps)
    betas, cfg, s_free = eqprop.second_phase(theta, x, act, cfg, betas, s_free)
    eps = cfg.step_size
    side = rbp.SideProcess.at(theta, x, y, s_free, act, eps, cfg.tolerance)
    theta_gap = _theta_gap(theta, side.curvature, eps)
    forces, flow = eqprop.nudged_flows(theta, x, y, betas, s_free, act, eps, num_steps)
    reports = [EquivalenceReport(b, eps, num_steps, [], [], [], [], 0.0, 0.0, 0.0) for b in betas]
    # the flow comes first: zip stops at its end before advancing the side
    for points, p in zip(flow, side):
        sbar_norm = float(np.abs(p.s_bar).max())
        for r, force, (_, g, residual) in zip(reports, forces, points):
            r.per_step_s_gap.append(float(np.abs(g / r.beta - p.s_bar).max()))
            r.per_step_theta_gap.append(theta_gap(force.rho, r.beta, p.s_sum))
            r.per_step_sbar_norm.append(sbar_norm)
            # max|g|/beta is max|g/beta| bit for bit: dividing by a
            # positive beta is correctly rounded and monotone
            r.per_step_stilde_norm.append(residual / r.beta)
    side.check_finite()
    for r in reports:
        r.max_s_gap = max(r.per_step_s_gap)
        r.max_theta_gap = max(r.per_step_theta_gap)
        r.reference_scale = max(r.per_step_sbar_norm)
    return reports


def truncation_correspondence(
    theta: Params,
    x,
    y,
    beta: float,
    num_steps: int,
    act: Activation,
    cfg: RelaxationConfig,
) -> float:
    """Normalised endpoint gap between the K-step truncated two-point
    estimate and theta_bar after the same K side-process steps: one
    nudged flow zipped with the side process, dE/dW read from the last
    nudged force and from the side's force at the free point."""
    eqprop.check_num_steps(num_steps)
    [beta], cfg, s_free = eqprop.second_phase(theta, x, act, cfg, [beta])
    eps = cfg.step_size
    side = rbp.SideProcess.at(theta, x, y, s_free, act, eps, cfg.tolerance)
    (force,), flow = eqprop.nudged_flows(theta, x, y, [beta], s_free, act, eps, num_steps)
    for _ in zip(flow, side):
        pass
    side.check_finite()
    truncated = eqprop._two_point_gradient(force.grad_theta(), side.curvature.grad_theta(), beta)
    theta_bar = side.theta_bar()
    gap = model.inf_norm([a - b for a, b in zip(truncated, theta_bar)])
    return gap / (1.0 + model.inf_norm(theta_bar))


def fit_loglog_slope(betas, gaps) -> float:
    """Least-squares slope of log(gap) against log(beta)."""
    lx = np.log(np.asarray(betas, dtype=float))
    ly = np.log(np.asarray(gaps, dtype=float))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def summarize(reports: List[EquivalenceReport]) -> dict:
    """Max gaps per beta plus fitted slopes (None when degenerate)."""
    betas = [r.beta for r in reports]
    s_gaps = [r.max_s_gap for r in reports]
    t_gaps = [r.max_theta_gap for r in reports]
    degenerate = any(g <= 0.0 for g in s_gaps + t_gaps) or len(set(betas)) < 2
    out = {
        "betas": betas,
        "max_s_gaps": s_gaps,
        "max_theta_gaps": t_gaps,
        "reference_scales": [r.reference_scale for r in reports],
        "s_slope": None,
        "theta_slope": None,
    }
    if not degenerate:
        out["s_slope"] = fit_loglog_slope(betas, s_gaps)
        out["theta_slope"] = fit_loglog_slope(betas, t_gaps)
    return out


def write_equivalence_csv(report: EquivalenceReport, path_or_file) -> None:
    """Rows k,t,s_gap,theta_gap,sbar_norm,stilde_norm."""
    with model.text_output(path_or_file) as f:
        f.write("k,t,s_gap,theta_gap,sbar_norm,stilde_norm\n")
        for k in range(report.num_steps + 1):
            f.write(
                f"{k},{k * report.step!r},{report.per_step_s_gap[k]!r},"
                f"{report.per_step_theta_gap[k]!r},{report.per_step_sbar_norm[k]!r},"
                f"{report.per_step_stilde_norm[k]!r}\n"
            )
