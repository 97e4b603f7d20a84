"""Matched-grid comparison of the two second-phase processes.

The error-derivative pair (s_bar, theta_bar) integrated at the frozen
free fixed point and the rescaled temporal readouts (s_tilde,
theta_tilde) of the nudged phase are run on the same Euler grid (same
step, same step count, time origin at the start of the second phase) and
compared step by step.  Matching the discretisations removes the
integrator's own error from the gap, leaving the finite-beta effect: the
per-step gaps shrink linearly as beta -> 0, which a sweep over beta
values turns into a fitted log-log slope near one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional

import numpy as np

from . import dynamics, eqprop, model, rbp
from .dynamics import RelaxationConfig
from .exceptions import DivergenceError
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
    side = rbp.side_process(theta, x, y, s_star, act, step_size, tolerance)
    s_bars, theta_bars = [], []
    for p in islice(side, num_steps + 1):
        s_bars.append(model.copy_blocks(p.s_bar))
        theta_bars.append(model.copy_blocks(p.theta_bar))
    _check_side_finite(p)
    return s_bars, theta_bars


def _check_side_finite(p: rbp.ErrorProcessState) -> None:
    if not (model.all_finite(p.s_bar) and model.all_finite(p.theta_bar)):
        raise DivergenceError("non-finite side process during recording")


def _inf_gap(a, b, scratch) -> float:
    """inf_norm(a - b), with |a - b| held in `scratch`."""
    return max(
        float(np.max(np.abs(np.subtract(ak, bk, out=w), out=w)))
        for ak, bk, w in zip(a, b, scratch)
    )


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
    """Run both processes for num_steps on the shared grid and report gaps.

    The side process and the readouts of the nudged path advance together
    and each grid point is reduced to its four norms at once.  The
    weight-shaped work lives in a few blocks allocated per call, so memory
    does not grow with num_steps: only the state-sized nudged path and the
    four per-step lists do.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    cfg = eqprop.tightened(cfg, beta)
    if s_free is None:
        s_free = eqprop._free_fixed_point(theta, x, act, cfg)
    side = rbp.side_process(theta, x, y, s_free, act, cfg.step_size, cfg.tolerance)
    states = dynamics.nudged_path(theta, x, y, beta, s_free, act, cfg.step_size, num_steps)
    g_free = model.grad_theta_energy(theta, x, s_free, act)
    theta_tilde = [np.empty(w.shape) for w in theta]
    scratch = [np.empty(w.shape) for w in theta]
    s_gaps, theta_gaps, sbar_norms, stilde_norms = [], [], [], []
    for sk, p in zip(states, side):
        s_tilde = eqprop._rescaled_velocity(theta, x, y, beta, sk, act)
        eqprop._two_point_gradient(theta, x, y, beta, g_free, sk, act, out=theta_tilde)
        s_gaps.append(model.inf_norm([a - b for a, b in zip(s_tilde, p.s_bar)]))
        theta_gaps.append(_inf_gap(theta_tilde, p.theta_bar, scratch))
        sbar_norms.append(model.inf_norm(p.s_bar))
        stilde_norms.append(model.inf_norm(s_tilde))
    _check_side_finite(p)
    return EquivalenceReport(
        beta=beta,
        step=cfg.step_size,
        num_steps=num_steps,
        per_step_s_gap=s_gaps,
        per_step_theta_gap=theta_gaps,
        per_step_sbar_norm=sbar_norms,
        per_step_stilde_norm=stilde_norms,
        max_s_gap=max(s_gaps),
        max_theta_gap=max(theta_gaps),
        reference_scale=max(sbar_norms),
    )


def beta_sweep(
    theta: Params,
    x,
    y,
    betas,
    num_steps: int,
    act: Activation,
    cfg: RelaxationConfig,
) -> List[EquivalenceReport]:
    """One report per beta on the identical grid.

    The free fixed point is located once, at a tolerance tight enough for
    the smallest beta, and shared by every comparison.
    """
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be non-empty")
    for b in betas:
        if b <= 0:
            raise ValueError(f"betas must be positive, got {b}")
    for a, b in zip(betas, betas[1:]):
        if b > a:
            raise ValueError(f"betas must be non-increasing, got {a} before {b}")
    cfg = eqprop.tightened(cfg, min(betas))
    s_free = eqprop._free_fixed_point(theta, x, act, cfg)
    return [compare_processes(theta, x, y, b, num_steps, act, cfg, s_free=s_free) for b in betas]


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
    estimate and theta_bar after the same K side-process steps."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    cfg = eqprop.tightened(cfg, beta)
    s_free = eqprop._free_fixed_point(theta, x, act, cfg)
    truncated = eqprop.truncated_eqprop_gradient(
        theta, x, y, beta, num_steps, act, cfg, s_free=s_free
    )
    side = rbp.side_process(theta, x, y, s_free, act, cfg.step_size, cfg.tolerance)
    p = next(islice(side, num_steps, None))
    _check_side_finite(p)
    gap = model.inf_norm([a - b for a, b in zip(truncated.grad, p.theta_bar)])
    return gap / (1.0 + model.inf_norm(p.theta_bar))


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
    close = False
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        f = open(path_or_file, "w")
        close = True
    else:
        f = path_or_file
    try:
        f.write("k,t,s_gap,theta_gap,sbar_norm,stilde_norm\n")
        for k in range(report.num_steps + 1):
            f.write(
                f"{k},{k * report.step!r},{report.per_step_s_gap[k]!r},"
                f"{report.per_step_theta_gap[k]!r},{report.per_step_sbar_norm[k]!r},"
                f"{report.per_step_stilde_norm[k]!r}\n"
            )
    finally:
        if close:
            f.close()
