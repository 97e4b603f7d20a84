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
block by block (`_theta_gap`).  Small blocks are multiplied out; a bound
on each other block, from per-layer maxima, then one on each row,
certifies which of its products must be too (`_blocks_max`).  No side
network runs beside the nudged one: after the shared setup
(`eqprop.second_phase`), every comparison is one Euler flow whose state
stacks its betas' nudged states as columns and s_bar as one more, and
reduces the gaps of a window of `_WINDOW` grid points in one batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import List

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


def error_process_path(theta: Params, x, y, s_star: State, act: Activation, step_size, num_steps, tolerance):
    """The side-process pair recorded at every grid point k = 0..num_steps
    of its flow (`rbp.SideProcess.flow`)."""
    eqprop.check_num_steps(num_steps)
    side = rbp.SideProcess.at(theta, x, y, s_star, act, tolerance)
    s_bars, theta_bars, s_sum = [], [], np.zeros_like(side.s_bar_0)
    for s_bar, _, _ in side.flow(step_size, num_steps):
        s_bars.append(model.split(s_bar.copy(), side.curvature.bounds))
        theta_bars.append(side.theta_bar(s_sum, step_size))
        s_sum += s_bar
    return s_bars, theta_bars


# `_block_max` multiplies out this many rows of a block with more; the
# margins cover the rounding of the row and block bounds and of the k = 3
# products, relative, and their underflow, absolute
_CERTIFIED_ROWS, _MARGIN, _TINY = 16, 1e-12, 16 * np.nextafter(0.0, 1.0)
# grid points per batch of `beta_sweep`'s gaps: more save little time and cost memory
_WINDOW = 4


def _dense_max(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """max|left[i].T @ right[i]| for each i, from factors of shapes
    (B, 3, m) and (B, 3, c); NaN where a product holds one.  The factors
    are multiplied as contiguous arrays: matmul takes another inner loop,
    which may round differently, for a strided view of the same values."""
    left, right = np.ascontiguousarray(left), np.ascontiguousarray(right)
    d = np.matmul(left.transpose(0, 2, 1), right)
    return np.abs(d, out=d).max(axis=(1, 2))


def _block_max(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """`_dense_max` of one weight block, bit for bit.  Row i of
    left[i].T @ right[i] is bounded by ub_i = sum_r |left_ri| * max_j
    |right_rj|, and only the T = _CERTIFIED_ROWS rows of largest ub are
    multiplied out.  If the (T+1)-th largest ub, widened by the margins,
    is at most the largest finite |entry| lb of those rows, or is 0 (every
    term of the other rows then rounds to 0), lb is the block's max.
    Otherwise (a NaN fails too), or with at most T rows, it is dense.  A
    one-column block is dense too: matmul takes a matrix-vector loop for
    it, whose rounding of a row depends on the number of rows.
    """
    m, top = left.shape[2], _CERTIFIED_ROWS
    if m <= top or right.shape[2] == 1:
        return _dense_max(left, right)
    ub = np.matmul(np.abs(right).max(axis=2)[:, None], np.abs(left))[:, 0]
    order = np.argpartition(ub, m - top - 1, axis=1)
    each = np.arange(len(ub))
    lb = _dense_max(left[each[:, None, None], np.arange(3)[:, None], order[:, None, m - top:]], right)
    bound = ub[each, order[:, m - top - 1]]
    held = (bound == 0) | (bound * (1.0 + _MARGIN) + _TINY <= lb) & (lb < np.inf)
    if not held.all():
        lb[~held] = _dense_max(left[~held], right[~held])
    return lb


def _blocks_max(left: np.ndarray, right: np.ndarray, bounds: list, bound=None) -> np.ndarray:
    """max over blocks k of `_dense_max(left[:, :, a:b], right[:, :, b:c])`,
    (a, b, c) = bounds[k : k + 3], bit for bit.  `bound` holds each block's
    bound sum_r max|left_r| * max|right_r| (NaN or inf with such a factor),
    taken from the factors if not given.  The blocks of at most
    `_CERTIFIED_ROWS` rows are multiplied out first, for the whole batch;
    a row where each other block's bound is 0 or, widened, at most their
    finite max is done.  In the other rows, by decreasing bound, a block
    skips `_block_max` where that holds for the running max."""
    if bound is None:
        bound = np.add.reduce(np.maximum.reduceat(np.abs(left), bounds[:-2], axis=2)
                              * np.maximum.reduceat(np.abs(right), bounds[1:-1], axis=2), axis=1)
    spans = [bounds[k : k + 3] for k in range(len(bounds) - 2)]
    small = np.array([b - a <= _CERTIFIED_ROWS for a, b, _ in spans])
    tops = [_dense_max(left[:, :, a:b], right[:, :, b:c]) for (a, b, c), s in zip(spans, small) if s]
    top = reduce(np.maximum, tops) if tops else np.zeros(len(left))
    wide = bound * (1.0 + _MARGIN) + _TINY
    held = (bound == 0) | (wide <= top[:, None]) & (top[:, None] < np.inf) | small
    if held.all():
        return top
    for k in np.argsort(-bound.max(axis=0)):
        rows = np.flatnonzero(~held[:, k])
        if len(rows):
            a, b, c = spans[k]
            top[rows] = np.maximum(top[rows], _block_max(left[rows, :, a:b], right[rows, :, b:c]))
            held |= (wide <= top[:, None]) & (top[:, None] < np.inf)
    return top


def _theta_gap(ops: model.CurvatureOps, step_size: float, betas):
    """The map (rho, S) -> ||theta_tilde_k - theta_bar_k||_inf of w grid
    points and B betas, a (w, B) array, with rho the (w, B, n) firing rates
    of the grid points' nudged states, one row per beta, and S the (w, n)
    sums S_k of the first k s_bar; `ops` holds the rates and slopes at the
    free point.

    For the block of layers a and b (b the clamped input for the last
    block), with rho* and d1* the rates and slopes at the free point,
    drho = rho_k - rho* and u = drho/beta + eps * d1* . S_k,

        theta_tilde_k - theta_bar_k = -[u_a rho*_b^T + rho*_a u_b^T + drho_a drho_b^T / beta]

    since the quadratic cost has no weight term: theta_bar_0 = 0 and the
    readout has no dC/dW part.  Over the input, which moves with neither
    process, u_b and drho_b are zero.  The cancellation between the two
    processes happens in the state-sized u and drho; one `_blocks_max`
    call reduces the blocks' (m x 3) @ (3 x c) products of the w * B
    (grid point, beta) factors.  Their bounds come from the largest |u|
    and |drho| of each layer, the largest |rho*| and |rho(x)| taken once,
    and max|drho/beta| = max|drho| / beta, exact since division by
    beta > 0 rounds monotonically.
    """
    rho, bounds = ops.rho, ops.bounds + [len(ops.rates)]
    n, betas = len(rho), np.asarray(betas, dtype=float)[:, None]
    eps_d1 = step_size * ops.slopes
    # per grid point and beta, rows (drho/beta, rho*|rho(x), u, drho), zero
    # over the input; as views, batch rows (u, rho*, drho/beta) on the left
    # and (rho*|rho(x), u, drho) on the right: block (a, b) of beta i at
    # point j is left[r, :, a:b].T @ right[r, :, b:c], r = j * B + i
    factors = np.zeros((_WINDOW, len(betas), 4, len(ops.rates)))
    factors[:, :, 1] = ops.rates
    drho_beta, u, drho = factors[:, :, 0, :n], factors[:, :, 2, :n], factors[:, :, 3, :n]
    batch = (_WINDOW * len(betas), 3, -1)
    left, right = factors[:, :, 2::-1, :n].reshape(batch), factors[:, :, 1:].reshape(batch)
    # |u| and |drho|, and the largest |rho*| of each layer and |rho(x)|
    moving, fixed = np.empty_like(factors[:, :, 2:]), np.maximum.reduceat(np.abs(ops.rates), ops.bounds)

    def gap(rho_w: np.ndarray, s_sums: np.ndarray) -> np.ndarray:
        w = len(rho_w)
        np.subtract(rho_w, rho, out=drho[:w])
        np.divide(drho[:w], betas, out=drho_beta[:w])
        np.add(drho_beta[:w], (eps_d1 * s_sums)[:, None], out=u[:w])
        # the largest |u| and |drho| of each layer and of the input (0)
        np.abs(factors[:w, :, 2:], out=moving[:w])
        mu, md = np.maximum.reduceat(moving[:w], ops.bounds, axis=3).transpose(2, 0, 1, 3)
        bound = (mu[..., :-1] * fixed[1:] + fixed[:-1] * mu[..., 1:]) + md[..., :-1] / betas * md[..., 1:]
        rows = w * len(betas)
        return _blocks_max(left[:rows], right[:rows], bounds, bound.reshape(rows, -1)).reshape(w, -1)

    return gap


def compare_processes(
    theta: Params, x, y, beta: float, num_steps: int, act: Activation, cfg: RelaxationConfig, s_free=None
) -> EquivalenceReport:
    """Run both processes for num_steps on the shared grid and report
    gaps: the sweep (`beta_sweep`) of the single beta."""
    return beta_sweep(theta, x, y, [beta], num_steps, act, cfg, s_free=s_free)[0]


class _SideColumnForce(model.Force):
    """The betas' stacked nudged force with a last column for s_bar: its
    rates are d1* . s_bar, not activated, with d1* the slopes of `ops` at
    the free point; it has no input and beta 0; its result is h =
    s_bar - d2_drive . s_bar - d1* . drive, `ops.apply_ss(s_bar)` to
    rounding, so that the flow's Euler step of it is the side process's."""

    def __init__(self, theta: Params, x, stack: State, act: Activation, y, betas, ops: model.CurvatureOps):
        super().__init__(theta, x, stack, act, y, list(betas) + [0.0])
        # no input: in a one-layer network its drive, taken once here, is the whole drive
        self.rates[len(self.rho):, -1] = self._input_drive[:, -1] = self.drive[:, -1] = 0.0
        self.ops = ops

    def activate(self, s: np.ndarray) -> "_SideColumnForce":
        super().activate(s)
        self.slopes[:, -1], self.rho[:, -1] = self.ops.slopes, self.ops.slopes * s[:, -1]
        return self

    def __call__(self, s: np.ndarray) -> np.ndarray:
        g = super().__call__(s)
        g[:, -1] -= self.ops.d2_drive * s[:, -1]
        return g


def beta_sweep(
    theta: Params, x, y, betas, num_steps: int, act: Activation, cfg: RelaxationConfig, s_free=None
) -> List[EquivalenceReport]:
    """One report per beta, all on the identical grid.

    The free fixed point is located once (unless `s_free` is given), at a
    tolerance tight enough for the smallest beta, and shared by every
    comparison.  The side process does not depend on beta and is a linear
    Euler flow, so it is one more column of the betas' stack: one Euler
    loop on the (n, B + 1) stack of the betas' nudged states and s_bar,
    started at the free point (`rbp.SideProcess.at`), takes both
    processes' products under one force (`_SideColumnForce`), and S_k is
    summed beside it.  The force g_k gives the next states, the readouts
    s_tilde_k = g_k / beta and, through its firing rates, every theta gap
    (`_theta_gap`).  Each grid point leaves g_k, its rates, s_bar_k and
    S_k in a window of `_WINDOW` points; a full window, or the last point,
    reduces them all to their gaps in one batch, bit for bit as one point
    at a time.  No weight-shaped quantity is built or carried, and memory
    grows with num_steps only by the four per-step gaps of each beta.
    Every report agrees with the serial sweep (a one-state flow per beta
    beside `rbp.SideProcess.flow`) to rounding; a repeated beta's are
    bitwise equal.
    """
    eqprop.check_num_steps(num_steps)
    betas, cfg, s_free = eqprop.second_phase(theta, x, act, cfg, betas, s_free)
    eps = cfg.step_size
    side = rbp.SideProcess.at(theta, x, y, s_free, act, cfg.tolerance)
    ops = side.curvature
    theta_gap = _theta_gap(ops, eps, betas)
    stack = model.split(np.column_stack([model.flatten(s_free)] * len(betas) + [side.s_bar_0]), ops.bounds)
    force = _SideColumnForce(theta, x, stack, act, y, betas, ops)
    # per grid point and beta: s gap, theta gap, ||s_bar||, ||s_tilde||
    per_step = np.empty((num_steps + 1, 4, len(betas)))
    # the window's force g_k and rates rho_k, one row per beta (a max along
    # a row is several times faster than one down a column), s_bar and S_k
    g_w, rho_w = np.empty((2, _WINDOW, len(betas), len(force.rho)))
    sbar_w, ssum_w = np.empty((2, _WINDOW, len(force.rho)))
    s_sum = np.zeros(len(force.rho))
    for k, (s, g, _) in enumerate(dynamics._flow(force, stack, eps, num_steps)):
        j = k % _WINDOW
        g_w[j], rho_w[j], sbar_w[j], ssum_w[j] = g[:, :-1].T, force.rho[:, :-1].T, s[:, -1], s_sum
        s_sum += s[:, -1]
        if j + 1 < _WINDOW and k < num_steps:
            continue
        out, w = per_step[k - j : k + 1], slice(j + 1)
        s_tilde = np.divide(g_w[w], force.beta[:-1, None], out=g_w[w])
        np.abs(s_tilde).max(axis=2, out=out[:, 3])
        np.abs(np.subtract(s_tilde, sbar_w[w, None], out=s_tilde), out=s_tilde).max(axis=2, out=out[:, 0])
        out[:, 1] = theta_gap(rho_w[w], ssum_w[w])
        out[:, 2] = np.abs(sbar_w[w]).max(axis=1)[:, None]
    if not np.isfinite(s_sum).all():
        raise DivergenceError(f"non-finite side process at t={num_steps * eps!r}")
    return [
        EquivalenceReport(b, eps, num_steps, s, t, sbar, stilde, max(s), max(t), max(sbar))
        for b, (s, t, sbar, stilde) in zip(betas, per_step.T.tolist())
    ]


def truncation_correspondence(
    theta: Params, x, y, beta: float, num_steps: int, act: Activation, cfg: RelaxationConfig
) -> float:
    """Normalised endpoint gap between the K-step truncated two-point
    estimate (`eqprop.truncated_eqprop_gradient`) and theta_bar after the
    same K side-process steps, both from one free fixed point."""
    eqprop.check_num_steps(num_steps)
    [beta], cfg, s_free = eqprop.second_phase(theta, x, act, cfg, [beta])
    truncated = eqprop.truncated_eqprop_gradient(theta, x, y, beta, num_steps, act, cfg, s_free).grad
    side = rbp.SideProcess.at(theta, x, y, s_free, act, cfg.tolerance)
    theta_bar = side.theta_bar(side.endpoint(cfg.step_size, num_steps)[1], cfg.step_size)
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
    _write_csvs([report], [path_or_file])


def _write_csvs(reports: List[EquivalenceReport], paths) -> None:
    """`write_equivalence_csv` of each report of one sweep to its path or
    open file.  The reports share their grid and s_bar, so the columns k,
    t and sbar_norm are formatted once; each file is written in one call."""
    first = reports[0]
    shared = [(f"{k},{k * first.step!r},", f",{sbar!r},")
              for k, sbar in zip(range(first.num_steps + 1), first.per_step_sbar_norm, strict=True)]
    for report, path in zip(reports, paths):
        columns = report.per_step_s_gap, report.per_step_theta_gap, report.per_step_stilde_norm
        rows = zip(shared, *columns, strict=True)
        with model.text_output(path) as f:
            f.write("".join(["k,t,s_gap,theta_gap,sbar_norm,stilde_norm\n"]
                            + [f"{head}{s!r},{t!r}{mid}{st!r}\n" for (head, mid), s, t, st in rows]))
