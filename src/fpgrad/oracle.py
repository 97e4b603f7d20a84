"""Independent numerical oracles for everything the analytic code claims.

These functions never call the analytic derivative being checked: the
objective gradient is probed by re-relaxing the network under perturbed
weights (all probes as one column-freezing stack, `dynamics.relax_columns`,
each then certified under the one force all probes share), Hessian-vector products by
differencing first derivatives, and the two structural identities (the
backward equation of the projected cost, and the envelope derivative of
the relaxed augmented energy) by direct evaluation.  Keeping this module self-contained is the point; do
not "optimise" it by routing through the closed forms it exists to
audit.  The one input it may take from the code under test is a free
fixed point to start its reference relaxation from.  It relaxes from
that point under its own tolerance, so its reference is a fixed point
whatever it is given, and every difference it forms comes from its own
perturbed relaxations; the point only picks the fixed point audited.

Warm probes first take chord steps on a dense d2E/ds2 at the reference
point, by central differences of the force they relax under
(`dynamics.fd_hessian`), never by `model.CurvatureOps.apply_ss`, the
closed form under audit.  It only speeds them up: each probe's point is
still the one its own force certifies under the oracle's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics, model
from .dynamics import RelaxationConfig
from .eqprop import GradientEstimate
from .exceptions import BasinJumpError, ConfigError
from .model import Activation, Params, State

# perturbed relaxations that land farther than this from the reference
# fixed point (infinity norm) are assumed to have left its basin
BASIN_JUMP_THRESHOLD = 0.5

# hysteresis-suppression tolerance for oracle relaxations
_ORACLE_TOLERANCE = 1e-12

# perturbed networks relaxed as one stack: memory stays O(N * _STACK_COLUMNS)
_STACK_COLUMNS = 64


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference settings: central scheme only.

    `warm_start` reuses the unperturbed fixed point as the initial state
    of every perturbed relaxation, keeping all evaluations in one basin.
    """

    delta: float = 1e-4
    scheme: str = "central"
    warm_start: bool = True

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ConfigError(f"delta must be positive and finite, got {self.delta}")
        if self.scheme != "central":
            raise ConfigError(f"unsupported scheme '{self.scheme}'")


def _steps_for(t: float, step_size: float) -> int:
    if t < 0:
        raise ValueError(f"duration must be >= 0, got {t}")
    n = t / step_size
    n_round = round(n)
    if abs(n - n_round) > 1e-9 * max(1.0, abs(n)):
        raise ValueError(
            f"duration {t!r} is not an integer multiple of step size {step_size!r}"
        )
    return int(n_round)


def projected_cost(
    theta: Params,
    x,
    y,
    s_init: State,
    t: float,
    act: Activation,
    cfg: RelaxationConfig,
) -> float:
    """Cost of the state reached by relaxing freely from s_init for
    duration t (exactly t/eps Euler steps, no early stopping)."""
    n = _steps_for(t, cfg.step_size)
    s_end = dynamics.free_endpoint(theta, x, s_init, act, cfg.step_size, n)
    return model.cost(y, s_end)


def _relaxed_fixed_point(force, s_init, cfg):
    return dynamics.converged_state(dynamics.relax(force, s_init, cfg), cfg, "oracle relaxation")


def _relaxed_stack(theta: Params, x, start: State, act: Activation, probes, cfg: RelaxationConfig,
                   hessian=None):
    """The flat (N, B) endpoint of the B perturbed networks of `probes`,
    relaxed as one stack from `start` by `dynamics.relax_columns`, first
    by chord steps on `hessian` if given.

    Probe (k, i, j, d) adds d to W_k[i, j].  Every column shares the
    weight blocks of one stacked `model.Force`, and its own force is the
    shared one less slopes * the rank-one change of its drive: d * rho_j
    in drive_k[i] and, unless layer k + 1 is the input, d * rho_i in
    drive_{k+1}[j].
    """
    width = len(probes)
    stack = [np.repeat(sk[:, None], width, axis=1) for sk in start]
    shared = model.Force(theta, x, stack, act)
    bounds = np.array(shared.bounds)
    k, i, j, d = (np.array(c) for c in zip(*probes))
    rows_i, rows_j, cols = bounds[k] + i, bounds[k + 1] + j, np.arange(width)
    inner = rows_j < bounds[-1]
    # flat offsets into the (rows, width) buffers: where each change goes,
    # and the rate it scales
    cols = np.concatenate([cols, cols[inner]])
    at = np.concatenate([rows_i, rows_j[inner]]) * width + cols
    rate_at = np.concatenate([rows_j, rows_i[inner]]) * width + cols
    d = np.concatenate([d, d[inner]])

    def force(s):
        g = shared(s)
        flat = g.ravel()
        flat[at] = flat.take(at) - shared.slopes.take(at) * d * shared.rates.take(rate_at)
        return g

    return dynamics.relax_columns(force, stack, cfg, "oracle relaxation", hessian=hessian)[0]


def fd_objective_gradient(
    theta: Params,
    x,
    y,
    act: Activation,
    cfg: RelaxationConfig,
    fd: FDConfig = None,
    s_free: State = None,
) -> GradientEstimate:
    """Central difference of the objective J = cost at the free fixed point,
    one relaxation per perturbed weight entry and sign.

    All relaxations use a tolerance tightened to 1e-12.  The reference
    relaxation starts from `s_free` if given, else from the zero state,
    and with warm_start the perturbed ones begin at its fixed point.  The
    oracle stays independent of a caller's point: it re-certifies it
    under its own tolerance, and the costs come only from its own
    perturbed relaxations.  Euler is deterministic, so from a free point
    located under a looser tolerance the reference retraces the
    zero-start flow bit for bit; from one located under a tighter one
    (eqprop's beta * 1e-3 for beta < 1e-9) the result may move in its
    trailing digits.

    The perturbed networks relax together, up to _STACK_COLUMNS at a
    time, as one stack (`_relaxed_stack`).  Warm, each probe settles
    O(delta) from the reference point, and the stack first takes chord
    steps s <- s - H^-1 g(s) on H = d2E/ds2 there, by central differences
    of the unperturbed force (`dynamics.fd_hessian`): a few steps reach the
    rounding floor, where Euler would walk the linear tail.  H comes from
    the oracle's own force, not from the closed forms under audit, and a
    wrong H could only slow the probes down, since a step that does not
    halve the residual is dropped.  Cold probes take plain Euler.  Each
    probe is then certified
    by a serial `relax` under its exact perturbed weights, started from
    its column, which settles the last bits that the stacked products
    round differently; `relax` certifies a column within tolerance by one
    evaluation and runs the flow only where it is not.  Each probe sets its
    entry in one private copy of the weights and then restores it; the
    caller's theta is never written.  One `model.Force` on that copy
    serves the reference and every probe: an input-block probe retakes
    the input's drive (`Force.take_input_drive`) when it sets its entry
    and again when it restores it.  A certified fixed point landing
    farther than BASIN_JUMP_THRESHOLD from the unperturbed one aborts the
    probe, since the objective is only differentiable within one basin.
    """
    fd = fd or FDConfig()
    tight = replace(
        cfg, tolerance=min(cfg.tolerance, _ORACLE_TOLERANCE), record_every=0
    )
    zero = model.zero_state_like(theta)
    s_init = zero if s_free is None else s_free
    probed = model.copy_blocks(theta)
    force = model.Force(probed, x, s_init, act)
    s0 = _relaxed_fixed_point(force, s_init, tight)
    start = s0 if fd.warm_start else zero
    # warm probes start at s0 and settle O(delta) from it: chord steps on d2E/ds2 there
    hessian = dynamics.fd_hessian(theta, x, s0, act) if fd.warm_start else None
    bounds, s0_flat = model.layer_bounds(s0), model.flatten(s0)
    probes = [
        (k, i, j, sign * fd.delta)
        for k, w in enumerate(theta)
        for i, j in np.ndindex(*w.shape)
        for sign in (1.0, -1.0)
    ]

    def set_entry(k, i, j, value):
        probed[k][i, j] = value
        if k == len(theta) - 1:
            force.take_input_drive()

    costs = []
    for first in range(0, len(probes), _STACK_COLUMNS):
        chunk = probes[first:first + _STACK_COLUMNS]
        ends = _relaxed_stack(theta, x, start, act, chunk, tight, hessian)
        for c, (k, i, j, d) in enumerate(chunk):
            set_entry(k, i, j, theta[k][i, j] + d)
            sp = _relaxed_fixed_point(force, model.split(ends[:, c], bounds), tight)
            set_entry(k, i, j, theta[k][i, j])
            drift = model.max_abs(model.flatten(sp) - s0_flat)
            if drift > BASIN_JUMP_THRESHOLD:
                raise BasinJumpError(
                    f"perturbed relaxation settled {drift:.3f} away from the "
                    "reference fixed point; finite difference would straddle basins"
                )
            costs.append(model.cost(y, sp))
    grad = model.zero_params_like(theta)
    for (k, i, j, _), j_plus, j_minus in zip(probes[0::2], costs[0::2], costs[1::2]):
        grad[k][i, j] = (j_plus - j_minus) / (2.0 * fd.delta)
    return GradientEstimate(grad=grad, method="fd-oracle", step=cfg.step_size)


def _directional_difference(grad, theta: Params, x, s: State, v: State, act: Activation, fd: FDConfig):
    """Directional central difference of `grad` (dE/ds or dE/dW) along v."""
    fd = fd or FDConfig(delta=1e-5)
    scale = np.sqrt(sum(float(np.dot(vk, vk)) for vk in v))
    if scale == 0.0:
        return [np.zeros_like(g) for g in grad(theta, x, s, act)]
    unit = [vk / scale for vk in v]
    h = fd.delta
    g_plus = grad(theta, x, model.add_scaled(s, h, unit), act)
    g_minus = grad(theta, x, model.add_scaled(s, -h, unit), act)
    return [(gp - gm) * (scale / (2.0 * h)) for gp, gm in zip(g_plus, g_minus)]


def fd_hvp_ss(theta: Params, x, s: State, v: State, act: Activation, fd: FDConfig = None) -> State:
    """Directional central difference of dE/ds along v."""
    return _directional_difference(model.grad_s_energy, theta, x, s, v, act, fd)


def fd_hvp_theta_s(theta: Params, x, s: State, v: State, act: Activation, fd: FDConfig = None) -> Params:
    """Directional central difference of dE/dW along a state direction v."""
    return _directional_difference(model.grad_theta_energy, theta, x, s, v, act, fd)


def check_backward_identity(
    theta: Params,
    x,
    y,
    s: State,
    t: float,
    act: Activation,
    cfg: RelaxationConfig,
    fd: FDConfig = None,
) -> float:
    """Residual of dL/dt + <dL/ds, dE/ds> at (s, t), where L(s, t) is the
    projected cost.  Along the free flow the projected cost is constant,
    which is exactly this identity; a small residual certifies the
    projected-cost machinery numerically.

    dL/dt is a central difference over one integration step (forward at
    t = 0); dL/ds is a central difference per state component.
    """
    fd = fd or FDConfig()
    eps = cfg.step_size
    n = _steps_for(t, eps)
    if n == 0:
        l0 = projected_cost(theta, x, y, s, 0.0, act, cfg)
        l1 = projected_cost(theta, x, y, s, eps, act, cfg)
        dl_dt = (l1 - l0) / eps
    else:
        l_plus = projected_cost(theta, x, y, s, (n + 1) * eps, act, cfg)
        l_minus = projected_cost(theta, x, y, s, (n - 1) * eps, act, cfg)
        dl_dt = (l_plus - l_minus) / (2.0 * eps)
    g = model.grad_s_energy(theta, x, s, act)
    dot = 0.0
    for k in range(len(s)):
        for i in range(s[k].shape[0]):
            sp = model.copy_blocks(s)
            sp[k][i] += fd.delta
            l_plus = projected_cost(theta, x, y, sp, n * eps, act, cfg)
            sp[k][i] -= 2.0 * fd.delta
            l_minus = projected_cost(theta, x, y, sp, n * eps, act, cfg)
            dot += (l_plus - l_minus) / (2.0 * fd.delta) * g[k][i]
    return abs(dl_dt + dot)


def check_dbeta_energy_identity(
    theta: Params,
    x,
    y,
    beta: float,
    act: Activation,
    cfg: RelaxationConfig,
    fd: FDConfig = None,
) -> float:
    """Residual of d/db [E + b*C](s at the b-fixed-point) = C at the
    b-fixed-point, evaluated at b = beta by central difference.

    This envelope identity is what makes the two-point estimator work:
    the state's own sensitivity drops out at a fixed point.  The probe
    relaxes under E + b*C for b = beta +/- delta directly (b may pass
    slightly below zero when beta = 0; the blended energy still has a
    nearby minimum for |b| small).
    """
    model.check_beta(beta)
    fd = fd or FDConfig()
    tight = replace(
        cfg, tolerance=min(cfg.tolerance, _ORACLE_TOLERANCE), record_every=0
    )
    zero = model.zero_state_like(theta)
    s0 = _relaxed_fixed_point(model.Force(theta, x, zero, act), zero, tight)

    def relaxed_value(b):
        sb = _relaxed_fixed_point(model.Force(theta, x, s0, act, y, b), s0, tight)
        return model.energy(theta, x, sb, act) + b * model.cost(y, sb), sb

    f_plus, _ = relaxed_value(beta + fd.delta)
    f_minus, _ = relaxed_value(beta - fd.delta)
    _, s_beta = relaxed_value(beta)
    return abs((f_plus - f_minus) / (2.0 * fd.delta) - model.cost(y, s_beta))


def gradient_report(estimate: Params, reference: Params, tol: float, floor: float) -> dict:
    """Per-block comparison of two weight-shaped gradients.

    An entry passes when |est - ref| <= max(tol * |ref|, floor); the
    reported relative error is |est - ref| / max(|ref|, floor / tol), so
    the block passes iff max_rel_error <= tol; a NaN entry makes its
    block's and the overall max_rel_error NaN, and fails.
    """
    blocks = []
    for k, (est, ref) in enumerate(zip(estimate, reference)):
        err = np.abs(np.asarray(est) - np.asarray(ref))
        denom = np.maximum(np.abs(ref), floor / tol)
        rel = err / denom
        worst = int(np.argmax(rel))
        blocks.append(
            {
                "block": k,
                "max_rel_error": float(np.max(rel)),
                "mean_rel_error": float(np.mean(rel)),
                "worst_index": [int(i) for i in np.unravel_index(worst, np.shape(ref))],
            }
        )
    overall_max = float(np.max([b["max_rel_error"] for b in blocks]))
    return {
        "tolerance": tol,
        "floor": floor,
        "max_rel_error": overall_max,
        "passed": overall_max <= tol,
        "blocks": blocks,
    }
