"""Per-call time of the model kernels, with FLOP and byte counts computed
from the network shape.

The kernels are timed through their public functions in `fpgrad.model`
at a workload's shape and free fixed point.  The counts are computed
from the shape alone, not measured and not traced through the numpy
calls: each pass over an a x b weight block (a matrix-vector or an outer
product) costs 2ab FLOPs and 8ab bytes, and each elementwise pass over
the state costs 1 FLOP and 16 bytes per unit.  Caches are ignored.
"""

from __future__ import annotations

import statistics
import time

KERNELS = ("grad_s_energy", "hvp_ss", "hvp_theta_s", "grad_theta_energy")

# kernel: (passes over each state-state block, over the input block,
# elementwise passes over the state)
_PASSES = {
    "grad_s_energy": (2, 1, 4),
    "hvp_ss": (4, 1, 8),
    "hvp_theta_s": (3, 1, 4),
    "grad_theta_energy": (1, 1, 1),
}


def kernel_costs(input_dim, layer_dims):
    """{kernel: (flops, bytes)} for one call at this shape."""
    n = list(layer_dims)
    inner = sum(a * b for a, b in zip(n, n[1:]))
    outer = n[-1] * input_dim
    state = sum(n) + input_dim
    out = {}
    for k, (p_inner, p_outer, p_state) in _PASSES.items():
        blocks = p_inner * inner + p_outer * outer
        out[k] = (2 * blocks + p_state * state, 8 * blocks + 16 * p_state * state)
    return out


def _per_call_us(call, batches, min_batch_s):
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        dt = time.perf_counter() - t0
        if dt >= min_batch_s:
            break
        n *= 2
    times = [dt / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def time_kernels(model, theta, x, s, v, act, batches=7, min_batch_s=0.02):
    """Median microseconds per call of each kernel at state s, direction v."""
    calls = {
        "grad_s_energy": lambda: model.grad_s_energy(theta, x, s, act),
        "hvp_ss": lambda: model.hvp_ss(theta, x, s, v, act),
        "hvp_theta_s": lambda: model.hvp_theta_s(theta, x, s, v, act),
        "grad_theta_energy": lambda: model.grad_theta_energy(theta, x, s, act),
    }
    return {k: _per_call_us(calls[k], batches, min_batch_s) for k in KERNELS}
