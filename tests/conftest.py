"""Shared instance pool for the seeded test suites.

Shapes stay small (at most 4 inputs, 60 weights) so the exhaustive
finite-difference loops remain fast; instances are generated from fixed
seeds so every expected value in the suite is reproducible.
"""

import numpy as np
import pytest

import fpgrad as fp

# layouts cycled through by the seeded suites; output width first
SHAPE_POOL = [
    fp.NetworkShape(2, (1,)),
    fp.NetworkShape(2, (2, 1)),
    fp.NetworkShape(2, (2, 2, 1)),
    fp.NetworkShape(3, (2, 2)),
    fp.NetworkShape(4, (3, 3, 2)),
    fp.NetworkShape(3, (1, 4)),
    fp.NetworkShape(1, (2, 3)),
]


def make_instance(i, shape=None):
    """Deterministic (shape, weights, input, target) for index i."""
    if shape is None:
        shape = SHAPE_POOL[i % len(SHAPE_POOL)]
    theta, x, y = fp.random_instance(shape, seed=i)
    return shape, theta, x, y


def random_state(shape, rng, scale=1.0):
    return [rng.uniform(-scale, scale, d) for d in shape.layer_dims]


def random_direction(shape, rng):
    return [rng.standard_normal(d) for d in shape.layer_dims]


def dense_hessian(ops):
    """d2E/ds2 at the state `ops` is frozen at, one `apply_ss` column per unit vector."""
    return np.column_stack([ops.apply_ss(e) for e in np.eye(ops.bounds[-1])])


@pytest.fixture
def seeded_net():
    """The canonical demo instance: 2 -> [2, 2, 1], seed 42, logistic."""
    shape = fp.NetworkShape(2, (2, 2, 1))
    theta, x, y = fp.random_instance(shape, 42)
    return shape, theta, x, y, fp.LOGISTIC


@pytest.fixture
def tight_cfg():
    return fp.RelaxationConfig(step_size=0.1, tolerance=1e-12, max_steps=100_000)
