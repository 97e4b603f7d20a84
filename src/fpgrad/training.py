"""Per-sample SGD on toy datasets, plus dataset and checkpoint I/O.

The loop is deliberately plain: one gradient estimate per presented
sample (no mini-batching, no momentum), weights updated with per-matrix
learning rates.  Training and `predict` relax every free phase from the
zero state, so the log describes the model that `predict` runs: its cost
and accuracy are read at each estimate's free point
(`GradientEstimate.free_point`), which the estimator locates itself.  The
per-epoch shuffle is seeded with (seed, epoch), so a run resumed from a
checkpoint at epoch N reproduces an uninterrupted run exactly.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from . import model
from .dynamics import RelaxationConfig
from .eqprop import GradientEstimate, _free_fixed_point, eqprop_gradient, truncated_eqprop_gradient
from .rbp import rbp_gradient
from .exceptions import (
    CheckpointError,
    ConfigError,
    ConvergenceError,
    DatasetError,
    DivergenceError,
    InstabilityError,
    ShapeError,
)
from .model import Activation, NetworkShape, Params, Sample

TRAIN_METHODS = ("eqprop", "eqprop-truncated", "rbp")

_CHECKPOINT_MAGIC = "fpgrad-checkpoint-v1"


@dataclass
class Dataset:
    samples: List[Sample]
    name: str = ""

    def __post_init__(self):
        if not self.samples:
            raise DatasetError("dataset is empty")
        x_dim = self.samples[0].x.shape
        y_dim = self.samples[0].y.shape
        for i, sm in enumerate(self.samples):
            if sm.x.shape != x_dim or sm.y.shape != y_dim:
                raise DatasetError(f"sample {i} has inconsistent dimensions")

    @property
    def input_dim(self) -> int:
        return self.samples[0].x.shape[0]

    @property
    def target_dim(self) -> int:
        return self.samples[0].y.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    method: str = "eqprop"
    beta: float = 1e-3
    truncation_steps: Optional[int] = None
    learning_rates: Union[float, Sequence[float]] = 0.5
    epochs: int = 100
    relaxation: RelaxationConfig = field(default_factory=RelaxationConfig)
    seed: int = 0

    def __post_init__(self):
        if self.method not in TRAIN_METHODS:
            raise ConfigError(
                f"unknown method '{self.method}'; expected one of {TRAIN_METHODS}"
            )
        if self.method in ("eqprop", "eqprop-truncated") and not 0 < self.beta < math.inf:
            raise ConfigError(f"method '{self.method}' requires a finite beta > 0")
        if self.method == "eqprop-truncated":
            if self.truncation_steps is None or self.truncation_steps < 1:
                raise ConfigError("eqprop-truncated requires truncation_steps >= 1")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        # zero rates are legal (no-op training, useful in tests); negative are not
        if not all(0 <= r < math.inf for r in self.rates_for(None)):
            raise ConfigError("learning rates must be finite and non-negative")

    def rates_for(self, num_matrices: Optional[int]) -> List[float]:
        if np.isscalar(self.learning_rates):
            n = num_matrices if num_matrices is not None else 1
            return [float(self.learning_rates)] * n
        rates = [float(r) for r in self.learning_rates]
        if num_matrices is not None and len(rates) != num_matrices:
            raise ConfigError(
                f"got {len(rates)} learning rates for {num_matrices} weight matrices"
            )
        return rates


@dataclass
class TrainLog:
    mean_costs: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

def load_dataset(path, shape: Optional[NetworkShape] = None) -> Dataset:
    """CSV with header x0,...,x{n-1},y0,...,y{m-1}, one sample per row."""
    try:
        f = open(path, newline="")
    except OSError as e:
        raise DatasetError(f"cannot open dataset {path}: {e}") from e
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        n_x, n_y = _parse_header(path, header)
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_x + n_y:
                raise DatasetError(
                    f"{path}: line {lineno}: expected {n_x + n_y} fields, got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError as e:
                raise DatasetError(f"{path}: line {lineno}: {e}") from None
            if not all(map(math.isfinite, vals)):
                raise DatasetError(f"{path}: line {lineno}: non-finite value in {row}")
            samples.append(
                Sample(x=np.array(vals[:n_x]), y=np.array(vals[n_x:]))
            )
    if not samples:
        raise DatasetError(f"{path}: no data rows")
    if shape is not None:
        if n_x != shape.input_dim:
            raise ShapeError(
                f"{path}: dataset has {n_x} input columns, network expects {shape.input_dim}"
            )
        if n_y != shape.layer_dims[0]:
            raise ShapeError(
                f"{path}: dataset has {n_y} target columns, output layer has "
                f"width {shape.layer_dims[0]}"
            )
    return Dataset(samples=samples, name=os.path.basename(str(path)))


def _parse_header(path, header) -> tuple:
    names = [h.strip() for h in header]
    n_x = 0
    while n_x < len(names) and names[n_x] == f"x{n_x}":
        n_x += 1
    n_y = 0
    while n_x + n_y < len(names) and names[n_x + n_y] == f"y{n_y}":
        n_y += 1
    if n_x == 0 or n_x + n_y != len(names):
        raise DatasetError(
            f"{path}: line 1: header must be x0,..,x{{n-1}},y0,..,y{{m-1}}, got {names}"
        )
    return n_x, n_y


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _sample_gradient(theta, sample: Sample, act, cfg: TrainConfig) -> GradientEstimate:
    x, y, rcfg = sample.x, sample.y, cfg.relaxation
    if cfg.method == "rbp":
        return rbp_gradient(theta, x, y, act, rcfg)
    if cfg.method == "eqprop":
        return eqprop_gradient(theta, x, y, cfg.beta, act, rcfg)
    return truncated_eqprop_gradient(theta, x, y, cfg.beta, cfg.truncation_steps, act, rcfg)


def _is_classification(ds: Dataset) -> bool:
    return all(np.all((sm.y == 0.0) | (sm.y == 1.0)) for sm in ds.samples)


def _correct(pred: np.ndarray, y: np.ndarray) -> bool:
    if y.shape[0] == 1:
        return bool((pred[0] >= 0.5) == (y[0] >= 0.5))
    return bool(np.argmax(pred) == np.argmax(y))


def sgd_train(
    ds: Dataset,
    shape: NetworkShape,
    act: Activation,
    cfg: TrainConfig,
    initial_params: Optional[Params] = None,
    start_epoch: int = 0,
):
    """Train and return (final weights, per-epoch log).

    Deterministic given (cfg.seed, cfg): weights start at the seeded
    fan-balanced init and each epoch's presentation order comes from a
    generator seeded with (seed, epoch).  Pass `initial_params` plus
    `start_epoch` to resume; epochs [start_epoch, cfg.epochs) are run.
    """
    if not 0 <= start_epoch <= cfg.epochs:
        raise ValueError(f"start_epoch {start_epoch} is outside [0, epochs {cfg.epochs}]")
    if ds.input_dim != shape.input_dim or ds.target_dim != shape.layer_dims[0]:
        raise ShapeError(
            f"dataset dims ({ds.input_dim} -> {ds.target_dim}) do not match "
            f"network ({shape.input_dim} -> {shape.layer_dims[0]})"
        )
    if initial_params is not None:
        model.validate_params(shape, initial_params)
        theta = model.copy_blocks(initial_params)
    else:
        theta = model.init_params(shape, np.random.default_rng(cfg.seed))
    rates = cfg.rates_for(shape.num_layers)
    log = TrainLog()
    classification = _is_classification(ds)
    n = len(ds.samples)
    for epoch in range(start_epoch, cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        costs = []
        hits = 0
        norms = []
        for i in order:
            sample = ds.samples[int(i)]
            try:
                est = _sample_gradient(theta, sample, act, cfg)
            except DivergenceError as e:
                raise DivergenceError(
                    f"divergence at epoch {epoch}, sample {i}: {e}", step=e.step
                ) from e
            except (ConvergenceError, InstabilityError) as e:
                raise type(e)(f"epoch {epoch}, sample {i}: {e}") from e
            costs.append(model.cost(sample.y, est.free_point))
            if classification:
                hits += _correct(est.free_point[0], sample.y)
            norms.append(model.inf_norm(est.grad))
            theta = [w - lr * g for w, lr, g in zip(theta, rates, est.grad)]
            if not model.all_finite(theta):
                raise DivergenceError(
                    f"non-finite weights after update at epoch {epoch}, sample {i}"
                )
        log.mean_costs.append(float(np.mean(costs)))
        log.accuracies.append(hits / n if classification else float("nan"))
        log.grad_norms.append(float(np.mean(norms)))
    return theta, log


def predict(theta: Params, x, act: Activation, cfg: RelaxationConfig) -> np.ndarray:
    """Output-layer reading at the free fixed point, from the zero state."""
    return _free_fixed_point(theta, x, act, cfg)[0].copy()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(theta: Params, shape: NetworkShape, activation_name: str, path) -> None:
    """Text checkpoint; weights as hex floats, so round-trips are bitwise."""
    model.validate_params(shape, theta)
    dims = ",".join(str(d) for d in shape.layer_dims)
    with open(path, "w") as f:
        f.write(f"{_CHECKPOINT_MAGIC}\n")
        f.write(f"shape={shape.input_dim}->[{dims}]\n")
        f.write(f"activation={activation_name}\n")
        f.write("format=hexfloat\n")
        for k, w in enumerate(theta):
            f.write(f"weights[{k}] {w.shape[0]} {w.shape[1]}\n")
            for row in w:
                f.write(" ".join(float(v).hex() for v in row) + "\n")


def load_checkpoint(path):
    """Returns (weights, shape, activation name)."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint {path}: {e}") from e
    if not lines:
        raise CheckpointError(f"{path}: empty file")
    if lines[0] != _CHECKPOINT_MAGIC:
        if lines[0].startswith("fpgrad-checkpoint"):
            raise CheckpointError(
                f"{path}: version mismatch: got '{lines[0]}', expected '{_CHECKPOINT_MAGIC}'"
            )
        raise CheckpointError(f"{path}: not a checkpoint file")
    header = {}
    idx = 1
    while idx < len(lines) and "=" in lines[idx]:
        key, _, value = lines[idx].partition("=")
        header[key] = value
        idx += 1
    for key in ("shape", "activation", "format"):
        if key not in header:
            raise CheckpointError(f"{path}: missing header line '{key}='")
    if header["format"] != "hexfloat":
        raise CheckpointError(f"{path}: unsupported format '{header['format']}'")
    m = re.fullmatch(r"(\d+)->\[([\d,]+)\]", header["shape"])
    if not m:
        raise CheckpointError(f"{path}: malformed shape header '{header['shape']}'")
    shape = NetworkShape(int(m.group(1)), tuple(int(d) for d in m.group(2).split(",")))
    theta = []
    expected = shape.weight_shapes()
    for k, (rows, cols) in enumerate(expected):
        if idx >= len(lines):
            raise CheckpointError(f"{path}: truncated before weights[{k}]")
        m = re.fullmatch(r"weights\[(\d+)\] (\d+) (\d+)", lines[idx])
        if not m or int(m.group(1)) != k:
            raise CheckpointError(f"{path}: expected 'weights[{k}] ...', got '{lines[idx]}'")
        got = (int(m.group(2)), int(m.group(3)))
        if got != (rows, cols):
            raise ShapeError(
                f"{path}: weights[{k}] declares shape {got}, shape header implies {(rows, cols)}"
            )
        idx += 1
        w = np.empty((rows, cols))
        for r in range(rows):
            if idx >= len(lines):
                raise CheckpointError(f"{path}: truncated inside weights[{k}]")
            fields = lines[idx].split()
            if len(fields) != cols:
                raise CheckpointError(
                    f"{path}: weights[{k}] row {r} has {len(fields)} entries, expected {cols}"
                )
            try:
                w[r] = [float.fromhex(v) for v in fields]
            except ValueError as e:
                raise CheckpointError(f"{path}: weights[{k}] row {r}: {e}") from None
            idx += 1
        theta.append(w)
    model.validate_params(shape, theta)
    return theta, shape, header["activation"]


def write_trainlog_csv(log: TrainLog, path_or_file, start_epoch: int = 0) -> None:
    """Rows epoch,mean_cost,accuracy,grad_norm."""
    with model.text_output(path_or_file) as f:
        f.write("epoch,mean_cost,accuracy,grad_norm\n")
        for e, (c, a, g) in enumerate(
            zip(log.mean_costs, log.accuracies, log.grad_norms), start=start_epoch
        ):
            f.write(f"{e},{c!r},{a!r},{g!r}\n")
