"""Dataset I/O, the SGD loop, prediction, and checkpoint round-trips."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fpgrad as fp
from fpgrad import training
from fpgrad.exceptions import (
    CheckpointError,
    ConvergenceError,
    DatasetError,
    InstabilityError,
    ShapeError,
)
from fpgrad.model import Sample
from fpgrad.training import Dataset, TrainConfig, write_trainlog_csv

XOR_SAMPLES = [
    Sample(np.array([0.0, 0.0]), np.array([0.0])),
    Sample(np.array([0.0, 1.0]), np.array([1.0])),
    Sample(np.array([1.0, 0.0]), np.array([1.0])),
    Sample(np.array([1.0, 1.0]), np.array([0.0])),
]


@pytest.fixture
def xor_ds():
    return Dataset(samples=[Sample(s.x.copy(), s.y.copy()) for s in XOR_SAMPLES], name="xor")


@pytest.fixture
def xor_recipe():
    """The tuned demo recipe: tanh, every free phase from the zero state."""
    shape = fp.NetworkShape(2, (1, 4))
    cfg = TrainConfig(
        method="eqprop",
        beta=1e-3,
        learning_rates=0.5,
        epochs=120,
        relaxation=fp.RelaxationConfig(step_size=0.25, tolerance=1e-6),
        seed=42,
    )
    return shape, fp.TANH, cfg


# ---------------------------------------------------------------------------
# dataset I/O
# ---------------------------------------------------------------------------

def test_load_xor_dataset(tmp_path):
    p = tmp_path / "xor.csv"
    p.write_text("x0,x1,y0\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
    ds = fp.load_dataset(p, fp.NetworkShape(2, (1, 4)))
    assert len(ds.samples) == 4
    assert ds.input_dim == 2 and ds.target_dim == 1
    np.testing.assert_array_equal(ds.samples[3].x, [1.0, 1.0])


def test_load_dataset_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        fp.load_dataset(p)


def test_load_dataset_header_only(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("x0,y0\n")
    with pytest.raises(DatasetError, match="no data rows"):
        fp.load_dataset(p)


def test_load_dataset_malformed_number_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x0,y0\n0.5,1\noops,0\n")
    with pytest.raises(DatasetError, match="line 3"):
        fp.load_dataset(p)


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_load_dataset_non_finite_value_reports_line(tmp_path, value):
    p = tmp_path / "bad.csv"
    p.write_text(f"x0,y0\n0.5,1\n0.25,{value}\n")
    with pytest.raises(DatasetError, match="line 3: non-finite value"):
        fp.load_dataset(p)


def test_load_dataset_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetError, match="header"):
        fp.load_dataset(p)


def test_load_dataset_dimension_mismatch(tmp_path):
    p = tmp_path / "xor.csv"
    p.write_text("x0,x1,y0\n0,0,0\n")
    with pytest.raises(ShapeError):
        fp.load_dataset(p, fp.NetworkShape(3, (1,)))


def test_load_dataset_ragged_row(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("x0,y0\n1,2\n3\n")
    with pytest.raises(DatasetError, match="line 3"):
        fp.load_dataset(p)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(method="backprop")
    with pytest.raises(ValueError):
        TrainConfig(method="eqprop", beta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(method="eqprop-truncated", truncation_steps=None)
    with pytest.raises(ValueError):
        TrainConfig(learning_rates=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rates=[0.1, 0.2]).rates_for(3)


# ---------------------------------------------------------------------------
# training behaviour
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_weights_unchanged(xor_ds, xor_recipe):
    shape, act, cfg = xor_recipe
    import dataclasses

    cfg0 = dataclasses.replace(cfg, learning_rates=0.0, epochs=3)
    theta0 = fp.init_params(shape, np.random.default_rng(cfg0.seed))
    theta, log = fp.sgd_train(xor_ds, shape, act, cfg0)
    for a, b in zip(theta, theta0):
        np.testing.assert_array_equal(a, b)
    assert log.mean_costs[0] == log.mean_costs[1] == log.mean_costs[2]


def test_single_sample_rbp_descends(xor_ds):
    ds = Dataset(samples=[xor_ds.samples[1]], name="one")
    shape = fp.NetworkShape(2, (1, 4))
    cfg = TrainConfig(
        method="rbp",
        learning_rates=0.05,
        epochs=10,
        relaxation=fp.RelaxationConfig(step_size=0.25, tolerance=1e-8),
        seed=1,
    )
    theta, log = fp.sgd_train(ds, shape, fp.TANH, cfg)
    for a, b in zip(log.mean_costs, log.mean_costs[1:]):
        assert b <= a + 1e-12


def test_second_phase_errors_name_epoch_and_sample(xor_ds, monkeypatch):
    shape = fp.NetworkShape(2, (1, 4))
    # every free phase of epoch 0 settles within 130 steps; the side
    # process of sample 1 does not
    cfg = TrainConfig(
        method="rbp",
        epochs=1,
        relaxation=fp.RelaxationConfig(step_size=0.25, tolerance=1e-6, max_steps=130),
        seed=0,
    )
    with pytest.raises(ConvergenceError, match="^epoch 0, sample 1: side process did not"):
        fp.sgd_train(xor_ds, shape, fp.TANH, cfg)

    def unstable(*args, **kwargs):
        raise InstabilityError("||s_bar|| grew")

    monkeypatch.setattr(training, "rbp_gradient", unstable)
    with pytest.raises(InstabilityError, match=r"^epoch 0, sample \d: \|\|s_bar\|\| grew$"):
        fp.sgd_train(xor_ds, shape, fp.TANH, replace(cfg, relaxation=fp.RelaxationConfig()))


def test_one_update_with_small_lr_descends_for_every_method(xor_ds):
    # halve the rate until a single update strictly reduces that sample's
    # objective; the estimate being a descent direction must kick in
    shape = fp.NetworkShape(2, (1, 4))
    act = fp.TANH
    rcfg = fp.RelaxationConfig(step_size=0.25, tolerance=1e-10)
    sample = xor_ds.samples[2]
    theta0 = fp.init_params(shape, np.random.default_rng(7))

    def objective(theta):
        s, traj = fp.relax_free(theta, sample.x, shape.zero_state(), act, rcfg)
        assert traj.converged
        return fp.cost(sample.y, s)

    for method, kwargs in (
        ("rbp", {}),
        ("eqprop", {"beta": 1e-4}),
        ("eqprop-truncated", {"beta": 1e-4, "num_steps": 200}),
    ):
        if method == "rbp":
            grad = fp.rbp_gradient(theta0, sample.x, sample.y, act, rcfg).grad
        elif method == "eqprop":
            grad = fp.eqprop_gradient(theta0, sample.x, sample.y, kwargs["beta"], act, rcfg).grad
        else:
            grad = fp.truncated_eqprop_gradient(
                theta0, sample.x, sample.y, kwargs["beta"], kwargs["num_steps"], act, rcfg
            ).grad
        j0 = objective(theta0)
        lr = 0.5
        for _ in range(20):
            trial = [w - lr * g for w, g in zip(theta0, grad)]
            if objective(trial) < j0:
                break
            lr *= 0.5
        else:
            pytest.fail(f"{method}: no descent after 20 halvings")


def test_methods_agree_on_fixed_snapshot(xor_ds):
    shape = fp.NetworkShape(2, (1, 4))
    act = fp.TANH
    rcfg = fp.RelaxationConfig(step_size=0.25, tolerance=1e-12)
    theta = fp.init_params(shape, np.random.default_rng(11))
    for sample in xor_ds.samples:
        a = fp.eqprop_gradient(theta, sample.x, sample.y, 1e-4, act, rcfg).grad
        b = fp.rbp_gradient(theta, sample.x, sample.y, act, rcfg).grad
        for ga, gb in zip(a, b):
            err = np.abs(ga - gb)
            assert np.all(err <= np.maximum(1e-2 * np.abs(gb), 1e-6))


@pytest.mark.parametrize("method", training.TRAIN_METHODS)
def test_training_relaxes_one_free_phase_per_sample(xor_ds, xor_recipe, monkeypatch, method):
    # the log reads cost and accuracy at the estimate's own free point; at
    # the recipe's tolerance, 1e-6, each free phase is plain Euler, with no
    # Newton finish and so no CG solve, and each nudged phase a serial one,
    # with no stack and so no chord Hessian
    shape, act, cfg = xor_recipe
    calls = []
    relax_free = fp.dynamics.relax_free
    monkeypatch.setattr(fp.dynamics, "relax_free", lambda *a: calls.append(1) or relax_free(*a))
    monkeypatch.setattr(fp.model.CurvatureOps, "solve", lambda *a: pytest.fail("a CG solve in training"))
    monkeypatch.setattr(fp.dynamics, "fd_hessian", lambda *a: pytest.fail("a chord Hessian in training"))
    monkeypatch.setattr(fp.dynamics, "relax_columns", lambda *a: pytest.fail("a stack in training"))
    cfg = replace(cfg, method=method, truncation_steps=20, epochs=3)
    fp.sgd_train(xor_ds, shape, act, cfg)
    assert len(calls) == 3 * len(xor_ds.samples)


def test_training_is_deterministic(xor_ds, xor_recipe):
    shape, act, cfg = xor_recipe
    import dataclasses

    short = dataclasses.replace(cfg, epochs=10)
    t1, l1 = fp.sgd_train(xor_ds, shape, act, short)
    t2, l2 = fp.sgd_train(xor_ds, shape, act, short)
    for a, b in zip(t1, t2):
        np.testing.assert_array_equal(a, b)
    assert l1.mean_costs == l2.mean_costs
    assert l1.accuracies == l2.accuracies
    assert l1.grad_norms == l2.grad_norms


def test_resume_matches_uninterrupted_run(xor_ds, xor_recipe):
    shape, act, cfg = xor_recipe
    import dataclasses

    # the weights are a run's whole state: resuming at an epoch boundary
    # must reproduce the uninterrupted run exactly
    base = dataclasses.replace(cfg, epochs=8)
    full, log_full = fp.sgd_train(xor_ds, shape, act, base)
    half = dataclasses.replace(base, epochs=4)
    theta_half, _ = fp.sgd_train(xor_ds, shape, act, half)
    resumed, log_tail = fp.sgd_train(
        xor_ds, shape, act, base, initial_params=theta_half, start_epoch=4
    )
    for a, b in zip(full, resumed):
        np.testing.assert_array_equal(a, b)
    assert log_full.mean_costs[4:] == log_tail.mean_costs


@pytest.mark.parametrize("start_epoch", [5, 3, -1])
def test_start_epoch_outside_the_epoch_range_raises(xor_ds, xor_recipe, start_epoch):
    shape, act, cfg = xor_recipe
    import dataclasses

    short = dataclasses.replace(cfg, epochs=2)
    with pytest.raises(ValueError, match=rf"start_epoch {start_epoch} is outside \[0, epochs 2\]"):
        fp.sgd_train(xor_ds, shape, act, short, start_epoch=start_epoch)


def test_xor_smoke_training_descends(xor_ds, xor_recipe):
    shape, act, cfg = xor_recipe
    theta, log = fp.sgd_train(xor_ds, shape, act, cfg)
    assert log.mean_costs[-1] <= 0.05
    assert log.accuracies[-1] == 1.0
    assert len(log.mean_costs) == cfg.epochs


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_zero_weights_is_zero():
    shape = fp.NetworkShape(2, (1, 4))
    theta = [np.zeros(ws) for ws in shape.weight_shapes()]
    out = fp.predict(theta, np.array([0.5, -0.5]), fp.TANH, fp.RelaxationConfig())
    np.testing.assert_array_equal(out, 0.0)


def test_predict_deterministic(xor_ds, xor_recipe):
    shape, act, cfg = xor_recipe
    theta, _ = fp.sgd_train(xor_ds, shape, act, cfg)
    a = fp.predict(theta, xor_ds.samples[1].x, act, cfg.relaxation)
    b = fp.predict(theta, xor_ds.samples[1].x, act, cfg.relaxation)
    np.testing.assert_array_equal(a, b)


def test_trained_xor_predictions_threshold_correctly(xor_ds, xor_recipe):
    shape, act, cfg = xor_recipe
    theta, _ = fp.sgd_train(xor_ds, shape, act, cfg)
    hits = 0
    for sm in xor_ds.samples:
        pred = fp.predict(theta, sm.x, act, cfg.relaxation)
        hits += (pred[0] >= 0.5) == (sm.y[0] >= 0.5)
    assert hits >= 3


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    shape = fp.NetworkShape(3, (2, 2))
    theta = fp.init_params(shape, 5)
    p = tmp_path / "m.ckpt"
    fp.save_checkpoint(theta, shape, "tanh", p)
    theta2, shape2, act_name = fp.load_checkpoint(p)
    assert shape2 == shape and act_name == "tanh"
    for a, b in zip(theta, theta2):
        np.testing.assert_array_equal(a, b)
    # byte-stable save of the reloaded weights
    p2 = tmp_path / "m2.ckpt"
    fp.save_checkpoint(theta2, shape2, act_name, p2)
    assert p.read_bytes() == p2.read_bytes()


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    input_dim=st.integers(1, 5),
    layer_dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    act_name=st.sampled_from(sorted(fp.ACTIVATIONS)),
)
def test_checkpoint_round_trip_is_bitwise_for_any_network(tmp_path_factory, data, input_dim, layer_dims, act_name):
    # any finite float64 comes back with its bits (signed zeros, subnormals
    # and the extremes included), with the shape and the activation, and
    # saving what was loaded writes the same bytes
    shape = fp.NetworkShape(input_dim, tuple(layer_dims))
    weights = st.floats(allow_nan=False, allow_infinity=False)
    theta = [data.draw(arrays(np.float64, s, elements=weights)) for s in shape.weight_shapes()]
    folder = tmp_path_factory.mktemp("ckpt")
    p, p2 = folder / "m.ckpt", folder / "m2.ckpt"
    fp.save_checkpoint(theta, shape, act_name, p)
    theta2, shape2, act2 = fp.load_checkpoint(p)
    assert (shape2, act2) == (shape, act_name)
    assert [w.shape for w in theta2] == [w.shape for w in theta]
    for a, b in zip(theta, theta2):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    fp.save_checkpoint(theta2, shape2, act2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "v.ckpt"
    p.write_text("fpgrad-checkpoint-v999\nshape=1->[1]\nactivation=tanh\nformat=hexfloat\n")
    with pytest.raises(CheckpointError, match="version"):
        fp.load_checkpoint(p)


def test_checkpoint_not_a_checkpoint(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_text("hello world\n")
    with pytest.raises(CheckpointError):
        fp.load_checkpoint(p)


def test_checkpoint_wrong_shape_header(tmp_path):
    shape = fp.NetworkShape(2, (1,))
    theta = fp.init_params(shape, 1)
    p = tmp_path / "s.ckpt"
    fp.save_checkpoint(theta, shape, "logistic", p)
    text = p.read_text().replace("shape=2->[1]", "shape=2->[2]")
    p.write_text(text)
    with pytest.raises(ShapeError):
        fp.load_checkpoint(p)


def test_checkpoint_truncated_file(tmp_path):
    shape = fp.NetworkShape(2, (2, 1))
    theta = fp.init_params(shape, 1)
    p = tmp_path / "t.ckpt"
    fp.save_checkpoint(theta, shape, "logistic", p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(CheckpointError, match="truncated"):
        fp.load_checkpoint(p)


def test_checkpoint_corrupt_value(tmp_path):
    shape = fp.NetworkShape(2, (1,))
    theta = fp.init_params(shape, 1)
    p = tmp_path / "c.ckpt"
    fp.save_checkpoint(theta, shape, "logistic", p)
    text = p.read_text().splitlines()
    text[-1] = "nothex nothex"
    p.write_text("\n".join(text) + "\n")
    with pytest.raises(CheckpointError):
        fp.load_checkpoint(p)


def test_trained_checkpoint_reloads_to_identical_predictions(xor_ds, xor_recipe, tmp_path):
    shape, act, cfg = xor_recipe
    import dataclasses

    theta, _ = fp.sgd_train(xor_ds, shape, act, dataclasses.replace(cfg, epochs=30))
    p = tmp_path / "xor.ckpt"
    fp.save_checkpoint(theta, shape, act.name, p)
    theta2, shape2, name2 = fp.load_checkpoint(p)
    act2 = fp.get_activation(name2)
    for sm in xor_ds.samples:
        a = fp.predict(theta, sm.x, act, cfg.relaxation)
        b = fp.predict(theta2, sm.x, act2, cfg.relaxation)
        np.testing.assert_array_equal(a, b)


def test_trainlog_csv_format():
    log = fp.TrainLog(mean_costs=[0.5, 0.25], accuracies=[0.5, 1.0], grad_norms=[0.1, 0.05])
    buf = io.StringIO()
    write_trainlog_csv(log, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "epoch,mean_cost,accuracy,grad_norm"
    assert lines[1] == "0,0.5,0.5,0.1"
    assert lines[2] == "1,0.25,1.0,0.05"


@pytest.mark.parametrize(
    "pred, y, want",
    [([0.5], [1.0], True), ([0.5], [0.0], False), ([np.nextafter(0.5, 0.0)], [0.0], True)],
    ids=["half-is-one", "half-is-not-zero", "below-half-is-zero"],
)
def test_a_one_output_prediction_thresholds_at_one_half_inclusive(pred, y, want):
    assert training._correct(np.array(pred), np.array(y)) is want
