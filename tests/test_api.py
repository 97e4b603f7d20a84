"""The public names of the package: the contract that internal changes keep."""

import types

import pytest

import fpgrad as fp

PUBLIC_NAMES = {
    # configuration, records and results
    "Activation", "Dataset", "EquivalenceReport", "ErrorProcessState", "FDConfig",
    "GradientEstimate", "NetworkShape", "Params", "RelaxationConfig", "Sample", "State",
    "TemporalProcessRecord", "TrainConfig", "TrainLog", "Trajectory",
    # activations
    "ACTIVATIONS", "HARD_SIGMOID", "LOGISTIC", "TANH", "get_activation",
    # errors
    "BasinJumpError", "CheckpointError", "ConfigError", "ConvergenceError", "DatasetError",
    "DivergenceError", "FpgradError", "InstabilityError", "NotAtFixedPointError",
    "ShapeError", "UnsupportedActivationError",
    # model
    "cost", "energy", "grad_s_augmented", "grad_s_cost", "grad_s_energy", "grad_theta_cost",
    "grad_theta_energy", "hvp_ss", "hvp_theta_s", "init_params", "random_instance",
    # dynamics
    "free_path", "nudged_path", "relax", "relax_free", "relax_nudged", "write_trajectory_csv",
    # estimators and the side process
    "eqprop_gradient", "rbp_gradient", "rbp_init", "rbp_step", "temporal_derivative_process",
    "truncated_eqprop_gradient", "write_temporal_csv",
    # matched-grid harness
    "beta_sweep", "compare_processes", "fit_loglog_slope", "truncation_correspondence",
    "write_equivalence_csv",
    # finite-difference oracles
    "check_backward_identity", "check_dbeta_energy_identity", "fd_hvp_ss", "fd_hvp_theta_s",
    "fd_objective_gradient", "gradient_report", "projected_cost",
    # training and I/O
    "load_checkpoint", "load_dataset", "predict", "save_checkpoint", "sgd_train",
    "write_trainlog_csv",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(fp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert isinstance(fp.__version__, str)


def test_every_public_name_resolves():
    for name in sorted(PUBLIC_NAMES):
        assert getattr(fp, name, None) is not None, name


def _instance():
    return fp.random_instance(fp.NetworkShape(2, (1,)), 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: fp.RelaxationConfig(step_size=0.0),
        lambda: fp.FDConfig(delta=float("inf")),
        lambda: fp.TrainConfig(epochs=-1),
        lambda: fp.TrainConfig(learning_rates=[0.5]).rates_for(2),
        lambda: fp.beta_sweep(*_instance(), [-1e-3], 0, fp.LOGISTIC, fp.RelaxationConfig()),
        lambda: fp.beta_sweep(*_instance(), [1e-3], -1, fp.LOGISTIC, fp.RelaxationConfig()),
    ],
    ids=["relaxation", "finite-difference", "train", "rates-for", "betas", "num-steps"],
)
def test_config_errors_are_value_errors(make):
    # a ConfigError, which callers catching ValueError still catch
    with pytest.raises(fp.ConfigError):
        make()
    assert issubclass(fp.ConfigError, ValueError)
