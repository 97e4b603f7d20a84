"""Exception types shared across the package."""


class FpgradError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FpgradError, ValueError):
    """Dimension mismatch between weights, states, inputs or targets."""


class UnsupportedActivationError(FpgradError, ValueError):
    """Operation needs a derivative the activation does not provide."""


class DivergenceError(FpgradError, RuntimeError):
    """A numerical process produced a non-finite value.

    Carries the step index at which the non-finite value was detected.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConvergenceError(FpgradError, RuntimeError):
    """A relaxation failed to reach the requested residual tolerance."""


class InstabilityError(FpgradError, RuntimeError):
    """An iterative process kept growing instead of decaying.

    Typically the integration step is too large for the local curvature.
    """


class BasinJumpError(FpgradError, RuntimeError):
    """A perturbed relaxation settled far from the reference fixed point.

    Finite-difference probes are only meaningful while every evaluation
    stays inside one basin of attraction.
    """


class NotAtFixedPointError(FpgradError, ValueError):
    """An operation requiring a converged fixed point got something else."""


class CheckpointError(FpgradError, ValueError):
    """Checkpoint file is unreadable, corrupt, or of the wrong version."""


class DatasetError(FpgradError, ValueError):
    """Dataset file is missing, malformed, or dimensionally inconsistent."""


class ConfigError(FpgradError, ValueError):
    """Experiment configuration is malformed or self-contradictory: a
    config file, or the settings of a RelaxationConfig, FDConfig or
    TrainConfig."""
