"""Exception and warning types shared across the package."""


class ConfigurationError(Exception):
    """Raised for invalid meshes, scenario configs, or CLI inputs."""


class InstabilityError(RuntimeError):
    """Raised when the time stepper produces or detects a corrupted state.

    ``step`` and ``time`` say where a run broke down: ``scheme.run`` sets
    both, ``scheme.step_imex`` sets ``time``, other raisers neither.
    """

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class StabilityWarning(UserWarning):
    """Explicit reaction step size close to or beyond its stability limit."""


class ResolutionWarning(UserWarning):
    """Mesh spacing at risk of aliasing an oscillatory diffusion profile."""


class FrontProximityWarning(UserWarning):
    """Invasion front approaching the domain boundary during speed tracking."""


class ParameterWarning(UserWarning):
    """Parameter value outside the regime the model is meant for."""
