"""Exception types shared across the simulation and analysis modules,
and the normal-scale rule that states a refused scale as a ConfigError."""

import copyreg
import math
import sys


class SimulationError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # rebuild from the stored message and attributes, not through
        # __init__: subclasses take other arguments than their message
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SimulationError):
    """Invalid configuration or incompatible inputs.

    Carries the full list of problems found so a user can fix a config
    file in one pass instead of one error at a time.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def require_normal(owner: str, **scales) -> None:
    """Refuse ``owner``'s scales that are subnormal, zero or infinite: the
    rules and runs that divide by them, or square them, need normal floats."""
    bad = [f"{name} = {value!r}" for name, value in scales.items()
           if not sys.float_info.min <= value < math.inf]
    if bad:
        raise ConfigError(f"{owner} needs normal, finite scales: " + ", ".join(bad))


class DegenerateInputError(SimulationError):
    """An input field has zero norm where a positive norm is required."""


class BoundaryLeakError(SimulationError):
    """A propagated field reached the domain boundary above tolerance."""

    def __init__(self, t, edge_fraction, threshold):
        self.t = t
        self.edge_fraction = edge_fraction
        self.threshold = threshold
        super().__init__(
            f"boundary density fraction {edge_fraction:.3e} exceeds "
            f"{threshold:.1e} at t={t:.6g}; enlarge the domain"
        )


class NonFiniteFieldError(SimulationError):
    """A propagated field became NaN or infinite."""

    def __init__(self, t):
        self.t = t
        super().__init__(
            f"field values became non-finite by t={t:.6g}; reduce dt or "
            f"check the potential"
        )


class ExtractionError(SimulationError):
    """Soliton extraction failed (ratio not supported by the pilot wave)."""


class ConvergenceError(SimulationError):
    """An iterative solver did not reach its tolerance.

    The energy history is attached for diagnosis.
    """

    def __init__(self, message, history=None):
        self.history = list(history) if history is not None else []
        super().__init__(message)
