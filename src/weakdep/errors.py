"""Shared exception types."""

__all__ = [
    "WeakdepError",
    "PreconditionError",
    "DegenerateVarianceError",
    "LayoutError",
    "ModelMismatchError",
    "InternalConsistencyError",
    "ConfigError",
]


class WeakdepError(Exception):
    """Base class for all library errors."""


class PreconditionError(WeakdepError, ValueError):
    """An operation precondition is violated (bad argument combination)."""


class DegenerateVarianceError(WeakdepError):
    """Long-run variance is (numerically) zero; the sqrt(n*ss^2)
    normalization is unavailable and the E S_n^2 path must be used."""


class LayoutError(PreconditionError):
    """No admissible block layout exists for the requested (n, m)."""


class ModelMismatchError(WeakdepError, TypeError):
    """A model/law/method combination is not supported by the operation."""


class InternalConsistencyError(WeakdepError):
    """An exact identity failed beyond numerical tolerance."""


class ConfigError(WeakdepError, ValueError):
    """Experiment configuration could not be parsed or validated."""
