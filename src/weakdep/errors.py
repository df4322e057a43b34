"""Shared exception types and the Monte Carlo replication floor."""

__all__ = [
    "WeakdepError",
    "PreconditionError",
    "DegenerateVarianceError",
    "LayoutError",
    "ModelMismatchError",
    "InternalConsistencyError",
    "ConfigError",
    "check_replications",
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


def check_replications(R: int, what: str) -> None:
    """Every Monte Carlo estimate (``what``) needs R >= 1000 replications."""
    if R < 1000:
        raise PreconditionError(f"{what} needs R >= 1000")
