"""Shared exception types, the Monte Carlo replication floor and the route
selector."""

__all__ = [
    "WeakdepError",
    "PreconditionError",
    "DegenerateVarianceError",
    "LayoutError",
    "ModelMismatchError",
    "InternalConsistencyError",
    "ConfigError",
    "check_replications",
    "choose_route",
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
    """Every Monte Carlo estimate (``what``) needs 1000 <= R <= 2^32
    replications.  An estimate holds R float64 values, 32 GiB at the cap,
    so a larger R could only fail inside numpy."""
    if not 1000 <= R <= 1 << 32:
        raise PreconditionError(f"{what} needs 1000 <= R <= 2**32, got {R}")


def choose_route(method: str, exact: str | None, routes) -> str:
    """The route a computation takes, the one place that picks one.

    ``routes`` names the computation's routes with Monte Carlo last, and
    ``exact`` is the model's exact route or None: 'auto' takes ``exact``,
    else Monte Carlo.  A name outside ``routes`` is a PreconditionError, an
    exact route the model lacks a ModelMismatchError."""
    if method == "auto":
        return exact or routes[-1]
    if method not in routes:
        raise PreconditionError(
            f"route must be one of auto, {', '.join(routes)}; got {method!r}")
    if method not in (exact, routes[-1]):
        raise ModelMismatchError(f"{method} is not a route of this model")
    return method
