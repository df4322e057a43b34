"""Kolmogorov distance of the normalized partial sum to the standard normal.

Delta_n = sup_x |P(S_n <= x * denom) - Phi(x)| with two normalizations:
``sqrt-n-ss2`` (denom = sqrt(n ss^2), the CLT scale) and ``sqrt-ESn2``
(denom = sqrt(E S_n^2), the process's own scale).  Empirical estimates
take the exact sup at the empirical-CDF jump points and carry
finite-sample Dvoretzky-Kiefer-Wolfowitz bands; the Gaussian-linear case
is available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from .errors import DegenerateVarianceError, ModelMismatchError, PreconditionError
from .processes import CoefficientScheme, LinearModel, partial_sums
from .variance import (
    DEGENERACY_THRESHOLD,
    exact_sum_variance_linear,
    model_longrun_variance,
    sum_variance,
)

__all__ = [
    "NORMALIZATIONS",
    "BEEstimate",
    "dkw_halfwidth",
    "ks_distance_to_normal",
    "empirical_delta",
    "gaussian_closed_form_delta",
    "exact_delta_gaussian_linear",
]

NORMALIZATIONS = ("sqrt-n-ss2", "sqrt-ESn2")


@dataclass(frozen=True)
class BEEstimate:
    n: int
    normalization: str
    delta: float
    low: float
    high: float
    method: str
    R: int
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.low <= self.delta <= self.high <= 1.0):
            raise PreconditionError(
                f"band ordering violated: {self.low}, {self.delta}, {self.high}")

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.high - self.low)


def dkw_halfwidth(R: int, delta_conf: float = 0.01) -> float:
    """Finite-sample uniform CDF band: sup|F_hat - F| <= this with
    probability >= 1 - delta_conf."""
    return float(np.sqrt(np.log(2.0 / delta_conf) / (2.0 * R)))


def ks_distance_to_normal(samples: np.ndarray) -> float:
    """Exact sup_x |F_hat(x) - Phi(x)|, evaluated at both one-sided gaps of
    every jump point (never on a fixed grid)."""
    t = np.sort(np.asarray(samples, dtype=np.float64))
    R = len(t)
    F = ndtr(t)
    i = np.arange(1, R + 1, dtype=np.float64)
    d_plus = np.max(i / R - F)
    d_minus = np.max(F - (i - 1.0) / R)
    return float(max(d_plus, d_minus, 0.0))


def _denominator(model, n, normalization, seed):
    if normalization == "sqrt-n-ss2":
        ss2 = model_longrun_variance(model, seed=seed).value
        return np.sqrt(n * ss2)
    if normalization == "sqrt-ESn2":
        v = sum_variance(model, n, seed=seed)
        if v <= DEGENERACY_THRESHOLD:
            raise DegenerateVarianceError(
                f"E S_n^2 = {v:.3e} is numerically zero")
        return np.sqrt(v)
    raise PreconditionError(
        f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}")


def empirical_delta(model, n: int, R: int, normalization: str,
                    seed: int = 0, rep_start: int = 0,
                    delta_conf: float = 0.01) -> BEEstimate:
    """Monte Carlo Delta_n over replications rep_start..rep_start+R-1."""
    if R < 1000:
        raise PreconditionError("empirical_delta needs R >= 1000")
    denom = _denominator(model, n, normalization, seed)
    s = partial_sums(model, seed, rep_start + np.arange(R), n)
    delta = ks_distance_to_normal(s / denom)
    hw = dkw_halfwidth(R, delta_conf)
    return BEEstimate(n=n, normalization=normalization, delta=delta,
                      low=max(0.0, delta - hw), high=min(1.0, delta + hw),
                      method="empirical", R=R, seed=seed)


def gaussian_closed_form_delta(r: float) -> float:
    """sup_x |Phi(x/r) - Phi(x)| to absolute tolerance 1e-10.

    The gap is even in x and unimodal on x > 0, so a bounded scalar
    maximization on [0, 10] finds the sup.
    """
    if r <= 0:
        raise PreconditionError("scale ratio r must be positive")
    if r == 1.0:
        return 0.0

    def neg_gap(x):
        return -abs(ndtr(x / r) - ndtr(x))

    res = minimize_scalar(neg_gap, bounds=(0.0, 10.0), method="bounded",
                          options={"xatol": 1e-12})
    return float(-res.fun)


def exact_delta_gaussian_linear(scheme: CoefficientScheme, n: int,
                                normalization: str,
                                seed: int = 0) -> BEEstimate:
    """Closed-form Delta_n for the linear model with standard-Gaussian
    innovations: S_n is exactly normal with variance E S_n^2."""
    if not isinstance(scheme, CoefficientScheme):
        raise ModelMismatchError("expected a coefficient scheme")
    if normalization == "sqrt-ESn2":
        delta = 0.0
    elif normalization == "sqrt-n-ss2":
        total = scheme.total_sum()
        ss2 = total * total
        if not np.isfinite(ss2) or ss2 <= DEGENERACY_THRESHOLD:
            raise DegenerateVarianceError(
                f"ss^2 = {ss2:.3e} unusable for sqrt-n-ss2 normalization")
        es2 = exact_sum_variance_linear(scheme, n)
        delta = gaussian_closed_form_delta(np.sqrt(es2 / (n * ss2)))
    else:
        raise PreconditionError(
            f"normalization must be one of {NORMALIZATIONS}")
    return BEEstimate(n=n, normalization=normalization, delta=delta,
                      low=delta, high=delta, method="gaussian-closed-form",
                      R=0, seed=seed)


def _is_gaussian_linear(model) -> bool:
    """Whether S_n is exactly normal, so Delta_n has a closed form."""
    return (isinstance(model, LinearModel)
            and model.law.kind == "standard-gaussian")


def gaussian_linear_delta_from_model(model: LinearModel, n: int,
                                     normalization: str,
                                     seed: int = 0) -> BEEstimate:
    if not _is_gaussian_linear(model):
        raise ModelMismatchError(
            "closed form needs a linear model with standard-gaussian law")
    return exact_delta_gaussian_linear(model.scheme, n, normalization, seed)
