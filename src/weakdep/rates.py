"""Rate experiments: Delta_n over dyadic n-grids and log-log slope fits."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bedistance import (
    BEEstimate,
    _empirical,
    _normalizer,
    check_estimate,
    exact_delta_gaussian_linear,
)
from .errors import PreconditionError, choose_route
from .variance import _autocov_method

__all__ = ["RateFit", "rate_route", "run_rate_experiment", "fit_rate",
           "loglog_wls"]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float
    points: tuple  # (n, delta, low, high, weight) actually used
    censored: tuple  # n values excluded (at/below noise floor or zero)
    weighting: str

    @property
    def slope_ci95(self) -> tuple[float, float]:
        return (self.slope - 1.96 * self.slope_stderr,
                self.slope + 1.96 * self.slope_stderr)


def rate_route(model, n_grid, R: int, normalization: str,
               method: str = "auto") -> str:
    """The route of a rate experiment, 'closed-form' (what 'auto' picks for
    Gaussian-linear models) or 'monte-carlo'.  Checks the grid and the
    route's preconditions, and computes nothing."""
    g = np.asarray(n_grid, dtype=np.int64)
    if len(g) < 4 or g[0] < 1 or np.any(g[1:] != 2 * g[:-1]):
        raise PreconditionError(
            "n-grid must be dyadic with >= 4 points from n >= 1")
    closed = (_autocov_method(model) == "exact-linear"
              and model.law.kind == "standard-gaussian")
    method = choose_route(method, "closed-form" if closed else None,
                          ("closed-form", "monte-carlo"))
    check_estimate(normalization, R if method == "monte-carlo" else None)
    return method


def run_rate_experiment(model, n_grid, R: int, normalization: str,
                        seed: int = 0, method: str = "auto",
                        threads: int = 1) -> list[BEEstimate]:
    """One BEEstimate per grid point on the route of ``rate_route``, with
    one denominator oracle.  Monte Carlo point i owns replications
    [i*R, (i+1)*R) and the merge is by index, so threads change nothing."""
    if rate_route(model, n_grid, R, normalization, method) == "closed-form":
        point = lambda i, n: exact_delta_gaussian_linear(
            model.scheme, n, normalization, seed=seed)
    else:
        denom = _normalizer(model, normalization, seed)
        point = lambda i, n: _empirical(model, n, R, normalization, denom(n),
                                        seed, i * R)
    grid = [int(n) for n in n_grid]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(point, range(len(grid)), grid))
    return list(map(point, range(len(grid)), grid))


def loglog_wls(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least squares of y on x; returns slope, intercept,
    slope stderr (weighted-residual formula) and R^2."""
    W = w.sum()
    xb = np.dot(w, x) / W
    yb = np.dot(w, y) / W
    sxx = np.dot(w, (x - xb) ** 2)
    sxy = np.dot(w, (x - xb) * (y - yb))
    slope = sxy / sxx
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    s2 = np.dot(w, resid ** 2) / dof
    stderr = np.sqrt(s2 / sxx)
    syy = np.dot(w, (y - yb) ** 2)
    r2 = 1.0 - np.dot(w, resid ** 2) / syy if syy > 0 else 1.0
    return float(slope), float(intercept), float(stderr), float(r2)


def fit_rate(estimates: list[BEEstimate]) -> RateFit:
    """Log-log WLS of Delta_hat on n.

    Points whose Delta_hat does not clear the half-width of their own band
    are censored (indistinguishable from zero: keeping them would bias the
    slope toward the noise floor), as are exact zeros.  Weights are the
    inverse squared relative band width; closed-form points (width 0) get
    unit weight.
    """
    used, censored = [], []
    for e in estimates:
        if e.delta <= 0 or (e.halfwidth > 0 and e.delta <= e.halfwidth):
            censored.append(e.n)
            continue
        if e.halfwidth == 0:
            w = 1.0
        else:
            relw = (e.high - e.low) / e.delta
            w = 1.0 / relw ** 2
        used.append((e.n, e.delta, e.low, e.high, w))
    if len(used) < 4:
        raise PreconditionError(
            f"only {len(used)} positive uncensored points; need >= 4")
    x = np.log([p[0] for p in used])
    y = np.log([p[1] for p in used])
    w = np.array([p[4] for p in used])
    slope, intercept, stderr, r2 = loglog_wls(x, y, w)
    return RateFit(slope=slope, intercept=intercept, slope_stderr=stderr,
                   r_squared=r2, points=tuple(used),
                   censored=tuple(censored),
                   weighting="inverse-squared-relative-bandwidth")
