"""Rate experiments: Delta_n over dyadic n-grids and log-log slope fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bedistance import (
    BEEstimate,
    _is_gaussian_linear,
    empirical_delta,
    gaussian_linear_delta_from_model,
)
from .errors import PreconditionError

__all__ = ["RateFit", "run_rate_experiment", "fit_rate", "loglog_wls"]


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


def _is_dyadic(grid) -> bool:
    g = np.asarray(grid, dtype=np.int64)
    return np.all(g[1:] == 2 * g[:-1])


def _grid_point(model, R: int, normalization: str, seed: int,
                delta_conf: float, method: str):
    """The estimator (i, n) -> BEEstimate of grid point i: the
    Gaussian-linear closed form when ``method`` selects it ('auto' does
    where it is available), else Monte Carlo over the point's own
    replication range [i*R, (i+1)*R)."""
    if method == "closed-form" or (method == "auto"
                                   and _is_gaussian_linear(model)):
        return lambda i, n: gaussian_linear_delta_from_model(
            model, n, normalization, seed=seed)
    return lambda i, n: empirical_delta(model, n, R, normalization,
                                        seed=seed, rep_start=i * R,
                                        delta_conf=delta_conf)


def run_rate_experiment(model, n_grid, R: int, normalization: str,
                        seed: int = 0, delta_conf: float = 0.01,
                        method: str = "auto") -> list[BEEstimate]:
    """One BEEstimate per grid point.  Each point owns the disjoint
    replication range [i*R, (i+1)*R).  The Gaussian-linear closed form is
    auto-selected when available."""
    grid = [int(n) for n in n_grid]
    if len(grid) < 4:
        raise PreconditionError("rate experiments need >= 4 grid points")
    if not _is_dyadic(grid):
        raise PreconditionError("n-grid must be dyadic (each n doubling)")
    point = _grid_point(model, R, normalization, seed, delta_conf, method)
    return [point(i, n) for i, n in enumerate(grid)]


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
