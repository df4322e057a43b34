"""Autocovariances, long-run variance and exact finite-n variance identities.

The long-run variance ss^2 = sum_{k in Z} E X_0 X_k is the CLT variance;
``exact_sum_variance_linear`` evaluates E S_n^2 for linear models through
the Beveridge-Nelson innovation weights, which is exact at every n and is
cross-checked against the autocovariance identity

    E S_n^2 = n * sum_k gamma(k) - sum_k (n /\\ |k|) gamma(k).

The doubling map's exact autocovariances gamma(0..24) are not integrated
at run time: they are read off ``weakdep._doubling_gamma``, a table
written from a per-cell Gauss-Legendre quadrature that the tests keep as
its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._cephes import hurwitz_zeta
from ._doubling_gamma import GAMMA as _DOUBLING_GAMMA
from .errors import (
    DegenerateVarianceError,
    InternalConsistencyError,
    PreconditionError,
    choose_route,
)
from .processes import CoefficientScheme, partial_sums, row_blocks

__all__ = [
    "AutocovarianceTable",
    "LongRunVariance",
    "SigmaHatM",
    "autocovariance",
    "longrun_variance",
    "model_longrun_variance",
    "exact_sum_variance_linear",
    "sum_variance",
    "sigma_hat_m",
    "DEGENERACY_THRESHOLD",
]

DEGENERACY_THRESHOLD = 1e-10

# replication offset for variance-estimation pre-passes, disjoint from
# measurement replications
_VAR_REP_OFFSET = 1 << 40


@dataclass(frozen=True)
class AutocovarianceTable:
    """gamma(0..K) with per-lag standard errors (0 for exact methods)."""

    gamma: np.ndarray
    stderr: np.ndarray
    method: str
    model: object = None

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 1 or len(g) < 2:
            raise PreconditionError("table needs lags 0..K with K >= 1")
        if g[0] <= 0:
            raise PreconditionError("gamma(0) must be positive")


def _exact_linear_gamma(model, K: int) -> np.ndarray:
    alpha = model.scheme.coefficients
    L = len(alpha)
    g = np.zeros(K + 1)
    for k in range(min(K, L - 1) + 1):
        g[k] = np.dot(alpha[: L - k], alpha[k:])
    return g


# the table holds lags 0..24 of every doubling observable
_DOUBLING_LAG_CAP = min(map(len, _DOUBLING_GAMMA.values())) - 1


def _check_lags(method: str, K: int) -> None:
    """Raise PreconditionError when the resolved autocovariance ``method``
    cannot tabulate lags 0..K."""
    if method == "exact-doubling" and K > _DOUBLING_LAG_CAP:
        raise PreconditionError(
            f"exact-doubling lag cap is {_DOUBLING_LAG_CAP}")


def _exact_doubling_gamma(model, K: int) -> np.ndarray:
    """gamma(k) = int_0^1 f(x) f(2^k x mod 1) dx for k = 0..K, read off
    the table that ``weakdep._doubling_gamma`` holds for the model's
    observable."""
    _check_lags("exact-doubling", K)
    return np.array(_DOUBLING_GAMMA[model.observable][:K + 1])


def _mc_gamma(model, K: int, R: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Lag-k products X_t X_{t+k}, t = 1..T, averaged per replication and
    then across R of them, with their standard errors.

    The paths are built one ``row_blocks`` block of replications at a
    time, never as one (R, T + K) matrix; each block's lag products go
    through one reused buffer into a (K + 1, R) table of per-replication
    means.  A linear filter's paths hash a (rows, T + K + L - 1) law
    matrix, so its blocks are sized by that row and a long scheme's matrix
    stays near ``KEY_BLOCK`` keys; the other models' blocks are sized by
    the T lag products.  A path row and its mean do not depend on the
    rows beside it, so the bits are those of the whole-matrix products."""
    T = max(2 * K, 64)
    scheme = getattr(model, "scheme", None)
    width = T if scheme is None else T + K + scheme.length - 1
    blocks = list(row_blocks(R, width))
    prods = np.empty((max(b - a for a, b in blocks), T))
    per_rep = np.empty((K + 1, R))
    for a, b in blocks:
        paths = model.paths(seed, _VAR_REP_OFFSET + np.arange(a, b), T + K)
        for k in range(K + 1):
            block = prods[:b - a]
            np.multiply(paths[:, :T], paths[:, k:T + k], out=block)
            block.mean(axis=1, out=per_rep[k, a:b])
        del paths  # freed before the next block's paths are built
    g = np.array([row.mean() for row in per_rep])
    se = np.array([row.std(ddof=1) for row in per_rep]) / np.sqrt(R)
    return g, se


# exact autocovariance oracles, by the name a model gives as its
# ``exact_autocovariance``
_EXACT_GAMMA = {"exact-linear": _exact_linear_gamma,
                "exact-doubling": _exact_doubling_gamma}


def _autocov_method(model, method: str = "auto") -> str:
    """The autocovariance route for ``model`` (``choose_route`` over the
    exact oracles and 'monte-carlo')."""
    return choose_route(method, getattr(model, "exact_autocovariance", None),
                        (*_EXACT_GAMMA, "monte-carlo"))


def autocovariance(model, K: int, method: str = "auto", R: int = 4096,
                   seed: int = 0) -> AutocovarianceTable:
    """Autocovariance table for lags 0..K.

    method 'exact-linear' reads the coefficient convolution off the scheme;
    'exact-doubling' reads the table of int f(x) f(2^k x mod 1) dx written
    from a per-cell quadrature, for K <= 24;
    'monte-carlo' averages lagged products across R replications.
    """
    if K < 1:
        raise PreconditionError("K must be >= 1")
    method = _autocov_method(model, method)
    if method == "monte-carlo":
        g, se = _mc_gamma(model, K, R, seed)
    else:
        g, se = _EXACT_GAMMA[method](model, K), np.zeros(K + 1)
    return AutocovarianceTable(gamma=g, stderr=se, method=method, model=model)


@dataclass(frozen=True)
class LongRunVariance:
    """ss^2 with its construction: series part and fitted tail
    correction; an exact-linear table gives the exact (sum alpha_j)^2."""

    value: float
    series: float
    tail: float
    note: str = ""


def _fit_tail(gamma: np.ndarray) -> tuple[float, str]:
    """Power-law extrapolation of gamma beyond the table from its last
    octave of lags; returns (tail sum over k > K, note)."""
    K = len(gamma) - 1
    lo = max(1, K // 2)
    lags = np.arange(lo, K + 1)
    vals = gamma[lo:]
    pos = vals > 0
    if pos.sum() < 3:
        return 0.0, "tail-fit: too few positive lags; no correction"
    x = np.log(lags[pos].astype(float))
    y = np.log(vals[pos])
    slope, logc = np.polyfit(x, y, 1)
    if slope >= -1.0:
        return 0.0, (f"tail-fit: decay exponent {slope:.2f} >= -1, "
                     "tail not summable by fit; no correction")
    tail = 2.0 * np.exp(logc) * hurwitz_zeta(-slope, K + 1)
    return float(tail), f"tail-fit: exponent {slope:.2f}"


def longrun_variance(table: AutocovarianceTable) -> LongRunVariance:
    """ss^2 = gamma(0) + 2 sum_{k>=1} gamma(k), with a fitted tail
    correction; raises DegenerateVarianceError when the result is
    numerically zero (the cancellation schemes)."""
    g = table.gamma
    series = float(g[0] + 2.0 * g[1:].sum())
    tail, note = _fit_tail(g)
    exact = None
    if table.method == "exact-linear":
        total = table.model.scheme.total_sum()
        if np.isfinite(total):
            exact = float(total ** 2)
    value = exact if exact is not None else series + tail
    if value <= DEGENERACY_THRESHOLD:
        raise DegenerateVarianceError(
            f"long-run variance {value:.3e} <= {DEGENERACY_THRESHOLD:.0e}; "
            "use the E S_n^2 normalization instead")
    return LongRunVariance(value=float(value), series=series, tail=tail,
                           note=note)


def exact_sum_variance_linear(scheme: CoefficientScheme, n: int) -> float:
    """E S_n^2 for a linear model with unit-variance innovations.

    The scheme's ``sum_variance`` answers: truncated schemes are summed
    exactly through their Beveridge-Nelson weights; the power-law scheme is
    evaluated for the *untruncated* sequence (its tail is analytic), so
    rate studies see no truncation bias.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return scheme.sum_variance(n)


def sum_variance(model, n: int, seed: int = 0, R: int = 4096) -> float:
    """E S_n^2 for any model: exact where the model has an exact
    autocovariance oracle, Monte Carlo (reserved replication range)
    otherwise."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    method = _autocov_method(model)
    if method == "exact-linear":
        return exact_sum_variance_linear(model.scheme, n)
    if method == "monte-carlo":
        s = partial_sums(model, seed, _VAR_REP_OFFSET + np.arange(R), n)
        return float(np.var(s, ddof=1))
    table = autocovariance(
        model, K=min(_DOUBLING_LAG_CAP, max(1, n - 1)), method=method)
    g = table.gamma
    k = np.arange(1, len(g))
    return float(n * g[0] + 2.0 * np.dot(n - np.minimum(k, n), g[1:]))


def model_longrun_variance(model, seed: int = 0) -> LongRunVariance:
    """ss^2 from the model's natural table: lags 0..48 by Monte Carlo over
    4096 replications, 0..min(L, 256) exact-linear, 0..20 exact-doubling
    (read off the table written from the doubling quadrature)."""
    method = _autocov_method(model)
    K = (48 if method == "monte-carlo" else 20 if method == "exact-doubling"
         else min(model.scheme.length, 256))
    return longrun_variance(autocovariance(model, K=K, method=method,
                                           seed=seed))


@dataclass(frozen=True)
class SigmaHatM:
    """sigma_hat_m^2 with the residual of the identity
    2m sigma_hat_m^2 = m ss_m^2 - sum_k (m /\\ |k|) gamma_m(k)."""

    value: float
    residual: float


def sigma_hat_m(table: AutocovarianceTable, m: int) -> SigmaHatM:
    """(2m)^-1 sum_{k,l=1..m} E X_{km} X_{lm} from the m-projected model's
    autocovariance table, with both sides of the defining identity."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    g = table.gamma
    d = np.arange(1, min(m, len(g)))
    lhs = (m * g[0] + 2.0 * np.dot(m - d, g[d])) / (2.0 * m)
    k = np.arange(1, len(g))
    ss_m = g[0] + 2.0 * g[1:].sum()
    rhs = (m * ss_m - 2.0 * np.dot(np.minimum(k, m), g[1:])) / (2.0 * m)
    residual = abs(lhs - rhs)
    if table.method.startswith("exact") and residual > 1e-8:
        raise InternalConsistencyError(
            f"sigma_hat_m identity residual {residual:.3e} > 1e-8")
    return SigmaHatM(value=float(lhs), residual=float(residual))
