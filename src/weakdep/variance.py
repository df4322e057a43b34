"""Autocovariances, long-run variance and exact finite-n variance identities.

The long-run variance ss^2 = sum_{k in Z} E X_0 X_k is the CLT variance;
``exact_sum_variance_linear`` evaluates E S_n^2 for linear models through
the Beveridge-Nelson innovation weights, which is exact at every n and is
cross-checked against the autocovariance identity

    E S_n^2 = n * sum_k gamma(k) - sum_k (n /\\ |k|) gamma(k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import (
    DegenerateVarianceError,
    InternalConsistencyError,
    ModelMismatchError,
    PreconditionError,
)
from .processes import (
    CoefficientScheme,
    DoublingModel,
    LinearModel,
    PowerLawScheme,
    _DOUBLING_OBSERVABLES,
    _bn_weights,
    _paths_matrix,
    partial_sums,
)

__all__ = [
    "AutocovarianceTable",
    "LongRunVariance",
    "VarianceReport",
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

    @property
    def K(self) -> int:
        return len(self.gamma) - 1


def _exact_linear_gamma(model: LinearModel, K: int) -> np.ndarray:
    alpha = model.scheme.coefficients
    L = len(alpha)
    g = np.zeros(K + 1)
    for k in range(min(K, L - 1) + 1):
        g[k] = np.dot(alpha[: L - k], alpha[k:])
    return g


# Gauss-Legendre nodes on [0, 1], used per half-cell so that the
# half-indicator observable is integrated exactly
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _exact_doubling_gamma(model: DoublingModel, K: int) -> np.ndarray:
    """gamma(k) = int_0^1 f(x) f(2^k x mod 1) dx by per-cell quadrature,
    each dyadic cell split at its midpoint (where 2^k x mod 1 crosses 1/2)."""
    if K > 24:
        raise PreconditionError("exact-doubling lag cap is 24")
    f = _DOUBLING_OBSERVABLES[model.observable].f
    # u-nodes covering [0, 1] as two half-cells
    u = np.concatenate([0.5 * _GL_NODES, 0.5 + 0.5 * _GL_NODES])
    wq = np.concatenate([0.5 * _GL_WEIGHTS, 0.5 * _GL_WEIGHTS])
    fu = f(u)
    g = np.zeros(K + 1)
    chunk = 1 << 16  # bound the (cells x nodes) work array
    for k in range(K + 1):
        h = 2.0 ** -k
        cells = 2 ** k
        outer = np.zeros(len(u))
        for lo in range(0, cells, chunk):
            i = np.arange(lo, min(lo + chunk, cells), dtype=np.float64)
            # gamma(k) = h * sum_g wq_g f(u_g) * sum_i f((i + u_g) h)
            outer += f((i[:, None] + u[None, :]) * h).sum(axis=0)
        g[k] = h * np.dot(wq * fu, outer)
    return g


def _mc_gamma(model, K: int, R: int, seed) -> tuple[np.ndarray, np.ndarray]:
    T = max(2 * K, 64)
    paths = _paths_matrix(model, seed, _VAR_REP_OFFSET + np.arange(R), T + K)
    g = np.empty(K + 1)
    se = np.empty(K + 1)
    for k in range(K + 1):
        prods = paths[:, :T] * paths[:, k:T + k]
        per_rep = prods.mean(axis=1)
        g[k] = per_rep.mean()
        se[k] = per_rep.std(ddof=1) / np.sqrt(R)
    return g, se


# exact autocovariance methods: the model family each needs, its oracle
_EXACT_GAMMA = {"exact-linear": (LinearModel, _exact_linear_gamma),
                "exact-doubling": (DoublingModel, _exact_doubling_gamma)}


def _autocov_method(model, method: str = "auto") -> str:
    """The autocovariance method for ``model``: 'auto' picks the exact
    method of the model's family, else 'monte-carlo'.  Raises
    ModelMismatchError for an exact method of another family."""
    if method == "auto":
        return next((name for name, (family, _) in _EXACT_GAMMA.items()
                     if isinstance(model, family)), "monte-carlo")
    if method in _EXACT_GAMMA:
        family = _EXACT_GAMMA[method][0]
        if not isinstance(model, family):
            raise ModelMismatchError(
                f"{method} requires a {family.__name__}")
    elif method != "monte-carlo":
        raise PreconditionError(f"unknown method {method!r}")
    return method


def autocovariance(model, K: int, method: str = "auto", R: int = 4096,
                   seed: int = 0) -> AutocovarianceTable:
    """Autocovariance table for lags 0..K.

    method 'exact-linear' reads the coefficient convolution off the scheme;
    'exact-doubling' integrates f(x) f(2^k x mod 1) by quadrature;
    'monte-carlo' averages lagged products across R replications.
    """
    if K < 1:
        raise PreconditionError("K must be >= 1")
    method = _autocov_method(model, method)
    if method == "monte-carlo":
        g, se = _mc_gamma(model, K, R, seed)
    else:
        g, se = _EXACT_GAMMA[method][1](model, K), np.zeros(K + 1)
    return AutocovarianceTable(gamma=g, stderr=se, method=method, model=model)


@dataclass(frozen=True)
class LongRunVariance:
    """ss^2 with its construction: series part, fitted tail correction,
    and (for linear models) the exact (sum alpha_j)^2 cross-check."""

    value: float
    series: float
    tail: float
    exact_linear: float | None = None
    note: str = ""

    def __float__(self):
        return self.value


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
    from scipy.special import zeta as hurwitz_zeta
    tail = 2.0 * np.exp(logc) * float(hurwitz_zeta(-slope, K + 1))
    return float(tail), f"tail-fit: exponent {slope:.2f}"


def longrun_variance(table: AutocovarianceTable) -> LongRunVariance:
    """ss^2 = gamma(0) + 2 sum_{k>=1} gamma(k), with a fitted tail
    correction; raises DegenerateVarianceError when the result is
    numerically zero (the cancellation schemes)."""
    g = table.gamma
    series = float(g[0] + 2.0 * g[1:].sum())
    tail, note = _fit_tail(g)
    exact = None
    model = table.model
    if isinstance(model, LinearModel):
        total = model.scheme.total_sum()
        if np.isfinite(total):
            exact = float(total ** 2)
    value = exact if exact is not None else series + tail
    if value <= DEGENERACY_THRESHOLD:
        raise DegenerateVarianceError(
            f"long-run variance {value:.3e} <= {DEGENERACY_THRESHOLD:.0e}; "
            "use the E S_n^2 normalization instead")
    return LongRunVariance(value=float(value), series=series, tail=tail,
                           exact_linear=exact, note=note)


def _power_law_sum_variance(scheme: PowerLawScheme, n: int) -> float:
    """E S_n^2 for the untruncated power-law scheme: present part
    sum_{s<n} C(s)^2 plus infinite past sum_{i>=0} (C(n+i) - C(i))^2, the
    far past handled by a midpoint/quad Euler-Maclaurin tail."""
    a = scheme.a
    if a <= 1.0:
        raise PreconditionError("untruncated E S_n^2 needs a > 1")
    direct = 8 * n
    H = scheme.analytic_cumsum(direct + n)  # H[t] = C(t)
    present = float(np.dot(H[:n], H[:n]))
    i = np.arange(direct)
    D = H[n + i] - H[i]
    past = float(np.dot(D, D))

    def h(x):
        return ((x + 0.5) ** (1 - a) - (x + n + 0.5) ** (1 - a)) ** 2 \
            / (a - 1) ** 2

    # map (c, inf) to (0, 1] via x = c/t: keeps quad off the slowly
    # decaying infinite range, where it loses accuracy for large n
    c = direct - 0.5
    tail, _ = quad(lambda t: h(c / t) * c / t ** 2, 0.0, 1.0, limit=200)
    return present + past + float(tail)


def exact_sum_variance_linear(scheme: CoefficientScheme, n: int) -> float:
    """E S_n^2 for a linear model with unit-variance innovations.

    Truncated schemes are summed exactly through their Beveridge-Nelson
    weights; the power-law scheme is evaluated for the *untruncated*
    sequence (its tail is analytic), so rate studies see no truncation
    bias.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if isinstance(scheme, PowerLawScheme):
        return _power_law_sum_variance(scheme, n)
    w, _ = _bn_weights(scheme, n)
    return float(np.dot(w, w))


def sum_variance(model, n: int, seed: int = 0, R: int = 4096) -> float:
    """E S_n^2 for any model: exact for linear and doubling, Monte Carlo
    (reserved replication range) otherwise."""
    if isinstance(model, LinearModel):
        return exact_sum_variance_linear(model.scheme, n)
    if isinstance(model, DoublingModel):
        table = autocovariance(model, K=min(24, max(1, n - 1)),
                               method="exact-doubling")
        g = table.gamma
        k = np.arange(1, len(g))
        return float(n * g[0] + 2.0 * np.dot(n - np.minimum(k, n), g[1:]))
    s = partial_sums(model, seed, _VAR_REP_OFFSET + np.arange(R), n)
    return float(np.var(s, ddof=1))


def model_longrun_variance(model, seed: int = 0, K: int | None = None,
                           R: int = 4096) -> LongRunVariance:
    """Convenience: build the natural table for the model and sum it."""
    if isinstance(model, LinearModel):
        K = K or min(model.scheme.length, 256)
        table = autocovariance(model, K=K, method="exact-linear")
    elif isinstance(model, DoublingModel):
        table = autocovariance(model, K=K or 20, method="exact-doubling")
    else:
        table = autocovariance(model, K=K or 48, method="monte-carlo",
                               R=R, seed=seed)
    return longrun_variance(table)


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


@dataclass(frozen=True)
class VarianceReport:
    """Summary consumed by the CLI variance task."""

    ss2: float
    s_n2: float
    sigma_hat_m2: float
    n: int
    m: int
    note: str = ""
    extra: dict = field(default_factory=dict)
