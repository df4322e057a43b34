"""m-dependent block machinery.

The sample 1..n is laid out as N pairs of m-blocks plus a remainder m'
(n = 2(N-1)m + m').  Under the interleaved sigma-algebra F_m — which
observes the pre-sample window eps_{-m+1..0}, every *even* block of
innovations, and independent primed copies in place of the odd blocks —
the conditionally centered block sums Y_j^(1) are independent across j,
and their conditional variances sigma_{j|m}^2 are the paper-trail objects
this module computes.

For the m-projected linear model everything is a linear form in the
innovations, so conditional expectations are exact coefficient sums: an
innovation in an odd ("primed-away") block contributes zero to E_{F_m},
and sigma_{j|m}^2 is the sum of squared weights of the odd-block
innovations feeding block pair j.  The doubling map uses nested Monte
Carlo over its closed-form m-projection; models without an m-projection
(Hoelder functionals, the GL_d walk) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    LayoutError,
    ModelMismatchError,
    PreconditionError,
)
from .innovations import SERIES_AUX, SERIES_BASE, law_values
from .processes import (
    DoublingModel,
    LinearModel,
    m_project,
)
from .variance import autocovariance, longrun_variance

__all__ = [
    "BlockLayout",
    "BlockSums",
    "BlockDiagnostics",
    "make_layout",
    "block_mode",
    "conditional_block_sums",
    "conditional_variances",
    "degeneracy_probability",
]

# channel base for nested-MC tail draws
_CH_NESTED = 4096


@dataclass(frozen=True)
class BlockLayout:
    n: int
    m: int
    N: int
    m_prime: int

    def __post_init__(self):
        if self.N < 2:
            raise LayoutError("need at least N = 2 block pairs")
        if self.n != 2 * (self.N - 1) * self.m + self.m_prime:
            raise LayoutError("n != 2(N-1)m + m'")
        if not (2 * self.m_prime >= self.m and self.m_prime <= self.m):
            raise LayoutError("remainder m' must satisfy m/2 <= m' <= m")

    # k-ranges (klo, khi) of the block constructions for pair j; khi may
    # run past n in the last pair, where the remainder block is shorter

    def u_range(self, j: int) -> tuple[int, int]:
        return (2 * j - 2) * self.m + 1, (2 * j - 1) * self.m

    def r_range(self, j: int) -> tuple[int, int]:
        return (2 * j - 1) * self.m + 1, 2 * j * self.m

    def y2_range(self, j: int) -> tuple[int, int]:
        if j == 1:
            return 1, self.m
        return (2 * j - 3) * self.m + 1, (2 * j - 1) * self.m

    def k_slice(self, klo: int, khi: int) -> slice:
        """Columns of X_1..X_n holding k = klo..khi (clipped at n)."""
        return slice(klo - 1, min(khi, self.n))


def make_layout(n: int, m: int) -> BlockLayout:
    """Largest N with m' = n - 2(N-1)m in [m/2, m]."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if n < 3 * m:
        raise PreconditionError(f"need n >= 3m (= {3 * m}), got n = {n}")
    for N in range((n - 1) // (2 * m) + 2, 1, -1):
        m_prime = n - 2 * (N - 1) * m
        if 2 * m_prime >= m and m_prime <= m:
            return BlockLayout(n=n, m=m, N=N, m_prime=m_prime)
    raise LayoutError(
        f"no N >= 2 gives a remainder in [{(m + 1) // 2}, {m}] for "
        f"n = {n}, m = {m}")


def _is_observed(t: np.ndarray, m: int) -> np.ndarray:
    """F_m observes the window -m+1..0 and the even innovation blocks."""
    in_window = (t >= 1 - m) & (t <= 0)
    block = (t - 1) // m + 1
    return in_window | ((t >= 1) & (block % 2 == 0))


class _LinearBlocks:
    """Exact coefficient structure of the m-projected linear model on a
    layout; every conditional quantity is a weighted sum of innovations."""

    def __init__(self, model: LinearModel, layout: BlockLayout):
        self.layout = layout
        scheme_m = m_project(model, layout.m).scheme
        self.model = LinearModel(scheme_m, model.law)
        m, n = layout.m, layout.n
        self.depth = scheme_m.length  # <= m
        C = scheme_m.cumsum
        self._C = C
        self.t = np.arange(1 - m, n + 1)
        self.observed = _is_observed(self.t, m)

    def _C_at(self, s: np.ndarray) -> np.ndarray:
        s = np.minimum(s, self.depth - 1)
        return np.where(s >= 0, self._C[np.clip(s, 0, self.depth - 1)], 0.0)

    def range_weights(self, klo: int, khi: int) -> np.ndarray:
        """Weight of eps_t in sum_{k=klo..khi} X_{km}, over self.t."""
        khi = min(khi, self.layout.n)
        if khi < klo:
            return np.zeros_like(self.t, dtype=float)
        return self._C_at(khi - self.t) - self._C_at(klo - 1 - self.t)

    def sigma_j_given_m(self) -> np.ndarray:
        """Conditional variances sigma_{j|m}^2 — deterministic: the
        unobserved innovations of block pair j live in odd block 2j-1."""
        m, N = self.layout.m, self.layout.N
        out = np.empty(N)
        for j in range(1, N + 1):
            klo, khi = self.layout.u_range(j)[0], self.layout.r_range(j)[1]
            w = self.range_weights(klo, khi)
            sel = ~self.observed
            out[j - 1] = np.dot(w[sel], w[sel]) / (2.0 * m)
        return out

    def global_weights(self) -> np.ndarray:
        return self.range_weights(1, self.layout.n)


@dataclass(frozen=True)
class BlockSums:
    U: np.ndarray
    R: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    mode: str


def _nested_projection(model, m: int):
    try:
        return m_project(model, m)
    except ModelMismatchError:
        raise ModelMismatchError(
            f"nested-mc blocks need a cheap m-projection; "
            f"{type(model).__name__} does not provide one") from None


def block_mode(model, m: int, mode: str = "auto") -> str:
    """The route the block functions take for ``model``: 'exact' (linear
    models; what 'auto' picks for them) or 'nested-mc' over the
    m-projection (what 'auto' picks otherwise).  Raises ModelMismatchError
    when the model does not support the route."""
    if mode == "auto":
        mode = "exact" if isinstance(model, LinearModel) else "nested-mc"
    if mode == "exact":
        if not isinstance(model, LinearModel):
            raise ModelMismatchError(
                "exact block mode is available for linear models only")
    elif mode == "nested-mc":
        _nested_projection(model, m)
    else:
        raise PreconditionError("mode must be exact, nested-mc or auto")
    return mode


def _nested_draws(proj, layout: BlockLayout, seed, replication: int, K: int):
    """The replication's innovations over times 1-m..n and a (K, n + m)
    stack of nested copies whose unobserved slots are fresh draws from
    the reserved stream."""
    t = np.arange(1 - layout.m, layout.n + 1)
    obs = _is_observed(t, layout.m)
    eps = law_values(proj.law, seed, replication, SERIES_BASE, t)
    chans = (_CH_NESTED + np.arange(K))[:, None]
    fresh = law_values(proj.law, seed, replication, SERIES_AUX, t[~obs],
                       channel=chans)
    stack = np.broadcast_to(eps, (K, len(t))).copy()
    stack[:, ~obs] = fresh
    return eps, stack


def _nested_xkm(proj, layout: BlockLayout, eps: np.ndarray) -> np.ndarray:
    """X_{km} for k = 1..n from innovation rows eps over times 1-m..n
    (rows may be a stack of nested draws)."""
    d = proj.required_depth
    m, n = layout.m, layout.n
    single = eps.ndim == 1
    rows = eps[None, :] if single else eps
    win = np.lib.stride_tricks.sliding_window_view(rows, d, axis=1)
    # X_k uses eps_{k-d+1..k}, newest first; time index t maps to column t+m-1
    win = win[:, m - d + 1:m - d + 1 + n, ::-1]
    x = proj.evaluate_values(win)
    return x[0] if single else x


def conditional_block_sums(model, layout: BlockLayout, replication: int,
                           seed: int = 0, mode: str = "auto",
                           K: int = 256) -> BlockSums:
    """Realized U_j, R_j, Y_j^(1) = U_j + R_j and Y_j^(2) for one
    replication.  Y_j^(2) collects E_{F_m} X_{km} over the non-overlapping
    k-partition (block 1 | blocks 2j-2, 2j-1), under which the Y_j^(2)
    depend on disjoint observed innovation blocks and are independent."""
    mode = block_mode(model, layout.m, mode)
    N = layout.N

    if mode == "exact":
        lin = _LinearBlocks(model, layout)
        eps = law_values(lin.model.law, seed, replication, SERIES_BASE, lin.t)
        obs, unobs = lin.observed, ~lin.observed
        U = np.empty(N); Rj = np.empty(N); Y2 = np.empty(N)
        for j in range(1, N + 1):
            wu = lin.range_weights(*layout.u_range(j))
            wr = lin.range_weights(*layout.r_range(j))
            wy2 = lin.range_weights(*layout.y2_range(j))
            U[j - 1] = np.dot(wu[unobs], eps[unobs])
            Rj[j - 1] = np.dot(wr[unobs], eps[unobs])
            Y2[j - 1] = np.dot(wy2[obs], eps[obs])
        return BlockSums(U=U, R=Rj, Y1=U + Rj, Y2=Y2, mode="exact")

    proj = _nested_projection(model, layout.m)
    eps, stack = _nested_draws(proj, layout, seed, replication, K)
    x = _nested_xkm(proj, layout, eps)
    # E_{F_m} X_{km} by averaging K fresh draws of the unobserved slots
    cond_mean = _nested_xkm(proj, layout, stack).mean(axis=0)
    centered = x - cond_mean
    U = np.empty(N); Rj = np.empty(N); Y2 = np.empty(N)
    for j in range(1, N + 1):
        U[j - 1] = centered[layout.k_slice(*layout.u_range(j))].sum()
        Rj[j - 1] = centered[layout.k_slice(*layout.r_range(j))].sum()
        Y2[j - 1] = cond_mean[layout.k_slice(*layout.y2_range(j))].sum()
    return BlockSums(U=U, R=Rj, Y1=U + Rj, Y2=Y2, mode="nested-mc")


@dataclass(frozen=True)
class BlockDiagnostics:
    sigma_j: np.ndarray      # sigma_{j|m}^2, j = 1..N
    sigma_given_m: float     # N^-1 sum_j sigma_{j|m}^2
    sigma_bar_m2: float      # n^-1 E (S^(1))^2
    varsigma_bar_m2: float   # n^-1 E (S^(2))^2
    ss_nm2: float            # n^-1 E S_n^2 of the m-projected model
    mode: str
    layout: BlockLayout
    identity_residual: float

    def __post_init__(self):
        if np.any(np.asarray(self.sigma_j) < 0) or self.sigma_bar_m2 < 0 \
                or self.varsigma_bar_m2 < 0:
            raise PreconditionError("variances must be nonnegative")


def conditional_variances(model, layout: BlockLayout, replication: int = 0,
                          seed: int = 0, mode: str = "auto",
                          K: int = 256) -> BlockDiagnostics:
    """The partial/conditional variances of the block decomposition.

    Exact mode (linear): sigma_{j|m}^2 is the squared-coefficient mass of
    the odd-block innovations and does not depend on F_m, so the
    replication argument is unused; the identity
    ss_nm^2 = sigma_bar^2 + varsigma_bar^2 is checked against the
    independently computed autocovariance route at 1e-10.
    """
    mode = block_mode(model, layout.m, mode)
    m, n, N = layout.m, layout.n, layout.N

    if mode == "exact":
        lin = _LinearBlocks(model, layout)
        sigma_j = lin.sigma_j_given_m()
        w = lin.global_weights()
        unobs = ~lin.observed
        sigma_bar = float(np.dot(w[unobs], w[unobs]) / n)
        varsigma_bar = float(np.dot(w[~unobs], w[~unobs]) / n)
        # independent route: gamma-based identity for the projected model
        table = autocovariance(lin.model, K=max(1, lin.depth),
                               method="exact-linear")
        g = table.gamma
        k = np.arange(1, len(g))
        ss_nm2 = float(g[0] + 2.0 * g[1:].sum()
                       - (2.0 / n) * np.dot(np.minimum(k, n), g[1:]))
        residual = abs(ss_nm2 - (sigma_bar + varsigma_bar))
        if residual > 1e-10 * max(1.0, ss_nm2):
            raise InternalConsistencyError(
                f"block variance identity residual {residual:.3e}")
        return BlockDiagnostics(
            sigma_j=sigma_j, sigma_given_m=float(sigma_j.mean()),
            sigma_bar_m2=sigma_bar, varsigma_bar_m2=varsigma_bar,
            ss_nm2=ss_nm2, mode="exact", layout=layout,
            identity_residual=float(residual))

    proj = _nested_projection(model, m)
    _, stack = _nested_draws(proj, layout, seed, replication, K)
    x = _nested_xkm(proj, layout, stack)  # (K, n)
    cond_mean = x.mean(axis=0)
    centered = x - cond_mean
    sigma_j = np.empty(N)
    for j in range(1, N + 1):
        sl = layout.k_slice(layout.u_range(j)[0], layout.r_range(j)[1])
        y1 = centered[:, sl].sum(axis=1)
        sigma_j[j - 1] = np.mean(y1 ** 2) / (2.0 * m)
    s1 = centered.sum(axis=1)
    sigma_bar = float(np.mean(s1 ** 2) / n)
    varsigma_bar = float(cond_mean.sum() ** 2 / n)  # one-replication sample
    return BlockDiagnostics(
        sigma_j=sigma_j, sigma_given_m=float(sigma_j.mean()),
        sigma_bar_m2=sigma_bar, varsigma_bar_m2=varsigma_bar,
        ss_nm2=float("nan"), mode="nested-mc", layout=layout,
        identity_residual=float("nan"))


def _projected_longrun(model, m: int, seed: int) -> float:
    proj = m_project(model, m)
    if isinstance(proj, LinearModel):
        return float(proj.scheme.total_sum() ** 2)
    if isinstance(proj, DoublingModel):
        return longrun_variance(
            autocovariance(proj, K=20, method="exact-doubling")).value
    table = autocovariance(proj, K=max(8, 2 * m), method="monte-carlo",
                           seed=seed)
    return longrun_variance(table).value


def degeneracy_probability(model, layout: BlockLayout, R: int,
                           seed: int = 0, mode: str = "auto", K: int = 64,
                           threshold_factor: float = 0.125) -> float:
    """Frequency of the degeneracy event
    { N^-1 sum_j sigma_{j|m}^2 <= threshold_factor * ss_m^2 } over R
    replications of the F_m randomness.  For linear models the conditional
    variances are deterministic, so the frequency is the 0/1 indicator."""
    if R < 1000:
        raise PreconditionError("degeneracy_probability needs R >= 1000")
    mode = block_mode(model, layout.m, mode)
    threshold = threshold_factor * _projected_longrun(model, layout.m, seed)
    if mode == "exact":
        diag = conditional_variances(model, layout, mode="exact")
        return float(diag.sigma_given_m <= threshold)
    hits = 0
    for r in range(R):
        diag = conditional_variances(model, layout, replication=r, seed=seed,
                                     mode="nested-mc", K=K)
        hits += diag.sigma_given_m <= threshold
    return hits / R
