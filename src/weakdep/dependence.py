"""Physical dependence measures and summability checks.

theta'_l(p) = ||X_l - X_l^{(l,')}||_p couples a single innovation (the one
at lag l) to its primed copy; theta*_l(p) = ||X_l - X_l^{(l,*)}||_p couples
every innovation at lag >= l.  Small values mean the process forgets its
past quickly.  The summability conditions are checked by tail-exponent
fits — they are verdicts about fits, never proofs about infinite sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatchError, PreconditionError, check_replications
from .innovations import KEY_BLOCK, SERIES_BASE, SERIES_PRIME, law_values
from .processes import CoefficientScheme, row_blocks
from .rates import loglog_wls

__all__ = [
    "boundary_B",
    "ProfileEntry",
    "DependenceProfile",
    "AssumptionSpec",
    "AssumptionReport",
    "check_theta",
    "theta_mc",
    "theta_gl_surrogate",
    "dependence_profile",
    "check_closed_form",
    "profile_closed_form",
    "check_assumption_grid",
    "check_assumptions",
]

_BOOTSTRAP = 200


def boundary_B(p: float) -> float:
    """B(p) = 1/2 + (p /\\ 3)/(2p) - 1/p, the summability boundary."""
    if p == 0:
        raise PreconditionError("p must be nonzero")
    return 0.5 + min(p, 3.0) / (2.0 * p) - 1.0 / p


@dataclass(frozen=True)
class ProfileEntry:
    l: int
    theta_prime: float
    theta_star: float
    se_prime: float
    se_star: float


@dataclass(frozen=True)
class DependenceProfile:
    p: float
    entries: tuple
    mode: str  # closed-form | monte-carlo
    R: int

    def __post_init__(self):
        for e in self.entries:
            if e.theta_prime < 0 or e.theta_star < 0:
                raise PreconditionError("dependence measures are nonnegative")
            if self.mode == "closed-form" and (e.se_prime or e.se_star):
                raise PreconditionError("closed-form entries have stderr 0")


def check_theta(model, l: int, p: float, R: int) -> int:
    """Check a theta_mc estimate before computing it: a model with a
    window readout, a lag 0 <= l inside the window, p >= 1 and
    R >= 1000.  Returns the depth of the coupled windows for lag l: the
    model's own, with long linear schemes cut at max(4(l + 1), 256)
    innovations."""
    if not hasattr(model, "evaluate_values"):
        raise ModelMismatchError(
            f"{type(model).__name__} has no window readout to couple; "
            "the GL_d walk has theta_gl_surrogate")
    if l < 0:
        raise PreconditionError("lag must be >= 0")
    depth = min(model.required_depth, max(4 * (l + 1), 256))
    if l >= depth:
        raise PreconditionError(
            f"lag {l} outside evaluation window of depth {depth}; "
            "enlarge the window/model depth")
    check_replications(R, "theta_mc")
    if p < 1:
        raise PreconditionError("p must be >= 1")
    return depth


def _bootstrap_se(powers: np.ndarray, p: float, seed_material: int) -> float:
    """Nonparametric bootstrap stderr of (mean powers)^(1/p); resampling
    randomness is itself keyed for reproducibility.  The resamples are
    drawn and reduced a block of about KEY_BLOCK indices at a time; the
    generator draws the same indices whatever the block."""
    rng = np.random.default_rng(seed_material)
    R = len(powers)
    rows = max(1, KEY_BLOCK // R)
    boots = np.empty(_BOOTSTRAP)
    for start in range(0, _BOOTSTRAP, rows):
        idx = rng.integers(0, R, size=(min(rows, _BOOTSTRAP - start), R))
        boots[start:start + len(idx)] = np.mean(powers[idx], axis=1)
    return float(np.std(boots ** (1.0 / p), ddof=1))


def theta_mc(model, l: int, p: float, R: int, seed: int = 0,
             rep_start: int = 0) -> ProfileEntry:
    """Monte Carlo theta'_l(p), theta*_l(p) from coupled windows: the base
    and filtered evaluations share every innovation except the substituted
    ones, so the difference isolates the dependence on lag l.

    The windows are hashed, coupled and evaluated one ``row_blocks`` block
    of replications at a time, in one window buffer allocated per call:
    the base window, then the primed one (column l from the primed
    series), then the starred one (columns l on); the primed tail has a
    reused buffer of its own.  No (R, depth) matrix is built, and a linear
    readout's gemv keeps the bits of the whole window matrix's product."""
    depth = check_theta(model, l, p, R)
    reps = rep_start + np.arange(R)
    times = l - np.arange(depth)  # window anchored at k = l
    x, x_prime, x_star = (np.empty(R) for _ in range(3))
    blocks = list(row_blocks(R, depth))
    height = max(b - a for a, b in blocks)
    windows, tails = np.empty((height, depth)), np.empty((height, depth - l))
    for a, b in blocks:
        block = reps[a:b, None]
        window = law_values(model.law, seed, block, SERIES_BASE, times,
                            out=windows[:b - a])
        prime_tail = law_values(model.law, seed, block, SERIES_PRIME,
                                times[l:], out=tails[:b - a])
        x[a:b] = model.evaluate_values(window)
        window[:, l] = prime_tail[:, 0]
        x_prime[a:b] = model.evaluate_values(window)
        window[:, l:] = prime_tail
        x_star[a:b] = model.evaluate_values(window)
    pow_prime = np.abs(x - x_prime) ** p
    pow_star = np.abs(x - x_star) ** p
    theta_prime = float(np.mean(pow_prime) ** (1.0 / p))
    theta_star = float(np.mean(pow_star) ** (1.0 / p))
    se_prime = _bootstrap_se(pow_prime, p, (seed << 8) ^ (2 * l))
    se_star = _bootstrap_se(pow_star, p, (seed << 8) ^ (2 * l + 1))
    return ProfileEntry(l, theta_prime, theta_star, se_prime, se_star)


def _gl_probe_pairs(d: int):
    e1 = np.zeros(d); e1[0] = 1.0
    e2 = np.zeros(d); e2[1] = 1.0
    s = 1.0 / np.sqrt(2.0)
    return ((e1, e2), (e1, s * (e1 + e2)), (e2, s * (e1 - e2)))


def theta_gl_surrogate(model, k: int, p: float, R: int,
                       seed: int = 0) -> tuple[float, float]:
    """max over a fixed probe set of start pairs (x, y) of the Monte Carlo
    ||X_kx - X_ky||_p of a GL_d walk, with both chains driven by the same
    matrices (its ``log_gains``).  Returns (estimate, bootstrap stderr of
    the maximizing pair)."""
    if not hasattr(model, "log_gains"):
        raise ModelMismatchError("theta_gl_surrogate needs a GL_d walk")
    if k < 0:
        raise PreconditionError("k must be >= 0")
    if k == 0:
        return 0.0, 0.0
    # every probe chain runs on the same matrices: (pairs, 2, R, d) starts
    pairs = np.array(_gl_probe_pairs(model.d))[:, :, None, :]
    start = np.broadcast_to(pairs, pairs.shape[:2] + (R, model.d))
    for gains in model.log_gains(seed, np.arange(R), k, start=start):
        pass  # the gains at step k
    best = (-1.0, 0.0)
    for pair_idx, (gain_x, gain_y) in enumerate(gains):
        powers = np.abs(gain_x - gain_y) ** p
        est = float(np.mean(powers) ** (1.0 / p))
        if est > best[0]:
            se = _bootstrap_se(powers, p, (seed << 8) ^ (16 * k + pair_idx))
            best = (est, se)
    return best


def dependence_profile(model, p: float, l_grid, R: int,
                       seed: int = 0) -> DependenceProfile:
    entries = tuple(theta_mc(model, int(l), p, R, seed=seed, rep_start=i * R)
                    for i, l in enumerate(l_grid))
    return DependenceProfile(p=p, entries=entries, mode="monte-carlo", R=R)


def check_closed_form(p: float) -> None:
    """Check that a closed-form profile exists at moment order p."""
    if p != 2.0:
        raise PreconditionError("closed forms are available at p = 2 only")


def profile_closed_form(scheme: CoefficientScheme, l_grid,
                        p: float = 2.0) -> DependenceProfile:
    """Exact p=2 profile for linear models with unit-variance innovations:
    theta'_l(2) = sqrt(2)|alpha_l|, theta*_l(2) = sqrt(2 sum_{j>=l} alpha_j^2)."""
    check_closed_form(p)
    alpha = scheme.coefficients
    entries = []
    for l in l_grid:
        l = int(l)
        a_l = alpha[l] if l < len(alpha) else 0.0
        tp = np.sqrt(2.0) * abs(float(a_l))
        ts = float(np.sqrt(2.0 * scheme.tail_sumsq(l)))
        entries.append(ProfileEntry(l, tp, ts, 0.0, 0.0))
    return DependenceProfile(p=p, entries=tuple(entries),
                             mode="closed-form", R=0)


@dataclass(frozen=True)
class AssumptionSpec:
    """Exponents of the summability conditions sum k^a theta*_k(p) < inf
    and sum k^b theta'_k(p) < inf; b must clear the boundary B(p)."""

    p: float
    a_exp: float
    b_exp: float

    def __post_init__(self):
        if self.a_exp <= 0:
            raise PreconditionError("a must be positive")
        B = boundary_B(self.p)
        if self.b_exp <= B:
            raise PreconditionError(
                f"b = {self.b_exp} must exceed B({self.p}) = {B:.6f}")


@dataclass(frozen=True)
class AssumptionReport:
    partial_sum_prime: float  # sum l^b theta'_l over the tabulated grid
    partial_sum_star: float   # sum l^a theta*_l over the tabulated grid
    tail_exponent: float      # fitted decay exponent of theta'_l
    tail_ci: tuple            # 95% CI of the exponent
    star_exponent: float
    star_ci: tuple
    verdicts: dict            # condition -> satisfied-by-fit | violated-by-fit | inconclusive
    unify_variant: float      # sum k^a sqrt(sum_{l>=k} theta'_l^2), tabulated
    notes: str = ""


def _tail_exponent_fit(lags, values):
    """OLS fit of log value on log lag over the last half of the grid."""
    half = len(lags) // 2
    ls, vs = np.asarray(lags[half:], float), np.asarray(values[half:], float)
    keep = vs > 0
    if keep.sum() < 3:
        return np.nan, (np.nan, np.nan)
    x, y = np.log(ls[keep]), np.log(vs[keep])
    slope, _, stderr, _ = loglog_wls(x, y, np.ones_like(x))
    return slope, (slope - 1.96 * stderr, slope + 1.96 * stderr)


def _verdict(ci, critical):
    lo, hi = ci
    if np.isnan(lo):
        return "inconclusive"
    if hi < critical:
        return "satisfied-by-fit"
    if lo > critical:
        return "violated-by-fit"
    return "inconclusive"


def check_assumption_grid(l_grid) -> None:
    """Check a lag grid before profiling it for ``check_assumptions``:
    at least 8 lags, all >= 1."""
    if len(l_grid) < 8:
        raise PreconditionError("profile needs >= 8 grid entries")
    if min(l_grid) < 1:
        raise PreconditionError("assumption checks need lags >= 1")


def check_assumptions(profile: DependenceProfile,
                      spec: AssumptionSpec) -> AssumptionReport:
    """Fit-based verdicts for the summability conditions.

    satisfied-by-fit means the fitted decay exponent of theta'_l is below
    -(1 + b) with its 95% CI clear of the boundary (so the fitted power law
    would be summable against l^b); analogously for theta*_l against a.
    """
    entries = profile.entries
    lags = np.array([e.l for e in entries], dtype=float)
    check_assumption_grid(lags)
    tp = np.array([e.theta_prime for e in entries])
    ts = np.array([e.theta_star for e in entries])
    ps_prime = float(np.dot(lags ** spec.b_exp, tp))
    ps_star = float(np.dot(lags ** spec.a_exp, ts))
    exp_prime, ci_prime = _tail_exponent_fit(lags, tp)
    exp_star, ci_star = _tail_exponent_fit(lags, ts)
    verdicts = {
        "b-prime": _verdict(ci_prime, -(1.0 + spec.b_exp)),
        "a-star": _verdict(ci_star, -(1.0 + spec.a_exp)),
    }
    # sum_k k^a sqrt(sum_{l >= k} theta'^2) over the tabulated grid
    sq_tail = np.sqrt(np.cumsum((tp ** 2)[::-1])[::-1])
    unify = float(np.dot(lags ** spec.a_exp, sq_tail))
    notes = ("verdicts are statements about fitted power laws on the "
             "tabulated grid, not proofs about the infinite sums")
    return AssumptionReport(
        partial_sum_prime=ps_prime, partial_sum_star=ps_star,
        tail_exponent=exp_prime, tail_ci=ci_prime,
        star_exponent=exp_star, star_ci=ci_star,
        verdicts=verdicts, unify_variant=unify, notes=notes)
