"""Physical dependence measures and summability checks.

theta'_l(p) = ||X_l - X_l^{(l,')}||_p couples a single innovation (the one
at lag l) to its primed copy; theta*_l(p) = ||X_l - X_l^{(l,*)}||_p couples
every innovation at lag >= l.  Small values mean the process forgets its
past quickly.  The summability conditions are checked by tail-exponent
fits — they are verdicts about fits, never proofs about infinite sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ModelMismatchError, PreconditionError
from .innovations import SERIES_BASE, SERIES_PRIME, law_values
from .processes import CoefficientScheme, GLdWalkModel
from .rates import loglog_wls

__all__ = [
    "boundary_B",
    "ThetaEstimate",
    "ProfileEntry",
    "DependenceProfile",
    "AssumptionSpec",
    "AssumptionReport",
    "theta_mc",
    "theta_gl_surrogate",
    "dependence_profile",
    "profile_closed_form",
    "check_assumptions",
]

_BOOTSTRAP = 200


def boundary_B(p: float) -> float:
    """B(p) = 1/2 + (p /\\ 3)/(2p) - 1/p, the summability boundary."""
    if p == 0:
        raise PreconditionError("p must be nonzero")
    return 0.5 + min(p, 3.0) / (2.0 * p) - 1.0 / p


@dataclass(frozen=True)
class ThetaEstimate:
    theta_prime: float
    theta_star: float
    se_prime: float
    se_star: float


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

    @property
    def lags(self) -> np.ndarray:
        return np.array([e.l for e in self.entries])


def _window_depth(model, l: int) -> int:
    """Depth of the coupled windows for lag l: the model's own depth, with
    long linear schemes cut at max(4(l + 1), 256) innovations."""
    if not hasattr(model, "evaluate_values"):
        raise ModelMismatchError(
            f"{type(model).__name__} has no window readout to couple; "
            "the GL_d walk has theta_gl_surrogate")
    depth = min(model.required_depth, max(4 * (l + 1), 256))
    if l >= depth:
        raise PreconditionError(
            f"lag {l} outside evaluation window of depth {depth}; "
            "enlarge the window/model depth")
    return depth


def _bootstrap_se(powers: np.ndarray, p: float, seed_material: int) -> float:
    """Nonparametric bootstrap stderr of (mean powers)^(1/p); resampling
    randomness is itself keyed for reproducibility."""
    rng = np.random.default_rng(seed_material)
    R = len(powers)
    idx = rng.integers(0, R, size=(_BOOTSTRAP, R))
    boots = np.mean(powers[idx], axis=1) ** (1.0 / p)
    return float(np.std(boots, ddof=1))


def theta_mc(model, l: int, p: float, R: int, seed: int = 0,
             rep_start: int = 0) -> ThetaEstimate:
    """Monte Carlo theta'_l(p), theta*_l(p) from coupled windows: the base
    and filtered evaluations share every innovation except the substituted
    ones, so the difference isolates the dependence on lag l."""
    depth = _window_depth(model, l)
    if l < 0:
        raise PreconditionError("lag must be >= 0")
    if R < 1000:
        raise PreconditionError("theta_mc needs R >= 1000")
    if p < 1:
        raise PreconditionError("p must be >= 1")
    reps = (rep_start + np.arange(R))[:, None]
    times = l - np.arange(depth)  # window anchored at k = l
    base = law_values(model.law, seed, reps, SERIES_BASE, times)
    prime_tail = law_values(model.law, seed, reps, SERIES_PRIME, times[l:])
    x = model.evaluate_values(base)
    primed = base.copy()
    primed[:, l] = prime_tail[:, 0]
    x_prime = model.evaluate_values(primed)
    starred = base
    starred[:, l:] = prime_tail  # base no longer needed; reuse the buffer
    x_star = model.evaluate_values(starred)
    pow_prime = np.abs(x - x_prime) ** p
    pow_star = np.abs(x - x_star) ** p
    theta_prime = float(np.mean(pow_prime) ** (1.0 / p))
    theta_star = float(np.mean(pow_star) ** (1.0 / p))
    se_prime = _bootstrap_se(pow_prime, p, (seed << 8) ^ (2 * l))
    se_star = _bootstrap_se(pow_star, p, (seed << 8) ^ (2 * l + 1))
    return ThetaEstimate(theta_prime, theta_star, se_prime, se_star)


def _gl_probe_pairs(d: int):
    e1 = np.zeros(d); e1[0] = 1.0
    e2 = np.zeros(d); e2[1] = 1.0
    s = 1.0 / np.sqrt(2.0)
    return ((e1, e2), (e1, s * (e1 + e2)), (e2, s * (e1 - e2)))


def theta_gl_surrogate(model: GLdWalkModel, k: int, p: float, R: int,
                       seed: int = 0) -> tuple[float, float]:
    """max over a fixed probe set of start pairs (x, y) of the Monte Carlo
    ||X_kx - X_ky||_p, with both chains driven by the same matrices.
    Returns (estimate, bootstrap stderr of the maximizing pair)."""
    if not isinstance(model, GLdWalkModel):
        raise ModelMismatchError("theta_gl_surrogate needs a GL_d walk")
    if k == 0:
        return 0.0, 0.0
    # every probe chain runs on the same matrices: (pairs, 2, R, d) starts
    pairs = np.array(_gl_probe_pairs(model.d))[:, :, None, :]
    start = np.broadcast_to(pairs, pairs.shape[:2] + (R, model.d))
    gains = next(islice(model.log_gains(seed, np.arange(R), start=start),
                        k - 1, None))
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
    entries = []
    for i, l in enumerate(l_grid):
        est = theta_mc(model, int(l), p, R, seed=seed, rep_start=i * R)
        entries.append(ProfileEntry(int(l), est.theta_prime, est.theta_star,
                                    est.se_prime, est.se_star))
    return DependenceProfile(p=p, entries=tuple(entries),
                             mode="monte-carlo", R=R)


def profile_closed_form(scheme: CoefficientScheme, l_grid,
                        p: float = 2.0) -> DependenceProfile:
    """Exact p=2 profile for linear models with unit-variance innovations:
    theta'_l(2) = sqrt(2)|alpha_l|, theta*_l(2) = sqrt(2 sum_{j>=l} alpha_j^2)."""
    if p != 2.0:
        raise PreconditionError("closed forms are available at p = 2 only")
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

    def to_dict(self) -> dict:
        return {
            "partial_sum_prime": self.partial_sum_prime,
            "partial_sum_star": self.partial_sum_star,
            "tail_exponent": self.tail_exponent,
            "tail_ci": list(self.tail_ci),
            "star_exponent": self.star_exponent,
            "star_ci": list(self.star_ci),
            "verdicts": dict(self.verdicts),
            "unify_variant": self.unify_variant,
            "notes": self.notes,
        }


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


def check_assumptions(profile: DependenceProfile,
                      spec: AssumptionSpec) -> AssumptionReport:
    """Fit-based verdicts for the summability conditions.

    satisfied-by-fit means the fitted decay exponent of theta'_l is below
    -(1 + b) with its 95% CI clear of the boundary (so the fitted power law
    would be summable against l^b); analogously for theta*_l against a.
    """
    entries = profile.entries
    if len(entries) < 8:
        raise PreconditionError("profile needs >= 8 grid entries")
    lags = np.array([e.l for e in entries], dtype=float)
    if np.any(lags < 1):
        raise PreconditionError("assumption checks need lags >= 1")
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
