"""Acceptance gate: one test per headline capability, each printing a
single PASS/FAIL line with the measured quantities.

These are the binding end-to-end checks of the package: exact-oracle
equivalences where closed forms exist, slope-recovery checks at fixed
tolerances where the targets are asymptotic.  Monte Carlo criteria run
under pinned seeds; every replication range is disjoint by construction,
so the numbers below are bit-reproducible.
"""

import numpy as np
import pytest
from scipy.special import ndtr, roots_legendre
from scipy.stats import binom

from weakdep.bedistance import dkw_halfwidth, empirical_delta
from weakdep.blocks import conditional_variances, degeneracy_probability, make_layout
from weakdep.dependence import boundary_B, profile_closed_form, theta_gl_surrogate, theta_mc
from weakdep.errors import DegenerateVarianceError
from weakdep.innovations import get_law
from weakdep.processes import (
    DifferenceScheme,
    DoublingModel,
    ExplicitScheme,
    GeometricScheme,
    GLdWalkModel,
    LinearModel,
    PowerLawScheme,
    identity_scheme,
    m_project,
)
from weakdep.rates import fit_rate, run_rate_experiment
from weakdep.variance import (
    autocovariance,
    exact_sum_variance_linear,
    longrun_variance,
    model_longrun_variance,
    sigma_hat_m,
)

GAUSS = get_law("standard-gaussian")
RAD = get_law("rademacher")


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, detail


def _binomial_delta(n):
    k = np.arange(n + 1)
    s = (2 * k - n) / np.sqrt(n)
    cdf = binom.cdf(k, n, 0.5)
    phi = ndtr(s)
    left = np.concatenate([[0.0], cdf[:-1]])
    return float(max(np.max(np.abs(cdf - phi)), np.max(np.abs(left - phi))))


def test_acceptance_01_gaussian_exactness():
    """i.i.d. Gaussian sums are exactly normal: closed form 0, empirical
    below the DKW noise floor for >= 99 of 100 pinned seeds."""
    m = LinearModel(identity_scheme(), GAUSS)
    closed = run_rate_experiment(m, [64, 128, 256, 512], 0, "sqrt-n-ss2")
    all_zero = all(e.delta == 0.0 for e in closed)
    hw = dkw_halfwidth(10_000, 0.01)
    hits = sum(
        empirical_delta(m, 64, 10_000, "sqrt-n-ss2", seed=s).delta <= hw
        for s in range(100))
    _verdict(1, all_zero and hits >= 99,
             f"closed-form all zero: {all_zero}; "
             f"empirical within DKW band in {hits}/100 seeds (need >= 99)")


def test_acceptance_02_variance_identity():
    """E S_n^2 from Beveridge-Nelson weights == autocovariance identity
    (rel 1e-10) for 20 random schemes; == brute-force double sum at small n."""
    rng = np.random.default_rng(20260824)
    worst_rel, worst_brute = 0.0, 0.0
    for _ in range(20):
        L = int(rng.integers(2, 48))
        alpha = tuple(rng.normal(0.0, 1.0, size=L))
        s = ExplicitScheme(alpha)
        g = autocovariance(LinearModel(s, GAUSS), K=L + 4096,
                           method="exact-linear").gamma
        k = np.arange(1, len(g))
        for n in (2 ** 4, 2 ** 8, 2 ** 12):
            lhs = exact_sum_variance_linear(s, n)
            rhs = n * (g[0] + 2 * g[1:].sum()) \
                - 2.0 * np.dot(np.minimum(k, n), g[1:])
            worst_rel = max(worst_rel, abs(lhs - rhs) / max(abs(rhs), 1e-12))
        n = 2 ** 8
        i = np.arange(n)
        brute = g[np.abs(i[:, None] - i[None, :])].sum()
        lhs = exact_sum_variance_linear(s, n)
        worst_brute = max(worst_brute,
                          abs(lhs - brute) / max(abs(brute), 1e-12))
    ok = worst_rel < 1e-10 and worst_brute < 1e-10
    _verdict(2, ok, f"worst identity residual {worst_rel:.2e}, worst "
                    f"brute-force residual {worst_brute:.2e} (need < 1e-10)")


def test_acceptance_03_slow_rate_counterexample():
    """alpha_j = j^-1.3, Gaussian: closed-form Delta_n decays with slope
    -0.3 +- 0.05 under the sqrt(n ss^2) normalization and is exactly 0
    under sqrt(E S_n^2)."""
    m = LinearModel(PowerLawScheme(a=1.3, length=64), GAUSS)
    grid = 2 ** np.arange(8, 19)
    fit = fit_rate(run_rate_experiment(m, grid, 0, "sqrt-n-ss2"))
    own = run_rate_experiment(m, grid, 0, "sqrt-ESn2")
    zeros = all(e.delta == 0.0 for e in own)
    ok = abs(fit.slope + 0.3) <= 0.05 and zeros
    _verdict(3, ok, f"slope {fit.slope:.4f} (need -0.3 +- 0.05); "
                    f"own-scale deltas all zero: {zeros}")


def test_acceptance_04_iid_upper_bound_rate():
    """Rademacher i.i.d.: MC Delta_n slope -0.5 +- 0.1 over 2^6..2^14 at
    R = 1e5, each point within a DKW band of the exact binomial value."""
    m = LinearModel(identity_scheme(), RAD)
    grid = 2 ** np.arange(6, 15)
    ests = run_rate_experiment(m, grid, 100_000, "sqrt-n-ss2", seed=0)
    hw_strict = dkw_halfwidth(100_000, 0.001)
    oracle_ok = all(abs(e.delta - _binomial_delta(e.n)) <= hw_strict
                    for e in ests)
    fit = fit_rate(ests)
    ok = abs(fit.slope + 0.5) <= 0.1 and oracle_ok
    _verdict(4, ok, f"slope {fit.slope:.4f} (need -0.5 +- 0.1); "
                    f"binomial-oracle agreement: {oracle_ok}; "
                    f"censored n: {list(fit.censored)}")


def test_acceptance_05_doubling_map():
    """Doubling map with f = cos(2 pi x): ss^2 = 1/2 exactly, MC rate slope
    -0.5 +- 0.15, dependence tail below the modulus bound 2 pi 2^-k."""
    m = DoublingModel("cos2pi")
    ss2 = longrun_variance(
        autocovariance(m, K=16, method="exact-doubling")).value
    ss2_ok = abs(ss2 - 0.5) < 1e-9
    # R = 1e6 rather than 1e5: the upward sampling bias of the KS statistic
    # (~0.85/sqrt(R)) is comparable to the true distance beyond n ~ 2^10 at
    # R = 1e5 and flattens the fitted slope; at R = 1e6 the 2^6..2^10 range
    # is bias-free and the grid stops where censoring would start.
    fit = fit_rate(run_rate_experiment(m, 2 ** np.arange(6, 11), 1_000_000,
                                       "sqrt-n-ss2", seed=0))
    theta_ok = True
    for k in range(1, 13):
        est = theta_mc(m, k, 2.0, R=20_000, seed=5)
        theta_ok &= est.theta_star <= 2 * np.pi * 2.0 ** -k + 3 * est.se_star
    ok = ss2_ok and abs(fit.slope + 0.5) <= 0.15 and theta_ok
    _verdict(5, ok, f"ss2 {ss2:.10f} (need 1/2); slope {fit.slope:.4f} "
                    f"(need -0.5 +- 0.15); theta* <= 2pi 2^-k + 3se for "
                    f"k <= 12: {theta_ok}")


def test_acceptance_06_dependence_closed_forms():
    """MC theta'_l(2) and theta*_l(2) match the linear closed forms within
    3 bootstrap stderr on 5 schemes x dyadic lags."""
    schemes = [identity_scheme(), GeometricScheme(0.5, 128),
               GeometricScheme(0.9, 128),
               ExplicitScheme(tuple(PowerLawScheme(1.3, 256).coefficients)),
               ExplicitScheme((0.5, -0.3, 0.8, 0.0, 0.1, -0.7))]
    lags = [1, 2, 4, 8, 16, 32, 64]
    fails = []
    for si, scheme in enumerate(schemes):
        m = LinearModel(scheme, GAUSS)
        usable = [l for l in lags if l < scheme.length] or [0]
        cf = {e.l: e for e in profile_closed_form(scheme, usable).entries}
        for l in usable:
            est = theta_mc(m, l, 2.0, R=20_000, seed=100 + si)
            if abs(est.theta_prime - cf[l].theta_prime) \
                    > 3 * est.se_prime + 1e-9:
                fails.append((si, l, "prime"))
            if abs(est.theta_star - cf[l].theta_star) \
                    > 3 * est.se_star + 1e-9:
                fails.append((si, l, "star"))
    _verdict(6, not fails,
             f"all scheme/lag pairs within 3 stderr of closed forms "
             f"(failures: {fails})")


def _cancellation_delta_oracle(n, L):
    """Exact Kolmogorov distance for the weighted-Rademacher sum of the
    cancellation scheme, by Gil-Pelaez inversion of the cosine-product
    characteristic function (the sum is symmetric, so the inversion
    integrand is real)."""
    scheme = DifferenceScheme(kind="power", beta=0.25, length=L)
    a = scheme.underlying
    s = np.arange(n, -(L - 1), -1)
    w = np.where(s >= 1, a(n - s), a(np.minimum(n - s, L - 1)) - a(-s))
    w = w[np.abs(w) > 0]
    w = w / np.sqrt((w ** 2).sum())
    t = np.linspace(1e-9, 60.0, 20_000)
    logphi = np.zeros_like(t)
    neg = np.zeros_like(t, dtype=bool)
    for chunk in np.array_split(w, max(1, len(w) // 2000)):
        c = np.cos(np.outer(t, chunk))
        neg ^= np.prod(np.sign(c), axis=1) < 0
        logphi += np.log(np.abs(c) + 1e-300).sum(axis=1)
    phi = np.exp(logphi) * np.where(neg, -1.0, 1.0)
    integ = (phi - np.exp(-t ** 2 / 2)) / t
    x = np.linspace(0.0, 8.0, 4001)
    diff = (np.sin(np.outer(x, t)) @ integ) * (t[1] - t[0]) / np.pi
    return float(np.max(np.abs(diff)))


def test_acceptance_07_cancellation_scheme():
    """Difference scheme a_j = j^-0.25: E S_n^2 grows like n^0.5, the
    long-run variance is degenerate, and under the own-scale normalization
    the distance to normal decays at least as fast as n^-1/2.

    The Rademacher distance is checked against an exact inversion oracle;
    the oracle decays strictly faster than the guaranteed n^-1/2 (close to
    n^-1 log n, slope about -0.87), so the slope check is one-sided: at
    least as fast as -0.5 + 0.15.  The MC estimates must agree with the
    oracle within their DKW half-width at every grid point."""
    s_exact = DifferenceScheme(kind="power", beta=0.25, length=1 << 17)
    ns = 2 ** np.arange(8, 17)
    es2 = [exact_sum_variance_linear(s_exact, int(n)) for n in ns]
    growth = np.polyfit(np.log(ns), np.log(es2), 1)[0]
    growth_ok = abs(growth - 0.5) <= 0.05

    try:
        model_longrun_variance(LinearModel(s_exact, GAUSS))
        degenerate_ok = False
    except DegenerateVarianceError:
        degenerate_ok = True

    grid = [2 ** k for k in range(4, 10)]
    gauss = run_rate_experiment(
        LinearModel(DifferenceScheme("power", 0.25, 4 * grid[-1]), GAUSS),
        grid[2:], 0, "sqrt-ESn2")
    gauss_zero = all(e.delta == 0.0 for e in gauss)

    hw = dkw_halfwidth(100_000, 0.01)
    oracle, oracle_ok = [], True
    for i, n in enumerate(grid):
        o = _cancellation_delta_oracle(n, 4 * n)
        oracle.append(o)
        mod = LinearModel(DifferenceScheme("power", 0.25, 4 * n), RAD)
        est = empirical_delta(mod, n, 100_000, "sqrt-ESn2", seed=0,
                              rep_start=i * 100_000)
        oracle_ok &= abs(est.delta - o) <= hw
    slope = np.polyfit(np.log(grid), np.log(oracle), 1)[0]
    slope_ok = slope <= -0.5 + 0.15
    ok = growth_ok and degenerate_ok and gauss_zero and oracle_ok and slope_ok
    _verdict(7, ok, f"E S_n^2 growth exponent {growth:.4f} (need 0.5 +- "
                    f"0.05); degenerate error raised: {degenerate_ok}; "
                    f"Gaussian own-scale exactly zero: {gauss_zero}; "
                    f"Rademacher MC within DKW of inversion oracle: "
                    f"{oracle_ok}; oracle slope {slope:.3f} "
                    f"(need <= -0.35)")


def test_acceptance_08_block_machinery():
    """Geometric-scheme blocks: variance identity at 1e-10 on 10 layouts,
    sigma_j^2 -> sigma_hat_m^2 with log-slope <= -0.4, and no degeneracy
    events at N = 32."""
    mod = LinearModel(GeometricScheme(0.5, length=128), GAUSS)
    layouts = [(176, 16), (1000, 16), (350, 10), (93, 5), (2000, 32),
               (208, 16), (130, 10), (326, 8), (1056, 64), (3968, 128)]
    worst = 0.0
    for n, m in layouts:
        d = conditional_variances(mod, make_layout(n, m))
        worst = max(worst, d.identity_residual)
    identity_ok = worst < 1e-10

    gaps, ms = [], [2 ** k for k in range(4, 11)]
    for m in ms:
        d = conditional_variances(mod, make_layout(15 * m, m))
        proj = m_project(mod, m)
        table = autocovariance(proj, K=min(proj.scheme.length + 1, 256),
                               method="exact-linear")
        gaps.append(abs(d.sigma_given_m - sigma_hat_m(table, m).value))
    slope = np.polyfit(np.log(ms), np.log(gaps), 1)[0]
    slope_ok = slope <= -0.4

    lay = make_layout(2 * 31 * 16 + 16, 16)
    assert lay.N == 32
    freq = degeneracy_probability(mod, lay, R=10_000)
    ok = identity_ok and slope_ok and freq == 0.0
    _verdict(8, ok, f"worst identity residual {worst:.2e} (need < 1e-10); "
                    f"sigma gap slope {slope:.3f} (need <= -0.4); "
                    f"degeneracy frequency {freq} (need 0)")


def _gl2_increment_quadrature():
    """Centered increment values and weights for the d = 2 rotation-diag
    walk.  A uniform rotation renews the direction to uniform each step,
    so the increments are i.i.d. for k >= 2 with X = (1/2) log(e^{2 lam}
    cos^2 t + e^{-2 lam} sin^2 t), lam uniform on [-1, 1], t uniform."""
    x, w = roots_legendre(200)
    lam = x
    t = 0.25 * np.pi * (x + 1.0)
    X = 0.5 * np.log(np.exp(2 * lam)[:, None] * np.cos(t) ** 2
                     + np.exp(-2 * lam)[:, None] * np.sin(t) ** 2)
    W = np.outer(w / 2.0, w / 2.0)
    mu = float((W * X).sum())
    var = float((W * (X - mu) ** 2).sum())
    return (X - mu).ravel(), W.ravel(), mu, var


def _gl2_inversion_kernel():
    """The inversion's t grid and its kernel exp(-i x t) on the x grid
    [-8, 8]; neither depends on n, so one kernel serves every n."""
    t = np.linspace(1e-9, 40.0, 4000)
    xg = np.linspace(-8.0, 8.0, 4001)
    kernel = -1j * np.outer(xg, t)
    return t, np.exp(kernel, out=kernel)


def _gl2_delta_oracle(n, Xc, Wf, var, t, kernel):
    """Exact Kolmogorov distance of the normalized walk sum by numerical
    inversion of the product characteristic function (first increment is
    the uniform lam itself; the rest are i.i.d. copies of X), on the t grid
    and kernel of ``_gl2_inversion_kernel``."""
    sd = np.sqrt(1.0 / 3.0 + (n - 1) * var)
    ts = t / sd
    phiX = np.zeros(len(t), dtype=complex)
    # i ts x in one reused buffer, so that holding the kernel costs no
    # peak memory (40,000 nodes take ten whole chunks)
    z = np.empty((len(t), 4000), dtype=complex)
    for i in range(0, len(Xc), 4000):
        z.real = 0.0
        np.outer(ts, Xc[i:i + 4000], out=z.imag)
        phiX += np.exp(z, out=z) @ Wf[i:i + 4000]
    phi = np.sinc(ts / np.pi) * phiX ** (n - 1)
    integ = (phi - np.exp(-t ** 2 / 2)) / t
    diff = -(kernel @ integ).imag * (t[1] - t[0]) / np.pi
    return float(np.abs(diff).max())


def test_acceptance_09_matrix_walk():
    """GL_2 rotation-diag walk: positive long-run variance (checked
    against the exact quadrature value), contracting dependence surrogate,
    and a CLT-range rate slope.

    The true Kolmogorov distance (exact inversion oracle; the rotation
    renews the direction every step, so the increments are i.i.d.) is
    below 7e-4 already at n = 2^6 — under any feasible replication count
    the direct MC estimate is DKW-noise.  The slope criterion is therefore
    applied to the oracle values, and the MC estimates are required to
    agree with the oracle within their DKW half-width."""
    m = GLdWalkModel(d=2, lambda_max=1.0)
    Xc, Wf, mu, var = _gl2_increment_quadrature()
    ss2 = model_longrun_variance(m, seed=0).value
    ss2_ok = ss2 > 0 and abs(ss2 - var) <= 0.05

    vals, ses = [], []
    for k in range(1, 21):
        v, se = theta_gl_surrogate(m, k, 2.0, R=10_000, seed=0)
        vals.append(v)
        ses.append(se)
    sep_ok = vals[-1] + 3 * (ses[0] + ses[-1]) < vals[0]
    trend_ok = all(b <= a + 3 * (sa + sb) for (a, b, sa, sb)
                   in zip(vals, vals[1:], ses, ses[1:]))

    grid = [2 ** k for k in range(6, 13)]
    t, kernel = _gl2_inversion_kernel()
    oracle = [_gl2_delta_oracle(n, Xc, Wf, var, t, kernel) for n in grid]
    del kernel  # 256 MB, freed before the Monte Carlo estimates run
    slope = np.polyfit(np.log(grid), np.log(oracle), 1)[0]
    slope_ok = -0.7 <= slope <= -0.3
    hw = dkw_halfwidth(10_000, 0.01)
    mc_ok = all(
        abs(empirical_delta(m, n, 10_000, "sqrt-n-ss2", seed=0,
                            rep_start=i * 10_000).delta - o) <= hw
        for (i, n), o in zip(enumerate(grid), oracle))
    ok = ss2_ok and sep_ok and trend_ok and slope_ok and mc_ok
    _verdict(9, ok, f"ss2 {ss2:.4f} (exact {var:.4f}); surrogate k=1 "
                    f"{vals[0]:.4f} -> k=20 {vals[-1]:.4f} separated: "
                    f"{sep_ok}; monotone within noise: {trend_ok}; oracle "
                    f"slope {slope:.4f} (need in [-0.7, -0.3]); MC within "
                    f"DKW of oracle: {mc_ok}")


def test_acceptance_10_boundary_table():
    """The summability boundary: B(3) = 2/3, B(4) = 5/8, strictly
    decreasing toward 1/2."""
    b3 = boundary_B(3.0)
    b4 = boundary_B(4.0)
    ps = np.linspace(3.0, 5000.0, 20_000)
    bs = np.array([boundary_B(p) for p in ps])
    decreasing = bool(np.all(np.diff(bs) < 0) and np.all(bs > 0.5))
    limit_ok = boundary_B(1e8) - 0.5 < 1e-7
    ok = (b3 == pytest.approx(2.0 / 3.0) and b4 == pytest.approx(0.625)
          and decreasing and limit_ok)
    _verdict(10, ok, f"B(3) = {b3:.6f}, B(4) = {b4:.6f}, strictly "
                     f"decreasing to 1/2: {decreasing and limit_ok}")
