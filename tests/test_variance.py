import tracemalloc

import numpy as np
import pytest
from doubling_reference import doubling_gamma
from scipy.special import zeta

from weakdep._doubling_gamma import GAMMA
from weakdep.errors import (
    DegenerateVarianceError,
    InternalConsistencyError,
    PreconditionError,
)
from weakdep.innovations import get_law
from weakdep.processes import (
    DifferenceScheme,
    DoublingModel,
    ExplicitScheme,
    GeometricScheme,
    GLdWalkModel,
    HolderOfLinearModel,
    LinearModel,
    PowerLawScheme,
    gl_center_profile,
    identity_scheme,
)
from weakdep.variance import (
    _VAR_REP_OFFSET,
    autocovariance,
    exact_sum_variance_linear,
    longrun_variance,
    model_longrun_variance,
    sigma_hat_m,
    sum_variance,
)

GAUSS = get_law("standard-gaussian")


def _gamma_identity_es2(scheme, n, K):
    """E S_n^2 = n sum_k gamma(k) - sum_k (n ^ |k|) gamma(k), two-sided."""
    m = LinearModel(scheme, GAUSS)
    g = autocovariance(m, K=K, method="exact-linear").gamma
    k = np.arange(1, len(g))
    return float(n * (g[0] + 2 * g[1:].sum())
                 - 2.0 * np.dot(np.minimum(k, n), g[1:]))


def _brute_force_es2(scheme, n):
    """Double sum over gamma(i - j), i, j = 1..n."""
    m = LinearModel(scheme, GAUSS)
    g = autocovariance(m, K=scheme.length + n, method="exact-linear").gamma
    i = np.arange(n)
    lag = np.abs(i[:, None] - i[None, :])
    return float(g[lag].sum())


# --------------------------------------------------------------------------
# autocovariance
# --------------------------------------------------------------------------

def test_identity_scheme_autocov():
    t = autocovariance(LinearModel(identity_scheme(), GAUSS), K=8,
                       method="exact-linear")
    assert t.gamma[0] == pytest.approx(1.0)
    np.testing.assert_allclose(t.gamma[1:], 0.0)
    assert np.all(t.stderr == 0.0)


def test_geometric_autocov_vs_brute_force():
    s = GeometricScheme(0.5, length=64)
    t = autocovariance(LinearModel(s, GAUSS), K=16, method="exact-linear")
    a = s.coefficients
    for k in range(17):
        brute = float(np.dot(a[: len(a) - k], a[k:]))
        assert t.gamma[k] == pytest.approx(brute, abs=1e-12)


def test_autocov_cauchy_schwarz():
    for s in (GeometricScheme(0.9, length=64), PowerLawScheme(1.3, 256)):
        t = autocovariance(LinearModel(s, GAUSS), K=32, method="exact-linear")
        assert t.gamma[0] > 0
        assert np.all(np.abs(t.gamma[1:]) <= t.gamma[0] + 1e-15)


def test_doubling_autocov_exact():
    t = autocovariance(DoublingModel("cos2pi"), K=6, method="exact-doubling")
    assert t.gamma[0] == pytest.approx(0.5, abs=1e-10)
    np.testing.assert_allclose(t.gamma[1:], 0.0, atol=1e-10)


@pytest.mark.parametrize("observable",
                         ["cos2pi", "centered-x", "indicator-half"])
def test_doubling_table_is_the_reference_quadrature(observable):
    # the table's literals were written from the reference quadrature, and
    # the route must serve them bit for bit at every lag it accepts; each
    # lag is integrated on its own, so a shorter table is a prefix
    model = DoublingModel(observable)
    ref = doubling_gamma(model, 24)
    assert np.array(GAMMA[observable]).tobytes() == ref.tobytes()
    table = autocovariance(model, K=24, method="exact-doubling")
    assert table.gamma.tobytes() == ref.tobytes()
    assert doubling_gamma(model, 6).tobytes() == ref[:7].tobytes()
    assert autocovariance(model, K=6).gamma.tobytes() == ref[:7].tobytes()


def test_monte_carlo_autocov_matches_exact():
    m = LinearModel(GeometricScheme(0.5, length=64), GAUSS)
    exact = autocovariance(m, K=4, method="exact-linear")
    mc = autocovariance(m, K=4, method="monte-carlo", R=4096, seed=1)
    for k in range(5):
        tol = 5 * mc.stderr[k]
        assert abs(mc.gamma[k] - exact.gamma[k]) <= tol


@pytest.mark.parametrize("K", [4, 40])
@pytest.mark.parametrize("model", [
    GLdWalkModel(d=2), HolderOfLinearModel(GeometricScheme(0.5, 64), GAUSS)])
def test_monte_carlo_autocov_equals_whole_matrix_products(model, K):
    # 2049 replications take two row blocks at K = 4 (the second with the
    # lone tail row) and three at K = 40
    R, seed = 2049, 5
    T = max(2 * K, 64)
    paths = model.paths(seed, _VAR_REP_OFFSET + np.arange(R), T + K)
    per_rep = [(paths[:, :T] * paths[:, k:T + k]).mean(axis=1)
               for k in range(K + 1)]
    gamma = np.array([p.mean() for p in per_rep])
    stderr = np.array([p.std(ddof=1) / np.sqrt(R) for p in per_rep])
    t = autocovariance(model, K=K, method="monte-carlo", R=R, seed=seed)
    assert t.gamma.tobytes() == gamma.tobytes()
    assert t.stderr.tobytes() == stderr.tobytes()


def test_gl2_monte_carlo_autocov_builds_no_path_matrix():
    # the cached exact centering is computed first, so only the table's
    # own memory is measured
    gl_center_profile(GLdWalkModel(d=2), 0)
    tracemalloc.start()
    try:
        autocovariance(GLdWalkModel(d=2), K=48, method="monte-carlo", R=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (R, T + K) = (4096, 144) path matrix alone would take 4.7 MB
    assert peak < 4096 * 144 * 8


# --------------------------------------------------------------------------
# long-run variance
# --------------------------------------------------------------------------

def test_longrun_identity():
    t = autocovariance(LinearModel(identity_scheme(), GAUSS), K=8,
                       method="exact-linear")
    assert longrun_variance(t).value == pytest.approx(1.0)


def test_longrun_power_law_matches_zeta():
    m = LinearModel(PowerLawScheme(a=1.3, length=4096), GAUSS)
    v = model_longrun_variance(m).value
    assert v == pytest.approx(float(zeta(1.3, 1)) ** 2, rel=1e-6)


def test_longrun_of_monte_carlo_table_sums_the_table():
    """A Monte Carlo table of a linear model gives ss^2 from its own lags,
    not the scheme's closed form (1 / (1 - rho))^2 = 4."""
    m = LinearModel(GeometricScheme(0.5, 32), get_law("rademacher"))
    t = autocovariance(m, K=16, method="monte-carlo", R=4096, seed=3)
    lrv = longrun_variance(t)
    assert lrv.value == lrv.series + lrv.tail
    assert lrv.value != 4.0
    assert lrv.value == pytest.approx(4.0, rel=0.05)


def test_longrun_difference_scheme_degenerate():
    m = LinearModel(DifferenceScheme(kind="power", beta=0.25, length=4096),
                    GAUSS)
    t = autocovariance(m, K=64, method="exact-linear")
    with pytest.raises(DegenerateVarianceError):
        longrun_variance(t)


# --------------------------------------------------------------------------
# exact finite-n variance
# --------------------------------------------------------------------------

def test_identity_sum_variance():
    assert exact_sum_variance_linear(identity_scheme(), 100) == pytest.approx(
        100.0)


@pytest.mark.parametrize("scheme", [
    GeometricScheme(0.5, length=64),
    GeometricScheme(0.9, length=128),
    ExplicitScheme(tuple(PowerLawScheme(a=1.3, length=512).coefficients)),
    ExplicitScheme((0.3, -1.2, 0.5, 0.0, 2.0)),
    DifferenceScheme(kind="power", beta=0.25, length=256),
])
def test_sum_variance_gamma_identity(scheme):
    for n in (16, 64, 256):
        lhs = exact_sum_variance_linear(scheme, n)
        rhs = _gamma_identity_es2(scheme, n, K=scheme.length + n)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("model", [
    LinearModel(GeometricScheme(0.5, 32), GAUSS),
    DoublingModel("centered-x"),
], ids=["exact-linear", "exact-doubling"])
@pytest.mark.parametrize("n", [0, -3])
def test_sum_variance_rejects_n_below_one(model, n):
    with pytest.raises(PreconditionError, match="n must be >= 1"):
        sum_variance(model, n)


def test_sum_variance_brute_force_double_sum():
    s = GeometricScheme(0.5, length=64)
    for n in (8, 32, 128):
        assert exact_sum_variance_linear(s, n) == pytest.approx(
            _brute_force_es2(s, n), rel=1e-10)


def test_power_law_analytic_route_matches_long_truncation():
    # the analytic (untruncated) power-law value must agree with the direct
    # coefficient computation when the stored truncation is long enough
    n = 256
    analytic = exact_sum_variance_linear(PowerLawScheme(a=1.3, length=64), n)
    direct = exact_sum_variance_linear(
        ExplicitScheme(tuple(PowerLawScheme(a=1.3, length=1 << 15)
                             .coefficients)), n)
    assert analytic == pytest.approx(direct, rel=1e-3)


def test_difference_scheme_growth_exponent():
    s = DifferenceScheme(kind="power", beta=0.25, length=1 << 17)
    ns = 2 ** np.arange(8, 17)
    es2 = np.array([exact_sum_variance_linear(s, int(n)) for n in ns])
    slope = np.polyfit(np.log(ns), np.log(es2), 1)[0]
    assert abs(slope - 0.5) <= 0.05


def test_sum_variance_mc_route_matches_exact():
    m = LinearModel(GeometricScheme(0.5, length=64), GAUSS)
    exact = sum_variance(m, 128, seed=0)
    mc = sum_variance(DoublingModel("cos2pi"), 128, seed=0, R=4096)
    # the doubling model has the gamma route; cross-check scale: ss2 = 1/2
    assert mc == pytest.approx(0.5 * 128, rel=0.2)
    assert exact == pytest.approx(exact_sum_variance_linear(m.scheme, 128))


# --------------------------------------------------------------------------
# sigma_hat_m
# --------------------------------------------------------------------------

def test_sigma_hat_identity_scheme():
    t = autocovariance(LinearModel(identity_scheme(), GAUSS), K=4,
                       method="exact-linear")
    for m in (1, 4, 32):
        sh = sigma_hat_m(t, m)
        assert sh.value == pytest.approx(0.5)
        assert sh.residual <= 1e-14


def test_sigma_hat_geometric_residual():
    mod = LinearModel(GeometricScheme(0.5, length=8), GAUSS)
    t = autocovariance(mod, K=8, method="exact-linear")
    sh = sigma_hat_m(t, 8)
    assert sh.residual < 1e-12


def test_sigma_hat_approaches_half_longrun_geometric():
    m_big = 1 << 10
    s = GeometricScheme(0.5, length=64)
    t = autocovariance(LinearModel(s, GAUSS), K=256, method="exact-linear")
    sh = sigma_hat_m(t, m_big)
    ss2 = float(np.sum(s.coefficients)) ** 2
    assert abs(sh.value - ss2 / 2.0) < 1e-2


def test_sigma_hat_gap_decay_rate_power_law():
    # for alpha_j = j^{-1.3} the gap ss_m^2/2 - sigma_hat_m^2 decays like
    # m^{-0.3}: slow, but with a measurable log-log slope
    gaps, ms = [], [2 ** k for k in range(6, 13)]
    for m in ms:
        s = PowerLawScheme(a=1.3, length=m)
        t = autocovariance(LinearModel(s, GAUSS), K=m, method="exact-linear")
        ss2 = float(np.sum(s.coefficients)) ** 2
        gaps.append(ss2 / 2.0 - sigma_hat_m(t, m).value)
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps[1:], gaps[2:]))
    # desk-scale m is pre-asymptotic; assert decay toward the m^{-0.3} law
    slope = np.polyfit(np.log(ms[-4:]), np.log(gaps[-4:]), 1)[0]
    assert -0.45 < slope < -0.1


def test_mc_table_of_a_long_scheme_builds_no_tall_law_matrix():
    # the row blocks are sized by the 4163 keys a path row reads, not by
    # its 64 lag products; the convolution is imported before the trace
    import scipy.signal  # noqa: F401
    model = LinearModel(DifferenceScheme("power", 0.25, 4096),
                        get_law("rademacher"))
    tracemalloc.start()
    try:
        autocovariance(model, K=4, method="monte-carlo", R=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block of 1024 rows took 236 MB with its convolution temporaries
    assert peak < 8 * 2**20
