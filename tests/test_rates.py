import numpy as np
import pytest

import weakdep.bedistance as bedistance
from weakdep.bedistance import BEEstimate, empirical_delta
from weakdep.errors import PreconditionError
from weakdep.innovations import get_law
from weakdep.processes import (
    GeometricScheme,
    LinearModel,
    PowerLawScheme,
    identity_scheme,
)
from weakdep.rates import fit_rate, loglog_wls, rate_route, run_rate_experiment

GAUSS = get_law("standard-gaussian")


def _synthetic(ns, deltas, halfwidth=0.0):
    out = []
    for n, d in zip(ns, deltas):
        method = "gaussian-closed-form" if halfwidth == 0 else "empirical"
        out.append(BEEstimate(n=int(n), normalization="sqrt-n-ss2",
                              delta=float(d),
                              low=max(0.0, d - halfwidth),
                              high=min(1.0, d + halfwidth),
                              method=method, R=0 if halfwidth == 0 else 1000))
    return out


def test_exact_power_law_recovered():
    ns = 2 ** np.arange(6, 14)
    fit = fit_rate(_synthetic(ns, 0.8 * ns ** -0.5))
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.intercept == pytest.approx(np.log(0.8), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0)


def test_noisy_power_law_ci_coverage():
    # multiplicative log-normal noise with bands matched to the noise scale
    # (constant relative width, i.e. equal weights in the fit)
    ns = 2 ** np.arange(6, 16)
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(100):
        noise = np.exp(rng.normal(0.0, 0.1, size=len(ns)))
        deltas = 0.8 * ns ** -0.5 * noise
        ests = [BEEstimate(n=int(n), normalization="sqrt-n-ss2",
                           delta=float(d), low=float(0.8 * d),
                           high=float(min(1.0, 1.2 * d)),
                           method="empirical", R=1000)
                for n, d in zip(ns, deltas)]
        lo, hi = fit_rate(ests).slope_ci95
        hits += lo <= -0.5 <= hi
    assert hits >= 90


def test_censoring_below_noise_floor():
    ns = [64, 128, 256, 512, 1024, 2048]
    deltas = [0.1, 0.05, 0.025, 0.0125, 0.001, 0.0]
    ests = _synthetic(ns, deltas, halfwidth=0.004)
    fit = fit_rate(ests)
    assert set(fit.censored) == {1024, 2048}
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


def test_too_few_points_rejected():
    ns = [64, 128, 256, 512]
    ests = _synthetic(ns, [0.1, 0.05, 0.001, 0.0005], halfwidth=0.01)
    with pytest.raises(PreconditionError):
        fit_rate(ests)


def test_run_rate_experiment_grid_checks():
    m = LinearModel(identity_scheme(), GAUSS)
    with pytest.raises(PreconditionError):
        run_rate_experiment(m, [64, 128, 256], 1000, "sqrt-n-ss2")
    with pytest.raises(PreconditionError):
        run_rate_experiment(m, [64, 128, 256, 500], 1000, "sqrt-n-ss2")
    for grid in ([0, 0, 0, 0], [-1, -2, -4, -8]):
        with pytest.raises(PreconditionError, match="n-grid"):
            rate_route(m, grid, 1000, "sqrt-n-ss2")


def test_gaussian_identity_closed_form_zero():
    m = LinearModel(identity_scheme(), GAUSS)
    ests = run_rate_experiment(m, [64, 128, 256, 512], 1000, "sqrt-n-ss2")
    assert all(e.method == "gaussian-closed-form" for e in ests)
    assert all(e.delta == 0.0 for e in ests)


def test_power_law_closed_form_positive_decreasing():
    m = LinearModel(PowerLawScheme(a=1.3, length=256), GAUSS)
    ests = run_rate_experiment(m, 2 ** np.arange(8, 14), 0, "sqrt-n-ss2")
    ds = [e.delta for e in ests]
    assert all(d > 0 for d in ds)
    assert all(b < a for a, b in zip(ds, ds[1:]))


def test_rademacher_experiment_decreasing_within_bands():
    m = LinearModel(identity_scheme(), get_law("rademacher"))
    ests = run_rate_experiment(m, 2 ** np.arange(6, 11), 20_000,
                               "sqrt-n-ss2", seed=5)
    for a, b in zip(ests, ests[1:]):
        assert b.delta <= a.delta + a.halfwidth + b.halfwidth


def test_ss2_computed_once_per_experiment(monkeypatch):
    calls = []
    oracle = bedistance.model_longrun_variance

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(bedistance, "model_longrun_variance", counted)
    m = LinearModel(GeometricScheme(rho=0.5, length=32), get_law("rademacher"))
    grid, R = [4, 8, 16, 32], 1000
    ests = run_rate_experiment(m, grid, R, "sqrt-n-ss2", seed=2)
    assert len(calls) == 1
    assert ests == [empirical_delta(m, n, R, "sqrt-n-ss2", seed=2,
                                    rep_start=i * R)
                    for i, n in enumerate(grid)]


def test_loglog_wls_weights_matter():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 2.0, 10.0])
    w_flat = np.ones(4)
    w_down = np.array([1.0, 1.0, 1.0, 1e-9])
    s1, _, _, _ = loglog_wls(x, y, w_flat)
    s2, _, _, _ = loglog_wls(x, y, w_down)
    assert s2 == pytest.approx(1.0, abs=1e-6)
    assert s1 > s2


def test_slope_stability_under_grid_extension():
    m = LinearModel(PowerLawScheme(a=1.3, length=64), GAUSS)
    short = fit_rate(run_rate_experiment(m, 2 ** np.arange(10, 16), 0,
                                         "sqrt-n-ss2"))
    long = fit_rate(run_rate_experiment(m, 2 ** np.arange(10, 19), 0,
                                        "sqrt-n-ss2"))
    assert abs(short.slope - long.slope) <= 2 * (short.slope_stderr
                                                 + long.slope_stderr) + 0.02
