import tracemalloc

import numpy as np
import pytest
from coupling_reference import (
    draw_window,
    evaluate,
    primed_window,
    starred_window,
)

from weakdep import dependence, innovations
from weakdep.dependence import (
    AssumptionSpec,
    boundary_B,
    check_assumptions,
    dependence_profile,
    profile_closed_form,
    theta_gl_surrogate,
    theta_mc,
)
from weakdep.errors import ModelMismatchError, PreconditionError
from weakdep.innovations import get_law
from weakdep.processes import (
    DifferenceScheme,
    DoublingModel,
    GeometricScheme,
    GLdWalkModel,
    HolderOfLinearModel,
    LinearModel,
    PowerLawScheme,
    identity_scheme,
)

GAUSS = get_law("standard-gaussian")


# --------------------------------------------------------------------------
# boundary
# --------------------------------------------------------------------------

def test_boundary_values():
    assert boundary_B(3.0) == pytest.approx(2.0 / 3.0)
    assert boundary_B(4.0) == pytest.approx(5.0 / 8.0)
    assert abs(boundary_B(1e6) - 0.5) < 1e-5


def test_boundary_strictly_decreasing_above_three():
    ps = np.linspace(3.0, 200.0, 500)
    bs = np.array([boundary_B(p) for p in ps])
    assert np.all(np.diff(bs) < 0)
    assert np.all(bs > 0.5)


def test_boundary_rejects_zero():
    with pytest.raises(PreconditionError):
        boundary_B(0.0)


# --------------------------------------------------------------------------
# closed forms and Monte Carlo agreement
# --------------------------------------------------------------------------

def test_closed_form_identity_scheme():
    prof = profile_closed_form(identity_scheme(), [0, 1, 2])
    assert prof.entries[0].theta_prime == pytest.approx(np.sqrt(2.0))
    assert prof.entries[0].theta_star == pytest.approx(np.sqrt(2.0))
    assert prof.entries[1].theta_prime == 0.0
    assert prof.entries[1].theta_star == 0.0


def test_closed_form_star_monotone():
    prof = profile_closed_form(GeometricScheme(0.5, 64), list(range(0, 32)))
    ts = [e.theta_star for e in prof.entries]
    assert all(b <= a for a, b in zip(ts, ts[1:]))


def test_closed_form_triangle_relation():
    for scheme in (GeometricScheme(0.7, 64), PowerLawScheme(1.3, 128)):
        prof = profile_closed_form(scheme, list(range(0, 40)))
        e = {x.l: x for x in prof.entries}
        for l in range(0, 39):
            assert e[l].theta_prime <= (e[l].theta_star
                                        + e[l + 1].theta_star + 1e-12)


@pytest.mark.parametrize("scheme", [GeometricScheme(0.5, 64),
                                    PowerLawScheme(1.3, 256)])
@pytest.mark.parametrize("l", [1, 4, 16])
def test_theta_mc_matches_closed_form(scheme, l):
    m = LinearModel(scheme, GAUSS)
    est = theta_mc(m, l, 2.0, R=20_000, seed=1)
    cf = profile_closed_form(scheme, [l]).entries[0]
    assert abs(est.theta_prime - cf.theta_prime) <= 3 * est.se_prime
    assert abs(est.theta_star - cf.theta_star) <= 3 * est.se_star


def test_theta_mc_self_consistency_r_scaling():
    m = LinearModel(GeometricScheme(0.5, 64), GAUSS)
    a = theta_mc(m, 2, 2.0, R=4000, seed=9)
    b = theta_mc(m, 2, 2.0, R=16_000, seed=9)
    assert abs(a.theta_prime - b.theta_prime) <= 3 * (a.se_prime + b.se_prime)


@pytest.mark.parametrize("model, l", [
    (HolderOfLinearModel(GeometricScheme(0.5, 64), GAUSS), 1),
    (LinearModel(DifferenceScheme("power", 0.25, 4096),
                 get_law("rademacher")), 100),
], ids=["holder-preset", "cancel-4096"])
def test_theta_mc_builds_no_window_matrix(model, l):
    tracemalloc.start()
    try:
        theta_mc(model, l, 2.0, R=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the base window alone would take 10 MB at depth 64 and 65 MB at
    # depth 404
    assert peak < 4 * 2**20


def test_theta_mc_hashes_every_block_into_two_buffers(monkeypatch):
    buffers = []

    def recorded(*args, out=None, **kwargs):
        buffers.append(out.__array_interface__["data"][0])
        return innovations.law_values(*args, out=out, **kwargs)
    model = HolderOfLinearModel(GeometricScheme(0.5, 64), GAUSS)
    expected = theta_mc(model, 1, 2.0, R=20_000, seed=4)
    monkeypatch.setattr(dependence, "law_values", recorded)
    assert theta_mc(model, 1, 2.0, R=20_000, seed=4) == expected
    # 20 blocks of 1024 rows (the last of 544), each hashing its window
    # and its primed tail, into one window buffer and one tail buffer
    assert len(buffers) == 40 and len(set(buffers)) == 2
    assert len(set(buffers[::2])) == len(set(buffers[1::2])) == 1


def test_theta_mc_preconditions():
    m = LinearModel(GeometricScheme(0.5, 64), GAUSS)
    with pytest.raises(PreconditionError):
        theta_mc(m, -1, 2.0, 2000)
    with pytest.raises(PreconditionError):
        theta_mc(m, 1, 2.0, 10)
    with pytest.raises(PreconditionError):
        theta_mc(m, 1, 0.5, 2000)
    with pytest.raises(ModelMismatchError):
        theta_mc(GLdWalkModel(d=2), 1, 2.0, 2000)


@pytest.mark.parametrize("model", [
    HolderOfLinearModel(GeometricScheme(0.5, 32), GAUSS),
    DoublingModel("cos2pi"),
], ids=["holder", "doubling"])
@pytest.mark.parametrize("l", [1, 5])
def test_theta_mc_matches_scalar_windows(model, l):
    # the scalar windows are the reference coupling: rebuild theta' and
    # theta* one replication at a time from primed and starred windows
    R, p, seed = 1000, 2.0, 4
    x, x_prime, x_star = (np.empty(R) for _ in range(3))
    for r in range(R):
        w = draw_window(model.law, seed, r, l, model.required_depth)
        x[r] = evaluate(model, w)
        x_prime[r] = evaluate(model, primed_window(w, l))
        x_star[r] = evaluate(model, starred_window(w, l))
    est = theta_mc(model, l, p, R, seed=seed)
    assert est.theta_prime == pytest.approx(
        np.mean(np.abs(x - x_prime) ** p) ** (1 / p), rel=1e-12)
    assert est.theta_star == pytest.approx(
        np.mean(np.abs(x - x_star) ** p) ** (1 / p), rel=1e-12)


def test_doubling_theta_star_bounded_by_modulus():
    m = DoublingModel("cos2pi")
    for l in (2, 6, 10):
        est = theta_mc(m, l, 2.0, R=20_000, seed=2)
        assert est.theta_star <= 2.0 * np.pi * 2.0 ** -l + 3 * est.se_star


def test_holder_transfer_bound():
    # || X - X' ||_2 <= c * |alpha_l|^beta * (coupling moment) for the
    # 1-Hoelder observables with constant 1
    scheme = GeometricScheme(0.5, 64)
    m = HolderOfLinearModel(scheme, GAUSS, observable="cos-shift",
                            beta=1.0, c=1.0)
    for l in (1, 3, 6):
        est = theta_mc(m, l, 2.0, R=20_000, seed=3)
        bound = scheme.coefficients[l] * np.sqrt(2.0)
        assert est.theta_prime <= bound + 3 * est.se_prime


# --------------------------------------------------------------------------
# GL surrogate
# --------------------------------------------------------------------------

def test_gl_surrogate_trivial_cases():
    m = GLdWalkModel(d=2, lambda_max=1.0)
    assert theta_gl_surrogate(m, 0, 2.0, R=1000) == (0.0, 0.0)
    with pytest.raises(PreconditionError):
        theta_gl_surrogate(m, -1, 2.0, R=1000)
    rot = GLdWalkModel(d=2, lambda_max=0.0)
    v, _ = theta_gl_surrogate(rot, 5, 2.0, R=2000)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_gl_surrogate_contracts():
    m = GLdWalkModel(d=2, lambda_max=1.0)
    v1, se1 = theta_gl_surrogate(m, 1, 2.0, R=5000)
    v20, se20 = theta_gl_surrogate(m, 20, 2.0, R=5000)
    assert v20 + 3 * (se1 + se20) < v1


# --------------------------------------------------------------------------
# assumption checks
# --------------------------------------------------------------------------

GRID = [1, 2, 4, 8, 16, 24, 32, 48]


def test_spec_enforces_boundary():
    with pytest.raises(PreconditionError):
        AssumptionSpec(p=3.0, a_exp=1.0, b_exp=0.5)
    AssumptionSpec(p=3.0, a_exp=1.0, b_exp=0.7)


def test_geometric_always_satisfied():
    prof = profile_closed_form(GeometricScheme(0.5, 64), GRID)
    rep = check_assumptions(prof, AssumptionSpec(2.0, 1.0, 4.0))
    assert rep.verdicts["b-prime"] == "satisfied-by-fit"
    assert rep.verdicts["a-star"] == "satisfied-by-fit"


def test_power_law_violated_when_too_slow():
    # theta'_l ~ l^{-1.3}; sum l^{0.6} l^{-1.3} diverges
    prof = profile_closed_form(PowerLawScheme(1.3, 4096),
                               [2 ** k for k in range(0, 10)])
    rep = check_assumptions(prof, AssumptionSpec(2.0, 0.3, 0.6))
    assert rep.tail_exponent == pytest.approx(-1.3, abs=0.05)
    assert rep.verdicts["b-prime"] == "violated-by-fit"


def test_power_law_satisfied_when_fast():
    prof = profile_closed_form(PowerLawScheme(3.0, 4096),
                               [2 ** k for k in range(0, 10)])
    rep = check_assumptions(prof, AssumptionSpec(2.0, 0.5, 1.1))
    assert rep.verdicts["b-prime"] == "satisfied-by-fit"


def test_check_assumptions_needs_entries():
    prof = profile_closed_form(GeometricScheme(0.5, 64), [1, 2, 4, 8])
    with pytest.raises(PreconditionError):
        check_assumptions(prof, AssumptionSpec(2.0, 1.0, 1.0))


def test_mc_profile_triangle_within_noise():
    m = LinearModel(GeometricScheme(0.5, 64), GAUSS)
    prof = dependence_profile(m, 2.0, [1, 2, 3, 4], R=10_000, seed=4)
    e = {x.l: x for x in prof.entries}
    for l in (1, 2, 3):
        lhs = e[l].theta_prime
        rhs = e[l].theta_star + e[l + 1].theta_star
        noise = 3 * (e[l].se_prime + e[l].se_star + e[l + 1].se_star)
        assert lhs <= rhs + noise


@pytest.mark.parametrize("R", [1000, 4099, 65537])
def test_bootstrap_se_matches_one_shot_resampling(R):
    """The row-blocked bootstrap draws and reduces the same resamples as
    one (200, R) index matrix, R = 65537 being odd and above KEY_BLOCK."""
    powers = np.abs(np.random.default_rng(R).standard_normal(R)) ** 3
    for p in (2.0, 3.0):
        rng = np.random.default_rng(R + 7)
        idx = rng.integers(0, R, size=(200, R))
        boots = np.mean(powers[idx], axis=1) ** (1.0 / p)
        one_shot = float(np.std(boots, ddof=1))
        assert dependence._bootstrap_se(powers, p, R + 7) == one_shot
