"""The ports of ``weakdep._cephes`` against ``scipy.special``, bit for bit,
and against ``mpmath`` for accuracy.

scipy is the oracle: a rate run computes Phi and the Hurwitz zeta
function with the ports, so every artifact keeps its bits only while the
ports equal the functions they replace on every input.  The accuracy
bounds are stated in each test before it runs; they are the errors the
Cephes algorithms are documented or derived to have, not measurements.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from weakdep._cephes import hurwitz_zeta, ndtr


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _neighbours(points):
    """The 64 floats on each side of every point, and the point itself."""
    out = []
    for p in points:
        lo = hi = np.float64(p)
        for _ in range(64):
            out += [lo, hi]
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return np.array(out)


def test_ndtr_equals_scipy_on_a_dense_grid():
    x = np.linspace(-40.0, 40.0, 4_000_001)
    assert np.array_equal(_bits(ndtr(x)), _bits(special.ndtr(x)))


def test_ndtr_equals_scipy_at_the_branch_edges():
    # |x| / sqrt(2) = 1 switches erf to erfc, and 8 switches erfc's
    # rational approximation
    edges = [s * e for s in (1.0, -1.0)
             for e in (math.sqrt(2.0), 8.0 * math.sqrt(2.0))]
    x = _neighbours(edges)
    assert np.array_equal(_bits(ndtr(x)), _bits(special.ndtr(x)))


def test_ndtr_equals_scipy_on_special_values():
    # +-38.5: exp(-x^2 / 2) underflows
    x = np.array([38.5, -38.5, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  np.nan])
    assert np.array_equal(_bits(ndtr(x)), _bits(special.ndtr(x)))
    assert ndtr(-38.5) == 0.0 and ndtr(38.5) == 1.0


def test_ndtr_keeps_shape_and_returns_a_scalar_for_a_scalar():
    for x in (0.3, -2.0, 12.0, np.float64(-1.5)):
        y = ndtr(x)
        assert np.ndim(y) == 0 and not isinstance(y, np.ndarray)
        assert _bits(y) == _bits(special.ndtr(x))
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert np.array_equal(_bits(ndtr(x)), _bits(special.ndtr(x)))
    assert ndtr(np.empty((0, 2))).shape == (0, 2)


def _zeta_grid():
    rng = np.random.default_rng(20260)
    xs = np.concatenate([1.0 + 11.0 * (1.0 - rng.random(2000)),
                         [1.5, 2.0, 4.0, 8.0]])
    qs = np.concatenate([np.arange(1.0, 300.0),
                         [1024.0, 4096.0, 65536.0, 2e8],
                         300.0 * rng.random(80)])
    return xs, qs


def test_hurwitz_zeta_equals_scipy_on_a_seeded_grid():
    # 2004 exponents in (1, 12] by 383 offsets; q = 2e8 takes the
    # asymptotic branch, the other offsets the Euler-Maclaurin sum
    xs, qs = _zeta_grid()
    X, Q = (a.ravel() for a in np.meshgrid(xs, qs))
    mine = np.array([hurwitz_zeta(x, q) for x, q in zip(X.tolist(),
                                                         Q.tolist())])
    assert len(mine) == 767_532
    assert np.array_equal(_bits(mine), _bits(special.zeta(X, Q)))


@pytest.mark.parametrize("x, q", [(1.0, 3.0), (0.5, 3.0), (2.0, 0.0),
                                  (2.0, -1.5), (2.5, -1.5), (3.0, 1e300)])
def test_hurwitz_zeta_equals_scipy_off_the_summable_range(x, q):
    assert _bits(hurwitz_zeta(x, q)) == _bits(special.zeta(x, q))


def test_ndtr_accuracy_against_mpmath():
    # stated bound: relative error 3.4e-14 (153 to 306 ulps), the peak
    # Cephes documents for ndtr on [-13, 0]; above 0, Phi is 1 - erfc / 2
    # and far more accurate than that
    bound = 3.4e-14
    x = np.linspace(-13.0, 8.0, 841)
    y = ndtr(x)
    with mpmath.workdps(40):
        rel = [abs(mpmath.mpf(float(v)) / mpmath.ncdf(float(t)) - 1)
               for t, v in zip(x, y)]
    assert max(rel) <= bound


def test_hurwitz_zeta_accuracy_against_mpmath():
    # stated bound: relative error 2e-15 (9 to 18 ulps); each term of the
    # Euler-Maclaurin head is one pow, within an ulp, and the correction
    # terms are far below it.  mpmath runs at 80 digits: its zeta(x, q)
    # loses digits at 40 when the value is far below 1
    bound = 2e-15
    rng = np.random.default_rng(20261)
    xs = np.concatenate([1.0 + 11.0 * (1.0 - rng.random(20)), [1.5, 2.0]])
    qs = np.concatenate([[1.0, 2.0, 3.0, 10.0, 299.0, 4096.0, 65536.0, 2e8],
                         300.0 * rng.random(4)])
    with mpmath.workdps(80):
        rel = [abs(mpmath.mpf(hurwitz_zeta(x, q))
                   / mpmath.zeta(float(x), float(q)) - 1)
               for x in xs for q in qs]
    assert max(rel) <= bound
