"""The two special functions of a rate run: the standard normal CDF
``ndtr`` and the Hurwitz zeta function ``hurwitz_zeta``.

Both are ports of the Cephes routines that ``scipy.special`` ships
(``ndtr``/``erf``/``erfc`` and ``zeta(x, q)``, as in scipy 1.17): the same
coefficients, the same Horner order (``polevl``/``p1evl``), the same
branch thresholds and the same operation order, so that each result
equals scipy's bit for bit, which the tests check with scipy as the
oracle.  No fused multiply-add is used, and ``exp`` and ``pow`` go through
``math``, i.e. the C library, which is what Cephes calls: numpy's SIMD
``exp`` differs from it in the last bit of some values.  With them, a
rate run of a non-Gaussian model never imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "hurwitz_zeta"]

_SQRT1_2 = 0.7071067811865476   # M_SQRT1_2
_MAXLOG = 7.09782712893383996732e2
_MACHEP = 1.11022302462515654042e-16

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, and R/S for x >= 8;
# Q and S have a leading 1 that p1evl supplies
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)


def _polevl(x, coef):
    """c0 x^N + ... + cN by Horner's rule, elementwise."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """x^N + c0 x^(N-1) + ... by Horner's rule: a leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf_small(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc_large(x):
    """erfc(x) for x >= 1 (or NaN); 0.0 where exp(-x^2) underflows."""
    y = np.zeros_like(x)
    keep = ~(x * x > _MAXLOG)
    x = x[keep]
    # exp(-x^2) by the C library's exp, as Cephes calls it
    e = np.fromiter(map(math.exp, (-x * x).tolist()), np.float64, len(x))
    mid = x < 8.0
    p, q = np.empty_like(x), np.empty_like(x)
    p[mid], q[mid] = _polevl(x[mid], _P), _p1evl(x[mid], _Q)
    p[~mid], q[~mid] = _polevl(x[~mid], _R), _p1evl(x[~mid], _S)
    e *= p
    e /= q
    y[keep] = e
    return y


def ndtr(a):
    """Phi(a), the standard normal CDF, elementwise; a scalar for a
    scalar.  Bit for bit ``scipy.special.ndtr`` (Cephes)."""
    a = np.asarray(a, dtype=np.float64)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    small = z < 1.0
    y[small] = 0.5 + 0.5 * _erf_small(x[small])
    # |x| >= 1 and NaN: Phi = erfc(|x|) / 2, mirrored for x > 0
    big = ~small
    yb = 0.5 * _erfc_large(z[big])
    pos = x[big] > 0
    yb[pos] = 1.0 - yb[pos]
    y[big] = yb
    # Cephes returns the positive quiet NaN for any NaN
    y[np.isnan(x)] = np.nan
    y = y.reshape(a.shape)
    return y[()] if y.ndim == 0 else y


# Euler-Maclaurin divisors (2k)! / B_2k, k = 1..12; they alternate in sign
_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
      -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
      1.1646782814350067249e14, -4.5979787224074726105e15,
      1.8152105401943546773e17, -7.1661652561756670113e18)


def hurwitz_zeta(x: float, q: float) -> float:
    """zeta(x, q) = sum_{k>=0} (k + q)^-x for real x and q.  Bit for bit
    ``scipy.special.zeta(x, q)`` (Cephes)."""
    x, q = float(x), float(q)
    if x == 1.0:
        return math.inf
    if x < 1.0:
        return math.nan
    if q <= 0.0:
        if q == math.floor(q):
            return math.inf
        if x != math.floor(x):
            return math.nan  # q^-x is not defined
    if q > 1e8:
        # asymptotic expansion, DLMF 25.11.43
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - x)
    # Euler-Maclaurin summation
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for div in _A:
        a *= x + k
        b /= w
        t = a * b / div
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s
