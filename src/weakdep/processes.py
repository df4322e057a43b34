"""Bernoulli-shift process zoo.

Models are functions X_k = g(eps_k, eps_{k-1}, ...) of the innovation
stream and come with fast vectorized path / partial-sum engines:

* ``LinearModel`` — moving averages X_k = sum_j alpha_j eps_{k-j} with
  explicit, power-law, geometric or telescoping-difference coefficient
  schemes.
* ``HolderOfLinearModel`` — a Hoelder-continuous observable of a linear
  process, centered.
* ``DoublingModel`` — observables of the doubling map through its binary
  Bernoulli representation, iterated exactly in 64-bit integer registers
  (never by floating-point ``2x mod 1``, which erases one innovation bit
  per step).
* ``GLdWalkModel`` — the log-gain of a random rotation/diagonal matrix
  product acting on directions, quenched at a fixed start, centered by a
  reproducible Monte Carlo pre-pass.

Every model answers for itself: a capability is a method (or, for the
exact autocovariance oracle of ``weakdep.variance``, an attribute naming
it), and the public functions here turn a missing one into
``ModelMismatchError``.

capability                linear   Hoelder  doubling  projected  GL walk
------------------------  -------  -------  --------  ---------  -------
``paths`` (reps x n)      conv.    conv.    register  register   gains
``partial_sums``          B-N      paths    pairwise  pairwise   stream
``truncation_error(J)``   yes      yes      yes       -          -
``m_project(m)``          yes      -        yes       -          -
``exact_autocovariance``  linear   -        table     -          -

conv. is the convolution shared by the linear and Hoelder models, which
differ only in their readout of Y; projected is ``DoublingProjectedModel``;
B-N is the Beveridge-Nelson weighted innovation sum; pairwise is numpy's
row-sum order, fed step by step from the register loop that ``paths``
also runs, with no path matrix; table is gamma(0..24) of each doubling
observable, read off ``weakdep._doubling_gamma``, which holds no
projected (cell-mean) observable.  ``m_project`` gives
X_{k,m} = E[X_k | eps_k .. eps_{k-m+1}] where it has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np

from ._cephes import hurwitz_zeta
from ._legendre200 import NODES, WEIGHTS
from .errors import ModelMismatchError, PreconditionError
from .innovations import (
    KEY_BLOCK,
    SERIES_AUX,
    SERIES_BASE,
    InnovationLaw,
    get_law,
    key_prefix,
    law_values,
    raw_words,
    time_row,
)

__all__ = [
    "CoefficientScheme",
    "ExplicitScheme",
    "PowerLawScheme",
    "GeometricScheme",
    "DifferenceScheme",
    "identity_scheme",
    "LinearModel",
    "HolderOfLinearModel",
    "DoublingModel",
    "DoublingProjectedModel",
    "GLdWalkModel",
    "sample_path",
    "partial_sums",
    "truncation_error",
    "m_project",
    "gl_center_profile",
    "row_blocks",
]

# target element count for chunked replication loops
_CHUNK_ELEMS = 1 << 22

# reserved channel on the auxiliary series
_CH_CENTER = 0


# ---------------------------------------------------------------------------
# coefficient schemes
# ---------------------------------------------------------------------------

class CoefficientScheme:
    """Base class: a square-summable coefficient sequence alpha_0, alpha_1, ...

    ``coefficients`` is the stored (truncated) array of length ``length``;
    analytic totals and tail bounds account for everything beyond it.
    """

    length: int

    def _coefficients(self) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def coefficients(self) -> np.ndarray:
        c = np.asarray(self._coefficients(), dtype=np.float64)
        c.setflags(write=False)
        return c

    @cached_property
    def cumsum(self) -> np.ndarray:
        """C(t) = sum_{j<=t} alpha_j for t = 0..length-1."""
        c = np.cumsum(self.coefficients)
        c.setflags(write=False)
        return c

    def total_sum(self) -> float:
        """sum_{j>=0} alpha_j of the *untruncated* sequence (analytic)."""
        raise NotImplementedError

    def beyond_length_sumsq(self) -> float:
        """Upper bound on sum_{j>=length} alpha_j^2 (analytic)."""
        raise NotImplementedError

    def tail_sumsq(self, j0: int) -> float:
        """sum_{j>=j0} alpha_j^2: exact over the stored range plus the
        analytic beyond-truncation bound."""
        j0 = max(int(j0), 0)
        head = float(np.dot(self.coefficients[j0:], self.coefficients[j0:]))
        return head + self.beyond_length_sumsq()

    def truncate(self, m: int) -> "ExplicitScheme":
        """First-m-coefficients scheme (the linear m-projection)."""
        if m < 1:
            raise PreconditionError("truncation length must be >= 1")
        return ExplicitScheme(tuple(self.coefficients[:m]))

    def sum_weights(self, klo: int, khi: int, t: np.ndarray) -> np.ndarray:
        """Beveridge-Nelson weight of eps_t in sum_{k=klo..khi} X_k for the
        linear model on the stored scheme: C(khi - t) - C(klo - 1 - t)."""
        L = self.length

        def C_at(s):
            s = np.minimum(s, L - 1)
            return np.where(s >= 0, self.cumsum[np.clip(s, 0, L - 1)], 0.0)

        return C_at(khi - t) - C_at(klo - 1 - t)

    def sum_variance(self, n: int) -> float:
        """E S_n^2 of the linear model on the stored scheme with unit-variance
        innovations, summed exactly over its Beveridge-Nelson weights."""
        w = self.sum_weights(1, n, np.arange(2 - self.length, n + 1))
        return float(np.dot(w, w))


@dataclass(frozen=True)
class ExplicitScheme(CoefficientScheme):
    alpha: tuple

    def __post_init__(self):
        if len(self.alpha) == 0:
            raise PreconditionError("explicit scheme needs >= 1 coefficient")

    @property
    def length(self) -> int:
        return len(self.alpha)

    def _coefficients(self):
        return np.array(self.alpha, dtype=np.float64)

    def total_sum(self) -> float:
        return float(np.sum(self.coefficients))

    def beyond_length_sumsq(self) -> float:
        return 0.0


def identity_scheme() -> ExplicitScheme:
    return ExplicitScheme((1.0,))


@dataclass(frozen=True)
class PowerLawScheme(CoefficientScheme):
    """alpha_0 = 0, alpha_j = j^-a for j >= 1."""

    a: float
    length: int = 4096

    def __post_init__(self):
        if self.a <= 0.5:
            raise PreconditionError("power-law exponent must exceed 1/2")
        if self.length < 2:
            raise PreconditionError("length must be >= 2")

    def _coefficients(self):
        c = np.zeros(self.length)
        j = np.arange(1, self.length, dtype=np.float64)
        c[1:] = j ** (-self.a)
        return c

    def total_sum(self) -> float:
        if self.a <= 1.0:
            return float("inf")
        return hurwitz_zeta(self.a, 1)

    def beyond_length_sumsq(self) -> float:
        return hurwitz_zeta(2.0 * self.a, self.length)

    def sum_variance(self, n: int) -> float:
        """E S_n^2 for the *untruncated* sequence: present part
        sum_{s<n} C(s)^2 plus infinite past sum_{i>=0} (C(n+i) - C(i))^2,
        the far past handled by a midpoint/quad Euler-Maclaurin tail."""
        a = self.a
        if a <= 1.0:
            raise PreconditionError("untruncated E S_n^2 needs a > 1")
        direct = 8 * n
        j = np.arange(direct + n + 1, dtype=np.float64)
        terms = np.zeros(direct + n + 1)
        terms[1:] = j[1:] ** (-a)
        H = np.cumsum(terms)  # H[t] = C(t), untruncated
        present = float(np.dot(H[:n], H[:n]))
        i = np.arange(direct)
        D = H[n + i] - H[i]
        past = float(np.dot(D, D))

        def h(x):
            return ((x + 0.5) ** (1 - a) - (x + n + 0.5) ** (1 - a)) ** 2 \
                / (a - 1) ** 2

        from scipy.integrate import quad

        # map (c, inf) to (0, 1] via x = c/t: keeps quad off the slowly
        # decaying infinite range, where it loses accuracy for large n
        c = direct - 0.5
        tail, _ = quad(lambda t: h(c / t) * c / t ** 2, 0.0, 1.0, limit=200)
        return present + past + float(tail)


@dataclass(frozen=True)
class GeometricScheme(CoefficientScheme):
    """alpha_j = rho^j."""

    rho: float
    length: int = 128

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise PreconditionError("geometric ratio must lie in (0, 1)")
        if self.length < 1:
            raise PreconditionError("length must be >= 1")

    def _coefficients(self):
        return self.rho ** np.arange(self.length, dtype=np.float64)

    def total_sum(self) -> float:
        return 1.0 / (1.0 - self.rho)

    def beyond_length_sumsq(self) -> float:
        return self.rho ** (2 * self.length) / (1.0 - self.rho ** 2)


@dataclass(frozen=True)
class DifferenceScheme(CoefficientScheme):
    """Telescoping cancellation scheme: alpha_1 = a_1,
    alpha_j = a_j - a_{j-1}, with a_j = j^-beta ('power', beta in (0,1/2))
    or a_j = 1/log(j+1) ('log').  Partial sums telescope to C(t) = a_t and
    the full sum is 0, so the long-run variance degenerates.
    """

    kind: str = "power"
    beta: float = 0.25
    length: int = 4096

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise PreconditionError("difference kind must be 'power' or 'log'")
        if self.kind == "power" and not 0.0 < self.beta < 0.5:
            raise PreconditionError("difference-scheme beta must be in (0, 1/2)")
        if self.length < 2:
            raise PreconditionError("length must be >= 2")

    def underlying(self, j) -> np.ndarray:
        """a_j of the cancellation construction (a_0 := 0)."""
        j = np.asarray(j, dtype=np.float64)
        # j = 0 hits 0**-beta inside np.where; the branch is discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "power":
                out = np.where(j >= 1, j ** (-self.beta), 0.0)
            else:
                out = np.where(j >= 1, 1.0 / np.log(j + 1.0), 0.0)
        return out

    def _coefficients(self):
        a = self.underlying(np.arange(self.length))
        c = np.zeros(self.length)
        c[1:] = a[1:] - a[:-1]
        return c

    def total_sum(self) -> float:
        # partial sums are a_t -> 0
        return 0.0

    def beyond_length_sumsq(self) -> float:
        # |alpha_j| is decreasing, so sum_{j>=L} alpha_j^2
        #   <= |alpha_L| * sum_{j>=L} |alpha_j| = |alpha_L| * a_{L-1}
        a_prev = float(self.underlying(self.length - 1))
        a_last = float(self.underlying(self.length))
        return abs(a_last - a_prev) * a_prev


def _block_height(row_len: int) -> int:
    """Rows of a gemv block: a multiple of 8 near ``KEY_BLOCK`` keys."""
    return 8 * max(1, KEY_BLOCK // (8 * row_len))


def row_blocks(n_rows: int, row_len: int):
    """The (a, b) row ranges in which an (n_rows, row_len) matrix of
    innovation values is hashed and reduced, one block of about
    ``KEY_BLOCK`` keys at a time.  Blocks start at row offsets that are
    multiples of 8, and a lone tail row joins the block before it, since
    numpy takes a 1-row product through dot, not gemv.  So on one BLAS
    thread a gemv of every block has the bits of the whole matrix's
    product; tests show the same bits on two BLAS threads."""
    starts = list(range(0, n_rows, _block_height(row_len)))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    yield from zip(starts, starts[1:] + [n_rows])


def _weighted_sums(law, seed, reps: np.ndarray, series, times: np.ndarray,
                   w: np.ndarray, channel=0) -> np.ndarray:
    """``law_values(law, seed, reps[:, None], series, times) @ w`` without
    the law matrix: its rows are hashed and reduced in ``row_blocks``,
    each block into one buffer allocated per call.

    The premixed time row is derived once, and the key prefix once per
    window of whole blocks and at most ``KEY_BLOCK // 8`` replications
    (a larger block is a window of its own), so its column stays small."""
    height = _block_height(len(times))
    window = height * max(1, KEY_BLOCK // (8 * height))
    blocks = list(row_blocks(len(reps), len(times)))
    # per call, not per module: the rate runner maps grid points on threads
    buf = np.empty((max(b - a for a, b in blocks), len(times)))
    out = np.empty(len(reps))
    t = time_row(times)
    lo = hi = 0
    for a, b in blocks:
        if b > hi:
            lo, hi = a, min(a + window, len(reps))
            if len(reps) - hi == 1:  # the folded tail row
                hi += 1
            prefix = key_prefix(seed, reps[lo:hi, None], series, channel)
        block = law_values(law, seed, reps[a:b, None], series, times,
                           channel=channel, prefix=prefix[a - lo:b - lo],
                           premixed_times=t, out=buf[:b - a])
        np.matmul(block, w, out=out[a:b])
    return out


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class _WindowModel:
    """A model read off a fixed-depth innovation window: ``evaluate_values``
    maps (..., J) newest-first innovations to X, ``paths`` gives the
    (len(reps), n) matrix of X_1..X_n, and S_n sums its rows."""

    def partial_sums(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        return _by_chunks(reps, n + self.required_depth, lambda chunk:
                          self.paths(seed, chunk, n).sum(axis=1))


class _LinearFilter(_WindowModel):
    """The models read off the linear process Y_k = sum_j alpha_j
    eps_{k-j}; ``readout`` maps Y to X."""

    def __post_init__(self):
        if self.law.kind == "raw-bit":
            raise ModelMismatchError(
                "raw-bit innovations are reserved for the doubling map; "
                "linear models need a centered unit-variance law")

    @property
    def required_depth(self) -> int:
        return self.scheme.length

    def evaluate_values(self, values: np.ndarray) -> np.ndarray:
        """Readout on (..., J) arrays of newest-first innovations.
        J may be smaller than the scheme length; that is the depth-J
        truncated model (callers manage the truncation policy)."""
        J = values.shape[-1]
        return self.readout(values @ self.scheme.coefficients[:J])

    def paths(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        L = self.scheme.length
        times = np.arange(2 - L, n + 1)
        eps = law_values(self.law, seed, reps[:, None], SERIES_BASE, times)
        alpha = self.scheme.coefficients
        if L == 1:
            y = eps * alpha[0]
        else:
            from scipy.signal import fftconvolve
            y = fftconvolve(eps, alpha[None, :], mode="valid", axes=1)
        return self.readout(y)


@dataclass(frozen=True)
class LinearModel(_LinearFilter):
    """X_k = sum_j alpha_j eps_{k-j}."""

    scheme: CoefficientScheme
    law: InnovationLaw

    exact_autocovariance = "exact-linear"

    def readout(self, y: np.ndarray) -> np.ndarray:
        return y

    def partial_sums(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        """S_n = sum_t w_t eps_t; innovations older than 2 - L weigh 0."""
        times = np.arange(2 - self.scheme.length, n + 1)
        w = self.scheme.sum_weights(1, n, times)
        return _by_chunks(reps, len(times), lambda chunk: _weighted_sums(
            self.law, seed, chunk, SERIES_BASE, times, w))

    def truncation_error(self, J: int) -> float:
        return float(np.sqrt(self.scheme.tail_sumsq(J)))

    def m_project(self, m: int) -> "LinearModel":
        if m >= self.scheme.length:
            return self
        return LinearModel(self.scheme.truncate(m), self.law)


# f(y) of each Hoelder observable, with constant c and exponent beta
_HOLDER_OBSERVABLES = {
    "cos-shift": lambda c, beta, y: c * np.cos(y + 1.0),
    "abs-center": lambda c, beta, y: c * np.abs(y) ** beta,
    "cube-clip": lambda c, beta, y: c * np.clip(y, -1.0, 1.0) ** 3,
}


# fixed seed for the internal centering pre-pass; deterministic across runs
_CENTER_SEED = 0x5EEDC0DE
_CENTER_REPS = 1 << 17


@dataclass(frozen=True)
class HolderOfLinearModel(_LinearFilter):
    """X_k = f(Y_k) - E f(Y_0) with Y the linear process for ``scheme``.

    ``beta``/``c`` are the Hoelder exponent and constant of f used by the
    truncation bound.  The centering offset is analytic for the
    Gaussian-law cos-shift and otherwise a fixed-seed Monte Carlo estimate.
    """

    scheme: CoefficientScheme
    law: InnovationLaw
    observable: str = "cos-shift"
    beta: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.observable not in _HOLDER_OBSERVABLES:
            raise ModelMismatchError(
                f"observable must be one of {tuple(_HOLDER_OBSERVABLES)}")
        if not 0.0 < self.beta <= 1.0:
            raise PreconditionError("Hoelder exponent must lie in (0, 1]")
        super().__post_init__()

    @cached_property
    def center(self) -> float:
        if (self.observable == "cos-shift"
                and self.law.kind == "standard-gaussian"):
            # Y_0 is exactly N(0, sum alpha_j^2)
            var = float(np.dot(self.scheme.coefficients,
                               self.scheme.coefficients))
            return float(self.c * np.cos(1.0) * np.exp(-var / 2.0))
        y = _weighted_sums(self.law, _CENTER_SEED, np.arange(_CENTER_REPS),
                           SERIES_AUX, -np.arange(self.scheme.length),
                           self.scheme.coefficients, channel=_CH_CENTER)
        f = _HOLDER_OBSERVABLES[self.observable]
        return float(np.mean(f(self.c, self.beta, y)))

    def readout(self, y: np.ndarray) -> np.ndarray:
        f = _HOLDER_OBSERVABLES[self.observable]
        return f(self.c, self.beta, y) - self.center

    def truncation_error(self, J: int) -> float:
        # ||f(Y) - f(Y_J)||_2 <= c E[|D|^{2 beta}]^{1/2} <= c (E D^2)^{beta/2}
        return float(self.c * self.scheme.tail_sumsq(J) ** (self.beta / 2))


_TWO63 = np.uint64(1) << np.uint64(63)


def _cos2pi(w, out):
    np.multiply(w, 2.0 ** -64, out=out)
    out *= 2.0 * np.pi
    np.cos(out, out=out)


def _centered_x(w, out):
    np.multiply(w, 2.0 ** -64, out=out)
    out -= 0.5


def _indicator_half(w, out):
    # words are compared as integers: w * 2^-64 rounds the words just
    # below 2^63 up to 1/2; True - 0.5 and False - 0.5 are exactly +-1/2
    np.subtract(w < _TWO63, 0.5, out=out)


def _cos2pi_cell_mean(x, h, out):
    # sin(2 pi x) in a scratch array, before out (possibly x) is written
    low = np.multiply(x, 2 * np.pi, out=np.empty_like(out))
    np.sin(low, out=low)
    np.add(x, h, out=out)
    out *= 2 * np.pi
    np.sin(out, out=out)
    out -= low
    out /= 2 * np.pi * h


def _centered_x_cell_mean(x, h, out):
    np.add(x, h / 2.0, out=out)
    out -= 0.5


def _indicator_half_cell_mean(x, h, out):
    np.add(x, h, out=out)
    np.subtract(out <= 0.5, 0.5, out=out)


class _DoublingObservable(NamedTuple):
    # each writes its values into ``out`` (cell_mean's may be its input x)
    f: Callable             # (w, out): f(w * 2^-64), w register words
    cell_mean: Callable     # (x, h, out): mean of f over [x, x + h), h = 2^-m
    modulus: Callable       # L2 change of f over a shift of the state by h


_DOUBLING_OBSERVABLES = {
    "cos2pi": _DoublingObservable(
        f=_cos2pi, cell_mean=_cos2pi_cell_mean,
        modulus=lambda h: 2.0 * np.pi * h),
    "centered-x": _DoublingObservable(
        f=_centered_x, cell_mean=_centered_x_cell_mean,
        modulus=lambda h: h),
    # x and 1/2 are multiples of h, so a cell never straddles 1/2; the
    # indicator has no Lipschitz constant but obeys w_2(f, t) <= sqrt(t)
    "indicator-half": _DoublingObservable(
        f=_indicator_half, cell_mean=_indicator_half_cell_mean,
        modulus=lambda h: np.sqrt(h)),
}


def _doubling_observable(name: str) -> _DoublingObservable:
    try:
        return _DOUBLING_OBSERVABLES[name]
    except KeyError:
        raise ModelMismatchError(
            f"observable must be one of {tuple(_DOUBLING_OBSERVABLES)}"
        ) from None


def _step_blocks(nreps: int, n: int, first: int = 1):
    """Times first..n in blocks of at most KEY_BLOCK // nreps times (one
    at least), the last block possibly shorter.  One hash call covers a
    block for every replication, as a (times, nreps) array with one
    contiguous row per time."""
    steps = max(1, KEY_BLOCK // nreps)
    for k0 in range(first, n + 1, steps):
        yield np.arange(k0, min(k0 + steps, n + 1))


def _pack_bits(values: np.ndarray, nbits: int) -> np.ndarray:
    """Pack (..., J>=nbits) newest-first 0/1 values into integers with the
    newest bit at position nbits-1 (exact, no float rounding)."""
    bits = values[..., :nbits].astype(np.uint64)
    shifts = (np.uint64(nbits - 1) - np.arange(nbits, dtype=np.uint64))
    return (bits << shifts).sum(axis=-1, dtype=np.uint64)


# numpy's pairwise summation: a row is halved, the first half rounded down
# to a multiple of 8, until a leaf holds at most _PW_LEAF values; a leaf of
# 8 or more is summed in 8 interleaved accumulators and a shorter one from
# 0.0
_PW_LEAF = 128


def _pairwise(values, n: int) -> np.ndarray:
    if n > _PW_LEAF:
        half = n // 2
        half -= half % 8
        return _pairwise(values, half) + _pairwise(values, n - half)
    if n < 8:
        res = next(values) + 0.0
        for _ in range(n - 1):
            res += next(values)
        return res
    r = [next(values).copy() for _ in range(8)]
    for _ in range(n // 8 - 1):
        for acc in r:
            acc += next(values)
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for _ in range(n % 8):
        res += next(values)
    return res


def _row_sums(values, n: int) -> np.ndarray:
    """The elementwise sum of the next n arrays of the iterator ``values``,
    bit for bit what ``ndarray.sum(axis=1)`` gives on the matrix with those
    arrays as its columns, without building that matrix.  The arrays are
    read, never written, and each needs to stay valid only until the next
    one is drawn: what the sum keeps of one, it copies."""
    total = _pairwise(values, n)
    # the reduction starts from the identity, so -0.0 sums to +0.0
    total += 0.0
    return total


class _DoublingRegister(_WindowModel):
    """The doubling models hold the newest ``nbits`` innovation bits in an
    integer register and read X off it with ``register_value``."""

    @property
    def law(self) -> InnovationLaw:
        return get_law("raw-bit")

    @property
    def required_depth(self) -> int:
        return self.nbits

    def register_value(self, w, out=None) -> np.ndarray:
        """X off register words ``w`` (uint64, the newest ``nbits`` bits
        with the newest highest), written into ``out`` (a fresh array if
        None)."""
        if out is None:
            out = np.empty(np.shape(w))
        self._readout(w, out)
        return out

    def evaluate_values(self, values: np.ndarray) -> np.ndarray:
        return self.register_value(_pack_bits(values, self.nbits))

    def _steps(self, seed, reps: np.ndarray, n: int):
        """X_1..X_n over ``reps``: one (len(reps),) array per step.

        Times 1 - nbits..n run in one sequence of step blocks, each hashed
        into one reused word buffer; the pre-sample times 1 - nbits..0
        seed the register and yield nothing, and every call shares one
        key prefix.  Each step writes X into one reused value buffer and
        yields it, so a yielded array is valid only until the next one is
        drawn: a caller that keeps it copies it.

        The register invariant w < 2^nbits holds throughout, so shifting
        the newest bit in needs no mask."""
        nbits = self.nbits
        blocks = list(_step_blocks(len(reps), n, first=1 - nbits))
        words = np.empty((len(blocks[0]), len(reps)), dtype=np.uint64)
        w = np.zeros(len(reps), dtype=np.uint64)
        x = np.empty(len(reps))
        prefix = key_prefix(seed, reps, SERIES_BASE)
        for ks in blocks:
            bits = raw_words(seed, reps, SERIES_BASE, ks[:, None],
                             out=words[:len(ks)], sign_only=True,
                             prefix=prefix)
            # each word's sign bit, moved to the newest register position
            if nbits == 64:
                bits &= _TWO63
            else:
                bits >>= np.uint64(63)
                bits <<= np.uint64(nbits - 1)
            for k, bit in zip(ks, bits):
                w >>= np.uint64(1)
                w |= bit
                if k > 0:
                    yield self.register_value(w, out=x)

    def paths(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        out = np.empty((len(reps), n))
        for k, x in enumerate(self._steps(seed, reps, n)):
            out[:, k] = x
        return out

    def partial_sums(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        return _by_chunks(reps, n + self.required_depth, lambda chunk:
                          _row_sums(self._steps(seed, chunk, n), n))


@dataclass(frozen=True)
class DoublingModel(_DoublingRegister):
    """X_k = f(T^k U) with Tx = 2x mod 1 through the binary representation
    T^k U = sum_{j>=0} 2^{-j-1} zeta_{k-j}, truncated at 64 bits."""

    observable: str = "cos2pi"

    exact_autocovariance = "exact-doubling"
    nbits = 64

    def __post_init__(self):
        _doubling_observable(self.observable)

    def _readout(self, w, out):
        _DOUBLING_OBSERVABLES[self.observable].f(w, out)

    def truncation_error(self, J: int) -> float:
        # truncating J bits moves the state by less than 2^-J
        return float(_DOUBLING_OBSERVABLES[self.observable].modulus(2.0 ** -J))

    def m_project(self, m: int) -> _DoublingRegister:
        if m >= self.nbits:
            return self
        return DoublingProjectedModel(self.observable, m)


@dataclass(frozen=True)
class DoublingProjectedModel(_DoublingRegister):
    """E[f(T^k U) | top m bits]: the tail is uniform on [0, 2^-m), so the
    conditional mean of each canonical observable is in closed form."""

    observable: str
    m: int

    def __post_init__(self):
        _doubling_observable(self.observable)
        if not 1 <= self.m <= 64:
            raise PreconditionError("projection depth must be in 1..64")

    @property
    def nbits(self) -> int:
        return self.m

    def _readout(self, w, out):
        np.multiply(w, 2.0 ** -self.m, out=out)
        _DOUBLING_OBSERVABLES[self.observable].cell_mean(
            out, 2.0 ** -self.m, out)


@dataclass(frozen=True)
class GLdWalkModel:
    """Left random walk on GL_d acting on directions: increments
    g = R(phi) diag(e^lam, e^-lam, 1, ..) with phi uniform on [0, 2pi) and
    lam uniform on [-lambda_max, lambda_max]; X_k = log||g_k Y_{k-1}|| minus
    a Monte Carlo centering profile, quenched at start direction e1.

    The increments act on span(e1, e2) only, so from e1 (and from every
    start the library uses) a walk with d > 2 stays in that plane: its
    gains are the GL_2 walk's bit for bit, and only its Monte Carlo
    centering differs.  A larger d adds only cost, so d <= 64.

    A step squares y0 e^lam with |y0| <= 1, which overflows once
    lambda_max > ln(DBL_MAX) / 2 = 354.89; the bound 354 leaves a factor
    e^1.78 ~ 6 for the few-ulp rounding of exp, of the unit direction and
    of the sum of squares."""

    d: int = 2
    lambda_max: float = 1.0
    burn_in: int = 256
    center_reps: int = 1 << 15

    def __post_init__(self):
        if not 2 <= self.d <= 64:
            raise PreconditionError(f"dimension must lie in [2, 64], "
                                    f"got {self.d}")
        if not 0 <= self.lambda_max <= 354.0:
            raise PreconditionError(f"lambda_max must lie in [0, 354], "
                                    f"got {self.lambda_max}")

    def log_gains(self, seed, replications, n, series=SERIES_BASE,
                  start=None):
        """The uncentered increments log||g_k y_{k-1}||, one array per step
        k = 1..n (a generator of exactly n arrays).

        (phi_k, lam_k) are keyed by (seed, replication, series, k).  Each
        block of steps is hashed into one reused word buffer per channel,
        on key prefixes derived once per call and channel, and turned into
        phi and lam there, in place.
        ``start`` holds unit start directions of shape
        (..., len(replications), d); leading axes are chains driven by the
        same matrices.  The default is the quenched start e1.

        The direction is one contiguous array per coordinate, and each
        step sums their squares in coordinate order into temporaries
        allocated once per call, with no transposed copy.  The gain is
        yielded in one reused array, valid only until the next one is
        drawn: a caller that keeps it copies it.
        """
        reps = np.asarray(replications)
        if start is None:
            y = np.zeros((self.d, len(reps)))
            y[0] = 1.0
        else:
            y = np.array(np.moveaxis(np.asarray(start, np.float64), -1, 0),
                         order="C")
        y0, y1 = y[0], y[1]
        gain, t, u = np.empty((3, *y0.shape))
        c, e = np.empty((2, len(reps)))
        # phi = 2 pi k 2^-53 and 2u = k 2^-52 from each word's 53-bit k in
        # one multiply: a power-of-two scale commutes with rounding
        scale = (2.0 * np.pi * 2.0 ** -53, 2.0 ** -52)
        prefixes = [key_prefix(seed, reps, series, ch) for ch in (0, 1)]
        blocks = list(_step_blocks(len(reps), n))
        words = np.empty((2, max(map(len, blocks), default=0), len(reps)),
                         dtype=np.uint64)
        for ks in blocks:
            for ch in (0, 1):
                w = raw_words(seed, reps, series, ks[:, None], channel=ch,
                              out=words[ch, :len(ks)], prefix=prefixes[ch])
                w >>= np.uint64(11)
                # row by row: numpy copies an operand that a cast writes
                # over, so a whole-block cast would copy the block
                for row in w:
                    np.multiply(row, scale[ch], out=row.view(np.float64))
            phi, lam = words[:, :len(ks)].view(np.float64)
            lam -= 1.0
            lam *= self.lambda_max
            for phi_k, lam_k in zip(phi, lam):
                np.cos(phi_k, out=c)
                s = np.sin(phi_k, out=phi_k)
                np.exp(lam_k, out=e)
                # rotations preserve the norm, so the gain is ||D y||
                y0 *= e
                y1 *= np.exp(np.negative(lam_k, out=lam_k), out=lam_k)
                np.multiply(y0, y0, out=gain)
                for yj in y[1:]:
                    gain += np.multiply(yj, yj, out=t)
                np.sqrt(gain, out=gain)
                y /= gain
                # (y0, y1) <- (c y0 - s y1, s y0 + c y1)
                np.multiply(s, y1, out=t)
                np.multiply(s, y0, out=u)
                y0 *= c
                y0 -= t
                y1 *= c
                y1 += u
                yield np.log(gain, out=gain)

    def paths(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        out = np.empty((len(reps), n))
        mu = _gl_centering(self, seed, n)
        for k, gain in enumerate(self.log_gains(seed, reps, n)):
            np.subtract(gain, mu[k], out=out[:, k])
        return out

    def partial_sums(self, seed, reps: np.ndarray, n: int) -> np.ndarray:
        # streamed: the walk never materializes its (reps x n) path matrix
        mu_total = _gl_centering(self, seed, n).sum()

        def walk(chunk):
            acc = np.zeros(len(chunk))
            for gain in self.log_gains(seed, chunk, n):
                acc += gain
            return acc - mu_total
        return _by_chunks(reps, n * self.d, walk)


def _gl2_exact_mean(model: GLdWalkModel) -> float:
    """Exact stationary mean for d = 2.

    A uniform rotation makes the direction after every step uniform on the
    circle and independent of the past, so for k >= 2 the increment is
    log||D(lam) u|| with u uniform and lam independent:
    E X_k = E (1/2) log(e^{2 lam} cos^2 t + e^{-2 lam} sin^2 t),
    a smooth two-dimensional integral done by 200-node Gauss-Legendre
    quadrature.  The rule is a table (``_legendre200``) that equals
    ``scipy.special.roots_legendre(200)`` bit for bit, so no LAPACK runs
    and the centering does not import ``scipy.linalg``.  The
    one-dimensional closed form through the dilogarithm Li_2 (ROADMAP,
    "GL_2 in closed form") replaces the grid and the table in the next
    versioned release of the artifacts, since it moves the mean's last
    bits.
    """
    lam = model.lambda_max * NODES                 # uniform on [-L, L]
    t = 0.25 * np.pi * (NODES + 1.0)               # uniform on [0, pi/2]
    c2 = np.cos(t) ** 2
    vals = 0.5 * np.log(np.exp(2.0 * lam)[:, None] * c2[None, :]
                        + np.exp(-2.0 * lam)[:, None]
                        * (1.0 - c2)[None, :])
    return float(WEIGHTS @ vals @ WEIGHTS / 4.0)


@cache
def gl_center_profile(model: GLdWalkModel, seed) -> np.ndarray:
    """E X_k for k = 1..burn_in plus one pooled stationary value appended
    at the end.  For d = 2 the profile is exact: the first increment is
    lam itself (mean 0) and every later increment has the stationary mean
    from the renewal argument in _gl2_exact_mean.  For d > 2 it is a
    Monte Carlo pre-pass from a reserved stream.  Cached per (model, seed).
    """
    if model.d == 2:
        mu = np.full(model.burn_in + 1, _gl2_exact_mean(model))
        mu[0] = 0.0
    else:
        gains = model.log_gains(seed, np.arange(model.center_reps),
                                model.burn_in, SERIES_AUX)
        mu = np.zeros(model.burn_in + 1)
        mu[:-1] = [g.mean() for g in gains]
        mu[-1] = mu[model.burn_in // 2:model.burn_in].mean()
    mu.setflags(write=False)
    return mu


def _gl_centering(model: GLdWalkModel, seed, n: int) -> np.ndarray:
    mu = gl_center_profile(model, seed)
    out = np.full(n, mu[-1])
    head = min(n, model.burn_in)
    out[:head] = mu[:head]
    return out


# ---------------------------------------------------------------------------
# generic operations
# ---------------------------------------------------------------------------

def _capability(model, name: str):
    """The model's method ``name``; a model without one is a mismatch."""
    method = getattr(model, name, None)
    if method is None:
        raise ModelMismatchError(
            f"{name} unsupported for {type(model).__name__}")
    return method


def _by_chunks(reps: np.ndarray, row_len: int, fn) -> np.ndarray:
    """fn over fixed-size replication chunks, concatenated."""
    out = np.empty(len(reps))
    step = max(1, _CHUNK_ELEMS // max(row_len, 1))
    for i in range(0, len(reps), step):
        out[i:i + step] = fn(reps[i:i + step])
    return out


def partial_sums(model, seed, replications, n: int) -> np.ndarray:
    """S_n = X_1 + .. + X_n for each replication index; vectorized,
    deterministic, chunked with a fixed chunk size so reduction order (and
    hence every bit of the result) is independent of threading."""
    reps = np.asarray(replications, dtype=np.int64)
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return _capability(model, "partial_sums")(seed, reps, n)


def sample_path(model, seed, replication, n: int) -> np.ndarray:
    """X_1..X_n for one replication: its row of the model's path matrix."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return _capability(model, "paths")(seed, np.asarray([replication]), n)[0]


def truncation_error(model, J: int) -> float:
    """Upper bound on ||X - X^{J-truncated}||_2."""
    if J < 0:
        raise PreconditionError("J must be >= 0")
    return _capability(model, "truncation_error")(J)


def m_project(model, m: int):
    """The m-dependent approximation X_{k,m} = E[X_k | eps_k..eps_{k-m+1}],
    available in closed form for the linear and doubling models."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    return _capability(model, "m_project")(m)
