"""Bernoulli-shift process zoo.

Models evaluate X_k = g(eps_k, eps_{k-1}, ...) on innovation windows and
come with fast vectorized path / partial-sum engines:

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

Each stateful model has one stepping kernel: ``GLdWalkModel.log_gains``
for the walk and the integer register loop in ``_paths_matrix`` for the
doubling map, whose observables live in one table.  ``m_project`` builds
the m-dependent approximation X_{k,m} = E[X_k | eps_k .. eps_{k-m+1}] for
the linear and doubling models, the two families where it has a closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Callable, NamedTuple

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import zeta as hurwitz_zeta

from .errors import ModelMismatchError, PreconditionError
from .innovations import (
    SERIES_AUX,
    SERIES_BASE,
    InnovationLaw,
    InnovationWindow,
    get_law,
    law_values,
    raw_words,
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
    "evaluate",
    "sample_path",
    "partial_sums",
    "truncation_error",
    "m_project",
    "gl_center_profile",
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

    @property
    def label(self) -> str:
        return type(self).__name__


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
        return float(hurwitz_zeta(self.a, 1))

    def beyond_length_sumsq(self) -> float:
        return float(hurwitz_zeta(2.0 * self.a, self.length))

    def analytic_cumsum(self, tmax: int) -> np.ndarray:
        """Untruncated partial sums C(t) = sum_{j<=t} j^-a, t = 0..tmax."""
        j = np.arange(tmax + 1, dtype=np.float64)
        terms = np.zeros(tmax + 1)
        terms[1:] = j[1:] ** (-self.a)
        return np.cumsum(terms)


@dataclass(frozen=True)
class GeometricScheme(CoefficientScheme):
    """alpha_j = rho^j."""

    rho: float
    length: int = 128

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise PreconditionError("geometric ratio must lie in (0, 1)")

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


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

def _check_window(model, w: InnovationWindow):
    if w.depth < model.required_depth:
        raise PreconditionError(
            f"window depth {w.depth} < required depth {model.required_depth}")
    if w.law.kind != model.law.kind:
        raise ModelMismatchError(
            f"window law {w.law.kind!r} != model law {model.law.kind!r}")


@dataclass(frozen=True)
class LinearModel:
    """X_k = sum_j alpha_j eps_{k-j}."""

    scheme: CoefficientScheme
    law: InnovationLaw

    variant = "linear"

    def __post_init__(self):
        if self.law.kind == "raw-bit":
            raise ModelMismatchError(
                "raw-bit innovations are reserved for the doubling map; "
                "linear models need a centered unit-variance law")

    @property
    def required_depth(self) -> int:
        return self.scheme.length

    def evaluate_values(self, values: np.ndarray) -> np.ndarray:
        """Linear readout on (..., J) arrays of newest-first innovations.
        J may be smaller than the scheme length; that is the depth-J
        truncated model (callers manage the truncation policy)."""
        J = values.shape[-1]
        return values @ self.scheme.coefficients[:J]


_HOLDER_OBSERVABLES = ("cos-shift", "abs-center", "cube-clip")


def _holder_f(observable: str, c: float, beta: float, y: np.ndarray) -> np.ndarray:
    if observable == "cos-shift":
        return c * np.cos(y + 1.0)
    if observable == "abs-center":
        return c * np.abs(y) ** beta
    if observable == "cube-clip":
        return c * np.clip(y, -1.0, 1.0) ** 3
    raise ModelMismatchError(f"unknown observable {observable!r}")


# fixed seed for the internal centering pre-pass; deterministic across runs
_CENTER_SEED = 0x5EEDC0DE
_CENTER_REPS = 1 << 17


@dataclass(frozen=True)
class HolderOfLinearModel:
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

    variant = "holder"

    def __post_init__(self):
        if self.observable not in _HOLDER_OBSERVABLES:
            raise ModelMismatchError(
                f"observable must be one of {_HOLDER_OBSERVABLES}")
        if not 0.0 < self.beta <= 1.0:
            raise PreconditionError("Hoelder exponent must lie in (0, 1]")
        if self.law.kind == "raw-bit":
            raise ModelMismatchError(
                "raw-bit innovations are reserved for the doubling map")

    @property
    def required_depth(self) -> int:
        return self.scheme.length

    @cached_property
    def center(self) -> float:
        if (self.observable == "cos-shift"
                and self.law.kind == "standard-gaussian"):
            # Y_0 is exactly N(0, sum alpha_j^2)
            var = float(np.dot(self.scheme.coefficients,
                               self.scheme.coefficients))
            return float(self.c * np.cos(1.0) * np.exp(-var / 2.0))
        reps = np.arange(_CENTER_REPS)[:, None]
        times = -np.arange(self.scheme.length)
        eps = law_values(self.law, _CENTER_SEED, reps, SERIES_AUX, times,
                         channel=_CH_CENTER)
        y = eps @ self.scheme.coefficients
        return float(np.mean(_holder_f(self.observable, self.c, self.beta, y)))

    def evaluate_values(self, values: np.ndarray) -> np.ndarray:
        J = values.shape[-1]
        y = values @ self.scheme.coefficients[:J]
        return _holder_f(self.observable, self.c, self.beta, y) - self.center


_TWO63 = np.uint64(1) << np.uint64(63)


def _unit(x):
    """A point of [0, 1) given as floats or as 64-bit register words
    (u = w * 2^-64, newest bit at the MSB), as floats."""
    return x * 2.0 ** -64 if x.dtype == np.uint64 else x


def _indicator_half(x):
    # words are compared as integers: w * 2^-64 rounds the words just
    # below 2^63 up to 1/2
    return np.where(x < (_TWO63 if x.dtype == np.uint64 else 0.5), 0.5, -0.5)


class _DoublingObservable(NamedTuple):
    f: Callable             # f(x), x floats in [0, 1) or register words
    cell_mean: Callable     # mean of f over [x, x + h), h = 2^-m
    modulus: Callable       # L2 change of f over a shift of the state by h


_DOUBLING_OBSERVABLES = {
    "cos2pi": _DoublingObservable(
        f=lambda x: np.cos(2.0 * np.pi * _unit(x)),
        cell_mean=lambda x, h: (np.sin(2 * np.pi * (x + h))
                                - np.sin(2 * np.pi * x)) / (2 * np.pi * h),
        modulus=lambda h: 2.0 * np.pi * h),
    "centered-x": _DoublingObservable(
        f=lambda x: _unit(x) - 0.5,
        cell_mean=lambda x, h: x + h / 2.0 - 0.5,
        modulus=lambda h: h),
    # x and 1/2 are multiples of h, so a cell never straddles 1/2; the
    # indicator has no Lipschitz constant but obeys w_2(f, t) <= sqrt(t)
    "indicator-half": _DoublingObservable(
        f=_indicator_half,
        cell_mean=lambda x, h: np.where(x + h <= 0.5, 0.5, -0.5),
        modulus=lambda h: np.sqrt(h)),
}


def _doubling_observable(name: str) -> _DoublingObservable:
    try:
        return _DOUBLING_OBSERVABLES[name]
    except KeyError:
        raise ModelMismatchError(
            f"observable must be one of {tuple(_DOUBLING_OBSERVABLES)}"
        ) from None


def _pack_bits(values: np.ndarray, nbits: int) -> np.ndarray:
    """Pack (..., J>=nbits) newest-first 0/1 values into integers with the
    newest bit at position nbits-1 (exact, no float rounding)."""
    bits = values[..., :nbits].astype(np.uint64)
    shifts = (np.uint64(nbits - 1) - np.arange(nbits, dtype=np.uint64))
    return (bits << shifts).sum(axis=-1, dtype=np.uint64)


class _DoublingRegister:
    """The doubling models hold the newest ``nbits`` innovation bits in an
    integer register and read X off it with ``register_value``."""

    @property
    def law(self) -> InnovationLaw:
        return get_law("raw-bit")

    @property
    def required_depth(self) -> int:
        return self.nbits

    def evaluate_values(self, values: np.ndarray) -> np.ndarray:
        return self.register_value(_pack_bits(values, self.nbits))


@dataclass(frozen=True)
class DoublingModel(_DoublingRegister):
    """X_k = f(T^k U) with Tx = 2x mod 1 through the binary representation
    T^k U = sum_{j>=0} 2^{-j-1} zeta_{k-j}, truncated at 64 bits."""

    observable: str = "cos2pi"
    depth: int = 64

    variant = "doubling"

    def __post_init__(self):
        _doubling_observable(self.observable)
        if self.depth != 64:
            raise PreconditionError("doubling register depth is fixed at 64")

    @property
    def nbits(self) -> int:
        return self.depth

    def register_value(self, w):
        return _DOUBLING_OBSERVABLES[self.observable].f(w)


@dataclass(frozen=True)
class DoublingProjectedModel(_DoublingRegister):
    """E[f(T^k U) | top m bits]: the tail is uniform on [0, 2^-m), so the
    conditional mean of each canonical observable is in closed form."""

    observable: str
    m: int

    variant = "doubling-projected"

    def __post_init__(self):
        _doubling_observable(self.observable)
        if not 1 <= self.m <= 64:
            raise PreconditionError("projection depth must be in 1..64")

    @property
    def nbits(self) -> int:
        return self.m

    def register_value(self, w):
        return _DOUBLING_OBSERVABLES[self.observable].cell_mean(
            w * 2.0 ** -self.m, 2.0 ** -self.m)


@dataclass(frozen=True)
class GLdWalkModel:
    """Left random walk on GL_d acting on directions: increments
    g = R(phi) diag(e^lam, e^-lam, 1, ..) with phi uniform on [0, 2pi) and
    lam uniform on [-lambda_max, lambda_max]; X_k = log||g_k Y_{k-1}|| minus
    a Monte Carlo centering profile, quenched at start direction e1."""

    d: int = 2
    lambda_max: float = 1.0
    burn_in: int = 256
    center_reps: int = 1 << 15

    variant = "gl-walk"

    def __post_init__(self):
        if self.d < 2:
            raise PreconditionError("dimension must be >= 2")
        if self.lambda_max < 0:
            raise PreconditionError("lambda_max must be >= 0")

    @property
    def law(self) -> InnovationLaw:
        # matrix entries are built from uniforms internally
        return get_law("centered-uniform")

    @property
    def required_depth(self) -> int:
        raise ModelMismatchError(
            "GL_d walk is not a fixed-depth Bernoulli shift; "
            "use sample_path/partial_sums")

    def log_gains(self, seed, replications, series=SERIES_BASE, start=None):
        """The uncentered increments log||g_k y_{k-1}||, one array per step
        k = 1, 2, ... (an endless generator; the caller stops it).

        (phi_k, lam_k) are keyed by (seed, replication, series, k).
        ``start`` holds unit start directions of shape
        (..., len(replications), d); leading axes are chains driven by the
        same matrices.  The default is the quenched start e1.
        """
        reps = np.asarray(replications)
        if start is None:
            y = np.zeros((len(reps), self.d))
            y[:, 0] = 1.0
        else:
            y = np.array(start, dtype=np.float64, order="C")
        flat = y.reshape(-1, self.d)  # a view: y stays C-contiguous
        for k in count(1):
            u_phi = (raw_words(seed, reps, series, k, channel=0)
                     >> np.uint64(11)) * 2.0 ** -53
            u_lam = (raw_words(seed, reps, series, k, channel=1)
                     >> np.uint64(11)) * 2.0 ** -53
            phi = 2.0 * np.pi * u_phi
            lam = self.lambda_max * (2.0 * u_lam - 1.0)
            # rotations preserve the norm, so the gain is ||D y||
            y[..., 0] *= np.exp(lam)
            y[..., 1] *= np.exp(-lam)
            norm = np.sqrt(np.einsum("ij,ij->i", flat, flat)).reshape(
                y.shape[:-1])
            y /= norm[..., None]
            c, s = np.cos(phi), np.sin(phi)
            y0 = c * y[..., 0] - s * y[..., 1]
            y1 = s * y[..., 0] + c * y[..., 1]
            y[..., 0], y[..., 1] = y0, y1
            yield np.log(norm)


# centering profiles, cached per (model, seed); dict ops are atomic under
# the GIL and values are deterministic, so racing writes are harmless
_GL_CENTER_CACHE: dict = {}


def _gl2_exact_mean(model: GLdWalkModel) -> float:
    """Exact stationary mean for d = 2.

    A uniform rotation makes the direction after every step uniform on the
    circle and independent of the past, so for k >= 2 the increment is
    log||D(lam) u|| with u uniform and lam independent:
    E X_k = E (1/2) log(e^{2 lam} cos^2 t + e^{-2 lam} sin^2 t),
    a smooth two-dimensional integral done by Gauss-Legendre quadrature.
    """
    from scipy.special import roots_legendre
    x, wq = roots_legendre(200)
    lam = model.lambda_max * x                     # uniform on [-L, L]
    t = 0.25 * np.pi * (x + 1.0)                   # uniform on [0, pi/2]
    c2 = np.cos(t) ** 2
    vals = 0.5 * np.log(np.exp(2.0 * lam)[:, None] * c2[None, :]
                        + np.exp(-2.0 * lam)[:, None]
                        * (1.0 - c2)[None, :])
    return float(wq @ vals @ wq / 4.0)


def gl_center_profile(model: GLdWalkModel, seed) -> np.ndarray:
    """E X_k for k = 1..burn_in plus one pooled stationary value appended
    at the end.  For d = 2 the profile is exact: the first increment is
    lam itself (mean 0) and every later increment has the stationary mean
    from the renewal argument in _gl2_exact_mean.  For d > 2 it is a
    Monte Carlo pre-pass from a reserved stream.  Cached per (model, seed).
    """
    key = (model, int(seed))
    cached = _GL_CENTER_CACHE.get(key)
    if cached is not None:
        return cached
    if model.d == 2:
        mu = np.full(model.burn_in + 1, _gl2_exact_mean(model))
        mu[0] = 0.0
    else:
        gains = model.log_gains(seed, np.arange(model.center_reps),
                                SERIES_AUX)
        mu = np.zeros(model.burn_in + 1)
        mu[:-1] = [g.mean() for g in islice(gains, model.burn_in)]
        mu[-1] = mu[model.burn_in // 2:model.burn_in].mean()
    mu.setflags(write=False)
    _GL_CENTER_CACHE[key] = mu
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

def evaluate(model, w: InnovationWindow) -> float:
    """X at the window's anchor time."""
    _check_window(model, w)
    return float(model.evaluate_values(w.values[:model.required_depth]))


def _bn_weights(scheme: CoefficientScheme, n: int) -> tuple[np.ndarray, int]:
    """Beveridge-Nelson innovation weights for S_n = sum_t w_t eps_t.

    Returns (w, t0) with w[i] the weight of eps_{t0 + i}; weights of
    innovations older than t0 vanish for the truncated scheme.
    """
    L = scheme.length
    C = scheme.cumsum
    t = np.arange(2 - L, n + 1)

    def C_at(s):
        s = np.minimum(s, L - 1)
        out = np.where(s >= 0, C[np.clip(s, 0, L - 1)], 0.0)
        return out

    w = C_at(n - t) - C_at(-t)
    return w, 2 - L


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

    if isinstance(model, LinearModel):
        w, t0 = _bn_weights(model.scheme, n)
        times = np.arange(t0, n + 1)
        return _by_chunks(reps, len(times), lambda chunk: law_values(
            model.law, seed, chunk[:, None], SERIES_BASE, times) @ w)

    if isinstance(model, GLdWalkModel):
        # streamed: the walk never materializes its (reps x n) path matrix
        mu_total = _gl_centering(model, seed, n).sum()

        def walk(chunk):
            acc = np.zeros(len(chunk))
            for gain in islice(model.log_gains(seed, chunk), n):
                acc += gain
            return acc - mu_total
        return _by_chunks(reps, n * model.d, walk)

    if isinstance(model, (HolderOfLinearModel, _DoublingRegister)):
        return _by_chunks(reps, n + model.required_depth, lambda chunk:
                          _paths_matrix(model, seed, chunk, n).sum(axis=1))

    raise ModelMismatchError(f"unsupported model {type(model).__name__}")


def _paths_matrix(model, seed, reps: np.ndarray, n: int) -> np.ndarray:
    """(len(reps), n) matrix of X_1..X_n."""
    if isinstance(model, LinearModel) or isinstance(model, HolderOfLinearModel):
        L = model.scheme.length
        times = np.arange(2 - L, n + 1)
        eps = law_values(model.law, seed, reps[:, None], SERIES_BASE, times)
        alpha = model.scheme.coefficients
        if L == 1:
            y = eps * alpha[0]
        else:
            y = fftconvolve(eps, alpha[None, :], mode="valid", axes=1)
        if isinstance(model, LinearModel):
            return y
        return _holder_f(model.observable, model.c, model.beta, y) - model.center

    out = np.empty((len(reps), n))
    if isinstance(model, _DoublingRegister):
        nbits = model.nbits
        col = reps[:, None]
        # seed the register with the pre-sample bits
        init_times = 1 - nbits + np.arange(nbits)
        words = raw_words(seed, col, SERIES_BASE, init_times)
        bits = (words >> np.uint64(63)).astype(np.float64)
        w = _pack_bits(bits[:, ::-1], nbits)
        shift_in = np.uint64(nbits - 1)
        mask = (np.uint64(1) << np.uint64(nbits)) - np.uint64(1) \
            if nbits < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
        for k in range(1, n + 1):
            bit = raw_words(seed, reps, SERIES_BASE, k) >> np.uint64(63)
            w = ((w >> np.uint64(1)) | (bit << shift_in)) & mask
            out[:, k - 1] = model.register_value(w)
        return out

    if isinstance(model, GLdWalkModel):
        mu = _gl_centering(model, seed, n)
        for k, gain in enumerate(islice(model.log_gains(seed, reps), n)):
            out[:, k] = gain - mu[k]
        return out

    raise ModelMismatchError(f"no path matrix for {type(model).__name__}")


def sample_path(model, seed, replication, n: int) -> np.ndarray:
    """X_1..X_n for one replication; entries equal window evaluations."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return _paths_matrix(model, seed, np.asarray([replication]), n)[0]


def truncation_error(model, J: int) -> float:
    """Upper bound on ||X - X^{J-truncated}||_2."""
    if J < 0:
        raise PreconditionError("J must be >= 0")
    if isinstance(model, LinearModel):
        return float(np.sqrt(model.scheme.tail_sumsq(J)))
    if isinstance(model, HolderOfLinearModel):
        # ||f(Y) - f(Y_J)||_2 <= c E[|D|^{2 beta}]^{1/2} <= c (E D^2)^{beta/2}
        return float(model.c * model.scheme.tail_sumsq(J) ** (model.beta / 2))
    if isinstance(model, DoublingModel):
        # truncating J bits moves the state by less than 2^-J
        return float(_DOUBLING_OBSERVABLES[model.observable].modulus(2.0 ** -J))
    raise ModelMismatchError(
        f"truncation_error unsupported for {type(model).__name__}")


def m_project(model, m: int):
    """The m-dependent approximation X_{k,m} = E[X_k | eps_k..eps_{k-m+1}],
    available in closed form for the linear and doubling models."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if isinstance(model, LinearModel):
        if m >= model.scheme.length:
            return model
        return LinearModel(model.scheme.truncate(m), model.law)
    if isinstance(model, DoublingModel):
        if m >= model.depth:
            return model
        return DoublingProjectedModel(model.observable, m)
    raise ModelMismatchError(
        f"m_project unsupported for {type(model).__name__}")
