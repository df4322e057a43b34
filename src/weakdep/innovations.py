"""Counter-based innovation streams.

Every innovation is a pure function of an integer key
``(seed, replication, series, time, channel)``.  There is no generator
state: any window of any replication can be materialised independently,
which is what makes coupled (primed / starred) streams cheap and makes
experiment sharding embarrassingly parallel while staying bit-exact.

``series`` distinguishes the base stream (0), the primed stream (1) used
by coupling constructions, and auxiliary streams (>= 2) reserved for
centering pre-passes and nested Monte Carlo.  ``channel`` separates
multiple draws needed at the same time index (e.g. rotation angle and
log-gain of a matrix increment).

Each law is one ``InnovationLaw`` record in the ``LAWS`` table, which
holds all that the library knows of it.

``law_values`` allocates its result once (or fills a given ``out``) in
row slices of at most ``KEY_BLOCK`` keys (one row per slice if a row
alone is wider): each slice's words are hashed into the ``uint64`` view
of the result and transformed into values there, in place, so the
temporaries stay cache-sized however large the request.  The hash's
xorshifts shift into one scratch block per thread, so a block of up to
``KEY_BLOCK`` keys is hashed without a block-sized temporary.  A word
depends on its key alone, so blocked values are bit-identical to a
one-shot hash of the same keys.

A word is the splitmix64 finalizer of ``state ^ time * GAMMA``, where
``state`` is hashed from (seed, replication, series, channel).  The
finalizer's first round is premixed on those two key parts, so a word
costs one full-size xor and the four remaining finalizer steps.  Laws
that read only the sign bit (Rademacher, raw bit) stop before the last
xorshift, which leaves bit 63 as it is: their values are unchanged.

The two premixed parts, ``key_prefix`` (the state column) and
``time_row``, do not change from one block of a call to the next, so
each call site derives them once and hands slices of them to every
``raw_words`` call: ``law_values`` once per call, the blocked linear
sums once per window of at most ``KEY_BLOCK // 8`` replications (with
the time row once per call), and the doubling and GL step loops once per
call and channel.  Every word still comes out of one ``raw_words`` call
per block, with the bits of the plain call.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PreconditionError

__all__ = [
    "SERIES_BASE",
    "SERIES_PRIME",
    "SERIES_AUX",
    "KEY_BLOCK",
    "InnovationLaw",
    "LAWS",
    "get_law",
    "raw_words",
    "key_prefix",
    "time_row",
    "uniform01",
    "law_values",
]

SERIES_BASE = 0
SERIES_PRIME = 1
SERIES_AUX = 2

# keys hashed per call: 2^16 uint64 words (512 KiB) fit in L2
KEY_BLOCK = 1 << 16

# splitmix64 constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_C_REP = np.uint64(0xD1342543DE82EF95)
_C_SER = np.uint64(0xAF251AF3B0F025B5)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _finalize(z):
    """splitmix64 avalanche finalizer, in place on a uint64 array (a numpy
    scalar is rebound instead); returns ``z``.

    uint64 arithmetic is modulo 2^64 by design; callers suppress the
    overflow warning that numpy raises for scalar operands.
    """
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


def _as_u64(x) -> np.ndarray:
    """Map (possibly negative) integers to uint64 via two's complement."""
    return np.asarray(x, dtype=np.int64).astype(np.uint64)


def _stream_state(seed, replication, series, channel=0) -> np.ndarray:
    """Premixed 64-bit state for a (seed, rep, series, channel) key prefix.

    Vectorized over ``replication``.
    """
    with np.errstate(over="ignore"):
        h = _finalize(_as_u64(seed) + _GAMMA)
        h = _finalize(h ^ (_as_u64(replication) * _C_REP + _GAMMA))
        sc = _as_u64(series) + (_as_u64(channel) << np.uint64(8))
        return _finalize(h ^ (sc * _C_SER + _GAMMA))


def _premix(x):
    """The finalizer's first xorshift, ``x ^= x >> 30``, in place on a
    fresh uint64 array; returns ``x``."""
    x ^= x >> _S30
    return x


def key_prefix(seed, replication, series, channel=0) -> np.ndarray:
    """The premixed key prefix that ``raw_words`` joins with each time:
    the (seed, replication, series, channel) state after the finalizer's
    first xorshift.  Vectorized over ``replication`` and ``channel``."""
    return _premix(_stream_state(seed, replication, series, channel))


def time_row(times) -> np.ndarray:
    """The premixed time part of ``raw_words``: ``times * GAMMA`` after
    the finalizer's first xorshift."""
    with np.errstate(over="ignore"):
        return _premix(_as_u64(times) * _GAMMA)


# one scratch block per thread for the shifted words of ``_xorshift``
_SCRATCH = threading.local()


def _xorshift(z, shift):
    """``z ^= z >> shift`` in place on a uint64 array; returns ``z`` (a
    numpy scalar is rebound instead).

    ``z >> shift`` goes into this thread's scratch block of ``KEY_BLOCK``
    words, allocated on the thread's first call and reused after, so
    hashing a block makes no block-sized temporary.  An array larger than
    the block makes one, as the plain expression does."""
    if np.ndim(z) == 0 or z.size > KEY_BLOCK:
        z ^= z >> shift
        return z
    scratch = getattr(_SCRATCH, "words", None)
    if scratch is None:
        scratch = _SCRATCH.words = np.empty(KEY_BLOCK, dtype=np.uint64)
    z ^= np.right_shift(z, shift, out=scratch[:z.size].reshape(z.shape))
    return z


def raw_words(seed, replication, series, times, channel=0, out=None,
              sign_only=False, prefix=None, premixed_times=None):
    """Raw 64-bit words for the given key(s).

    ``replication`` and ``times`` may be scalars or arrays; they broadcast
    against each other (a (R, 1) replication column against a (T,) time row
    yields an (R, T) block).  ``out``, a uint64 array of the broadcast
    shape, receives the words if given.

    A word is ``_finalize(state ^ time * GAMMA)``.  A logical shift
    distributes over xor, so the finalizer's first xorshift is applied to
    the two small key parts (the state column and the time row) before
    the one full-size xor that joins them.  A call site that hashes many
    blocks of the same keys derives those parts once, with ``key_prefix``
    and ``time_row``, and passes (slices of) them as ``prefix`` and
    ``premixed_times``; each one given replaces the key parts it is
    derived from, which are then not read, and the words keep their bits.
    With ``sign_only`` the last xorshift, ``z ^= z >> 31``, is skipped: it
    never changes bit 63, so bit 63 of each returned word is final and
    bits 0-62 are not.
    """
    if prefix is None:
        prefix = key_prefix(seed, replication, series, channel)
    if premixed_times is None:
        premixed_times = time_row(times)
    with np.errstate(over="ignore"):
        z = np.bitwise_xor(prefix, premixed_times, out=out)
        z *= _M1
        z = _xorshift(z, _S27)
        z *= _M2
        if not sign_only:
            z = _xorshift(z, _S31)
        return z


def uniform01(words: np.ndarray, out=None) -> np.ndarray:
    """Map 64-bit words to floats in (0, 1) using the top 53 bits; ``out``
    may share memory with ``words``."""
    u = np.multiply(words >> np.uint64(11), 2.0**-53, out=out)
    u += 2.0**-54
    return u


_SQRT12 = np.sqrt(12.0)
_SIGN = np.uint64(1 << 63)
_ONE = np.float64(1.0).view(np.uint64)  # the bit pattern of 1.0


def _special():
    """``scipy.special``, imported on first use: of the laws, only the
    Gaussian transform needs it (``ndtri``), and the import costs about a
    quarter second and 25 MB."""
    import scipy.special
    return scipy.special


def _gaussian(words, out):
    _special().ndtri(uniform01(words, out), out=out)


def _rademacher(words, out):
    # the word's sign bit on 1.0: exactly 1 - 2 * (bit 63)
    bits = np.bitwise_and(words, _SIGN, out=out.view(np.uint64))
    bits |= _ONE


def _centered_uniform(words, out):
    uniform01(words, out)
    out -= 0.5
    out *= _SQRT12


def _raw_bit(words, out):
    # bit 63 times the bit pattern of 1.0 is the bit pattern of 0.0 or 1.0
    bits = np.right_shift(words, np.uint64(63), out=out.view(np.uint64))
    bits *= _ONE


@dataclass(frozen=True)
class InnovationLaw:
    """A marginal law for innovation streams; records of one ``kind`` are
    equal.  ``transform(words, out)`` writes the law's values of ``words``
    into ``out``, which may alias them, and reads only bit 63 of each word
    if ``sign_only``; ``load()`` imports what it needs.  All laws except
    ``raw-bit`` have mean 0 and variance 1; ``raw-bit`` is the fair
    Bernoulli bit used by the doubling-map models.  Every moment is
    analytic: ``central_moment(k)`` is E (eps - E eps)^k for integer k."""

    kind: str
    transform: Callable = field(compare=False, repr=False)
    _abs_moment: Callable = field(compare=False, repr=False)
    central_moment: Callable = field(compare=False, repr=False)
    sign_only: bool = field(default=False, compare=False, repr=False)
    load: Callable = field(default=lambda: None, compare=False, repr=False)

    def sample(self, words: np.ndarray) -> np.ndarray:
        out = np.empty(np.shape(words))
        self.transform(words, out)
        return out

    def abs_moment(self, p: float) -> float:
        """E |eps|^p."""
        if p <= 0:
            raise ValueError("p must be positive")
        return self._abs_moment(p)

    def __reduce__(self):
        # the lambdas do not pickle; the record is found again by its kind
        return get_law, (self.kind,)


LAWS = {law.kind: law for law in (
    InnovationLaw(
        "standard-gaussian", _gaussian,
        lambda p: math.exp(0.5 * p * math.log(2.0) + math.lgamma((p + 1) / 2)
                           - 0.5 * math.log(math.pi)),
        lambda k: 0.0 if k % 2 else float(math.prod(range(1, k, 2))),
        load=_special),
    InnovationLaw(
        "rademacher", _rademacher, lambda p: 1.0,
        lambda k: 0.0 if k % 2 else 1.0, sign_only=True),
    # uniform on [-sqrt(3), sqrt(3)]
    InnovationLaw(
        "centered-uniform", _centered_uniform,
        lambda p: float(3.0 ** (p / 2.0) / (p + 1.0)),
        lambda k: 0.0 if k % 2 else float(3.0 ** (k / 2) / (k + 1.0))),
    InnovationLaw(
        "raw-bit", _raw_bit, lambda p: 0.5,
        lambda k: 0.0 if k % 2 else 0.5 ** k, sign_only=True),
)}


def get_law(kind) -> InnovationLaw:
    """The law named ``kind`` (or ``kind`` itself), with what its transform
    imports loaded: a model's law is resolved while it is built, so the
    import is paid there, not in its first hash."""
    if isinstance(kind, InnovationLaw):
        return kind
    try:
        law = LAWS[kind]
    except KeyError:
        raise PreconditionError(
            f"unknown law {kind!r}; available: {sorted(LAWS)}") from None
    law.load()
    return law


def law_values(law, seed, replication, series, times, channel=0,
               prefix=None, premixed_times=None, out=None) -> np.ndarray:
    """Innovation values for the given key(s); broadcasts like raw_words.
    ``out``, a C-contiguous float64 array of the broadcast shape, receives
    them if given, so a caller that draws many blocks reuses one buffer.

    A key block larger than ``KEY_BLOCK`` is taken in row slices along its
    first axis.  Each slice's words are hashed into the ``uint64`` view of
    the returned array and transformed there in place.  The premixed key
    prefix and time row are derived once per call, unless given (see
    ``raw_words``), and sliced like the keys.  A law that reads only bit
    63 gets sign-only words."""
    law = get_law(law)
    sample, sign_only = law.transform, law.sign_only
    keys = [np.asarray(k) for k in (seed, replication, series, times,
                                    channel)]
    shape = np.broadcast_shapes(*(k.shape for k in keys))
    if out is None:
        out = np.empty(shape)
    bits = out.view(np.uint64)
    if math.prod(shape) <= KEY_BLOCK:
        sample(raw_words(*keys, out=bits, sign_only=sign_only, prefix=prefix,
                         premixed_times=premixed_times), out)
        return out
    if prefix is None:
        prefix = key_prefix(seed, replication, series, channel)
    if premixed_times is None:
        premixed_times = time_row(times)
    rows = max(1, KEY_BLOCK // math.prod(shape[1:]))
    # only parts that vary along the first axis are sliced; the others
    # broadcast against every slice
    parts = keys + [prefix, premixed_times]
    for i in range(0, shape[0], rows):
        *block, p, t = [
            k[i:i + rows] if k.ndim == len(shape) and len(k) > 1 else k
            for k in parts]
        sample(raw_words(*block, out=bits[i:i + rows], sign_only=sign_only,
                         prefix=p, premixed_times=t), out[i:i + rows])
    return out
