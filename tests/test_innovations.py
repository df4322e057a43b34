import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from coupling_reference import draw_window, primed_window, starred_window

from weakdep import innovations
from weakdep.errors import PreconditionError
from weakdep.innovations import (
    KEY_BLOCK,
    LAWS,
    SERIES_AUX,
    SERIES_BASE,
    SERIES_PRIME,
    get_law,
    key_prefix,
    law_values,
    raw_words,
    time_row,
    uniform01,
)


def test_same_key_same_window():
    a = draw_window("standard-gaussian", seed=11, replication=3, anchor=5,
                    depth=16)
    b = draw_window("standard-gaussian", seed=11, replication=3, anchor=5,
                    depth=16)
    assert np.array_equal(a.values, b.values)


def test_overlapping_windows_agree_entrywise():
    # value at offset j is the stream value at time anchor - j, so windows
    # at different anchors must agree wherever times coincide
    a = draw_window("standard-gaussian", 7, 0, anchor=10, depth=12)
    b = draw_window("standard-gaussian", 7, 0, anchor=6, depth=12)
    # a offset 4+j is time 6-j, which is b offset j
    assert np.array_equal(a.values[4:12], b.values[0:8])


def test_negative_times_valid():
    w = draw_window("standard-gaussian", 1, 0, anchor=-100, depth=8)
    assert w.values.shape == (8,)
    assert np.all(np.isfinite(w.values))


def test_distinct_keys_differ():
    base = raw_words(5, 0, SERIES_BASE, np.arange(64))
    for words in (raw_words(6, 0, SERIES_BASE, np.arange(64)),
                  raw_words(5, 1, SERIES_BASE, np.arange(64)),
                  raw_words(5, 0, SERIES_PRIME, np.arange(64)),
                  raw_words(5, 0, SERIES_BASE, np.arange(64), channel=1)):
        assert not np.array_equal(base, words)


def test_uniform01_open_interval():
    u = uniform01(raw_words(0, np.arange(200)[:, None], SERIES_BASE,
                            np.arange(50)))
    assert u.shape == (200, 50)
    assert np.all(u > 0) and np.all(u < 1)


def test_base_prime_streams_uncorrelated():
    R = 100_000
    reps = np.arange(R)
    x = law_values("standard-gaussian", 0, reps, SERIES_BASE, 0)
    y = law_values("standard-gaussian", 0, reps, SERIES_PRIME, 0)
    assert abs(np.mean(x * y)) <= 4.0 / np.sqrt(R)


def test_raw_bit_values_and_mean():
    R = 4096
    w = law_values("raw-bit", 3, np.arange(R)[:, None], SERIES_BASE,
                   np.arange(64))
    assert set(np.unique(w)) <= {0.0, 1.0}
    assert abs(w.mean() - 0.5) <= 4 * 0.5 / np.sqrt(64 * R)


@pytest.mark.parametrize("kind", ["standard-gaussian", "rademacher",
                                  "centered-uniform"])
def test_laws_mean_zero_variance_one(kind):
    R = 200_000
    x = law_values(kind, 0, np.arange(R), SERIES_BASE, 0)
    assert abs(x.mean()) <= 5.0 / np.sqrt(R)
    spread = max(get_law(kind).central_moment(4) - 1.0, 1e-4)
    assert abs(x.var() - 1.0) <= 5 * np.sqrt(spread / R)


def test_gaussian_higher_moments():
    R = 1_000_000
    x = law_values("standard-gaussian", 1, np.arange(R), SERIES_BASE, 0)
    # skewness 0, kurtosis 3 within Monte Carlo error
    assert abs(np.mean(x ** 3)) <= 5 * np.sqrt(15.0 / R)
    assert abs(np.mean(x ** 4) - 3.0) <= 5 * np.sqrt(96.0 / R)


def test_abs_moment_values():
    g = get_law("standard-gaussian")
    # E|Z|^1 = sqrt(2/pi), E|Z|^2 = 1, E|Z|^4 = 3
    assert g.abs_moment(1.0) == pytest.approx(np.sqrt(2.0 / np.pi))
    assert g.abs_moment(2.0) == pytest.approx(1.0)
    assert g.abs_moment(4.0) == pytest.approx(3.0)
    u = get_law("centered-uniform")
    # E|U|^p = 3^{p/2}/(p+1): p=2 -> 1
    assert u.abs_moment(2.0) == pytest.approx(1.0)
    assert get_law("rademacher").abs_moment(3.7) == 1.0


def test_primed_window_replaces_exactly_one_entry():
    w = draw_window("standard-gaussian", 2, 0, anchor=0, depth=8)
    pw = primed_window(w, 3)
    diff = w.values != pw.values
    assert diff.sum() == 1 and diff[3]


def test_primed_window_idempotent():
    w = draw_window("standard-gaussian", 2, 0, anchor=0, depth=8)
    a = primed_window(w, 3)
    b = primed_window(a, 3)
    assert np.array_equal(a.values, b.values)


def test_starred_window_prefix_and_tail():
    w = draw_window("standard-gaussian", 2, 0, anchor=0, depth=8)
    sw = starred_window(w, 3)
    assert np.array_equal(sw.values[:3], w.values[:3])
    assert np.all(sw.values[3:] != w.values[3:])


def test_starred_zero_is_fully_primed():
    w = draw_window("standard-gaussian", 2, 0, anchor=5, depth=6)
    sw = starred_window(w, 0)
    assert np.all(sw.values != w.values)


def test_primed_and_starred_agree_at_lag():
    w = draw_window("standard-gaussian", 2, 0, anchor=0, depth=8)
    assert primed_window(w, 3).values[3] == starred_window(w, 3).values[3]


def test_starred_last_offset_changes_oldest_only():
    w = draw_window("standard-gaussian", 2, 0, anchor=0, depth=8)
    sw = starred_window(w, 7)
    assert np.array_equal(sw.values[:7], w.values[:7])
    assert sw.values[7] != w.values[7]


def test_prime_value_shared_across_anchors():
    # the primed value at a given absolute time must be identical no matter
    # which (anchor, lag) combination reaches it
    a = primed_window(draw_window("standard-gaussian", 9, 0, 10, 16), 4)
    b = primed_window(draw_window("standard-gaussian", 9, 0, 8, 16), 2)
    assert a.values[4] == b.values[2]  # both are time 6, prime series


def test_out_of_window_lag_rejected():
    w = draw_window("standard-gaussian", 0, 0, 0, 8)
    with pytest.raises(PreconditionError):
        primed_window(w, 8)
    with pytest.raises(PreconditionError):
        starred_window(w, -1)


def test_unknown_law_rejected():
    with pytest.raises(PreconditionError):
        get_law("cauchy")
    assert set(LAWS) == {"standard-gaussian", "rademacher",
                        "centered-uniform", "raw-bit"}


def test_law_records_compare_by_kind():
    # models are frozen dataclasses that hold their law, so a record
    # compares, hashes, prints and pickles by its kind alone
    for kind, law in LAWS.items():
        assert get_law(kind) is law and get_law(law) is law
        assert pickle.loads(pickle.dumps(law)) is law
        twin = dataclasses.replace(law, transform=None)
        assert twin == law and hash(twin) == hash(law)
        assert repr(law) == f"InnovationLaw(kind={kind!r})"
    assert LAWS["rademacher"] != LAWS["raw-bit"]


# (replication, times, channel) keys: an over-budget (301, 4609) block
# whose last row slice is ragged, the same block on channel 1, a block
# spanned by a channel column, scalar keys, and long 1-D keys on either
# side
BLOCK_KEYS = {
    "block": (np.arange(301)[:, None], np.arange(-4000, 609), 0),
    "block-channel-1": (np.arange(301)[:, None], np.arange(-4000, 609), 1),
    "channel-column": (3, np.arange(5000), np.arange(20)[:, None]),
    "scalar": (3, 7, 0),
    "times-1d": (3, np.arange(-5, 200_000), 0),
    "reps-1d": (np.arange(70_001), 4, 0),
}


@pytest.mark.parametrize("key", sorted(BLOCK_KEYS))
@pytest.mark.parametrize("kind", sorted(LAWS))
def test_law_values_blocked_equal_one_shot(kind, key):
    rep, times, channel = BLOCK_KEYS[key]
    one_shot = get_law(kind).sample(
        raw_words(11, rep, SERIES_BASE, times, channel))
    blocked = law_values(kind, 11, rep, SERIES_BASE, times, channel)
    assert blocked.shape == one_shot.shape
    assert blocked.tobytes() == one_shot.tobytes()


def test_law_values_hash_calls_stay_within_key_block(monkeypatch):
    sizes = []

    def counted(*args, **kwargs):
        words = raw_words(*args, **kwargs)
        sizes.append(words.size)
        return words
    monkeypatch.setattr(innovations, "raw_words", counted)
    law_values("rademacher", 11, np.arange(301)[:, None], SERIES_BASE,
               np.arange(4609))
    assert sum(sizes) == 301 * 4609
    assert max(sizes) <= KEY_BLOCK
    # 14 rows of 4609 keys fit in a block: 21 full slices and one of 7
    assert len(sizes) == 22 and sizes[-1] == 7 * 4609


@pytest.mark.parametrize("kind", sorted(LAWS))
def test_law_values_temporaries_stay_within_two_key_blocks(kind):
    # each block is hashed and transformed inside the returned array, so
    # beyond it only a block's temporaries are ever live
    reps, times = np.arange(301)[:, None], np.arange(4609)
    tracemalloc.start()
    try:
        out = law_values(kind, 11, reps, SERIES_BASE, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 2 * KEY_BLOCK * 8 + 64 * 1024


# An independent definition of the stream on Python ints, mod 2^64: the
# seed, replication and series/channel stages build the key prefix, then
# the time is mixed in and finalized.
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _ref_finalize(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _ref_word(seed, replication, series, time, channel=0):
    h = _ref_finalize((seed + _GAMMA) & _MASK)
    h = _ref_finalize(h ^ ((replication * 0xD1342543DE82EF95 + _GAMMA)
                           & _MASK))
    sc = (series + (channel << 8)) & _MASK
    h = _ref_finalize(h ^ ((sc * 0xAF251AF3B0F025B5 + _GAMMA) & _MASK))
    return _ref_finalize(h ^ (time * _GAMMA & _MASK))


def _ref_block(seed, replication, series, times, channel=0):
    reps, ts, chans = np.broadcast_arrays(replication, times, channel)
    return np.array([_ref_word(seed, int(r), series, int(t), int(c))
                     for r, t, c in zip(reps.flat, ts.flat, chans.flat)],
                    dtype=np.uint64).reshape(reps.shape)


@pytest.mark.parametrize("seed", [0, 11, -7, 2**62 + 3])
@pytest.mark.parametrize("series", [SERIES_BASE, SERIES_PRIME, SERIES_AUX])
@pytest.mark.parametrize("channel", [0, 1, 300])
def test_raw_words_match_reference_scalar_keys(seed, series, channel):
    for rep, t in ((0, 0), (3, 7), (-1, 5), (4, -9), (-2**40, -2**50)):
        expected = _ref_word(seed, rep, series, t, channel)
        assert int(raw_words(seed, rep, series, t, channel)) == expected


@pytest.mark.parametrize("series", [SERIES_BASE, SERIES_PRIME, SERIES_AUX])
def test_raw_words_match_reference_blocks(series):
    # (rows, 1) x (T,): the law_values layout
    reps, times = np.arange(-3, 6)[:, None], np.arange(-20, 45)
    assert np.array_equal(raw_words(9, reps, series, times),
                          _ref_block(9, reps, series, times))
    # (steps, 1) x (R,): the doubling and GL step-kernel layout
    ks, reps = np.arange(1, 12)[:, None], np.arange(50)
    for channel in (0, 1):
        assert np.array_equal(raw_words(9, reps, series, ks, channel),
                              _ref_block(9, reps, series, ks, channel))


def test_raw_words_match_reference_with_out():
    reps, times = np.arange(7)[:, None], np.arange(-30, 30)
    out = np.empty((7, 60), dtype=np.uint64)
    got = raw_words(4, reps, SERIES_BASE, times, 300, out=out)
    assert got is out
    assert np.array_equal(out, _ref_block(4, reps, SERIES_BASE, times, 300))


def _hoisted_equals_plain(seed, replication, series, times, channel,
                          prefix, premixed_times, ref_columns=slice(None)):
    """raw_words on premixed parts equals the plain call, and the oracle
    on the columns ``ref_columns``."""
    got = raw_words(seed, replication, series, times, channel, prefix=prefix,
                    premixed_times=premixed_times)
    plain = raw_words(seed, replication, series, times, channel)
    assert np.array_equal(got, plain)
    reps, ts, chans = (k[:, ref_columns] for k in np.broadcast_arrays(
        replication, times, channel))
    assert np.array_equal(got[:, ref_columns],
                          _ref_block(seed, reps, series, ts, chans))


@pytest.mark.parametrize("seed", [0, -7, 2**62 + 3])
@pytest.mark.parametrize("series", [SERIES_BASE, SERIES_PRIME, SERIES_AUX])
@pytest.mark.parametrize("channel", [0, 1, 300])
def test_raw_words_on_hoisted_parts_match_plain_and_reference(seed, series,
                                                              channel):
    # (rows, 1) x (T,) in 8-row slices with a ragged last one: the blocked
    # linear sums, which derive both parts once for every slice
    reps, times = np.arange(-5, 14)[:, None], np.arange(-40, 25)
    prefix, t = key_prefix(seed, reps, series, channel), time_row(times)
    for a in range(0, len(reps), 8):
        _hoisted_equals_plain(seed, reps[a:a + 8], series, times, channel,
                              prefix[a:a + 8], t)
    # (steps, 1) x (R,): the doubling and GL step kernels, one prefix for
    # every step block and the time row of each block
    reps = np.arange(40)
    prefix = key_prefix(seed, reps, series, channel)
    for ks in (np.arange(-3, 6), np.arange(6, 9)):
        _hoisted_equals_plain(seed, reps, series, ks[:, None], channel,
                              prefix, time_row(ks[:, None]))


@pytest.mark.parametrize("seed", [0, -7, 2**62 + 3])
@pytest.mark.parametrize("series", [SERIES_BASE, SERIES_PRIME, SERIES_AUX])
def test_channel_column_on_hoisted_parts_matches_plain_and_reference(
        seed, series):
    # BLOCK_KEYS' channel column: law_values slices it, and the prefix
    # with it, in 13-row slices
    rep, times, channels = BLOCK_KEYS["channel-column"]
    prefix, t = key_prefix(seed, rep, series, channels), time_row(times)
    assert prefix.shape == (20, 1)
    rows = KEY_BLOCK // len(times)
    for a in range(0, len(channels), rows):
        _hoisted_equals_plain(seed, rep, series, times, channels[a:a + rows],
                              prefix[a:a + rows], t, slice(None, None, 250))


def test_sign_only_laws_read_only_bit_63():
    words = raw_words(5, np.arange(64)[:, None], SERIES_BASE, np.arange(64))
    scramble = raw_words(6, np.arange(64)[:, None], SERIES_BASE,
                         np.arange(64)) & np.uint64((1 << 63) - 1)
    sign_only = [kind for kind, row in LAWS.items()
                 if row.sign_only]
    assert sorted(sign_only) == ["rademacher", "raw-bit"]
    for kind in sign_only:
        law = get_law(kind)
        assert (law.sample(words).tobytes()
                == law.sample(words ^ scramble).tobytes())


def test_sign_only_words_keep_bit_63():
    # a full block: the shortcut is taken (low bits differ) and sound (the
    # sign bit does not)
    reps, times = np.arange(16)[:, None], np.arange(-2048, 2048)
    full = raw_words(13, reps, SERIES_BASE, times)
    short = raw_words(13, reps, SERIES_BASE, times, sign_only=True)
    assert full.size == KEY_BLOCK
    assert np.array_equal(full >> np.uint64(63), short >> np.uint64(63))
    low = np.uint64((1 << 63) - 1)
    assert np.all(full & low != short & low)


@pytest.mark.parametrize("kind", sorted(LAWS))
def test_law_values_fill_a_given_out(kind):
    # one slice and many: 3 x 40 keys, and 301 rows of 4609 keys
    for reps, times in ((np.arange(3)[:, None], np.arange(40)),
                        (np.arange(301)[:, None], np.arange(4609))):
        out = np.empty(np.broadcast_shapes(reps.shape, times.shape))
        got = law_values(kind, 11, reps, SERIES_BASE, times, out=out)
        assert got is out
        plain = law_values(kind, 11, reps, SERIES_BASE, times)
        assert np.array_equal(out.view(np.uint64), plain.view(np.uint64))


def test_raw_words_into_out_make_no_block_sized_temporary():
    # the GL_2 Monte Carlo table's step block: 96 steps of 680 replications
    reps, times = np.arange(680), np.arange(1, 97)[:, None]
    prefix = key_prefix(1, reps, SERIES_BASE)
    expected = raw_words(1, reps, SERIES_BASE, times)
    tracemalloc.start()
    try:
        out = np.empty((96, 680), dtype=np.uint64)
        raw_words(1, reps, SERIES_BASE, times, out=out, prefix=prefix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, expected)
    # beyond out, only numpy's ufunc buffers of the joining xor, one of at
    # most 8192 words for each broadcast key part; the xorshifts write into
    # the thread's scratch block, which the call above allocated
    assert peak < out.nbytes + 2 * 64 * 1024 + 4096


def test_raw_words_beyond_the_scratch_block_equal_split_calls():
    times = np.arange(KEY_BLOCK + 5)
    for sign_only in (False, True):
        whole = raw_words(3, 2, SERIES_BASE, times, sign_only=sign_only)
        parts = [raw_words(3, 2, SERIES_BASE, t, sign_only=sign_only)
                 for t in (times[:KEY_BLOCK], times[KEY_BLOCK:])]
        assert np.array_equal(whole, np.concatenate(parts))
