import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from coupling_reference import InnovationWindow, draw_window, evaluate
from scipy.special import roots_legendre
from scipy.stats import ks_2samp

import weakdep
from weakdep import innovations, processes
from weakdep._legendre200 import NODES, WEIGHTS
from weakdep.dependence import theta_gl_surrogate
from weakdep.errors import ModelMismatchError, PreconditionError
from weakdep.innovations import (
    KEY_BLOCK,
    get_law,
    law_values,
    raw_words,
)
from weakdep.processes import (
    DifferenceScheme,
    DoublingModel,
    ExplicitScheme,
    GeometricScheme,
    GLdWalkModel,
    HolderOfLinearModel,
    LinearModel,
    PowerLawScheme,
    identity_scheme,
    m_project,
    partial_sums,
    row_blocks,
    sample_path,
    truncation_error,
)
from weakdep.variance import autocovariance

GAUSS = get_law("standard-gaussian")


def _window_with(values, law=GAUSS, anchor=0):
    values = np.asarray(values, dtype=float)
    return InnovationWindow(seed=0, replication=0, law=law, anchor=anchor,
                            values=values,
                            primed=np.zeros(len(values), dtype=bool))


# --------------------------------------------------------------------------
# coefficient schemes
# --------------------------------------------------------------------------

def test_power_law_starts_at_zero():
    s = PowerLawScheme(a=1.3, length=64)
    assert s.coefficients[0] == 0.0
    assert s.coefficients[1] == 1.0
    assert s.coefficients[2] == pytest.approx(2.0 ** -1.3)


def test_difference_scheme_telescopes():
    s = DifferenceScheme(kind="power", beta=0.25, length=512)
    a = np.arange(1, 512, dtype=float) ** -0.25
    # alpha_1 = a_1, alpha_j = a_j - a_{j-1}: partial sums telescope to a_J
    assert np.cumsum(s.coefficients)[-1] == pytest.approx(a[-1])
    assert s.total_sum() == 0.0


def test_difference_scheme_log_kind():
    s = DifferenceScheme(kind="log", beta=0.25, length=64)
    assert np.all(np.isfinite(s.coefficients))
    assert s.coefficients[1] == pytest.approx(1.0 / np.log(2.0))


def test_geometric_tail():
    s = GeometricScheme(rho=0.5, length=128)
    assert s.tail_sumsq(10) == pytest.approx(4.0 ** -10 * (4.0 / 3.0))


# --------------------------------------------------------------------------
# evaluate
# --------------------------------------------------------------------------

def test_identity_scheme_reads_newest_entry():
    m = LinearModel(identity_scheme(), GAUSS)
    w = _window_with([0.7] + [0.0] * 7)
    assert evaluate(m, w) == pytest.approx(0.7)


def test_power_law_single_coefficient_readout():
    m = LinearModel(PowerLawScheme(a=1.3, length=8), GAUSS)
    vals = np.zeros(8)
    vals[2] = 1.0
    assert evaluate(m, _window_with(vals)) == pytest.approx(2.0 ** -1.3)


def test_doubling_all_zero_bits():
    m = DoublingModel("centered-x")
    w = _window_with(np.zeros(64), law=get_law("raw-bit"))
    assert evaluate(m, w) == pytest.approx(-0.5)


def test_evaluate_depth_and_law_checks():
    m = LinearModel(GeometricScheme(0.5, length=64), GAUSS)
    with pytest.raises(PreconditionError):
        evaluate(m, draw_window("standard-gaussian", 0, 0, 0, 8))
    with pytest.raises(ModelMismatchError):
        evaluate(m, draw_window("rademacher", 0, 0, 0, 64))


def test_linear_rejects_raw_bit():
    with pytest.raises(ModelMismatchError):
        LinearModel(identity_scheme(), get_law("raw-bit"))
    with pytest.raises(ModelMismatchError):
        HolderOfLinearModel(identity_scheme(), get_law("raw-bit"),
                            observable="cos-shift")


# --------------------------------------------------------------------------
# sample_path / partial_sums
# --------------------------------------------------------------------------

def test_identity_path_equals_innovations():
    m = LinearModel(identity_scheme(), GAUSS)
    path = sample_path(m, seed=4, replication=2, n=32)
    eps = law_values("standard-gaussian", 4, 2, 0, np.arange(1, 33))
    np.testing.assert_allclose(path, eps, rtol=0, atol=0)


def test_sample_path_deterministic():
    m = LinearModel(GeometricScheme(0.5, length=64), GAUSS)
    a = sample_path(m, 1, 0, 50)
    b = sample_path(m, 1, 0, 50)
    assert np.array_equal(a, b)


def test_path_matches_window_evaluation():
    m = LinearModel(GeometricScheme(0.5, length=32), GAUSS)
    path = sample_path(m, 3, 1, 10)
    w = draw_window("standard-gaussian", 3, 1, anchor=7, depth=32)
    assert path[6] == pytest.approx(evaluate(m, w), rel=1e-12)


def test_partial_sums_match_paths():
    m = LinearModel(GeometricScheme(0.5, length=64), GAUSS)
    s = partial_sums(m, 9, np.arange(6), 40)
    for r in range(6):
        assert s[r] == pytest.approx(sample_path(m, 9, r, 40).sum(), rel=1e-10)


# row lengths on each side of numpy's 8-value unroll, its 128-value leaf
# and its pairwise splits
ROW_SUM_NS = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 137, 255, 256,
              257, 512, 513, 1087)


@pytest.mark.parametrize("n", ROW_SUM_NS)
def test_row_sums_match_numpy_row_sum(n):
    rng = np.random.default_rng(n)
    # heavy tails over 16 decades: any other addition order shows
    m = rng.standard_cauchy((37, n)) * 10.0 ** rng.integers(-8, 9, (37, n))
    before = m.copy()
    got = processes._row_sums(iter(m.T), n)
    assert got.tobytes() == m.sum(axis=1).tobytes()
    assert np.array_equal(m, before)


@pytest.mark.parametrize("n", [5, 300])
def test_row_sums_of_negative_zeros_are_positive_zero(n):
    m = np.full((3, n), -0.0)
    got = processes._row_sums(iter(m.T), n)
    assert got.tobytes() == m.sum(axis=1).tobytes() == np.zeros(3).tobytes()


@pytest.mark.parametrize("n", [129, 520])
@pytest.mark.parametrize("observable", ["cos2pi", "centered-x",
                                        "indicator-half"])
def test_doubling_partial_sums_equal_path_row_sums(observable, n):
    reps = np.arange(5, 69)
    model = DoublingModel(observable)
    for m in (model, m_project(model, 4)):
        sums = partial_sums(m, 7, reps, n)
        assert sums.tobytes() == m.paths(7, reps, n).sum(axis=1).tobytes()


def test_doubling_partial_sums_build_no_path_matrix():
    tracemalloc.start()
    try:
        partial_sums(DoublingModel("cos2pi"), 0, np.arange(4096), 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a (reps, n) path matrix alone would take 32 MB
    assert peak < 8 * 2**20


def test_doubling_partial_sums_hash_presample_in_step_blocks():
    tracemalloc.start()
    try:
        partial_sums(DoublingModel("cos2pi"), 0, np.arange(16384), 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a one-call (64, reps) pre-sample and its shift temporary alone
    # would take 16 MB
    assert peak < 4 * 2**20


def test_doubling_lag1_autocovariance_vanishes():
    # the observable cos(2 pi x) is orthogonal to cos(4 pi x)
    m = DoublingModel("cos2pi")
    R = 100_000
    bits1 = law_values("raw-bit", 0, np.arange(R)[:, None], 0,
                       1 - np.arange(64))
    bits2 = law_values("raw-bit", 0, np.arange(R)[:, None], 0,
                       2 - np.arange(64))
    x1 = m.evaluate_values(bits1)
    x2 = m.evaluate_values(bits2)
    assert abs(np.mean(x1 * x2)) <= 5.0 / np.sqrt(R)


def test_gl_walk_path_finite_and_deterministic():
    m = GLdWalkModel(d=2, lambda_max=1.0)
    a = sample_path(m, 5, 0, 20)
    b = sample_path(m, 5, 0, 20)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_gl_walk_parameter_bounds():
    """At lambda_max = 354 the squared gains stay finite (at 355 they
    overflowed and the sums turned to NaN); past it, like a dimension
    outside [2, 64], the model is refused."""
    s = partial_sums(GLdWalkModel(lambda_max=354.0), 3, np.arange(4096), 64)
    assert np.all(np.isfinite(s))
    GLdWalkModel(d=64)
    for bad in (np.nextafter(354.0, np.inf), 400.0, np.nan, -1.0):
        with pytest.raises(PreconditionError, match="lambda_max"):
            GLdWalkModel(lambda_max=bad)
    for d in (1, 65):
        with pytest.raises(PreconditionError, match="dimension"):
            GLdWalkModel(d=d)


@pytest.mark.parametrize("d", [3, 5])
def test_gl_walk_from_e1_stays_in_the_plane(d):
    """The increments act on span(e1, e2) only, so from e1 the gains of a
    d > 2 walk are the GL_2 walk's bit for bit."""
    reps = np.arange(1000)
    for gain_d, gain_2 in zip(GLdWalkModel(d=d).log_gains(3, reps, 50),
                              GLdWalkModel(d=2).log_gains(3, reps, 50)):
        assert gain_d.tobytes() == gain_2.tobytes()


def test_gl2_quadrature_table_is_roots_legendre():
    # the table's literals were written from roots_legendre, and its
    # mirrored halves must still give the rule bit for bit
    x, w = roots_legendre(200)
    assert NODES.tobytes() == x.tobytes()
    assert WEIGHTS.tobytes() == w.tobytes()


def test_gl_walk_centering_near_zero_mean():
    m = GLdWalkModel(d=2, lambda_max=1.0)
    R = 2000
    s = partial_sums(m, 0, np.arange(R), 64)
    se = s.std(ddof=1) / np.sqrt(R)
    assert abs(s.mean()) <= 5 * se


def test_stationarity_two_sample_ks():
    m = LinearModel(GeometricScheme(0.5, length=64), GAUSS)
    R = 5000
    xk = np.array([sample_path(m, 2, r, 12)[5] for r in range(R)])
    xh = np.array([sample_path(m, 2, r, 12)[11] for r in range(R)])
    assert ks_2samp(xk, xh).pvalue > 0.001


def test_holder_centering_mean_zero():
    m = HolderOfLinearModel(GeometricScheme(0.5, length=64), GAUSS,
                            observable="abs-center", beta=1.0, c=1.0)
    R = 20000
    x = np.array(partial_sums(m, 1, np.arange(R), 1))
    se = x.std(ddof=1) / np.sqrt(R)
    assert abs(x.mean()) <= 5 * se


def test_holder_gaussian_cos_shift_center_analytic():
    m = HolderOfLinearModel(GeometricScheme(0.5, length=64), GAUSS,
                            observable="cos-shift", beta=1.0, c=1.0)
    sigma2 = float(np.sum(m.scheme.coefficients ** 2))
    expected = np.cos(1.0) * np.exp(-sigma2 / 2.0)
    assert m.center == pytest.approx(expected, rel=1e-12)


# --------------------------------------------------------------------------
# truncation error
# --------------------------------------------------------------------------

def test_truncation_error_geometric():
    m = LinearModel(GeometricScheme(0.5, length=128), GAUSS)
    assert truncation_error(m, 10) == pytest.approx(
        2.0 ** -10 * np.sqrt(4.0 / 3.0))


def test_truncation_error_power_law_vs_brute_force():
    m = LinearModel(PowerLawScheme(a=1.3, length=1 << 14), GAUSS)
    J = 10_000
    j = np.arange(J, 1_000_000, dtype=float)
    brute = np.sqrt(np.sum(j ** -2.6))
    assert truncation_error(m, J) == pytest.approx(brute, rel=0.01)


def test_truncation_error_doubling_lipschitz():
    m = DoublingModel("cos2pi")
    assert truncation_error(m, 64) == pytest.approx(2.0 * np.pi * 2.0 ** -64)


def test_truncation_error_gl_unsupported():
    with pytest.raises(ModelMismatchError):
        truncation_error(GLdWalkModel(d=2), 8)


# --------------------------------------------------------------------------
# m-projection
# --------------------------------------------------------------------------

def test_m_project_linear_identity_when_deep():
    m = LinearModel(GeometricScheme(0.5, length=16), GAUSS)
    assert m_project(m, 16) is m
    assert m_project(m, 100) is m


def test_m_project_linear_truncates():
    m = LinearModel(PowerLawScheme(a=1.3, length=64), GAUSS)
    proj = m_project(m, 5)
    expect = [0.0, 1.0, 2.0 ** -1.3, 3.0 ** -1.3, 4.0 ** -1.3]
    np.testing.assert_allclose(proj.scheme.coefficients, expect)


def test_m_project_doubling_closed_form():
    # depth-3 bits (1,0,1) newest-first represent x = 0.101_2 = 0.625;
    # integrating the uniform tail gives 0.625 + 2^{-3}/2 - 1/2 = 0.1875
    m = DoublingModel("centered-x")
    proj = m_project(m, 3)
    vals = np.array([1.0, 0.0, 1.0])
    got = proj.evaluate_values(vals)
    assert got == pytest.approx(0.1875)


def test_m_project_doubling_is_conditional_mean():
    # brute-force check: average the full observable over all tail-bit
    # configurations (truncated far beyond double precision is unnecessary;
    # 20 extra bits give 1e-6 accuracy)
    m = DoublingModel("cos2pi")
    proj = m_project(m, 4)
    head = np.array([1.0, 1.0, 0.0, 1.0])
    x_head = 0.5 + 0.25 + 0.0625
    u = (np.arange(4096) + 0.5) / 4096
    brute = np.mean(np.cos(2 * np.pi * (x_head + u / 16.0)))
    assert proj.evaluate_values(head) == pytest.approx(brute, abs=1e-6)


def test_m_project_gl_unsupported():
    with pytest.raises(ModelMismatchError):
        m_project(GLdWalkModel(d=2), 8)


def test_partial_sum_l2_growth_exponent():
    # || S_n ||_2 should grow like sqrt(n)
    m = LinearModel(GeometricScheme(0.5, length=64), get_law("rademacher"))
    ns = [64, 128, 256, 512, 1024]
    norms = []
    for i, n in enumerate(ns):
        s = partial_sums(m, 13, 4000 * i + np.arange(4000), n)
        norms.append(np.sqrt(np.mean(s ** 2)))
    slope = np.polyfit(np.log(ns), np.log(norms), 1)[0]
    assert abs(slope - 0.5) <= 0.1


# --------------------------------------------------------------------------
# hashing work of the stateful step loops
# --------------------------------------------------------------------------

@pytest.fixture
def hash_calls(monkeypatch):
    """(replications, words, channel) of every raw_words call that the
    step loops in processes make."""
    calls = []

    def counted(seed, replication, series, times, channel=0, **kwargs):
        words = raw_words(seed, replication, series, times, channel, **kwargs)
        calls.append((len(replication), words.size, channel))
        return words
    monkeypatch.setattr(processes, "raw_words", counted)
    return calls


def _chunks(R: int, row_len: int) -> list[int]:
    rows = max(1, processes._CHUNK_ELEMS // row_len)
    return [min(rows, R - i) for i in range(0, R, rows)]


def _block_count(n: int, nreps: int) -> int:
    """Step blocks of n steps over nreps replications."""
    return -(-n // max(1, KEY_BLOCK // nreps))


@pytest.mark.parametrize("R, n", [(5000, 100), (50_000, 40)])
def test_doubling_hashes_steps_in_blocks(hash_calls, R, n):
    partial_sums(DoublingModel("cos2pi"), 3, np.arange(R), n)
    assert sum(words for _, words, _ in hash_calls) == R * (n + 64)
    for chunk in _chunks(R, n + 64):
        mine = [c for c in hash_calls if c[0] == chunk]
        # the 64 pre-sample times and the n steps share one block sequence
        assert len(mine) == _block_count(n + 64, chunk)
        assert all(words <= max(KEY_BLOCK, chunk) for _, words, _ in mine)


@pytest.mark.parametrize("R, n", [(5000, 100), (20_000, 120)])
def test_gl_walk_hashes_steps_in_blocks(hash_calls, R, n):
    partial_sums(GLdWalkModel(d=2), 3, np.arange(R), n)
    assert sum(words for _, words, _ in hash_calls) == 2 * R * n
    for chunk in _chunks(R, 2 * n):
        for channel in (0, 1):
            mine = [c for c in hash_calls if c[0] == chunk
                    and c[2] == channel]
            assert len(mine) <= _block_count(n, chunk)


def test_gl_surrogate_hashes_exactly_k_steps(hash_calls):
    R, k = 3000, 23
    theta_gl_surrogate(GLdWalkModel(d=2), k, 2.0, R=R, seed=1)
    assert sum(words for _, words, _ in hash_calls) == 2 * R * k
    assert len(hash_calls) == 2 * _block_count(k, R)


def test_gl_mc_table_blocks_are_sized_by_the_lag_products(hash_calls):
    # the gl2-rate table: T = 96 lag products over 144 steps; only a
    # linear filter's blocks are sized by its law matrix row
    autocovariance(GLdWalkModel(d=2), K=48, method="monte-carlo", R=4096,
                   seed=11)
    blocks = list(row_blocks(4096, 96))
    assert [b - a for a, b in blocks] == [680] * 6 + [16]
    assert len(hash_calls) == 2 * sum(_block_count(144, b - a)
                                      for a, b in blocks) == 26


def test_linear_sums_derive_key_prefix_once_per_window(monkeypatch):
    words, states = [], []
    stream_state = innovations._stream_state

    def counted_words(*args, **kwargs):
        out = raw_words(*args, **kwargs)
        words.append(out.size)
        return out

    def counted_state(*args):
        states.append(args)
        return stream_state(*args)
    # the linear sums reach raw_words through law_values
    monkeypatch.setattr(processes, "raw_words", counted_words)
    monkeypatch.setattr(innovations, "raw_words", counted_words)
    monkeypatch.setattr(innovations, "_stream_state", counted_state)
    R, n, L = 2000, 128, 4096
    model = LinearModel(DifferenceScheme("power", 0.25, L),
                        get_law("rademacher"))
    partial_sums(model, 0, np.arange(R), n)
    T = L + n - 1
    # 8-row blocks per chunk, a lone tail row folded into the one before
    expected = []
    for rows in _chunks(R, T):
        blocks = [8] * (rows // 8) + ([rows % 8] if rows % 8 else [])
        if len(blocks) > 1 and blocks[-1] == 1:
            blocks[-2:] = [9]
        expected += [b * T for b in blocks]
    assert _chunks(R, T) == [993, 993, 14] and len(expected) == 250
    assert words == expected and sum(words) == R * T
    # one key prefix per window of at most KEY_BLOCK // 8 replications,
    # here one per chunk, not one per block
    assert len(states) == sum(-(-rows // (KEY_BLOCK // 8))
                              for rows in _chunks(R, T)) == 3


def test_linear_sums_hash_every_block_into_one_buffer(monkeypatch):
    buffers = []

    def recorded(*args, out=None, **kwargs):
        buffers.append(out.__array_interface__["data"][0])
        return law_values(*args, out=out, **kwargs)
    monkeypatch.setattr(processes, "law_values", recorded)
    model = LinearModel(DifferenceScheme("power", 0.25, 4096),
                        get_law("rademacher"))
    got = partial_sums(model, 0, np.arange(300), 64)
    monkeypatch.undo()
    assert np.array_equal(got, partial_sums(model, 0, np.arange(300), 64))
    # 38 blocks of 8 rows (the last of 4 rows), all in one buffer
    assert len(buffers) == 38 and len(set(buffers)) == 1


_BLAS_SUM = """
import hashlib
import numpy as np
from weakdep.innovations import get_law
from weakdep.processes import DifferenceScheme, LinearModel, partial_sums
model = LinearModel(DifferenceScheme("power", 0.25, 4096),
                    get_law("rademacher"))
sums = partial_sums(model, 7, np.arange(20000), 512)
print(hashlib.sha256(np.ascontiguousarray(sums).tobytes()).hexdigest())
"""


def test_linear_sums_independent_of_blas_threads():
    src = os.path.dirname(os.path.dirname(weakdep.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _BLAS_SUM], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _run_at_blas_threads(script: str, threads: str) -> str:
    """The stdout of ``script`` in a fresh interpreter with OpenBLAS on
    ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(weakdep.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


# a DifferenceScheme(power, 0.25, 4096) chunk at n = 128 holds 993 rows,
# 8 * 124 + 1, so its last block takes the lone row
_BLAS_RAGGED_SUMS = """
import hashlib
import numpy as np
from weakdep.innovations import get_law
from weakdep.processes import (DifferenceScheme, GeometricScheme,
                               LinearModel, partial_sums)
for scheme, n in ((DifferenceScheme("power", 0.25, 4096), 128),
                  (GeometricScheme(0.5, 128), 1024)):
    model = LinearModel(scheme, get_law("rademacher"))
    sums = partial_sums(model, 7, np.arange(20000), n)
    print(hashlib.sha256(sums.tobytes()).hexdigest())
"""


def test_linear_sums_on_ragged_chunks_independent_of_blas_threads():
    one, two = (_run_at_blas_threads(_BLAS_RAGGED_SUMS, t) for t in "12")
    assert one.count("\n") == 1
    assert one == two


# partial_sums against the whole-chunk gemv on one BLAS thread: each row
# count is one chunk, blocks of `height` rows with a 1..8-row tail, or 1
_BLOCKED_SUMS = """
import numpy as np
from weakdep.innovations import KEY_BLOCK, SERIES_BASE, get_law, law_values
from weakdep.processes import (DifferenceScheme, LinearModel,
                               identity_scheme, partial_sums)
differ = []
for law in ("rademacher", "standard-gaussian"):
    for L in (1, 3, 16, 512, 4096):
        scheme = (identity_scheme() if L == 1
                  else DifferenceScheme("power", 0.25, L))
        model = LinearModel(scheme, get_law(law))
        for n in (1, 64, 127, 128, 512):
            times = np.arange(2 - L, n + 1)
            w = scheme.sum_weights(1, n, times)
            height = 8 * max(1, KEY_BLOCK // (8 * len(times)))
            for rows in [1] + [2 * height + t for t in range(1, 9)]:
                reps = 5 + np.arange(rows)
                whole = law_values(law, 3, reps[:, None], SERIES_BASE,
                                   times) @ w
                sums = partial_sums(model, 3, reps, n)
                if sums.tobytes() != whole.tobytes():
                    differ.append((law, L, n, rows))
# the Hoelder centering pre-pass: one 2^17-row chunk, in whole blocks at
# L = 64 and with a 176-row tail at L = 100
from weakdep.innovations import SERIES_AUX
from weakdep.processes import (_CENTER_REPS, _CENTER_SEED, _CH_CENTER,
                               _HOLDER_OBSERVABLES, GeometricScheme,
                               HolderOfLinearModel, PowerLawScheme)
for scheme, law, obs in ((GeometricScheme(0.5, 64), "rademacher",
                          "abs-center"),
                         (PowerLawScheme(1.3, 100), "standard-gaussian",
                          "cube-clip")):
    model = HolderOfLinearModel(scheme, get_law(law), observable=obs,
                                beta=0.5)
    y = law_values(law, _CENTER_SEED, np.arange(_CENTER_REPS)[:, None],
                   SERIES_AUX, -np.arange(scheme.length),
                   channel=_CH_CENTER) @ scheme.coefficients
    whole = float(np.mean(_HOLDER_OBSERVABLES[obs](model.c, model.beta, y)))
    if model.center.hex() != whole.hex():
        differ.append((law, obs, scheme.length))
print(differ)
"""


@pytest.mark.parametrize("row_len", [1, 64, 404, 4607, 70_000])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 9, 1000, 1025, 2049, 20_000])
def test_row_blocks_partition_rows_at_multiples_of_8(n_rows, row_len):
    blocks = list(row_blocks(n_rows, row_len))
    height = 8 * max(1, KEY_BLOCK // (8 * row_len))
    assert [a for a, _ in blocks] == list(range(0, n_rows, height))[
        :len(blocks)]
    assert [b for _, b in blocks[:-1]] == [a for a, _ in blocks[1:]]
    assert (blocks[-1][1] if blocks else 0) == n_rows
    # a lone tail row joins the block before it
    assert all(b - a > 1 for a, b in blocks[1:])
    assert all(b - a <= height + 1 for a, b in blocks)


def test_linear_sums_equal_whole_chunk_gemv_bits():
    assert _run_at_blas_threads(_BLOCKED_SUMS, "1") == "[]"


def test_linear_sums_build_no_law_matrix():
    model = LinearModel(DifferenceScheme("power", 0.25, 4096),
                        get_law("rademacher"))
    tracemalloc.start()
    try:
        sums = partial_sums(model, 0, np.arange(2000), 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 910-row chunk's law matrix alone would take 32 MB
    assert peak - sums.nbytes < 2 * 2**20


def test_holder_centering_builds_no_law_matrix():
    model = HolderOfLinearModel(GeometricScheme(0.5, 64),
                                get_law("rademacher"),
                                observable="abs-center", beta=0.5)
    tracemalloc.start()
    try:
        model.center
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (2^17, 64) law matrix alone would take 64 MB
    assert peak < 4 * 2**20


# the other BLAS products of linear filters: the truncated windows of
# theta_mc (evaluate_values) and the Hoelder centering pre-pass
_BLAS_OTHER_PRODUCTS = """
import numpy as np
from weakdep.dependence import theta_mc
from weakdep.innovations import get_law
from weakdep.processes import (DifferenceScheme, GeometricScheme,
                               HolderOfLinearModel, LinearModel)
model = LinearModel(DifferenceScheme("power", 0.25, 4096),
                    get_law("rademacher"))
for l in (1, 8, 32, 100):
    print(theta_mc(model, l, 2.0, R=20000))
gauss = get_law("standard-gaussian")
print(HolderOfLinearModel(GeometricScheme(0.5, 64), gauss,
                          observable="abs-center", beta=0.5).center.hex())
print(HolderOfLinearModel(DifferenceScheme("power", 0.25, 512), gauss,
                          observable="cube-clip").center.hex())
"""


def test_linear_filter_products_independent_of_blas_threads():
    one, two = (_run_at_blas_threads(_BLAS_OTHER_PRODUCTS, t) for t in "12")
    assert one.count("\n") == 5
    assert one == two
