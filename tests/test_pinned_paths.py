"""Bit-level pins of the stateful path kernels.

Each case hashes the raw bytes of a small path, partial-sum or
autocovariance result.  The digests were recorded from the per-call-site
loops that the shared stepping kernels replaced, so any change to the
order of floating-point operations, to the innovation keys or to the
observable formulas shows up here.  The cases reach what the rate and
depcoef presets do not: single-replication paths, the d > 2 centering
pre-pass, the Monte Carlo autocovariance, the GL contraction surrogate,
every doubling observable and its m-projection.

The wide cases cross the innovation layer's key blocks: a linear sum
whose innovation matrix spans several law blocks and ends on a partial
one, a Monte Carlo Hoelder centering pre-pass, and doubling and GL_2 step
loops over enough replications that the steps are hashed in several
blocks, the last one partial.  Their digests were recorded when every
chunk was hashed in one call and every step in a call of its own.

The wide theta cases cross the row blocks of the coupled windows: the
holder-depcoef preset's model at 2049 replications, and a 4096-term
scheme cut to 404-deep windows at lag 100, whose last block is ragged.
Their digests were recorded when each window was built as one
(replications x depth) matrix.

The long-row doubling cases sum rows of 129 and 520 values, past one
128-value leaf of numpy's pairwise row sum, for every observable and its
m = 4 projection.  Their digests were recorded when S_n was the row sum
of the doubling path matrix.

The K = 18 exact-doubling tables reach levels of 2^17 and 2^18 cells, so
the quadrature runs over more than one 2^16-cell chunk and many row
blocks inside each.  Their digests were recorded when each chunk was
evaluated as one (cells x nodes) array, and when the library integrated
every table at run time; it now reads the observables' tables off
``weakdep._doubling_gamma``.  The m-projections have no exact route;
their Monte Carlo tables are pinned at m = 4.

The law cases pin each innovation law on its own: ``law_values`` over a
(301, 4609) key block, which takes 22 key blocks, the last one partial,
and ``sample`` on the edge words 0, 1, 2^63 - 1, 2^63 and 2^64 - 1.
Their digests were recorded when every block was hashed into a fresh
array and transformed into another.

The step-block doubling cases hash the register pre-sample and the steps
in blocks whose edges fall inside the pre-sample, at its last bit and
among the steps: 3000 replications take 21 steps per block, so the
64-bit register's pre-sample ends inside a block of steps 1..20 and an
m = 5 projection's 5-bit pre-sample shares its block with steps 1..16;
33,000 replications take one step per block, and a single replication
hashes its whole pre-sample and 200 steps in one block.  The wide GL_2 Monte Carlo
table reads 2049 replications of its 64-step products in a 1024-row
block and a 1025-row one with the lone tail row.  Their digests were
recorded when the pre-sample was hashed in one call of its own and each
lag's products were one (replications x steps) matrix.

The r2049 Monte Carlo tables of the d = 3 walk, the abs-center Hoelder
model (paths from ``fftconvolve``) and the cos2pi doubling map span the
same two row blocks, and the K = 48, R = 4096 GL_2 table is the one the
gl2-rate benchmark's long-run variance reads.  Their digests were recorded
when ``_mc_gamma`` built the whole (replications x steps) path matrix and
the GL step kernel made fresh temporaries every step.

The lambda_max cases run the GL_2 walk with lam uniform on [-0.25, 0.25]
and on [-2, 2], where every other GL case draws it on [-1, 1], over the
wide replications and in the contraction surrogate.  Their digests were
recorded when phi and lam were scaled from [0, 1) in passes of their own
and the step's norm was an einsum over a transposed copy of the direction.
"""

import hashlib

import numpy as np
import pytest

from weakdep.dependence import theta_gl_surrogate, theta_mc
from weakdep.innovations import LAWS, SERIES_BASE, get_law, law_values
from weakdep.processes import (
    DifferenceScheme,
    DoublingModel,
    GeometricScheme,
    GLdWalkModel,
    HolderOfLinearModel,
    LinearModel,
    m_project,
    partial_sums,
    sample_path,
    truncation_error,
)
from weakdep.variance import autocovariance

GL2 = GLdWalkModel(d=2)
# a short burn-in and few centering replications keep the d = 3 pre-pass
# cheap while still running it
GL3 = GLdWalkModel(d=3, burn_in=16, center_reps=1024)
# every other GL pin draws lam on [-1, 1]; these scale it by lambda_max
GL2_LAMBDA = {"0.25": GLdWalkModel(d=2, lambda_max=0.25),
              "2": GLdWalkModel(d=2, lambda_max=2.0)}
REPS = np.arange(5, 69)
OBSERVABLES = ("cos2pi", "centered-x", "indicator-half")
# 4096 replications leave room for 16 steps per key block, so 40 steps
# take three blocks
WIDE_REPS = np.arange(3, 4099)
# a 575-wide innovation row: 300 replications take three law blocks
CANCEL = LinearModel(DifferenceScheme("power", 0.25, 512),
                     get_law("rademacher"))
# abs-center has no closed-form centering, so a 2^17 x 64 Monte Carlo
# pre-pass runs first
HOLDER = HolderOfLinearModel(GeometricScheme(0.5, 64),
                             get_law("standard-gaussian"),
                             observable="abs-center", beta=0.5)
# the holder-depcoef preset's model: 2049 replications of its 64-deep
# windows take a 1024-row block and a 1025-row one with the lone tail row
HOLDER_COS = HolderOfLinearModel(GeometricScheme(0.5, 64),
                                 get_law("standard-gaussian"))
# at l = 100 a 4096-term scheme is cut to 404-deep windows: 1000
# replications take six 160-row blocks and a 40-row tail
CANCEL_4096 = LinearModel(DifferenceScheme("power", 0.25, 4096),
                          get_law("rademacher"))
# rows past one 128-value leaf of numpy's pairwise sum: one split, and
# two levels of splits with a ragged last leaf
LONG_ROWS = (129, 520)
# 21 steps per key block: the pre-sample's last bit opens the block of
# steps 1..20 (one step per block at 33,000)
R21_REPS = np.arange(3000)
ONE_STEP_REPS = np.arange(33_000)
EDGE_WORDS = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)


def _theta(model, l, R=1000):
    """The four numbers of a theta_mc entry, without its lag, in the order
    their digests were recorded."""
    e = theta_mc(model, l, 2.0, R=R, seed=3)
    return [e.theta_prime, e.theta_star, e.se_prime, e.se_star]


def _table(table):
    """An autocovariance table's gamma followed by its standard errors."""
    return np.concatenate([table.gamma, table.stderr])


def _cases():
    cases = {
        "gl2-sample-path": lambda: sample_path(GL2, 7, 3, 40),
        "gl2-partial-sums": lambda: partial_sums(GL2, 7, REPS, 40),
        "gl3-sample-path": lambda: sample_path(GL3, 7, 3, 40),
        "gl3-partial-sums": lambda: partial_sums(GL3, 7, REPS, 40),
        "gl2-autocov-mc": lambda: autocovariance(
            GL2, K=4, method="monte-carlo", R=64, seed=11).gamma,
        "gl-surrogate-k3": lambda: np.array(
            theta_gl_surrogate(GL2, 3, 2.0, R=500, seed=2)),
        "cancel-partial-sums-wide": lambda: partial_sums(
            CANCEL, 7, np.arange(300), 64),
        "holder-abs-theta-depth64": lambda: _theta(HOLDER, 5),
        "holder-cos-theta-r2049-l1": lambda: _theta(HOLDER_COS, 1, R=2049),
        "holder-cos-theta-r2049-l32": lambda: _theta(HOLDER_COS, 32, R=2049),
        "cancel4096-theta-l100": lambda: _theta(CANCEL_4096, 100),
        "doubling-cos2pi-partial-sums-wide": lambda: partial_sums(
            DoublingModel("cos2pi"), 7, WIDE_REPS, 40),
        "gl2-partial-sums-wide": lambda: partial_sums(GL2, 7, WIDE_REPS, 40),
        "gl-surrogate-k21-wide": lambda: np.array(
            theta_gl_surrogate(GL2, 21, 2.0, R=4096, seed=2)),
        "gl-surrogate-lmax2-k3": lambda: np.array(
            theta_gl_surrogate(GL2_LAMBDA["2"], 3, 2.0, R=500, seed=2)),
        "gl2-autocov-mc-r2049": lambda: _table(autocovariance(
            GL2, K=4, method="monte-carlo", R=2049, seed=11)),
        "doubling-cos2pi-partial-sums-one-step-blocks": lambda: partial_sums(
            DoublingModel("cos2pi"), 7, ONE_STEP_REPS, 10),
        "gl2-autocov-mc-k48-r4096": lambda: _table(autocovariance(
            GL2, K=48, method="monte-carlo", R=4096, seed=11)),
    }
    for lmax, model in GL2_LAMBDA.items():
        cases[f"gl2-lmax{lmax}-partial-sums-wide"] = (
            lambda model=model: partial_sums(model, 7, WIDE_REPS, 40))
    for name, model in (("gl3", GL3), ("holder-abs", HOLDER),
                        ("doubling-cos2pi", DoublingModel("cos2pi"))):
        cases[f"{name}-autocov-mc-r2049"] = (
            lambda model=model: _table(autocovariance(
                model, K=4, method="monte-carlo", R=2049, seed=11)))
    for tag, m in (("", DoublingModel("cos2pi")),
                   ("-m5", m_project(DoublingModel("cos2pi"), 5))):
        cases[f"doubling-cos2pi{tag}-partial-sums-r3000"] = (
            lambda m=m: partial_sums(m, 7, R21_REPS, 50))
        cases[f"doubling-cos2pi{tag}-paths-r3000"] = (
            lambda m=m: m.paths(7, R21_REPS, 50))
        cases[f"doubling-cos2pi{tag}-sample-path-n200"] = (
            lambda m=m: sample_path(m, 7, 3, 200))
    for obs in OBSERVABLES:
        model = DoublingModel(obs)
        proj = m_project(model, 4)
        cases[f"doubling-{obs}-partial-sums"] = (
            lambda model=model: partial_sums(model, 7, REPS, 40))
        cases[f"doubling-{obs}-sample-path"] = (
            lambda model=model: sample_path(model, 7, 3, 40))
        cases[f"doubling-{obs}-autocov-exact"] = (
            lambda model=model: autocovariance(
                model, K=6, method="exact-doubling").gamma)
        cases[f"doubling-{obs}-autocov-exact-k18"] = (
            lambda model=model: autocovariance(
                model, K=18, method="exact-doubling").gamma)
        cases[f"doubling-{obs}-truncation"] = (
            lambda model=model: [truncation_error(model, J)
                                 for J in (0, 3, 17)])
        for tag, m in (("", model), ("-m4", proj)):
            cases[f"doubling-{obs}{tag}-theta"] = (
                lambda m=m: _theta(m, 2))
        cases[f"doubling-{obs}-m4-partial-sums"] = (
            lambda proj=proj: partial_sums(proj, 7, REPS, 40))
        for n in LONG_ROWS:
            for tag, m in (("", model), ("-m4", proj)):
                cases[f"doubling-{obs}{tag}-partial-sums-n{n}"] = (
                    lambda m=m, n=n: partial_sums(m, 7, REPS, n))
        cases[f"doubling-{obs}-m4-autocov-mc"] = (
            lambda proj=proj: autocovariance(
                proj, K=4, method="monte-carlo", R=64, seed=11).gamma)
    for kind in LAWS:
        cases[f"law-{kind}-values"] = (
            lambda kind=kind: law_values(kind, 11, np.arange(301)[:, None],
                                         SERIES_BASE, np.arange(4609)))
        cases[f"law-{kind}-edge-words"] = (
            lambda kind=kind: get_law(kind).sample(EDGE_WORDS))
    return cases


PINNED = {
    "cancel-partial-sums-wide":
        "ba8f89d684d6745c71a90a51d4237e26bf105f72b896f42620b362818a4097c1",
    "cancel4096-theta-l100":
        "3bd90ec2ca66278016197331a96431621be0cf325ceb0f9f4e73e879358cf312",
    "doubling-centered-x-autocov-exact":
        "1c993f306ed49bfc745ad121b74cccfbb248db9867f6afd0675b0b6bb877cfad",
    "doubling-centered-x-autocov-exact-k18":
        "003e37d3294287e202e97f6c19731cbb8a769ec5e57d74c3d3495e5a75c86f4b",
    "doubling-centered-x-m4-autocov-mc":
        "368fd62c164177361385c3b9dbb5403feb04bdd6a31d01a093eb647d1deb7acb",
    "doubling-centered-x-m4-partial-sums":
        "a1018346d139d2414ea715a914b2d4f9da253ae75e7c6a02a837d2ec6368cba7",
    "doubling-centered-x-m4-partial-sums-n129":
        "8ccfb3fc2486f83abbc0039487128b993283f1bb9a8ba52fccd4764ab3344733",
    "doubling-centered-x-m4-partial-sums-n520":
        "f79cb380f4f2860045cda48f749770c6a90f43756e70b629088d3fefcaf8d520",
    "doubling-centered-x-m4-theta":
        "65d4c594c13aa49945850c649acf7ebc9b95058bf3bb575777279af2e1f7696b",
    "doubling-centered-x-partial-sums":
        "b0f3afeb970ae39dd1d6c46e3dccee32c1ef6014f002045c399a66cbfb876902",
    "doubling-centered-x-partial-sums-n129":
        "d7a899a4a080d99858cb639180520453dfc8e3563e7da5a2542e5f0a889e3725",
    "doubling-centered-x-partial-sums-n520":
        "ad44fb3ab8f8e4b5942b5f18ae9346cf38d600672efba035f4dee6efa9af503d",
    "doubling-centered-x-sample-path":
        "7277a46a31d9aecac069838c0f1ff99ae8e76bacef0094b295fc72475e16cf0a",
    "doubling-centered-x-theta":
        "2859ec4473736f6ea871ead7a50854797a74577bcec34fce5fe361b04587276b",
    "doubling-centered-x-truncation":
        "9995a5afcd20d73a6ad34359e8f7e85a670cdd3d810c6567f4e9d03b1b2986c4",
    "doubling-cos2pi-autocov-exact":
        "8478f61c256c74ff55ee19cdefd1ac01e744208ba8adf1f14d5880bc36a62ad0",
    "doubling-cos2pi-autocov-exact-k18":
        "085486c423adb22f4cec04f5da7aaa675e0ed41192f24301f74cb56dc19cec4b",
    "doubling-cos2pi-autocov-mc-r2049":
        "652bc8f2b009356cc7313f2baf52480655aec3c5a1a4cbd34cb519a97c547719",
    "doubling-cos2pi-m4-autocov-mc":
        "6360dbd40f6d3cc46f1dc61a5543f179b6b5c262782db3930d60c91d41409708",
    "doubling-cos2pi-m4-partial-sums":
        "9c13090ed1e8bb8e34fa8818215eb7975f647b3256f7167772091f41ceedc8e3",
    "doubling-cos2pi-m4-partial-sums-n129":
        "a77062450625c7a17eed66b42989725609058fab83f1361e8df72a82b47c1e38",
    "doubling-cos2pi-m4-partial-sums-n520":
        "059f95d0a18ef0569d0f2c7fb159680c028b54d6b5e129a05bb0cd53fac5dc36",
    "doubling-cos2pi-m4-theta":
        "4b1f46959e0e27a73b6b8c1c04218ba65314786bf19bcf35fdbcd71fd928497a",
    "doubling-cos2pi-m5-partial-sums-r3000":
        "4d4f7b289ca7ec2bb9d04bf20324d911cf413b4444c5f2a0851d34125355aef9",
    "doubling-cos2pi-m5-paths-r3000":
        "db89eefaadf5f435f514b9d45df856fad8be102a44b402df5b2265cb8324cfbe",
    "doubling-cos2pi-m5-sample-path-n200":
        "5685d244cdfd64706d783ac07409540134d50ff44aa84c4eb8eecc5797780970",
    "doubling-cos2pi-partial-sums":
        "82a878095f04585504b38f62b5c9593a510b5ba6162773469609705c41735a53",
    "doubling-cos2pi-partial-sums-n129":
        "785b389f674964c9db312261573d75ddb16ba7192d3d2c1887769347dfc92f06",
    "doubling-cos2pi-partial-sums-n520":
        "2bfcde4f5efd5879c2ffc5835cfeb78dc207c6300068235d6e5c37fbb220c1f1",
    "doubling-cos2pi-partial-sums-one-step-blocks":
        "894e865825c3fe47864e21648e3f6de74b841d7daea6d6538aeb06478c59a9c8",
    "doubling-cos2pi-partial-sums-r3000":
        "c1db17d01af8c7b502d2d788dca14c6bfc28f099a9c2e8560690da58a5012467",
    "doubling-cos2pi-partial-sums-wide":
        "ea9fa85b49a095da4282c54efffe584cf3d84f93d86a8ab843fa83b96afa6036",
    "doubling-cos2pi-paths-r3000":
        "71cc1c574aa8c636e9a418c21dab7e5e5bc1e43c9eed0884e2d44459f0ac12f3",
    "doubling-cos2pi-sample-path":
        "b0397d8fffaa36badac3e9fc0d18138d46e167da935e1a673e19fdd536204531",
    "doubling-cos2pi-sample-path-n200":
        "4ec2a8b2638c20df75de4abdbc0a15576bdada508103238ae5916bc81da1de44",
    "doubling-cos2pi-theta":
        "ea2e71f7350bdfb6eaef24804396a7d3d73eabe206292705f99cee2bf91673ad",
    "doubling-cos2pi-truncation":
        "f3abf7c3f59bce89cf451333ba0652d9dffd598befd1dd199868cfa2c66319b1",
    "doubling-indicator-half-autocov-exact":
        "d8e739368cd58d9b9010aa8c3cfa2a288fee24ec515d319a29c0909d98fc969b",
    "doubling-indicator-half-autocov-exact-k18":
        "4f5d43816c88a30e5004fcd67e360688822b19c254600265555ed332f205da50",
    "doubling-indicator-half-m4-autocov-mc":
        "ba57a5e55263b50eecd67ea05b8645e719921b852ba12b7a28c5841d4f88f074",
    "doubling-indicator-half-m4-partial-sums":
        "309a2ecde63a65859421ba560843b88134f60f25b0a1b1c53d3b15ccbe38f25d",
    "doubling-indicator-half-m4-partial-sums-n129":
        "26c142970f191d1f2a88c0ce0ab99533a04406e69c2e83b6b57053ea1786b66c",
    "doubling-indicator-half-m4-partial-sums-n520":
        "4fe78a00e9af8044f73ae1e08f5d3625fa783198ea3bbd2be9ab7fe44d7196ca",
    "doubling-indicator-half-m4-theta":
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    "doubling-indicator-half-partial-sums":
        "309a2ecde63a65859421ba560843b88134f60f25b0a1b1c53d3b15ccbe38f25d",
    "doubling-indicator-half-partial-sums-n129":
        "26c142970f191d1f2a88c0ce0ab99533a04406e69c2e83b6b57053ea1786b66c",
    "doubling-indicator-half-partial-sums-n520":
        "4fe78a00e9af8044f73ae1e08f5d3625fa783198ea3bbd2be9ab7fe44d7196ca",
    "doubling-indicator-half-sample-path":
        "07f65c8dadcf1134722d95befe1ad8beb09cc08a9a60de72b68811c67a579504",
    "doubling-indicator-half-theta":
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    "doubling-indicator-half-truncation":
        "ad2ae117555646d520debfcfdb9c31732245174b5398cacd98c07983590c51d2",
    "gl-surrogate-k21-wide":
        "d537bbf3f51058fdcef674b7327424cf4105195badc3c387b72ac73e1e16c962",
    "gl-surrogate-lmax2-k3":
        "242bbc822f4559075036004c215cab352556b173e0f1dbffea705bbd79551c23",
    "gl-surrogate-k3":
        "b3dc35f911c504053e85618eb424b391788826375c28ad387b41fee60a26883f",
    "gl2-autocov-mc":
        "e9f5e038a8300e45fb6bbf05fa7ffa3390c8d54f0a11ccb8196006175d3095f0",
    "gl2-autocov-mc-k48-r4096":
        "32dc4b6f2c6aae5e428f3a111b1441f73ba603be21aa742c810e49c828c2fec6",
    "gl2-autocov-mc-r2049":
        "b8db8f71bbe8d858c4ee58faada666333c473e5a84e6489985a7f5661e7f8d62",
    "gl2-lmax0.25-partial-sums-wide":
        "b6332b2c97a3bf083df7545ccdd1428278862545d0544295aa74af2199cb3801",
    "gl2-lmax2-partial-sums-wide":
        "eb1fa85e7eb6098c6399b7eac697378b27cc4416c7065a396078420809d4183f",
    "gl2-partial-sums":
        "c75e4b19e4a583e33f2dabaefcefa94d014bd52cc5df4d30544be6bef38118e3",
    "gl2-partial-sums-wide":
        "cc6798acf703e5e6dfdd53fe26e2ca6952a72ae3fe4666fe4238042fd5d3be39",
    "gl2-sample-path":
        "fe2e567ca117cdf9564f9a00cf3eb85c3124c9df016e4fec1f8786b5dbd0bdd6",
    "gl3-autocov-mc-r2049":
        "b3ec5fcf4c99188a6ee4c628ec3e816e7a55ec673e90b45c96458d1101249472",
    "gl3-partial-sums":
        "515afb59e5fe99711c007e8d0fe6a1f82b9489b2c67f5367c75197e95458a386",
    "gl3-sample-path":
        "7e99921f0e733e4ec45b3522cb4ad484b94f85535cce6078057ed2a413abfa46",
    "holder-abs-autocov-mc-r2049":
        "af2e9229b31508c2e1096be3ad7af26f2b56f1537374ddaf6038b242b2e5f6fd",
    "holder-abs-theta-depth64":
        "0683ed7f110977a4707c057d10005fc2ab3eff2f2751d41ac3e9a765e8eb2c1d",
    "holder-cos-theta-r2049-l1":
        "dbcc8e313e6845869aa9489eba672a5fd1f42a3015e60f97ebe9c64c20538da7",
    "holder-cos-theta-r2049-l32":
        "759d4d911e8ce4a585869546c6fa0691536dfe3489855c9fadee008efd398ea4",
    "law-centered-uniform-edge-words":
        "b97f1d7aa8beba623c197cc4306dccea34efbc672fc6a133c6a2df1e07100a67",
    "law-centered-uniform-values":
        "f9a9a24616953276f559e02ac3f3d32a57cfae63cd1ce772cf78bd1eed86d8b9",
    "law-rademacher-edge-words":
        "d0f32439d4b1cddcb2025af460f0d26bc927c8368ff2f5ca12e000a5c60f3fec",
    "law-rademacher-values":
        "05d5fc1196c9dcd0cb8a88a31dd9f8510154df427094df37ecbfece1e3b7ae06",
    "law-raw-bit-edge-words":
        "148f24cdcea79e3e56f81f3a3cdd6d84a73286a1edd3a1e39b3c078619a706a3",
    "law-raw-bit-values":
        "6c306ff0216dc72a1f72bf3a6f9f8960040f89dbd88921c0994524c456a0d4f8",
    "law-standard-gaussian-edge-words":
        "56f5a10b1a3f5fb10294f318063f238c7f88f11fb7e0427b661746365a169c4a",
    "law-standard-gaussian-values":
        "79e6700d5b24216aa7630c2a4c63ff5d1aad05a3a8589abdde86449522168fe0",
}

CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_bytes(name):
    out = np.ascontiguousarray(CASES[name](), dtype=np.float64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED[name]
