"""Bit-level pins of the stateful path kernels.

Each case hashes the raw bytes of a small path, partial-sum or
autocovariance result.  The digests were recorded from the per-call-site
loops that the shared stepping kernels replaced, so any change to the
order of floating-point operations, to the innovation keys or to the
observable formulas shows up here.  The cases reach what the rate and
depcoef presets do not: single-replication paths, the d > 2 centering
pre-pass, the Monte Carlo autocovariance, the GL contraction surrogate,
every doubling observable and its m-projection.
"""

import hashlib

import numpy as np
import pytest

from weakdep.dependence import theta_gl_surrogate, theta_mc
from weakdep.processes import (
    DoublingModel,
    GLdWalkModel,
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
REPS = np.arange(5, 69)
OBSERVABLES = ("cos2pi", "centered-x", "indicator-half")


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
    }
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
        cases[f"doubling-{obs}-truncation"] = (
            lambda model=model: [truncation_error(model, J)
                                 for J in (0, 3, 17)])
        for tag, m in (("", model), ("-m4", proj)):
            cases[f"doubling-{obs}{tag}-theta"] = (
                lambda m=m: list(vars(theta_mc(m, 2, 2.0, R=1000,
                                               seed=3)).values()))
        cases[f"doubling-{obs}-m4-partial-sums"] = (
            lambda proj=proj: partial_sums(proj, 7, REPS, 40))
        cases[f"doubling-{obs}-m4-autocov-mc"] = (
            lambda proj=proj: autocovariance(
                proj, K=4, method="monte-carlo", R=64, seed=11).gamma)
    return cases


PINNED = {
    "doubling-centered-x-autocov-exact":
        "1c993f306ed49bfc745ad121b74cccfbb248db9867f6afd0675b0b6bb877cfad",
    "doubling-centered-x-m4-autocov-mc":
        "368fd62c164177361385c3b9dbb5403feb04bdd6a31d01a093eb647d1deb7acb",
    "doubling-centered-x-m4-partial-sums":
        "a1018346d139d2414ea715a914b2d4f9da253ae75e7c6a02a837d2ec6368cba7",
    "doubling-centered-x-m4-theta":
        "65d4c594c13aa49945850c649acf7ebc9b95058bf3bb575777279af2e1f7696b",
    "doubling-centered-x-partial-sums":
        "b0f3afeb970ae39dd1d6c46e3dccee32c1ef6014f002045c399a66cbfb876902",
    "doubling-centered-x-sample-path":
        "7277a46a31d9aecac069838c0f1ff99ae8e76bacef0094b295fc72475e16cf0a",
    "doubling-centered-x-theta":
        "2859ec4473736f6ea871ead7a50854797a74577bcec34fce5fe361b04587276b",
    "doubling-centered-x-truncation":
        "9995a5afcd20d73a6ad34359e8f7e85a670cdd3d810c6567f4e9d03b1b2986c4",
    "doubling-cos2pi-autocov-exact":
        "8478f61c256c74ff55ee19cdefd1ac01e744208ba8adf1f14d5880bc36a62ad0",
    "doubling-cos2pi-m4-autocov-mc":
        "6360dbd40f6d3cc46f1dc61a5543f179b6b5c262782db3930d60c91d41409708",
    "doubling-cos2pi-m4-partial-sums":
        "9c13090ed1e8bb8e34fa8818215eb7975f647b3256f7167772091f41ceedc8e3",
    "doubling-cos2pi-m4-theta":
        "4b1f46959e0e27a73b6b8c1c04218ba65314786bf19bcf35fdbcd71fd928497a",
    "doubling-cos2pi-partial-sums":
        "82a878095f04585504b38f62b5c9593a510b5ba6162773469609705c41735a53",
    "doubling-cos2pi-sample-path":
        "b0397d8fffaa36badac3e9fc0d18138d46e167da935e1a673e19fdd536204531",
    "doubling-cos2pi-theta":
        "ea2e71f7350bdfb6eaef24804396a7d3d73eabe206292705f99cee2bf91673ad",
    "doubling-cos2pi-truncation":
        "f3abf7c3f59bce89cf451333ba0652d9dffd598befd1dd199868cfa2c66319b1",
    "doubling-indicator-half-autocov-exact":
        "d8e739368cd58d9b9010aa8c3cfa2a288fee24ec515d319a29c0909d98fc969b",
    "doubling-indicator-half-m4-autocov-mc":
        "ba57a5e55263b50eecd67ea05b8645e719921b852ba12b7a28c5841d4f88f074",
    "doubling-indicator-half-m4-partial-sums":
        "309a2ecde63a65859421ba560843b88134f60f25b0a1b1c53d3b15ccbe38f25d",
    "doubling-indicator-half-m4-theta":
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    "doubling-indicator-half-partial-sums":
        "309a2ecde63a65859421ba560843b88134f60f25b0a1b1c53d3b15ccbe38f25d",
    "doubling-indicator-half-sample-path":
        "07f65c8dadcf1134722d95befe1ad8beb09cc08a9a60de72b68811c67a579504",
    "doubling-indicator-half-theta":
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    "doubling-indicator-half-truncation":
        "ad2ae117555646d520debfcfdb9c31732245174b5398cacd98c07983590c51d2",
    "gl-surrogate-k3":
        "b3dc35f911c504053e85618eb424b391788826375c28ad387b41fee60a26883f",
    "gl2-autocov-mc":
        "e9f5e038a8300e45fb6bbf05fa7ffa3390c8d54f0a11ccb8196006175d3095f0",
    "gl2-partial-sums":
        "c75e4b19e4a583e33f2dabaefcefa94d014bd52cc5df4d30544be6bef38118e3",
    "gl2-sample-path":
        "fe2e567ca117cdf9564f9a00cf3eb85c3124c9df016e4fec1f8786b5dbd0bdd6",
    "gl3-partial-sums":
        "515afb59e5fe99711c007e8d0fe6a1f82b9489b2c67f5367c75197e95458a386",
    "gl3-sample-path":
        "7e99921f0e733e4ec45b3522cb4ad484b94f85535cce6078057ed2a413abfa46",
}

CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_bytes(name):
    out = np.ascontiguousarray(CASES[name](), dtype=np.float64)
    assert hashlib.sha256(out.tobytes()).hexdigest() == PINNED[name]
