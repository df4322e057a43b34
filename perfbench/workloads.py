"""The benchmark's workloads: weakdep experiment configs derived from the
shipped presets (``weakdep.cli.PRESETS``), pinned here in full so that a
later edit to a preset cannot silently change what the benchmark runs.

Every workload runs with ``threads = 1``: on a small shared machine the
thread count adds scheduling noise to both time and memory, so parallelism
needs a workload of its own.
"""

from __future__ import annotations

import copy

# The workload-seed argument selects one of SEED_SLOTS master seeds. The
# reference digests in reference.json cover every slot, so every run can
# check its artifacts byte for byte.
SEED_BASE = 20260824
SEED_SLOTS = 16

# Layers whose spans a traced run must record for each workload.
RATE_LAYERS = ("cli", "rates", "bedistance", "variance", "processes",
               "innovations")

WORKLOADS: dict[str, dict] = {
    "doubling-rate": {
        "why": ("preset doubling-cos on a short grid; the exact-doubling "
                "quadrature in the variance oracle dominates, plus the "
                "per-step doubling register loop"),
        "layers": RATE_LAYERS,
        "config": {
            "model": {"variant": "doubling", "observable": "cos2pi"},
            "task": "rate",
            "params": {"n_grid": [64, 128, 256, 512], "R": 16384,
                       "normalization": "sqrt-n-ss2"},
        },
    },
    "gl2-rate": {
        "why": ("preset gl2-walk on a short grid; the stateful GL2 path "
                "kernel makes thousands of small per-step hash calls"),
        "layers": RATE_LAYERS,
        "config": {
            "model": {"variant": "gl-walk", "d": 2, "lambda_max": 1.0},
            "task": "rate",
            "params": {"n_grid": [64, 128, 256, 512], "R": 10000,
                       "normalization": "sqrt-n-ss2"},
        },
    },
    "cancel-rate": {
        "why": ("preset cancellation-beta-0.25 with a 4096-term scheme; "
                "bulk stateless hashing and the Rademacher transform, "
                "exact variance"),
        "layers": RATE_LAYERS,
        "config": {
            "model": {"variant": "linear", "law": "rademacher",
                      "scheme": {"variant": "difference", "kind": "power",
                                 "beta": 0.25, "length": 4096}},
            "task": "rate",
            "params": {"n_grid": [64, 128, 256, 512], "R": 20000,
                       "normalization": "sqrt-ESn2"},
        },
    },
    "holder-depcoef": {
        "why": ("preset holder-of-linear unchanged; the only workload of "
                "the dependence layer, with short coupled windows"),
        "layers": ("cli", "dependence", "innovations"),
        "config": {
            "model": {"variant": "holder", "law": "standard-gaussian",
                      "observable": "cos-shift", "beta": 1.0, "c": 1.0,
                      "scheme": {"variant": "geometric", "rho": 0.5,
                                 "length": 64}},
            "task": "depcoef",
            "params": {"p": 2.0, "l_grid": [1, 2, 4, 8, 16, 32],
                       "R": 20000},
        },
    },
}


def seed_slot(seed: int) -> int:
    """The master-seed slot a workload seed selects."""
    return seed % SEED_SLOTS


def experiment_config(workload: str, seed: int) -> dict:
    """The full weakdep config of one experiment of ``workload``."""
    doc = copy.deepcopy(WORKLOADS[workload]["config"])
    doc.update(name=workload, seed=SEED_BASE + seed_slot(seed), threads=1)
    return doc
