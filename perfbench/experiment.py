"""One benchmark experiment, run in a fresh interpreter by run.py.

It imports weakdep from the checkout's ``src``, builds the workload's
config (parse, validate, model build), optionally installs the tracer,
calls ``weakdep.cli.run_config`` once and writes a JSON result: the time
at which ``run_config`` was entered (for set-up time), the wall time of
the call, the process's peak resident memory, the SHA-256 of its
artifacts and, when traced, the per-function span summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def artifact_digest(out_dir: str) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every artifact except the
    manifest, whose start/finish timestamps change on every run; also the
    artifacts' total size."""
    names = sorted(n for n in os.listdir(out_dir)
                   if not n.endswith("-manifest.json"))
    h = hashlib.sha256()
    size = 0
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "blas_threads_env": {k: os.environ[k] for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")
                                 if k in os.environ}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import weakdep.cli as cli
    from workloads import experiment_config

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"weakdep imported from {cli.__file__}, not {SRC}")
    cfg = cli.ExperimentConfig.from_dict(
        experiment_config(args.workload, args.seed))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        bindings = tracer.install()
    entered = time.monotonic()
    result = {"entered": entered}
    if not args.setup_only:
        cli.run_config(cfg, out_dir=args.out)
        result["run_s"] = time.monotonic() - entered
        digest, size = artifact_digest(args.out)
        result.update(digest=digest, bytes_written=size)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    result["env"] = environment()
    if tracer is not None:
        result["trace"] = dict(tracer.summary(), bindings=bindings)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
