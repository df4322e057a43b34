"""Record the reference artifact digests in reference.json: one
experiment per workload and master-seed slot, at the current sources.

    python3 perfbench/record_reference.py [--workload NAME ...]

The digests pin weakdep's rule that every artifact is a pure function of
(config, seed). Re-record only when a change versions the outputs on
purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from run import HERE, WORK, spawn
from workloads import SEED_SLOTS, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                    default=sorted(WORKLOADS))
    args = ap.parse_args()
    path = os.path.join(HERE, "reference.json")
    doc = {"digests": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=WORK)
    try:
        for workload in args.workload:
            digests = {}
            for slot in range(SEED_SLOTS):
                r = spawn(workload, slot, scratch, time.monotonic() + 600)
                if "error" in r:
                    print(f"{workload} slot {slot}: {r['error']}",
                          file=sys.stderr)
                    return 1
                digests[str(slot)] = r["digest"]
                print(workload, slot, r["digest"], flush=True)
            doc["digests"][workload] = digests
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
