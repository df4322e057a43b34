"""Paired perfbench runs of a base revision against the working tree.

    python3 scripts/bench_compare.py --base HEAD~1 --seed 7 --out BENCH_7.json

The base revision is extracted with ``git archive`` into a temporary
directory, so the repository gains no worktree. For each workload that
BENCHMARK.json declares (or each one named by a repeated ``--workload
NAME``), ``perfbench/run.py --trace 0`` then runs on the
base and on the working tree in alternating order, ten times each, for
the ``run_seconds`` that BENCHMARK.json sets. Each run reports the
end-to-end metrics of BENCHMARK.json as medians over its experiments. The
output holds, per workload and metric, the runs of both sides, their
medians and quartiles, and the number of pairs in which the working tree
did better. One traced run per side also records perfbench's exact work
counts with that run's verdict; they agree only if both traced runs are
correct and every count is present and equal, and ``differ`` names the
counts whose values are not equal (a count missing on one side only
differs too). The same run's per-layer metrics (the ``per_layer`` list
of BENCHMARK.json, e.g. ``innovations.hash_s`` and each layer's
``self_s``) are kept beside the counts, so a file shows which layer a
change of ``run_s`` came from. The exit status is 0 only if every run of
the working tree is correct and every workload's counts agree.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import EXACT_COUNTS  # noqa: E402

# alternating pairs per workload: the fewest that can back a claimed gain
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                             capture_output=True).stdout
    # the archive is our own; the "data" filter (Python 3.10.12+/3.11.4+)
    # only guards against links leaving ``into``
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)


def perfbench(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One perfbench run; returns its result line with the detail line's
    machine, sample counts and failure ratio added."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "metrics": {},
                "problems": [proc.stderr[-2000:] or proc.stdout]}
    detail, line = json.loads(lines[-2]), json.loads(lines[-1])
    line.update(failed_ratio=detail["failed_ratio"],
                samples=detail.get("samples"), problems=detail["problems"],
                machine=detail["machine"], env=detail.get("env"))
    return line


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(workload, metrics, layers, base_dir, seed, seconds) -> dict:
    runs = {"base": [], "change": []}
    for i in range(PAIRS):
        # alternate which side goes first, so neither always runs warm
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            checkout = base_dir if side == "base" else ROOT
            runs[side].append(perfbench(checkout, workload, seed, seconds,
                                        0))
            m = runs[side][-1]["metrics"]
            print(f"{workload} pair {i + 1} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items()),
                  file=sys.stderr, flush=True)
    out = {"pairs": PAIRS,
           "correct": {side: all(r["correct"] for r in rs)
                       for side, rs in runs.items()},
           "failed_ratio": {side: max(r.get("failed_ratio", 1.0) for r in rs)
                            for side, rs in runs.items()},
           "problems": {side: [p for r in rs for p in r["problems"]]
                        for side, rs in runs.items()}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"].get(name, {}).get("value")
                         for r in rs] for side, rs in runs.items()}
        pairs = [(b, c) for b, c in zip(values["base"], values["change"])
                 if b is not None and c is not None]
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric.get("bound"), "wins": wins}
        for side, vs in values.items():
            vs = [v for v in vs if v is not None]
            if vs:
                out[name][side] = summary(vs)
    counts = {}
    for side, checkout in (("base", base_dir), ("change", ROOT)):
        traced = perfbench(checkout, workload, seed, seconds, 1)
        m = traced["metrics"]
        counts[side] = {
            "correct": traced["correct"], "problems": traced["problems"],
            **{k: m.get(k, {}).get("value") for k in EXACT_COUNTS},
            "per_layer": {k: m.get(k, {}).get("value") for k in layers}}
    values = {side: [c[k] for k in EXACT_COUNTS]
              for side, c in counts.items()}
    out["exact_counts"] = {
        **counts,
        "equal": (counts["base"]["correct"] and counts["change"]["correct"]
                  and None not in values["base"] + values["change"]
                  and values["base"] == values["change"]),
        "differ": [k for k in EXACT_COUNTS
                   if counts["base"][k] != counts["change"][k]]}
    out["machine"] = runs["change"][0].get("machine")
    out["env"] = runs["change"][0].get("env")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True,
                    help="revision to compare the working tree against")
    ap.add_argument("--seed", type=int, required=True,
                    help="perfbench seed of every run")
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this BENCHMARK.json workload; repeat "
                         "for several (default: all of them)")
    ap.add_argument("--out", help="JSON file to write (default: stdout)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(workloads))
        if unknown:
            ap.error(f"unknown workload(s) {unknown}; BENCHMARK.json "
                     f"declares {workloads}")
        workloads = [w for w in workloads if w in args.workload]
    result = {"base": git("rev-parse", args.base),
              "change": "working tree on " + git("rev-parse", "HEAD"),
              "command": " ".join(bench["command"]),
              "seed": args.seed, "seconds": bench["run_seconds"],
              "workloads": {}}
    scratch = tempfile.mkdtemp(prefix="bench-compare-")
    try:
        base_dir = os.path.join(scratch, "base")
        extract(args.base, base_dir)
        for workload in workloads:
            result["workloads"][workload] = compare(
                workload, bench["end_to_end"],
                [m["name"] for m in bench["per_layer"]], base_dir, args.seed,
                bench["run_seconds"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(w["correct"]["change"] and w["exact_counts"]["equal"]
                    for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
