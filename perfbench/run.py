"""weakdep benchmark: time-to-result of preset-derived experiments.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py [--seed <n>] [--seconds <s>]      # every workload, both modes

Each experiment is one ``weakdep.cli.run_config`` call in a fresh
interpreter, as ``weakdep run`` pays for it. Experiments repeat until
``--seconds`` have passed; every one re-runs the workload's config at the
master seed that ``--seed`` selects (see workloads.py), and its artifacts
must match the SHA-256 recorded in reference.json for that seed.

With ``--trace 0`` the last line reports the end-to-end metrics as medians
over the run's experiments: ``run_s`` (wall time of ``run_config``),
``setup_s`` (interpreter start until ``run_config`` is entered) and
``peak_rss_mb``. With ``--trace 1`` traced and untraced experiments
alternate, and the last line reports per-layer self times and work counts
from the tracer plus the tracing overhead. The line before it records the
sample counts, the failure ratio and the machine.

The program is taken from ``src/`` next to this directory; artifacts and
scratch files go to ``.perfbench/`` there and are removed afterwards,
except the exact work counts of each traced workload, which later runs of
the same sources must repeat.
"""

from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import SEED_BASE, WORKLOADS, seed_slot  # noqa: E402

# set-up time is sampled at least this often per run; runs whose
# experiments are fewer add set-up-only interpreters
MIN_SETUP_SAMPLES = 5
# a run ends within this many seconds, whatever --seconds says
RUN_DEADLINE_S = 170.0
# experiments are single-threaded, BLAS included: idle BLAS threads spin
# on the second core of a small machine and add noise, not speed
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")
# work counts that depend only on the config, so must repeat exactly
EXACT_COUNTS = ("innovations.words", "innovations.calls",
                "processes.rep_steps", "variance.calls")


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def spawn(workload, seed, scratch, deadline, trace=0, setup_only=False):
    """Run one experiment in a fresh interpreter; returns its result dict,
    with ``setup_s`` added, or a dict holding only ``error``."""
    out = tempfile.mkdtemp(dir=scratch)
    result_path = out + ".json"
    # a traced experiment also times each module's import (see layer_metrics)
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           os.path.join(HERE, "experiment.py"),
           "--workload", workload, "--seed", str(seed), "--out", out,
           "--result", result_path, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["entered"] - started
    if trace:
        result["trace"]["import_s"] = import_times(proc.stderr)
    shutil.rmtree(out)
    return result


def import_times(stderr: str) -> dict:
    """Self import time of each weakdep module, from ``-X importtime``."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "weakdep" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            times[name.strip()] = int(self_us) * 1e-6
    return times


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced experiment, and its span count per
    layer.

    A layer's self time includes its module's own import time: the layer's
    code runs then too, and so a layer that a workload never calls reads
    what it costs that workload, not a flat zero. ``innovations.law_s`` is
    the innovations self time outside ``raw_words``, import included."""
    fns = trace["functions"]
    layer_self, calls = {}, {}
    for key, f in fns.items():
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + f["self_s"]
        calls[layer] = calls.get(layer, 0) + f["calls"]
    for module, seconds in trace["import_s"].items():
        layer = module.split(".")[-1]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    hashing = fns.get("innovations.raw_words", {"calls": 0, "self_s": 0.0})
    vcalls = trace["variance_calls"]
    return {
        "innovations.hash_s": hashing["self_s"],
        "innovations.law_s": layer_self.get("innovations", 0.0)
        - hashing["self_s"],
        "innovations.words": trace["words"],
        "innovations.calls": hashing["calls"],
        "innovations.words_per_s": (trace["words"] / hashing["self_s"]
                                    if hashing["self_s"] else 0.0),
        "processes.self_s": layer_self.get("processes", 0.0),
        "processes.rep_steps": trace["rep_steps"],
        "variance.self_s": layer_self.get("variance", 0.0),
        "variance.calls": vcalls,
        "variance.distinct_ratio": (trace["variance_distinct"] / vcalls
                                    if vcalls else 0.0),
        "dependence.self_s": layer_self.get("dependence", 0.0),
        "dependence.calls": calls.get("dependence", 0),
        "bedistance.self_s": layer_self.get("bedistance", 0.0),
        "rates.self_s": layer_self.get("rates", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }, calls


UNITS = {"_per_s": "1/s", "_s": "s", "_mb": "MB", "_ratio": "ratio"}


def unit(name: str) -> str:
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def tail_percentile(values):
    """The highest of p50/p75/p90/p99 with at least ten samples beyond
    it, as (p, value), or None when the run holds too few samples."""
    for p in (99, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def source_digest() -> str:
    """SHA-256 of the program and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)
                       + glob.glob(os.path.join(HERE, "*.py"))):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_counts(workload: str, counts: dict) -> str | None:
    """Compare exact work counts with those an earlier run of the same
    sources recorded; record them if none did. Returns a complaint."""
    state = os.path.join(WORK, "counts", f"{source_digest()}.json")
    os.makedirs(os.path.dirname(state), exist_ok=True)
    seen = {}
    if os.path.exists(state):
        with open(state, encoding="utf-8") as fh:
            seen = json.load(fh)
    if workload in seen and seen[workload] != counts:
        return f"work counts {counts} differ from an earlier run's {seen[workload]}"
    seen[workload] = counts
    with open(state, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, sort_keys=True)
    return None


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Measure one workload; returns (result line, detail dict)."""
    expected = _reference().get(workload, {}).get(str(seed_slot(seed)))
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    problems: list[str] = []
    untraced, traced = [], []
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        durations = []
        while True:
            # traced runs alternate traced/untraced, starting traced
            mode = (len(traced) <= len(untraced)) if trace else False
            began = time.monotonic()
            r = spawn(workload, seed, scratch, deadline, trace=int(mode))
            durations.append(time.monotonic() - began)
            (traced if mode else untraced).append(r)
            if "error" in r or time.monotonic() > deadline - 1:
                break
            enough = (len(traced) >= 2 and len(untraced) >= 1) if trace \
                else len(untraced) >= 2
            # stop before an experiment that would end after --seconds
            if enough and (time.monotonic() - start
                           + statistics.median(durations) > seconds):
                break
        setups = [r["setup_s"] for r in untraced if "error" not in r]
        while (not trace and setups and len(setups) < MIN_SETUP_SAMPLES
               and time.monotonic() < deadline - 5):
            r = spawn(workload, seed, scratch, deadline, setup_only=True)
            if "error" in r:
                problems.append(f"set-up probe failed: {r['error']}")
                break
            setups.append(r["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    experiments = untraced + traced
    failed = 0
    for r in experiments:
        if "error" in r:
            problems.append(r["error"])
        elif r["digest"] != expected:
            problems.append(f"artifact digest {r['digest']} differs from "
                            f"reference {expected}")
        else:
            continue
        failed += 1

    detail = {"workload": workload, "seed": seed,
              "master_seed": SEED_BASE + seed_slot(seed), "trace": trace,
              "attempted": len(experiments), "failed": failed,
              "failed_ratio": failed / len(experiments),
              "machine": machine()}
    ok = [r for r in experiments if "error" not in r]
    if ok:
        detail["env"] = ok[0]["env"]
    good_untraced = [r for r in untraced if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    metrics = {}
    if not trace and good_untraced:
        samples = {"run_s": [r["run_s"] for r in good_untraced],
                   "setup_s": setups,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in good_untraced]}
        for name, values in samples.items():
            metrics[name] = statistics.median(values)
        detail["samples"] = {k: len(v) for k, v in samples.items()}
        detail["tail"] = {k: tail_percentile(v) for k, v in samples.items()}
    elif trace and good_traced and good_untraced:
        per_exp = [layer_metrics(r["trace"]) for r in good_traced]
        layers = [m for m, _ in per_exp]
        for name in layers[0]:
            values = [m[name] for m in layers]
            metrics[name] = (statistics.median_low(values)
                             if isinstance(values[0], int)
                             else statistics.median(values))
        metrics["cli.bytes_written"] = good_traced[0]["bytes_written"]
        traced_run = statistics.median(r["run_s"] for r in good_traced)
        untraced_run = statistics.median(r["run_s"] for r in good_untraced)
        metrics["trace.overhead_s"] = traced_run - untraced_run
        detail["traced_run_s"] = traced_run
        detail["untraced_run_s"] = untraced_run
        detail["samples"] = {"traced": len(good_traced),
                             "untraced": len(good_untraced)}
        detail["bindings"] = good_traced[0]["trace"]["bindings"]
        counts = [{k: m[k] for k in EXACT_COUNTS} for m in layers]
        if any(c != counts[0] for c in counts):
            problems.append(f"work counts differ within the run: {counts}")
        else:
            complaint = check_counts(workload, counts[0])
            if complaint:
                problems.append(complaint)
        for layer in WORKLOADS[workload]["layers"]:
            if any(calls.get(layer, 0) == 0 for _, calls in per_exp):
                problems.append(f"no call recorded in layer {layer!r}")
    else:
        problems.append("no successful experiment")
    detail["problems"] = problems
    line = {"correct": not problems, "attempted": len(experiments),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit(k)}
                        for k, v in metrics.items()}}
    return line, detail


def report(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, as a table."""
    all_ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, detail = run_workload(workload, seed, seconds, trace)
            all_ok &= line["correct"]
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"{line['attempted']} experiments, failed_ratio "
                  f"{detail['failed_ratio']:.3g}, samples "
                  f"{detail.get('samples')}")
            for name, m in line["metrics"].items():
                tail = detail.get("tail", {}).get(name)
                extra = f"  p{tail[0]} {tail[1]:.4g}" if tail else ""
                print(f"   {name:26s} {m['value']:14.6g} {m['unit']}{extra}")
            if trace:
                print(f"   traced run_s {detail.get('traced_run_s', 0):.4g} s"
                      f", untraced {detail.get('untraced_run_s', 0):.4g} s")
            for p in detail["problems"]:
                print(f"   PROBLEM: {p}")
    print("machine:", json.dumps(machine()))
    print("env:", json.dumps(detail.get("env")))
    return 0 if all_ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "weakdep", "cli.py")):
        print(f"no weakdep sources under {SRC}", file=sys.stderr)
        return 2
    # compile once so that no experiment pays for byte-compiling weakdep
    compileall.compile_dir(SRC, quiet=1)
    if args.workload is None:
        return report(args.seed, args.seconds)
    line, detail = run_workload(args.workload, args.seed, args.seconds,
                                args.trace)
    print(json.dumps(detail))
    if not line["metrics"]:
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
