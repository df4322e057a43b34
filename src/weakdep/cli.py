"""Config-driven experiment runner.

``weakdep run config.json`` executes one experiment described by a JSON
document and persists CSV/JSON results, plot-data files and a run
manifest.  Identical (config, seed) runs reproduce every output file
bit-exactly, independent of thread count.  Exit codes: 0 success,
1 runtime failure, 2 config parse error, 3 precondition violation,
4 degenerate variance.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bedistance import (
    _is_gaussian_linear,
    empirical_delta,
    exact_delta_gaussian_linear,
)
from .blocks import (
    block_mode,
    conditional_variances,
    degeneracy_probability,
    make_layout,
)
from .dependence import (
    AssumptionSpec,
    _window_depth,
    check_assumptions,
    dependence_profile,
    profile_closed_form,
)
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    ModelMismatchError,
    PreconditionError,
    WeakdepError,
)
from .innovations import get_law
from .processes import (
    DifferenceScheme,
    DoublingModel,
    ExplicitScheme,
    GeometricScheme,
    GLdWalkModel,
    HolderOfLinearModel,
    LinearModel,
    PowerLawScheme,
)
from .rates import _grid_point, fit_rate
from .variance import (
    VarianceReport,
    _autocov_method,
    autocovariance,
    longrun_variance,
    sigma_hat_m,
    sum_variance,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DEGENERATE = 4

TASKS = ("depcoef", "variance", "bedist", "rate", "blocks",
         "counterexample", "assumptions")

# params a task reads without a default
_REQUIRED_PARAMS = {"rate": ("n_grid",), "counterexample": ("n_grid",),
                    "bedist": ("n",), "blocks": ("n", "m")}

_DEFAULT_L_GRIDS = {"depcoef": [1, 2, 4, 8, 16, 32, 64],
                    "assumptions": [1, 2, 4, 8, 16, 32, 64, 128]}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _build_scheme(spec: dict):
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ConfigError("scheme spec must be an object with a 'variant'")
    v = spec["variant"]
    try:
        if v == "explicit":
            return ExplicitScheme(tuple(float(a) for a in spec["alpha"]))
        if v == "power-law":
            return PowerLawScheme(a=float(spec["a"]),
                                  length=int(spec.get("length", 4096)))
        if v == "geometric":
            return GeometricScheme(rho=float(spec["rho"]),
                                   length=int(spec.get("length", 128)))
        if v == "difference":
            return DifferenceScheme(kind=spec.get("kind", "power"),
                                    beta=float(spec.get("beta", 0.25)),
                                    length=int(spec.get("length", 4096)))
    except KeyError as exc:
        raise ConfigError(f"scheme variant {v!r} is missing field {exc}")
    raise ConfigError(f"unknown scheme variant {v!r}")


def build_model(spec: dict):
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ConfigError("model spec must be an object with a 'variant'")
    v = spec["variant"]
    if v == "linear":
        return LinearModel(_build_scheme(spec["scheme"]),
                           get_law(spec.get("law", "standard-gaussian")))
    if v == "holder":
        return HolderOfLinearModel(
            _build_scheme(spec["scheme"]),
            get_law(spec.get("law", "standard-gaussian")),
            observable=spec.get("observable", "cos-shift"),
            beta=float(spec.get("beta", 1.0)),
            c=float(spec.get("c", 1.0)))
    if v == "doubling":
        return DoublingModel(observable=spec.get("observable", "cos2pi"))
    if v == "gl-walk":
        return GLdWalkModel(d=int(spec.get("d", 2)),
                            lambda_max=float(spec.get("lambda_max", 1.0)))
    raise ConfigError(f"unknown model variant {v!r}")


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    model_spec: dict
    task: str
    params: dict = field(default_factory=dict)
    out_dir: str | None = None
    threads: int = 1

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {"name", "seed", "model", "task", "params",
                              "out_dir", "threads"}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for req in ("name", "seed", "model", "task"):
            if req not in doc:
                raise ConfigError(f"config missing required field {req!r}")
        task = doc["task"]
        if task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
        if not isinstance(doc["seed"], int):
            raise ConfigError("seed must be an integer")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        cfg = cls(name=str(doc["name"]), seed=doc["seed"],
                  model_spec=doc["model"], task=task, params=params,
                  out_dir=doc.get("out_dir"),
                  threads=int(doc.get("threads", 1)))
        cfg.validate()
        return cfg

    def validate(self):
        """Fail-fast: build the model and check the task parameters and the
        model's support for the task against module preconditions before
        any computation starts.  A model the task cannot run is a
        precondition violation (exit 3), never a runtime failure."""
        p = self.params
        missing = [k for k in _REQUIRED_PARAMS.get(self.task, ())
                   if k not in p]
        if missing:
            raise ConfigError(f"task {self.task!r} needs params {missing}")
        model = build_model(self.model_spec)  # raises ConfigError / module errors
        if self.task in ("rate", "counterexample"):
            g = list(p["n_grid"])
            if len(g) < 4 or any(g[i + 1] != 2 * g[i]
                                 for i in range(len(g) - 1)):
                raise PreconditionError(
                    "params.n_grid must be dyadic with >= 4 points")
        if self.task == "assumptions":
            # constructing the spec enforces b > B(p)
            AssumptionSpec(p=float(p.get("p", 3.0)),
                           a_exp=float(p.get("a", 1.0)),
                           b_exp=float(p.get("b", 1.0)))
        if self.task == "blocks":
            make_layout(int(p["n"]), int(p["m"]))
        try:
            _check_support(self.task, model, p)
        except ModelMismatchError as exc:
            raise PreconditionError(
                f"task {self.task!r} cannot run model "
                f"{self.model_spec['variant']!r}: {exc}") from None

    def canonical(self) -> str:
        doc = {"name": self.name, "seed": self.seed,
               "model": self.model_spec, "task": self.task,
               "params": self.params, "threads": self.threads}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _l_grid(task: str, params: dict) -> list[int]:
    return [int(l) for l in params.get("l_grid", _DEFAULT_L_GRIDS[task])]


def _closed_form_profile(model, params: dict) -> bool:
    return params.get("mode") == "closed-form" \
        and isinstance(model, LinearModel)


def _check_support(task: str, model, params: dict):
    """What the task's runner needs of the model: coupled windows deep
    enough for every lag, an autocovariance method, a block route, or an
    exactly normal S_n."""
    if task == "depcoef" or (task == "assumptions"
                             and not _closed_form_profile(model, params)):
        for l in _l_grid(task, params):
            _window_depth(model, l)
    elif task == "variance":
        _autocov_method(model, params.get("method", "auto"))
    elif task == "blocks":
        block_mode(model, int(params["m"]), params.get("mode", "auto"))
    elif task == "counterexample" or (task == "rate"
                                      and params.get("method")
                                      == "closed-form"):
        if not _is_gaussian_linear(model):
            raise ModelMismatchError(
                f"the {task} task needs a Gaussian linear model")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return ExperimentConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "counterexample-1.3": {
        "name": "counterexample-1.3", "seed": 20260824,
        "model": {"variant": "linear", "law": "standard-gaussian",
                  "scheme": {"variant": "power-law", "a": 1.3,
                             "length": 4096}},
        "task": "counterexample",
        "params": {"n_grid": [2 ** k for k in range(8, 19)]},
    },
    "doubling-cos": {
        "name": "doubling-cos", "seed": 20260824,
        "model": {"variant": "doubling", "observable": "cos2pi"},
        "task": "rate",
        "params": {"n_grid": [2 ** k for k in range(6, 15)],
                   "R": 100000, "normalization": "sqrt-n-ss2"},
    },
    "gl2-walk": {
        "name": "gl2-walk", "seed": 20260824,
        "model": {"variant": "gl-walk", "d": 2, "lambda_max": 1.0},
        "task": "rate",
        "params": {"n_grid": [2 ** k for k in range(6, 13)],
                   "R": 10000, "normalization": "sqrt-n-ss2"},
    },
    "cancellation-beta-0.25": {
        "name": "cancellation-beta-0.25", "seed": 20260824,
        "model": {"variant": "linear", "law": "rademacher",
                  "scheme": {"variant": "difference", "kind": "power",
                             "beta": 0.25, "length": 32768}},
        "task": "rate",
        "params": {"n_grid": [2 ** k for k in range(6, 14)],
                   "R": 100000, "normalization": "sqrt-ESn2"},
    },
    "holder-of-linear": {
        "name": "holder-of-linear", "seed": 20260824,
        "model": {"variant": "holder", "law": "standard-gaussian",
                  "observable": "cos-shift", "beta": 1.0, "c": 1.0,
                  "scheme": {"variant": "geometric", "rho": 0.5,
                             "length": 64}},
        "task": "depcoef",
        "params": {"p": 2.0, "l_grid": [1, 2, 4, 8, 16, 32],
                   "R": 20000},
    },
}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

class _OutputWriter:
    """Single owner of the output directory; records every file written."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    def write_csv(self, name: str, header: list[str], rows) -> str:
        p = self.path(name)
        with open(p, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
            w.writerow(header)
            w.writerows(rows)
        return p

    def write_json(self, name: str, obj) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return p

    def write_plotdata(self, name: str, comment: str, rows) -> str:
        p = self.path(name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(f"# {comment}\n")
            for row in rows:
                fh.write(" ".join(f"{v:.12g}" for v in row) + "\n")
        return p


def emit_plotdata(writer: _OutputWriter, stem: str, curves: dict) -> list[str]:
    """One whitespace-delimited file per curve (columns x, y, ylow, yhigh,
    '#'-comment header); censored (nonpositive) rows go to a sidecar."""
    written = []
    if not curves:
        print("warning: no plottable results", file=sys.stderr)
        return written
    for curve_name, rows in curves.items():
        good = [r for r in rows if r[1] > 0]
        bad = [r for r in rows if r[1] <= 0]
        fname = f"{stem}-{curve_name}.dat"
        writer.write_plotdata(fname, f"{curve_name}: x y ylow yhigh", good)
        written.append(fname)
        if bad:
            side = f"{stem}-{curve_name}-censored.dat"
            writer.write_plotdata(side, f"{curve_name}: censored rows", bad)
            written.append(side)
    return written


def _estimate_row(e):
    return [e.n, e.normalization, f"{e.delta:.12g}", f"{e.low:.12g}",
            f"{e.high:.12g}", e.method, e.R, e.seed]


_EST_HEADER = ["n", "normalization", "delta", "low", "high", "method", "R",
               "seed"]


def _fit_dict(fit):
    return {"slope": fit.slope, "intercept": fit.intercept,
            "slope_stderr": fit.slope_stderr, "r_squared": fit.r_squared,
            "censored_n": list(fit.censored), "weighting": fit.weighting,
            "points": [list(p) for p in fit.points]}


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _grid_estimates(model, grid, R, normalization, seed, threads,
                    delta_conf=0.01, method="auto"):
    """Per-grid-point estimates with disjoint replication ranges; thread
    scheduling cannot change results because point i always owns
    replications [i*R, (i+1)*R) and the merge is by index."""
    point = _grid_point(model, R, normalization, seed, delta_conf, method)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(point, range(len(grid)), grid))
    return list(map(point, range(len(grid)), grid))


def _task_rate(cfg, model, writer):
    p = cfg.params
    grid = [int(n) for n in p["n_grid"]]
    R = int(p.get("R", 100000))
    norms = p.get("normalization", "sqrt-n-ss2")
    if isinstance(norms, str):
        norms = [norms]
    all_rows, curves, fits = [], {}, {}
    for norm in norms:
        ests = _grid_estimates(model, grid, R, norm, cfg.seed, cfg.threads,
                               method=p.get("method", "auto"))
        all_rows.extend(_estimate_row(e) for e in ests)
        curves[norm] = [(e.n, e.delta, e.low, e.high) for e in ests]
        try:
            fits[norm] = _fit_dict(fit_rate(ests))
        except PreconditionError as exc:
            fits[norm] = {"error": str(exc)}
    writer.write_csv(f"{cfg.name}-rate.csv", _EST_HEADER, all_rows)
    writer.write_json(f"{cfg.name}-ratefit.json", fits)
    emit_plotdata(writer, f"{cfg.name}-rate", curves)
    return {"fits": fits}


def _task_counterexample(cfg, model, writer):
    """Both normalizations of the slow-rate construction: closed-form
    decay under sqrt(n ss^2), exact zero under sqrt(E S_n^2)."""
    grid = [int(n) for n in cfg.params["n_grid"]]
    ests_ss = [exact_delta_gaussian_linear(model.scheme, n, "sqrt-n-ss2",
                                           seed=cfg.seed) for n in grid]
    ests_es = [exact_delta_gaussian_linear(model.scheme, n, "sqrt-ESn2",
                                           seed=cfg.seed) for n in grid]
    fit = fit_rate(ests_ss)
    rows = [_estimate_row(e) for e in ests_ss + ests_es]
    writer.write_csv(f"{cfg.name}-delta.csv", _EST_HEADER, rows)
    out = {"fit_sqrt_n_ss2": _fit_dict(fit),
           "max_delta_sqrt_ESn2": max(e.delta for e in ests_es)}
    writer.write_json(f"{cfg.name}-ratefit.json", out)
    emit_plotdata(writer, f"{cfg.name}",
                  {"sqrt-n-ss2": [(e.n, e.delta, e.low, e.high)
                                  for e in ests_ss]})
    return out


def _task_bedist(cfg, model, writer):
    p = cfg.params
    est = empirical_delta(model, int(p["n"]), int(p.get("R", 100000)),
                          p.get("normalization", "sqrt-n-ss2"),
                          seed=cfg.seed)
    writer.write_csv(f"{cfg.name}-bedist.csv", _EST_HEADER,
                     [_estimate_row(est)])
    return {"delta": est.delta, "low": est.low, "high": est.high}


def _task_depcoef(cfg, model, writer):
    p = cfg.params
    prof = dependence_profile(model, float(p.get("p", 2.0)),
                              _l_grid("depcoef", p),
                              int(p.get("R", 20000)), seed=cfg.seed)
    rows = [[e.l, f"{e.theta_prime:.12g}", f"{e.theta_star:.12g}",
             f"{e.se_prime:.12g}", f"{e.se_star:.12g}"]
            for e in prof.entries]
    writer.write_csv(f"{cfg.name}-depcoef.csv",
                     ["l", "theta_prime", "theta_star", "se_prime",
                      "se_star"], rows)
    emit_plotdata(writer, f"{cfg.name}-depcoef", {
        "theta-prime": [(e.l, e.theta_prime,
                         max(e.theta_prime - e.se_prime, 0.0),
                         e.theta_prime + e.se_prime) for e in prof.entries],
        "theta-star": [(e.l, e.theta_star,
                        max(e.theta_star - e.se_star, 0.0),
                        e.theta_star + e.se_star) for e in prof.entries],
    })
    return {"entries": len(prof.entries)}


def _task_variance(cfg, model, writer):
    p = cfg.params
    K = int(p.get("K", 64))
    n = int(p.get("n", 1024))
    m = int(p.get("m", 16))
    table = autocovariance(model, K=K, method=p.get("method", "auto"),
                           R=int(p.get("R", 4096)), seed=cfg.seed)
    lrv = longrun_variance(table)
    s_n2 = sum_variance(model, n, seed=cfg.seed) / n
    sh = sigma_hat_m(table, m)
    report = VarianceReport(ss2=lrv.value, s_n2=s_n2, sigma_hat_m2=sh.value,
                            n=n, m=m, note=lrv.note,
                            extra={"sigma_hat_residual": sh.residual,
                                   "series": lrv.series, "tail": lrv.tail})
    writer.write_csv(f"{cfg.name}-autocov.csv", ["k", "gamma", "stderr"],
                     [[k, f"{table.gamma[k]:.12g}", f"{table.stderr[k]:.12g}"]
                      for k in range(len(table.gamma))])
    doc = {"ss2": report.ss2, "s_n2": report.s_n2,
           "sigma_hat_m2": report.sigma_hat_m2, "n": n, "m": m,
           "note": report.note, **report.extra}
    writer.write_json(f"{cfg.name}-variance.json", doc)
    return doc


def _task_blocks(cfg, model, writer):
    p = cfg.params
    layout = make_layout(int(p["n"]), int(p["m"]))
    reps = int(p.get("replications", 1))
    records = []
    for r in range(reps):
        d = conditional_variances(model, layout, replication=r,
                                  seed=cfg.seed, mode=p.get("mode", "auto"),
                                  K=int(p.get("K", 256)))
        records.append({
            "n": layout.n, "m": layout.m, "N": layout.N,
            "replication": r, "mode": d.mode,
            "sigma_j": list(map(float, d.sigma_j)),
            "sigma_given_m": d.sigma_given_m,
            "sigma_bar_m2": d.sigma_bar_m2,
            "varsigma_bar_m2": d.varsigma_bar_m2,
            "ss_nm2": d.ss_nm2,
            "identity_residual": d.identity_residual,
        })
    freq = None
    if "degeneracy_R" in p:
        freq = degeneracy_probability(model, layout,
                                      R=int(p["degeneracy_R"]),
                                      seed=cfg.seed)
    doc = {"records": records, "degeneracy_frequency": freq}
    writer.write_json(f"{cfg.name}-blocks.json", doc)
    return doc


def _task_assumptions(cfg, model, writer):
    p = cfg.params
    spec = AssumptionSpec(p=float(p.get("p", 3.0)),
                          a_exp=float(p.get("a", 1.0)),
                          b_exp=float(p.get("b", 1.0)))
    grid = _l_grid("assumptions", p)
    if _closed_form_profile(model, p):
        prof = profile_closed_form(model.scheme, grid)
    else:
        prof = dependence_profile(model, spec.p, grid,
                                  int(p.get("R", 20000)), seed=cfg.seed)
    report = check_assumptions(prof, spec)
    doc = report.to_dict()
    writer.write_json(f"{cfg.name}-assumptions.json", doc)
    return doc


_TASK_RUNNERS = {
    "rate": _task_rate,
    "counterexample": _task_counterexample,
    "bedist": _task_bedist,
    "depcoef": _task_depcoef,
    "variance": _task_variance,
    "blocks": _task_blocks,
    "assumptions": _task_assumptions,
}


def run_config(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute a validated config; returns the manifest dictionary."""
    out = out_dir or cfg.out_dir or os.environ.get("WEAKDEP_OUT",
                                                   "weakdep-out")
    writer = _OutputWriter(out)
    model = build_model(cfg.model_spec)
    start = time.time()
    summary = _TASK_RUNNERS[cfg.task](cfg, model, writer)
    manifest = {
        "config_digest": cfg.digest(),
        "artifact_version": __version__,
        "started": start,
        "finished": time.time(),
        "master_seed": cfg.seed,
        "task": cfg.task,
        "files": writer.files,
        "summary": summary,
    }
    writer.write_json(f"{cfg.name}-manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_or_preset(target: str) -> ExperimentConfig:
    name = target[len("preset:"):] if target.startswith("preset:") else target
    if name in PRESETS:
        return ExperimentConfig.from_dict(PRESETS[name])
    return load_config(target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weakdep",
        description="Dependence / Berry-Esseen experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config or preset")
    p_run.add_argument("config", help="config.json path or preset name")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_pre = sub.add_parser("presets", help="preset utilities")
    p_pre.add_argument("action", choices=["list", "show"])
    p_pre.add_argument("name", nargs="?")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        if args.command == "presets":
            if args.action == "list":
                for name in sorted(PRESETS):
                    print(name)
            else:
                if args.name not in PRESETS:
                    print(f"unknown preset {args.name!r}", file=sys.stderr)
                    return EXIT_PARSE
                print(json.dumps(PRESETS[args.name], indent=2,
                                 sort_keys=True))
            return EXIT_OK
        if args.command == "validate":
            load_config(args.config)
            print("ok")
            return EXIT_OK
        # run
        cfg = _load_or_preset(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        manifest = run_config(cfg, out_dir=args.out)
        print(json.dumps({"exit": 0, "files": manifest["files"],
                          "config_digest": manifest["config_digest"]}))
        return EXIT_OK
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(json.dumps({"error": "precondition", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_PRECONDITION
    except DegenerateVarianceError as exc:
        print(json.dumps({"error": "degenerate-variance",
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_DEGENERATE
    except WeakdepError as exc:
        print(json.dumps({"error": "runtime", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(json.dumps({"error": "runtime",
                          "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
