"""Config-driven experiment runner.

``weakdep run config.json`` executes one experiment described by a JSON
document and persists CSV/JSON results, plot-data files and a run
manifest.  Identical (config, seed) runs reproduce every output file
bit-exactly, independent of ``threads``.  Linear-model Monte Carlo sums,
the Hoelder centering and the ``theta_mc`` windows reduce with a BLAS
gemv over blocks aligned to 8 rows, whose bits equal the unblocked
single-thread product; tests show them independent of the BLAS thread
count (README, Determinism).
Exit codes: 0 success,
1 runtime failure, 2 config parse error, 3 precondition violation,
4 degenerate variance.

Each task is one function ``_task_<name>(cfg, model)``, the only code
that reads that task's params.  It reads them once, with their defaults,
makes every check the task makes before computing, and returns
``run(writer) -> summary``.  ``validate`` is that function stopped
before ``run``; ``run`` goes on.  Every config object is read through
``_Reads``, which checks each typed value's JSON type; a key it never
read, an empty ``name`` or one that is not a plain file name, and a
``seed`` outside [0, 2**64) are config errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from collections import UserDict
from dataclasses import asdict, dataclass, field, replace

from . import __version__
from .bedistance import NORMALIZATIONS, check_estimate, empirical_delta
from .blocks import (
    block_mode,
    conditional_variances,
    degeneracy_probability,
    make_layout,
)
from .dependence import (
    AssumptionSpec,
    check_assumption_grid,
    check_assumptions,
    check_closed_form,
    check_theta,
    dependence_profile,
    profile_closed_form,
)
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    ModelMismatchError,
    PreconditionError,
    WeakdepError,
    check_replications,
    choose_route,
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
from .rates import fit_rate, rate_route, run_rate_experiment
from .variance import (
    _autocov_method,
    _check_lags,
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


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# the JSON type of each typed config key, wherever it appears: an
# integer (int), any number (float), a string (str), or a list of one
_KINDS = {**dict.fromkeys("seed threads n R K m replications degeneracy_R "
                          "length d".split(), int),
          **dict.fromkeys("p a b rho beta c lambda_max".split(), float),
          **dict.fromkeys("name task out_dir".split(), str),
          "n_grid": [int], "l_grid": [int], "alpha": [float]}
_WHAT = {int: "an integer", float: "a number", str: "a string"}
# typed keys whose JSON null stands for their default
_NULLABLE = {"out_dir"}


def _typed(x, kind, name: str):
    """``x`` as ``kind`` (see _KINDS) when JSON loaded it as one; a number
    may be an integer.  JSON true and false load as bools, which Python
    counts as ints, so they are neither."""
    if isinstance(kind, list):
        if not isinstance(x, list):
            raise ConfigError(f"{name} must be a list, got {x!r}")
        return [_typed(v, kind[0], name) for v in x]
    if isinstance(x, bool) or not isinstance(
            x, (int, float) if kind is float else kind):
        raise ConfigError(f"{name} must be {_WHAT[kind]}, got {x!r}")
    return kind(x)


class _Reads(UserDict):
    """A config object that types each value as it is read (``_KINDS``)
    and records its key, so that a key nothing reads is refused, not
    ignored."""

    def __init__(self, doc: dict, what: str):
        if not isinstance(doc, dict):
            raise ConfigError(f"{what} must be an object")
        super().__init__(doc)
        self.what, self.read = what, set()

    def __getitem__(self, key):
        self.read.add(key)
        value = self.data[key]
        if key not in _KINDS or value is None and key in _NULLABLE:
            return value
        return _typed(value, _KINDS[key], key)

    def done(self, result):
        """``result``, once every key has been read."""
        if unread := sorted(self.keys() - self.read):
            raise ConfigError(f"{self.what} keys nothing reads: {unread}")
        return result


def _build_scheme(spec: dict):
    spec = _Reads(spec, "scheme")
    v = spec["variant"]
    if v == "explicit":
        scheme = ExplicitScheme(tuple(spec["alpha"]))
    elif v == "power-law":
        scheme = PowerLawScheme(a=spec["a"], length=spec.get("length", 4096))
    elif v == "geometric":
        scheme = GeometricScheme(rho=spec["rho"],
                                 length=spec.get("length", 128))
    elif v == "difference":
        scheme = DifferenceScheme(kind=spec.get("kind", "power"),
                                  beta=spec.get("beta", 0.25),
                                  length=spec.get("length", 4096))
    else:
        raise ConfigError(f"unknown scheme variant {v!r}")
    return spec.done(scheme)


def build_model(spec: dict):
    spec = _Reads(spec, "model")
    v = spec["variant"]
    if v == "linear":
        model = LinearModel(_build_scheme(spec["scheme"]),
                            get_law(spec.get("law", "standard-gaussian")))
    elif v == "holder":
        model = HolderOfLinearModel(
            _build_scheme(spec["scheme"]),
            get_law(spec.get("law", "standard-gaussian")),
            observable=spec.get("observable", "cos-shift"),
            beta=spec.get("beta", 1.0), c=spec.get("c", 1.0))
    elif v == "doubling":
        model = DoublingModel(observable=spec.get("observable", "cos2pi"))
    elif v == "gl-walk":
        model = GLdWalkModel(d=spec.get("d", 2),
                             lambda_max=spec.get("lambda_max", 1.0))
    else:
        raise ConfigError(f"unknown model variant {v!r}")
    return spec.done(model)


def _check_threads(threads: int) -> int:
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads!r}")
    return threads


def _check_seed(seed: int) -> int:
    # the hash keys a seed as one 64-bit word
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed!r}")
    return seed


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
        doc = _Reads(doc, "config")
        for req in ("name", "seed", "model", "task"):
            if req not in doc:
                raise ConfigError(f"config missing required field {req!r}")
        task = doc["task"]
        if task not in _TASKS:
            raise ConfigError(
                f"task must be one of {tuple(_TASKS)}, got {task!r}")
        # the name prefixes every output file, inside the output directory
        name = doc["name"]
        if not name or os.path.basename(name) != name:
            raise ConfigError(f"name must be a plain file name, got {name!r}")
        cfg = doc.done(cls(
            name=name, seed=_check_seed(doc["seed"]), model_spec=doc["model"],
            task=task, params=doc.get("params", {}),
            out_dir=doc.get("out_dir"),
            threads=_check_threads(doc.get("threads", 1))))
        cfg.validate()
        return cfg

    def validate(self):
        """Build the model and run the task up to its first computation:
        read its params and make every check it makes before computing.
        Returns the task's ``run(writer) -> summary``, which ``from_dict``
        discards.  A model the task cannot run is a precondition violation
        (exit 3); a missing field, a mistyped value or a key nothing reads
        is a config error (exit 2); neither is a runtime failure."""
        params = _Reads(self.params, "params")
        try:
            run = _TASKS[self.task](replace(self, params=params),
                                    build_model(self.model_spec))
        except ModelMismatchError as exc:
            raise PreconditionError(
                f"task {self.task!r} cannot run model "
                f"{self.model_spec['variant']!r}: {exc}") from None
        except WeakdepError:
            raise
        except KeyError as exc:
            raise ConfigError(f"config is missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config has a bad value: {exc}") from None
        return params.done(run)

    def canonical(self) -> str:
        # results do not depend on the thread count, so neither does
        # the digest that identifies them
        doc = {"name": self.name, "seed": self.seed,
               "model": self.model_spec, "task": self.task,
               "params": self.params}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


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

def _count_param(params: dict, name: str, default: int | None = None) -> int:
    """Integer param ``name``, required when there is no default; >= 1."""
    value = params[name] if default is None else params.get(name, default)
    if value < 1:
        raise PreconditionError(f"{name} must be >= 1")
    return value


def _task_rate(cfg, model):
    p = cfg.params
    norms = p.get("normalization", "sqrt-n-ss2")
    curves = [{"n_grid": p["n_grid"], "R": p.get("R", 100000),
               "normalization": norm, "method": p.get("method", "auto")}
              for norm in ([norms] if isinstance(norms, str) else norms)]
    for curve in curves:
        rate_route(model, **curve)

    def run(writer):
        all_rows, plots, fits = [], {}, {}
        for curve in curves:
            norm = curve["normalization"]
            ests = run_rate_experiment(model, seed=cfg.seed,
                                       threads=cfg.threads, **curve)
            all_rows.extend(_estimate_row(e) for e in ests)
            plots[norm] = [(e.n, e.delta, e.low, e.high) for e in ests]
            try:
                fits[norm] = _fit_dict(fit_rate(ests))
            except PreconditionError as exc:
                fits[norm] = {"error": str(exc)}
        writer.write_csv(f"{cfg.name}-rate.csv", _EST_HEADER, all_rows)
        writer.write_json(f"{cfg.name}-ratefit.json", fits)
        emit_plotdata(writer, f"{cfg.name}-rate", plots)
        return {"fits": fits}
    return run


def _task_counterexample(cfg, model):
    """Both normalizations of the slow-rate construction: closed-form
    decay under sqrt(n ss^2), exact zero under sqrt(E S_n^2)."""
    curves = [{"n_grid": cfg.params["n_grid"], "R": 0,
               "normalization": norm, "method": "closed-form"}
              for norm in NORMALIZATIONS]
    for curve in curves:
        rate_route(model, **curve)

    def run(writer):
        ests_ss, ests_es = (
            run_rate_experiment(model, seed=cfg.seed, threads=cfg.threads,
                                **curve)
            for curve in curves)
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
    return run


def _task_bedist(cfg, model):
    p = cfg.params
    n, R = _count_param(p, "n"), p.get("R", 100000)
    norm = p.get("normalization", "sqrt-n-ss2")
    check_estimate(norm, R)

    def run(writer):
        est = empirical_delta(model, n, R, norm, seed=cfg.seed)
        writer.write_csv(f"{cfg.name}-bedist.csv", _EST_HEADER,
                         [_estimate_row(est)])
        return {"delta": est.delta, "low": est.low, "high": est.high}
    return run


def _task_depcoef(cfg, model):
    p = cfg.params
    power, R = p.get("p", 2.0), p.get("R", 20000)
    grid = p.get("l_grid", [1, 2, 4, 8, 16, 32, 64])
    for l in grid:
        check_theta(model, l, power, R)

    def run(writer):
        prof = dependence_profile(model, power, grid, R, seed=cfg.seed)
        rows = [[e.l, f"{e.theta_prime:.12g}", f"{e.theta_star:.12g}",
                 f"{e.se_prime:.12g}", f"{e.se_star:.12g}"]
                for e in prof.entries]
        writer.write_csv(f"{cfg.name}-depcoef.csv",
                         ["l", "theta_prime", "theta_star", "se_prime",
                          "se_star"], rows)
        emit_plotdata(writer, f"{cfg.name}-depcoef", {
            "theta-prime": [(e.l, e.theta_prime,
                             max(e.theta_prime - e.se_prime, 0.0),
                             e.theta_prime + e.se_prime)
                            for e in prof.entries],
            "theta-star": [(e.l, e.theta_star,
                            max(e.theta_star - e.se_star, 0.0),
                            e.theta_star + e.se_star) for e in prof.entries],
        })
        return {"entries": len(prof.entries)}
    return run


def _task_variance(cfg, model):
    p = cfg.params
    K, n, m = (_count_param(p, "K", 64), _count_param(p, "n", 1024),
               _count_param(p, "m", 16))
    method, R = p.get("method", "auto"), p.get("R", 4096)
    route = _autocov_method(model, method)
    _check_lags(route, K)
    if route == "monte-carlo":
        check_replications(R, "the Monte Carlo autocovariance")

    def run(writer):
        table = autocovariance(model, K=K, method=method, R=R, seed=cfg.seed)
        lrv = longrun_variance(table)
        s_n2 = sum_variance(model, n, seed=cfg.seed, R=R) / n
        sh = sigma_hat_m(table, m)
        writer.write_csv(f"{cfg.name}-autocov.csv", ["k", "gamma", "stderr"],
                         [[k, f"{table.gamma[k]:.12g}",
                           f"{table.stderr[k]:.12g}"]
                          for k in range(len(table.gamma))])
        doc = {"ss2": lrv.value, "s_n2": s_n2, "sigma_hat_m2": sh.value,
               "n": n, "m": m, "note": lrv.note,
               "sigma_hat_residual": sh.residual, "series": lrv.series,
               "tail": lrv.tail}
        writer.write_json(f"{cfg.name}-variance.json", doc)
        return doc
    return run


def _task_blocks(cfg, model):
    p = cfg.params
    layout = make_layout(p["n"], p["m"])
    mode = block_mode(model, layout.m, p.get("mode", "auto"))
    reps, K = p.get("replications", 1), p.get("K", 256)
    degeneracy_R = None
    if "degeneracy_R" in p:
        degeneracy_R = p["degeneracy_R"]
        check_replications(degeneracy_R, "degeneracy_probability")

    def run(writer):
        records = []
        for r in range(reps):
            d = conditional_variances(model, layout, replication=r,
                                      seed=cfg.seed, mode=mode, K=K)
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
        if degeneracy_R is not None:
            freq = degeneracy_probability(model, layout, R=degeneracy_R,
                                          seed=cfg.seed, mode=mode, K=K)
        doc = {"records": records, "degeneracy_frequency": freq}
        writer.write_json(f"{cfg.name}-blocks.json", doc)
        return doc
    return run


def _task_assumptions(cfg, model):
    p = cfg.params
    # constructing the spec enforces b > B(p)
    spec = AssumptionSpec(p=p.get("p", 3.0), a_exp=p.get("a", 1.0),
                          b_exp=p.get("b", 1.0))
    grid = p.get("l_grid", [1, 2, 4, 8, 16, 32, 64, 128])
    check_assumption_grid(grid)
    R = p.get("R", 20000)  # read on either route, so either accepts it
    linear = _autocov_method(model) == "exact-linear"
    if choose_route(p.get("mode", "monte-carlo"),
                    "closed-form" if linear else None,
                    ("closed-form", "monte-carlo")) == "closed-form":
        check_closed_form(spec.p)
        profile = lambda: profile_closed_form(model.scheme, grid, spec.p)
    else:
        for l in grid:
            check_theta(model, l, spec.p, R)
        profile = lambda: dependence_profile(model, spec.p, grid, R,
                                             seed=cfg.seed)

    def run(writer):
        doc = asdict(check_assumptions(profile(), spec))
        writer.write_json(f"{cfg.name}-assumptions.json", doc)
        return doc
    return run


# the tasks a config may name, in the order from_dict lists them
_TASKS = {
    "depcoef": _task_depcoef,
    "variance": _task_variance,
    "bedist": _task_bedist,
    "rate": _task_rate,
    "blocks": _task_blocks,
    "counterexample": _task_counterexample,
    "assumptions": _task_assumptions,
}


def run_config(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Execute a config; returns the manifest dictionary."""
    run = cfg.validate()
    writer = _OutputWriter(out_dir or cfg.out_dir
                           or os.environ.get("WEAKDEP_OUT", "weakdep-out"))
    start = time.time()
    summary = run(writer)
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


# the error kind and exit code of a library error: its first class here
_ERROR_EXITS = (
    (ConfigError, "config", EXIT_PARSE),
    (PreconditionError, "precondition", EXIT_PRECONDITION),
    (DegenerateVarianceError, "degenerate-variance", EXIT_DEGENERATE),
    (WeakdepError, "runtime", EXIT_RUNTIME),
)


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
    p_val = sub.add_parser("validate",
                           help="validate a config file or preset")
    p_val.add_argument("config", help="config.json path or preset name")
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
            _load_or_preset(args.config)
            print("ok")
            return EXIT_OK
        # run
        cfg = _load_or_preset(args.config)
        if args.seed is not None:
            cfg.seed = _check_seed(args.seed)
        if args.threads is not None:
            cfg.threads = _check_threads(args.threads)
        manifest = run_config(cfg, out_dir=args.out)
        print(json.dumps({"exit": 0, "files": manifest["files"],
                          "config_digest": manifest["config_digest"]}))
        return EXIT_OK
    except WeakdepError as exc:
        kind, code = next((kind, code) for cls, kind, code in _ERROR_EXITS
                          if isinstance(exc, cls))
        print(json.dumps({"error": kind, "message": str(exc)}),
              file=sys.stderr)
        return code
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(json.dumps({"error": "runtime",
                          "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
