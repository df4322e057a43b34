import json

import pytest

from weakdep.cli import (
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    PRESETS,
    ExperimentConfig,
    load_config,
    main,
)
from weakdep.errors import ConfigError, PreconditionError
from weakdep.variance import _check_lags


def _write(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "name": "t", "seed": 5,
    "model": {"variant": "linear", "law": "standard-gaussian",
              "scheme": {"variant": "geometric", "rho": 0.5, "length": 32}},
    "task": "variance",
    "params": {"K": 8, "n": 64, "m": 4},
}


def test_presets_list(capsys):
    assert main(["presets", "list"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert sorted(PRESETS) == out


def test_presets_cover_required_names():
    assert set(PRESETS) == {"doubling-cos", "gl2-walk", "counterexample-1.3",
                            "cancellation-beta-0.25", "holder-of-linear"}
    for name, doc in PRESETS.items():
        ExperimentConfig.from_dict(doc)  # each preset must validate


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert main(["validate", path]) == EXIT_OK


@pytest.mark.parametrize("target", ["doubling-cos", "preset:doubling-cos"])
def test_validate_accepts_a_preset_name(target, capsys):
    assert main(["validate", target]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_rejects_an_unknown_preset_name():
    assert main(["validate", "preset:no-such-preset"]) == EXIT_PARSE
    assert main(["validate", "no-such-preset"]) == EXIT_PARSE


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == EXIT_PARSE
    assert main(["validate", _write(tmp_path, {**BASE, "task": "dance"})]) \
        == EXIT_PARSE
    assert main(["validate", _write(tmp_path, {**BASE, "typo": 1})]) \
        == EXIT_PARSE
    assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_PARSE


def test_precondition_exit_names_constraint(tmp_path, capsys):
    doc = {**BASE, "task": "assumptions",
           "params": {"p": 3.0, "a": 1.0, "b": 0.5}}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "0.666" in err  # message names the violated boundary


def test_degenerate_variance_exit(tmp_path):
    doc = {**BASE,
           "model": {"variant": "linear", "law": "standard-gaussian",
                     "scheme": {"variant": "difference", "kind": "power",
                                "beta": 0.25, "length": 512}},
           "task": "bedist",
           "params": {"n": 64, "R": 1000, "normalization": "sqrt-n-ss2"}}
    assert main(["run", _write(tmp_path, doc), "--out",
                 str(tmp_path / "o")]) == EXIT_DEGENERATE


def test_run_variance_task(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "t-manifest.json").read_text())
    assert manifest["master_seed"] == 5
    assert "t-variance.json" in manifest["files"]
    assert len(manifest["config_digest"]) == 64
    report = json.loads((out / "t-variance.json").read_text())
    assert report["ss2"] == pytest.approx(4.0, rel=1e-6)


def test_rerun_byte_identical(tmp_path):
    doc = {**BASE, "task": "rate",
           "params": {"n_grid": [64, 128, 256, 512], "R": 1000,
                      "normalization": "sqrt-n-ss2"},
           "model": {"variant": "linear", "law": "rademacher",
                     "scheme": {"variant": "geometric", "rho": 0.5,
                                "length": 32}}}
    path = _write(tmp_path, doc)
    outs = []
    for sub, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / sub
        assert main(["run", path, "--out", str(out), "--threads",
                     threads]) == EXIT_OK
        outs.append(out)
    for fname in ("t-rate.csv", "t-ratefit.json", "t-rate-sqrt-n-ss2.dat"):
        blobs = [(o / fname).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]
    # the digest identifies the results, which do not depend on threads
    digests = {json.loads((o / "t-manifest.json").read_text())
               ["config_digest"] for o in outs}
    assert len(digests) == 1


def test_run_preset_by_name(tmp_path):
    # override the preset's heavy grid by running validate only
    assert main(["presets", "show", "counterexample-1.3"]) == EXIT_OK


def test_counterexample_task(tmp_path):
    doc = {"name": "ce", "seed": 1,
           "model": {"variant": "linear", "law": "standard-gaussian",
                     "scheme": {"variant": "power-law", "a": 1.3,
                                "length": 64}},
           "task": "counterexample",
           "params": {"n_grid": [2 ** k for k in range(8, 15)]}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    fit = json.loads((out / "ce-ratefit.json").read_text())
    assert fit["fit_sqrt_n_ss2"]["slope"] == pytest.approx(-0.3, abs=0.05)
    assert fit["max_delta_sqrt_ESn2"] == 0.0
    # plot data only for the decaying curve
    dat = (out / "ce-sqrt-n-ss2.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) == 1 + 7


def test_depcoef_task_outputs(tmp_path):
    doc = {**BASE, "task": "depcoef",
           "params": {"p": 2.0, "l_grid": [1, 2, 4], "R": 2000}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    csv_lines = (out / "t-depcoef.csv").read_text().splitlines()
    assert csv_lines[0] == "l,theta_prime,theta_star,se_prime,se_star"
    assert len(csv_lines) == 4
    assert (out / "t-depcoef-theta-prime.dat").exists()
    assert (out / "t-depcoef-theta-star.dat").exists()


def test_blocks_task(tmp_path):
    doc = {**BASE, "task": "blocks",
           "params": {"n": 16 * 11, "m": 16, "degeneracy_R": 1000}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    rec = json.loads((out / "t-blocks.json").read_text())
    assert rec["records"][0]["identity_residual"] < 1e-10
    assert rec["degeneracy_frequency"] == 0.0


def test_blocks_task_passes_mode_to_degeneracy(tmp_path, monkeypatch):
    """The task's mode and K route the degeneracy frequency too."""
    import weakdep.cli

    routes = []
    probability = weakdep.cli.degeneracy_probability

    def recording(*args, **kwargs):
        routes.append((kwargs.get("mode", "auto"), kwargs.get("K", 64)))
        return probability(*args, **kwargs)

    monkeypatch.setattr(weakdep.cli, "degeneracy_probability", recording)
    doc = {**BASE, "task": "blocks",
           "params": {"n": 14, "m": 2, "K": 16, "mode": "nested-mc",
                      "degeneracy_R": 1000}}
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    assert routes == [("nested-mc", 16)]
    rec = json.loads((out / "t-blocks.json").read_text())
    assert rec["records"][0]["mode"] == "nested-mc"


def test_seed_override_changes_digest(tmp_path):
    path = _write(tmp_path, BASE)
    cfg1 = load_config(path)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["run", path, "--out", str(out1)]) == EXIT_OK
    assert main(["run", path, "--out", str(out2), "--seed", "99"]) == EXIT_OK
    m1 = json.loads((out1 / "t-manifest.json").read_text())
    m2 = json.loads((out2 / "t-manifest.json").read_text())
    assert m1["config_digest"] != m2["config_digest"]
    assert m2["master_seed"] == 99


def test_config_requires_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**BASE, "seed": "zero"})


# every model variant x task: small parameters, so each cell can be run
CELL_MODELS = {
    "linear": BASE["model"],
    "holder": {"variant": "holder", "law": "standard-gaussian",
               "scheme": {"variant": "geometric", "rho": 0.5,
                          "length": 32}},
    "doubling": {"variant": "doubling", "observable": "cos2pi"},
    "gl-walk": {"variant": "gl-walk", "d": 2},
}
CELL_PARAMS = {
    "depcoef": {"l_grid": [1, 2], "R": 1000},
    "variance": {"K": 4, "n": 16, "m": 2, "R": 1000},
    "bedist": {"n": 16, "R": 1000, "normalization": "sqrt-ESn2"},
    "rate": {"n_grid": [2, 4, 8, 16], "R": 1000,
             "normalization": "sqrt-ESn2"},
    "blocks": {"n": 14, "m": 2, "K": 16},
    "counterexample": {"n_grid": [4, 8, 16, 32]},
    "assumptions": {"l_grid": [1, 2, 3, 4, 5, 6, 7, 8], "R": 1000},
}
# the cells without the capability their task needs: a window readout
# (depcoef, assumptions), an m-projection (blocks), or an exactly normal
# partial sum (counterexample)
UNSUPPORTED = {("gl-walk", "depcoef"), ("gl-walk", "assumptions"),
               ("holder", "blocks"), ("gl-walk", "blocks"),
               ("holder", "counterexample"), ("doubling", "counterexample"),
               ("gl-walk", "counterexample")}


@pytest.mark.parametrize("task", list(CELL_PARAMS))
@pytest.mark.parametrize("variant", list(CELL_MODELS))
def test_validate_agrees_with_run(tmp_path, variant, task):
    doc = {"name": "cell", "seed": 3, "model": CELL_MODELS[variant],
           "task": task, "params": CELL_PARAMS[task]}
    path = _write(tmp_path, doc)
    expected = EXIT_PRECONDITION if (variant, task) in UNSUPPORTED \
        else EXIT_OK
    assert main(["validate", path]) == expected
    assert main(["run", path, "--out", str(tmp_path / "o")]) == expected


@pytest.mark.parametrize("task, params", [
    # the doubling register is 64 bits deep; the default grid reaches 64
    ("depcoef", {}),
    ("variance", {"K": 4, "n": 16, "m": 2, "method": "exact-linear"}),
])
def test_validate_rejects_params_the_model_cannot_serve(tmp_path, task,
                                                        params):
    doc = {**BASE, "model": CELL_MODELS["doubling"], "task": task,
           "params": params}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_PRECONDITION


@pytest.mark.parametrize("model", [
    {"variant": "doubling", "observable": "sin"},
    {**BASE["model"], "law": "raw-bit"},
], ids=["doubling-sin", "linear-raw-bit"])
def test_unbuildable_model_is_a_precondition_error(tmp_path, model):
    path = _write(tmp_path, {**BASE, "model": model})
    assert main(["validate", path]) == EXIT_PRECONDITION
    assert main(["run", path, "--out", str(tmp_path / "o")]) \
        == EXIT_PRECONDITION


def test_validate_block_params(tmp_path):
    doc = {**BASE, "task": "blocks", "params": {"n": 48}}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_PARSE
    # no layout 2(N-1)m + m' = 12 with m/2 <= m' <= m exists for m = 2
    doc["params"] = {"n": 12, "m": 2}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_PRECONDITION


RADEMACHER = {**BASE["model"], "law": "rademacher"}
CENTERED_X = {"variant": "doubling", "observable": "centered-x"}
COS2PI = {"variant": "doubling", "observable": "cos2pi"}
RATE_GRID = [4, 8, 16, 32]
ASSUMPTIONS_P2 = {"l_grid": list(range(1, 9)), "p": 2, "b": 0.6, "R": 1000}


@pytest.mark.parametrize("task, model, params, expected", [
    ("rate", RADEMACHER,
     {"n_grid": RATE_GRID, "R": 1000, "method": "closedform"},
     EXIT_PRECONDITION),
    ("rate", RADEMACHER,
     {"n_grid": RATE_GRID, "R": 1000, "normalization": "sqrt-n"},
     EXIT_PRECONDITION),
    ("rate", RADEMACHER, {"n_grid": RATE_GRID, "R": 500}, EXIT_PRECONDITION),
    ("bedist", BASE["model"], {"n": 16, "R": 100}, EXIT_PRECONDITION),
    ("rate", BASE["model"],
     {"n_grid": RATE_GRID, "R": 0, "method": "closed-form"}, EXIT_OK),
    ("depcoef", BASE["model"], {"l_grid": [1, 2, 4, 8], "R": 100},
     EXIT_PRECONDITION),
    ("assumptions", BASE["model"],
     {"l_grid": [1, 2, 3, 4, 5, 6, 7, 8], "R": 100}, EXIT_PRECONDITION),
    ("blocks", BASE["model"],
     {"n": 14, "m": 2, "K": 16, "degeneracy_R": 100}, EXIT_PRECONDITION),
    ("bedist", BASE["model"], {"n": 0, "R": 1000}, EXIT_PRECONDITION),
    ("variance", BASE["model"], {"K": 0, "n": 16, "m": 2},
     EXIT_PRECONDITION),
    ("variance", BASE["model"], {"K": 4, "n": 16, "m": 0},
     EXIT_PRECONDITION),
    ("variance", BASE["model"], {"K": 4, "n": 0, "m": 2},
     EXIT_PRECONDITION),
    ("variance", CENTERED_X, {"K": 4, "n": 0, "m": 2}, EXIT_PRECONDITION),
    ("variance", CENTERED_X, {"K": 4, "n": -3, "m": 2}, EXIT_PRECONDITION),
    ("depcoef", BASE["model"], {"l_grid": [1, 2], "R": 1000, "p": 0.5},
     EXIT_PRECONDITION),
    ("depcoef", BASE["model"], {"l_grid": [-1, 2], "R": 1000},
     EXIT_PRECONDITION),
    ("assumptions", BASE["model"], {"l_grid": [1, 2, 4, 8], "R": 1000},
     EXIT_PRECONDITION),
    ("rate", BASE["model"], {"n_grid": [0, 0, 0, 0]}, EXIT_PRECONDITION),
    ("rate", RADEMACHER, {"n_grid": [-1, -2, -4, -8], "R": 1000},
     EXIT_PRECONDITION),
    ("counterexample", BASE["model"], {"n_grid": [0, 0, 0, 0]},
     EXIT_PRECONDITION),
    ("variance", {"variant": "linear"}, {"K": 4, "n": 16, "m": 2},
     EXIT_PARSE),
    ("variance", {"variant": "linear",
                  "scheme": {"variant": "explicit", "alpha": ["a"]}},
     {"K": 4, "n": 16, "m": 2}, EXIT_PARSE),
    ("variance", BASE["model"], {"K": "four", "n": 16, "m": 2}, EXIT_PARSE),
    ("assumptions", BASE["model"], {"mode": "closed-form", "p": 3, "b": 0.7},
     EXIT_PRECONDITION),
    ("assumptions", BASE["model"], {"mode": "closed-form", "p": 2, "b": 0.6},
     EXIT_OK),
    # the default K = 64 is past the exact-doubling lag cap of 24, on the
    # auto route and on the named one
    ("variance", COS2PI, {"n": 64}, EXIT_PRECONDITION),
    ("variance", COS2PI, {"K": 25, "n": 16, "m": 2,
                          "method": "exact-doubling"}, EXIT_PRECONDITION),
    # the doubling model has no closed-form profile, and a misspelled mode
    # names no route
    ("assumptions", COS2PI, {**ASSUMPTIONS_P2, "mode": "closed-form"},
     EXIT_PRECONDITION),
    ("assumptions", BASE["model"], {**ASSUMPTIONS_P2, "mode": "closedform"},
     EXIT_PRECONDITION),
    # R is read on either assumptions route, so the closed form accepts it
    ("assumptions", BASE["model"],
     {"mode": "closed-form", "p": 2, "b": 0.6, "R": 1000}, EXIT_OK),
    # a zero-length geometric scheme has no coefficient
    ("variance", {**BASE["model"],
                  "scheme": {"variant": "geometric", "rho": 0.5, "length": 0}},
     {"K": 4, "n": 16, "m": 2}, EXIT_PRECONDITION),
    # the Monte Carlo variance route (the GL_2 walk has no other, and a
    # linear model takes it by name) needs R >= 1000; an exact route
    # reads R and ignores it
    ("variance", CELL_MODELS["gl-walk"], {"K": 4, "n": 16, "m": 2, "R": 0},
     EXIT_PRECONDITION),
    ("variance", CELL_MODELS["gl-walk"], {"K": 4, "n": 16, "m": 2, "R": 999},
     EXIT_PRECONDITION),
    ("variance", BASE["model"],
     {"K": 4, "n": 16, "m": 2, "R": 10, "method": "monte-carlo"},
     EXIT_PRECONDITION),
    ("variance", BASE["model"], {"K": 4, "n": 16, "m": 2, "R": 10}, EXIT_OK),
    # counts past their caps, which used to pass validate and fail inside
    # numpy at run time (exit 1)
    ("bedist", RADEMACHER, {"n": 16, "R": 2**62}, EXIT_PRECONDITION),
    ("variance", CELL_MODELS["gl-walk"],
     {"K": 2**62, "n": 16, "m": 2, "R": 1000}, EXIT_PRECONDITION),
    ("rate", {"variant": "gl-walk", "d": 2**40}, CELL_PARAMS["rate"],
     EXIT_PRECONDITION),
], ids=["unknown-method", "unknown-normalization", "monte-carlo-R",
        "bedist-R", "closed-form-R-0", "depcoef-R", "assumptions-R",
        "blocks-degeneracy-R", "bedist-n-0", "variance-K-0", "variance-m-0",
        "variance-n-0", "doubling-variance-n-0", "doubling-variance-n-neg",
        "depcoef-p-below-1", "depcoef-negative-lag",
        "assumptions-short-grid", "rate-grid-0",
        "rate-grid-negative", "counterexample-grid-0", "model-no-scheme",
        "scheme-alpha-not-a-number", "variance-K-not-a-number",
        "closed-form-assumptions-p-3", "closed-form-assumptions-p-2",
        "doubling-variance-default-K", "doubling-variance-K-25",
        "closed-form-assumptions-doubling", "assumptions-mode-typo",
        "closed-form-assumptions-R", "geometric-length-0",
        "gl-variance-R-0", "gl-variance-R-999", "linear-mc-variance-R-10",
        "exact-variance-R-10", "bedist-R-2**62", "gl-variance-K-2**62",
        "gl-rate-d-2**40"])
def test_validate_and_run_agree_on_rate_params(tmp_path, task, model, params,
                                               expected):
    path = _write(tmp_path, {**BASE, "model": model, "task": task,
                             "params": params})
    assert main(["validate", path]) == expected
    assert main(["run", path, "--out", str(tmp_path / "o")]) == expected


@pytest.mark.parametrize("lambda_max, expected",
                         [(354.0, EXIT_OK), (400.0, EXIT_PRECONDITION)])
def test_gl_lambda_max_bound(tmp_path, capsys, lambda_max, expected):
    """Past lambda_max = 354 the squared gains overflow; such a config
    used to pass validate and end its run on NaN sums ("band ordering
    violated").  Both commands now refuse it and name the bound."""
    path = _write(tmp_path, {**BASE, "task": "rate",
                             "model": {"variant": "gl-walk",
                                       "lambda_max": lambda_max},
                             "params": CELL_PARAMS["rate"]})
    assert main(["validate", path]) == expected
    assert main(["run", path, "--out", str(tmp_path / "o")]) == expected
    err = capsys.readouterr().err
    assert err.count("lambda_max must lie in [0, 354]") == (
        2 if expected == EXIT_PRECONDITION else 0)


def test_doubling_variance_lag_cap_boundary(tmp_path):
    """K = 24 is the last lag the exact-doubling table holds: on the auto
    route it validates and runs, and K = 25 exits 3 from both commands."""
    _check_lags("exact-doubling", 24)
    with pytest.raises(PreconditionError):
        _check_lags("exact-doubling", 25)
    for K, expected in ((24, EXIT_OK), (25, EXIT_PRECONDITION)):
        path = _write(tmp_path, {**BASE, "model": COS2PI, "task": "variance",
                                 "params": {"K": K, "n": 16, "m": 2}})
        assert main(["validate", path]) == expected
        out = str(tmp_path / f"o{K}")
        assert main(["run", path, "--out", out]) == expected


@pytest.mark.parametrize("doc", [
    {**BASE, "threads": "x"},
    {**BASE, "threads": 0},
    {**BASE, "threads": -2},
    {**BASE, "threads": 2.7},
    {**BASE, "threads": True},
    {**BASE, "threads": "4"},
    {**BASE, "seed": True},
    {**BASE, "params": {"K": 8, "n": 64.9, "m": 4}},
    {**BASE, "params": {"K": "8", "n": 64, "m": 4}},
    {**BASE, "params": {"K": 8, "n": 64, "m": 4, "R": 2000.5}},
    {**BASE, "task": "rate", "params": {"n_grid": [64, 128, 256, 512.0],
                                        "R": 1000}},
    {**BASE, "task": "depcoef", "params": {"l_grid": [1, 2], "R": 1000,
                                           "p": "2"}},
    {**BASE, "model": {**BASE["model"], "scheme": {
        "variant": "geometric", "rho": "0.5", "length": 32}}},
    {**BASE, "model": {**BASE["model"], "scheme": {
        "variant": "geometric", "rho": 0.5, "length": 32.0}}},
    {**BASE, "name": "../escaped"},
    {**BASE, "name": 7},
    {**BASE, "name": ""},
    {**BASE, "out_dir": 5},
    {**BASE, "task": ["variance"]},
    {**BASE, "seed": 2 ** 70},
    {**BASE, "seed": 2 ** 64},
    {**BASE, "seed": -1},
    {**BASE, "task": "depcoef", "seed": -1,
     "params": {"l_grid": [1, 2], "R": 1000}},
], ids=["threads-x", "threads-0", "threads-neg", "threads-float",
        "threads-bool", "threads-str", "seed-bool", "n-float", "K-str",
        "R-float", "n-grid-float", "p-str", "rho-str", "length-float",
        "name-path", "name-int", "name-empty", "out-dir-int", "task-list",
        "seed-2-70", "seed-2-64", "seed-neg", "depcoef-seed-neg"])
def test_validate_and_run_reject_non_integer_threads(tmp_path, doc):
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == EXIT_PARSE
    assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_PARSE


def test_null_out_dir_keeps_the_default(tmp_path, monkeypatch):
    path = _write(tmp_path, {**BASE, "out_dir": None})
    monkeypatch.setenv("WEAKDEP_OUT", str(tmp_path / "o"))
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path]) == EXIT_OK
    assert (tmp_path / "o" / "t-manifest.json").exists()


@pytest.mark.parametrize("doc", [
    {**BASE, "task": "rate",
     "params": {"n_grid": RATE_GRID, "R": 1000, "normalisation": "sqrt-ESn2"},
     "model": RADEMACHER},
    {**BASE, "model": {**BASE["model"], "scheme": {
        "variant": "geometric", "rho": 0.5, "lenght": 16}}},
    {**BASE, "model": {**BASE["model"], "lwa": "rademacher"}},
    {**BASE, "model": {**COS2PI, "law": "rademacher"}},
    {**BASE, "task": "counterexample", "params": {"n_grid": RATE_GRID,
                                                  "R": 1000}},
], ids=["params-normalisation", "scheme-lenght", "model-lwa",
        "doubling-law", "counterexample-R"])
def test_validate_and_run_refuse_keys_nothing_reads(tmp_path, capsys, doc):
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == EXIT_PARSE
    assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_PARSE
    assert "nothing reads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_run_rejects_threads_flag_below_one(tmp_path, threads):
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, BASE), "--out", str(out),
                 "--threads", threads]) == EXIT_PARSE
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_run_rejects_seed_flag_outside_64_bits(tmp_path, seed):
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, BASE), "--out", str(out),
                 "--seed", seed]) == EXIT_PARSE
    assert not out.exists()


def test_largest_seed_runs(tmp_path):
    doc = {**BASE, "seed": 2 ** 64 - 1}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_OK
    assert main(["run", _write(tmp_path, BASE), "--out",
                 str(tmp_path / "o"), "--seed", str(2 ** 64 - 1)]) == EXIT_OK


def _usual_validate_cases():
    """(config, usual validate exit code) for every preset and cell."""
    cases = [(doc, EXIT_OK) for doc in PRESETS.values()]
    for variant, model in CELL_MODELS.items():
        for task, params in CELL_PARAMS.items():
            doc = {"name": "cell", "seed": 3, "model": model, "task": task,
                   "params": params}
            cases.append((doc, EXIT_PRECONDITION
                          if (variant, task) in UNSUPPORTED else EXIT_OK))
    return cases


def test_validate_computes_nothing(tmp_path, monkeypatch):
    """validate runs each task only up to its first computation, so it
    gives its usual exit codes without drawing a single innovation."""
    import weakdep.innovations
    import weakdep.processes

    def no_words(*args, **kwargs):
        raise AssertionError("validate hashed innovations")

    monkeypatch.setattr(weakdep.innovations, "raw_words", no_words)
    monkeypatch.setattr(weakdep.processes, "raw_words", no_words)
    for doc, expected in _usual_validate_cases():
        assert main(["validate", _write(tmp_path, doc)]) == expected, doc
