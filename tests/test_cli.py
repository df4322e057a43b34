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
from weakdep.errors import ConfigError


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
    "variance": {"K": 4, "n": 16, "m": 2, "R": 256},
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


def test_validate_block_params(tmp_path):
    doc = {**BASE, "task": "blocks", "params": {"n": 48}}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_PARSE
    # no layout 2(N-1)m + m' = 12 with m/2 <= m' <= m exists for m = 2
    doc["params"] = {"n": 12, "m": 2}
    assert main(["validate", _write(tmp_path, doc)]) == EXIT_PRECONDITION
