"""Structural rules of the package, checked on its source.

Per-family behaviour lives on the model and coefficient-scheme classes in
``processes``: no module tests a model's or a scheme's class, the consumer
modules reach the models only through the public functions and the model
methods, and the command line names a model class only where it builds the
model from a config.  ``dependence.theta_mc`` is the one coupling
construction: the scalar window reference lives in the tests.  The
Delta_n grid runner in ``rates`` is the one place that maps a grid, with or
without threads, and the command line reaches it and its checks through
public names only.  ``errors.choose_route`` is the one route selector: no
other module compares a value with ``"auto"``.  Starting the command line
loads no scipy module: Phi and the Hurwitz zeta function are ports
(``weakdep._cephes``), so a rate run of the doubling map, the GL_2 walk or
a non-Gaussian linear model loads none at all; the Gaussian law loads
``scipy.special`` when its model is built, the heavier scipy subpackages
load where they are called, and the GL_2 centering's quadrature rule is a
table.  The doubling autocovariances are a table too, so no module
reaches ``numpy.polynomial``, and a serial run never imports
``concurrent.futures``.  The laws' moments use ``math`` alone, so no
moment loads ``scipy.special``.  Every optional parameter of a library
function is set by some call.  The package version has one source,
``weakdep.__version__``, which ``pyproject.toml`` reads.
"""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import weakdep

SRC = Path(__file__).resolve().parent.parent / "src" / "weakdep"
PUBLIC_MODELS = {"LinearModel", "HolderOfLinearModel", "DoublingModel",
                 "DoublingProjectedModel", "GLdWalkModel"}
CONSUMERS = ("variance", "blocks", "bedistance", "rates", "dependence")
# the scalar window coupling of tests/coupling_reference.py
WINDOW_API = {"InnovationWindow", "draw_window", "primed_window",
              "starred_window", "_prime_slots", "evaluate", "_check_window"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), f"{module}.py")


def _bases() -> dict:
    return {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
            for node in ast.walk(_tree("processes"))
            if isinstance(node, ast.ClassDef)}


def _model_classes() -> set:
    """The public model classes and every class in processes that they
    derive from."""
    bases = _bases()
    models, todo = set(), list(PUBLIC_MODELS)
    while todo:
        name = todo.pop()
        if name not in models:
            models.add(name)
            todo.extend(bases.get(name, ()))
    return models


def _scheme_classes() -> set:
    """CoefficientScheme and every class in processes derived from it."""
    bases = _bases()
    schemes = {"CoefficientScheme"}
    while new := {n for n, bs in bases.items() if schemes & set(bs)} - schemes:
        schemes |= new
    return schemes


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_tests_a_model_class():
    models = _model_classes() | _scheme_classes()
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and _names(node.args[1]) & models]
    assert sites == []


def test_no_module_defines_the_window_coupling():
    defined = [f"{path.name}:{node.lineno} {node.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name in WINDOW_API]
    assert defined == []


def test_consumers_import_no_model_internals():
    models = _model_classes()
    imports = [f"{module}: {alias.name}"
               for module in CONSUMERS
               for node in ast.walk(_tree(module))
               if isinstance(node, ast.ImportFrom)
               and node.module in ("processes", "weakdep.processes")
               for alias in node.names
               if alias.name.startswith("_") or alias.name in models]
    assert imports == []


def test_cli_names_model_classes_only_to_build_them():
    models = _model_classes()
    tree = _tree("cli")
    in_build_model = {id(n) for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name == "build_model"
               for n in ast.walk(f)}
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in models
            and id(node) not in in_build_model]
    assert uses == []


def test_cli_imports_no_private_rate_names():
    imports = [f"{node.module}: {alias.name}"
               for node in ast.walk(_tree("cli"))
               if isinstance(node, ast.ImportFrom)
               and node.module in ("rates", "weakdep.rates", "bedistance",
                                   "weakdep.bedistance", "dependence",
                                   "weakdep.dependence")
               for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def test_only_rates_names_a_thread_pool():
    modules = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {a.name for a in ast.walk(tree) if isinstance(a, ast.alias)}
        if "ThreadPoolExecutor" in _names(tree) | aliases:
            modules.add(path.stem)
    assert modules == {"rates"}


def test_no_module_reaches_numpy_polynomial():
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "polynomial"
             or isinstance(node, ast.alias) and "polynomial" in node.name
             or isinstance(node, ast.ImportFrom)
             and "polynomial" in (node.module or "")]
    assert sites == []


def _run_script(script: str, *args: str) -> list[str]:
    """The stdout lines of ``script`` run in a fresh interpreter on the
    checkout's ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script, *args], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.splitlines()


def test_cli_start_loads_no_heavy_scipy_subpackage():
    """Importing the command line, validating every preset and computing
    the exact GL_2 centering leave the heavy scipy subpackages unloaded."""
    heavy = ("scipy.integrate", "scipy.linalg", "scipy.optimize",
             "scipy.signal", "scipy.stats")
    script = f"""
import sys
from weakdep.cli import PRESETS, ExperimentConfig
from weakdep.processes import GLdWalkModel, gl_center_profile
for doc in PRESETS.values():
    ExperimentConfig.from_dict(doc)
gl_center_profile(GLdWalkModel(d=2), 0)
print(sorted(set({heavy!r}) & set(sys.modules)))
"""
    assert _run_script(script) == ["[]"]


def test_non_gaussian_rate_runs_load_no_scipy(tmp_path):
    """Rate runs of the doubling map, the GL_2 walk and a Rademacher linear
    model, over both normalizations, load no scipy module, no
    ``numpy.polynomial`` (the doubling lags are a table) and, on one
    thread, no ``concurrent.futures``; reading a
    standard-Gaussian Hoelder config loads ``scipy.special``, so a
    Gaussian run pays for it before ``run_config``."""
    models = [{"variant": "doubling", "observable": "cos2pi"},
              {"variant": "gl-walk", "d": 2},
              {"variant": "linear", "law": "rademacher",
               "scheme": {"variant": "geometric", "rho": 0.5,
                          "length": 16}}]
    script = f"""
import sys
from weakdep.cli import PRESETS, ExperimentConfig, run_config
for i, model in enumerate({models!r}):
    cfg = ExperimentConfig.from_dict({{
        "name": f"m{{i}}", "seed": 1, "model": model, "task": "rate",
        "params": {{"n_grid": [2, 4, 8, 16], "R": 1000,
                    "normalization": ["sqrt-n-ss2", "sqrt-ESn2"]}}}})
    run_config(cfg, out_dir=sys.argv[1])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted({{"numpy.polynomial", "concurrent.futures"}} & set(sys.modules)))
ExperimentConfig.from_dict(PRESETS["holder-of-linear"])
print("scipy.special" in sys.modules)
"""
    assert _run_script(script, str(tmp_path)) == ["[]", "[]", "True"]


def test_law_moments_load_no_scipy():
    """Every law's |eps|^p and central moments are analytic in ``math``:
    evaluating them all leaves ``scipy.special`` unloaded."""
    script = """
import sys
from weakdep.innovations import LAWS
for law in LAWS.values():
    for p in (0.5, 1.0, 2.0, 3.0, 4.5):
        law.abs_moment(p)
    for k in range(7):
        law.central_moment(k)
print("scipy.special" in sys.modules)
"""
    assert _run_script(script) == ["False"]


def test_pyproject_reads_the_package_version():
    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] table as beta
        warnings.simplefilter("ignore")
        config = read_configuration(SRC.parent.parent / "pyproject.toml",
                                    expand=True)
    assert config["project"]["version"] == weakdep.__version__


def _is_auto(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_auto, node.elts))
    return isinstance(node, ast.Constant) and node.value == "auto"


def test_only_the_route_selector_compares_with_auto():
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare)
             and any(map(_is_auto, [node.left, *node.comparators]))]
    assert sites == []



def _sets(call: ast.Call, offset: int, index, arg: str) -> bool:
    """Whether ``call`` sets parameter ``arg``, at positional ``index``
    (None when keyword-only); ``offset`` counts a method's implicit self,
    and ``*args`` or ``**kwargs`` in a call set every parameter."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) + offset > index)


def test_every_optional_parameter_is_passed_somewhere():
    """Each optional parameter of a library function is set by at least one
    call in the library, the tests, the benchmark or the scripts: an option
    that no caller sets is a constant.  Calls match by function name."""
    root = SRC.parent.parent
    calls: dict = {}
    for path in [*root.glob("src/**/*.py"), *root.glob("tests/*.py"),
                 *root.glob("perfbench/*.py"), *root.glob("scripts/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                calls.setdefault(name, []).append(
                    (node, isinstance(f, ast.Attribute)))
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = [*fn.args.posonlyargs, *fn.args.args]
            first = len(args) - len(fn.args.defaults)
            optional = [(i, a.arg) for i, a in enumerate(args) if i >= first]
            optional += [(None, a.arg) for a, d in
                         zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                         if d is not None]
            for index, arg in optional:
                if not any(_sets(call, attribute and id(fn) in methods,
                                 index, arg)
                           for call, attribute in calls.get(fn.name, ())):
                    unset.append(f"{path.name}:{fn.lineno} {fn.name}({arg})")
    assert unset == []
