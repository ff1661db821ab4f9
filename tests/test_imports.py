"""freemeixner needs only the standard library, and a CLI call loads only
the layers its subcommand runs.

One fresh interpreter imports the package, runs every CLI subcommand
in-process (the float-layer ones included) and the float-layer entry
points, and reports whether numpy or scipy ever loaded.  One fresh
interpreter per subcommand reports which of the lazy layers (``verify``,
``numerics``, ``ncpart``) and of ``dataclasses``/``inspect`` it loaded, and
one ``python -m freemeixner.cli`` per subcommand loads no module outside the
package that a bare interpreter importing the CLI's standard library does
not.  No module compiles source at run time.
The installed metadata declares no runtime dependency.
"""

import ast
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import freemeixner

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

COMMANDS = [
    ["moments", "--a", "1", "--b", "1", "--n", "8"],
    ["cumulants", "--a", "0", "--b", "1", "--n", "8"],
    ["cumulants", "--a", "1", "--b", "1", "--n", "8", "--q", "1/2"],
    ["classify", "--a", "3", "--b", "1"],
    ["atoms", "--a", "0", "--b", "1"],
    ["density", "--a", "2", "--b", "0", "--xmin", "1", "--xmax", "4", "--points", "20"],
    ["convolve-power", "--a", "2", "--b", "1", "--t", "4", "--n", "10"],
    ["levy", "--eta", "1", "--sigma", "2", "--t", "2", "--n", "8"],
    ["transform", "--a", "0", "--b", "0", "--z", "3+0.5j"],
    ["transform", "--a", "1", "--b", "1", "--z", "0.5", "--eps", "1e-6"],
    ["verify", "--suite", "regression", "--a", "1", "--b", "1", "--n", "4"],
    ["verify", "--suite", "recursion", "--a", "1", "--b", "1"],
    ["verify", "--suite", "orthogonality", "--a", "1", "--b", "1"],
    ["verify", "--suite", "levy", "--eta", "1", "--sigma", "2"],
    ["verify", "--suite", "all", "--a", "1", "--b", "1", "--alpha", "1/2"],
]

CHILD = """
import contextlib, io, json, sys
import freemeixner, freemeixner.cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(freemeixner.cli.main(argv))
law = freemeixner.MeixnerLaw.from_params(freemeixner.MeixnerParams(1, 1))
freemeixner.gauss_rule(law.params, 64)
freemeixner.integrate_against_law(law, lambda x: x * x)
star = {}
exec("from freemeixner import *", star)
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "star": sorted(k for k in star if not k.startswith("__"))}))
"""

PACKAGE_ALL = [
    "CumulantSequence", "DEFAULT_ENUMERATION_CAP", "DomainError", "EnumerationCapError",
    "FreeMeixnerError", "FreePairSpec", "IntegralEstimate", "LevyParams", "MAX_ORDER",
    "MeixnerLaw", "MeixnerParams", "MeixnerType", "MomentSequence", "NumericError",
    "OrderCapError", "Partition", "QuadratureRule", "RegressionReport", "SemicircleParams",
    "atoms", "binomial_decomposition", "build_free_pair", "cauchy_transform", "classify",
    "convolution_power", "cumulants", "cumulants_to_moments", "density", "dilate",
    "enumerate_nc", "enumerate_nc_le2", "errors", "free_convolve", "free_pair_moment",
    "free_pair_prefix_moments", "gauss_rule", "integrate_against_law", "is_crossing",
    "jacobi_coefficients", "joint_moment_free_pair", "levy_marginal",
    "marginal_law_params", "meixner", "moment_generating", "moments",
    "moments_to_cumulants", "ncpart", "numerics", "orthogonal_polynomial",
    "panel_integral", "q_binomial", "q_cumulants",
    "r_transform", "scalars", "semicircle_moments", "series_radius", "singleton_count",
    "stieltjes_invert", "support", "translate", "verify", "verify_levy_martingale",
    "verify_linear_regression", "verify_mixed_cumulants", "verify_moment_recursion",
    "verify_orthogonality", "verify_quadratic_variance",
]


# Modules a cold CLI call loads only when its subcommand runs them.
WATCHED = ["dataclasses", "freemeixner.ncpart", "freemeixner.numerics", "freemeixner.verify",
           "inspect"]

COLD_CHILD = """
import contextlib, io, json, sys
import freemeixner.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = freemeixner.cli.main(json.loads(sys.argv[1]))
loaded = [m for m in json.loads(sys.argv[2]) if m in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_layers(argv):
    """The watched modules a fresh interpreter holds after ``argv``."""
    if argv[0] != "verify":
        return ["freemeixner.numerics"] if "--eps" in argv else []
    suite = argv[argv.index("--suite") + 1]
    if suite in ("orthogonality", "all"):
        return ["freemeixner.numerics", "freemeixner.verify"]
    return ["freemeixner.verify"]


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
def test_cold_command_loads_only_its_layers(argv):
    proc = subprocess.run([sys.executable, "-c", COLD_CHILD, json.dumps(argv), json.dumps(WATCHED)],
                          env=child_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    result = json.loads(proc.stdout)
    assert result == {"code": 0, "loaded": cold_layers(argv)}


LAZY_CHILD = """
import json, sys
import freemeixner as fm

out = {"before": sorted(m for m in sys.modules if m.startswith("freemeixner."))}
cap = fm.enumerate_nc_le2
out["bound"] = "enumerate_nc_le2" in vars(fm)
out["same"] = cap is sys.modules["freemeixner.ncpart"].enumerate_nc_le2
try:
    cap(15)
except fm.EnumerationCapError as exc:
    out["raised"] = str(exc)
out["modules"] = [fm.verify.__name__, fm.numerics.__name__]
print(json.dumps(out))
"""


def test_lazy_names_load_their_layer_and_bind_on_first_lookup():
    proc = subprocess.run([sys.executable, "-c", LAZY_CHILD], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["before"] == ["freemeixner.cumulants", "freemeixner.errors",
                             "freemeixner.meixner", "freemeixner.scalars"]
    assert out["bound"] and out["same"]
    assert "15" in out["raised"]
    assert out["modules"] == ["freemeixner.verify", "freemeixner.numerics"]


def test_no_module_imports_dataclasses_or_inspect():
    """The value classes build on ``scalars.Frozen``: importing ``dataclasses``
    (and the ``inspect`` it pulls in) costs every cold CLI call."""
    for path in sorted((SRC / "freemeixner").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            tops = {name.split(".")[0] for name in names}
            assert not tops & {"dataclasses", "inspect"}, f"{path.name}:{node.lineno}"


def test_no_module_compiles_source():
    """No module names ``exec``, ``eval`` or ``compile``: source built at run
    time is compiled afresh on every cold CLI call."""
    for path in sorted((SRC / "freemeixner").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                assert node.id not in {"exec", "eval", "compile"}, f"{path.name}:{node.lineno}"


# Modules outside the package that a cold CLI call may load beyond those of a
# bare interpreter that imports the CLI's standard library and builds one
# parser: what ``python -m`` itself loads, and the package's
# ``from __future__ import annotations``.
PINNED = {"__future__", "importlib.machinery", "runpy"}


def imported_modules(*args):
    """The modules ``python -X importtime <args>`` imports, from its report."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("| imported package")}


@pytest.fixture(scope="module")
def bare_modules():
    return imported_modules(
        "-c", "import argparse, cmath, fractions, json; argparse.ArgumentParser()")


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
def test_cold_command_loads_no_new_module(argv, bare_modules):
    loaded = imported_modules("-m", "freemeixner.cli", *argv)
    assert "freemeixner.meixner" in loaded  # the CLI runs as __main__
    outside = {m for m in loaded if m.split(".")[0] != "freemeixner"}
    assert outside - bare_modules - PINNED == set()


@pytest.fixture(scope="module")
def fresh():
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
                          env=child_env(), capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_every_command_runs(fresh):
    assert fresh["codes"] == [0] * len(COMMANDS)


def test_numpy_and_scipy_never_load(fresh):
    assert fresh["loaded"] == []


def test_star_import_binds_float_names(fresh):
    assert fresh["star"] == PACKAGE_ALL


def test_all_is_unchanged():
    assert sorted(freemeixner.__all__) == PACKAGE_ALL


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        freemeixner.no_such_name


def test_no_runtime_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
