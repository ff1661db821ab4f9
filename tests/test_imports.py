"""The exact layer and the CLI run without importing numpy or scipy.

``freemeixner`` loads its float layer (``numerics``, and with it numpy and
``scipy.linalg``) the first time one of the float names is looked up.  One
fresh interpreter runs every exact CLI command in-process and reports which
of those packages it holds before and after that first lookup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freemeixner

SRC = Path(__file__).resolve().parents[1] / "src"

FLOAT_NAMES = (
    "IntegralEstimate",
    "QuadratureRule",
    "gauss_rule",
    "integrate_against_law",
    "panel_integral",
    "stieltjes_invert",
)

# Commands that need no numerics; transform runs without --eps.
EXACT_COMMANDS = [
    ["moments", "--a", "1", "--b", "1", "--n", "8"],
    ["cumulants", "--a", "0", "--b", "1", "--n", "8"],
    ["cumulants", "--a", "1", "--b", "1", "--n", "8", "--q", "1/2"],
    ["classify", "--a", "3", "--b", "1"],
    ["atoms", "--a", "0", "--b", "1"],
    ["density", "--a", "2", "--b", "0", "--xmin", "1", "--xmax", "4", "--points", "20"],
    ["convolve-power", "--a", "2", "--b", "1", "--t", "4", "--n", "10"],
    ["levy", "--eta", "1", "--sigma", "2", "--t", "2", "--n", "8"],
    ["transform", "--a", "0", "--b", "0", "--z", "3+0.5j"],
    ["verify", "--suite", "regression", "--a", "1", "--b", "1", "--n", "4"],
    ["verify", "--suite", "recursion", "--a", "1", "--b", "1"],
    ["verify", "--suite", "levy", "--eta", "1", "--sigma", "2"],
]

CHILD = """
import contextlib, io, json, sys
import freemeixner, freemeixner.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(freemeixner.cli.main(argv))
exact = loaded()
freemeixner.gauss_rule
after = loaded()
star = {}
exec("from freemeixner import *", star)
print(json.dumps({"codes": codes, "exact": exact, "after": after,
                  "star": sorted(k for k in star if not k.startswith("__"))}))
"""

# sorted(freemeixner.__all__) when every name was imported eagerly
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
    "panel_integral", "q_binomial", "q_cumulants", "q_factorial", "q_integer",
    "r_transform", "scalars", "semicircle_moments", "series_radius", "singleton_count",
    "stieltjes_invert", "support", "translate", "verify", "verify_levy_martingale",
    "verify_linear_regression", "verify_mixed_cumulants", "verify_moment_recursion",
    "verify_orthogonality", "verify_quadratic_variance",
]


@pytest.fixture(scope="module")
def fresh():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(EXACT_COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_exact_commands_import_no_numerics(fresh):
    assert fresh["codes"] == [0] * len(EXACT_COMMANDS)
    assert fresh["exact"] == []


def test_first_float_name_loads_numerics(fresh):
    assert "numpy" in fresh["after"]
    assert "scipy.linalg" in fresh["after"]


def test_star_import_binds_float_names(fresh):
    assert fresh["star"] == PACKAGE_ALL


def test_lazy_name_is_the_numerics_object():
    assert freemeixner.gauss_rule is freemeixner.numerics.gauss_rule
    assert all(getattr(freemeixner, name) is getattr(freemeixner.numerics, name)
               for name in FLOAT_NAMES)


def test_all_is_unchanged():
    assert sorted(freemeixner.__all__) == PACKAGE_ALL


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        freemeixner.no_such_name
