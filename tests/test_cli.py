import contextlib
import io
import json
import math
import re
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemeixner.cli import MAX_DENSITY_POINTS, MAX_SEQUENCE_ORDER, main

PAYLOAD_SCHEMA = {
    "type": "object",
    "required": ["command", "params", "data", "provenance"],
    "properties": {
        "command": {"type": "string"},
        "params": {"type": "object"},
        "data": {"type": "object"},
        "provenance": {
            "type": "object",
            "required": ["identities"],
            "properties": {"identities": {"type": "array"}},
        },
    },
}


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, PAYLOAD_SCHEMA)
    return code, payload


class TestMoments:
    def test_exact_values(self, capsys):
        code, payload = run_json(capsys, "moments", "--a", "1", "--b", "1", "--n", "4")
        assert code == 0
        got = [row[1] for row in payload["data"]["rows"]]
        assert got == ["1", "0", "1", "1", "4"]
        assert payload["provenance"]["exact"] is True

    def test_float_mode(self, capsys):
        code, payload = run_json(capsys, "moments", "--a", "0.5", "--b", "1", "--n", "3")
        assert code == 0
        assert payload["provenance"]["exact"] is False
        assert payload["data"]["rows"][3][1] == 0.5

    def test_order_cap(self, capsys):
        assert main(["moments", "--a", "0", "--b", "0", "--n", "25"]) == 2


class TestCumulants:
    def test_catalan_pattern(self, capsys):
        code, payload = run_json(capsys, "cumulants", "--a", "0", "--b", "1", "--n", "8")
        assert code == 0
        got = [row[1] for row in payload["data"]["rows"]]
        assert got == ["0", "1", "0", "1", "0", "2", "0", "5"]

    def test_fifth_cumulant(self, capsys):
        code, payload = run_json(capsys, "cumulants", "--a", "1", "--b", "1", "--n", "5")
        assert payload["data"]["rows"][-1][1] == "4"

    def test_method_agreement(self, capsys):
        _, nc = run_json(capsys, "cumulants", "--a", "2", "--b", "3", "--n", "10")
        _, inv = run_json(
            capsys, "cumulants", "--a", "2", "--b", "3", "--n", "10",
            "--method", "from_moments",
        )
        assert nc["data"]["rows"] == inv["data"]["rows"]

    def test_q_deformed(self, capsys):
        _, q0 = run_json(capsys, "cumulants", "--a", "1", "--b", "2", "--n", "9", "--q", "0")
        _, free = run_json(capsys, "cumulants", "--a", "1", "--b", "2", "--n", "9")
        assert q0["data"]["rows"] == free["data"]["rows"]
        assert q0["provenance"]["identities"] == ["q-deformed-recursion"]

    def test_order_24_matches_moment_inversion(self, capsys):
        args = ("cumulants", "--a", "1/3", "--b", "-1/2", "--n", "24")
        code, nc = run_json(capsys, *args)
        assert code == 0
        _, inv = run_json(capsys, *args, "--method", "from_moments")
        assert len(nc["data"]["rows"]) == 24
        assert nc["data"]["rows"] == inv["data"]["rows"]

    @pytest.mark.parametrize("extra", [["--n", "0"], ["--n", "1"], ["--n", "1", "--q", "1/2"],
                                       ["--n", "25"]])
    def test_order_outside_range_rejected(self, capsys, extra):
        code = main(["cumulants", "--a", "1", "--b", "1", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert "order must lie in 2..24" in captured.err
        assert captured.out == ""

    def test_float_methods_print_alike(self, capsys):
        args = ["cumulants", "--a", "0.5", "--b", "1", "--n", "3", "--format", "csv"]
        outputs = []
        for method in ("nc_le2", "semicircle", "from_moments"):
            assert main(args + ["--method", method]) == 0
            outputs.append(capsys.readouterr().out.split("n,R_n\n")[1])
        assert outputs == ["1,0.0\n2,1.0\n3,0.5\n"] * 3

    def test_semicircle_method_domain_error(self, capsys):
        code = main(["cumulants", "--a", "0", "--b", "-1/2", "--n", "6",
                     "--method", "semicircle"])
        assert code == 2


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,label",
        [
            ("0", "0", "Semicircle"),
            ("3", "1", "FreePascal"),
            ("1", "1", "PureFreeMeixner"),
            ("2", "1", "FreeGamma"),
            ("1/2", "-3/10", "FreeBinomial"),
        ],
    )
    def test_labels(self, capsys, a, b, label):
        code, payload = run_json(capsys, "classify", "--a", a, "--b", b)
        assert code == 0
        assert payload["data"]["label"] == label
        assert payload["data"]["predicates"]


class TestDensity:
    def test_semicircle_midpoint(self, capsys):
        code, payload = run_json(
            capsys, "density", "--a", "0", "--b", "0",
            "--xmin", "-2", "--xmax", "2", "--points", "5",
        )
        assert code == 0
        rows = payload["data"]["rows"]
        assert len(rows) == 5
        mid = rows[2]
        assert mid[0] == 0
        assert abs(mid[1] - 1 / math.pi) < 1e-12

    def test_two_point_law_has_no_rows(self, capsys):
        code, payload = run_json(capsys, "density", "--a", "0", "--b", "-1")
        assert code == 0
        assert payload["data"]["rows"] == []
        assert payload["data"]["atoms"] == [[-1.0, 0.5], [1.0, 0.5]]

    def test_grid_outside_support(self, capsys):
        _, payload = run_json(
            capsys, "density", "--a", "0", "--b", "0",
            "--xmin", "5", "--xmax", "6", "--points", "3",
        )
        assert all(row[1] == 0 for row in payload["data"]["rows"])

    def test_points_validation(self, capsys):
        assert main(["density", "--a", "0", "--b", "0", "--points", "1"]) == 2

    def test_points_limit(self, capsys):
        code = main(["density", "--points", str(MAX_DENSITY_POINTS + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: points must be <= {MAX_DENSITY_POINTS}, got {MAX_DENSITY_POINTS + 1}\n")

    def test_csv_header_carries_atoms(self, capsys):
        code = main(["density", "--a", "2", "--b", "0", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# command: density"
        atom_lines = [ln for ln in lines if ln.startswith("# atom:")]
        assert len(atom_lines) == 1
        assert atom_lines[0].startswith("# atom: -0.5")
        header_idx = lines.index("x,density")
        # atoms never interleave with data rows
        assert all(ln.startswith("#") for ln in lines[:header_idx])


class TestAtoms:
    def test_free_poisson(self, capsys):
        code, payload = run_json(capsys, "atoms", "--a", "2", "--b", "0")
        assert code == 0
        [[loc, weight]] = payload["data"]["atoms"]
        assert abs(loc + 0.5) < 1e-14
        assert abs(weight - 0.75) < 1e-14

    def test_no_atom_on_the_support_edge(self, capsys):
        # the root -2/3 of (5/4) x^2 + (7/3) x + 1 is the support's lower
        # edge, where the residue is exactly 0
        assert main(["atoms", "--a", "7/3", "--b", "5/4"]) == 0
        assert '"atoms": []' in capsys.readouterr().out


class TestConvolvePower:
    def test_t_one_matches_moments(self, capsys):
        _, powered = run_json(
            capsys, "convolve-power", "--a", "1", "--b", "1", "--t", "1", "--n", "6"
        )
        _, plain = run_json(capsys, "moments", "--a", "1", "--b", "1", "--n", "6")
        assert powered["data"]["rows"] == plain["data"]["rows"]

    def test_semicircle_doubling(self, capsys):
        _, payload = run_json(
            capsys, "convolve-power", "--a", "0", "--b", "0", "--t", "2", "--n", "4"
        )
        got = [row[1] for row in payload["data"]["rows"]]
        assert got == ["1", "0", "2", "0", "8"]

    def test_two_point_power_matches_quarter_law(self, capsys):
        _, powered = run_json(
            capsys, "convolve-power", "--a", "2", "--b", "-1", "--t", "4", "--n", "10"
        )
        _, target = run_json(capsys, "moments", "--a", "1", "--b", "-1/4", "--n", "10")
        from fractions import Fraction

        for row_pow, row_tgt in zip(powered["data"]["rows"], target["data"]["rows"]):
            n = row_pow[0]
            scaled = Fraction(1, 2) ** n * Fraction(row_pow[1])
            assert scaled == Fraction(row_tgt[1])

    def test_fractional_time_rejected(self, capsys):
        assert main(["convolve-power", "--a", "0", "--b", "0", "--t", "1/2"]) == 2


class TestLevy:
    def test_parameter_maps(self, capsys):
        code, payload = run_json(
            capsys, "levy", "--eta", "1", "--sigma", "2", "--t", "2", "--n", "6"
        )
        assert code == 0
        a_out, b_out = payload["data"]["marginal_params"]
        assert abs(a_out - 1 / math.sqrt(2)) < 1e-15
        assert b_out == "1"
        assert abs(payload["data"]["dilation"] - math.sqrt(2)) < 1e-15
        # variance of X_t equals t
        assert payload["data"]["rows"][2][1] == "2"

    def test_time_domain(self, capsys):
        assert main(["levy", "--eta", "0", "--sigma", "0", "--t", "0"]) == 2
        assert main(["levy", "--eta", "0", "--sigma", "-1", "--t", "1"]) == 2


class TestTransform:
    def test_cauchy_value(self, capsys):
        code, payload = run_json(
            capsys, "transform", "--a", "0", "--b", "0", "--z", "2j"
        )
        assert code == 0
        re, im = payload["data"]["cauchy"]
        assert abs(re) < 1e-14
        assert abs(im - (1 - math.sqrt(2))) < 1e-14

    def test_r_guard_reported(self, capsys):
        _, payload = run_json(
            capsys, "transform", "--a", "0", "--b", "0", "--z", "2j"
        )
        assert payload["data"]["r"] is None
        assert "radius" in payload["data"]["r_error"]

    def test_r_value_inside_radius(self, capsys):
        _, payload = run_json(
            capsys, "transform", "--a", "0", "--b", "0", "--z", "0.05"
        )
        re, im = payload["data"]["r"]
        assert abs(re - 0.05) < 1e-14 and im == 0

    def test_smoothed_density(self, capsys):
        _, payload = run_json(
            capsys, "transform", "--a", "0", "--b", "0", "--z", "0.0",
            "--eps", "1e-6",
        )
        assert abs(payload["data"]["smoothed_density"] - 1 / math.pi) < 1e-5


class TestVerifyCommand:
    def test_regression_suite_passes(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "regression",
            "--alpha", "1/2", "--a", "1", "--b", "1", "--n", "8",
        )
        assert code == 0
        assert payload["data"]["all_passed"] is True
        names = {r["identity"] for r in payload["data"]["reports"]}
        assert names == {"linear-regression", "quadratic-variance", "mixed-cumulants"}
        assert all(r["max_residual"] == "0" for r in payload["data"]["reports"])

    def test_recursion_suite(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "recursion", "--a", "0", "--b", "0", "--n", "12"
        )
        assert code == 0

    def test_recursion_suite_order_20(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "recursion", "--a", "1", "--b", "2", "--n", "20"
        )
        assert code == 0
        assert payload["data"]["reports"][0]["orders"][-1] == 20

    def test_levy_suite(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "levy",
            "--eta", "1", "--sigma", "1", "--s", "1", "--u", "3", "--n", "6",
        )
        assert code == 0

    def test_all_suites(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "all", "--a", "1", "--b", "1",
        )
        assert code == 0
        assert payload["data"]["all_passed"] is True

    @pytest.mark.parametrize("n", ["0", "-3", "25"])
    def test_order_outside_range_rejected(self, capsys, n):
        code = main(["verify", "--suite", "regression", "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert "1..24" in captured.err
        assert captured.out == ""

    def test_all_suites_at_max_order(self, capsys):
        code, payload = run_json(
            capsys, "verify", "--suite", "all", "--a", "1", "--b", "1", "--n", "24",
        )
        assert code == 0
        assert payload["data"]["all_passed"] is True
        last = {r["identity"]: r["orders"][-1] for r in payload["data"]["reports"]}
        assert last["linear-regression"] == last["quadratic-variance"] == 24
        assert last["levy-martingale"] == 24

    def test_infeasible_split_is_config_error(self, capsys):
        code = main([
            "verify", "--suite", "regression",
            "--alpha", "1/10", "--a", "1", "--b", "-1/5",
        ])
        assert code == 2

    def test_failing_suite_exits_one(self, capsys):
        # impossible float tolerance forces a verification failure
        code, payload = run_json(
            capsys, "verify", "--suite", "orthogonality",
            "--a", "1", "--b", "1", "--eps", "1e-30",
        )
        assert code == 1
        assert payload["data"]["all_passed"] is False


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_b_below_minus_one(self, capsys):
        code = main(["moments", "--a", "0", "--b", "-2"])
        assert code == 2
        assert "b must be >= -1" in capsys.readouterr().err

    def test_bad_scalar(self):
        assert main(["moments", "--a", "zebra", "--b", "0"]) == 2

    @pytest.mark.parametrize("command", ["atoms", "density", "transform", "verify"])
    def test_exact_parameter_too_large_for_floats(self, capsys, command):
        # the float layer cannot hold 10^400; that is a usage error, not a
        # verification failure
        code = main([command, "--a", "1" + "0" * 400])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")

    # one digit past the longest integer Python converts to or from text
    LONG = "1" * (sys.get_int_max_str_digits() + 1)

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--a", "nan", "--b", "0"], "argument --a: not a finite number: 'nan'"),
        (["classify", "--a", "0", "--b", "inf"], "argument --b: not a finite number: 'inf'"),
        (["classify", "--a", "1e400", "--b", "0"], "argument --a: not a finite number: '1e400'"),
        (["moments", "--a", LONG], "argument --a: number too long"),
        (["moments", "--b", "1/" + LONG], "argument --b: number too long"),
        (["levy", "--t", "-" + LONG], "argument --t: number too long"),
        (["transform", "--z", "nan"], "argument --z: not a finite complex number: 'nan'"),
        (["transform", "--z", "1e400+1j"], "argument --z: not a finite complex number"),
        (["transform", "--z", "0.5", "--eps", "inf"], "argument --eps: not a finite number"),
        (["verify", "--eps", "nan"], "argument --eps: not a finite number: 'nan'"),
        (["classify", "--a", "-inf"], "argument --a: not a finite number: '-inf'"),
        (["classify", "--b", "-nan"], "argument --b: not a finite number: '-nan'"),
        (["moments", "--a", "-Infinity"], "argument --a: not a finite number: '-Infinity'"),
        (["moments", "--b", "-NaN"], "argument --b: not a finite number: '-NaN'"),
        (["transform", "--z", "-inf"], "argument --z: not a finite complex number: '-inf'"),
    ])
    def test_non_finite_or_too_long_input_rejected(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_float_result_rejected(self, capsys, fmt):
        # m_4 = a^2 + ... overflows a double at a = 1e200; JSON has no
        # Infinity and a CSV cell "inf" is no answer either
        code = main(["moments", "--a", "1e200", "--n", "4", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: a result is inf, not a finite number" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_result_beyond_the_digit_limit_rejected(self, capsys, fmt):
        # m_24 of a 200-digit a has about 200 * 22 digits
        code = main(["moments", "--a", "7" * 200, "--n", "24", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        assert f"more than {limit} digits, the output limit; lower --n" in captured.err
        assert "set_int_max_str_digits" not in captured.err


HUGE = "1" + "0" * 400
SCALARS = st.sampled_from([
    "0", "1", "-1", "2", "1/2", "-3/10", "5/2", "-1/5", HUGE, "-" + HUGE, "1/" + HUGE,
    "7" * 200, TestUsageErrors.LONG, "1/" + TestUsageErrors.LONG,
    "0.5", "-0.3", "1e200", "-1e200", "nan", "inf", "-inf", "-nan", "1e400", "zebra", "1/0",
    "",
])
ORDERS = st.sampled_from([
    "-1", "0", "1", "2", "6", str(MAX_SEQUENCE_ORDER), str(MAX_SEQUENCE_ORDER + 1), "40",
    "1.5", "x",
])
POINTS = st.sampled_from([
    "1", "2", "200", str(MAX_DENSITY_POINTS), str(MAX_DENSITY_POINTS + 1), "100000000", "-5",
])
COMPLEX = st.sampled_from(["3+0.5j", "0.05", "0", "-2", "nan", "inf+1j", "1e400j", "1j",
                           "zebra"])
EPSILONS = st.sampled_from(["1e-9", "1e-30", "0", "-1", "nan", "inf", "1e400", "zebra"])
LAW = {"a": SCALARS, "b": SCALARS}
LEVY = {"eta": SCALARS, "sigma": SCALARS}
COMMANDS = {
    "density": {**LAW, "xmin": SCALARS, "xmax": SCALARS, "points": POINTS},
    "moments": {**LAW, "n": ORDERS},
    "cumulants": {**LAW, "n": ORDERS, "q": SCALARS,
                  "method": st.sampled_from(["nc_le2", "semicircle", "from_moments", "x"])},
    "classify": LAW,
    "atoms": LAW,
    "convolve-power": {**LAW, "t": SCALARS, "n": ORDERS},
    "levy": {**LEVY, "t": SCALARS, "n": ORDERS},
    "transform": {**LAW, "z": COMPLEX, "eps": EPSILONS},
    "verify": {**LAW, **LEVY, "alpha": SCALARS, "s": SCALARS, "u": SCALARS, "n": ORDERS,
               "eps": EPSILONS,
               "suite": st.sampled_from(["regression", "recursion", "orthogonality", "levy",
                                         "all"])},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, values in COMMANDS[command].items():
        if draw(st.booleans()):
            argv += [f"--{flag}", draw(values)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv


@settings(max_examples=150)
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    """Every command line is answered (0 or 1) or refused with exit 2 and an
    error message; no exception escapes and no traceback is printed.  A JSON
    answer is strict JSON, without NaN or Infinity, and a CSV answer has no
    inf or nan cell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
    elif "csv" not in argv:
        json.loads(out.getvalue(), parse_constant=_not_json)
    else:
        assert not {"inf", "-inf", "nan"} & set(re.split(r"[\s,;]+", out.getvalue()))


def _not_json(constant):
    raise AssertionError(f"{constant} in JSON output")
