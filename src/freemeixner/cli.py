"""Command line frontend.

Subcommands expose the library over JSON (default) or CSV: densities and
atoms, exact moment/cumulant sequences, the six-type classification, free
convolution powers, Levy marginals, transform evaluation, and the identity
verification suites.  Rational arguments written as ``p/q`` (or integers)
keep the whole computation exact; decimal arguments switch to floats.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

# let argparse accept negative rationals ("-3/10") and complex literals
# ("-1-2j") as option values rather than mistaking them for flags
_NEGATIVE_VALUE = re.compile(r"^-[0-9.+\-/jJeE]+$")

from . import meixner, verify
from .cumulants import (
    convolution_power,
    cumulants_to_moments,
    q_cumulants,
)
from .errors import FreeMeixnerError
from .meixner import LevyParams, MeixnerLaw, MeixnerParams, MeixnerType

MAX_SEQUENCE_ORDER = 24


def _scalar(text: str):
    """Parse "p/q" and integer strings exactly, decimals as floats."""
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _complex(text: str):
    try:
        return complex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None


def _cell(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, MeixnerType):
        return v.value
    if isinstance(v, (list, tuple)):
        return [_cell(x) for x in v]
    return v


def _check_order(n, low=0):
    if not low <= n <= MAX_SEQUENCE_ORDER:
        raise FreeMeixnerError(f"order must lie in {low}..{MAX_SEQUENCE_ORDER}, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemeixner",
        description="Free Meixner laws: densities, exact cumulant calculus, "
        "classification and identity verification.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **flags):
        cmd = sub.add_parser(name, help=help_text)
        cmd._negative_number_matcher = _NEGATIVE_VALUE
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, (kind, default, text) in flags.items():
            cmd.add_argument(f"--{flag}", type=kind, default=default, help=text)
        return cmd

    scalars = {
        "a": (_scalar, Fraction(0), "first law parameter (rational p/q keeps exact mode)"),
        "b": (_scalar, Fraction(0), "second law parameter, b >= -1"),
    }
    add(
        "density",
        "tabulate the continuous density on a grid; atoms go to the header",
        **scalars,
        xmin=(_scalar, Fraction(-3), "grid start"),
        xmax=(_scalar, Fraction(3), "grid end"),
        points=(int, 101, "grid size (>= 2)"),
    )
    add(
        "moments",
        "raw moments m_0..m_N (exact fractions in exact mode)",
        **scalars,
        n=(int, 16, f"truncation order, 0..{MAX_SEQUENCE_ORDER}"),
    )
    cum = add(
        "cumulants",
        "free cumulants R_1..R_N; --q switches to the q-deformed recursion",
        **scalars,
        n=(int, 16, f"truncation order, 2..{MAX_SEQUENCE_ORDER}"),
        q=(_scalar, None, "deformation parameter in (-1, 1]; omit for the free case"),
    )
    cum.add_argument(
        "--method",
        choices=("nc_le2", "semicircle", "from_moments"),
        default="nc_le2",
        help="which identity computes the cumulants (they all agree)",
    )
    add("classify", "name the law's type and the inequalities that fired", **scalars)
    add("atoms", "point masses of the law", **scalars)
    add(
        "convolve-power",
        "moments of the t-fold free convolution power (t >= 1)",
        **scalars,
        t=(_scalar, Fraction(1), "convolution power"),
        n=(int, 16, f"truncation order, 0..{MAX_SEQUENCE_ORDER}"),
    )
    add(
        "levy",
        "time-t marginal of the quadratic-variance free Levy process",
        eta=(_scalar, Fraction(0), "drift-like parameter"),
        sigma=(_scalar, Fraction(0), "curvature parameter, >= 0"),
        t=(_scalar, Fraction(1), "time, > 0"),
        n=(int, 12, f"moment order, 0..{MAX_SEQUENCE_ORDER}"),
    )
    add(
        "transform",
        "evaluate the Cauchy transform and the R-transform at a point",
        **scalars,
        z=(_complex, complex(2.0, 1.0), "evaluation point, e.g. '0.05' or '3+0.5j'"),
        eps=(float, None, "also report the smoothed density -(1/pi) Im G(Re z + i eps)"),
    )
    ver = add(
        "verify",
        "run identity suites; exit 0 iff everything passes",
        **scalars,
        alpha=(_scalar, Fraction(1, 2), "variance split of the free pair, in (0,1)"),
        eta=(_scalar, Fraction(0), "Levy drift parameter"),
        sigma=(_scalar, Fraction(0), "Levy curvature parameter"),
        s=(_scalar, Fraction(1), "earlier Levy time"),
        u=(_scalar, Fraction(2), "later Levy time"),
        n=(int, None, f"max order, 1..{MAX_SEQUENCE_ORDER} (suite-specific default)"),
        eps=(float, 1e-9, "float-mode tolerance for the orthogonality suite"),
    )
    ver.add_argument(
        "--suite",
        choices=("regression", "recursion", "orthogonality", "levy", "all"),
        default="all",
    )
    return parser


def _report_dict(rep: verify.RegressionReport):
    out = {
        "identity": rep.identity,
        "orders": list(rep.orders),
        "max_residual": _cell(rep.max_residual),
        "passed": rep.ok,
        "failures": [o for o, good in zip(rep.orders, rep.passed) if not good],
    }
    if rep.constant is not None:
        out["constant"] = _cell(rep.constant)
    return out


def _sequence_rows(values, start):
    return [[n, _cell(v)] for n, v in enumerate(values, start=start)]


def cmd_density(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    points = opts["points"]
    if points < 2:
        raise FreeMeixnerError(f"points must be >= 2, got {points}")
    law = MeixnerLaw.from_params(p)
    xmin, xmax = float(opts["xmin"]), float(opts["xmax"])
    step = (xmax - xmin) / (points - 1)
    rows = []
    if law.support[0] < law.support[1]:  # purely atomic laws get no rows
        for k in range(points):
            x = xmin + k * step
            rows.append([x, meixner.density(p, x)])
    data = {
        "support": list(law.support),
        "atoms": [list(t) for t in law.atoms],
        "columns": ["x", "density"],
        "rows": rows,
    }
    return data, ["continuous-density", "cauchy-residues"], 0


def cmd_moments(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    n = _check_order(opts["n"])
    ms = meixner.moments(p, n)
    data = {"columns": ["n", "m_n"], "rows": _sequence_rows(ms.values, 0)}
    tag = "two-point-law" if p.b == -1 else "moment-recursion"
    return data, [tag], 0


def cmd_cumulants(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    n = _check_order(opts["n"], 2)
    if opts.get("q") is not None:
        seq = q_cumulants(opts["a"], opts["b"], opts["q"], n)
        tag = "q-deformed-recursion"
    else:
        seq = meixner.cumulants(p, n, method=opts["method"])
        tag = {
            "nc_le2": "pair-partition-sum",
            "semicircle": "semicircle-moments",
            "from_moments": "moment-inversion",
        }[opts["method"]]
    data = {"columns": ["n", "R_n"], "rows": _sequence_rows(seq.values, 1)}
    return data, [tag], 0


def cmd_classify(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    label = meixner.classify(p)
    fired = {
        MeixnerType.SEMICIRCLE: ["a == 0", "b == 0"],
        MeixnerType.FREE_POISSON: ["a != 0", "b == 0"],
        MeixnerType.FREE_PASCAL: ["b > 0", "a^2 > 4b"],
        MeixnerType.FREE_GAMMA: ["b > 0", "a^2 == 4b"],
        MeixnerType.PURE_FREE_MEIXNER: ["b > 0", "a^2 < 4b"],
        MeixnerType.FREE_BINOMIAL: ["-1 <= b < 0"],
    }[label]
    data = {"label": label.value, "predicates": fired}
    return data, ["six-type-classification"], 0


def cmd_atoms(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    data = {
        "support": list(meixner.support(p)),
        "atoms": [list(t) for t in meixner.atoms(p)],
    }
    return data, ["cauchy-residues"], 0


def cmd_convolve_power(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    n = _check_order(opts["n"])
    base = meixner.cumulants(p, max(n, 2), method="from_moments")
    scaled = convolution_power(base, opts["t"])
    ms = cumulants_to_moments(scaled)
    data = {
        "t": _cell(opts["t"]),
        "columns": ["n", "m_n"],
        "rows": _sequence_rows(ms.values[: n + 1], 0),
    }
    return data, ["cumulant-scaling", "moment-recursion"], 0


def cmd_levy(opts):
    l = LevyParams(opts["eta"], opts["sigma"])
    t = opts["t"]
    marginal, dilation = meixner.levy_marginal(l, t)
    n = _check_order(opts["n"])
    base = meixner.cumulants(MeixnerParams(l.eta, l.sigma), max(n, 2), method="from_moments")
    ms = cumulants_to_moments(convolution_power(base, t, formal=True))
    data = {
        "marginal_params": [_cell(marginal.a), _cell(marginal.b)],
        "dilation": _cell(dilation),
        "columns": ["n", "m_n"],
        "rows": _sequence_rows(ms.values[: n + 1], 0),
    }
    return data, ["levy-marginal", "cumulant-scaling"], 0


def cmd_transform(opts):
    p = MeixnerParams(opts["a"], opts["b"])
    z = opts["z"]
    data = {"z": _cell(z)}
    try:
        data["cauchy"] = _cell(meixner.cauchy_transform(p, z))
    except FreeMeixnerError as exc:
        data["cauchy"] = None
        data["cauchy_error"] = str(exc)
    try:
        data["r"] = _cell(meixner.r_transform(p, z))
    except FreeMeixnerError as exc:
        data["r"] = None
        data["r_error"] = str(exc)
    if opts.get("eps") is not None and z.imag == 0:
        from . import numerics  # the float layer loads numpy and scipy

        data["smoothed_density"] = numerics.stieltjes_invert(p, z.real, opts["eps"])
    return data, ["cauchy-transform", "r-transform"], 0


def cmd_verify(opts):
    suite = opts["suite"]
    n = opts["n"]
    if n is not None:
        _check_order(n, 1)

    def order(default):
        return default if n is None else n

    p = MeixnerParams(opts["a"], opts["b"])
    reports = []
    if suite in ("regression", "all"):
        k = order(8)
        pair = verify.build_free_pair(opts["alpha"], p, k + 2)
        reports.append(verify.verify_linear_regression(pair, k))
        reports.append(verify.verify_quadratic_variance(pair, k))
        reports.append(verify.verify_mixed_cumulants(pair, k))
    if suite in ("recursion", "all"):
        reports.append(verify.verify_moment_recursion(p, order(12)))
    if suite in ("orthogonality", "all"):
        reports.append(verify.verify_orthogonality(p, min(order(10), 10), opts["eps"]))
    if suite in ("levy", "all"):
        l = LevyParams(opts["eta"], opts["sigma"])
        reports.append(verify.verify_levy_martingale(l, opts["s"], opts["u"], order(6)))
    all_passed = all(r.ok for r in reports)
    data = {
        "suite": suite,
        "reports": [_report_dict(r) for r in reports],
        "all_passed": all_passed,
    }
    identities = [r.identity for r in reports]
    return data, identities, 0 if all_passed else 1


_HANDLERS = {
    "density": cmd_density,
    "moments": cmd_moments,
    "cumulants": cmd_cumulants,
    "classify": cmd_classify,
    "atoms": cmd_atoms,
    "convolve-power": cmd_convolve_power,
    "levy": cmd_levy,
    "transform": cmd_transform,
    "verify": cmd_verify,
}


def _render_json(payload, out):
    json.dump(payload, out, default=_cell, indent=2)
    out.write("\n")


def _render_csv(payload, out):
    out.write(f"# command: {payload['command']}\n")
    for key, val in payload["params"].items():
        out.write(f"# {key}: {_csv_text(val)}\n")
    for ident in payload["provenance"]["identities"]:
        out.write(f"# identity: {ident}\n")
    data = payload["data"]
    for key, val in data.items():
        if key in ("columns", "rows", "atoms"):
            continue
        out.write(f"# {key}: {_csv_text(val)}\n")
    # atoms stay in the comment header so density rows remain plot-ready
    for atom in data.get("atoms", []):
        out.write(f"# atom: {atom[0]},{atom[1]}\n")
    if "columns" in data:
        out.write(",".join(data["columns"]) + "\n")
        for row in data["rows"]:
            out.write(",".join(_csv_text(v) for v in row) + "\n")


def _csv_text(v):
    v = _cell(v)
    if isinstance(v, list):
        return ";".join(str(x) for x in v)
    if isinstance(v, dict):
        return ";".join(f"{k}={x}" for k, x in v.items())
    return str(v)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "format")}
    # tolerance knobs (--eps) and complex points (--z) never affect exactness
    exact = not any(isinstance(v, float) for k, v in opts.items() if k not in ("eps", "z"))
    try:
        data, identities, code = _HANDLERS[args.command](opts)
    except FreeMeixnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "command": args.command,
        "params": {k: _cell(v) for k, v in opts.items() if v is not None},
        "data": data,
        "provenance": {"identities": identities, "exact": exact},
    }
    if args.format == "json":
        _render_json(payload, sys.stdout)
    else:
        _render_csv(payload, sys.stdout)
    return code


def run():  # console script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
