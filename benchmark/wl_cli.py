"""cli-cold: every request is a fresh ``python -m freemeixner.cli`` process.

A CLI user pays interpreter start, the package import (mostly scipy.linalg)
and argparse/JSON rendering on every call; no in-process workload measures
that.  The epoch is the README's ten command lines with seeded parameters
at orders <= 10, plus invalid requests that must exit 2 with an error
message and no traceback (b < -1, --n above 24).  Heavy combinatorics are
left out on purpose, so only import and cli work move this workload.
Answers are checked against the library called in the benchmark process
after the timed phase.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from harness import Request

IN_PROCESS = False

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _q(x):
    return str(F(x))


def _commands(rng):
    """(name, argv) pairs; b >= -min(alpha, 1-alpha) for the verify line."""
    def ab():
        return F(rng.randint(-6, 6), 2), F(rng.randint(-4, 8), 4)

    a1, b1 = ab()
    a2, b2 = ab()
    a3, b3 = ab()
    a4, b4 = ab()
    a5, b5 = ab()
    alpha = F(rng.randint(1, 4), 5)
    zr, zi = rng.uniform(0.002, 0.02), rng.uniform(0.002, 0.02)
    return [
        ("moments", ["moments", "--a", _q(a1), "--b", _q(b1), "--n", str(rng.randint(6, 10))]),
        ("cumulants", ["cumulants", "--a", _q(a2), "--b", _q(b2), "--n", str(rng.randint(6, 10))]),
        ("cumulants-q", ["cumulants", "--a", _q(a3), "--b", _q(b3), "--n",
                         str(rng.randint(6, 10)), "--q", rng.choice(["1/2", "-1/3", "1", "0"])]),
        ("classify", ["classify", "--a", _q(a4), "--b", _q(b4)]),
        ("density", ["density", "--a", _q(a5), "--b", _q(abs(b5)), "--xmin", "-3", "--xmax", "4",
                     "--points", str(rng.randint(100, 200)), "--format", "csv"]),
        ("atoms", ["atoms", "--a", _q(a1), "--b", _q(b2)]),
        ("convolve-power", ["convolve-power", "--a", _q(a2), "--b", _q(b3), "--t",
                            rng.choice(["2", "3/2", "4"]), "--n", str(rng.randint(6, 10))]),
        ("levy", ["levy", "--eta", _q(a3), "--sigma", _q(abs(b4)), "--t",
                  rng.choice(["2", "1/2", "3"]), "--n", str(rng.randint(6, 10))]),
        ("transform", ["transform", "--a", _q(a4), "--b", _q(b5), "--z", f"{zr:.4f}+{zi:.4f}j"]),
        ("verify", ["verify", "--suite", "all", "--a", _q(a5), "--b",
                    _q(max(b1, -min(alpha, 1 - alpha))), "--alpha", _q(alpha),
                    "--n", str(rng.randint(3, 5))]),
        ("control.b<-1", ["moments", "--a", _q(a1), "--b", _q(-1 - F(rng.randint(1, 4), 4))]),
        ("control.n>24", ["cumulants", "--a", _q(a2), "--b", _q(b2), "--n",
                          str(rng.randint(25, 40))]),
    ]


def prepare(seed, root, env):
    rng = random.Random(seed)
    return {"root": root, "env": env, "commands": _commands(rng)}


def import_child(inputs):
    """Wall time of one child process importing freemeixner.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import freemeixner.cli"], cwd=inputs["root"],
                   env=inputs["env"], check=True, timeout=120)
    return time.perf_counter() - t0


def _launch(inputs, argv, tracer):
    if tracer is None:
        cmd = [sys.executable, "-m", "freemeixner.cli"] + argv
        proc = subprocess.run(cmd, cwd=inputs["root"], env=inputs["env"], capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    out_dir = os.path.join(inputs["root"], ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"cli-spans-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path] + argv
    span = tracer.open("process.cli")
    try:
        proc = subprocess.run(cmd, cwd=inputs["root"], env=inputs["env"], capture_output=True,
                              text=True, timeout=120)
    finally:
        tracer.close(span)
    with open(spans_path) as fh:
        child = json.load(fh)
    os.remove(spans_path)
    tracer.adopt(child["spans"], parent=span)
    tracer.counters.update(child["counters"])
    return proc.returncode, proc.stdout, proc.stderr


def _exits_2(output, error):
    if error is not None:
        return False
    code, stdout, stderr = output
    return code == 2 and stdout == "" and stderr.startswith("error:") and "Traceback" not in stderr


def epoch(inputs, tracer=None):
    requests = []
    for name, argv in inputs["commands"]:
        call = (lambda argv=argv: _launch(inputs, argv, tracer))
        if name.startswith("control."):
            requests.append(Request(kind=name, order=None, key=(name,), call=call,
                                    control=_exits_2))
        else:
            n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
            requests.append(Request(kind=name, order=n, key=(name,), call=call,
                                    check=lambda out, argv=argv: check(argv, out),
                                    exact="--z" not in argv))
    return requests


def _cell(v):
    if isinstance(v, F):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [_cell(x) for x in v]
    return v


def _opts(argv):
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}


def expected(argv):
    """What the library answers for the same arguments, as the CLI prints it."""
    import freemeixner as fm

    o = _opts(argv)
    num = {k: F(v) for k, v in o.items() if k in ("a", "b", "t", "eta", "sigma", "q", "alpha",
                                                  "xmin", "xmax")}
    n = int(o["n"]) if "n" in o else None
    cmd = argv[0]
    p = fm.MeixnerParams(num["a"], num["b"]) if "a" in num else None
    rows = lambda values, start: [[k, _cell(v)] for k, v in enumerate(values, start=start)]
    if cmd == "moments":
        return {"columns": ["n", "m_n"], "rows": rows(fm.moments(p, n).values, 0)}
    if cmd == "cumulants":
        seq = (fm.q_cumulants(num["a"], num["b"], num["q"], n) if "q" in num
               else fm.cumulants(p, n, method="nc_le2"))
        return {"columns": ["n", "R_n"], "rows": rows(seq.values, 1)}
    if cmd == "classify":
        return fm.classify(p).value
    if cmd == "density":
        xmin, xmax, points = float(num["xmin"]), float(num["xmax"]), int(o["points"])
        step = (xmax - xmin) / (points - 1)
        return [[xmin + k * step, fm.density(p, xmin + k * step)] for k in range(points)]
    if cmd == "atoms":
        return {"support": list(fm.support(p)), "atoms": [list(t) for t in fm.atoms(p)]}
    if cmd == "convolve-power":
        base = fm.cumulants(p, max(n, 2), method="from_moments")
        ms = fm.cumulants_to_moments(fm.convolution_power(base, num["t"]))
        return {"t": _cell(num["t"]), "columns": ["n", "m_n"], "rows": rows(ms.values[: n + 1], 0)}
    if cmd == "levy":
        marginal, lam = fm.levy_marginal(fm.LevyParams(num["eta"], num["sigma"]), num["t"])
        base = fm.cumulants(fm.MeixnerParams(num["eta"], num["sigma"]), max(n, 2),
                            method="from_moments")
        ms = fm.cumulants_to_moments(fm.convolution_power(base, num["t"], formal=True))
        return {"marginal_params": [_cell(marginal.a), _cell(marginal.b)], "dilation": _cell(lam),
                "columns": ["n", "m_n"], "rows": rows(ms.values[: n + 1], 0)}
    if cmd == "transform":
        z = complex(o["z"])
        out = {"z": _cell(z), "cauchy": _cell(fm.cauchy_transform(p, z))}
        try:
            out["r"] = _cell(fm.r_transform(p, z))
        except fm.FreeMeixnerError as exc:
            out["r"], out["r_error"] = None, str(exc)
        return out
    raise ValueError(f"no library route for {cmd}")


def check(argv, output):
    code, stdout, stderr = output
    if argv[0] == "verify":
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-200:]}"
        data = json.loads(stdout)["data"]
        bad = [r["identity"] for r in data["reports"] if not r["passed"]
               or (r["identity"] != "orthogonality" and r["max_residual"] != "0")]
        if not data["all_passed"] or bad or len(data["reports"]) != 6:
            return f"verify reported failures: {bad}"
        return None
    if code != 0 or stderr:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    want = expected(argv)
    if argv[0] == "density":
        rows = [[float(x) for x in line.split(",")] for line in stdout.splitlines()
                if line and not line.startswith("#") and line != "x,density"]
        return None if rows == want else "CSV rows differ from the library's density"
    payload = json.loads(stdout)
    got = payload["data"]["label"] if argv[0] == "classify" else payload["data"]
    if argv[0] == "atoms":
        got = {"support": got["support"], "atoms": got["atoms"]}
    return None if got == want else "JSON data differs from the library's answer"


def tamper(req, output):
    code, stdout, stderr = output
    return 1 - code if code in (0, 1) else 0, stdout, stderr
