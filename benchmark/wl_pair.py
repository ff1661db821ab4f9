"""pair-verification: build_free_pair and one identity suite per request.

Eight exact and two float (a, b, alpha) triples, each feasible
(b >= -min(alpha, 1 - alpha)); one exact triple sits on that bound.  The
suites are linear regression, quadratic variance, mixed cumulants, the
moment recursion and the Levy martingale.  Orders put most free-pair work
on words of 8 to 10 letters, inside ncpart's partition cache (n <= 10).
A recorded minority, one float linear-regression request per epoch at
order 10, asks for 11-letter words, whose partitions are rebuilt on every
call.  At about 0.25 s these are the costliest requests, but a run holds
only four or five of them, so the tail percentile (the 11th-largest
latency) falls inside the class below.  The float triples take the 1e-10
tolerance path.

Each exact triple gets two requests of the heaviest in-cache class per
epoch (regression at order 9, quadratic variance at order 7, Levy at
order 9, 0.15 to 0.2 s each), about 70 in a run; as their cost does not
depend on the seed (see _triples), the tail percentile does not either.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import reference
from harness import Request, raises

IN_PROCESS = True

FLOAT_TOLERANCE = 1e-10  # verify's documented absolute tolerance in float mode


def _triples(rng):
    """(region, alpha, a, b) with b >= -min(alpha, 1 - alpha).

    For the exact triples, alpha and the magnitudes are fixed per slot and
    the seed picks the sign of a, which flips odd moments but leaves the
    size of every rational, and so the cost of a request, unchanged (as in
    exact-ladder).  The float triples are drawn freely: float cost does not
    depend on the values.
    """
    def sa(num, den):
        return rng.choice((-1, 1)) * F(num, den)

    c = sa(11, 10)
    exact = [
        ("semicircle", F(2, 5), F(0), F(0)),
        ("free-poisson", F(3, 7), sa(13, 4), F(0)),
        ("free-pascal", F(4, 7), sa(11, 3), F(13, 5)),
        ("free-gamma", F(3, 5), 2 * c, c * c),
        ("pure-free-meixner", F(3, 7), sa(13, 20), F(11, 4)),
        ("free-binomial", F(1, 2), sa(11, 10), F(-13, 30)),
        ("free-binomial", F(2, 5), sa(13, 7), F(-11, 40)),
        ("feasibility-edge", F(2, 7), sa(11, 8), F(-2, 7)),
    ]
    u = rng.uniform
    floats = [
        ("float-free-pascal", u(0.2, 0.8), rng.choice((-1, 1)) * u(2.2, 3.0), u(0.2, 1.0)),
        ("float-free-binomial", u(0.3, 0.7), u(-1.0, 1.0), -u(0.05, 0.25)),
    ]
    return exact + floats


def prepare(seed, root, env):
    import freemeixner

    rng = random.Random(seed)
    return {"fm": freemeixner, "triples": _triples(rng)}


def _exact(x):
    return isinstance(x, F)


def _moment_scale(fm, suite, a, b, n):
    """Largest moment magnitude (at least 1) an identity of order n involves."""
    law = fm.MeixnerParams(a, abs(b) if suite == "levy" else b)
    return max(1.0, max(abs(float(m)) for m in fm.moments(law, n + 3).values))


def notes(recorder):
    """Float verdicts that report a failure for an identity that holds."""
    false_alarms = sum(
        1
        for key, (_, _, _, residuals, passed) in recorder.first.items()
        if not recorder.requests[key].exact and not all(passed)
    )
    return [f"float reports failing only on the absolute {FLOAT_TOLERANCE:g} tolerance "
            f"(identity holds to 1e-12 of the moments): {false_alarms} distinct requests"]


def _summary(pair, report):
    return (pair.s_cumulants.values, report.identity, report.orders, report.residuals,
            report.passed)


def epoch(inputs, tracer=None):
    fm = inputs["fm"]
    triples = inputs["triples"]

    def check_for(i, suite, n, pair_order):
        _, alpha, a, b = triples[i]

        def check(out):
            s_cumulants, identity, orders, residuals, passed = out
            if s_cumulants:
                want = reference.meixner_cumulants(a, b, pair_order)
                if _exact(alpha):
                    if s_cumulants != want:
                        return "pair cumulants differ from the Motzkin recursion"
                elif any(abs(x - y) > 1e-9 * max(1.0, abs(y)) for x, y in zip(s_cumulants, want)):
                    return "pair cumulants differ from the Motzkin recursion"
            lo = {"regression": 1, "variance": 0, "mixed": 2, "recursion": 2, "levy": 1}[suite]
            if orders != tuple(range(lo, n + 1)):
                return f"checked orders {orders}, asked for {lo}..{n}"
            if _exact(alpha):
                if not all(passed) or any(r != 0 for r in residuals):
                    return f"{identity}: exact residual is not 0"
                return None
            # float reports: the verdict follows the documented absolute
            # tolerance, and the identity holds relative to the moments
            if passed != tuple(abs(r) <= FLOAT_TOLERANCE for r in residuals):
                return f"{identity}: verdicts do not follow the {FLOAT_TOLERANCE:g} tolerance"
            if max(abs(r) for r in residuals) > 1e-12 * _moment_scale(fm, suite, a, b, n):
                return f"{identity}: float residual above 1e-12 of the moments"
            return None

        return check

    def verify(i, suite, n):
        _, alpha, a, b = triples[i]
        p = fm.MeixnerParams(a, b)
        pair_order = {"regression": n + 1, "variance": n + 2, "mixed": n}.get(suite, n)
        words = {"regression": range(2, n + 2), "variance": [k + 2 for k in range(n + 1)
                                                             for _ in range(4)],
                 "levy": range(2, n + 2)}.get(suite, ())

        def call():
            if suite == "recursion":
                rep = fm.verify_moment_recursion(p, n)
                return (), rep.identity, rep.orders, rep.residuals, rep.passed
            if suite == "levy":
                s = alpha if _exact(alpha) else float(alpha)
                rep = fm.verify_levy_martingale(fm.LevyParams(a, abs(b)), s, 1, n)
                return (), rep.identity, rep.orders, rep.residuals, rep.passed
            pair = fm.build_free_pair(alpha, p, pair_order)
            run = {"regression": fm.verify_linear_regression,
                   "variance": fm.verify_quadratic_variance,
                   "mixed": fm.verify_mixed_cumulants}[suite]
            return _summary(pair, run(pair, n))

        return Request(kind=suite, order=n, key=(suite, i, n), call=call,
                       check=check_for(i, suite, n, pair_order), exact=_exact(alpha),
                       words=tuple(words))

    tail_class = (("regression", 9), ("variance", 7), ("levy", 9))
    controls = _controls(fm, triples)
    requests = []
    for i in range(len(triples)):
        exact = _exact(triples[i][1])
        requests += [
            verify(i, "variance", 5), verify(i, "levy", 7),
            verify(i, "mixed", 12), verify(i, "recursion", 10),
        ]
        requests += [verify(i, "variance", 6)] if i % 2 else [
            verify(i, "regression", 8), verify(i, "recursion", 12)]
        if exact:
            requests += [verify(i, *tail_class[i % 3]), verify(i, *tail_class[(i + 1) % 3])]
        else:
            requests += [verify(i, "regression", 6), verify(i, "regression", 9),
                         verify(i, "variance", 8), verify(i, "regression", 10 if i == 8 else 9)]
        if i % 2 == 1:
            requests.append(controls[i // 2])
    return requests


def _tampered_pair(fm, s_cumulants, alpha):
    """A free pair whose X cumulants are perturbed at order 3, as in acceptance c06."""

    class Tampered(fm.FreePairSpec):
        def x_cumulants(self):
            vals = list(super().x_cumulants().values)
            vals[2] += F(1, 9)
            return fm.CumulantSequence(tuple(vals))

    return Tampered(s_cumulants, alpha)


def _controls(fm, triples):
    """Requests whose correct outcome is a failure, one per odd triple."""
    _, alpha, a, b = triples[1]
    base = fm.CumulantSequence(reference.meixner_cumulants(a, b, 10))
    tampered = _tampered_pair(fm, base, alpha)

    def fails(output, error):
        return error is None and not output.ok

    def control(kind, call, caught):
        return Request(kind=f"control.{kind}", order=None, key=("control", kind), call=call,
                       control=caught)

    edge_alpha = triples[7][1]
    return [
        control("tampered-regression", lambda: fm.verify_linear_regression(tampered, 6), fails),
        control("tampered-variance", lambda: fm.verify_quadratic_variance(tampered, 6), fails),
        control("infeasible-split", lambda: fm.build_free_pair(
            edge_alpha, fm.MeixnerParams(1, -edge_alpha - F(1, 100)), 8), raises(fm.DomainError)),
        control("order-beyond-pair", lambda: fm.verify_quadratic_variance(
            fm.build_free_pair(alpha, fm.MeixnerParams(a, b), 6), 6), raises(fm.OrderCapError)),
        control("tampered-mixed", lambda: fm.verify_mixed_cumulants(tampered, 6), fails),
    ]


def tamper(req, output):
    s_cumulants, identity, orders, residuals, passed = output
    return (s_cumulants, identity, orders, residuals[:-1] + (residuals[-1] + 1,),
            passed[:-1] + (not passed[-1],))
