"""exact-ladder: exact Fraction requests on the moment/cumulant transforms.

Twelve seeded laws cover the six types (semicircle, free Poisson, free
Pascal, free Gamma on a^2 = 4b, pure free Meixner, free binomial with
b = -1).  Orders come from the ladder 8, 12, 16, 24, 32.  Requests:
``moments``; ``cumulants`` by nc_le2 (orders 8 to 12: one order-16
request takes seconds), semicircle (b >= 0) and from_moments; the round
trip moments_to_cumulants(cumulants_to_moments(r)); q_cumulants at
q in {0, 1/2, -1/3, 1}; convolve-power and levy.  Each law gets one
request of the heaviest class per epoch (q_cumulants at order 24,
convolve-power or levy at order 32, all about 0.3 s), so the tail
percentile falls inside one class of similar cost.  The order-24 round
trip and from_moments (0.6 s and more) would sit alone above it and are
left out; the same O(N^5) inversion runs at orders 12 and 16.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import reference
from harness import Request, raises

IN_PROCESS = True

QS = (F(0), F(1, 2), F(-1, 3), F(1))
# sqrt of the convolution power t (>= 1) and of the Levy time t, per law slot
POWERS = (F(3, 2), F(4, 3), F(5, 4), F(2)) * 3
LEVY_ROOTS = (F(2, 3), F(3, 2), F(1, 2), F(2)) * 3


def _laws(rng):
    """(region, a, b) for twelve laws, two or three per type.

    Magnitudes are fixed per slot and the seed picks the sign of each a.
    a -> -a maps every moment and cumulant c_n to (-1)^n c_n, so the seed
    changes the answers but not the size of any rational, which sets the
    cost of a request; the costliest requests, and with them the tail
    percentile, then cost the same on every seed.
    """
    def sa(num, den):
        return rng.choice((-1, 1)) * F(num, den)

    gammas = (sa(11, 10), sa(13, 7))
    return [
        ("semicircle", F(0), F(0)),
        ("free-poisson", sa(13, 4), F(0)),
        ("free-poisson", sa(11, 10), F(0)),
        ("free-pascal", sa(13, 3), F(11, 5)),
        ("free-pascal", sa(11, 4), F(13, 10)),
        ("free-gamma", 2 * gammas[0], gammas[0] ** 2),
        ("free-gamma", 2 * gammas[1], gammas[1] ** 2),
        ("pure-free-meixner", sa(13, 20), F(11, 4)),
        ("pure-free-meixner", sa(11, 7), F(13, 5)),
        ("free-binomial", sa(11, 10), F(-13, 20)),
        ("free-binomial", sa(13, 7), F(-11, 17)),
        ("free-binomial", sa(11, 8), F(-1)),
    ]


def prepare(seed, root, env):
    import freemeixner

    rng = random.Random(seed)
    laws = _laws(rng)
    return {
        "fm": freemeixner,
        "laws": laws,
        # generated inputs of the round trip, convolve-power and levy requests
        "cumulants": [reference.meixner_cumulants(a, b, 32) for _, a, b in laws],
        "levy_cumulants": [reference.meixner_cumulants(a, abs(b), 32) for _, a, b in laws],
        "references": {},
    }


def epoch(inputs, tracer=None):
    fm = inputs["fm"]
    laws = inputs["laws"]
    requests = []

    def moments_check(i, n):
        def check(out):
            want = _reference_moments(inputs, i, n)
            return None if out == want else "differs from cumulants_to_moments(reference cumulants)"
        return check

    def cumulants_check(i, n):
        def check(out):
            _, a, b = laws[i]
            want = reference.meixner_cumulants(a, b, n)
            return None if out == want else "differs from the Motzkin recursion"
        return check

    def q_check(i, n, q):
        def check(out):
            _, a, b = laws[i]
            want = reference.q_cumulants(a, b, q, n)
            if out != want:
                return f"q={q}: differs from the q-Pascal recursion"
            if q == 0 and out != reference.meixner_cumulants(a, b, n):
                return "q=0 differs from the free cumulants"
            return None
        return check

    def roundtrip_check(i, n):
        def check(out):
            return None if out == inputs["cumulants"][i][:n] else "round trip changed its input"
        return check

    def power_check(i, n, lam, b_abs=False):
        def check(out):
            _, a, b = laws[i]
            if b_abs:
                b = abs(b)
                params, root = out[0]
                if (params.a, params.b, root) != (a / lam, b / (lam * lam), lam):
                    return "levy_marginal parameters differ from (eta/sqrt t, sigma/t)"
                out = out[1]
            base = fm.moments(fm.MeixnerParams(a / lam, b / (lam * lam)), n)
            want = reference.dilated_moments(base.values, lam)
            return None if out == want else "differs from the dilated Meixner moments"
        return check

    def req(kind, i, n, call, check, extra=()):
        return Request(kind=kind, order=n, key=(kind, i, n) + extra, call=call, check=check)

    def moments(i, n):
        p = fm.MeixnerParams(laws[i][1], laws[i][2])
        return req("moments", i, n, lambda: fm.moments(p, n).values, moments_check(i, n))

    def cumulants(i, n, method):
        p = fm.MeixnerParams(laws[i][1], laws[i][2])
        return req(f"cumulants.{method}", i, n,
                   lambda: fm.cumulants(p, n, method=method).values, cumulants_check(i, n))

    def roundtrip(i, n):
        r = fm.CumulantSequence(inputs["cumulants"][i][:n])
        return req("roundtrip", i, n,
                   lambda: fm.moments_to_cumulants(fm.cumulants_to_moments(r)).values,
                   roundtrip_check(i, n))

    def q_cumulants(i, n, k):
        _, a, b = laws[i]
        q = QS[k % 4]
        return req("q_cumulants", i, n, lambda: fm.q_cumulants(a, b, q, n).values,
                   q_check(i, n, q), extra=(q,))

    def convolve_power(i, n):
        r = fm.CumulantSequence(inputs["cumulants"][i][:n])
        lam = POWERS[i]
        return req("convolve-power", i, n,
                   lambda: fm.cumulants_to_moments(fm.convolution_power(r, lam * lam)).values,
                   power_check(i, n, lam))

    def levy(i, n):
        _, a, b = laws[i]
        r = fm.CumulantSequence(inputs["levy_cumulants"][i][:n])
        lam = LEVY_ROOTS[i]
        t = lam * lam

        def call():
            marginal = fm.levy_marginal(fm.LevyParams(a, abs(b)), t)
            ms = fm.cumulants_to_moments(fm.convolution_power(r, t, formal=True))
            return marginal, ms.values

        return req("levy", i, n, call, power_check(i, n, lam, b_abs=True))

    heavy = (
        lambda i: q_cumulants(i, 24, i),
        lambda i: convolve_power(i, 32),
        lambda i: levy(i, 32),
        lambda i: q_cumulants(i, 24, i + 1),
    )
    controls = _controls(fm, laws)
    for i, (_, a, b) in enumerate(laws):
        requests += [
            moments(i, 8), moments(i, 16), moments(i, 32),
            cumulants(i, 8, "nc_le2"), cumulants(i, 12, "nc_le2"),
            cumulants(i, 8, "from_moments"), cumulants(i, 16, "from_moments"),
            roundtrip(i, 8), roundtrip(i, 12),
            q_cumulants(i, 8, i), q_cumulants(i, 12, i + 1),
            convolve_power(i, 12), levy(i, 16),
        ]
        if b >= 0:
            requests += [cumulants(i, 12, "semicircle"), cumulants(i, 32, "semicircle")]
        else:
            requests += [cumulants(i, 10, "nc_le2"), moments(i, 24)]
        requests.append(heavy[i % len(heavy)](i))
        if i % 2 == 1:
            requests.append(controls[i // 2])
    return requests


def _controls(fm, laws):
    """Requests whose correct outcome is an error, one per odd law."""
    a_neg, b_neg = laws[9][1], laws[9][2]

    def control(kind, call, exc):
        return Request(kind=f"control.{kind}", order=None, key=("control", kind), call=call,
                       control=raises(exc))

    return [
        control("semicircle-b<0", lambda: fm.cumulants(fm.MeixnerParams(a_neg, b_neg), 8,
                                                       method="semicircle"), fm.DomainError),
        control("q=-1", lambda: fm.q_cumulants(1, 1, -1, 8), fm.DomainError),
        control("order>64", lambda: fm.cumulants_to_moments(fm.CumulantSequence((1,) * 65)),
                fm.OrderCapError),
        control("b<-1", lambda: fm.MeixnerParams(1, F(-5, 4)), fm.DomainError),
        control("nc_le2-cap", lambda: fm.enumerate_nc_le2(15), fm.EnumerationCapError),
        control("power<1", lambda: fm.convolution_power(fm.CumulantSequence((0, 1)), F(1, 2)),
                fm.DomainError),
    ]


def _reference_moments(inputs, i, n):
    """cumulants_to_moments of the reference cumulants, computed once per law."""
    cache = inputs["references"]
    if i not in cache:
        fm = inputs["fm"]
        _, a, b = inputs["laws"][i]
        cache[i] = fm.cumulants_to_moments(
            fm.CumulantSequence(reference.meixner_cumulants(a, b, 32))
        ).values
    return cache[i][: n + 1]


def tamper(req, output):
    if req.kind == "levy":
        marginal, values = output
        return marginal, values[:-1] + (values[-1] + 1,)
    return output[:-1] + (output[-1] + 1,)
