"""float-analytic: one law's float report per request.

Twenty-four seeded float laws span the six types and their edges: b close
to -1 and b = -1, b = a^2/4 exactly, plus 1e-8 and minus 1e-6 (see
B_BELOW_PARABOLA), and free Poisson laws
whose atom sits just outside a support endpoint (a = +-1.02 and +-1.05;
those two are the costliest reports, and their distance is fixed so their
cost does not move with the seed).  A report asks for support and atoms,
the density on a 32-point grid, the Cauchy transform at three points, the R-transform
and the moment generating series at two points inside the guarded radius,
Stieltjes inversion at three interior points, a Gauss rule with 11, 32 or
64 nodes integrating monomials, panel integration of 1, 2, 4 or 8
monomials, and float moments and from_moments cumulants.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction as F

import reference
from harness import Request, raises

IN_PROCESS = True

NODES = (11, 32, 64)
# Panel integrals per report.  Spreading the cost of a report over a range,
# rather than making every report cost the same, keeps the median latency
# from jumping between two values when the machine's speed changes while a
# run is in progress.
MONOMIALS = (1, 2, 4, 8)
EPS = 1e-5
GRID = 32

# Known library defect, left unfixed here: for b within about 1e-7 below
# a^2/4 (a close pair of real roots of b x^2 + a x + 1), atoms() reports a
# point mass of about 1e-12 made of rounding noise, just over its 1e-12
# floor, where the true residue is 0 (60-digit evaluation).  On this law it
# reports 1.11e-12 at x = 3.97, and integrate_against_law then misses the
# 7th moment by 1.7e-8.  The edge laws below the parabola therefore sit 1e-6
# from it, where no spurious atom appeared in 40000 draws, and every run
# probes this law and prints whether the defect is still there.
SPURIOUS_ATOM_LAW = (-0.5044942835844612, 0.06362861054234971)
B_ABOVE_PARABOLA = 1e-8
B_BELOW_PARABOLA = 1e-6


def _pole_distance(a, b):
    """Distance from the roots of b x^2 + a x + 1 to the support, in support widths.

    A root close to the support makes the density steep there and panel
    integration slow; laws outside the atom-near-edge class keep it above a
    floor so that the seed does not move the cost of a report much.
    """
    half = 2 * math.sqrt(1 + b)
    lo, hi = a - half, a + half
    if b == 0:
        roots = [complex(-1 / a)] if a else []
    else:
        disc = cmath.sqrt(a * a - 4 * b)
        roots = [(-a + disc) / (2 * b), (-a - disc) / (2 * b)]
    return min((abs(r - min(max(r.real, lo), hi)) / (hi - lo) for r in roots), default=1.0)


def _laws(rng):
    u = rng.uniform

    def sign():
        return rng.choice((-1, 1))

    def far(draw, floor=0.03):
        while True:
            a, b = draw()
            if _pole_distance(a, b) >= floor:
                return a, b

    def pascal():
        b = u(0.1, 2)
        return sign() * (2 * math.sqrt(b) + u(0.3, 1.0)), b

    def pure():
        b = u(0.2, 2)
        return sign() * u(0, 0.9) * 2 * math.sqrt(b), b

    gamma = [u(0.2, 1.0) for _ in range(4)]
    return (
        [("semicircle", 0.0, 0.0)]
        + [("free-poisson", *far(lambda: (sign() * u(0.3, 2.0), 0.0))) for _ in range(3)]
        + [("atom-near-edge", sign() * 1.02, 0.0), ("atom-near-edge", sign() * 1.05, 0.0)]
        + [("free-pascal", *far(pascal)) for _ in range(4)]
        + [
            ("free-gamma", 2 * gamma[0], gamma[0] ** 2),
            ("free-gamma", -2 * gamma[1], gamma[1] ** 2),
            ("free-gamma+eps", 2 * gamma[2], gamma[2] ** 2 + B_ABOVE_PARABOLA),
            ("free-gamma-eps", -2 * gamma[3], gamma[3] ** 2 - B_BELOW_PARABOLA),
        ]
        + [("pure-free-meixner", *far(pure, floor=0.1)) for _ in range(4)]
        + [("free-binomial", *far(lambda: (u(-1, 1), u(-0.9, -0.1)))) for _ in range(3)]
        + [
            ("b-near--1", u(-1, 1), -1 + 1e-3),
            ("b-near--1", u(-1, 1), -1 + 1e-6),
            ("two-point", u(-1, 1), -1.0),
        ]
    )


def prepare(seed, root, env):
    import freemeixner

    rng = random.Random(seed)
    return {"fm": freemeixner, "laws": _laws(rng), "theta": rng.uniform(0.2, 1.3)}


def _points(fm, p, theta):
    lo, hi = fm.support(p)
    width = hi - lo
    reach = max(abs(lo), abs(hi), *(abs(x) for x, _ in fm.atoms(p)), 1.0)
    radius = fm.series_radius(p)
    grid = [lo - 0.1 * width + 1.2 * width * k / (GRID - 1) for k in range(GRID)]
    zs = (complex(0.5 * (lo + hi), 0.5 * width + 0.1), complex(lo - 0.3 * width, 0.2),
          4 * reach * cmath.exp(1j * theta))
    small = (0.5 * radius, 0.4 * radius * cmath.exp(1j * theta))
    inner = [lo + f * width for f in (0.3, 0.5, 0.7)]
    return grid, zs, small, inner


def report(fm, p, nodes, monomials, theta):
    law = fm.MeixnerLaw.from_params(p)
    grid, zs, small, inner = _points(fm, p, theta)
    rule = fm.gauss_rule(p, nodes)
    degree = min(2 * nodes - 1, 17)
    return (
        law.support,
        law.atoms,
        tuple(fm.density(p, x) for x in grid),
        tuple(fm.cauchy_transform(p, z) for z in zs),
        tuple(fm.r_transform(p, z) for z in small),
        tuple(fm.stieltjes_invert(p, x, EPS) for x in inner),
        tuple(rule.integrate(lambda x, k=k: x ** k) for k in range(degree + 1)),
        tuple(fm.integrate_against_law(law, lambda x, k=k: x ** k).value
              for k in range(monomials)),
        fm.moments(p, 12).values,
        tuple(fm.moment_generating(p, z) for z in small),
        fm.cumulants(p, 8, method="from_moments").values,
    )


def _close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


def _series(coefs, z):
    acc = 0j
    for c in reversed(coefs):
        acc = acc * z + complex(c)
    return acc


def make_check(fm, p, nodes, theta):
    def check(out):
        (support, atoms, dens, gs, rs, inverted, gauss, panels, ms, mgs, cums) = out
        a, b = float(p.a), float(p.b)
        exact = fm.MeixnerParams(F(p.a), F(p.b))
        m = [float(x) for x in fm.moments(exact, 40).values]
        r = [float(x) for x in reference.meixner_cumulants(F(p.a), F(p.b), 40)]
        grid, zs, small, inner = _points(fm, p, theta)
        half = 2 * math.sqrt(1 + b)
        if not (_close(support[0], a - half, 1e-12) and _close(support[1], a + half, 1e-12)):
            return "support endpoints differ from a -+ 2 sqrt(1+b)"
        if any(not _close(g, m[k], 1e-10) for k, g in enumerate(gauss)):
            return f"{nodes}-node Gauss rule misses an exact moment by more than 1e-10"
        if any(not _close(v, m[k], 1e-9) for k, v in enumerate(panels)):
            return "panel integral of a monomial misses the exact moment by more than 1e-9"
        if sum(w for _, w in atoms) > 1 + 1e-12:
            return "atom weights exceed 1"
        if any(abs(v - fm.density(p, x)) > 5 * EPS for v, x in zip(inverted, inner)):
            return "Stieltjes inversion is further than 5 eps from the density"
        if any(d != fm.density(p, x) or d < 0 for d, x in zip(dens, grid)):
            return "density grid is not reproducible or negative"
        z_far = zs[2]
        want = _series(m, 1 / z_far) / z_far
        # G = 2(1+b) / ((1+2b) z + a + w) divides by a difference of size
        # about 1+b, so its rounding error grows like 1/(1+b) as b -> -1
        # (b = -1 itself takes another formula).
        tol = 1e-12 * (1.0 if b == -1 else max(1.0, 1.0 / (1.0 + b)))
        if abs(gs[2] - want) > tol * abs(want):
            return "Cauchy transform differs from its moment series"
        for z, g in zip(zs, gs):
            q, s = b * z * z + a * z + 1, (1 + 2 * b) * z + a
            if abs(q * g * g - s * g + (1 + b)) > 1e-10 * (abs(q * g * g) + abs(s * g) + 1 + b):
                return f"Cauchy transform at {z} misses its quadratic equation"
            if z.imag > 0 and g.imag >= 0:
                return f"Cauchy transform at {z} is on the wrong branch"
        for z, rv, mg in zip(small, rs, mgs):
            if abs(z * b * rv * rv - (1 - a * z) * rv + z) > 1e-12:
                return "R-transform misses its quadratic equation"
            if abs(rv - z * _series(r[1:], z)) > 1e-10 * max(1.0, abs(rv)):
                return "R-transform differs from its cumulant series"
            if abs((z * z + a * z + b) * mg * mg - (1 + a * z + 2 * b) * mg + 1 + b) > 1e-12:
                return "moment generating series misses its quadratic equation"
        if any(not _close(x, m[k], 1e-10) for k, x in enumerate(ms)):
            return "float moments differ from the exact moments"
        if any(not _close(x, r[k], 1e-8) for k, x in enumerate(cums)):
            return "float cumulants differ from the exact cumulants"
        return None

    return check


def epoch(inputs, tracer=None):
    """Two rounds over the laws (Gauss sizes rotate between rounds), one
    control after every eighth report."""
    fm = inputs["fm"]
    theta = inputs["theta"]
    laws = inputs["laws"]
    controls = _controls(fm, laws)
    requests = []
    for k in range(2 * len(laws)):
        i = k % len(laws)
        p = fm.MeixnerParams(laws[i][1], laws[i][2])
        round_ = k // len(laws)
        nodes = NODES[(i + round_) % 3]
        monomials = MONOMIALS[(i + 2 * round_) % 4]
        requests.append(Request(
            kind="report", order=nodes, key=("report", i, nodes, monomials), exact=False,
            call=lambda p=p, nodes=nodes, monomials=monomials: report(fm, p, nodes, monomials,
                                                                      theta),
            check=make_check(fm, p, nodes, theta)))
        if k % 8 == 7:
            requests.append(controls[k // 8])
    return requests


def _controls(fm, laws):
    """Requests whose correct outcome is an error."""
    p = fm.MeixnerParams(laws[2][1], laws[2][2])
    lo, hi = fm.support(p)
    radius = fm.series_radius(p)

    def control(kind, call, exc):
        return Request(kind=f"control.{kind}", order=None, key=("control", kind), call=call,
                       control=raises(exc), exact=False)

    return [
        control("cauchy-on-support", lambda: fm.cauchy_transform(p, 0.5 * (lo + hi)),
                fm.DomainError),
        control("r-beyond-radius", lambda: fm.r_transform(p, 2 * radius), fm.DomainError),
        control("eps<=0", lambda: fm.stieltjes_invert(p, 0.5 * (lo + hi), 0.0), fm.DomainError),
        control("mgf-beyond-radius", lambda: fm.moment_generating(p, 2 * radius),
                fm.DomainError),
        control("panels<1", lambda: fm.integrate_against_law(fm.MeixnerLaw.from_params(p),
                                                             lambda x: 1.0, panels=0), ValueError),
        control("b<-1", lambda: fm.MeixnerParams(0.5, -1.5), fm.DomainError),
    ]


def notes(recorder):
    import freemeixner as fm

    found = fm.atoms(fm.MeixnerParams(*SPURIOUS_ATOM_LAW))
    state = f"still reports {found}" if found else "reports no atom (fixed)"
    return [f"known library defect: atoms(MeixnerParams{SPURIOUS_ATOM_LAW}) {state}; "
            f"the true residue is 0"]


def tamper(req, output):
    values = list(output)
    values[-1] = values[-1][:-1] + (values[-1][-1] + 1.0,)
    return tuple(values)
