"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Exact criteria assert equality of Fractions; float
criteria pin the stated tolerances.
"""

import cmath
import time
from math import comb
from fractions import Fraction as F

from conftest import GRID_POINTS, catalan

from freemeixner import (
    CumulantSequence,
    FreePairSpec,
    LevyParams,
    MeixnerLaw,
    MeixnerParams,
    atoms,
    build_free_pair,
    convolution_power,
    cumulants,
    cumulants_to_moments,
    density,
    dilate,
    gauss_rule,
    integrate_against_law,
    levy_marginal,
    moment_generating,
    moments,
    q_cumulants,
    r_transform,
    stieltjes_invert,
    support,
    verify_levy_martingale,
    verify_linear_regression,
    verify_mixed_cumulants,
    verify_quadratic_variance,
)

_t0 = {}


def record(num, name, ok):
    elapsed = time.perf_counter() - _t0.pop(num, time.perf_counter())
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} ({elapsed:.2f}s)")
    assert ok, f"criterion {num:02d} {name} failed"


def start(num):
    _t0[num] = time.perf_counter()


def test_c01_fifth_cumulant_by_pair_partition_enumeration():
    start(1)
    ok = all(
        cumulants(MeixnerParams(a, b), 5, method="nc_le2").cumulant(5)
        == a ** 3 + 3 * a * b
        for a, b in [(F(1), F(1)), (F(2), F(3)), (F(-1), F(1, 2))]
    )
    record(1, "fifth-cumulant-formula", ok)


def test_c02_catalan_cumulants():
    start(2)
    seq = cumulants(MeixnerParams(0, 1), 18, method="from_moments")
    semi = cumulants(MeixnerParams(0, 1), 18, method="semicircle")
    ok = seq.values == semi.values
    ok = ok and all(seq.cumulant(2 * k + 2) == catalan(k) for k in range(9))
    ok = ok and all(seq.cumulant(2 * k + 1) == 0 for k in range(1, 9))
    record(2, "catalan-cumulants", ok)


def test_c03_free_gamma_cumulants():
    start(3)
    a = F(1, 2)
    seq = cumulants(MeixnerParams(2 * a, a * a), 9, method="nc_le2")
    ok = seq.cumulant(1) == 0 and all(
        seq.cumulant(k + 1) == catalan(k) * a ** (k - 1) for k in range(1, 9)
    )
    record(3, "free-gamma-cumulants", ok)


def test_c04_three_way_cumulant_agreement():
    start(4)
    ok = True
    for a, b in GRID_POINTS:
        p = MeixnerParams(a, b)
        nc = cumulants(p, 12, method="nc_le2")
        inv = cumulants(p, 12, method="from_moments")
        ok = ok and nc.values == inv.values and nc.is_exact
        if b >= 0:
            ok = ok and cumulants(p, 12, method="semicircle").values == nc.values
    record(4, "three-way-cumulant-agreement", ok)


def test_c05_generating_function_quadratics():
    start(5)
    points = [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(-1), F(1, 2)), (F(1, 2), F(-1, 2))]
    ok = True
    for a, b in points:
        p = MeixnerParams(a, b)
        af, bf = float(a), float(b)
        for z in (0.05, 0.05j, (0.03 + 0.04j)):
            m = moment_generating(p, z, 30)
            res_m = (z * z + af * z + bf) * m * m - (1 + af * z + 2 * bf) * m + 1 + bf
            r = r_transform(p, z)
            res_r = z * bf * r * r - (1 - af * z) * r + z
            ok = ok and abs(res_m) < 1e-12 and abs(res_r) < 1e-12
    record(5, "generating-function-quadratics", ok)


class _PerturbedPair(FreePairSpec):
    def x_cumulants(self):
        vals = list(super().x_cumulants().values)
        vals[2] += F(1, 9)
        return CumulantSequence(tuple(vals))


def test_c06_conditional_moment_identities():
    start(6)
    grid = [
        (F(1, 2), F(0), F(0)),
        (F(1, 3), F(2), F(0)),
        (F(1, 4), F(-1), F(0)),
        (F(1, 4), F(3), F(1)),
        (F(2, 3), F(2), F(1)),
        (F(1, 2), F(1), F(1)),
        (F(3, 7), F(1, 2), F(2)),
        (F(2, 5), F(1, 2), F(-1, 10)),
        (F(1, 2), F(1), F(-1, 4)),
        (F(3, 5), F(0), F(-1, 3)),
    ]
    ok = True
    for alpha, a, b in grid:
        pair = build_free_pair(alpha, MeixnerParams(a, b), 10)
        ok = ok and verify_linear_regression(pair, 8).max_residual == 0
        ok = ok and verify_quadratic_variance(pair, 8).max_residual == 0
        ok = ok and verify_mixed_cumulants(pair, 8).max_residual == 0
    control = _PerturbedPair(cumulants(MeixnerParams(F(1), F(1)), 10), F(1, 3))
    ok = ok and not verify_linear_regression(control, 8).ok
    record(6, "conditional-moment-identities", ok)


def test_c07_convolution_power_identity():
    start(7)
    # quarter case: exact dilation by 1/2
    p = MeixnerParams(F(1), F(-1, 4))
    rebuilt = cumulants_to_moments(
        dilate(convolution_power(cumulants(MeixnerParams(F(2), F(-1)), 10), 4), F(1, 2))
    )
    ok = rebuilt.values == moments(p, 10).values
    # arcsine case: mu_{0,-1/2} = D_{1/sqrt 2}(two-point ^ boxplus 2)
    arcsine = moments(MeixnerParams(F(0), F(-1, 2)), 10)
    powered = cumulants_to_moments(
        convolution_power(cumulants(MeixnerParams(F(0), F(-1)), 10), 2)
    )
    half = F(1, 2)
    for n in range(11):
        if n % 2:
            ok = ok and arcsine.moment(n) == 0 == powered.moment(n)
        else:
            ok = ok and arcsine.moment(n) == half ** (n // 2) * powered.moment(n)
            ok = ok and arcsine.moment(n) == F(
                __import__("math").comb(n, n // 2), 2 ** (n // 2)
            )
    record(7, "convolution-power-identity", ok)


def test_c08_gauss_rule_matches_moment_recursion():
    start(8)
    ok = True
    for a, b in GRID_POINTS:
        p = MeixnerParams(a, b)
        rule = gauss_rule(p, 9)
        ms = moments(p, 17)
        for n in range(18):
            got = rule.integrate(lambda x: x ** n)
            expect = float(ms.moment(n))
            ok = ok and abs(got - expect) <= 1e-10 * max(1.0, abs(expect))
    record(8, "gauss-vs-moment-recursion", ok)


def test_c09_atom_recovery():
    start(9)
    got = atoms(MeixnerParams(2, 0))
    ok = len(got) == 1
    # cross-check: standardized free Poisson with rate m = 1/4 puts mass
    # 1 - m on the point -sqrt(m)
    ok = ok and abs(got[0][0] + 0.5) < 1e-12 and abs(got[0][1] - 0.75) < 1e-12
    ok = ok and atoms(MeixnerParams(0, -1)) == [(-1.0, 0.5), (1.0, 0.5)]
    ok = ok and atoms(MeixnerParams(0, F(-1, 2))) == []
    mass = integrate_against_law(
        MeixnerLaw.from_params(MeixnerParams(0, F(-1, 2))), lambda x: 1.0
    ).value
    ok = ok and abs(mass - 1) < 1e-9
    # the arcsine law's poles are its support edges, so f = 1 checks only
    # the mass identity there: its even moments are the central binomials / 2^k
    arcsine = MeixnerLaw.from_params(MeixnerParams(0, F(-1, 2)))
    for k in (2, 4, 6):
        even = integrate_against_law(arcsine, lambda x: x ** k).value
        ok = ok and abs(even - comb(k, k // 2) / 2 ** (k // 2)) < 1e-10 * even
    record(9, "atom-recovery", ok)


def test_c10_stieltjes_inversion():
    start(10)
    laws = [(F(0), F(0)), (F(1), F(1)), (F(2), F(0)), (F(0), F(-1, 2)), (F(3), F(1))]
    ok = True
    for a, b in laws:
        p = MeixnerParams(a, b)
        lo, hi = support(p)
        points = [lo + f * (hi - lo) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
        for eps in (1e-3, 1e-5):
            for x in points:
                err = abs(stieltjes_invert(p, x, eps) - density(p, x))
                ok = ok and err <= 5 * eps
    record(10, "stieltjes-inversion", ok)


def test_c11_levy_marginals_and_martingale():
    start(11)
    import math

    params, lam = levy_marginal(LevyParams(1, 2), 2)
    ok = abs(float(params.a) - 1 / math.sqrt(2)) < 1e-15
    ok = ok and params.b == 1 and abs(float(lam) - math.sqrt(2)) < 1e-15
    # R-transform of the marginal agrees with the closed form
    for z in (0.01, 0.015 + 0.005j):
        direct = 2 * z * 2 / (1 - z + cmath.sqrt((1 - z) ** 2 - 8 * z * z))
        ok = ok and abs(direct - float(lam) * r_transform(params, float(lam) * z)) < 1e-12
    rep = verify_levy_martingale(LevyParams(F(1), F(2)), F(1), F(2), 6)
    ok = ok and rep.ok and rep.max_residual == 0
    record(11, "levy-marginals-and-martingale", ok)


def test_c12_q_interpolation():
    start(12)
    ok = True
    for a, b in [(F(1), F(1)), (F(2), F(-1, 4)), (F(-1, 2), F(2))]:
        q0 = q_cumulants(a, b, 0, 12).values
        p = MeixnerParams(a, b)
        ok = ok and q0 == cumulants(p, 12).values
        ok = ok and q0 == cumulants(p, 12, method="from_moments").values
    record(12, "q-interpolation", ok)
