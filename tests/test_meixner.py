import cmath
import math
import random
from fractions import Fraction as F

import pytest
from conftest import GRID_POINTS, catalan, exact_atom_locations, mp_atoms, mp_cauchy, mp_poles
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from freemeixner import (
    DomainError,
    MeixnerLaw,
    MeixnerParams,
    MeixnerType,
    SemicircleParams,
    atoms,
    binomial_decomposition,
    cauchy_transform,
    classify,
    convolution_power,
    cumulants,
    cumulants_to_moments,
    density,
    dilate,
    integrate_against_law,
    jacobi_coefficients,
    levy_marginal,
    LevyParams,
    moment_generating,
    moments,
    orthogonal_polynomial,
    r_transform,
    semicircle_moments,
    series_radius,
    support,
    gauss_rule,
)
from freemeixner.meixner import poles


def law(a, b):
    return MeixnerLaw.from_params(MeixnerParams(a, b))


class TestParams:
    def test_b_domain(self):
        with pytest.raises(DomainError):
            MeixnerParams(0, F(-3, 2))

    def test_exactness(self):
        assert MeixnerParams(F(1, 2), 1).is_exact
        assert not MeixnerParams(0.5, 1).is_exact


class TestCauchyTransform:
    def test_semicircle_imaginary_axis(self):
        g = cauchy_transform(MeixnerParams(0, 0), 2j)
        assert abs(g - (1 - math.sqrt(2)) * 1j) < 1e-14

    def test_matches_quadrature_oracle_semicircle(self):
        p = MeixnerParams(0, 0)
        z = 2j
        target = integrate_against_law(
            MeixnerLaw.from_params(p), lambda y: (1.0 / (z - y)).imag
        ).value
        assert abs(cauchy_transform(p, z).imag - target) < 1e-9

    def test_matches_quadrature_oracle_with_interior_point(self):
        p = MeixnerParams(F(1), F(1))
        z = 3 + 0.5j
        lw = law(1, 1)
        re = integrate_against_law(lw, lambda y: (1.0 / (z - y)).real).value
        im = integrate_against_law(lw, lambda y: (1.0 / (z - y)).imag).value
        g = cauchy_transform(p, z)
        assert abs(g.real - re) < 1e-8
        assert abs(g.imag - im) < 1e-8

    @pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(2), F(0)), (F(1), F(1)), (F(0), F(-1))])
    def test_total_mass_asymptotics(self, a, b):
        p = MeixnerParams(a, b)
        for z in (1e6, 1e6j, -1e6 + 0.5j):
            assert abs(z * cauchy_transform(p, z) - 1) < 1e-5

    def test_rejects_support_points(self):
        with pytest.raises(DomainError):
            cauchy_transform(MeixnerParams(0, 0), 0.5)

    def test_rejects_atom_location(self):
        with pytest.raises(DomainError):
            cauchy_transform(MeixnerParams(2, 0), -0.5)

    def test_two_point_law_closed_form(self):
        # at b = -1 the transform is (z-a)/(z^2 - a z - 1)
        p = MeixnerParams(F(1), F(-1))
        z = 0.3 + 1.1j
        expect = (z - 1) / (z * z - z - 1)
        assert abs(cauchy_transform(p, z) - expect) < 1e-14

    @pytest.mark.parametrize("a,b", GRID_POINTS + [(F(1), F(-1)), (F(-2), F(-1)), (F(5, 2), F(-1))])
    def test_refuses_every_atom(self, a, b):
        # the pole guard reads z - 2/(z - a + w), which vanishes at an atom
        p = MeixnerParams(a, b)
        for x0, _ in atoms(p):
            with pytest.raises(DomainError, match="pole"):
                cauchy_transform(p, x0)
            for z in (x0 - 1e-6, x0 + 1e-6):
                assert math.isfinite(abs(cauchy_transform(p, z)))

    def test_centre_of_the_two_point_law(self):
        # at b = -1 the support collapses to {a}, where G = (z-a)/(z^2 - a z - 1) = 0
        assert cauchy_transform(MeixnerParams(F(1, 2), F(-1)), 0.5) == 0

    def test_nevanlinna_property(self):
        zs = [x + y * 1j for x in (-3.0, -1.0, 0.0, 1.5, 3.0) for y in (0.1, 1.0, 5.0)]
        for a, b in GRID_POINTS:
            p = MeixnerParams(a, b)
            for z in zs:
                assert cauchy_transform(p, z).imag <= 1e-12


class TestDensity:
    def test_semicircle_peak(self):
        assert abs(density(MeixnerParams(0, 0), 0.0) - 1 / math.pi) < 1e-15

    def test_outside_support(self):
        assert density(MeixnerParams(1, 1), 100.0) == 0.0
        assert density(MeixnerParams(1, 1), -100.0) == 0.0

    def test_zero_at_endpoints(self):
        p = MeixnerParams(F(1), F(1))
        lo, hi = support(p)
        assert density(p, lo) == 0.0
        assert density(p, hi) == 0.0

    def test_integrates_to_one(self):
        p = MeixnerParams(0, 0)
        val, err = quad(lambda x: density(p, x), -2, 2, epsabs=1e-13, limit=200)
        assert abs(val - 1) < 1e-10

    def test_degenerate_support(self):
        assert density(MeixnerParams(0, -1), 0.0) == 0.0

    def test_arcsine_shape(self):
        # b = -1/2 gives the arcsine law, density 1/(pi sqrt(2 - x^2))
        p = MeixnerParams(0, F(-1, 2))
        for x in (-1.0, -0.3, 0.0, 0.7, 1.2):
            assert abs(density(p, x) - 1 / (math.pi * math.sqrt(2 - x * x))) < 1e-13


class TestAtoms:
    def test_two_point_law(self):
        got = atoms(MeixnerParams(0, -1))
        assert got == [(-1.0, 0.5), (1.0, 0.5)]

    def test_free_poisson_atom(self):
        got = atoms(MeixnerParams(2, 0))
        assert len(got) == 1
        loc, weight = got[0]
        assert abs(loc - (-0.5)) < 1e-14
        assert abs(weight - 0.75) < 1e-14

    def test_arcsine_has_no_atoms(self):
        assert atoms(MeixnerParams(0, F(-1, 2))) == []
        lw = law(0, F(-1, 2))
        assert abs(integrate_against_law(lw, lambda x: 1.0).value - 1) < 1e-9

    def test_no_spurious_atom_below_gamma_parabola(self):
        # b just below a^2/4: the residue at the far root is 0 (checked to
        # 60 digits), but its float numerator cancels to rounding noise that
        # the tiny q'(x0) blows up to about 1e-12
        assert atoms(MeixnerParams(-0.5044942835844612, 0.06362861054234971)) == []

    @pytest.mark.parametrize("a,b", [
        (F(7, 3), F(5, 4)), (F(-7, 3), F(5, 4)),  # root on a support edge
        (1.0, 1e-12),  # b -> 0 with |a| = 1
        (F(19999, 20000), F(0)),  # free Poisson just below |a| = 1
        (F(0), F(-249997, 500000)),  # symmetric free binomial just above b = -1/2
    ])
    def test_no_atom_where_the_residue_vanishes(self, a, b):
        assert atoms(MeixnerParams(a, b)) == []

    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_grid_atoms_pinned(self, a, b):
        # the genuine atoms (free Poisson, free Pascal, free binomial,
        # b = -1) as exact floats; each is within 1.3e-16 relative of a
        # 50-digit evaluation of the exact atom
        pinned = {
            (F(2), F(0)): [(-0.5, 0.75)],
            (F(3), F(1)): [(-0.38196601125010515, 0.8291796067500632)],
            (F(5, 2), F(1, 2)): [(-0.4384471871911697, 0.7873218748183352)],
            (F(1), F(-1, 4)): [(-0.8284271247461902, 0.4142135623730951)],
            (F(0), F(-1)): [(-1.0, 0.5), (1.0, 0.5)],
        }
        assert atoms(MeixnerParams(a, b)) == pinned.get((a, b), [])

    def test_counting_upper_bound(self):
        for a, b in GRID_POINTS:
            got = atoms(MeixnerParams(a, b))
            limit = 2 if b < 0 else 1
            assert len(got) <= limit
            lo, hi = support(MeixnerParams(a, b))
            for loc, weight in got:
                assert weight > 0
                assert not lo < loc < hi

    def test_general_two_point_weights(self):
        # mean-zero / variance-one constraints pin the weights
        for a in (F(1), F(-2), F(1, 2)):
            got = atoms(MeixnerParams(a, -1))
            mean = sum(w * x for x, w in got)
            var = sum(w * x * x for x, w in got)
            mass = sum(w for _, w in got)
            assert abs(mean) < 1e-14
            assert abs(var - 1) < 1e-13
            assert abs(mass - 1) < 1e-14


class TestPoles:
    def test_no_root_cancels(self):
        # (-a + sqrt(a^2 - 4b)) / (2b) loses 5 digits to cancellation here
        assert -1.000000000001 in poles(MeixnerParams(1.0, 1e-12))

    def test_double_root_listed_twice(self):
        assert poles(MeixnerParams(F(2), F(1))) == [-1.0, -1.0]


# Laws for the 50-digit mpmath oracle: the six regions (GRID_POINTS); b -> -1;
# a^2 = 4b +- eps; |a| -> 1 at b = 0, and b -> 0 at |a| = 1; atoms on or
# next to a support edge; and |a|, b near 1e30, where the float path must
# keep its squares finite.  Float inputs near a^2 = 4b are chosen so that
# a^2 - 4b is exact in floats: that difference is rounded once, and near
# the parabola its relative rounding error becomes the roots' error.
ORACLE_LAWS = GRID_POINTS + [
    (0.5, -1 + 1e-15), (0.5, -1 + 1e-9), (-2.0, -1 + 1e-3), (0.0, -1 + 2e-15), (1.0, -1.0),
    (2.0, 1 + 1e-9), (2.0, 1 - 1e-9), (3.0, 2.25 + 1e-12), (3.0, 2.25 - 1e-12),
    (1 + 1e-12, 0.0), (1 - 1e-12, 0.0), (-1 - 1e-9, 0.0), (1.0, 1e-12),
    (F(7, 3), F(5, 4)), (F(-7, 3), F(5, 4)), (F(7, 3) + F(1, 10**9), F(5, 4)),
    (F(19999, 20000), F(0)), (F(0), F(-249997, 500000)),
    (3e30, 1e30), (-2e30, 9e29), (1e30, 1e30),
]
ORACLE_Z = [2j, 3 + 0.5j, -1.5 + 1e-3j, 0.25 - 2j, -40 + 1j]
# Laws where a^2 - 4b, or (1+2b) sqrt(a^2 - 4b), leaves the float range;
# a = 10^155 is exact, and its a^2 - 4b has no float.
BEYOND_FLOAT_LAWS = [(1e155, 1.0), (-1e155, 1.0), (1e200, 1e200), (F(10**155), F(1)),
                     (-1e145, 1e175)]


class TestAgainstMpmath:
    @pytest.mark.parametrize("a,b", ORACLE_LAWS + BEYOND_FLOAT_LAWS)
    def test_poles(self, a, b):
        got = sorted(poles(MeixnerParams(a, b)))
        ref = mp_poles(a, b)
        assert len(got) == len(ref)
        for x, r in zip(got, ref):
            assert abs(x - r) <= 1e-15 * abs(r)

    @pytest.mark.parametrize("a,b", ORACLE_LAWS + BEYOND_FLOAT_LAWS)
    def test_atoms(self, a, b):
        got = atoms(MeixnerParams(a, b))
        ref = mp_atoms(a, b)
        assert len(got) == len(ref)
        # weights are at most 1, so the bound is absolute: near |a| = 1 at
        # b = 0 the weight a^2 - 1 moves by 1e-7 of itself per ulp of a
        for (x, w), (rx, rw) in zip(got, ref):
            assert abs(x - rx) <= 1e-15 * abs(rx)
            assert abs(w - rw) <= 1e-15

    @pytest.mark.parametrize("a,b", ORACLE_LAWS)
    def test_cauchy_transform(self, a, b):
        p = MeixnerParams(a, b)
        for z in ORACLE_Z:
            ref = mp_cauchy(a, b, z)
            assert abs(cauchy_transform(p, z) - ref) <= 1e-11 * abs(ref)

    def test_cauchy_transform_near_b_minus_one(self):
        # half the points have 1 + b in [1e-15, 1e-1] and real z 1e-8..1e-1
        # outside a support edge; closer in, one ulp of z moves G by more
        # than 1e-11, so no float method meets the bound there
        rng = random.Random(2004)
        for i in range(2000):
            if i % 2:
                a, b = rng.uniform(-3, 3), -1 + 10 ** rng.uniform(-15, -1)
                half = 2 * math.sqrt(1 + b)
                z = complex(a + rng.choice((-1, 1)) * (half + 10 ** rng.uniform(-8, -1)))
            else:
                a, b = rng.uniform(-5, 5), rng.uniform(-1, 5)
                z = complex(rng.uniform(-8, 8), rng.choice((-1, 1)) * 10 ** rng.uniform(-8, 1))
            ref = mp_cauchy(a, b, z)
            assert abs(cauchy_transform(MeixnerParams(a, b), z) - ref) <= 1e-11 * abs(ref)


@st.composite
def near_boundary_laws(draw):
    """Rational (a, b) within 1e-3..1e-15 of a law where an atom meets a
    support edge, of the free Gamma parabola a^2 = 4b, of the arcsine law
    (0, -1/2) or of b = -1."""
    kind = draw(st.sampled_from(["edge", "parabola", "arcsine", "two-point"]))
    if kind == "edge":
        # a^2 (1+b) = (1+2b)^2 at 1 + b = t^2; t = 1 is |a| = 1, b = 0
        t = F(draw(st.integers(1, 12)), draw(st.integers(1, 12)))
        a, b = draw(st.sampled_from([-1, 1])) * (2 * t * t - 1) / t, t * t - 1
    elif kind == "parabola":
        a = F(draw(st.integers(-12, 12)), draw(st.integers(1, 6)))
        b = a * a / 4
    elif kind == "arcsine":
        a, b = F(0), F(-1, 2)
    else:
        a, b = F(draw(st.integers(-12, 12)), draw(st.integers(1, 6))), F(-1)
    step = F(1, 10 ** draw(st.integers(3, 15)))
    a += draw(st.integers(-2, 2)) * step
    b = max(b + draw(st.integers(-2, 2)) * step, F(-1))
    return a, b


@given(near_boundary_laws())
def test_atom_existence_is_exact(ab):
    a, b = ab
    got = atoms(MeixnerParams(a, b))
    ref = exact_atom_locations(a, b)
    assert len(got) == len(ref)
    for (x, w), r in zip(got, ref):
        assert abs(x - float(r)) <= 1e-15 * abs(float(r))
        assert w > 0


class TestRTransform:
    def test_semicircle_is_identity(self):
        p = MeixnerParams(0, 0)
        for z in (0.05, -0.08, 0.03 + 0.02j):
            assert abs(r_transform(p, z) - z) < 1e-14

    @pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(1), F(1)), (F(2), F(3)), (F(1), F(-1, 2))])
    def test_quadratic_equation(self, a, b):
        p = MeixnerParams(a, b)
        z = 0.5 * series_radius(p)
        r = r_transform(p, z)
        residual = z * float(b) * r * r - (1 - float(a) * z) * r + z
        assert abs(residual) < 1e-12

    def test_series_coefficients_are_shifted_cumulants(self):
        # derivative-free Taylor coefficients via circle averages
        p = MeixnerParams(F(1), F(1))
        rs = cumulants(p, 8)
        rho = 0.9 * series_radius(p)
        m = 64
        samples = [r_transform(p, rho * cmath.exp(2j * cmath.pi * j / m)) for j in range(m)]
        for k in range(8):
            coeff = sum(
                samples[j] * cmath.exp(-2j * cmath.pi * j * k / m) for j in range(m)
            ) / (m * rho ** k)
            expect = float(rs.cumulant(k + 1))
            assert abs(coeff - expect) < 1e-8 * max(1.0, abs(expect))

    def test_radius_guard(self):
        with pytest.raises(DomainError):
            r_transform(MeixnerParams(1, 1), 0.5)


class TestMoments:
    @pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(1), F(1)), (F(-2), F(1, 2))])
    def test_low_order_pattern(self, a, b):
        ms = moments(MeixnerParams(a, b), 4)
        assert ms.values == (1, 0, 1, a, 2 + a * a + b)

    def test_semicircle_catalan(self):
        ms = moments(MeixnerParams(0, 0), 12)
        for k in range(7):
            assert ms.moment(2 * k) == catalan(k)
        for k in range(6):
            assert ms.moment(2 * k + 1) == 0

    def test_symmetric_two_point(self):
        assert moments(MeixnerParams(0, -1), 8).values == (1, 0, 1, 0, 1, 0, 1, 0, 1)

    def test_general_two_point_recurrence(self):
        a = F(3, 2)
        ms = moments(MeixnerParams(a, -1), 10)
        # every atom satisfies x^2 = a x + 1, so moments do too
        for n in range(8):
            assert ms.moment(n + 2) == a * ms.moment(n + 1) + ms.moment(n)

    def test_arcsine_moments(self):
        ms = moments(MeixnerParams(0, F(-1, 2)), 10)
        for k in range(6):
            assert ms.moment(2 * k) == F(math.comb(2 * k, k), 2 ** k)

    def test_exact(self):
        assert moments(MeixnerParams(F(1, 3), F(2, 5)), 12).is_exact


class TestCumulants:
    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(2), F(3)), (F(-1), F(1, 2))])
    def test_fifth_cumulant_formula(self, a, b):
        seq = cumulants(MeixnerParams(a, b), 5, method="nc_le2")
        assert seq.cumulant(5) == a ** 3 + 3 * a * b

    def test_catalan_cumulants(self):
        seq = cumulants(MeixnerParams(0, 1), 18, method="from_moments")
        for k in range(9):
            assert seq.cumulant(2 * k + 2) == catalan(k)
        for k in range(8):
            assert seq.cumulant(2 * k + 3) == 0

    def test_free_gamma_cumulants(self):
        a = F(1, 2)
        seq = cumulants(MeixnerParams(2 * a, a * a), 10)
        for k in range(1, 10):
            assert seq.cumulant(k + 1) == catalan(k) * a ** (k - 1)

    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_three_way_agreement(self, a, b):
        p = MeixnerParams(a, b)
        nc = cumulants(p, 12, method="nc_le2")
        inv = cumulants(p, 12, method="from_moments")
        assert nc.values == inv.values
        if b >= 0:
            semi = cumulants(p, 12, method="semicircle")
            assert semi.values == nc.values

    # dyadic floats keep every cumulant exact in binary, so each method has to
    # give the same bits, not just close values; R_1 is 0 in the type of the rest
    @pytest.mark.parametrize("a,b", [(F(1, 2), F(3, 2)), (0.5, 1.5), (F(1, 2), 1.5),
                                     (0.5, F(3, 2)), (-2.0, 0.25), (0.0, 0.0)])
    def test_methods_agree_in_type_and_bits(self, a, b):
        def bits(seq):
            return [(type(v), float.hex(v) if type(v) is float else v) for v in seq.values]

        p = MeixnerParams(a, b)
        nc, semi, inv = (bits(cumulants(p, 10, method=m))
                         for m in ("nc_le2", "semicircle", "from_moments"))
        assert semi == nc == inv
        assert {t for t, _ in nc} == {F if p.is_exact else float}

    def test_semicircle_method_domain(self):
        with pytest.raises(DomainError):
            cumulants(MeixnerParams(0, F(-1, 2)), 6, method="semicircle")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            cumulants(MeixnerParams(0, 0), 6, method="magic")


class TestSemicircleMoments:
    def test_standard(self):
        assert semicircle_moments(SemicircleParams(0, 1), 4).values == (1, 0, 1, 0, 2)

    def test_shifted_low_orders(self):
        a, b = F(2), F(3)
        ms = semicircle_moments(SemicircleParams(a, b), 2)
        assert ms.values == (1, a, a * a + b)

    def test_point_mass(self):
        c = F(5, 4)
        ms = semicircle_moments(SemicircleParams(c, 0), 5)
        assert ms.values == tuple(c ** n for n in range(6))

    def test_variance_domain(self):
        with pytest.raises(DomainError):
            SemicircleParams(0, -1)


class TestOrthogonalPolynomials:
    def test_degree_two_at_zero(self):
        for a, b in [(F(1), F(1)), (F(-2), F(0)), (F(1, 2), F(-1, 2))]:
            assert orthogonal_polynomial(MeixnerParams(a, b), 2, 0) == -1

    def test_chebyshev_like(self):
        p = MeixnerParams(0, 0)
        for x in (F(0), F(1), F(-2), F(1, 2)):
            assert orthogonal_polynomial(p, 3, x) == x ** 3 - 2 * x

    def test_orthogonality_by_quadrature(self):
        p = MeixnerParams(F(1), F(1))
        rule = gauss_rule(p, 12)
        val = rule.integrate(
            lambda x: float(orthogonal_polynomial(p, 2, x))
            * float(orthogonal_polynomial(p, 3, x))
        )
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(2), F(0)), (F(1), F(-1, 4))])
    def test_orthogonality_matrix(self, a, b):
        p = MeixnerParams(a, b)
        rule = gauss_rule(p, 12)
        vals = {}
        for i in range(11):
            vals[i] = [float(orthogonal_polynomial(p, i, x)) for x in rule.nodes]
        for i in range(11):
            for j in range(i + 1, 11):
                inner = sum(
                    w * vi * vj for w, vi, vj in zip(rule.weights, vals[i], vals[j])
                )
                assert abs(inner) < 1e-9

    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(2), F(0))])
    def test_squared_norms(self, a, b):
        p = MeixnerParams(a, b)
        rule = gauss_rule(p, 12)
        for n in range(1, 11):
            norm = rule.integrate(lambda x: float(orthogonal_polynomial(p, n, x)) ** 2)
            expect = float(1 + b) ** (n - 1)
            assert abs(norm - expect) <= 1e-9 * max(1.0, expect)


class TestJacobiCoefficients:
    def test_two_point_truncation(self):
        a = F(3)
        diag, off = jacobi_coefficients(MeixnerParams(a, -1), 2)
        assert diag == (0, a)
        assert off == (1,)

    def test_semicircle(self):
        diag, off = jacobi_coefficients(MeixnerParams(0, 0), 5)
        assert diag == (0, 0, 0, 0, 0)
        assert off == (1, 1, 1, 1)

    def test_offdiagonal_squares(self):
        diag, off = jacobi_coefficients(MeixnerParams(1, F(3)), 4)
        assert [v * v for v in off] == [1, 4, 4]


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (F(0), F(0), MeixnerType.SEMICIRCLE),
            (F(2), F(0), MeixnerType.FREE_POISSON),
            (F(3), F(1), MeixnerType.FREE_PASCAL),
            (F(2), F(1), MeixnerType.FREE_GAMMA),
            (F(1), F(1), MeixnerType.PURE_FREE_MEIXNER),
            (F(1, 2), F(-3, 10), MeixnerType.FREE_BINOMIAL),
            (F(0), F(-1), MeixnerType.FREE_BINOMIAL),
        ],
    )
    def test_examples(self, a, b, expected):
        assert classify(MeixnerParams(a, b)) == expected

    def test_semicircle_takes_precedence(self):
        assert classify(MeixnerParams(0, 0)) != MeixnerType.FREE_POISSON

    def test_float_parabola_tolerance(self):
        assert classify(MeixnerParams(2.0, 1.0 + 1e-14)) == MeixnerType.FREE_GAMMA

    def test_every_grid_point_gets_one_label(self):
        for a, b in GRID_POINTS:
            assert classify(MeixnerParams(a, b)) in MeixnerType


class TestBinomialDecomposition:
    def test_two_point_fixed_point(self):
        tp, t, lam = binomial_decomposition(MeixnerParams(0, -1))
        assert (tp.a, tp.b) == (0, -1)
        assert t == 1
        assert lam == 1

    def test_quarter_case(self):
        tp, t, lam = binomial_decomposition(MeixnerParams(F(1), F(-1, 4)))
        assert (tp.a, tp.b) == (2, -1)
        assert t == 4
        assert lam == F(1, 2)

    def test_moment_identity_exact(self):
        p = MeixnerParams(F(1), F(-1, 4))
        tp, t, lam = binomial_decomposition(p)
        reconstructed = cumulants_to_moments(
            dilate(convolution_power(cumulants(tp, 10), t), lam)
        )
        assert reconstructed.values == moments(p, 10).values

    def test_rejects_nonnegative_b(self):
        with pytest.raises(DomainError):
            binomial_decomposition(MeixnerParams(1, 0))

    @pytest.mark.parametrize("a,b", [(F(1), F(-1, 4)), (F(3), F(-9, 16)), (F(0), F(-1, 2))])
    def test_decomposition_exact_across_region(self, a, b):
        p = MeixnerParams(a, b)
        tp, t, lam = binomial_decomposition(p)
        powered = cumulants_to_moments(convolution_power(cumulants(tp, 10), t))
        target = moments(p, 10)
        lam_sq = -b  # lam^2 stays rational even when lam itself is not
        for n in range(11):
            if n % 2 == 0 or a != 0:
                if isinstance(lam, F):
                    assert target.moment(n) == lam ** n * powered.moment(n)
                else:
                    assert n % 2 == 0
                    assert target.moment(n) == lam_sq ** (n // 2) * powered.moment(n)
            else:
                assert target.moment(n) == 0 == powered.moment(n)


class TestLevyMarginal:
    def test_free_brownian_case(self):
        params, lam = levy_marginal(LevyParams(0, 0), 4)
        assert (params.a, params.b) == (0, 0)
        assert lam == 2

    def test_parameter_maps(self):
        params, lam = levy_marginal(LevyParams(1, 2), 2)
        assert abs(float(params.a) - 1 / math.sqrt(2)) < 1e-15
        assert params.b == 1
        assert abs(float(lam) - math.sqrt(2)) < 1e-15

    def test_r_transform_display(self):
        eta, sigma, t = 1.0, 2.0, 2.0
        params, lam = levy_marginal(LevyParams(eta, sigma), t)
        lam = float(lam)
        for z in (0.01, 0.02 + 0.005j):
            direct = 2 * z * t / (
                1 - eta * z + cmath.sqrt((1 - eta * z) ** 2 - 4 * z * z * sigma)
            )
            via_dilation = lam * r_transform(params, lam * z)
            assert abs(direct - via_dilation) < 1e-12

    def test_cumulants_linear_in_time(self):
        # R_n(X_t) = lam^n R_n(mu_{eta/sqrt t, sigma/t}) = t R_n(mu_{eta,sigma})
        base = cumulants(MeixnerParams(F(1), F(2)), 8)
        for t in (F(4), F(9, 4)):  # perfect squares keep the dilation exact
            params, lam = levy_marginal(LevyParams(F(1), F(2)), t)
            assert isinstance(lam, F)
            marg = dilate(cumulants(params, 8), lam)
            assert marg.values == tuple(t * r for r in base.values)

    def test_cumulants_linear_in_time_float(self):
        base = cumulants(MeixnerParams(F(1), F(2)), 8)
        t = F(3)
        params, lam = levy_marginal(LevyParams(F(1), F(2)), t)
        marg = dilate(cumulants(params, 8), lam)
        for got, expect in zip(marg.values, (t * r for r in base.values)):
            assert abs(float(got) - float(expect)) < 1e-9

    def test_time_domain(self):
        with pytest.raises(DomainError):
            levy_marginal(LevyParams(0, 0), 0)


class TestMomentGenerating:
    def test_value_at_zero(self):
        assert moment_generating(MeixnerParams(1, 1), 0) == 1

    def test_quadratic_equation_residual(self):
        p = MeixnerParams(0, 0)
        z = 0.1
        m = moment_generating(p, z, 30)
        residual = (z * z) * m * m - m + 1
        assert abs(residual) < 1e-12

    @pytest.mark.parametrize(
        "a,b", [(F(0), F(0)), (F(1), F(1)), (F(1), F(0)), (F(-1), F(1, 2)), (F(1, 2), F(-1, 2))]
    )
    def test_quadratic_equation_general(self, a, b):
        p = MeixnerParams(a, b)
        af, bf = float(a), float(b)
        for z in (0.05, 0.05j, 0.03 - 0.03j):
            m = moment_generating(p, z, 30)
            residual = (z * z + af * z + bf) * m * m - (1 + af * z + 2 * bf) * m + 1 + bf
            assert abs(residual) < 1e-12

    def test_matches_cauchy_transform(self):
        p = MeixnerParams(0, 0)
        z = 10 + 1j
        g = moment_generating(p, 1 / z, 40) / z
        assert abs(g - cauchy_transform(p, z)) < 1e-8

    def test_radius_guard(self):
        with pytest.raises(DomainError):
            moment_generating(MeixnerParams(1, 1), 0.2)


class TestLawObject:
    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_normalization(self, a, b):
        lw = law(a, b)
        total = integrate_against_law(lw, lambda x: 1.0)
        assert abs(total.value - 1) < 1e-9

    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_monomials(self, a, b):
        # test_normalization checks only the mass identity on laws whose
        # density has a pole at or just off an edge, such as (0, -1/2)
        lw = law(a, b)
        ms = moments(MeixnerParams(a, b), 8)
        for k in range(9):
            expect = float(ms.moment(k))
            got = integrate_against_law(lw, lambda x: x ** k).value
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))

    def test_atoms_outside_open_support(self):
        for a, b in GRID_POINTS:
            lw = law(a, b)
            lo, hi = lw.support
            for loc, weight in lw.atoms:
                assert weight > 0
                assert not lo < loc < hi


class TestStieltjesLimits:
    @pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(1), F(1)), (F(2), F(0)), (F(0), F(-1, 2))])
    def test_inversion_linear_in_eps(self, a, b):
        from freemeixner import stieltjes_invert

        p = MeixnerParams(a, b)
        lo, hi = support(p)
        pts = [lo + f * (hi - lo) for f in (0.2, 0.35, 0.5, 0.65, 0.8)]
        rates = {}
        for eps in (1e-3, 1e-5, 1e-7):
            rates[eps] = max(
                abs(stieltjes_invert(p, x, eps) - density(p, x)) / eps for x in pts
            )
        fitted = max(rates[1e-3], 1e-3)
        # error stays O(eps) with a stable constant across decades
        assert rates[1e-5] <= 3 * fitted
        assert rates[1e-7] <= 3 * fitted + 1e-3


class TestConvolutionIdentityAcrossRegion:
    @pytest.mark.parametrize("a,b", [(F(1), F(-1, 4)), (F(3), F(-9, 16)), (F(2), F(-1))])
    def test_power_identity_exact_order_10(self, a, b):
        # mu_{a,b} = D_lam(two-point ^ boxplus t) at moment level
        p = MeixnerParams(a, b)
        if b == -1:
            assert binomial_decomposition(p)[1] == 1
            return
        tp, t, lam = binomial_decomposition(p)
        assert isinstance(lam, F)
        lhs = moments(p, 10)
        rhs = cumulants_to_moments(dilate(convolution_power(cumulants(tp, 10), t), lam))
        assert lhs.values == rhs.values
