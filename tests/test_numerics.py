import math
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import GRID_POINTS
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import freemeixner.numerics as numerics_module
from freemeixner import (
    DomainError,
    MeixnerLaw,
    MeixnerParams,
    NumericError,
    QuadratureRule,
    atoms,
    gauss_rule,
    integrate_against_law,
    jacobi_coefficients,
    moments,
    panel_integral,
    stieltjes_invert,
)

# b = -1 with a != 0, b just above -1, a^2 = 4b -/+ eps, and an atom
# just off the support edge (a = 1.02, b = 0)
EDGE_LAWS = [
    (F(1), F(-1)),
    (F(1), F(-999, 1000)),
    (2.0, 1.0 - 1e-9),
    (2.0, 1.0 + 1e-9),
    (F(51, 50), F(0)),
]
RULE_SIZES = (1, 2, 9, 17, 32, 64)


def law(a, b):
    return MeixnerLaw.from_params(MeixnerParams(a, b))


def assert_moments(a, b, top):
    """integrate_against_law of x^k matches the exact moment for k <= top."""
    ms = moments(MeixnerParams(F(a), F(b)), top)
    lw = law(a, b)
    for k in range(top + 1):
        expect = float(ms.moment(k))
        got = integrate_against_law(lw, lambda x: x ** k).value
        assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect)), (a, b, k, got, expect)


def pole_outside(b, gap, side, mirror):
    """(a, b) with a root of b x^2 + a x + 1 gap support widths below the
    support (above it if mirror); side picks one of the two such a.

    The root is x0 = a - s with s = 2 sqrt(1+b) + gap * 4 sqrt(1+b); putting
    it into b x^2 + a x + 1 = 0 leaves (1+b) a^2 - s (2b+1) a + b s^2 + 1 = 0,
    whose discriminant is s^2 - 4(1+b) > 0.
    """
    s = 2 * math.sqrt(1 + b) * (1 + 2 * gap)
    a = (s * (2 * b + 1) + side * math.sqrt(s * s - 4 * (1 + b))) / (2 * (1 + b))
    return (-a if mirror else a), b


@st.composite
def near_pole_laws(draw):
    """Free Poisson (both sides of |a| = 1), free Pascal and free binomial
    laws whose real pole lies 1e-6 to 1e-1 support widths off the support."""
    b = draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0), st.floats(-0.9, -0.05)))
    return pole_outside(b, 10 ** draw(st.floats(-6, -1)), draw(st.sampled_from((-1, 1))),
                       draw(st.booleans()))


class TestQuadratureRule:
    def test_validation(self):
        with pytest.raises(NumericError):
            QuadratureRule(nodes=(0.0, 0.0), weights=(0.5, 0.5))
        with pytest.raises(NumericError):
            QuadratureRule(nodes=(0.0, 1.0), weights=(0.5, -0.5))
        with pytest.raises(NumericError):
            QuadratureRule(nodes=(0.0, 1.0), weights=(0.5, 0.6))

    def test_single_node(self):
        rule = gauss_rule(MeixnerParams(0, 0), 1)
        assert rule.nodes == (0.0,)
        assert rule.weights == (1.0,)


class TestGaussRule:
    def test_two_point_rule_recovers_atoms(self):
        p = MeixnerParams(F(1), F(-1))
        rule = gauss_rule(p, 2)
        expected = atoms(p)
        assert len(rule.nodes) == 2
        for (node, weight), (loc, w) in zip(
            zip(rule.nodes, rule.weights), expected
        ):
            assert abs(node - loc) < 1e-12
            assert abs(weight - w) < 1e-12

    def test_semicircle_fourth_moment(self):
        rule = gauss_rule(MeixnerParams(0, 0), 3)
        assert abs(rule.integrate(lambda x: x ** 4) - 2) < 1e-12

    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_unit_mass(self, a, b):
        rule = gauss_rule(MeixnerParams(a, b), 7)
        assert abs(rule.integrate(lambda x: 1.0) - 1) < 1e-12

    def test_degenerate_jacobi_deduplicates(self):
        rule = gauss_rule(MeixnerParams(0, -1), 9)
        assert len(rule.nodes) == 2
        assert abs(rule.nodes[0] + 1) < 1e-10
        assert abs(rule.nodes[1] - 1) < 1e-10

    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_moment_exactness_through_17(self, a, b):
        p = MeixnerParams(a, b)
        rule = gauss_rule(p, 9)
        ms = moments(p, 17)
        for n in range(18):
            got = rule.integrate(lambda x: x ** n)
            expect = float(ms.moment(n))
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def scipy_rule(p, n):
    """Ascending eigenvalues and squared first eigenvector components."""
    diag, off = jacobi_coefficients(p, n)
    d = np.array([float(v) for v in diag])
    if n == 1:
        return d.tolist(), [1.0]
    vals, vecs = eigh_tridiagonal(d, np.array([float(v) for v in off]))
    order = np.argsort(vals)
    return vals[order].tolist(), (vecs[0, order] ** 2).tolist()


class TestGolubWelsch:
    @pytest.mark.parametrize("n", RULE_SIZES)
    @pytest.mark.parametrize("a,b", GRID_POINTS + EDGE_LAWS)
    def test_matches_scipy(self, a, b, n):
        p = MeixnerParams(a, b)
        nodes, weights = numerics_module._tridiagonal_eigen(*jacobi_coefficients(p, n))
        ref_nodes, ref_weights = scipy_rule(p, n)
        scale = 1.0 + max(abs(x) for x in ref_nodes)
        assert max(abs(x - y) for x, y in zip(nodes, ref_nodes)) <= 1e-13 * scale
        assert max(abs(w - v) for w, v in zip(weights, ref_weights)) <= 1e-13

    @pytest.mark.parametrize("n", RULE_SIZES)
    @pytest.mark.parametrize("a,b", GRID_POINTS + EDGE_LAWS)
    def test_moments_match_exact(self, a, b, n):
        p = MeixnerParams(a, b)
        rule = gauss_rule(p, n)
        top = min(2 * n - 1, 40)
        ms = moments(p, top)
        largest = 1.0
        for k in range(top + 1):
            expect = float(ms.moment(k))
            largest = max(largest, abs(expect))
            assert abs(rule.integrate(lambda x: x ** k) - expect) <= 1e-12 * largest

    def test_legendre_rule_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        assert max(abs(x - y) for x, y in zip(numerics_module._GL_NODES, nodes)) <= 1e-15
        assert max(abs(w - v) for w, v in zip(numerics_module._GL_WEIGHTS, weights)) <= 1e-15

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics_module, "_MAX_QL_SWEEPS", 0)
        with pytest.raises(NumericError, match="did not converge"):
            gauss_rule(MeixnerParams(1, 1), 9)


class TestPanelIntegration:
    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(2), F(0)), (F(0), F(-1, 2))])
    def test_normalization(self, a, b):
        est = integrate_against_law(law(a, b), lambda x: 1.0)
        assert abs(est.value - 1) < 1e-9

    @pytest.mark.parametrize("a,b", [(F(1), F(1)), (F(2), F(0)), (F(0), F(-1, 2))])
    def test_monomials(self, a, b):
        # the poles of (0, -1/2) are its support edges; there f = 1 minus
        # f(pole) is 0, so test_normalization checks only the mass identity
        assert_moments(a, b, 8)

    def test_variance_semicircle(self):
        est = integrate_against_law(law(0, 0), lambda x: x * x)
        assert abs(est.value - 1) < 1e-10

    def test_third_moment(self):
        est = integrate_against_law(law(1, 1), lambda x: x ** 3)
        assert abs(est.value - 1) < 1e-9

    def test_atom_contribution(self):
        # continuous mass of the a=2 free Poisson law is exactly 1/4
        est = integrate_against_law(law(2, 0), lambda x: 1.0)
        continuous = panel_integral(law(2, 0), lambda x: 1.0, 256) - 0.75
        assert abs(est.value - 1) < 1e-10
        assert abs(continuous - 0.25) < 1e-8

    def test_monotone_refinement(self):
        lw = law(1, 1)
        f = math.cos
        diffs = []
        for panels in (1, 2, 4, 8):
            diffs.append(abs(panel_integral(lw, f, 2 * panels) - panel_integral(lw, f, panels)))
        for coarse, fine in zip(diffs, diffs[1:]):
            assert fine <= coarse or fine < 1e-12

    def test_panel_count_validation(self):
        with pytest.raises(ValueError):
            integrate_against_law(law(0, 0), lambda x: 1.0, panels=0)

    @pytest.mark.parametrize("panels", [0, -3])
    def test_fixed_panel_count_validation(self, panels):
        with pytest.raises(ValueError):
            panel_integral(law(2, 0), lambda x: 1.0, panels)

    @given(near_pole_laws())
    def test_near_pole_laws_match_exact_moments(self, ab):
        assert_moments(*ab, 12)

    @pytest.mark.parametrize("a,b", [(0.01, 0.0), (0.1, 0.0), (0.3, 0.001)])
    def test_far_pole_is_not_subtracted(self, a, b):
        # f at a root several support widths away dwarfs f on the support;
        # subtracting it there loses x^6 and x^12 to cancellation
        assert_moments(a, b, 12)

    @pytest.mark.parametrize("a", [1.02, -1.02, 0.999])
    def test_near_pole_costs_two_passes(self, a):
        lw = law(a, 0.0)
        calls = []

        def f(x):
            calls.append(x)
            return x ** 3

        integrate_against_law(lw, f)
        passes = len(numerics_module._GL_NODES) * (8 + 16)
        assert len(calls) <= passes + 1 + len(lw.atoms)

    @pytest.mark.parametrize("a,b,k", [(2.70, 1.62, 12), (7.43, 13.8, 8), (1.0001, 0.0, 12)])
    def test_large_integrals_converge(self, a, b, k):
        # an absolute 1e-10 target is out of reach when the moment is 1e6
        expect = float(moments(MeixnerParams(F(a), F(b)), k).moment(k))
        got = integrate_against_law(law(a, b), lambda x: x ** k).value
        assert abs(got - expect) <= 1e-10 * abs(expect)

    def test_nonconvergence_reports_best_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics_module, "_MAX_PANELS", 8)
        rough = lambda x: math.sin(1.0 / (abs(x) + 1e-4))
        with pytest.raises(NumericError) as exc:
            integrate_against_law(law(0, 0), rough, panels=1)
        assert exc.value.best_estimate is not None


class TestStieltjesInversion:
    def test_semicircle_center(self):
        val = stieltjes_invert(MeixnerParams(0, 0), 0.0, 1e-6)
        assert abs(val - 1 / math.pi) < 1e-5

    def test_far_outside_support(self):
        val = stieltjes_invert(MeixnerParams(0, 0), 50.0, 1e-6)
        assert abs(val) < 1e-5

    def test_atom_blowup_rate(self):
        # Poisson-kernel scaling at the (-1/2, 3/4) atom of the a=2 law
        p = MeixnerParams(2, 0)
        eps = 1e-7
        val = stieltjes_invert(p, -0.5, eps)
        assert abs(val * math.pi * eps - 0.75) < 0.01

    def test_eps_domain(self):
        with pytest.raises(DomainError):
            stieltjes_invert(MeixnerParams(0, 0), 0.0, 0.0)

    def test_eps_nan_refused(self):
        with pytest.raises(DomainError):
            stieltjes_invert(MeixnerParams(0, 0), 0.0, float("nan"))
