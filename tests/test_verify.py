from fractions import Fraction as F

import pytest
from conftest import (
    GRID_POINTS,
    fraction_linear_regression,
    fraction_moment_recursion,
    fraction_quadratic_variance,
)
from hypothesis import given
from hypothesis import strategies as st

from freemeixner import (
    MAX_ORDER,
    CumulantSequence,
    DomainError,
    FreePairSpec,
    LevyParams,
    MeixnerParams,
    OrderCapError,
    build_free_pair,
    cumulants,
    free_pair_moment,
    joint_moment_free_pair,
    marginal_law_params,
    verify_levy_martingale,
    verify_linear_regression,
    verify_mixed_cumulants,
    verify_moment_recursion,
    verify_orthogonality,
    verify_quadratic_variance,
)

# feasible (alpha, a, b) spanning the six regions
PAIR_GRID = [
    (F(1, 2), F(0), F(0)),
    (F(1, 3), F(2), F(0)),
    (F(1, 4), F(3), F(1)),
    (F(2, 3), F(2), F(1)),
    (F(1, 2), F(1), F(1)),
    (F(2, 5), F(1, 2), F(-1, 10)),
    (F(1, 2), F(1), F(-1, 4)),
    (F(3, 5), F(0), F(-1, 3)),
]


class PerturbedPair(FreePairSpec):
    """Test double: one marginal cumulant pushed off the alpha split."""

    def __init__(self, s_cumulants, alpha, broken_order, delta=F(1, 7)):
        super().__init__(s_cumulants, alpha)
        object.__setattr__(self, "broken_order", broken_order)
        object.__setattr__(self, "delta", delta)

    def x_cumulants(self):
        vals = list(super().x_cumulants().values)
        vals[self.broken_order - 1] += self.delta
        return CumulantSequence(tuple(vals))


class TestBuildFreePair:
    def test_semicircle_split(self):
        pair = build_free_pair(F(1, 2), MeixnerParams(0, 0), 6)
        assert pair.x_cumulants().values == (0, F(1, 2), 0, 0, 0, 0)
        assert pair.y_cumulants().values == (0, F(1, 2), 0, 0, 0, 0)

    def test_feasibility_bound(self):
        p = MeixnerParams(F(1), F(-1, 5))
        build_free_pair(F(1, 4), p, 6)  # -1/5 >= -1/4: fine
        with pytest.raises(DomainError):
            build_free_pair(F(1, 10), p, 6)  # -1/5 < -1/10: rejected

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            build_free_pair(F(0), MeixnerParams(0, 0), 6)

    def test_marginal_params_at_boundary(self):
        alpha = F(1, 4)
        p = MeixnerParams(F(1), -alpha)
        x_law, y_law = marginal_law_params(alpha, p)
        assert x_law.b == -1
        assert y_law.b == F(-1, 3)

    def test_marginal_params_values(self):
        x_law, _ = marginal_law_params(F(1, 4), MeixnerParams(F(1), F(1, 2)))
        assert x_law.a == 2  # a / sqrt(1/4)
        assert x_law.b == 2


class TestLinearRegression:
    def test_semicircle_odd_moment(self):
        pair = build_free_pair(F(1, 2), MeixnerParams(0, 0), 6)
        assert joint_moment_free_pair(pair, ["X", "S", "S"]) == 0
        rep = verify_linear_regression(pair, 4)
        assert rep.ok
        assert rep.max_residual == 0

    def test_exact_pass_order_8(self):
        pair = build_free_pair(F(1, 3), MeixnerParams(F(1), F(1)), 10)
        rep = verify_linear_regression(pair, 8)
        assert rep.ok
        assert rep.identity == "linear-regression"
        assert rep.orders == tuple(range(1, 9))
        assert all(r == 0 for r in rep.residuals)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_perturbation_detected_at_k_minus_1(self, k):
        base = cumulants(MeixnerParams(F(1), F(1)), 8)
        pair = PerturbedPair(base, F(1, 3), broken_order=k)
        rep = verify_linear_regression(pair, 7)
        assert not rep.ok
        assert rep.first_failure == k - 1


class TestQuadraticVariance:
    def test_order_zero_is_alpha_beta(self):
        alpha = F(1, 3)
        pair = build_free_pair(alpha, MeixnerParams(F(1), F(1)), 8)
        rep = verify_quadratic_variance(pair, 4)
        assert rep.ok
        assert rep.constant == alpha * (1 - alpha) / 2  # alpha beta / (1+b), b = 1

    def test_exact_pass(self):
        pair = build_free_pair(F(1, 2), MeixnerParams(F(1), F(1)), 10)
        rep = verify_quadratic_variance(pair, 6)
        assert rep.ok and rep.max_residual == 0

    def test_free_binomial_region(self):
        pair = build_free_pair(F(2, 5), MeixnerParams(F(1, 2), F(-1, 10)), 10)
        rep = verify_quadratic_variance(pair, 6)
        assert rep.ok and rep.max_residual == 0

    def test_two_point_rejected(self):
        pair = build_free_pair(F(1, 2), MeixnerParams(F(0), F(-1, 2)), 8)
        # doctor the pair so its effective b is -1
        broken = FreePairSpec(cumulants(MeixnerParams(0, -1), 8), F(1, 2))
        with pytest.raises(DomainError):
            verify_quadratic_variance(broken, 4)
        assert verify_quadratic_variance(pair, 4).ok

    def test_symmetric_in_alpha(self):
        p = MeixnerParams(F(1), F(1))
        rep1 = verify_quadratic_variance(build_free_pair(F(1, 3), p, 10), 6)
        rep2 = verify_quadratic_variance(build_free_pair(F(2, 3), p, 10), 6)
        assert rep1.residuals == rep2.residuals
        assert rep1.constant == rep2.constant

    def test_perturbation_detected_somewhere(self):
        base = cumulants(MeixnerParams(F(1), F(1)), 10)
        pair = PerturbedPair(base, F(1, 3), broken_order=4)
        assert (not verify_linear_regression(pair, 6).ok) or (
            not verify_quadratic_variance(pair, 6).ok
        )


class TestMixedCumulants:
    def test_order_two_vanishes(self):
        pair = build_free_pair(F(2, 7), MeixnerParams(F(1), F(1)), 6)
        rep = verify_mixed_cumulants(pair, 2)
        assert rep.ok

    def test_exact_pass_order_10(self):
        pair = build_free_pair(F(1, 3), MeixnerParams(F(2), F(1)), 10)
        rep = verify_mixed_cumulants(pair, 10)
        assert rep.ok and rep.max_residual == 0

    def test_squared_identity_value(self):
        # beta^2 R_3(X) + alpha^2 R_3(Y) = alpha beta a
        alpha, a = F(1, 3), F(2)
        pair = build_free_pair(alpha, MeixnerParams(a, F(1)), 6)
        beta = 1 - alpha
        x3 = pair.x_cumulants().cumulant(3)
        y3 = pair.y_cumulants().cumulant(3)
        assert beta * beta * x3 + alpha * alpha * y3 == alpha * beta * a

    def test_detects_perturbation(self):
        base = cumulants(MeixnerParams(F(1), F(1)), 8)
        pair = PerturbedPair(base, F(1, 3), broken_order=5)
        rep = verify_mixed_cumulants(pair, 8)
        assert not rep.ok
        assert rep.first_failure == 5

    def test_runs_no_transform(self, monkeypatch):
        # the check reads block weights only, never the moments of S
        def refuse(*args):
            raise AssertionError("the S transform ran")

        monkeypatch.setattr("freemeixner.verify._transform_loop", refuse)
        pair = build_free_pair(F(1, 3), MeixnerParams(F(2), F(1)), 10)
        assert verify_mixed_cumulants(pair, 10).ok
        with pytest.raises(AssertionError):
            verify_linear_regression(pair, 8)


class TestOrderChecks:
    SHORT = build_free_pair(F(1, 3), MeixnerParams(F(1), F(1)), 6)

    @pytest.mark.parametrize("check, order, need", [
        (verify_linear_regression, 6, 7),
        (verify_quadratic_variance, 5, 7),
        (verify_mixed_cumulants, 7, 7),
    ])
    def test_short_pair(self, check, order, need):
        message = f"^need pair cumulants up to order {need}, have 6$"
        with pytest.raises(OrderCapError, match=message):
            check(self.SHORT, order)

    def test_quadratic_variance_needs_the_fourth_cumulant(self):
        # order 0 reads S cumulants only to order 2, but a and b need R_3 and R_4
        three = build_free_pair(F(1, 3), MeixnerParams(1, 1), 3)
        with pytest.raises(OrderCapError, match="^need S cumulants at least to order 4$"):
            verify_quadratic_variance(three, 0)

    def test_short_pair_is_refused_before_b_minus_one(self):
        two_point = FreePairSpec(cumulants(MeixnerParams(0, -1), 4), F(1, 2))
        with pytest.raises(OrderCapError, match="need pair cumulants up to order 5, have 4"):
            verify_quadratic_variance(two_point, 3)
        with pytest.raises(DomainError):
            verify_quadratic_variance(two_point, 2)

    def test_b_minus_one_is_refused_before_the_order_cap(self):
        values = cumulants(MeixnerParams(0, -1), MAX_ORDER).values
        long_pair = FreePairSpec(CumulantSequence(list(values) + [F(0)] * 4), F(1, 2))
        with pytest.raises(DomainError):
            verify_quadratic_variance(long_pair, MAX_ORDER)
        for check in (verify_linear_regression, verify_mixed_cumulants):
            with pytest.raises(OrderCapError, match="exceeds the supported cap"):
                check(long_pair, MAX_ORDER + 1)


class TestMomentRecursion:
    @pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(1), F(1)), (F(0), F(-1, 2))])
    def test_exact_pass(self, a, b):
        rep = verify_moment_recursion(MeixnerParams(a, b), 12)
        assert rep.ok and rep.max_residual == 0

    def test_two_point_rejected(self):
        with pytest.raises(DomainError):
            verify_moment_recursion(MeixnerParams(0, -1), 8)


class TestLevyMartingale:
    def test_first_moment_value(self):
        s, u = F(1), F(3)
        base = cumulants(MeixnerParams(F(1), F(1)), 4)
        pair = FreePairSpec(CumulantSequence(tuple(u * r for r in base.values)), s / u)
        val = free_pair_moment(pair.x_cumulants(), pair.y_cumulants(), ["X", "S"])
        assert val == s

    def test_free_brownian(self):
        rep = verify_levy_martingale(LevyParams(0, 0), F(1), F(2), 6)
        assert rep.ok and rep.max_residual == 0

    def test_general_parameters(self):
        rep = verify_levy_martingale(LevyParams(F(1), F(1)), F(1), F(3), 6)
        assert rep.ok and rep.max_residual == 0
        assert rep.identity == "levy-martingale"
        assert rep.orders == tuple(range(1, 7))

    def test_time_ordering(self):
        with pytest.raises(DomainError):
            verify_levy_martingale(LevyParams(0, 0), F(3), F(1), 4)
        with pytest.raises(DomainError):
            verify_levy_martingale(LevyParams(0, 0), F(0), F(1), 4)


class TestOrthogonality:
    @pytest.mark.parametrize("a,b", [(F(0), F(0)), (F(1), F(1)), (F(1), F(-1, 4))])
    def test_passes(self, a, b):
        rep = verify_orthogonality(MeixnerParams(a, b), 10, 1e-9)
        assert rep.ok and rep.identity == "orthogonality"
        assert rep.orders == tuple(range(1, 11))

    def test_impossible_tolerance_fails(self):
        assert not verify_orthogonality(MeixnerParams(1, 1), 10, 1e-30).ok


class TestForwardDirectionGrid:
    @pytest.mark.parametrize("alpha,a,b", PAIR_GRID)
    def test_all_identities_exact(self, alpha, a, b):
        pair = build_free_pair(alpha, MeixnerParams(a, b), 8)
        assert verify_linear_regression(pair, 6).max_residual == 0
        assert verify_quadratic_variance(pair, 6).max_residual == 0
        assert verify_mixed_cumulants(pair, 8).max_residual == 0


class TestHighOrder:
    """The identities at order 24, where the words have up to 26 letters,
    and up to the order cap."""

    # b > 0, b = 0 and b < 0
    @pytest.mark.parametrize("a,b", [GRID_POINTS[4], GRID_POINTS[1], GRID_POINTS[9]])
    def test_identities_hold_at_order_24(self, a, b):
        pair = build_free_pair(F(1, 3), MeixnerParams(a, b), 26)
        reg = verify_linear_regression(pair, 24)
        assert reg.orders == tuple(range(1, 25))
        assert reg.ok and reg.max_residual == 0
        var = verify_quadratic_variance(pair, 24)
        assert var.orders == tuple(range(0, 25))
        assert var.ok and var.max_residual == 0

    def test_tampered_third_cumulant_fails(self):
        # the acceptance c06 control: R_3(X) pushed off the alpha split
        base = cumulants(MeixnerParams(F(1), F(1)), 26)
        pair = PerturbedPair(base, F(1, 3), broken_order=3, delta=F(1, 9))
        assert not verify_linear_regression(pair, 24).ok
        assert not verify_quadratic_variance(pair, 24).ok

    # 62 = MAX_ORDER - 2, the highest order quadratic variance accepts
    @pytest.mark.parametrize("order", [48, MAX_ORDER - 2])
    def test_near_the_order_cap(self, order):
        # order n needs words of n + 2 letters; an R_(n+2) tamper first
        # enters tau(V V S^n), beyond every word of the regression
        base = cumulants(MeixnerParams(*GRID_POINTS[4]), order + 2)
        pair = FreePairSpec(base, F(1, 3))
        assert verify_linear_regression(pair, order).max_residual == 0
        assert verify_quadratic_variance(pair, order).max_residual == 0
        tampered = PerturbedPair(base, F(1, 3), broken_order=order + 2)
        assert verify_linear_regression(tampered, order).ok
        assert verify_quadratic_variance(tampered, order).first_failure == order

    def test_tampered_top_cumulant_caught_only_at_high_order(self):
        base = cumulants(MeixnerParams(F(1), F(1)), 26)
        pair = PerturbedPair(base, F(1, 3), broken_order=24)
        # R_24 first enters tau(X S^23) and tau(X X S^22)
        assert verify_linear_regression(pair, 24).first_failure == 23
        assert verify_quadratic_variance(pair, 24).first_failure == 22


@st.composite
def verifier_cases(draw):
    """A rational law (b > -1), a rational alpha in (0, 1), an order from 2
    to 16 and, half the time, one marginal cumulant pushed off the split."""
    den = st.sampled_from((1, 2, 3, 7, 10, 9973))
    a = draw(st.builds(F, st.integers(-40, 40), den))
    b = -1 + draw(st.builds(F, st.integers(1, 80), den))
    d = draw(st.integers(2, 13))
    alpha = F(draw(st.integers(1, d - 1)), d)
    order = draw(st.integers(2, 16))
    tamper = draw(st.one_of(
        st.none(),
        st.tuples(st.integers(1, order + 2),
                  st.builds(F, st.integers(1, 9) | st.integers(-9, -1), den)),
    ))
    return MeixnerParams(a, b), alpha, order, tamper


def assert_same_report(rep, residuals, constant=None):
    assert rep.residuals == tuple(residuals)
    assert all(type(r) is F for r in rep.residuals)
    assert rep.passed == tuple(r == 0 for r in residuals)
    assert rep.constant == constant and type(rep.constant) is type(constant)


class TestAgainstFractionVerifiers:
    """The integer-context verifiers against the Fraction loops they
    replaced (``conftest``): equal residuals, verdicts and constant."""

    @given(verifier_cases())
    def test_reports_equal_the_fraction_oracle(self, case):
        p, alpha, order, tamper = case
        base = cumulants(p, order + 2)
        if tamper is None:
            pair = FreePairSpec(base, alpha)
        else:
            pair = PerturbedPair(base, alpha, broken_order=tamper[0], delta=tamper[1])
        assert_same_report(verify_linear_regression(pair, order),
                           fraction_linear_regression(pair, order))
        residuals, c = fraction_quadratic_variance(pair, order)
        assert_same_report(verify_quadratic_variance(pair, order), residuals, c)
        assert_same_report(verify_moment_recursion(p, order),
                           fraction_moment_recursion(p, order))


class TestFloatMode:
    def test_float_inputs_use_tolerance(self):
        pair = build_free_pair(0.35, MeixnerParams(0.7, 0.9), 8)
        rep = verify_linear_regression(pair, 6)
        assert rep.ok
        assert all(abs(r) <= 1e-10 for r in rep.residuals)
