import math
from fractions import Fraction as F

import pytest
from conftest import (
    GRID_POINTS,
    nc_le2_cumulant_oracle,
    nc_moment_oracle,
    nc_pair_moment_oracle,
    q_factorial,
    slow_pair_moment,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from freemeixner import (
    MAX_ORDER,
    CumulantSequence,
    DomainError,
    FreePairSpec,
    MeixnerParams,
    MomentSequence,
    OrderCapError,
    convolution_power,
    cumulants,
    cumulants_to_moments,
    dilate,
    free_convolve,
    free_pair_moment,
    free_pair_prefix_moments,
    joint_moment_free_pair,
    moments,
    moments_to_cumulants,
    q_binomial,
    q_cumulants,
    translate,
)

SEMICIRCLE = CumulantSequence((0, 1, 0, 0, 0, 0))


class TestSequences:
    def test_moment_sequence_requires_unit_mass(self):
        with pytest.raises(ValueError):
            MomentSequence((2, 0, 1))

    def test_orders(self):
        assert MomentSequence((1, 0, 1)).order == 2
        assert SEMICIRCLE.order == 6

    def test_exactness_flag(self):
        assert SEMICIRCLE.is_exact
        assert not CumulantSequence((0.0, 1.0)).is_exact

    def test_accessors(self):
        assert SEMICIRCLE.cumulant(2) == 1
        with pytest.raises(IndexError):
            SEMICIRCLE.cumulant(0)


class TestCumulantsToMoments:
    def test_semicircle_catalan(self):
        assert cumulants_to_moments(SEMICIRCLE).values == (1, 0, 1, 0, 2, 0, 5)

    def test_matches_partition_sum_oracle(self):
        rs = (F(1, 2), F(-1), F(3), F(0), F(2, 7), F(1), F(-2, 3))
        ms = cumulants_to_moments(CumulantSequence(rs))
        for n in range(8):
            assert ms.moment(n) == nc_moment_oracle(rs, n)

    def test_zero_cumulants_point_mass(self):
        ms = cumulants_to_moments(CumulantSequence((0,) * 6))
        assert ms.values == (1, 0, 0, 0, 0, 0, 0)

    def test_meixner_cumulants_reproduce_meixner_moments(self):
        p = MeixnerParams(F(2), F(3))
        assert cumulants_to_moments(cumulants(p, 10)).values == moments(p, 10).values

    def test_exactness_preserved(self):
        ms = cumulants_to_moments(SEMICIRCLE)
        assert ms.is_exact

    def test_order_cap(self):
        with pytest.raises(OrderCapError):
            cumulants_to_moments(CumulantSequence((0,) * 100))


class TestMomentsToCumulants:
    def test_semicircle_inverse(self):
        rs = moments_to_cumulants(MomentSequence((1, 0, 1, 0, 2)))
        assert rs.values == (0, 1, 0, 0)

    def test_point_mass(self):
        c = F(3, 2)
        ms = MomentSequence(tuple(c ** n for n in range(6)))
        assert moments_to_cumulants(ms).values == (c, 0, 0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            min_size=1,
            max_size=12,
        )
    )
    def test_round_trip(self, rs):
        seq = CumulantSequence(tuple(rs))
        back = moments_to_cumulants(cumulants_to_moments(seq))
        assert back.values == seq.values

    def test_round_trip_at_max_order(self):
        a, b = GRID_POINTS[4]
        seq = cumulants(MeixnerParams(a, b), MAX_ORDER)
        back = moments_to_cumulants(cumulants_to_moments(seq))
        assert back.values == seq.values


class TestConvolutionAlgebra:
    def test_variance_adds(self):
        assert free_convolve(SEMICIRCLE, SEMICIRCLE).values == (0, 2, 0, 0, 0, 0)

    def test_zero_is_identity(self):
        zero = CumulantSequence((0,) * 6)
        assert free_convolve(SEMICIRCLE, zero).values == SEMICIRCLE.values

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            free_convolve(SEMICIRCLE, CumulantSequence((0, 1)))

    def test_square_matches_pair_expansion(self):
        # moments of X+Y via cumulant addition vs the word engine
        p = MeixnerParams(F(1), F(1))
        base = cumulants(p, 8)
        doubled = cumulants_to_moments(free_convolve(base, base))
        pair = FreePairSpec(
            CumulantSequence(tuple(2 * r for r in base.values)), alpha=F(1, 2)
        )
        for n in range(1, 9):
            assert joint_moment_free_pair(pair, ["S"] * n) == doubled.moment(n)

    def test_additivity_for_distinct_laws(self):
        r1 = cumulants(MeixnerParams(F(1), F(1)), 8)
        r2 = cumulants(MeixnerParams(F(-2), F(1, 2)), 8)
        summed = cumulants_to_moments(free_convolve(r1, r2))
        for n in range(1, 9):
            assert free_pair_moment(r1, r2, ["S"] * n) == summed.moment(n)

    def test_power_identity_at_one(self):
        assert convolution_power(SEMICIRCLE, 1).values == SEMICIRCLE.values

    def test_power_rejects_fractional_time(self):
        with pytest.raises(DomainError):
            convolution_power(SEMICIRCLE, F(1, 2))

    def test_power_formal_mode(self):
        got = convolution_power(SEMICIRCLE, F(1, 2), formal=True)
        assert got.values == (0, F(1, 2), 0, 0, 0, 0)

    def test_two_point_power_is_dilated_binomial(self):
        # mu_{2,-1}^{boxplus 4} = D_2(mu_{1,-1/4}) at cumulant level
        lhs = convolution_power(cumulants(MeixnerParams(F(2), F(-1)), 10), 4)
        rhs = dilate(cumulants(MeixnerParams(F(1), F(-1, 4)), 10), 2)
        assert lhs.values == rhs.values


class TestDilate:
    def test_identity(self):
        assert dilate(SEMICIRCLE, 1).values == SEMICIRCLE.values

    def test_sign_flip_on_symmetric_law(self):
        assert dilate(SEMICIRCLE, -1).values == SEMICIRCLE.values

    def test_zero_gives_point_mass(self):
        assert dilate(SEMICIRCLE, 0).values == (0,) * 6

    @pytest.mark.parametrize("lam", [F(-2), F(1, 2), F(3)])
    def test_moments_scale_geometrically(self, lam):
        base = cumulants(MeixnerParams(F(1), F(2)), 8)
        scaled = cumulants_to_moments(dilate(base, lam))
        plain = cumulants_to_moments(base)
        for n in range(9):
            assert scaled.moment(n) == lam ** n * plain.moment(n)

    def test_dilated_power_reparametrization(self):
        # D_{1/2}(mu_{1,1}^{boxplus 4}) has the mu_{1/2,1/4} cumulants
        lam = F(2)
        lhs = dilate(convolution_power(cumulants(MeixnerParams(F(1), F(1)), 8), lam ** 2), 1 / lam)
        rhs = cumulants(MeixnerParams(F(1, 2), F(1, 4)), 8)
        assert lhs.values == rhs.values


class TestTranslate:
    def test_identity(self):
        assert translate(SEMICIRCLE, 0).values == SEMICIRCLE.values

    def test_point_mass_moments(self):
        c = F(2, 3)
        ms = cumulants_to_moments(translate(CumulantSequence((0,) * 6), c))
        assert ms.values == tuple(c ** n for n in range(7))

    def test_binomial_shift_oracle(self):
        c = F(-3, 2)
        base = cumulants(MeixnerParams(F(1), F(1)), 7)
        shifted = cumulants_to_moments(translate(base, c))
        plain = cumulants_to_moments(base)
        for n in range(8):
            expect = sum(
                math.comb(n, k) * c ** (n - k) * plain.moment(k) for k in range(n + 1)
            )
            assert shifted.moment(n) == expect


class TestJointMoments:
    def pair(self, a=F(1), b=F(1), alpha=F(1, 3), order=8):
        return FreePairSpec(cumulants(MeixnerParams(a, b), order), alpha)

    def test_centered_cross_moment_vanishes(self):
        assert joint_moment_free_pair(self.pair(), ["X", "Y"]) == 0

    def test_alternating_word_vanishes(self):
        assert joint_moment_free_pair(self.pair(), ["X", "Y", "X", "Y"]) == 0

    def test_regression_word(self):
        a, alpha = F(2), F(1, 4)
        pair = self.pair(a=a, alpha=alpha)
        # tau(X S S) = alpha * m_3 = alpha * a
        assert joint_moment_free_pair(pair, ["X", "S", "S"]) == alpha * a

    @pytest.mark.parametrize(
        "word",
        [
            ["X"],
            ["S", "S"],
            ["X", "S", "Y"],
            ["Y", "S", "X", "S"],
            ["S", "X", "X", "Y", "S"],
            ["X", "S", "S", "S", "Y", "X"],
            ["S", "S", "X", "Y", "S", "X", "S"],
        ],
    )
    def test_matches_multilinear_expansion_oracle(self, word):
        pair = self.pair()
        x = pair.x_cumulants().values
        y = pair.y_cumulants().values
        fast = joint_moment_free_pair(pair, word)
        assert fast == slow_pair_moment(x, y, word)

    def test_word_validation(self):
        pair = self.pair()
        with pytest.raises(ValueError):
            joint_moment_free_pair(pair, [])
        with pytest.raises(OrderCapError):
            joint_moment_free_pair(pair, ["S"] * 9)
        with pytest.raises(ValueError):
            joint_moment_free_pair(pair, ["X", "Z"])

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            FreePairSpec(SEMICIRCLE, alpha=F(3, 2))

    def test_general_engine_allows_unequal_pairs(self):
        x = CumulantSequence((0, F(1, 3), F(1)))
        y = CumulantSequence((F(1), F(2, 3), F(0)))
        word = ["X", "S", "Y"]
        assert free_pair_moment(x, y, word) == slow_pair_moment(x.values, y.values, word)


@st.composite
def pair_words(draw, values):
    """A word over {X, Y, S} of length 1..9 and two unequal cumulant
    sequences as long as the word.  The multilinear oracle expands each S
    both ways, so at most four S letters keep it under 2^4 Catalan(9)
    partitions."""
    word = draw(
        st.lists(st.sampled_from("XYS"), min_size=1, max_size=9).filter(
            lambda w: w.count("S") <= 4
        )
    )
    n = len(word)
    x = draw(st.lists(values, min_size=n, max_size=n))
    y = draw(st.lists(values, min_size=n, max_size=n).filter(lambda v: v != x))
    return word, tuple(x), tuple(y)


RATIONALS = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=5))
FLOATS = st.one_of(st.just(0.0), st.floats(min_value=-3, max_value=3))


class TestPairEngine:
    """The interval recursion against the partition-sum oracles."""

    @settings(max_examples=25)
    @given(pair_words(RATIONALS))
    def test_matches_oracles(self, case):
        word, xv, yv = case
        fast = free_pair_moment(CumulantSequence(xv), CumulantSequence(yv), word)
        assert isinstance(fast, F)
        assert fast == slow_pair_moment(xv, yv, word)
        assert fast == nc_pair_moment_oracle(xv, yv, word)

    @given(pair_words(RATIONALS))
    def test_prefixes_match_single_words(self, case):
        word, xv, yv = case
        x, y = CumulantSequence(xv), CumulantSequence(yv)
        prefixes = free_pair_prefix_moments(x, y, word)
        assert len(prefixes) == len(word)
        for j, value in enumerate(prefixes, start=1):
            assert value == free_pair_moment(x, y, word[:j])

    @given(pair_words(FLOATS))
    def test_float_matches_exact_oracle(self, case):
        word, xv, yv = case
        fast = free_pair_moment(CumulantSequence(xv), CumulantSequence(yv), word)
        assert isinstance(fast, float)
        exact = nc_pair_moment_oracle([F(v) for v in xv], [F(v) for v in yv], word)
        # the same partition sum with every term made positive
        scale = nc_pair_moment_oracle([abs(F(v)) for v in xv], [abs(F(v)) for v in yv], word)
        assert abs(F(fast) - exact) <= F(1e-12) * scale


class TestQDeformation:
    def test_qbinomial_collapses_at_q0(self):
        for n in range(1, 8):
            for k in range(n + 1):
                assert q_binomial(n, k, F(0)) == 1

    def test_qbinomial_is_binomial_at_q1(self):
        for n in range(1, 8):
            for k in range(n + 1):
                assert q_binomial(n, k, F(1)) == math.comb(n, k)

    def test_fifth_cumulant_at_q0(self):
        for a, b in [(F(1), F(1)), (F(2), F(3)), (F(-1), F(1, 2))]:
            seq = q_cumulants(a, b, F(0), 5)
            assert seq.cumulant(5) == a ** 3 + 3 * a * b

    @pytest.mark.parametrize("q", [F(1, 2), F(-1, 3), F(1)])
    def test_qbinomial_matches_q_factorials(self, q):
        for n in range(13):
            for k in range(n + 1):
                got = q_binomial(n, k, q) * q_factorial(k, q) * q_factorial(n - k, q)
                assert got == q_factorial(n, q)

    @pytest.mark.parametrize("a,b", GRID_POINTS)
    def test_q0_equals_free_cumulants(self, a, b):
        want = tuple(nc_le2_cumulant_oracle(a, b, n) for n in range(1, 13))
        assert q_cumulants(a, b, 0, 12).values == want

    def test_hand_unrolled_q1_value(self):
        assert q_cumulants(0, 1, 1, 4).cumulant(4) == 2

    def test_q_range(self):
        with pytest.raises(DomainError):
            q_cumulants(1, 1, F(3, 2), 6)
        with pytest.raises(DomainError):
            q_cumulants(1, 1, -1, 6)

    def test_exact_polynomial_values(self):
        q = F(1, 2)
        seq = q_cumulants(F(1), F(1), q, 6)
        assert seq.is_exact
        # hand unroll: R_3 = a, R_4 = a^2 + b(1+q),
        # R_5 = a R_4 + b [3]_q (R_2 R_3 + R_3 R_2)
        gauss3 = 1 + q + q * q
        assert seq.cumulant(4) == 1 + (1 + q)
        assert seq.cumulant(5) == (1 + (1 + q)) + 2 * gauss3
