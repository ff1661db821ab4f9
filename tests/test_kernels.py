"""The exact kernels against the Fraction loops they replaced.

Each kernel computes on ints over one denominator by weight.  On rational
input its results must equal the Fraction reference in ``conftest`` and be
Fractions; on float input they must carry the same bits.  The inputs mix
zeros, negative values and large coprime denominators, so a wrong power of
the denominator cannot cancel.
"""

import ast
import math
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    fraction_free_transform,
    fraction_moments,
    fraction_pair_prefix_moments,
    fraction_q_cumulants,
    fraction_q_pascal,
    fraction_semicircle_moments,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import freemeixner
from freemeixner import (
    MAX_ORDER,
    CumulantSequence,
    MeixnerParams,
    MomentSequence,
    OrderCapError,
    SemicircleParams,
    build_free_pair,
    cumulants,
    cumulants_to_moments,
    free_pair_prefix_moments,
    moments,
    moments_to_cumulants,
    q_binomial,
    q_cumulants,
    semicircle_moments,
    verify_linear_regression,
    verify_mixed_cumulants,
    verify_moment_recursion,
    verify_quadratic_variance,
)
from freemeixner.scalars import from_weighted, to_weighted, weight_denominator
from freemeixner.cumulants import _transform_loop
from freemeixner.verify import _heads, _pair_context, _variance_lhs

PRIMES = (7, 9973, 65537, 999983, 2147483647)
# prime powers and products: a denominator L^k clears only at the right k
POWERS = (4, 8, 27, 12, 7**3, 2**20 * 3)
RATIONALS = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(PRIMES)),
    st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(POWERS)),
)
FLOATS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(min_value=-4, max_value=4))
# Fractions among floats: such input runs the float loops unscaled
MIXED = st.one_of(FLOATS, RATIONALS)


def assert_exact_equal(got, want):
    assert list(got) == list(want)
    assert all(type(v) is F for v in got)


def bits(values):
    """Each value's type and, for a float, its bits."""
    return [(type(v), float.hex(v) if type(v) is float else v) for v in values]


def assert_same_bits(got, want):
    assert bits(got) == bits(want)


class TestTransforms:
    @given(st.lists(RATIONALS, min_size=1, max_size=24))
    def test_exact_both_directions(self, values):
        got = cumulants_to_moments(CumulantSequence(values)).values
        assert_exact_equal(got, fraction_free_transform(values, invert=False))
        got = moments_to_cumulants(MomentSequence([1] + values)).values
        assert_exact_equal(got, fraction_free_transform(values, invert=True))

    @settings(max_examples=3)
    @given(st.lists(RATIONALS, min_size=MAX_ORDER, max_size=MAX_ORDER))
    def test_exact_at_max_order(self, values):
        got = cumulants_to_moments(CumulantSequence(values)).values
        assert_exact_equal(got, fraction_free_transform(values, invert=False))
        got = moments_to_cumulants(MomentSequence([1] + values)).values
        assert_exact_equal(got, fraction_free_transform(values, invert=True))

    @given(st.one_of(st.lists(FLOATS, min_size=1, max_size=MAX_ORDER),
                     st.lists(MIXED, min_size=1, max_size=MAX_ORDER)))
    def test_float_bits(self, values):
        got = cumulants_to_moments(CumulantSequence(values)).values
        assert_same_bits(got, fraction_free_transform(values, invert=False))
        got = moments_to_cumulants(MomentSequence([1.0] + values)).values
        assert_same_bits(got, fraction_free_transform(values, invert=True))


class TestWeightedFormat:
    @given(st.lists(st.lists(RATIONALS, max_size=12), min_size=1, max_size=3))
    def test_exact_round_trip(self, sequences):
        one, scale, lists = to_weighted(*sequences)
        assert type(one) is int and one == 1
        assert scale == weight_denominator(*sequences)
        for values, weighted in zip(sequences, lists):
            assert all(type(v) is int for v in weighted)
            assert_exact_equal(from_weighted(weighted, scale, 1), values)

    @given(st.lists(st.lists(MIXED, max_size=12), min_size=1, max_size=3)
           .filter(lambda seqs: any(type(v) is float for seq in seqs for v in seq)))
    def test_float_and_mixed_round_trip(self, sequences):
        one, scale, lists = to_weighted(*sequences)
        assert type(one) is float and one == 1 and scale == 1
        for values, weighted in zip(sequences, lists):
            assert_same_bits(from_weighted(weighted, scale, 1), values)

    def test_float_also_forces_the_unscaled_path(self):
        values = [F(1, 3), F(5, 9)]
        assert to_weighted(values, also=(F(1, 7),)) == (1, 3, [[1, 5]])
        one, scale, (same,) = to_weighted(values, also=(0.5,))
        assert (type(one), one, scale) == (float, 1.0, 1)
        assert_same_bits(same, values)

    def test_from_weighted_divides_by_den_and_the_power_of_l(self):
        assert_same_bits(from_weighted([6, 12, 40], 2, 1, den=3), [F(1), F(1), F(5, 3)])
        assert_same_bits(from_weighted([-3, F(1, 2)], 5, 0), [F(-3), F(1, 10)])
        # a float result comes from a loop that ran unscaled
        assert_same_bits(from_weighted([0.75, F(1, 2)], 1, 2), [0.75, F(1, 2)])

    def test_mixed_sequences_keep_their_types(self):
        """Fractions among floats stay where the float loops leave them."""
        got = cumulants_to_moments(CumulantSequence((F(0), 1.5))).values
        assert_same_bits(got, (1.0, F(0), 1.5))
        got = moments_to_cumulants(MomentSequence((1, F(0), 1.5))).values
        assert_same_bits(got, (F(0), 1.5))

    def test_only_scalars_names_the_format(self):
        """Every exact kernel and verifier scales through ``to_weighted`` and
        ``from_weighted``: no other module names ``weight_denominator`` or
        ``scaled``, or branches on a bare ``exact`` flag, and none but the
        CLI, which parses and prints them, imports ``Fraction``."""
        forbidden = {"weight_denominator", "scaled"}
        for path in sorted(Path(freemeixner.__file__).parent.glob("*.py")):
            if path.name == "scalars.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                where = f"{path.name}:{getattr(node, 'lineno', '?')}"
                names = {getattr(node, f, None) for f in ("id", "attr", "name", "asname", "arg")}
                assert not names & forbidden, where
                if isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "cli.py":
                    imported = {getattr(node, "module", None), *(a.name for a in node.names)}
                    assert not imported & {"fractions", "Fraction"}, where
                if isinstance(node, (ast.If, ast.IfExp)):
                    test = node.test
                    assert not (isinstance(test, ast.Name) and test.id == "exact"), where


class TestWeightDenominator:
    @given(st.lists(st.lists(RATIONALS, max_size=12), min_size=1, max_size=3))
    def test_clears_each_weight_and_divides_the_lcm(self, sequences):
        scale = weight_denominator(*sequences)
        dens = [v.denominator for seq in sequences for v in seq]
        assert math.lcm(*dens) % scale == 0
        for seq in sequences:
            assert all((v * scale ** k).denominator == 1 for k, v in enumerate(seq, start=1))

    def test_law_cumulants_stay_on_the_parameter_denominator(self):
        # R_k of mu_{5/2, 1/2} has denominator 2^(k-2): L stays 2, where the
        # least common multiple of the denominators is 2^62
        r = q_cumulants(F(5, 2), F(1, 2), 0, MAX_ORDER).values
        assert weight_denominator(r) == 2
        assert math.lcm(*[v.denominator for v in r]) == 2 ** 62


# b as a function of a and a free draw v: the two-atom edge b = -1, b = 0,
# the parabola a^2 = 4b, and anywhere in b >= -1.
B_RULES = {
    "b=-1": lambda a, v: 0 * a - 1,
    "b=0": lambda a, v: 0 * a,
    "a^2=4b": lambda a, v: a * a / 4,
    "b>=-1": lambda a, v: abs(v) - 1,
}


class TestMoments:
    @pytest.mark.parametrize("rule", B_RULES.values(), ids=B_RULES.keys())
    @given(RATIONALS, RATIONALS, st.integers(2, 40))
    def test_exact(self, rule, a, v, order):
        p = MeixnerParams(a, rule(a, v))
        assert_exact_equal(moments(p, order).values, fraction_moments(p, order))

    @pytest.mark.parametrize("rule", B_RULES.values(), ids=B_RULES.keys())
    @given(FLOATS, FLOATS, st.integers(2, 40))
    def test_float_bits(self, rule, a, v, order):
        p = MeixnerParams(a, rule(a, v))
        assert_same_bits(moments(p, order).values, fraction_moments(p, order))


class TestSemicircleMoments:
    @given(RATIONALS, RATIONALS.map(abs), st.integers(0, 40))
    def test_exact(self, mean, variance, order):
        w = SemicircleParams(mean, variance)
        assert_exact_equal(semicircle_moments(w, order).values,
                           fraction_semicircle_moments(w, order))

    @given(st.one_of(st.tuples(FLOATS, FLOATS.map(abs)), st.tuples(MIXED, MIXED.map(abs))),
           st.integers(0, 40))
    def test_float_and_mixed_bits(self, params, order):
        w = SemicircleParams(*params)
        assert_same_bits(semicircle_moments(w, order).values,
                         fraction_semicircle_moments(w, order))


# q = 0 and q = 1 run with v = 1; the others on q = u/v with v > 1
Q_VALUES = (F(0), F(1), F(1, 2), F(-1, 3), F(2, 7), F(-5, 9), F(99, 100))
FLOAT_Q = st.one_of(st.sampled_from(Q_VALUES).map(float),
                    st.floats(min_value=-1, max_value=1, exclude_min=True))


class TestQCumulants:
    @given(RATIONALS, RATIONALS, st.sampled_from(Q_VALUES), st.integers(2, 32))
    def test_exact(self, a, b, q, order):
        got = q_cumulants(a, b, q, order).values
        assert_exact_equal(got, fraction_q_cumulants(a, b, q, order))

    @given(FLOATS, FLOATS, FLOAT_Q, st.integers(2, 32))
    def test_float_bits(self, a, b, q, order):
        assert_same_bits(q_cumulants(a, b, q, order).values,
                         fraction_q_cumulants(a, b, q, order))

    @given(RATIONALS, RATIONALS, FLOAT_Q, st.integers(2, 32))
    def test_exact_law_with_float_q(self, a, b, q, order):
        assert_same_bits(q_cumulants(a, b, q, order).values,
                         fraction_q_cumulants(a, b, q, order))

    @given(RATIONALS, FLOATS, st.sampled_from(Q_VALUES), st.integers(2, 32))
    def test_exact_a_with_float_b(self, a, b, q, order):
        """A float b makes the loop run unscaled, so it takes a rational q
        whole.  At q = 1/2 a loop split on q = u/v would scale the floats by
        powers of 2 and keep their bits; at -1/3 or 2/7 it would not."""
        assert_same_bits(q_cumulants(a, b, q, order).values,
                         fraction_q_cumulants(a, b, q, order))


class TestQBinomial:
    @pytest.mark.parametrize("q", Q_VALUES + tuple(map(float, Q_VALUES)) + (0.3, -0.77))
    def test_matches_the_fraction_table(self, q):
        """Fractions for rational q, the reference's float bits for float q."""
        table = fraction_q_pascal(20, q)
        for n, row in enumerate(table):
            assert_same_bits([q_binomial(n, k, q) for k in range(n + 1)], row)


@st.composite
def pair_cases(draw, values):
    """A word over {X, Y, S} of length 1..12 and two cumulant sequences at
    least as long as the word."""
    word = draw(st.text(alphabet="XYS", min_size=1, max_size=12))
    n = len(word) + draw(st.integers(0, 2))
    x = draw(st.lists(values, min_size=n, max_size=n))
    y = draw(st.lists(values, min_size=n, max_size=n))
    return word, CumulantSequence(x), CumulantSequence(y)


class TestFreePair:
    @given(pair_cases(RATIONALS))
    def test_exact(self, case):
        word, x, y = case
        got = free_pair_prefix_moments(x, y, word)
        assert_exact_equal(got, fraction_pair_prefix_moments(x, y, word))

    @given(st.one_of(pair_cases(FLOATS), pair_cases(MIXED)))
    def test_float_bits(self, case):
        word, x, y = case
        got = free_pair_prefix_moments(x, y, word)
        assert_same_bits(got, fraction_pair_prefix_moments(x, y, word))

    @given(st.integers(0, 16), st.data())
    def test_table_left_sides_match_the_interval_dp(self, n, data):
        """The verifiers' left sides, sums of the context's block weights over
        the power table of S, against the interval DP on V S^n and on V V S^n
        for V = beta X - alpha Y, with X and Y cumulants drawn apart, off any
        alpha split, so that every term of the quadratic-variance split is in
        play."""
        x = CumulantSequence(data.draw(st.lists(RATIONALS, min_size=n + 2, max_size=n + 2)))
        y = CumulantSequence(data.draw(st.lists(RATIONALS, min_size=n + 2, max_size=n + 2)))
        den = data.draw(st.integers(2, 30))
        alpha = F(data.draw(st.integers(1, den - 1)), den)
        beta = 1 - alpha
        p, q = alpha.numerator, alpha.denominator  # the context reduces alpha
        pair = SimpleNamespace(order=n + 2, alpha=alpha,
                               x_cumulants=lambda: x, y_cumulants=lambda: y)
        unit, scale, cp, cq, ss, one, two = _pair_context(pair, n + 2)
        assert type(unit) is int and (cp, cq) == (p, q)
        _, power = _transform_loop(ss, False, 1)
        regression = _heads(one, power[1:], n)
        variance = _variance_lhs(one, two, power, n)
        xh, yh = (free_pair_prefix_moments(x, y, head + "S" * n) for head in "XY")
        xx, xy, yx, yy = (free_pair_prefix_moments(x, y, head + "S" * n)
                          for head in ("XX", "XY", "YX", "YY"))
        for k in range(n + 1):
            assert regression[k] == q * scale ** (k + 1) * (beta * xh[k] - alpha * yh[k])
            want = beta * beta * xx[k + 1] - alpha * beta * (xy[k + 1] + yx[k + 1]) \
                + alpha * alpha * yy[k + 1]
            assert variance[k] == q * q * scale ** (k + 2) * want

    def test_word_beyond_max_order_is_refused(self):
        n = MAX_ORDER + 1
        r = CumulantSequence([F(1, 3)] * n)
        with pytest.raises(OrderCapError, match="exceeds the supported cap"):
            free_pair_prefix_moments(r, r, "S" * n)


FRACTION_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__")
FRACTION_DIVISIONS = ("__truediv__", "__rtruediv__")


@pytest.fixture
def fraction_ops(monkeypatch):
    """A two-element list counting from here on: Fraction additions,
    multiplications and subtractions; and Fraction divisions and
    constructions, those the operators make internally included."""
    count = [0, 0]

    def counted(op, slot):
        def wrapper(self, other):
            count[slot] += 1
            return op(self, other)
        return wrapper

    for name in FRACTION_OPS:
        monkeypatch.setattr(F, name, counted(getattr(F, name), 0))
    for name in FRACTION_DIVISIONS:
        monkeypatch.setattr(F, name, counted(getattr(F, name), 1))
    new = F.__new__

    def constructed(cls, *args, **kwargs):
        count[1] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(constructed))
    return count


LAW = MeixnerParams(F(5, 2), F(1, 2))
R32 = CumulantSequence([F(0), F(1)] + [F(k, 3**k) for k in range(1, 31)])
M32 = MomentSequence([F(1)] + [F(k % 5 - 2, 7 * k) for k in range(1, 33)])
X17 = CumulantSequence([F(k - 8, 11) for k in range(17)])
Y17 = CumulantSequence([F(2, 13 + k) for k in range(17)])
PAIR26 = build_free_pair(F(1, 3), LAW, 26)


# A kernel does at most ``order`` Fraction operations per call.  A verifier
# at order 24 does at most 3 * 24: reading the pair's marginal cumulants
# costs one multiplication per value, 26 for X and 27 for Y.  Divisions and
# constructions are bounded by the least multiple of the order at or above
# the count each one makes, so a Fraction built per step fails it.
@pytest.mark.parametrize(
    "kernel, bound, made",
    [
        (lambda: cumulants_to_moments(R32), 32, 2 * 32),
        (lambda: moments_to_cumulants(M32), 32, 32),
        (lambda: q_cumulants(LAW.a, LAW.b, 0, 32), 32, 2 * 32),
        (lambda: q_cumulants(LAW.a, LAW.b, F(1, 2), 32), 32, 3 * 32),
        (lambda: q_cumulants(LAW.a, LAW.b, F(-1, 3), 32), 32, 3 * 32),
        (lambda: cumulants(LAW, 32, method="semicircle"), 32, 32),
        (lambda: moments(LAW, 32), 32, 2 * 32),
        (lambda: free_pair_prefix_moments(X17, Y17, "X" + "S" * 16), 17, 17),
        (lambda: verify_linear_regression(PAIR26, 24), 3 * 24, 4 * 24),
        (lambda: verify_quadratic_variance(PAIR26, 24), 3 * 24, 4 * 24),
        (lambda: verify_mixed_cumulants(PAIR26, 24), 3 * 24, 7 * 24),
        (lambda: verify_moment_recursion(LAW, 24), 3 * 24, 2 * 24),
    ],
    ids=["cumulants_to_moments", "moments_to_cumulants", "q_cumulants",
         "q_cumulants_half", "q_cumulants_minus_third", "semicircle", "moments",
         "free_pair_prefix_moments", "verify_linear_regression",
         "verify_quadratic_variance", "verify_mixed_cumulants", "verify_moment_recursion"],
)
def test_fraction_arithmetic_is_bounded_by_order(kernel, bound, made, fraction_ops):
    """The loops run on ints, not on a Fraction per step."""
    kernel()
    assert fraction_ops[0] <= bound
    assert fraction_ops[1] <= made
