"""Shared brute-force oracles, deliberately independent of the library paths
they check."""

import math
from fractions import Fraction

import mpmath
import sympy
from hypothesis import settings

from freemeixner import (
    CumulantSequence,
    cumulants,
    cumulants_to_moments,
    enumerate_nc,
    enumerate_nc_le2,
    free_pair_prefix_moments,
)
from freemeixner.scalars import Scalar, as_scalar, is_exact

# Property tests draw the same examples on every run and stay inside the
# suite's time budget; a test may still ask for fewer examples.
settings.register_profile("deterministic", derandomize=True, database=None,
                          max_examples=40, deadline=None)
settings.load_profile("deterministic")

# Rational (a, b) points covering all six regions of the parameter
# half-plane: semicircle, free Poisson, free Pascal, free Gamma, pure free
# Meixner, free binomial (two-point boundary included).
GRID_POINTS = [
    (Fraction(0), Fraction(0)),
    (Fraction(2), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(3), Fraction(1)),
    (Fraction(5, 2), Fraction(1, 2)),
    (Fraction(2), Fraction(1)),
    (Fraction(-2), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(2)),
    (Fraction(1), Fraction(-1, 4)),
    (Fraction(0), Fraction(-1, 2)),
    (Fraction(0), Fraction(-1)),
]


def catalan(n: int) -> int:
    """Catalan numbers by the convolution recursion."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def motzkin(n: int) -> int:
    """Motzkin numbers by the standard recursion."""
    m = [1, 1]
    while len(m) <= n:
        k = len(m) - 1
        m.append(m[k] + sum(m[i] * m[k - 1 - i] for i in range(k)))
    return m[n]


def all_set_partitions(n: int):
    """Every set partition of {1..n}, blocks in canonical order."""

    def rec(i, blocks):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def nc_moment_oracle(r_values, n):
    """m_n as the literal sum over non-crossing partitions of products of
    block cumulants; r_values = (R_1, ..., R_N)."""
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for part in enumerate_nc(n):
        prod = Fraction(1)
        for block in part.blocks:
            prod *= Fraction(r_values[len(block) - 1])
        total += prod
    return total


def nc_le2_cumulant_oracle(a, b, n):
    """R_n of mu_{a,b} as the literal sum over non-crossing pair/singleton
    partitions of {1..n-2} of a^(#singletons) b^(#pairs); R_1 = 0."""
    if n == 1:
        return Fraction(0)
    total = Fraction(0)
    for part in enumerate_nc_le2(n - 2):
        singles = sum(1 for block in part.blocks if len(block) == 1)
        total += Fraction(a) ** singles * Fraction(b) ** (len(part.blocks) - singles)
    return total


def slow_pair_moment(x_values, y_values, word):
    """Joint moment of a free pair by full multilinear expansion.

    Expands every S letter into X and Y separately, then keeps only
    partitions whose blocks are monochromatic in the expanded word.
    """
    n = len(word)
    s_positions = [i for i, w in enumerate(word) if w == "S"]
    total = Fraction(0)
    for choice in range(2 ** len(s_positions)):
        expanded = list(word)
        for bit, pos in enumerate(s_positions):
            expanded[pos] = "X" if (choice >> bit) & 1 == 0 else "Y"
        for part in enumerate_nc(n):
            prod = Fraction(1)
            for block in part.blocks:
                letters = {expanded[i - 1] for i in block}
                if len(letters) > 1:
                    prod = Fraction(0)
                    break
                vals = x_values if letters == {"X"} else y_values
                prod *= Fraction(vals[len(block) - 1])
            total += prod
    return total


def nc_pair_moment_oracle(x_values, y_values, word):
    """Joint moment of a free pair as the literal sum over NC(n): a block
    weighs R_k(X) if its letters are X or S, R_k(Y) if Y or S, both summed
    if it is all S, and 0 if it holds both an X and a Y."""
    total = 0
    for part in enumerate_nc(len(word)):
        prod = 1
        for block in part.blocks:
            letters = {word[i - 1] for i in block} - {"S"}
            k = len(block) - 1
            if len(letters) > 1:
                prod = 0
                break
            if letters == {"X"}:
                prod *= x_values[k]
            elif letters == {"Y"}:
                prod *= y_values[k]
            else:
                prod *= x_values[k] + y_values[k]
        total += prod
    return total


def q_integer(n: int, q) -> Scalar:
    """[n]_q = 1 + q + ... + q^(n-1), with [0]_q = 0."""
    q = as_scalar(q)
    return sum((q ** i for i in range(n)), Fraction(0) if is_exact(q) else 0.0)


def q_factorial(n: int, q) -> Scalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    out = as_scalar(1) if is_exact(as_scalar(q)) else 1.0
    for i in range(1, n + 1):
        out = out * q_integer(i, q)
    return out


# The Fraction loops the exact kernels ran before they moved to scaled
# ints, kept verbatim (argument checks dropped) as references: on rational
# input the kernels must return equal Fractions, on float input the same
# float bits.


def fraction_free_transform(values, invert):
    """Reference for ``cumulants._free_transform``."""
    one = Fraction(1) if all(is_exact(v) for v in values) else 1.0
    m = [one]
    r: list[Scalar] = []
    power = [[one]]
    for n, given in enumerate(values, start=1):
        lower = 0
        for s in range(1, n):
            t = n - s
            prev = power[s - 1]
            acc = 0
            for j in range(t + 1):
                acc += prev[t - j] * m[j]
            power[s].append(acc)
            lower += r[s - 1] * acc
        power.append([one])  # [z^0] M^n = 1
        power[0].append(0)  # [z^n] M^0 = 0
        r_n = given - lower if invert else given
        r.append(r_n)
        m.append(lower + r_n)
    return r if invert else m


_LETTER_COLOURS = {"X": 1, "Y": 2, "S": 3}


def fraction_pair_prefix_moments(x_cum, y_cum, word):
    """Reference for ``cumulants.free_pair_prefix_moments``."""
    letters = list(word)
    n = len(letters)
    colours = [_LETTER_COLOURS[w] for w in letters]

    xv = x_cum.values
    yv = y_cum.values
    # an all-S block sums over both colours
    weights = {1: xv, 2: yv, 3: tuple(a + b for a, b in zip(xv, yv))}
    exact = x_cum.is_exact and y_cum.is_exact
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    m = [[one] * (n + 1) for _ in range(n + 1)]
    for i in reversed(range(n)):
        # closed[p]: blocks from i to p, weighted, times their inner gaps
        closed = [zero] * n
        # open chains i = p_1 < ... < p_k = p keyed by (p, admissible colours)
        chains = {(i, colours[i]): one}
        for k in range(n - i):
            grown = {}
            for (q, c), v in chains.items():
                r = weights[c][k]
                if r:
                    closed[q] += r * v
                gaps = m[q + 1]
                for p in range(q + 1, n):
                    c2 = c & colours[p]
                    if c2 and gaps[p]:
                        key = (p, c2)
                        grown[key] = grown.get(key, zero) + v * gaps[p]
            chains = grown
        row = m[i]
        for j in range(i + 1, n + 1):
            acc = zero
            for p in range(i, j):
                if closed[p]:
                    acc += closed[p] * m[p + 1][j]
            row[j] = acc
    return tuple(m[0][1:])


def fraction_q_pascal(n_max, q):
    """Reference for ``cumulants._q_pascal``."""
    one = Fraction(1) if is_exact(q) else 1.0
    rows = [[one]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([one] + [prev[k - 1] + q ** k * prev[k] for k in range(1, n)] + [one])
    return rows


def fraction_q_cumulants(a, b, q, order):
    """Reference for ``cumulants.q_cumulants``: (R_1, ..., R_order)."""
    a = as_scalar(a)
    b = as_scalar(b)
    q = as_scalar(q)
    exact = is_exact(a) and is_exact(b) and is_exact(q)
    r: list[Scalar] = [Fraction(0) if exact else 0.0, Fraction(1) if exact else 1.0]
    binom = fraction_q_pascal(order - 2, q)
    for n in range(2, order):
        nxt = a * r[n - 1]
        for j in range(2, n):
            nxt += b * binom[n - 1][j - 1] * r[j - 1] * r[n - j]
        r.append(nxt)
    return tuple(r)


def fraction_moments(p, order):
    """Reference for ``meixner.moments``: (m_0, ..., m_order)."""
    a, b = p.a, p.b
    one = Fraction(1) if p.is_exact else 1.0
    m: list[Scalar] = [one, 0 * one]
    if b == -1:
        while len(m) < order + 1:
            m.append(a * m[-1] + m[-2])
    else:
        for n in range(order - 1):
            nxt = m[n] + a * m[n + 1]
            for j in range(1, n + 1):
                nxt += m[j] * (m[n - j] + a * m[n + 1 - j] + b * m[n + 2 - j])
            m.append(nxt)
    return tuple(m[: order + 1])


def fraction_semicircle_moments(w, order):
    """Reference for ``meixner.semicircle_moments``: (m_0, ..., m_order)."""
    mean, var = w.mean, w.variance
    central: list[Scalar] = []
    for n in range(order + 1):
        if n % 2 == 1:
            central.append(0)
        else:
            k = n // 2
            catalan = math.comb(2 * k, k) // (k + 1)
            central.append(catalan * var ** k)
    raw = []
    for n in range(order + 1):
        acc = 0
        for j in range(n + 1):
            acc += math.comb(n, j) * mean ** (n - j) * central[j]
        raw.append(acc)
    return tuple(raw)


# The Fraction residual loops the exact verifiers ran before they moved to
# one integer context per pair, kept verbatim (argument checks dropped) as
# references: four free-pair passes for the quadratic variance, and a
# Fraction per step for every residual.


def _fraction_pair_moments(pair):
    x = pair.x_cumulants()
    y = pair.y_cumulants()
    s = CumulantSequence([a + b for a, b in zip(x.values, y.values)])
    return x, y, cumulants_to_moments(s)


def fraction_linear_regression(pair, order):
    """Reference residuals of ``verify.verify_linear_regression``."""
    x, y, m = _fraction_pair_moments(pair)
    lhs = free_pair_prefix_moments(x, y, ["X"] + ["S"] * order)  # lhs[n] = tau(X S^n)
    return [lhs[n] - pair.alpha * m.moment(n + 1) for n in range(1, order + 1)]


def fraction_quadratic_variance(pair, order):
    """Reference (residuals, constant) of ``verify.verify_quadratic_variance``."""
    x, y, m = _fraction_pair_moments(pair)
    a = pair.s_cumulants.cumulant(3)
    b = pair.s_cumulants.cumulant(4) - a * a
    alpha, beta = pair.alpha, pair.beta
    c = alpha * beta / (1 + b)
    # xx[n + 1] = tau(X X S^n), and likewise for the other three heads
    tail = ["S"] * order
    xx, xy, yx, yy = (
        free_pair_prefix_moments(x, y, list(head) + tail) for head in ("XX", "XY", "YX", "YY")
    )
    residuals = []
    for n in range(0, order + 1):
        lhs = (
            beta * beta * xx[n + 1]
            - alpha * beta * xy[n + 1]
            - alpha * beta * yx[n + 1]
            + alpha * alpha * yy[n + 1]
        )
        rhs = c * (m.moment(n) + a * m.moment(n + 1) + b * m.moment(n + 2))
        residuals.append(lhs - rhs)
    return residuals, c


def fraction_moment_recursion(p, order):
    """Reference residuals of ``verify.verify_moment_recursion``."""
    a, b = p.a, p.b
    m = cumulants_to_moments(cumulants(p, order, method="nc_le2"))
    residuals = []
    for target in range(2, order + 1):
        n = target - 2
        rhs = 0
        for j in range(n + 1):
            rhs += m.moment(j) * (
                m.moment(n - j) + a * m.moment(n + 1 - j) + b * m.moment(n + 2 - j)
            )
        residuals.append((1 + b) * m.moment(target) - rhs)
    return residuals


def _mp(x):
    """The rational x (a float or a Fraction) as an mpmath number at the
    working precision."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def mp_poles(a, b):
    """Reference for ``meixner.poles`` at 120 digits, ascending: the textbook
    roots (-a -+ sqrt(a^2 - 4b)) / (2b), or -1/a at b = 0."""
    with mpmath.workdps(120):
        a, b = _mp(a), _mp(b)
        if b == 0:
            return [] if a == 0 else [-1 / a]
        d = a * a - 4 * b
        if d < 0:
            return []
        return sorted((-a + s * mpmath.sqrt(d)) / (2 * b) for s in (-1, 1))


def mp_cauchy(a, b, z, digits=50):
    """Reference for ``meixner.cauchy_transform``: the textbook
    G(z) = ((1+2b) z + a - w) / (2 (b z^2 + a z + 1)) at the given number
    of digits, with w = sqrt((z-a)^2 - 4(1+b)) on the branch w ~ z - a at
    infinity."""
    with mpmath.workdps(digits):
        a, b, z = _mp(a), _mp(b), mpmath.mpc(z)
        half = 2 * mpmath.sqrt(1 + b)
        w = mpmath.sqrt(z - a - half) * mpmath.sqrt(z - a + half)
        return ((1 + 2 * b) * z + a - w) / (2 * (b * z * z + a * z + 1))


def mp_atoms(a, b):
    """Reference for ``meixner.atoms``: (x0, w) for each root x0 of
    b x^2 + a x + 1 whose mass w = -eps Im G(x0 + i eps), at eps = 1e-60
    and 120 digits, exceeds 1e-25.

    This Stieltjes limit does not use the residue formula.  Off the support
    the continuous part adds O(eps^2) to w; a root on a support edge, where
    the density has a 1/sqrt singularity, gets O(sqrt(eps)) = 1e-30.
    """
    found = []
    with mpmath.workdps(120):
        eps = mpmath.mpf(10) ** -60
        for x0 in sorted(set(mp_poles(a, b))):
            w = -eps * mp_cauchy(a, b, mpmath.mpc(x0, eps), digits=120).imag
            if w > mpmath.mpf(10) ** -25:
                found.append((x0, w))
    return found


def exact_atom_locations(a, b):
    """Reference for which roots of b x^2 + a x + 1 ``meixner.atoms`` lists,
    for rational (a, b), ascending.

    A root x0 is an atom when the residue numerator (1+2b) x0 + a - w(x0)
    of the Cauchy transform is not zero, with w the branch of
    sqrt((x-a)^2 - 4(1+b)) signed like x - a.  sympy decides that exactly
    in Q(sqrt(a^2 - 4b)), after denesting the square root of w^2.
    """
    a, b = sympy.Rational(a), sympy.Rational(b)
    if b == 0:
        roots = {-1 / a} if a else set()
    else:
        d = a * a - 4 * b
        roots = set() if d < 0 else {(-a + s * sympy.sqrt(d)) / (2 * b) for s in (-1, 1)}
    found = []
    for x0 in roots:
        w = sympy.sign(x0 - a) * sympy.sqrtdenest(
            sympy.sqrt(sympy.expand((x0 - a) ** 2 - 4 * (1 + b))))
        zero = sympy.expand((1 + 2 * b) * x0 + a - w).is_zero
        assert zero is not None, f"sympy left the residue at {x0} undecided"
        if not zero:
            found.append(x0)
    return sorted(found, key=float)
