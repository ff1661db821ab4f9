"""Shared brute-force oracles, deliberately independent of the library paths
they check."""

from fractions import Fraction

from hypothesis import settings

from freemeixner import enumerate_nc, enumerate_nc_le2

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
