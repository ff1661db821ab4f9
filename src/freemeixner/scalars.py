"""Scalar policy helpers.

Rational inputs stay rational (``fractions.Fraction``) so that identity
checks can demand equality instead of tolerances; anything else degrades to
``float``.  Mixed arithmetic follows Python's own promotion rules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral, Rational

Scalar = Fraction | float


def as_scalar(x) -> Scalar:
    """Coerce to Fraction (ints, rationals) or float (everything real)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (Integral, Rational)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    # numpy floats and similar duck-typed reals
    return float(x)


def is_exact(x) -> bool:
    return isinstance(x, (Integral, Rational)) and not isinstance(x, bool)


def common_denominator(values) -> int:
    """Least common multiple of the denominators of exact ``values``."""
    return math.lcm(*[v.denominator for v in values])


def scaled(x, scale: int, k: int) -> int:
    """The integer x * scale^k for exact x whose denominator divides
    ``scale``, with k >= 1."""
    return x.numerator * (scale // x.denominator) * scale ** (k - 1)


def exact_sqrt(x) -> Scalar:
    """Square root, kept rational when the input is a perfect rational square."""
    if is_exact(x):
        frac = Fraction(x)
        if frac < 0:
            raise ValueError(f"square root of negative value {x}")
        rn = math.isqrt(frac.numerator)
        rd = math.isqrt(frac.denominator)
        if rn * rn == frac.numerator and rd * rd == frac.denominator:
            return Fraction(rn, rd)
        return math.sqrt(frac)
    if x < 0:
        raise ValueError(f"square root of negative value {x}")
    return math.sqrt(x)
