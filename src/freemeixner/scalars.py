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
    if type(x) is Fraction or type(x) is float:
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (Integral, Rational)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    # numpy floats and similar duck-typed reals
    return float(x)


def is_exact(x) -> bool:
    if type(x) is Fraction:
        return True
    if type(x) is float:
        return False
    return isinstance(x, (Integral, Rational)) and not isinstance(x, bool)


def weight_denominator(*sequences) -> int:
    """An integer L with v_k L^k an integer for every v_k of every exact
    sequence (v_1, v_2, ...): v_k has weight k.

    Going up in k, the part of den(v_k) that L^k does not cover multiplies
    into L.  For each prime this never takes L above the largest power of
    it in any denominator, so L divides the least common multiple of the
    denominators; for cumulants or moments of a law with parameters over
    L0, whose v_k have denominators dividing L0^k, it stays near L0 where
    that multiple grows like L0^N.
    """
    scale = 1
    for values in sequences:
        for k, v in enumerate(values, start=1):
            d = v.denominator
            if d != 1:
                scale *= d // math.gcd(d, scale ** k)
    return scale


def scaled(x, scale: int, k: int) -> int:
    """The integer x * scale^k for exact x whose denominator divides
    ``scale^k``."""
    return x.numerator * (scale ** k // x.denominator)


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
