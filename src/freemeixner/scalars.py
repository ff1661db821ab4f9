"""Scalar policy helpers, and the base of the value classes that hold scalars.

Rational inputs stay rational (``fractions.Fraction``) so that identity
checks can demand equality instead of tolerances; anything else degrades to
``float``.  Mixed arithmetic follows Python's own promotion rules.

Exact results are Fractions, but no exact kernel or verifier builds a
Fraction per step.  Their identities are weighted-homogeneous: give a
moment m_k or cumulant R_k weight k, and every term of an order-n output
has weight n.  So each call takes one integer L that makes v_k L^k an
integer for every rational input v_k of weight k (:func:`weight_denominator`),
scales its inputs to those integers (:func:`to_weighted`), runs its loop in
Python ints, and divides each output by its power of L, and by any
denominator the loop cleared on top of that, once (:func:`from_weighted`).
Float inputs run the same loops unscaled, with L = 1.  A loop that needs a
rational coefficient as numerator and denominator takes it from
:func:`parts`.

The package's values (law parameters, moment and cumulant sequences,
reports) are immutable and compare by their fields: see :class:`Frozen`.
Making one of their classes compiles no source.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from numbers import Integral, Rational
from operator import attrgetter, mul

Scalar = Fraction | float


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in ``__slots__`` and writes an ``__init__``
    that validates its arguments, then sets each field once with
    ``object.__setattr__``.  From the slots it gets equality (same class,
    equal fields) and a hash by field, the ``Name(field=value, ...)`` repr,
    ``__match_args__``, and pickling and copying through the constructor.
    Assigning or deleting an attribute raises ``AttributeError``.

    ``__eq__`` and ``__hash__`` read the fields through one
    ``operator.attrgetter`` per class, held in their closure: a lookup of
    the getter on the class would cost each comparison more than the getter.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        key = attrgetter(*cls.__slots__)  # the field, or the tuple of fields

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self.__slots__])


def as_scalar(x) -> Scalar:
    """Coerce to Fraction (ints, rationals) or float (everything real)."""
    if type(x) is Fraction or type(x) is float:
        return x
    if type(x) is int:
        return Fraction(x)
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


def to_weighted(*sequences, also=()):
    """(one, L, lists): when every value of ``sequences`` and every scalar in
    ``also`` is exact, lists[i][k-1] is the int v_k L^k for sequences[i] =
    (v_1, v_2, ...) and one = 1; otherwise the sequences, unscaled, L = 1
    and one = 1.0.  ``one`` is what the loops take."""
    for values in (*sequences, also):
        for v in values:
            if type(v) is not Fraction and not is_exact(v):
                return 1.0, 1, sequences
    scale = weight_denominator(*sequences)
    lists = []
    for values in sequences:
        power, weighted = 1, []
        for v in values:
            power *= scale
            weighted.append(v.numerator * (power // v.denominator))
        lists.append(weighted)
    return 1, scale, lists


def parts(x, one) -> tuple:
    """(numerator, denominator) of x on the context whose ``one`` came from
    :func:`to_weighted`: ints when it is 1, and (x, 1) when it is 1.0."""
    return (x, 1) if type(one) is float else (x.numerator, x.denominator)


def from_weighted(values, scale: int, weight: int, den: int = 1) -> list:
    """values[i] / (den * scale^(weight + i)) as Fractions, for the outputs of
    a loop fed by :func:`to_weighted`.  Float results pass through unchanged:
    a float among the values means the loop ran unscaled, with L = den = 1."""
    if float in map(type, values):
        return list(values)
    powers = accumulate(repeat(scale, len(values) - 1), mul, initial=den * scale ** weight)
    return list(map(Fraction, values, powers))


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
