"""The contract of the package's immutable value classes.

Each class compares and hashes by its fields, refuses assignment and
deletion, builds positionally or by keyword, validates on construction,
survives ``pickle`` and ``copy.deepcopy``, and prints in the
``Name(field=value, ...)`` format (``Partition`` keeps its own notation).
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from freemeixner import (
    CumulantSequence,
    DomainError,
    FreePairSpec,
    IntegralEstimate,
    LevyParams,
    MeixnerLaw,
    MeixnerParams,
    MomentSequence,
    NumericError,
    Partition,
    QuadratureRule,
    RegressionReport,
    SemicircleParams,
)

R = CumulantSequence([0, 1])
# (class, positional arguments, the same as keywords, repr)
CASES = [
    (MeixnerParams, (F(5, 2), F(1, 2)), {"a": F(5, 2), "b": F(1, 2)},
     "MeixnerParams(a=Fraction(5, 2), b=Fraction(1, 2))"),
    (SemicircleParams, (1, F(1, 3)), {"mean": 1, "variance": F(1, 3)},
     "SemicircleParams(mean=Fraction(1, 1), variance=Fraction(1, 3))"),
    (LevyParams, (0.5, 2), {"eta": 0.5, "sigma": 2},
     "LevyParams(eta=0.5, sigma=Fraction(2, 1))"),
    (MomentSequence, ([1, F(1, 2), 0.25],), {"values": (1, F(1, 2), 0.25)},
     "MomentSequence(values=(Fraction(1, 1), Fraction(1, 2), 0.25))"),
    (CumulantSequence, ([0, 1],), {"values": (F(0), F(1))},
     "CumulantSequence(values=(Fraction(0, 1), Fraction(1, 1)))"),
    (FreePairSpec, (R, F(1, 3)), {"s_cumulants": R, "alpha": F(1, 3)},
     "FreePairSpec(s_cumulants=CumulantSequence(values=(Fraction(0, 1), Fraction(1, 1))), "
     "alpha=Fraction(1, 3))"),
    (MeixnerLaw, (MeixnerParams(0, 0), (-2.0, 2.0), ()),
     {"params": MeixnerParams(0, 0), "support": (-2.0, 2.0), "atoms": ()},
     "MeixnerLaw(params=MeixnerParams(a=Fraction(0, 1), b=Fraction(0, 1)), "
     "support=(-2.0, 2.0), atoms=())"),
    (Partition, (3, ((1, 3), (2,))), {"n": 3, "blocks": ((1, 3), (2,))},
     "Partition(3, {{1,3}, {2}})"),
    (QuadratureRule, ((-1.0, 1.0), (0.5, 0.5)), {"nodes": (-1.0, 1.0), "weights": (0.5, 0.5)},
     "QuadratureRule(nodes=(-1.0, 1.0), weights=(0.5, 0.5))"),
    (IntegralEstimate, (1.5, 1e-9), {"value": 1.5, "error": 1e-9},
     "IntegralEstimate(value=1.5, error=1e-09)"),
    (RegressionReport, ("y", (1,), (F(0),), (True,), F(1, 3)),
     {"identity": "y", "orders": (1,), "residuals": (F(0),), "passed": (True,),
      "constant": F(1, 3)},
     "RegressionReport(identity='y', orders=(1,), residuals=(Fraction(0, 1),), "
     "passed=(True,), constant=Fraction(1, 3))"),
]
IDS = [case[0].__name__ for case in CASES]
FIELDS = {
    MeixnerParams: ("a", "b"),
    SemicircleParams: ("mean", "variance"),
    LevyParams: ("eta", "sigma"),
    MomentSequence: ("values",),
    CumulantSequence: ("values",),
    FreePairSpec: ("s_cumulants", "alpha"),
    MeixnerLaw: ("params", "support", "atoms"),
    Partition: ("n", "blocks"),
    QuadratureRule: ("nodes", "weights"),
    IntegralEstimate: ("value", "error"),
    RegressionReport: ("identity", "orders", "residuals", "passed", "constant"),
}


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
class TestValueClasses:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, text):
        one, two = cls(*args), cls(**kwargs)
        assert one is not two
        assert one == two and not one != two
        assert hash(one) == hash(two)
        assert len({one, two}) == 1

    def test_fields_and_match_args(self, cls, args, kwargs, text):
        assert cls.__match_args__ == FIELDS[cls]
        obj = cls(*args)
        match obj:
            case cls(first):
                assert first == getattr(obj, FIELDS[cls][0])
            case _:
                pytest.fail("no positional match")

    def test_repr(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == text

    def test_assignment_and_deletion_raise(self, cls, args, kwargs, text):
        obj = cls(*args)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 0
        assert obj == cls(*args)

    @pytest.mark.parametrize("clone", [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        lambda obj: pickle.loads(pickle.dumps(obj, protocol=0)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "pickle-0", "deepcopy", "copy"])
    def test_round_trips(self, cls, args, kwargs, text, clone):
        obj = cls(*args)
        back = clone(obj)
        assert type(back) is cls
        assert back == obj and hash(back) == hash(obj)
        assert repr(back) == text

    def test_unequal_to_every_other_case(self, cls, args, kwargs, text):
        obj = cls(*args)
        for other_cls, other_args, _, _ in CASES:
            if other_cls is not cls:
                assert obj != other_cls(*other_args)
        assert obj != args and obj != object()


def test_same_fields_in_another_class_differ():
    assert MeixnerParams(1, 1) != LevyParams(1, 1)
    assert MeixnerParams(1, 1) != SemicircleParams(1, 1)
    assert MomentSequence([1, 0]) != CumulantSequence([1, 0])


def test_one_field_changes_equality():
    assert MeixnerParams(1, 1) != MeixnerParams(1, 2)
    assert RegressionReport("x", (1,), (0,), (True,)) != RegressionReport("x", (1,), (0,), (False,))


def test_regression_report_constant_defaults_to_none():
    rep = RegressionReport("x", (1, 2), (F(0), 0.0), (True, False))
    assert rep.constant is None
    assert rep == RegressionReport("x", (1, 2), (F(0), 0.0), (True, False), None)
    assert repr(rep) == ("RegressionReport(identity='x', orders=(1, 2), "
                         "residuals=(Fraction(0, 1), 0.0), passed=(True, False), constant=None)")


def test_construction_coerces_scalars():
    p = MeixnerParams(1, 0.5)
    assert (type(p.a), type(p.b)) == (F, float)
    assert all(type(v) is F for v in MomentSequence([1, 2]).values)
    assert type(FreePairSpec(R, F(1, 2)).alpha) is F
    assert type(FreePairSpec(R, 0.25).alpha) is float


@pytest.mark.parametrize("build, exc, message", [
    (lambda: MeixnerParams(0, F(-3, 2)), DomainError, "b must be >= -1, got -3/2"),
    (lambda: SemicircleParams(0, -1), DomainError, "variance must be >= 0, got -1"),
    (lambda: LevyParams(0, -0.5), DomainError, "sigma must be >= 0, got -0.5"),
    (lambda: MomentSequence([]), ValueError, "moment sequence needs at least m_0"),
    (lambda: MomentSequence([2, 0]), ValueError, "m_0 must be 1, got 2"),
    (lambda: CumulantSequence([]), ValueError, "cumulant sequence needs at least R_1"),
    (lambda: FreePairSpec(R, 1), DomainError, "alpha must lie in (0,1), got 1"),
    (lambda: Partition(-1, ()), ValueError, "ground set size must be >= 0, got -1"),
    (lambda: Partition(2, ((1,),)), ValueError, "blocks do not cover the ground set"),
    (lambda: Partition(2, ((2,), (1,))), ValueError, "blocks are not ordered by least element"),
    (lambda: QuadratureRule((1.0, 0.0), (0.5, 0.5)), NumericError,
     "quadrature nodes are not strictly increasing"),
    (lambda: QuadratureRule((0.0, 1.0), (0.5, -0.5)), NumericError,
     "quadrature weights must be positive"),
    (lambda: QuadratureRule((0.0, 1.0), (0.5, 0.6)), NumericError, "weights sum to 1.1, not 1"),
    (lambda: MeixnerParams(True, 0), TypeError, "bool is not a scalar"),
], ids=["b", "variance", "sigma", "empty-moments", "m0", "empty-cumulants", "alpha",
        "partition-n", "partition-cover", "partition-order", "nodes", "weights", "weight-sum",
        "bool"])
def test_construction_errors(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert str(info.value) == message
