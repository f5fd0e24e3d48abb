"""The value classes are ``__slots__`` records, not dataclasses.

They must keep what the frozen dataclasses gave them: immutability,
field-wise ``==`` and ``hash``, the ``Name(field=value, ...)`` repr, the
constructor's argument errors, and every validation check.
"""

from fractions import Fraction

import pytest

from bispec import (
    BesselSpec,
    BiHomPoly,
    Budgets,
    CentralizerResult,
    ClassificationReport,
    DarbouxResult,
    DiffOp,
    LaurentTail,
    NormalFormReport,
    NormalizationFailed,
    NotAFactor,
    ObstructionStep,
    ObstructionTrace,
    PDO,
    Poly,
    RatFunc,
    WeightPair,
    parse_operator,
)
from bispec.airy import AiryBispectralReport, AiryShape
from bispec.bounded import BoundedTestReport, build_lambda, split_constant_part, wave_operator

from bispec.diffop import TOp

F = Fraction
TAIL = LaurentTail({0: 1, 2: F(1, 2)}, 3)
L2 = parse_operator("d^2 - 2*x^-2")


def _instances():
    """One instance of every record class (ClassificationReport aside)."""
    return [
        DiffOp.d(),
        TAIL,
        PDO({0: RatFunc.one(), 1: RatFunc.x_power(-1)}, 4),
        TOp({(1, 0): F(1)}),
        AiryShape(N=3, a=((1, F(2)),), a0=F(0), lam=F(1)),
        ObstructionStep(j=1, s=-2, k=0, alpha=F(1, 2)),
        ObstructionTrace((), "clean", 3, F(1)),
        AiryBispectralReport(True, 4),
        BoundedTestReport(Poly.x(), 1, 2, Poly([0, 0, 1]), (F(1),), True, None,
                          None, 0, F(1), F(2), False, ()),
        CentralizerResult((), (), None),
        Budgets(),
        BesselSpec((0, 1)),
        DarbouxResult(P=DiffOp.one(), Q=L2, base=L2, transformed=L2),
        WeightPair(1, 2, (3, 4)),
        BiHomPoly({(1, 0): 2}),
        NormalFormReport(case=None),
    ]


@pytest.mark.parametrize("obj", _instances(), ids=lambda o: type(o).__name__)
def test_immutable(obj):
    name = type(obj).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("obj", _instances(), ids=lambda o: type(o).__name__)
def test_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")


def test_repr_matches_the_dataclass_format():
    assert repr(WeightPair(1, 2, (3, 4))) == "WeightPair(rho=1, sigma=2, support=(3, 4))"
    assert repr(ObstructionStep(j=1, s=-2, k=0, alpha=F(1, 2))) == (
        "ObstructionStep(j=1, s=-2, k=0, alpha=Fraction(1, 2))")
    assert repr(Budgets(ad_budget=3)) == (
        "Budgets(ad_budget=3, trunc=8)")
    assert repr(TAIL) == "LaurentTail(terms={0: Fraction(1, 1), 2: Fraction(1, 2)}, trunc=3)"
    assert repr(PDO({1: RatFunc.x_power(-1)}, 4)) == (
        "PDO(terms={1: RatFunc((1)/(x))}, trunc=4)")
    assert repr(ClassificationReport("a")) == (
        "ClassificationReport(input_text='a', branch='', verdict='Inconclusive', "
        "operator=None, certificates={}, errors=[], trace_sizes={})")
    assert repr(DiffOp.d()) == "DiffOp('x', d)"


def test_equality_and_hash():
    a, b = WeightPair(1, 2, (3, 4)), WeightPair(rho=1, sigma=2, support=(3, 4))
    assert a == b and hash(a) == hash(b)
    assert a != WeightPair(1, 3, (3, 4))
    # a record equals only a record of its own class
    assert a.__eq__((1, 2, (3, 4))) is NotImplemented
    assert a != CentralizerResult(1, 2, (3, 4))
    assert LaurentTail({1: 2, 5: 0}, 4) == LaurentTail({1: F(2)}, 4)
    assert PDO({0: RatFunc.one()}) == PDO.identity()
    assert TOp({(2, 0): F(1)}) != TOp({(1, 0): F(1)})
    report = ClassificationReport("a")
    assert report == ClassificationReport("a", certificates={})
    report.verdict = "Bessel(2)"
    assert report != ClassificationReport("a")


@pytest.mark.parametrize("obj", [TAIL, TOp({}), PDO.identity(), BiHomPoly(),
                                 DiffOp.d(), ClassificationReport("a")],
                         ids=lambda o: type(o).__name__)
def test_unhashable_as_before(obj):
    with pytest.raises(TypeError):
        hash(obj)


def test_classification_report_is_mutable_with_fresh_defaults():
    a, b = ClassificationReport("a"), ClassificationReport("b")
    a.errors.append("x")
    a.certificates["k"] = 1
    assert b.errors == [] and b.certificates == {}


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        WeightPair(1, 2)
    with pytest.raises(TypeError):
        WeightPair(1, 2, (3, 4), 5)
    with pytest.raises(TypeError):
        WeightPair(1, 2, support=(3, 4), rho=1)
    with pytest.raises(TypeError):
        Budgets(budget=3)


class TestChecks:
    """Every check the dataclass __post_init__ made still runs."""

    def test_dual_operator_order_must_be_m(self):
        # the check lives in build_lambda, whose normalization (Lambda_m = 1,
        # Lambda_(m-1) = 0, nothing lifted above d_z^m) fixes the order m;
        # here Lambda_1 = 2
        L = parse_operator("d^2 - 2*(x+1)^-2")
        K = wave_operator(L, split_constant_part(L)[0], 8)
        with pytest.raises(NormalizationFailed):
            build_lambda(K, Poly([1, 1]) ** 2)

    def test_bessel_weight_sum(self):
        # any weight sum is accepted, and the betas become fractions
        assert BesselSpec((0, 2)).betas == (F(0), F(2))

    def test_negative_derivative_powers(self):
        with pytest.raises(ValueError):
            DiffOp("x", {-1: 1})
        with pytest.raises(ValueError):
            BiHomPoly({(0, -1): 1})

    def test_pdo_cleans_its_terms(self):
        # positive powers are the differential part, so a PDO accepts them
        P = PDO({2: RatFunc.one(), 0: RatFunc.zero(), -5: RatFunc.x()}, 4)
        assert P.terms == {2: RatFunc.one()}
        assert P.trunc == 4

    def test_darboux_result_reverifies(self):
        with pytest.raises(NotAFactor):
            DarbouxResult(P=DiffOp.d(), Q=L2, base=L2, transformed=L2)
