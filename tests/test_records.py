"""The value classes are ``__slots__`` records, not dataclasses.

They must keep what the frozen dataclasses gave them: immutability,
field-wise ``==`` and ``hash``, the ``Name(field=value, ...)`` repr, the
constructor's argument errors, and every validation check.
"""

import importlib
import pkgutil
from fractions import Fraction

import bispec
import pytest

from bispec import (
    BesselSpec,
    Budgets,
    DiffOp,
    LaurentTail,
    NormalizationFailed,
    ObstructionStep,
    ObstructionTrace,
    PDO,
    Poly,
    RatFunc,
    normal_form_test,
    parse_operator,
)
from bispec.airy import AiryShape
from bispec.bounded import build_lambda, split_constant_part, wave_operator

from bispec.diffop import TOp
from bispec.record import Record

F = Fraction
TAIL = LaurentTail({0: 1, 2: F(1, 2)}, 3)


def _instances():
    """One instance of every record class but those in INSTANCE_EXEMPT
    (test_every_record_class_has_an_instance holds the list complete)."""
    return [
        RatFunc(Poly.one(), Poly([1, 1])),
        DiffOp.d(),
        TAIL,
        PDO({0: RatFunc.one(), 1: RatFunc.x_power(-1)}, 4),
        TOp({(1, 0): F(1)}),
        AiryShape(N=3, a=((1, F(2)),), a0=F(0), lam=F(1)),
        ObstructionStep(j=1, s=-2, k=0, alpha=F(1, 2)),
        ObstructionTrace((), "clean", DiffOp.d() ** 3 - DiffOp.x(), DiffOp.zero(),
                         AiryShape(N=3, a=(), a0=F(0), lam=F(1))),
        Budgets(),
        BesselSpec((0, 1)),
    ]


# Poly is no Record but keeps the same guards; deleting a field of a Poly
# or a RatFunc used to succeed, and ``del Poly.one().coeffs`` emptied the
# shared one for the process
@pytest.mark.parametrize("obj", _instances() + [Poly([1, 2])],
                         ids=lambda o: type(o).__name__)
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
    assert repr(ObstructionStep(j=1, s=-2, k=0, alpha=F(1, 2))) == (
        "ObstructionStep(j=1, s=-2, k=0, alpha=Fraction(1, 2))")
    assert repr(Budgets(ad_budget=3)) == (
        "Budgets(ad_budget=3, trunc=8)")
    assert repr(TAIL) == "LaurentTail(terms={0: Fraction(1, 1), 2: Fraction(1, 2)}, trunc=3)"
    assert repr(PDO({1: RatFunc.x_power(-1)}, 4)) == (
        "PDO(terms={1: RatFunc((1)/(x))}, trunc=4)")
    assert repr(DiffOp.d()) == "DiffOp('x', d)"


class _SameStep(Record):
    """ObstructionStep's fields in another class."""
    __slots__ = ("j", "s", "k", "alpha")


def test_equality_and_hash():
    a, b = ObstructionStep(1, -2, 0, F(1, 2)), ObstructionStep(j=1, s=-2, k=0, alpha=F(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != ObstructionStep(1, -2, 0, F(1, 3))
    # a record equals only a record of its own class
    assert a.__eq__((1, -2, 0, F(1, 2))) is NotImplemented
    assert a != _SameStep(1, -2, 0, F(1, 2))
    assert LaurentTail({1: 2, 5: 0}, 4) == LaurentTail({1: F(2)}, 4)
    assert PDO({0: RatFunc.one()}) == PDO.identity()
    assert TOp({(2, 0): F(1)}) != TOp({(1, 0): F(1)})


@pytest.mark.parametrize("obj", [TAIL, TOp({}), PDO.identity(), DiffOp.d()],
                         ids=lambda o: type(o).__name__)
def test_unhashable_as_before(obj):
    with pytest.raises(TypeError):
        hash(obj)


def test_ring_values_take_the_one_trusted_constructor():
    # Record gives the unchecked constructor and, for DiffOp, the equality
    # (test_no_record_overrides_assignment covers the guards); Poly, the
    # bottom layer, keeps its own
    for cls in (RatFunc, DiffOp, TOp, LaurentTail, PDO):
        assert cls._trusted.__func__ is Record._trusted.__func__, cls.__name__
    assert not hasattr(RatFunc, "_reduced") and "__eq__" not in vars(DiffOp)
    assert DiffOp._trusted("x", {1: RatFunc.one()}) == DiffOp.d()
    assert DiffOp.d() != DiffOp.d("z") and DiffOp.d() != 1
    # the fields after the given values stay unset: RatFunc's derivative
    # cache is filled on the first call
    f = RatFunc._trusted(Poly.x(), Poly.one())
    assert f == RatFunc.x() and not hasattr(f, "_derivative")
    assert f.derivative() is f._derivative == RatFunc.one()


def _record_classes():
    """Every Record subclass defined under bispec."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for mod in pkgutil.iter_modules(bispec.__path__):
        importlib.import_module(f"bispec.{mod.name}")
    return {cls for cls in subclasses(Record) if cls.__module__.startswith("bispec.")}


# the record classes _instances() leaves out: TruncatedSeries is the base
# of LaurentTail and PDO, which are in the list
INSTANCE_EXEMPT = {"TruncatedSeries"}


def test_every_record_class_has_an_instance():
    # so no record class skips test_immutable and test_no_instance_dict
    covered = {type(obj) for obj in _instances()}
    assert {cls.__qualname__ for cls in _record_classes() - covered} == INSTANCE_EXEMPT


def test_no_record_overrides_assignment():
    found = [cls.__qualname__ for cls in _record_classes()
             if {"__setattr__", "__delattr__"} & vars(cls).keys()]
    assert found == []


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        ObstructionStep(1, -2, 0)
    with pytest.raises(TypeError):
        ObstructionStep(1, -2, 0, F(1, 2), 5)
    with pytest.raises(TypeError):
        ObstructionStep(1, -2, 0, alpha=F(1, 2), j=1)
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
            normal_form_test({(0, -1): 1}, (1, 1))

    def test_pdo_cleans_its_terms(self):
        # positive powers are the differential part, so a PDO accepts them
        P = PDO({2: RatFunc.one(), 0: RatFunc.zero(), -5: RatFunc.x()}, 4)
        assert P.terms == {2: RatFunc.one()}
        assert P.trunc == 4
