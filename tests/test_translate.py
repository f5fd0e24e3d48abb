"""The translation x -> x + a of ``Poly``, ``RatFunc`` and ``DiffOp``.

The shift is a ring automorphism that fixes d, so it must commute with
products and brackets, undo itself with -a, and build canonical values
through the trusted constructors.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import DiffOp, Poly, RatFunc, commutator, dop_mul, parse_operator

from test_leibniz import operators, ratfuncs_st, small_st
from test_trusted_ring import (
    assert_canonical_op,
    assert_canonical_poly,
    assert_canonical_ratfunc,
)


def horner_oracle(p: Poly, a: Fraction) -> Poly:
    """p(x + a) by Horner in Poly arithmetic."""
    out = Poly.zero()
    for c in reversed(p.coeffs):
        out = out * Poly([a, 1]) + Poly.const(c)
    return out


class TestPoly:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_st, max_size=6).map(Poly), small_st)
    def test_taylor_shift(self, p, a):
        got = p.translate(a)
        assert got == horner_oracle(p, a)
        assert_canonical_poly(got)
        assert got.translate(-a) == p

    @settings(max_examples=60, deadline=None)
    @given(st.lists(small_st, max_size=6).map(Poly), small_st, small_st)
    def test_values_move(self, p, a, t):
        assert p.translate(a)(t) == p(t + a)

    def test_examples(self):
        # (x - 1/2)^3 -> x^3
        p = Poly([Fraction(-1, 8), Fraction(3, 4), Fraction(-3, 2), 1])
        assert p.translate(Fraction(1, 2)) == Poly.monomial(3)
        assert Poly.x().translate(3) == Poly([3, 1])
        # constants and a zero shift return the same object
        assert Poly.one().translate(5) is Poly.one()
        assert p.translate(0) is p

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for coeffs, a in [([1, -2, 0, 5, Fraction(1, 3)], Fraction(-7, 4)),
                          ([0, 0, 0, 0, 0, 0, 2], Fraction(5, 3)),
                          ([Fraction(2, 9), 1, -1], 11)]:
            ref = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                                 * x ** i for i, c in enumerate(map(Fraction, coeffs)))
                             .subs(x, x + sympy.Rational(a)), x)
            want = Poly([Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())])
            assert Poly(coeffs).translate(a) == want


class TestRatFunc:
    @settings(max_examples=150, deadline=None)
    @given(ratfuncs_st, ratfuncs_st, small_st)
    def test_automorphism(self, f, g, a):
        ft = f.translate(a)
        assert_canonical_ratfunc(ft)
        assert ft.translate(-a) == f
        assert (f * g).translate(a) == ft * g.translate(a)
        assert (f + g).translate(a) == ft + g.translate(a)
        assert f.derivative().translate(a) == ft.derivative()

    def test_pole_moves_to_the_origin(self):
        f = RatFunc(Poly([3]), Poly([1, 1]) ** 2)  # 3 (x + 1)^-2
        assert f.translate(-1) == RatFunc.x_power(-2, 3)
        assert RatFunc.x_power(-2, 3).translate(1) == f
        # a polynomial keeps the shared unit denominator
        assert RatFunc(Poly([1, 2])).translate(4).den is Poly.one()


class TestDiffOp:
    @settings(max_examples=80, deadline=None)
    @given(operators(2), operators(3), small_st)
    def test_products_and_brackets(self, A, B, a):
        At, Bt = A.translate(a), B.translate(a)
        assert_canonical_op(At)
        assert At.translate(-a) == A
        assert dop_mul(A, B).translate(a) == dop_mul(At, Bt)
        assert commutator(A, B).translate(a) == commutator(At, Bt)

    def test_d_is_fixed(self):
        d = DiffOp.d()
        assert d.translate(Fraction(2, 3)) == d
        assert DiffOp.x().translate(2) == DiffOp.x() + DiffOp.const(2)

    def test_translated_bessel(self):
        f = RatFunc(Poly([-6]), Poly([1, 1]) ** 2)
        L = DiffOp("x", {2: RatFunc.one(), 0: f})  # d^2 - 6 (x + 1)^-2
        assert L.translate(-1) == DiffOp("x", {2: 1, 0: RatFunc.x_power(-2, -6)})


def test_float_shift_is_coerced():
    """A float shift is read as the Fraction it equals, at every layer, so
    no float reaches a coefficient."""
    half = Fraction(1, 2)
    p = Poly([1, 2, 3])
    f = RatFunc(Poly([1, 2]), Poly([1, 1]))
    L = parse_operator("d^2 + x^-1")
    for value, exact in [(p.translate(0.5), p.translate(half)),
                         (f.translate(0.5), f.translate(half)),
                         (L.translate(0.5), L.translate(half))]:
        assert value == exact and str(value) == str(exact)
    polys = [p.translate(0.5), f.translate(0.5).num, f.translate(0.5).den]
    polys += [q for c in L.translate(0.5).coeffs.values() for q in (c.num, c.den)]
    assert all(type(c) is Fraction for q in polys for c in q.coeffs)


def test_float_point_is_coerced():
    """``Poly.__call__`` reads a float point as the Fraction it equals, so
    the value is exact and a Fraction."""
    p = Poly([1, 2, 3])
    assert type(p(0.5)) is Fraction and p(0.5) == Fraction(11, 4)
    tenth = Fraction(0.1)
    assert Poly([0, 1, 1])(0.1) == tenth + tenth ** 2
