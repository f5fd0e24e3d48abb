"""Expression parsing and canonical printing."""

import random
from fractions import Fraction

import pytest

from bispec import (
    DiffOp,
    NegativeDerivativeExponent,
    OperatorSyntaxError,
    Poly,
    RatFunc,
    dop_mul,
    parse_operator,
    print_operator,
)
from bispec.parser import MAX_EXPONENT
from oracles import diffop_of_mono, mono_mul, mono_of_diffop, random_diffop

d = DiffOp.d()
x = DiffOp.x()


class TestParse:
    @pytest.mark.parametrize("text,expect", [
        ("d^2 - x", d * d - x),
        ("d*x", DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()})),
        ("x*d + 1", DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()})),
        ("0", DiffOp.zero()),
        ("1/2", DiffOp.const(Fraction(1, 2))),
        ("-x", -x),
        ("d^0", DiffOp.one()),
        ("(d - x^-1)*(d + x^-1)",
         d * d - DiffOp.from_function(RatFunc.x_power(-2, 2))),
    ])
    def test_examples(self, text, expect):
        assert parse_operator(text) == expect

    def test_bessel_expression(self):
        L = parse_operator("x^-2*(x*d-1/2)*(x*d-1/2)")
        assert L == d * d + DiffOp.from_function(RatFunc.x_power(-2, Fraction(1, 4)))

    def test_precedence_caret_over_star(self):
        assert parse_operator("2*x^2") == DiffOp.from_function(Poly([0, 0, 2]))

    def test_left_associative_noncommutative(self):
        assert parse_operator("d*x*d") == parse_operator("(d*x)*d")

    def test_negative_exponent_on_function_subexpression(self):
        L = parse_operator("(x^2 + 1)^-1")
        assert L == DiffOp.from_function(RatFunc(Poly([1]), Poly([1, 0, 1])))

    def test_negative_exponent_on_derivative_rejected(self):
        with pytest.raises(NegativeDerivativeExponent):
            parse_operator("d^-1")
        with pytest.raises(NegativeDerivativeExponent):
            parse_operator("(x*d)^-2")


def _fn(f):
    return DiffOp.from_function(f)


def _xd():
    return dop_mul(x, d)


class TestFastPaths:
    """Function prefixes and powers of functions skip the Leibniz product,
    and d^e takes the binary power; the values must equal the explicit
    products."""

    @pytest.mark.parametrize("text,build", [
        ("d*x^-1*d", lambda: dop_mul(dop_mul(d, _fn(RatFunc.x_power(-1))), d)),
        ("(x*d)^3", lambda: dop_mul(dop_mul(_xd(), _xd()), _xd())),
        ("x^-2*d^2*x", lambda: dop_mul(dop_mul(_fn(RatFunc.x_power(-2)), dop_mul(d, d)), x)),
        ("(x+1)^-1*(d - x)",
         lambda: dop_mul(_fn(RatFunc(Poly([1]), Poly([1, 1]))), d - x)),
        ("(x^2+1)^0", DiffOp.one),
        ("x^0*d", lambda: d),
        ("d^0", DiffOp.one),
    ])
    def test_against_explicit_products(self, text, build):
        assert parse_operator(text) == build()

    @pytest.mark.parametrize("text,factors", [
        ("d*x^-1*d", [(0, 1), (-1, 0), (0, 1)]),
        ("(x*d)^3", [(1, 1), (1, 1), (1, 1)]),
        ("x^-2*d^2*x", [(-2, 0), (0, 2), (1, 0)]),
        ("x^-3*x^5*d^3", [(-3, 0), (5, 0), (0, 3)]),
    ])
    def test_against_monomial_oracle(self, text, factors):
        product = {(0, 0): Fraction(1)}
        for a, b in factors:
            product = mono_mul(product, {(a, b): Fraction(1)})
        assert parse_operator(text) == diffop_of_mono(product)

    def test_largest_derivative_power(self):
        value = d
        for _ in range(12):
            value = dop_mul(value, value)
        assert parse_operator(f"d^{MAX_EXPONENT}") == value
        assert value == DiffOp.monomial(1, 4096)

    def test_exponent_bound_holds(self):
        with pytest.raises(OperatorSyntaxError):
            parse_operator(f"d^{MAX_EXPONENT + 1}")
        with pytest.raises(OperatorSyntaxError):
            parse_operator("x^4097")


class TestErrors:
    @pytest.mark.parametrize("text,pos", [
        ("d^", 2),
        ("x + ", 4),
        ("(d^2", 4),
        ("d^^2", 2),
        ("x^-2*", 5),
        ("y + 1", 0),
        ("1/0", 2),
        ("*x", 0),
        ("3x", 1),
        ("d^1/2", 2),
    ])
    def test_positions(self, text, pos):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text)
        assert exc.value.position == pos


class TestPrint:
    @pytest.mark.parametrize("L,expect", [
        (d * d - x, "d^2 - x"),
        (DiffOp.zero(), "0"),
        (DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()}), "x*d + 1"),
        (d * d - DiffOp.from_function(RatFunc.x_power(-2, 2)), "d^2 - 2*x^-2"),
    ])
    def test_examples(self, L, expect):
        assert print_operator(L) == expect

    def test_print_parse_print_fixed_point(self):
        rng = random.Random(127)
        for _ in range(30):
            L = random_diffop(rng, min_exponent=-3)
            text = print_operator(L)
            assert print_operator(parse_operator(text)) == text

    def test_roundtrip_corpus(self):
        rng = random.Random(131)
        for _ in range(100):
            L = random_diffop(rng, max_order=4, max_degree=6, min_exponent=-4)
            assert parse_operator(print_operator(L)) == L

    def test_general_denominator(self):
        L = DiffOp("x", {1: RatFunc(Poly([1]), Poly([-1, 1]))})
        text = print_operator(L)
        assert parse_operator(text) == L
