"""Expression parsing and canonical printing."""

import itertools
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import (
    BispecError,
    DiffOp,
    NegativeDerivativeExponent,
    OperatorSyntaxError,
    Poly,
    RatFunc,
    ScalarTooLong,
    ZeroDenominator,
    diffop as diffop_module,
    dop_mul,
    parse_operator,
    print_operator,
)
from bispec.cli import main
from bispec.diffop import TOp
from bispec.parser import (
    MAX_EXPONENT, MAX_POWER_TERMS, MAX_SCALAR_BITS, _power_bounds, _product_bounds)
from oracles import diffop_of_mono, mono_mul, mono_of_diffop, mono_of_top, random_diffop
from test_trusted_ring import assert_canonical_op

d = DiffOp.d()
x = DiffOp.x()


class TestParse:
    @pytest.mark.parametrize("text,expect", [
        ("d^2 - x", d * d - x),
        ("d*x", DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()})),
        ("x*d + 1", DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()})),
        ("0", DiffOp.zero()),
        ("1/2", DiffOp("x", {0: Fraction(1, 2)})),
        ("-x", -x),
        ("d^0", DiffOp.one()),
        ("(d - x^-1)*(d + x^-1)",
         d * d - DiffOp("x", {0: RatFunc.x_power(-2, 2)})),
        # a quotient a/b is a*b^-1
        ("(-3/2)/(x^2)", DiffOp("x", {0: RatFunc.x_power(-2, Fraction(-3, 2))})),
        ("2/ 3/4", DiffOp("x", {0: Fraction(1, 6)})),
        ("d/x", d * DiffOp("x", {0: RatFunc.x_power(-1)})),
        ("(x + 1)/(x^2 - 1)", DiffOp("x", {0: RatFunc(Poly([1]), Poly([-1, 1]))})),
        # a literal p/q binds tighter than ^, and any other / is a quotient
        ("2/3^2", DiffOp("x", {0: Fraction(4, 9)})),
        ("2/x^2", DiffOp("x", {0: RatFunc.x_power(-2, 2)})),
        ("(x^-1)/2", DiffOp("x", {0: RatFunc.x_power(-1, Fraction(1, 2))})),
    ])
    def test_examples(self, text, expect):
        assert parse_operator(text) == expect

    def test_an_exponent_is_not_a_literal_quotient(self):
        # in x^-1/2 the literal 1/2 is the exponent, which must be an integer
        with pytest.raises(OperatorSyntaxError, match="exponent must be an integer") as exc:
            parse_operator("x^-1/2")
        assert exc.value.position == 3

    def test_bessel_expression(self):
        L = parse_operator("x^-2*(x*d-1/2)*(x*d-1/2)")
        assert L == d * d + DiffOp("x", {0: RatFunc.x_power(-2, Fraction(1, 4))})

    def test_precedence_caret_over_star(self):
        assert parse_operator("2*x^2") == DiffOp("x", {0: Poly([0, 0, 2])})

    def test_left_associative_noncommutative(self):
        assert parse_operator("d*x*d") == parse_operator("(d*x)*d")

    def test_negative_exponent_on_function_subexpression(self):
        L = parse_operator("(x^2 + 1)^-1")
        assert L == DiffOp("x", {0: RatFunc(Poly([1]), Poly([1, 0, 1]))})

    def test_negative_exponent_on_derivative_rejected(self):
        with pytest.raises(NegativeDerivativeExponent):
            parse_operator("d^-1")
        with pytest.raises(NegativeDerivativeExponent):
            parse_operator("(x*d)^-2")
        with pytest.raises(NegativeDerivativeExponent):
            parse_operator("x/(x*d)")


def _fn(f):
    return DiffOp("x", {0: f})


def _xd():
    return dop_mul(x, d)


class TestFastPaths:
    """Texts in Q[x, x^-1]<d> are evaluated by closed-form reordering of
    monomials; a reciprocal of a non-monomial function switches to DiffOp
    arithmetic.  Either way the value must equal the explicit products."""

    @pytest.mark.parametrize("text,build", [
        ("d*x^-1*d", lambda: dop_mul(dop_mul(d, _fn(RatFunc.x_power(-1))), d)),
        ("(x*d)^3", lambda: dop_mul(dop_mul(_xd(), _xd()), _xd())),
        ("x^-2*d^2*x", lambda: dop_mul(dop_mul(_fn(RatFunc.x_power(-2)), dop_mul(d, d)), x)),
        ("(x+1)^-1*(d - x)",
         lambda: dop_mul(_fn(RatFunc(Poly([1]), Poly([1, 1]))), d - x)),
        ("(x^2+1)^0", DiffOp.one),
        ("x^0*d", lambda: d),
        ("d^0", DiffOp.one),
        ("x^-1*(x+1)^-1*d",
         lambda: dop_mul(dop_mul(_fn(RatFunc.x_power(-1)),
                                 _fn(RatFunc(Poly([1]), Poly([1, 1])))), d)),
        ("(x+1)^-2*x^-2*d^2",
         lambda: dop_mul(dop_mul(_fn(RatFunc(Poly([1]), Poly([1, 1]) ** 2)),
                                 _fn(RatFunc.x_power(-2))), dop_mul(d, d))),
    ])
    def test_against_explicit_products(self, text, build):
        assert parse_operator(text) == build()

    def test_reciprocal_of_zero_function(self):
        with pytest.raises(ZeroDenominator):
            parse_operator("(x - x)^-1")

    def test_laurent_text_takes_no_leibniz_product(self, monkeypatch):
        calls = []

        def counting(L, M):
            calls.append((L, M))
            return dop_mul(L, M)

        # the parser multiplies DiffOps with DiffOp.__mul__, which is dop_mul
        monkeypatch.setattr(diffop_module, "dop_mul", counting)
        L = parse_operator("d^5 + 3*d^3 - 7/3*x^-3*d^3")
        assert not calls
        assert L == DiffOp("x", {5: 1, 3: RatFunc(Poly([-Fraction(7, 3), 0, 0, 3]),
                                                  Poly.monomial(3))})
        parse_operator("(x+1)^-1*(d - x)")
        assert len(calls) == 1

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
        assert value == DiffOp("x", {4096: 1})

    def test_exponent_bound_holds(self):
        with pytest.raises(OperatorSyntaxError):
            parse_operator(f"d^{MAX_EXPONENT + 1}")
        with pytest.raises(OperatorSyntaxError):
            parse_operator("x^4097")

    @pytest.mark.parametrize("text,pos", [
        # the first ended in a MemoryError: the parser asked for a list of
        # 68.7 billion coefficients; the next took 0.23 s and 271 MB, the
        # third 0.55 s and 527 MB, the last 25 s in classify
        ("((x^4096)^4096)^4096", 10),
        ("(x^4096)^4096", 9),
        ("(x^4096)^4096*(x^4096)^4096", 9),
        ("(d^4096)^4096", 9),
        ("(x^-4096)^2", 10),
        ("(3*x^2)^2049", 8),
        # a power is refused at its exponent, a product at its *, where
        # the powers of its factors add up
        ("d^4096*d", 6),
        ("x^4096*x", 6),
        ("x^-4096*x^-1", 7),
        ("x^-4095*d*x^-1", 9),
    ])
    def test_exponent_bound_holds_for_the_result(self, text, pos):
        start = time.perf_counter()
        with pytest.raises(OperatorSyntaxError, match="bounds") as err:
            parse_operator(text)
        assert time.perf_counter() - start < 1
        assert err.value.position == pos

    @pytest.mark.parametrize("text", [
        "((x^4096)^4096)^4096", "(x^4096)^4096*(x^4096)^4096", "d^4096*d"])
    def test_exponent_bound_is_a_syntax_error_through_the_cli(self, text):
        out = subprocess.run([sys.executable, "-m", "bispec.cli", "parse", text],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert out.stderr.startswith("syntax error: ")

    @pytest.mark.parametrize("text", [
        "d^4096", "x^-4096", "(x^2)^2048", "x^4095*x", "x^-4095*x^-1", "(x^-1)^4096"])
    def test_results_at_the_exponent_bound_parse(self, text):
        L = parse_operator(text)
        assert max(max(L.coeffs), *(max(c.num.degree, c.den.degree)
                                    for c in L.coeffs.values())) == MAX_EXPONENT

    @pytest.mark.parametrize("text,pos", [
        ("(x+1)^4096", 6),
        ("(x+1)^-4096", 7),
        ("(d+x)^128", 6),
        ("((x+1)^-1+x)^-171", 14),  # a power of a DiffOp base
    ])
    def test_large_power_of_a_sum_answers_at_once(self, text, pos):
        # the first three took 29 s or more before the size bound; each is
        # now refused at its exponent
        start = time.perf_counter()
        with pytest.raises(OperatorSyntaxError, match="bounds") as err:
            parse_operator(text)
        assert time.perf_counter() - start < 1
        assert err.value.position == pos

    @pytest.mark.parametrize("text,n", [("((x+1)^-1+x)^170", 170),
                                        ("((x+1)^-1+x)^-170", -170)])
    def test_large_power_of_a_reciprocal_answers_at_once(self, text, n):
        # 5 s when every squaring of the RatFunc power took a gcd; p^n/q^n
        # of a reduced p/q is already reduced
        start = time.perf_counter()
        L = parse_operator(text)
        assert time.perf_counter() - start < 1
        # (x^2+x+1)/(x+1) is reduced, so its power is num^170/den^170
        p, q = (parse_operator(t).coeff(0).num for t in ("(x^2+x+1)^170", "(x+1)^170"))
        assert (L.coeff(0).num, L.coeff(0).den) == ((p, q) if n > 0 else (q, p))

    @pytest.mark.parametrize("text,pos", [
        ("(x+1)^511*(x+1)^511", 9),
        ("((x+1)^-1+x)^170*((x+1)^-1+x)^170", 16),
        ("(x+1)^200*(x+1)^200*(x+1)^200*(x+1)^200", 19),
    ])
    def test_large_product_answers_at_once(self, text, pos):
        # the first took 2.7 s before products were bounded; each is now
        # refused at the * whose bound passes MAX_POWER_TERMS
        start = time.perf_counter()
        with pytest.raises(OperatorSyntaxError, match="product") as err:
            parse_operator(text)
        assert time.perf_counter() - start < 1
        assert err.value.position == pos

    def test_product_size_bound_edge(self):
        # orders 0 and spreads 255 and 256: the bound is 1 * 512; the
        # product equals the one power
        assert parse_operator("(x+1)^255*(x+1)^256") == parse_operator("(x+1)^511")
        with pytest.raises(OperatorSyntaxError, match="product") as err:
            parse_operator("(x+1)^256*(x+1)^256")
        assert err.value.position == 9
        # 31 powers of d and 46 of x
        with pytest.raises(OperatorSyntaxError, match="product") as err:
            parse_operator("(d+x)^15*(d+x)^15")
        assert err.value.position == 8

    @pytest.mark.parametrize("text,a,b", [
        # no x to move d past: one term
        ("d^30*2", d ** 30, DiffOp("x", {0: 2})),
        # d past x^b lowers the powers at most b times: 2 x 2
        ("d^22*x", d ** 22, x),
        ("d^21*x^21", d ** 21, x ** 21),
        ("x^-300*d^20*x^300", DiffOp("x", {0: RatFunc.x_power(-300)}),
         dop_mul(d ** 20, x ** 300)),
    ])
    def test_few_term_products_of_large_factors_parse(self, text, a, b):
        assert parse_operator(text) == dop_mul(a, b)

    weyl_st = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(-4, 6)),
        st.integers(-3, 3).filter(bool).map(Fraction), max_size=4).map(TOp)

    @settings(max_examples=200, deadline=None)
    @given(weyl_st, weyl_st)
    def test_product_size_bounds_the_product(self, a, b):
        assert len((a * b).terms) <= _product_bounds(a, b)[0]

    @settings(max_examples=200, deadline=None)
    @given(weyl_st, weyl_st)
    def test_product_reach_bounds_the_products_exponents(self, a, b):
        reach = _product_bounds(a, b)[1]
        assert all(max(k, abs(e)) <= reach for k, e in (a * b).terms)

    @settings(max_examples=100, deadline=None)
    @given(weyl_st, st.integers(0, 4))
    def test_power_bounds_bound_the_power(self, a, n):
        size, reach, _ = _power_bounds(a, n)
        assert len((a ** n).terms) <= size
        assert all(max(k, abs(e)) <= reach for k, e in (a ** n).terms)

    @settings(max_examples=200, deadline=None)
    @given(weyl_st, weyl_st)
    def test_product_equals_the_monomial_oracle(self, a, b):
        assert mono_of_top(a * b) == mono_mul(mono_of_top(a), mono_of_top(b))

    def test_sum_of_large_powers_answers_at_once(self):
        # 1.5 s when each power of a function took repeated squarings
        start = time.perf_counter()
        L = parse_operator("(x+1)^511+(x+1)^511")
        assert time.perf_counter() - start < 1
        assert L.coeff(0).num.coeffs[1] == 2 * 511

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(-3, 3),
                           st.fractions(-3, 3, max_denominator=3).filter(bool),
                           min_size=2, max_size=4),
           st.integers(0, 12))
    def test_power_of_a_function_by_recurrence(self, terms, n):
        text = "(" + " + ".join(f"({c})*x^{e}" for e, c in terms.items()) + f")^{n}"
        f = sum((RatFunc.x_power(e, c) for e, c in terms.items()), RatFunc.zero())
        expect = RatFunc.one()
        for _ in range(n):
            expect = expect * f
        assert parse_operator(text) == DiffOp("x", {0: expect})

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_power_of_an_operator_with_a_general_denominator(self, n):
        # a base that left the Laurent algebra and contains d is a DiffOp
        # power by repeated squaring
        base = dop_mul(DiffOp("x", {0: RatFunc(Poly([1]), Poly([1, 1]))}), d)
        expect = DiffOp.one()
        for _ in range(n):
            expect = dop_mul(expect, base)
        assert parse_operator(f"((x+1)^-1*d)^{n}") == expect

    @pytest.mark.parametrize("text,pos", [
        # a constant's box is all zeros, so the term and exponent bounds
        # let the first ask for about 6.9*10^10 bits, which never finished;
        # the second took 2 s.  Each is refused at its first power whose
        # scalars could pass MAX_SCALAR_BITS
        ("((2^4096)^4096)^4096", 10),
        ("(2^4096*x+1)^256", 13),
        ("((2^4096)^4096)^3*((2^4096)^4096)^3*((2^4096)^4096)^3", 10),
        ("*".join(["(2^4096)^4096"] * 16), 9),
    ])
    def test_coefficient_bit_bound_holds(self, text, pos):
        with pytest.raises(OperatorSyntaxError, match="bits") as err:
            parse_operator(text)
        assert err.value.position == pos

    def test_scalar_bit_bound_edge(self):
        # a product predicts the sum of its factors' bits: 4,097 + 3,963
        # = 8,060 parses, 4,097 + 4,096 = 8,193 is refused at the *
        assert MAX_SCALAR_BITS == 8192
        assert parse_operator("2^4096*3^2500") == DiffOp("x", {0: 2 ** 4096 * 3 ** 2500})
        with pytest.raises(OperatorSyntaxError, match="product") as err:
            parse_operator("2^4096*2^4095")
        assert err.value.position == 6
        # a sum holds a scalar with an 11,136-bit denominator; its printed
        # monomial c*x is a product by x, which copies c and predicts no
        # bits, where it used to be refused at its * (position 5309)
        L = parse_operator("3^-4096*x + 5^-2000*x")
        text = print_operator(L)
        assert len(text) == 5311 and text.endswith("*x")
        assert parse_operator(text) == L
        # a product that reorders, (c*d)*x, still predicts the sum of bits
        c = text[:-2]
        with pytest.raises(OperatorSyntaxError, match="bits per scalar") as err:
            parse_operator(f"d*{c}*x")
        assert err.value.position == len(c) + 2

    @pytest.mark.parametrize("text,pos", [
        # each ran for 3 s to past 30 s in big-integer arithmetic; each is
        # refused at a power or product whose scalars could pass
        # MAX_SCALAR_BITS
        ("((2^4096)^4096+1)^-1+((2^4096)^4096+3)^-1+((2^4096)^4096+5)^-1", 10),
        ("(2^4096)^-1024*(3^4096)^512", 10),
        ("(2^4096)^-4096*(3^4096)^2048", 10),
        ("(2^4096)^4096+(3^4096)^2048", 9),
        ("(3^-128*x+2)^255*(3^-128*x+5)^255", 13),
        ("(7^-8*x+2/3)^255*(5^-8*x+3/7)^255", 16),
    ])
    def test_short_texts_with_large_scalars_are_refused(self, text, pos):
        with pytest.raises(OperatorSyntaxError, match="bits per scalar") as err:
            parse_operator(text)
        assert err.value.position == pos

    def test_power_size_bound_edge(self):
        # (d + x)^n has at most (n + 1)(2n + 1) monomials: 496 at n = 15,
        # 561 at n = 16; (x*d)^n at most (n + 1)^2
        assert MAX_POWER_TERMS == 512
        assert parse_operator("(d+x)^15") == (d + x) ** 15
        assert parse_operator("(x*d)^21") == dop_mul(x, d) ** 21
        for text in ("(d+x)^16", "(x*d)^22"):
            with pytest.raises(OperatorSyntaxError, match="bounds"):
                parse_operator(text)


# texts drawn from the grammar, each with its value built by DiffOp arithmetic

def _fn_text(text, f):
    return text, DiffOp("x", {0: f})


_leaves = st.one_of(
    st.integers(0, 9).map(lambda n: (str(n), DiffOp("x", {0: n}))),
    st.tuples(st.integers(0, 9), st.integers(1, 6)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", DiffOp("x", {0: Fraction(*pq)}))),
    st.sampled_from([("x", x), ("d", d)]),
    # c * x^e to a power of either sign
    st.tuples(st.integers(1, 5), st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda cen: _fn_text(f"({cen[0]}*x^{cen[1]})^{cen[2]}",
                             RatFunc.x_power(cen[1], cen[0]) ** cen[2])),
    # (x + c)^k: a negative k with c != 0 leaves Q[x, x^-1]
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ck: _fn_text(
            f"(x {'-' if ck[0] < 0 else '+'} {abs(ck[0])})^{ck[1]}",
            RatFunc(Poly([ck[0], 1])) ** ck[1])),
)


def _reciprocal(node):
    text, value = node
    if value.is_function() and not value.is_zero():
        return f"({text})^-1", DiffOp("x", {0: value.coeff(0).inverse()})
    return node


def _quotient(pair):
    (a, va), (b, vb) = pair
    if vb.is_function() and not vb.is_zero():
        return f"({a})/({b})", dop_mul(va, DiffOp("x", {0: vb.coeff(0).inverse()}))
    return a, va


def _branches(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: (f"({p[0][0]})*({p[1][0]})", dop_mul(p[0][1], p[1][1]))),
        pairs.map(_quotient),
        pairs.map(lambda p: (f"{p[0][0]} + ({p[1][0]})", p[0][1] + p[1][1])),
        pairs.map(lambda p: (f"{p[0][0]} - ({p[1][0]})", p[0][1] - p[1][1])),
        children.map(lambda a: (f"-({a[0]})", -a[1])),
        st.tuples(children, st.integers(0, 3)).map(
            lambda an: (f"({an[0][0]})^{an[1]}", an[0][1] ** an[1])),
        children.map(_reciprocal),
    )


_expressions = st.recursive(_leaves, _branches, max_leaves=6)


class TestGrammarProperty:
    @settings(max_examples=200, deadline=None)
    @given(_expressions)
    def test_parse_equals_diffop_arithmetic(self, node):
        text, value = node
        L = parse_operator(text)
        assert L == value
        assert_canonical_op(L)
        Z = parse_operator(text, "z")
        assert Z == DiffOp("z", value.coeffs)
        assert_canonical_op(Z)


def _command_id(argv: list[str]) -> str:
    """The test id of a CLI case: its command, each token over 60
    characters cut to its head and its length, so that no expected
    output names the test."""
    return shlex.join(t if len(t) <= 60 else f"{t[:8]}...({len(t)} chars)" for t in argv)


class TestPrintability:
    """No text makes the parser or the printer fail with anything but a
    BispecError: the interpreter refuses to convert an int of more than
    ``sys.get_int_max_str_digits()`` digits to or from text, and both
    places turn that refusal into a domain error."""

    EXIT_CASES = [
        (["parse", "(2^4096)^4"], 2, "syntax error: power exceeds"),
        (["mul", "(2^4096)^4", "d"], 2, "syntax error: power exceeds"),
        (["parse", "9" * 4401], 2, "syntax error: integer literal too long"),
        # the gauge pushes the scalars past the digit limit
        (["classify", "d^3 + 3^-4096*d^2"], 0, 'errors: ["ScalarTooLong: '),
        (["--json", "classify", "d^3 + 3^-4096*d^2"], 0, '"ScalarTooLong: '),
        (["parse", "9" * 4300 + "+1"], 0, 'errors: ["ScalarTooLong: '),
        # a sum holds a larger scalar than any product may make, and the
        # obstruction walk carries it into its steps
        (["airy-wave", "d^2 - x + 3^-4096*x^-3 + 5^-2700*x^-3 + 7^-2700*x^-3"], 0,
         'errors: ["ScalarTooLong: '),
        # the operator prints, but an alpha of its obstruction trace does not
        (["--json", "classify", "d^2 - x + 3^-4096*x^-30 + 5^-2700*x^-30 + 7^-530*x^-30"],
         0, '"ScalarTooLong: '),
        # input checks before dispatch, the theta parser, and errors that a
        # report embeds
        (["classify", "d^2", "--trunc", "0"], 2,
         "input error: --trunc must be at least 1, got 0"),
        (["wave", "d^2", "--trunc", "0"], 2, "input error: --trunc must be at least 1, got 0"),
        (["classify", "d^2", "--order-budget", "-1"], 2,
         "input error: --order-budget must be at least 0, got -1"),
        (["classify", "d^2+x^-2", "--theta", "d"], 2, "syntax error: theta must not contain d"),
        (["classify", "d^2+x^-2", "--theta", "x^-1"], 2,
         "syntax error: theta must be a polynomial"),
        (["classify", "d"], 0, 'errors: ["order must be at least 2"]'),
        (["classify", "x + 1"], 0, 'errors: ["order must be at least 2"]'),
        (["ad-test", "2*d^2", "--theta", "x^2"], 0,
         "chain_error: NotMonic: bounded test needs a monic operator"),
        (["--json", "ad-test", "2*d^2", "--theta", "x^2"], 0,
         '"chain_error": "NotMonic: bounded test needs a monic operator"'),
        (["classify", "d^5 + x^-3", "--theta", "x"], 0,
         "note: theta = x is not admissible: its ad chain does not end after "
         "deg theta + 1 = 2 brackets"),
    ]

    @pytest.mark.parametrize("argv,code,text", EXIT_CASES,
                             ids=[_command_id(argv) for argv, _, _ in EXIT_CASES])
    def test_cli_exit_codes(self, argv, code, text, capsys):
        assert main(argv) == code
        out = capsys.readouterr()
        assert text in (out.err if code == 2 else out.out)

    def test_literal_past_the_digit_limit(self):
        # refused at the start of the literal p/q
        with pytest.raises(OperatorSyntaxError, match="too long") as err:
            parse_operator("x + 2/" + "9" * 4401)
        assert err.value.position == 4
        with pytest.raises(ScalarTooLong):
            print_operator(parse_operator("9" * 4300 + "+1"))

    # texts drawn from the grammar above, with scalars near the caps: the
    # powers of small primes up to the bits-per-scalar cap, and literals
    # at the interpreter's digit limit
    _texts = st.recursive(
        st.one_of(
            _expressions.map(lambda node: node[0]),
            st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(-4096, 4096)).map(
                lambda bn: f"{bn[0]}^{bn[1]}"),
            st.integers(4290, 4310).map(lambda n: "9" * n),
        ),
        lambda children: st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=4,
    )

    @settings(max_examples=150, deadline=None)
    @given(_texts)
    def test_every_text_is_refused_or_prints_back(self, text):
        # the operator, and each of its coefficients printed alone as a
        # RatFunc, (num)/(den), read back as what was printed
        try:
            L = parse_operator(text)
            texts = [(L, print_operator(L))]
            texts += [(DiffOp("x", {0: c}), str(c)) for c in L.coeffs.values()]
        except BispecError:
            return
        for value, printed in texts:
            try:
                assert parse_operator(printed) == value
            except OperatorSyntaxError as e:
                # a sum or a literal can hold a scalar that a product refuses:
                # a printed monomial c*x^e*d^k copies c and parses back, but a
                # coefficient printed as (num)*(den)^-1, or as (num)/(den),
                # multiplies num by a den whose scalars count too
                assert "bits per scalar" in str(e)
                assert printed[e.position - 1:e.position + 2] in (")*(", ")/(")


class TestDegenerateOperands:
    """Every subcommand keeps the CLI's exit-code contract on the zero
    operator (also written as d^2 - d^2), the unit, x and d: it returns 0
    or 2 and raises nothing."""

    OPERANDS = ["0", "1", "x", "d", "d^2 - d^2"]
    UNARY = ["parse", "ad-test", "wave", "airy-wave", "weights", "classify",
             "centralizer"]
    BINARY = ["mul", "commutator", "divide", "darboux"]

    @pytest.mark.parametrize("cmd", UNARY + BINARY)
    def test_every_subcommand(self, cmd):
        arity = 1 if cmd in self.UNARY else 2
        for operands in itertools.product(self.OPERANDS, repeat=arity):
            for flag in ([], ["--json"]):
                argv = [cmd, *operands, *flag]
                assert main(argv) in (0, 2), argv


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
        ("x^\u00b2", 2),  # a superscript two is a digit to str.isdigit, not to int()
        ("1/\u00b2", 2),
    ])
    def test_positions(self, text, pos):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text)
        assert exc.value.position == pos

    def test_other_decimal_digits_are_numbers(self):
        # int() reads every Unicode decimal digit, e.g. the Arabic-Indic three
        assert parse_operator("x^\u0663") == parse_operator("x^3")


class TestPrint:
    @pytest.mark.parametrize("L,expect", [
        (d * d - x, "d^2 - x"),
        (DiffOp.zero(), "0"),
        (DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()}), "x*d + 1"),
        (d * d - DiffOp("x", {0: RatFunc.x_power(-2, 2)}), "d^2 - 2*x^-2"),
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

    def test_large_order_over_a_general_denominator(self):
        # the printed product's bound is deg num + deg den + 1 = 19
        L = DiffOp("x", {30: RatFunc(Poly([1] + [0] * 9 + [1]), Poly([1] + [0] * 7 + [1]))})
        assert print_operator(L) == "(x^10 + 1)*(x^8 + 1)^-1*d^30"
        assert parse_operator(print_operator(L)) == L

    def test_general_denominator(self):
        L = DiffOp("x", {1: RatFunc(Poly([1]), Poly([-1, 1]))})
        text = print_operator(L)
        assert parse_operator(text) == L
