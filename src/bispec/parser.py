"""Operator expressions: a small recursive-descent parser and the canonical
printer.

Grammar (whitespace insensitive; multiplication is noncommutative and
left-associative; ^ binds tighter than *):

    expr    := term (("+" | "-") term)*
    term    := unary ("*" unary)*
    unary   := "-" unary | power
    power   := atom ("^" exponent)?
    atom    := INT | INT "/" INT | "x" | "d" | "(" expr ")"
    exponent:= ["-"] INT

Expressions are evaluated in the Laurent Weyl algebra Q[x, x^-1]<d>,
where every element has one normal form sum c * x^e * d^k.  A value there
is a ``diffop.TOp``, the package's one class for that algebra: a sparse
map {(k, e): c} whose products reorder with the closed form

    d^i o x^b = sum_t C(i, t) b(b-1)...(b-t+1) x^(b-t) d^(i-t),

and the ``DiffOp`` is built once, at the end, with every coefficient
already canonical (its lowest term is nonzero, so no x divides the
numerator of an x^m denominator).  Only one construction leaves the
algebra: a derivative-free subexpression with two or more terms raised
to a power, such as (x+1)^-1 or (x+1)^3, which is the ``RatFunc`` power
num^n/den^n by ``Poly.__pow__`` (a zero one raises ZeroDenominator on
the same route at a negative power).  From that node on the value is a
``DiffOp`` built with ``dop_mul``, ``DiffOp`` sums and ``RatFunc`` powers,
and each Laurent operand that meets it is converted once.

Negative exponents are only allowed on derivative-free (order-0)
subexpressions, where they mean multiplication by the reciprocal
function; on anything containing d they raise NegativeDerivativeExponent.
Exponent magnitudes are capped at ``MAX_EXPONENT`` (dense coefficient
storage makes astronomically large powers a denial-of-service, not a
computation): on the literal, and on every power of x or d that a power
or a product may reach, so (x^4096)^4096 is refused at its exponent and
d^4096*d at its *.  The cap alone bounds a power of one term c*x^e or
c*d^k, which stays one term, but not any other base: (x+1)^4096 holds
4,097 terms and (d+x)^128 thousands.  So a power of any other base, of
either sign, is refused when it could hold more than ``MAX_POWER_TERMS``
monomials x^e*d^k, and so is a product, such as (x+1)^511*(x+1)^511.
Both bounds read a box, the ranges of the powers of d and of x that the
factors' boxes (``_box``) allow.  A box misses that the terms of d^k*x^k
lie on one diagonal (k + 1 terms in a box of (k + 1)^2), so such products
are refused from k = 22 on.  The box says nothing of a coefficient's
size, and a constant's box is all zeros.  So a power is also refused
when its term bound times n times the base's largest numerator or
denominator bit length (``_bits``) exceeds ``MAX_POWER_BITS``:
(2^4096)^4096 has 16.8 million bits and parses, ((2^4096)^4096)^4096
would have 6.9*10^10 and is refused at its exponent.

The printer emits one monomial per term, derivative powers descending and
x-exponents descending within each, so parse(print(L)) = L exactly.  A
coefficient whose denominator is not a power of x is printed as
(numerator)*(denominator)^-1; the parser takes that product back while
the two degrees add up to less than ``MAX_POWER_TERMS``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import NegativeDerivativeExponent, OperatorSyntaxError
from .poly import _ONE, monomial_text, poly_text, signed_sum
from .diffop import DiffOp, TOp

MAX_EXPONENT = 4096
MAX_POWER_TERMS = 512
MAX_POWER_BITS = 2 ** 26


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# the tokens of one character; a token is a (kind, value, pos) triple whose
# kind is one of NUM X D PLUS MINUS STAR CARET LPAREN RPAREN EOF
_SINGLE = {"x": "X", "d": "D", "+": "PLUS", "-": "MINUS", "*": "STAR",
           "^": "CARET", "(": "LPAREN", ")": "RPAREN"}


def _digits_end(text: str, i: int, n: int) -> int:
    while i < n and text[i].isdecimal():
        i += 1
    return i


def _tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    append = tokens.append
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        kind = _SINGLE.get(ch)
        if kind is not None:
            append((kind, None, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = _digits_end(text, i + 1, n)
            num = int(text[i:j])
            if j < n and text[j] == "/":  # rational literal p/q
                k = j + 1
                while k < n and text[k].isspace():
                    k += 1
                m = _digits_end(text, k, n)
                if m == k:
                    raise OperatorSyntaxError("expected denominator digits", k)
                den = int(text[k:m])
                if den == 0:
                    raise OperatorSyntaxError("zero denominator", k)
                append(("NUM", Fraction(num, den), i))
                i = m
            else:
                append(("NUM", Fraction(num), i))
                i = j
        else:
            raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    append(("EOF", None, n))
    return tokens


# ---------------------------------------------------------------------------
# size bounds
# ---------------------------------------------------------------------------

def _box(value: "_Value") -> tuple:
    """The lowest and highest power of d, then of x, over the monomials
    x^e*d^k of a value, all 0 for zero.  A DiffOp coefficient num/den
    stands for x^deg(num) and x^-deg(den)."""
    keys = value.terms if type(value) is TOp else [
        (k, e) for k, c in value.coeffs.items() for e in (c.num.degree, -c.den.degree)]
    ks, es = zip(*keys or [(0, 0)])
    return min(ks), max(ks), min(es), max(es)


def _power_bounds(base: "_Value", n: int) -> tuple[int, int]:
    """Upper bounds on the number of monomials x^e*d^k of base^n and on
    the largest |e| or k among them.

    k reaches n*K for the base's order K, and e runs from n*(e0 - K) to
    n*E0, over the spread n*(S + K), with e0..E0 the base's x-exponents
    and S = E0 - e0, each reordering of d past x^b lowering the exponent
    by one.  A power of one term c*x^e or c*d^k is one term."""
    k, K, e, E = _box(base)
    size = 1 if k == K and e == E and 0 in (K, E) else (n * K + 1) * (n * (E - e + K) + 1)
    return size, n * max(K, E, K - e)


def _bits(value: "_Value") -> int:
    """The largest bit length of a numerator or denominator among the
    scalars of a value: its TOp coefficients, or the coefficients of the
    numerators and denominators of its DiffOp coefficients."""
    scalars = value.terms.values() if type(value) is TOp else [
        c for f in value.coeffs.values() for p in (f.num, f.den) for c in p.coeffs]
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in scalars), default=0)


def _product_bounds(a: "_Value", b: "_Value") -> tuple[int, int]:
    """Upper bounds on the number of monomials x^e*d^k of a*b and on the
    largest |e| or k among them.

    x^e1 d^k1 o x^e2 d^k2 is the sum over t of w_t x^(e1+e2-t) d^(k1+k2-t),
    with t up to k1, and up to e2 when e2 >= 0 (w_t = 0 beyond).  So with
    t below the largest such shift, k and e run over ranges set by the
    factors' boxes: k up to aK + bK, e from ae + be - t to aE + bE."""
    ak, aK, ae, aE = _box(a)
    bk, bK, be, bE = _box(b)
    t = aK if be < 0 else min(aK, bE)
    return ((aK + bK - bk - max(0, ak - t) + 1) * (aE + bE - ae - be + t + 1),
            max(aK + bK, aE + bE, t - ae - be))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# A parsed value: an element of the Laurent Weyl algebra, or a DiffOp once
# a non-monomial denominator has been met.
_Value = Union[TOp, DiffOp]
_X = TOp({(0, 1): _ONE})
_D = TOp({(1, 0): _ONE})


class _Parser:
    def __init__(self, text: str, var: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = var

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.advance()
        if tok[0] != kind:
            raise OperatorSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        return tok

    def as_diffop(self, value: _Value) -> DiffOp:
        return value.diffop(self.var) if type(value) is TOp else value

    def pair(self, a: _Value, b: _Value) -> tuple[_Value, _Value]:
        """Two operands in one algebra: DiffOp when either is one."""
        if type(a) is type(b):
            return a, b
        return self.as_diffop(a), self.as_diffop(b)

    def parse(self) -> DiffOp:
        value = self.expr()
        kind, _, pos = self.tokens[self.pos]
        if kind != "EOF":
            raise OperatorSyntaxError(f"unexpected {kind}", pos)
        return self.as_diffop(value)

    def expr(self) -> _Value:
        value = self.term()
        while (kind := self.kind()) in ("PLUS", "MINUS"):
            self.pos += 1
            value, rhs = self.pair(value, self.term())
            value = value + rhs if kind == "PLUS" else value - rhs
        return value

    def term(self) -> _Value:
        value = self.unary()
        while self.kind() == "STAR":
            star = self.advance()[2]
            value, rhs = self.pair(value, self.unary())
            size, reach = _product_bounds(value, rhs)
            if size > MAX_POWER_TERMS or reach > MAX_EXPONENT:
                raise OperatorSyntaxError(
                    f"product exceeds the supported bounds: exponent {MAX_EXPONENT}, "
                    f"size {MAX_POWER_TERMS} terms", star)
            value = value * rhs
        return value

    def unary(self) -> _Value:
        if self.kind() == "MINUS":
            self.pos += 1
            return -self.unary()
        return self.power()

    def power(self) -> _Value:
        base = self.atom()
        if self.kind() != "CARET":
            return base
        caret = self.advance()[2]
        sign = 1
        if self.kind() == "MINUS":
            self.pos += 1
            sign = -1
        _, value, pos = self.expect("NUM")
        if value.denominator != 1:
            raise OperatorSyntaxError("exponent must be an integer", pos)
        n = value.numerator
        size, reach = _power_bounds(base, n)
        if (max(n, reach) > MAX_EXPONENT or size > MAX_POWER_TERMS
                or size * n * _bits(base) > MAX_POWER_BITS):
            raise OperatorSyntaxError(
                f"power exceeds the supported bounds: exponent {MAX_EXPONENT}, "
                f"size {MAX_POWER_TERMS} terms, {MAX_POWER_BITS} bits", pos
            )
        e = sign * n
        if e < 0 and not base.is_function():
            raise NegativeDerivativeExponent(
                "negative exponent on a subexpression containing d", caret
            )
        if type(base) is TOp and (len(base.terms) == 1 or not base.is_function()):
            return base ** e
        # a power of a function of several terms (or of zero) is a RatFunc
        # power, num^e/den^e by Poly.__pow__
        base = self.as_diffop(base)
        if base.is_function():
            return DiffOp.from_function(base.coeff(0) ** e, base.var)
        return base ** e

    def atom(self) -> _Value:
        kind, value, pos = self.advance()
        if kind == "NUM":
            return TOp({(0, 0): value} if value else {})
        if kind == "X":
            return _X
        if kind == "D":
            return _D
        if kind == "LPAREN":
            value = self.expr()
            self.expect("RPAREN")
            return value
        raise OperatorSyntaxError(f"unexpected {kind}", pos)


def parse_operator(text: str, var: str = "x") -> DiffOp:
    """Parse an operator expression to a normal-ordered DiffOp."""
    return _Parser(text, var).parse()


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def print_operator(L: DiffOp) -> str:
    """Canonical text: derivative powers descending, then x-exponents
    descending; Laurent-monomial denominators folded into negative powers
    of x, general denominators rendered as (den)^-1 factors."""
    var = L.var if L.var in ("x", "z") else "x"
    pieces: list[tuple] = []  # (sign, text) in canonical order
    for j in sorted(L.coeffs, reverse=True):
        c = L.coeffs[j]
        if c.is_laurent_polynomial():
            pieces += [(v, monomial_text(v, e, j, var)) for e, v in c.laurent_terms()]
        else:
            sign = c.num.leading()
            text = (f"({poly_text(c.num if sign > 0 else -c.num, var)})"
                    f"*({poly_text(c.den, var)})^-1")
            if j:
                text += "*" + monomial_text(1, 0, j)
            pieces.append((sign, text))
    return signed_sum(pieces)
