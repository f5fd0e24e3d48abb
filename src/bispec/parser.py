"""Operator expressions: a small recursive-descent parser and the canonical
printer.

Grammar (whitespace insensitive; multiplication is noncommutative and
left-associative; ^ binds tighter than *):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
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
A quotient a/b is a*b^-1, so b obeys the same rule; an INT "/" INT pair
is one rational literal, which binds tighter than ^, so 2/3^2 = 4/9.

Every power and every product passes one size check (``_check``), which
refuses it at its exponent or its * when bounds read off its operands
(``_shape``) pass one of three caps:
- ``MAX_EXPONENT``: the exponent literal, and every power of x or d the
  result may reach, so (x^4096)^4096 and d^4096*d are refused;
- ``MAX_POWER_TERMS``: the monomials x^e*d^k the result may hold, counted
  over the box of d- and x-powers the operands allow, so (x+1)^4096 and
  (d+x)^16 are refused (a box misses that d^k*x^k lies on one diagonal,
  so such products are refused from k = 22 on);
- ``MAX_SCALAR_BITS``: the predicted bit length of one scalar, n times the
  base's for a power and the sum of the factors' for a product, so
  2^4096*3^2500 parses and 2^4096*2^4095 is refused.  A product by one
  monomial of scalar +-1 that reorders nothing copies the other
  factor's scalars and predicts no bits.
Scalars are capped one at a time because that is where the cost is:
``Fraction`` arithmetic takes a gcd per operation, quadratic in the bit
length, and math.gcd of two random 2^16-, 2^18-, 2^20- and 2^22-bit
integers took 0.009, 0.13, 2.2 and 21 s on a 2-core VM.  Sums are not
checked: a sum adds its operands' bits, and each operand passed the caps.
A decimal literal is read up to the interpreter's limit on digits
(``sys.get_int_max_str_digits()``), and a longer one is a syntax error.

The printer joins, derivative powers descending, the pieces that
``RatFunc.signed_terms`` writes for each coefficient.  A coefficient
whose denominator is a power of x is one monomial per term, x-exponents
descending, so parse(print(L)) = L exactly; any other is printed as
(numerator)*(denominator)^-1, and the parser takes that product back while
the two degrees add up to less than ``MAX_POWER_TERMS``, and while its
predicted bits stay within ``MAX_SCALAR_BITS``: a sum or a literal can
hold a scalar larger than any product may make.  A printed monomial
c*x^e*d^k is such a product by unit monomials, so it parses back
whatever the size of c.  ``str`` of a ``RatFunc``, (numerator)/(denominator),
comes back as that quotient under the same caps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import NegativeDerivativeExponent, OperatorSyntaxError
from .poly import _ONE, signed_sum
from .diffop import DiffOp, TOp

MAX_EXPONENT = 4096
MAX_POWER_TERMS = 512
MAX_SCALAR_BITS = 2 ** 13


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

# the tokens of one character; a token is a (kind, value, pos) triple whose
# kind is one of NUM X D PLUS MINUS STAR SLASH CARET LPAREN RPAREN EOF
_SINGLE = {"x": "X", "d": "D", "+": "PLUS", "-": "MINUS", "*": "STAR",
           "/": "SLASH", "^": "CARET", "(": "LPAREN", ")": "RPAREN"}


# an integer literal, or a rational literal p/q: \d is what isdecimal accepts
_LITERAL = re.compile(r"(\d+)(?:/\s*(\d+))?")


def _tokenize(text: str) -> list[tuple]:
    tokens: list[tuple] = []
    append = tokens.append
    i = 0
    n = len(text)
    try:
        while i < n:
            ch = text[i]
            kind = _SINGLE.get(ch)
            if kind is not None:
                append((kind, None, i))
                i += 1
            elif ch.isspace():
                i += 1
            elif ch.isdecimal():
                lit = _LITERAL.match(text, i)
                num = Fraction(int(lit[1]))
                if lit[2]:
                    if not (den := int(lit[2])):
                        raise OperatorSyntaxError("zero denominator", lit.start(2))
                    num /= den
                append(("NUM", num, i))
                i = lit.end()
            else:
                raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    except ValueError as e:
        # int() reads at most sys.get_int_max_str_digits() digits
        raise OperatorSyntaxError(f"integer literal too long: {e}", i) from None
    append(("EOF", None, n))
    return tokens


# ---------------------------------------------------------------------------
# size bounds
# ---------------------------------------------------------------------------

def _shape(value: "_Value") -> tuple:
    """The lowest and highest power of d, then of x, over the monomials
    x^e*d^k of a value, all 0 for zero (its box), and the largest bit
    length of a numerator or denominator among its scalars, taken 0 for
    one monomial of scalar +-1 (a unit monomial, whose box is a point).
    A DiffOp coefficient num/den stands for x^deg(num) and x^-deg(den),
    and its scalars are the coefficients of num and den."""
    if type(value) is TOp:
        keys, scalars = value.terms, value.terms.values()
    else:
        keys = [(k, e) for k, c in value.coeffs.items()
                for e in (c.num.degree, -c.den.degree)]
        scalars = [s for c in value.coeffs.values() for p in (c.num, c.den)
                   for s in p.coeffs]
    ks, es = zip(*keys or [(0, 0)])
    # |p| | q has the bit length of the longer of p and q
    bits = max((abs(s.numerator) | s.denominator for s in scalars), default=0).bit_length()
    return min(ks), max(ks), min(es), max(es), 0 if bits == 1 and len(set(keys)) == 1 else bits


def _power_bounds(base: "_Value", n: int) -> tuple[int, int, int]:
    """Upper bounds on the number of monomials x^e*d^k of base^n and on
    the largest |e| or k among them, taken at least n so that the
    exponent itself is capped, and the predicted bit length of its
    largest scalar, n times the base's.

    k reaches n*K for the base's order K, and e runs from n*(e0 - K) to
    n*E0, over the spread n*(S + K), with e0..E0 the base's x-exponents
    and S = E0 - e0, each reordering of d past x^b lowering the exponent
    by one.  A power of one term c*x^e or c*d^k is one term."""
    k, K, e, E, bits = _shape(base)
    size = 1 if k == K and e == E and 0 in (K, E) else (n * K + 1) * (n * (E - e + K) + 1)
    return size, n * max(K, E, K - e, 1), n * bits


def _product_bounds(a: "_Value", b: "_Value") -> tuple[int, int, int]:
    """Upper bounds on the number of monomials x^e*d^k of a*b and on the
    largest |e| or k among them, and the predicted bit length of its
    largest scalar, the sum of the factors'.

    x^e1 d^k1 o x^e2 d^k2 is the sum over t of w_t x^(e1+e2-t) d^(k1+k2-t),
    with t up to k1, and up to e2 when e2 >= 0 (w_t = 0 beyond).  So with
    t below the largest such shift, k and e run over ranges set by the
    factors' boxes: k up to aK + bK, e from ae + be - t to aE + bE.

    With t = 0 and one factor a unit monomial (0 bits), the product
    copies the other factor's scalars, so it predicts no bits: a printed
    monomial c*x^e*d^k parses back whatever the size of c."""
    ak, aK, ae, aE, abits = _shape(a)
    bk, bK, be, bE, bbits = _shape(b)
    t = aK if be < 0 else min(aK, bE)
    return ((aK + bK - bk - max(0, ak - t) + 1) * (aE + bE - ae - be + t + 1),
            max(aK + bK, aE + bE, t - ae - be), abits + bbits if t or min(abits, bbits) else 0)


def _check(size: int, reach: int, bits: int, what: str, pos: int) -> None:
    """Refuse a power or product, at ``pos``, whose bounds pass a cap."""
    if reach > MAX_EXPONENT or size > MAX_POWER_TERMS or bits > MAX_SCALAR_BITS:
        raise OperatorSyntaxError(
            f"{what} exceeds the supported bounds: exponent {MAX_EXPONENT}, "
            f"size {MAX_POWER_TERMS} terms, {MAX_SCALAR_BITS} bits per scalar", pos)


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
        while (kind := self.kind()) in ("STAR", "SLASH"):
            star = self.advance()[2]
            rhs = self.unary()
            if kind == "SLASH":
                rhs = self.raise_to(rhs, -1, star, star)
            value, rhs = self.pair(value, rhs)
            _check(*_product_bounds(value, rhs), "product", star)
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
        negative = self.kind() == "MINUS"
        self.pos += negative
        _, value, pos = self.expect("NUM")
        if value.denominator != 1:
            raise OperatorSyntaxError("exponent must be an integer", pos)
        n = value.numerator
        return self.raise_to(base, -n if negative else n, caret, pos)

    def raise_to(self, base: _Value, e: int, caret: int, pos: int) -> _Value:
        """base^e, refused at ``pos`` by size and at ``caret`` for a
        negative e on d; a quotient a/b is a*b^-1, refused at its /."""
        _check(*_power_bounds(base, abs(e)), "power", pos)
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
            return DiffOp(base.var, {0: base.coeff(0) ** e})
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
    """Canonical text: derivative powers descending, each coefficient
    written by ``RatFunc.signed_terms`` and the pieces joined here."""
    var = L.var if L.var in ("x", "z") else "x"
    return signed_sum([piece for j, c in sorted(L.coeffs.items(), reverse=True)
                       for piece in c.signed_terms(j, var)])
