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

Expressions evaluate directly to normal-ordered operators.  Negative
exponents are only allowed on derivative-free (order-0) subexpressions,
where they mean multiplication by the reciprocal function; on anything
containing d they raise NegativeDerivativeExponent.  Exponent magnitudes
are capped (dense coefficient storage makes astronomically large powers a
denial-of-service, not a computation).

The printer emits one monomial per term, derivative powers descending and
x-exponents descending within each, so parse(print(L)) = L exactly.  A
coefficient whose denominator is not a power of x is printed as
(numerator)*(denominator)^-1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import NegativeDerivativeExponent, OperatorSyntaxError
from .rational import Poly
from .diffop import DiffOp, dop_mul
from .record import Record

MAX_EXPONENT = 4096


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

class _Token(Record):
    """kind is one of NUM X D PLUS MINUS STAR CARET LPAREN RPAREN EOF."""

    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: Optional[Fraction], pos: int):
        _set_kind(self, kind)
        _set_value(self, value)
        _set_pos(self, pos)


_set_kind = _Token.kind.__set__
_set_value = _Token.value.__set__
_set_pos = _Token.pos.__set__


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            # rational literal p/q
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isspace():
                    k += 1
                m = k
                while m < n and text[m].isdigit():
                    m += 1
                if m == k:
                    raise OperatorSyntaxError("expected denominator digits", k)
                den = int(text[k:m])
                if den == 0:
                    raise OperatorSyntaxError("zero denominator", k)
                tokens.append(_Token("NUM", Fraction(num, den), i))
                i = m
                continue
            tokens.append(_Token("NUM", Fraction(num), i))
            i = j
            continue
        if ch == "x":
            tokens.append(_Token("X", None, i))
        elif ch == "d":
            tokens.append(_Token("D", None, i))
        elif ch == "+":
            tokens.append(_Token("PLUS", None, i))
        elif ch == "-":
            tokens.append(_Token("MINUS", None, i))
        elif ch == "*":
            tokens.append(_Token("STAR", None, i))
        elif ch == "^":
            tokens.append(_Token("CARET", None, i))
        elif ch == "(":
            tokens.append(_Token("LPAREN", None, i))
        elif ch == ")":
            tokens.append(_Token("RPAREN", None, i))
        else:
            raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(_Token("EOF", None, n))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, var: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = var

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise OperatorSyntaxError(f"expected {kind}, found {tok.kind}", tok.pos)
        return self.advance()

    def parse(self) -> DiffOp:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise OperatorSyntaxError(f"unexpected {tok.kind}", tok.pos)
        return value

    def expr(self) -> DiffOp:
        value = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op.kind == "PLUS" else value - rhs
        return value

    def term(self) -> DiffOp:
        value = self.unary()
        while self.peek().kind == "STAR":
            self.advance()
            value = dop_mul(value, self.unary())
        return value

    def unary(self) -> DiffOp:
        if self.peek().kind == "MINUS":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> DiffOp:
        base = self.atom()
        if self.peek().kind != "CARET":
            return base
        caret = self.advance()
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
        tok = self.expect("NUM")
        if tok.value is None or tok.value.denominator != 1:
            raise OperatorSyntaxError("exponent must be an integer", tok.pos)
        if tok.value.numerator > MAX_EXPONENT:
            raise OperatorSyntaxError(
                f"exponent exceeds the supported bound {MAX_EXPONENT}", tok.pos
            )
        e = sign * tok.value.numerator
        if base.is_function():
            return DiffOp.from_function(base.coeff(0) ** e, base.var)
        if e < 0:
            raise NegativeDerivativeExponent(
                "negative exponent on a subexpression containing d", caret.pos
            )
        return base ** e

    def atom(self) -> DiffOp:
        tok = self.advance()
        if tok.kind == "NUM":
            return DiffOp.const(tok.value, self.var)
        if tok.kind == "X":
            return DiffOp.x(self.var)
        if tok.kind == "D":
            return DiffOp.d(self.var)
        if tok.kind == "LPAREN":
            value = self.expr()
            self.expect("RPAREN")
            return value
        raise OperatorSyntaxError(f"unexpected {tok.kind}", tok.pos)


def parse_operator(text: str, var: str = "x") -> DiffOp:
    """Parse an operator expression to a normal-ordered DiffOp."""
    return _Parser(text, var).parse()


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

def _monomial_text(c: Fraction, xexp: int, dexp: int, var: str) -> str:
    """One monomial |c| * x^xexp * d^dexp (sign handled by the caller)."""
    atoms: list[str] = []
    mag = abs(c)
    if mag != 1 or (xexp == 0 and dexp == 0):
        atoms.append(str(mag))
    if xexp != 0:
        atoms.append(var if xexp == 1 else f"{var}^{xexp}")
    if dexp != 0:
        atoms.append("d" if dexp == 1 else f"d^{dexp}")
    return "*".join(atoms)


def _poly_text(p: Poly, var: str) -> str:
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        body = _monomial_text(c, k, 0, var)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(parts)


def print_operator(L: DiffOp) -> str:
    """Canonical text: derivative powers descending, then x-exponents
    descending; Laurent-monomial denominators folded into negative powers
    of x, general denominators rendered as (den)^-1 factors."""
    if L.is_zero():
        return "0"
    var = L.var if L.var in ("x", "z") else "x"
    pieces: list[tuple[int, str]] = []  # (sign, body) in canonical order
    for j in sorted(L.coeffs, reverse=True):
        c = L.coeffs[j]
        if c.is_laurent_polynomial():
            for e, v in c.laurent_terms():
                pieces.append((1 if v > 0 else -1,
                               _monomial_text(v, e, j, var)))
        else:
            num, den = c.num, c.den
            lead = num.leading()
            sign = 1 if lead > 0 else -1
            body = f"({_poly_text(num if sign > 0 else -num, var)})"
            body += f"*({_poly_text(den, var)})^-1"
            if j != 0:
                body += "*" + ("d" if j == 1 else f"d^{j}")
            pieces.append((sign, body))
    out = []
    for sign, body in pieces:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f" {'+' if sign > 0 else '-'} {body}")
    return "".join(out)
