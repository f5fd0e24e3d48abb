"""Exact rational-function and Laurent-tail arithmetic over ``poly.Poly``.

Conventions:

* ``RatFunc`` is a reduced fraction of two Polys with a monic denominator,
  so equal functions have equal (num, den).  A denominator c*x^k, which is
  what every coefficient in Q[x, x^-1] has, is reduced without Euclid by
  shifting out x^min(val(num), k); only other denominators go through
  ``Poly.gcd``.  A unit denominator is always the shared ``Poly.one()``.
  A ``RatFunc`` equals only a ``RatFunc``, as every value class of the
  package equals only its own kind: ``RatFunc.const(2) != 2``.
* ``RatFunc.signed_terms`` owns the text of a coefficient: Laurent
  monomials when the denominator is a power of x, else (num)*(den)^-1.
  ``parser.print_operator`` joins those pieces.  ``str`` of a ``RatFunc``
  writes (num)/(den), the form the benchmark's gate compares a gauge
  certificate with; ``parser.parse_operator`` reads both forms back.
* A Laurent tail, a truncated expansion at infinity, is a plain exponent
  map ``{e: c_e}`` of the nonzero ``Fraction`` coefficients of
  ``c_e * x^e``, keyed by the exponent as every coefficient map of the
  package is, whose truncation the caller carries: with truncation M it
  is exact down to x^-M.  Keys may be positive (polynomial part).
  ``laurent_expand`` finds a tail by polynomial long division, one
  ``Poly.divmod``.  A tail serves the Pade path only:
  ``rat_antiderivative``, ``rational_reconstruct``,
  ``bounded.involution_b`` and ``bounded.pade_lift`` read it, each with
  its truncation.  The package's one series class is ``bounded.PDO``.
  Operators with Laurent-polynomial coefficients are ``diffop.TOp``
  values, in the one class for Q[x, x^-1]<d>.

All values are immutable after construction, so ``RatFunc.zero()``,
``RatFunc.one()`` and ``RatFunc.x()`` return shared instances.

Trusted constructors.  The public constructors coerce and normalize their
input.  Arithmetic that already knows its result is canonical wraps it
with the trusted constructor instead, ``Record._trusted``, which fills the
fields in order and checks nothing; each caller must meet the invariant
itself (``Poly._trusted``, the one other, is described in ``poly``):

* ``RatFunc._trusted(num, den)``: gcd(num, den) = 1, den monic, a unit den
  is the shared ``Poly.one()``, and zero is 0/1.  Negation, nonzero
  scaling and translation keep a pair reduced; so do products, sums and
  derivatives of polynomials, and sums over coprime denominators.
* ``bounded.PDO._trusted(terms, trunc)``: a dict with int keys, every key
  at least ``-trunc``, and nonzero ``RatFunc`` values.  Negation, sums
  and ``restrict`` keep it.

Every coefficient map is cleaned by ``nonzero_terms``, which reads a
coefficient's truth: ``Fraction`` and ``RatFunc`` are false exactly when
zero.

A dict handed to a value is never changed afterwards, so values may share
one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import (
    InsufficientPrecision,
    LogObstruction,
    ReconstructionFailed,
    ZeroDenominator,
)
from .linalg import nullspace
from .poly import (
    FAR_INDEX,
    _POLY_ONE,
    _POLY_X,
    _POLY_ZERO,
    _ZERO,
    Poly,
    ScalarLike,
    monomial_text,
    poly_text,
)
from .record import Record


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc(Record):
    """Reduced rational function num/den with monic denominator.

    The representative is canonical: gcd(num, den) = 1, den is monic, and
    zero is 0/1.  A denominator c*x^k (a monomial, as for every
    coefficient in Q[x, x^-1]) is reduced without Euclid: its only monic
    divisors are x^j, so the gcd is x^min(val(num), k), and removing it is
    a shift of the coefficient tuples.  Any other denominator is reduced
    by ``Poly.gcd``.  A unit denominator is the shared ``Poly.one()``.
    It equals only a ``RatFunc``, never the int or Fraction it may hold,
    and hashes by (num, den).

    Each value takes its derivative at most once: the first call of
    ``derivative`` keeps it in the third slot, so the Leibniz chains over
    one operator's coefficients reuse it.
    """

    __slots__ = ("num", "den", "_derivative")

    def __init__(self, num: Poly, den: Poly = _POLY_ONE):
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            num, den = _POLY_ZERO, _POLY_ONE
        elif den.is_one():
            den = _POLY_ONE  # polynomial fast path: nothing to reduce
        else:
            lead = den.leading()
            if not any(den.coeffs[:-1]):
                # den = lead * x^k: the gcd is x^min(val(num), k)
                v = min(num.valuation(), den.degree)
                num = Poly._trusted(num.coeffs[v:])
                den = Poly.monomial(den.degree - v) if v < den.degree else _POLY_ONE
            else:
                if num.degree > 0:
                    g = num.gcd(den)  # monic, so den keeps its lead
                    if g.degree > 0:
                        num = num.exact_div(g)
                        den = den.exact_div(g)
                den = den.monic()
                if not den.degree:
                    den = _POLY_ONE
            if lead != 1:
                num = num.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors

    @staticmethod
    def zero() -> "RatFunc":
        return _RAT_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RAT_ONE

    @staticmethod
    def const(c: ScalarLike) -> "RatFunc":
        return RatFunc._trusted(Poly.const(c), _POLY_ONE)

    @staticmethod
    def x() -> "RatFunc":
        return _RAT_X

    @staticmethod
    def x_power(k: int, coeff: ScalarLike = 1) -> "RatFunc":
        """coeff * x^k for any integer k (negative allowed)."""
        if k >= 0:
            return RatFunc(Poly.monomial(k, coeff))
        return RatFunc(Poly.const(coeff), Poly.monomial(-k))

    # -- queries

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.den.is_one() and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value()

    def infinity_order(self) -> int:
        """Leading exponent at infinity: deg num - deg den.  The zero
        function returns a very negative sentinel."""
        if self.is_zero():
            return -FAR_INDEX
        return self.num.degree - self.den.degree

    def infinity_leading(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.num.leading() / self.den.leading()

    def is_laurent_polynomial(self) -> bool:
        """True when the denominator is a power of x."""
        return not any(self.den.coeffs[:-1])

    def laurent_terms(self) -> list[tuple[int, Fraction]]:
        """Exponent/coefficient pairs for Laurent-polynomial values,
        descending by exponent."""
        if not self.is_laurent_polynomial():
            raise ValueError("not a Laurent polynomial")
        shift = self.den.degree
        out = [(k - shift, c) for k, c in enumerate(self.num.coeffs) if c != 0]
        return sorted(out, reverse=True)

    # -- arithmetic

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc._trusted(-self.num, self.den)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        """The sum, reduced over lcm(b, e) for a/b + c/e.  Over coprime b
        and e it is already reduced: a prime factor of b divides a e + c b
        only if it divides a or e (Knuth, TAOCP vol. 2, 4.5.1).  Two powers
        of x are reduced by the constructor's shift, without Euclid."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        a, b, c, e = self.num, self.den, other.num, other.den
        if b is _POLY_ONE and e is _POLY_ONE:
            return RatFunc._trusted(a + c, _POLY_ONE)
        if b == e:
            return RatFunc(a + c, b)
        if self.is_laurent_polynomial() and other.is_laurent_polynomial():
            return RatFunc(a * e + c * b, b * e)
        g = b.gcd(e)
        if g.is_one():
            return RatFunc._trusted(a * e + c * b, b * e)
        e = e.exact_div(g)
        return RatFunc(a * e + c * b.exact_div(g), b * e)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return RatFunc._trusted(self.num * other.num, _POLY_ONE)
        return RatFunc(self.num * other.num, self.den * other.den)

    def scale(self, c: ScalarLike) -> "RatFunc":
        num = self.num.scale(c)
        if num.is_zero():
            return _RAT_ZERO
        return RatFunc._trusted(num, self.den)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDenominator("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        """p^n/q^n of a reduced p/q with monic q is reduced, so the powers
        of numerator and denominator need no gcd."""
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._trusted(self.num ** n, self.den ** n)

    def derivative(self) -> "RatFunc":
        try:
            return self._derivative
        except AttributeError:
            pass
        if self.den is _POLY_ONE:
            out = RatFunc._trusted(self.num.derivative(), _POLY_ONE)
        else:
            out = RatFunc(
                self.num.derivative() * self.den - self.num * self.den.derivative(),
                self.den * self.den,
            )
        object.__setattr__(self, "_derivative", out)
        return out

    def translate(self, a: ScalarLike) -> "RatFunc":
        """f(x + a).  The shift is a ring automorphism that keeps degrees
        and leading coefficients, so the pair stays reduced."""
        return RatFunc._trusted(self.num.translate(a), self.den.translate(a))

    def signed_terms(self, j: int = 0, var: str = "x") -> list[tuple]:
        """The (sign, text) pairs of self * d^j, the one text of a
        coefficient: a Laurent monomial c*x^e*d^j per term when the
        denominator is a power of x, else (num)*(den)^-1*d^j with the
        sign of num's leading coefficient outside.  ``parser.parse_operator``
        reads both back."""
        if self.is_laurent_polynomial():
            return [(c, monomial_text(c, e, j, var)) for e, c in self.laurent_terms()]
        sign = self.num.leading()
        text = (f"({poly_text(self.num if sign > 0 else -self.num, var)})"
                f"*({poly_text(self.den, var)})^-1")
        return [(sign, text + "*" + monomial_text(1, 0, j) if j else text)]

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


_RAT_ZERO = RatFunc._trusted(_POLY_ZERO, _POLY_ONE)
_RAT_ONE = RatFunc._trusted(_POLY_ONE, _POLY_ONE)
_RAT_X = RatFunc._trusted(_POLY_X, _POLY_ONE)


# ---------------------------------------------------------------------------
# coefficient maps and Laurent tails
# ---------------------------------------------------------------------------

def nonzero_terms(terms: dict, trunc: Optional[int] = None) -> dict:
    """The entries of ``terms`` whose coefficient is nonzero (true) and,
    when a truncation is given, whose exponent is at least ``-trunc``.
    Every coefficient map of the package (series, operators) is cleaned
    here."""
    if trunc is None:
        return {i: c for i, c in terms.items() if c}
    return {i: c for i, c in terms.items() if c and i >= -trunc}


def add_terms(a: dict, b: dict, trunc: Optional[int] = None) -> dict:
    """The termwise sum of two coefficient maps, cleaned by
    ``nonzero_terms``."""
    out = dict(a)
    for i, c in b.items():
        out[i] = out[i] + c if i in out else c
    return nonzero_terms(out, trunc)


def laurent_expand(f: RatFunc, M: int) -> dict[int, Fraction]:
    """Laurent expansion of ``f`` at infinity, exact down to the term in
    x^-M, by polynomial long division: the tail ``{e: c_e}`` of the
    nonzero c_e with e >= -M.

    x^M * f = sum_e c_e x^(e+M), so c_e for e >= -M is the coefficient of
    x^(e+M) in the quotient of num * x^M by den; for M < 0 the quotient
    of num by den * x^-M.  The remainder holds the terms below x^-M."""
    if f.is_zero():
        return {}
    num = Poly._trusted((_ZERO,) * max(M, 0) + f.num.coeffs)
    den = Poly._trusted((_ZERO,) * max(-M, 0) + f.den.coeffs)
    q = num.divmod(den)[0].coeffs
    return {k - M: c for k, c in enumerate(q) if c}


def rational_reconstruct(t: dict[int, Fraction], M: int, degN: int,
                         degD: int) -> Optional[RatFunc]:
    """Recover the rational function p/q with deg p <= degN, deg q <= degD
    whose expansion at infinity matches the tail ``t``, exact down to
    x^-M, on every known coefficient.  ``t`` holds nonzero coefficients
    at exponents >= -M only, as ``laurent_expand`` returns them.

    p is the polynomial part of q*t, so one solve over q's degD + 1
    coefficients finds it: the rows are the coefficients of x^e in q*t
    outside 0..degN that the known coefficients of t fix, and p is read
    off q*t afterwards.  The reduced p/q must re-expand to t.

    Returns None when no such function exists.  Raises InsufficientPrecision
    when the tail carries fewer than degN + degD + 2 known coefficients,
    counted from its leading exponent (or x^0) down to x^-M.
    """
    count = M + max(t, default=0) + 1
    if count < degN + degD + 2:
        raise InsufficientPrecision(
            f"need {degN + degD + 2} known coefficients, have {count}"
        )
    if not t:
        return RatFunc.zero()
    # the coefficient of x^e in q*t is sum_i q_i t_(e-i); it is known for
    # e >= degD - M, and zero above degD plus t's leading exponent
    rows = []
    for e in range(max(degN, degD + max(t)), degD - M - 1, -1):
        if not 0 <= e <= degN:
            row = {i: c for i in range(degD + 1) if (c := t.get(e - i))}
            if row:
                rows.append(row)
    basis = nullspace(rows, degD + 1)
    if not basis:
        return None
    q = basis[0]
    p = [sum((v * t.get(e - i, _ZERO) for i, v in q.items()), _ZERO)
         for e in range(degN + 1)]
    f = RatFunc(Poly(p), Poly([q.get(i, _ZERO) for i in range(degD + 1)]))
    # belt and braces: the reduced representative must re-expand to t
    return f if laurent_expand(f, M) == t else None


# ---------------------------------------------------------------------------
# rational antiderivative (one Pade solve, exact derivative verify)
# ---------------------------------------------------------------------------

def rat_antiderivative(g: RatFunc) -> RatFunc:
    """Antiderivative of a rational function, certified rational, with
    zero constant term at infinity.

    If h = P/Q (reduced) has h' = g, each pole of h of order e is a pole
    of g of order e + 1 and g has no other pole.  So the denominator D of
    g is Q times the product of Q's distinct factors, and Q = gcd(D, D')
    (Bronstein, Symbolic Integration I, section 2.2).  As h has no
    constant term at infinity, deg h = ord_inf(g) + 1, so
    deg P = deg Q + ord_inf(g) + 1.  One Pade solve on the integrated tail
    at infinity at exactly those degrees finds h when it exists, and exact
    re-differentiation certifies it.  Raises LogObstruction when the
    residue at infinity (x^-1 coefficient) is nonzero, and
    ReconstructionFailed when the solve yields no antiderivative (e.g.
    arctan-type integrands): then none is rational.
    """
    if g.is_zero():
        return RatFunc.zero()
    order = g.infinity_order()
    degD = g.den.gcd(g.den.derivative()).degree
    # below degree 0 no h exists, and the solve at degree 0 finds none
    degN = max(degD + order + 1, 0)
    # the integrated tail then holds the degN + degD + 2 known
    # coefficients that the solve needs
    M = degN + degD + 1 - order
    tail = laurent_expand(g, M)
    if tail.get(-1):
        raise LogObstruction("antiderivative requires log(x): nonzero x^-1 term")
    # termwise, with zero constant of integration: exact down to x^-(M - 1)
    anti = {e + 1: c / (e + 1) for e, c in tail.items()}
    cand = rational_reconstruct(anti, M - 1, degN, degD)
    if cand is not None and cand.derivative() == g:
        return cand
    raise ReconstructionFailed("no rational antiderivative within degree bounds")
