"""Exact scalar, polynomial, rational-function and Laurent-at-infinity arithmetic.

Conventions used throughout the package:

* Scalars are ``fractions.Fraction`` (exact, arbitrary precision).
* ``Poly`` is a dense univariate polynomial, coefficients ascending by
  degree.  The zero polynomial has degree -1 (the distinguished sentinel).
* ``RatFunc`` is a reduced fraction of two Polys with a monic denominator,
  so equal functions have equal (num, den).  A denominator c*x^k, which is
  what every coefficient in Q[x, x^-1] has, is reduced without Euclid by
  shifting out x^min(val(num), k); only other denominators go through
  ``Poly.gcd``.  A unit denominator is always the shared ``Poly.one()``.
* ``LaurentTail`` is a truncated expansion at infinity written in the
  variable x^-1: the term at index ``s`` is ``c_s * x^(-s)``.  Indices may
  be negative (polynomial part).  ``trunc`` is the last index known exactly;
  ``trunc=None`` means every absent coefficient is exactly zero.
* ``PowerSeries`` is the mirror object at the origin (term at index ``e``
  is ``c_e * x^e``, exact through ``e <= trunc``).  Both share one body,
  ``TruncatedSeries``, with ``bounded.PDO``; only the sign of the exponent
  tells the two apart.

All values are immutable after construction, so ``Poly.zero()``,
``Poly.one()``, ``Poly.x()``, ``RatFunc.zero()``, ``RatFunc.one()`` and
``RatFunc.x()`` return shared instances.

Trusted constructors.  The public constructors coerce and normalize their
input.  Arithmetic that already knows its result is canonical wraps it
with a trusted constructor instead, which checks nothing; each caller must
meet the invariant itself:

* ``Poly._trusted(coeffs)``: a tuple of ``Fraction`` with no trailing zero
  (products, negation, nonzero scaling, derivatives and Taylor shifts keep
  a trimmed tuple trimmed; sums and remainders are trimmed first by
  ``_trimmed``).
* ``RatFunc._reduced(num, den)``: gcd(num, den) = 1, den monic, a unit den
  is the shared ``Poly.one()``, and zero is 0/1.  Negation, nonzero
  scaling and translation keep a pair reduced; so do products, sums and
  derivatives of polynomials.
* ``LaurentTail._trusted(terms, trunc)`` and ``PowerSeries._trusted``: a
  dict with int keys and nonzero ``Fraction`` values, every key at most
  ``trunc``.

Every coefficient map is cleaned by ``nonzero_terms``, which reads a
coefficient's truth: ``Fraction``, ``RatFunc`` and the series are false
exactly when zero.

A dict handed to a value is never changed afterwards, so values may share
one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    InsufficientPrecision,
    LogObstruction,
    ReconstructionFailed,
    ZeroDenominator,
)
from .linalg import nullspace
from .record import Record

Scalar = Fraction

ScalarLike = Union[Fraction, int]


# An index or exponent beyond any real one: the start index of an empty
# finite tail, and (negated) the order at infinity of the zero function.
FAR_INDEX = 10 ** 9

_new = object.__new__


def _frac(value: ScalarLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The smaller of two truncations, where None means exact."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def binary_power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring; ``one`` is returned for
    n = 0.  No square is taken after the last bit of n."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial over Fraction, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "Poly":
        """Wrap a tuple of Fractions with no trailing zero, unchecked."""
        self = _new(cls)
        _set_coeffs(self, coeffs)
        return self

    def __setattr__(self, *args):  # immutable
        raise AttributeError("Poly is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "Poly":
        return _POLY_ZERO

    @staticmethod
    def one() -> "Poly":
        return _POLY_ONE

    @staticmethod
    def x() -> "Poly":
        return _POLY_X

    @staticmethod
    def const(c: ScalarLike) -> "Poly":
        c = _frac(c)
        return Poly._trusted((c,)) if c else _POLY_ZERO

    @staticmethod
    def monomial(degree: int, coeff: ScalarLike = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        c = _frac(coeff)
        if not c:
            return _POLY_ZERO
        return Poly._trusted((_ZERO,) * degree + (c,))

    # -- basic queries

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def valuation(self) -> int:
        """Multiplicity of the root x = 0 (degree+1 convention not used;
        returns 0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    # -- arithmetic

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly._trusted(tuple([-c for c in self.coeffs]))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _trimmed(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return _POLY_ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        bs = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in bs:
                    out[i + j] += a * b
        # over a field the product of the leading coefficients is nonzero
        return Poly._trusted(tuple(out))

    def scale(self, c: ScalarLike) -> "Poly":
        c = _frac(c)
        if not c:
            return _POLY_ZERO
        return Poly._trusted(tuple([a * c for a in self.coeffs]))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, n, _POLY_ONE)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        q = [Fraction(0)] * max(0, len(rem) - d)
        lead = other.coeffs[-1]
        lower = [(i, b) for i, b in enumerate(other.coeffs[:-1]) if b]
        # each step cancels the top coefficient exactly, so it is popped
        while len(rem) > d:
            top = rem.pop()
            if not top:
                continue
            shift = len(rem) - d
            c = top / lead
            q[shift] = c
            for i, b in lower:
                rem[shift + i] -= c * b
        return _trimmed(q), _trimmed(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div: division is not exact")
        return q

    def derivative(self) -> "Poly":
        return Poly._trusted(tuple([c * i for i, c in enumerate(self.coeffs)][1:]))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, point: ScalarLike) -> Fraction:
        """Evaluate at a scalar point by Horner."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def translate(self, a: ScalarLike) -> "Poly":
        """The Taylor shift p(x + a), by repeated Horner steps; the
        leading coefficient is unchanged, so the tuple stays trimmed."""
        n = len(self.coeffs) - 1
        if n < 1 or not a:
            return self
        cs = list(self.coeffs)
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return Poly._trusted(tuple(cs))

    def squarefree_decomposition(self) -> list[tuple["Poly", int]]:
        """Yun's algorithm: returns [(g_i, i)] with self = lead * prod g_i^i,
        each g_i monic squarefree, pairwise coprime, deg g_i possibly 0."""
        if self.degree <= 0:
            return []
        if not any(self.coeffs[:-1]):  # lead * x^k
            return [(Poly.x(), self.degree)]
        p = self.monic()
        dp = p.derivative()
        a = p.gcd(dp)
        b = p.exact_div(a)
        c = dp.exact_div(a)
        out: list[tuple[Poly, int]] = []
        i = 1
        while b.degree > 0:
            d = c - b.derivative()
            g = b.gcd(d)
            if g.degree > 0:
                out.append((g, i))
            b = b.exact_div(g)
            c = d.exact_div(g)
            i += 1
        return out

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, ascending.  Exact and
        free of integer factorization: each square-free factor of Yun's
        decomposition has its real roots isolated by Sturm bisection, and
        one candidate per root is tested exactly."""
        return decomposition_roots(self.squarefree_decomposition())

    # -- display

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return poly_text(self)


_set_coeffs = Poly.coeffs.__set__
_ZERO = Fraction(0)
_POLY_ZERO = Poly._trusted(())
_POLY_ONE = Poly._trusted((Fraction(1),))
_POLY_X = Poly._trusted((_ZERO, Fraction(1)))


def _trimmed(cs: list) -> Poly:
    """A Poly from a list of Fractions that may end in zeros."""
    while cs and not cs[-1]:
        cs.pop()
    return Poly._trusted(tuple(cs))


def signed_sum(terms) -> str:
    """Join (sign, text) pairs as "a + b - c", a negative first term as
    "-a"; "0" when there are none.  Every printed sum of the package,
    from polynomials and series to operators, is joined here."""
    out = ""
    for sign, text in terms:
        if out:
            out += (" - " if sign < 0 else " + ") + text
        else:
            out = "-" + text if sign < 0 else text
    return out or "0"


def monomial_text(c: Fraction, xexp: int, dexp: int = 0, var: str = "x",
                  dvar: str = "d") -> str:
    """The monomial |c| * var^xexp * dvar^dexp; its sign is left to
    ``signed_sum``."""
    atoms: list[str] = []
    mag = abs(c)
    if mag != 1 or (xexp == 0 and dexp == 0):
        atoms.append(str(mag))
    if xexp != 0:
        atoms.append(var if xexp == 1 else f"{var}^{xexp}")
    if dexp != 0:
        atoms.append(dvar if dexp == 1 else f"{dvar}^{dexp}")
    return "*".join(atoms)


def poly_text(p: Poly, var: str = "x") -> str:
    """p with its terms in descending degree."""
    cs = p.coeffs
    return signed_sum([(cs[k], monomial_text(cs[k], k, 0, var))
                       for k in range(len(cs) - 1, -1, -1) if cs[k]])


def _int_coeffs(p: Poly) -> list[int]:
    """The coefficients of a positive multiple of p, all integers."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _sign_at(coeffs: list[int], point: Fraction) -> int:
    """The sign of the integer polynomial at point = a/b, b > 0, from
    b^deg * p(a/b) in integer arithmetic."""
    a, b = point.numerator, point.denominator
    acc, bpow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return (acc > 0) - (acc < 0)


def _squarefree_rational_roots(g: Poly) -> list[Fraction]:
    """The rational roots of a square-free polynomial of degree >= 1.

    The Sturm sequence counts the roots in (lo, hi] as V(lo) - V(hi),
    where V counts sign changes, zeros dropped.  Bisection from a bound on
    every root isolates each real root, and then narrows it by the sign of
    g alone to a width below 1/(2 a^2), with a the leading coefficient of
    g's primitive integer multiple.  A rational root s/t in lowest terms
    has t | a.  Two fractions with denominators at most a are at least
    1/a^2 apart, and the midpoint is within 1/(4 a^2) of the root, so a
    rational root is the fraction closest to the midpoint with denominator
    at most a; that one candidate is tested exactly.
    """
    ints = _int_coeffs(g)
    a = abs(ints[-1]) // gcd(*ints)
    seq = [g, g.derivative()]
    while seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    seq = [_int_coeffs(s) for s in seq]

    def changes(point: Fraction) -> int:
        signs = [s for s in (_sign_at(c, point) for c in seq) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    # every root has |r| <= 2 max_i |c_i / c_n|^(1/(n-i)) (Fujiwara), and
    # |c_i / c_n| < 2^(bits(c_i) - bits(c_n) + 1)
    n, top = len(ints) - 1, abs(ints[-1]).bit_length()
    k = max([-(-(abs(c).bit_length() - top + 1) // (n - i))
             for i, c in enumerate(ints[:-1]) if c] + [0])
    bound = Fraction(2 ** (k + 1))
    roots = []
    stack = [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi > 1:
            mid = (lo + hi) / 2
            vmid = changes(mid)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif vlo - vhi == 1:
            root = _narrow(ints, a, lo, hi)
            if root is not None:
                roots.append(root)
    return roots


def _narrow(ints: list[int], a: int, lo: Fraction,
            hi: Fraction) -> Optional[Fraction]:
    """The rational root in (lo, hi], which holds exactly one simple real
    root of the integer polynomial, or None when that root is irrational;
    a rational root's denominator divides a."""
    width = Fraction(1, 2 * a * a)
    s_hi = _sign_at(ints, hi)
    if not s_hi:
        return hi
    while hi - lo >= width:
        mid = (lo + hi) / 2
        s = _sign_at(ints, mid)
        if not s:
            return mid
        if s == s_hi:
            hi = mid
        else:
            lo = mid
    # the candidate may be a root next to an irrational one in (lo, hi]
    cand = ((lo + hi) / 2).limit_denominator(a)
    return cand if lo < cand <= hi and not _sign_at(ints, cand) else None


def decomposition_roots(factors: list[tuple[Poly, int]]) -> list[tuple[Fraction, int]]:
    """The rational roots with multiplicities, ascending, of a polynomial
    given by its square-free decomposition ``factors`` (as returned by
    ``Poly.squarefree_decomposition``)."""
    return sorted((r, mult) for g, mult in factors
                  for r in _squarefree_rational_roots(g))


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero()
    return (a * b).exact_div(a.gcd(b)).monic()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced rational function num/den with monic denominator.

    The representative is canonical: gcd(num, den) = 1, den is monic, and
    zero is 0/1.  A denominator c*x^k (a monomial, as for every
    coefficient in Q[x, x^-1]) is reduced without Euclid: its only monic
    divisors are x^j, so the gcd is x^min(val(num), k), and removing it is
    a shift of the coefficient tuples.  Any other denominator is reduced
    by ``Poly.gcd``.  A unit denominator is the shared ``Poly.one()``.
    """

    __slots__ = ("num", "den")

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
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair that is already canonical, skipping the reduction."""
        self = _new(cls)
        _set_num(self, num)
        _set_den(self, den)
        return self

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "RatFunc":
        return _RAT_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RAT_ONE

    @staticmethod
    def const(c: ScalarLike) -> "RatFunc":
        return RatFunc._reduced(Poly.const(c), _POLY_ONE)

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

    def constant_at_infinity(self) -> Fraction:
        """Limit at infinity when bounded (0 if strictly decaying)."""
        o = self.infinity_order()
        if o > 0:
            raise ValueError("unbounded at infinity")
        if o == 0:
            return self.infinity_leading()
        return Fraction(0)

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
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return RatFunc._reduced(self.num + other.num, _POLY_ONE)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den is _POLY_ONE and other.den is _POLY_ONE:
            return RatFunc._reduced(self.num * other.num, _POLY_ONE)
        return RatFunc(self.num * other.num, self.den * other.den)

    def scale(self, c: ScalarLike) -> "RatFunc":
        num = self.num.scale(c)
        if num.is_zero():
            return _RAT_ZERO
        return RatFunc._reduced(num, self.den)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDenominator("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, _RAT_ONE)

    def derivative(self) -> "RatFunc":
        if self.den is _POLY_ONE:
            return RatFunc._reduced(self.num.derivative(), _POLY_ONE)
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def translate(self, a: ScalarLike) -> "RatFunc":
        """f(x + a).  The shift is a ring automorphism that keeps degrees
        and leading coefficients, so the pair stays reduced."""
        return RatFunc._reduced(self.num.translate(a), self.den.translate(a))

    def __repr__(self):
        return f"RatFunc({self})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"


_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__
_RAT_ZERO = RatFunc._reduced(_POLY_ZERO, _POLY_ONE)
_RAT_ONE = RatFunc._reduced(_POLY_ONE, _POLY_ONE)
_RAT_X = RatFunc._reduced(_POLY_X, _POLY_ONE)


def ratfunc_canonicalize(num: Poly, den: Poly) -> RatFunc:
    """gcd-reduced, monic-denominator representative of num/den."""
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def nonzero_terms(terms: dict, trunc: Optional[int] = None) -> dict:
    """The entries of ``terms`` whose coefficient is nonzero (true) and,
    when a truncation is given, whose index is at most ``trunc``.  Every
    coefficient map of the package (series, operators) is cleaned here."""
    if trunc is None:
        return {i: c for i, c in terms.items() if c}
    return {i: c for i, c in terms.items() if c and i <= trunc}


def add_terms(a: dict, b: dict, trunc: Optional[int] = None) -> dict:
    """The termwise sum of two coefficient maps, cleaned by
    ``nonzero_terms``."""
    out = dict(a)
    for i, c in b.items():
        out[i] = out[i] + c if i in out else c
    return nonzero_terms(out, trunc)


_setattr = object.__setattr__


class TruncatedSeries(Record):
    """A truncated series sum_i c_i t^i in one formal variable t.

    ``terms`` maps the index i to a nonzero coefficient; indices at most
    ``trunc`` are exact, and ``trunc=None`` means every absent coefficient
    is exactly zero.  This is the coefficient-ring-independent body of
    ``LaurentTail`` (t = 1/x), ``PowerSeries`` (t = x) and ``bounded.PDO``
    (t = 1/d).  A subclass lists ``terms`` and ``trunc`` in its own
    ``__slots__``, builds its values with ``_with``, prints one term with
    ``_term`` and the order term as O(_VAR^(_SIGN * (trunc + 1))).
    """

    __slots__ = ()

    def _with(self, terms: dict, trunc: Optional[int]):
        """A value of this kind with a clean ``terms`` dict, unchecked."""
        return self._trusted(terms, trunc)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def start(self) -> Optional[int]:
        """Leading index; None for the zero series."""
        return min(self.terms) if self.terms else None

    def known(self, i: int) -> bool:
        return self.trunc is None or i <= self.trunc

    def _known_floor(self) -> int:
        """Start index used in precision bookkeeping (surrogate for zero)."""
        if self.terms:
            return min(self.terms)
        if self.trunc is not None:
            return self.trunc + 1
        return FAR_INDEX

    def _product_trunc(self, other: "TruncatedSeries") -> Optional[int]:
        """The last exact index of a product: the unknown range of either
        factor, shifted by the other factor's leading index."""
        cands = []
        if self.trunc is not None:
            cands.append(self.trunc + other._known_floor())
        if other.trunc is not None:
            cands.append(other.trunc + self._known_floor())
        return min(cands) if cands else None

    def __neg__(self):
        return self._with({i: -c for i, c in self.terms.items()}, self.trunc)

    def __add__(self, other):
        trunc = min_trunc(self.trunc, other.trunc)
        return self._with(add_terms(self.terms, other.terms, trunc), trunc)

    def __sub__(self, other):
        return self + (-other)

    def restrict(self, trunc: Optional[int]):
        new = min_trunc(self.trunc, trunc)
        terms = self.terms if new is None else {
            i: c for i, c in self.terms.items() if i <= new}
        return self._with(terms, new)

    def __str__(self):
        body = signed_sum([self._term(i, c) for i, c in sorted(self.terms.items())])
        if self.trunc is None:
            return body
        return f"{body} + O({self._VAR}^{self._SIGN * (self.trunc + 1)})"


class _ScalarSeries(TruncatedSeries):
    """A truncated series with Fraction coefficients whose term at index i
    is c_i * x^(_SIGN * i).  The sign of the exponent is all that tells
    ``LaurentTail`` (_SIGN = -1) from ``PowerSeries`` (_SIGN = 1)."""

    __slots__ = ()
    _VAR = "x"

    def __init__(self, terms: Optional[Mapping[int, ScalarLike]] = None,
                 trunc: Optional[int] = None):
        clean = {int(i): _frac(c) for i, c in (terms or {}).items()}
        _setattr(self, "terms", nonzero_terms(clean, trunc))
        _setattr(self, "trunc", trunc)

    @classmethod
    def _trusted(cls, terms: dict, trunc: Optional[int]):
        """Wrap a clean ``terms`` dict (see the module docstring), unchecked."""
        self = _new(cls)
        _setattr(self, "terms", terms)
        _setattr(self, "trunc", trunc)
        return self

    @classmethod
    def zero(cls, trunc: Optional[int] = None):
        return cls._trusted({}, trunc)

    @classmethod
    def from_poly(cls, p: Poly):
        return cls({cls._SIGN * k: c for k, c in enumerate(p.coeffs)}, None)

    def coeff(self, i: int) -> Fraction:
        return self.terms.get(i, _ZERO)

    def scale(self, c: ScalarLike):
        c = _frac(c)
        if not c:
            return self._trusted({}, self.trunc)
        return self._trusted({i: v * c for i, v in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        # an exact zero absorbs
        if (not self.terms and self.trunc is None) or (
            not other.terms and other.trunc is None
        ):
            return self._trusted({}, None)
        trunc = self._product_trunc(other)
        out: dict[int, Fraction] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                i = i1 + i2
                if trunc is not None and i > trunc:
                    continue
                out[i] = out.get(i, _ZERO) + c1 * c2
        return self._trusted(nonzero_terms(out), trunc)

    def derivative(self):
        # d/dx x^(sign*i) = sign*i * x^(sign*i - 1), the term at index
        # i - sign; the constant term drops out
        sign = self._SIGN
        out = {i - sign: sign * i * c for i, c in self.terms.items() if i}
        return self._trusted(out, None if self.trunc is None else self.trunc - sign)

    def _term(self, i: int, c: Fraction) -> tuple:
        return c, monomial_text(c, self._SIGN * i)


class LaurentTail(_ScalarSeries):
    """Truncated Laurent expansion at infinity: sum_s c_s * x^(-s).

    ``terms`` maps the index s (negated exponent) to a nonzero coefficient.
    Indices at most ``trunc`` are exact; ``trunc=None`` means the tail is an
    exact Laurent polynomial (all absent coefficients are zero).
    """

    __slots__ = ("terms", "trunc")
    _SIGN = -1

    @staticmethod
    def x_power(exponent: int, coeff: ScalarLike = 1) -> "LaurentTail":
        """Exact tail for coeff * x^exponent."""
        return LaurentTail({-exponent: _frac(coeff)}, None)

    def is_one(self) -> bool:
        return self.trunc is None and self.terms == {0: 1}

    def leading(self) -> tuple[int, Fraction]:
        if not self.terms:
            raise ValueError("zero tail has no leading term")
        s = min(self.terms)
        return s, self.terms[s]

    def antiderivative(self) -> "LaurentTail":
        """Term-by-term antiderivative, zero constant of integration.

        Raises LogObstruction when the x^-1 coefficient is nonzero: the
        antiderivative would leave the Laurent/rational class.
        """
        if self.terms.get(1, Fraction(0)) != 0:
            raise LogObstruction("antiderivative requires log(x): nonzero x^-1 term")
        out = {s - 1: c / (1 - s) for s, c in self.terms.items()}
        trunc = None if self.trunc is None else self.trunc - 1
        return LaurentTail._trusted(out, trunc)

    def known_count(self) -> Optional[int]:
        """Number of known coefficients from the leading index down to the
        truncation (None = infinitely many)."""
        if self.trunc is None:
            return None
        anchor = min(self.terms) if self.terms else 0
        return self.trunc - anchor + 1

    def as_ratfunc(self) -> RatFunc:
        """Exact tails only: the Laurent polynomial as a rational function."""
        if self.trunc is not None:
            raise ValueError("tail is truncated; not an exact value")
        out = RatFunc.zero()
        for s, c in self.terms.items():
            out = out + RatFunc.x_power(-s, c)
        return out


def _quotient_terms(num: tuple, den: tuple, start: int, count: int) -> dict:
    """The first ``count`` coefficients of the power series num/den in one
    variable (den[0] != 0), keyed by ``start`` + their degree, zeros
    dropped."""
    lead = den[0]
    series: list[Fraction] = []
    out: dict[int, Fraction] = {}
    for i in range(count):
        acc = num[i] if i < len(num) else _ZERO
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * series[i - j]
        c = acc / lead
        series.append(c)
        if c:
            out[start + i] = c
    return out


def laurent_expand(f: RatFunc, M: int) -> LaurentTail:
    """Laurent expansion of ``f`` at infinity, exact through index M
    (i.e. through the term in x^-M)."""
    if f.is_zero():
        return LaurentTail._trusted({}, M)
    num, den = f.num, f.den
    # in t = 1/x, num(x) = x^n * num_rev(t) and den likewise
    start = den.degree - num.degree  # index of the leading term
    terms = _quotient_terms(num.coeffs[::-1], den.coeffs[::-1], start, M - start + 1)
    return LaurentTail._trusted(terms, M)


def rational_reconstruct(t: LaurentTail, degN: int, degD: int) -> Optional[RatFunc]:
    """Recover the rational function with deg num <= degN, deg den <= degD
    whose expansion at infinity matches ``t`` on every known coefficient.

    Returns None when no such function exists.  Raises InsufficientPrecision
    when the tail carries fewer than degN + degD + 2 known coefficients.
    """
    count = t.known_count()
    if count is not None and count < degN + degD + 2:
        raise InsufficientPrecision(
            f"need {degN + degD + 2} known coefficients, have {count}"
        )
    if t.is_zero():
        return RatFunc.zero()
    if t.trunc is None:
        # exact Laurent polynomial: solve by direct comparison
        f = t.as_ratfunc()
        if f.num.degree <= degN and f.den.degree <= degD:
            return f
        return None
    M = t.trunc
    r = t._known_floor()
    e_max = max(degN, degD - r)
    e_min = degD - M
    if e_min > e_max:
        raise InsufficientPrecision("empty matching window")
    # unknowns: p_0..p_degN, q_0..q_degD ; rows: coefficient of x^e in q*t - p
    ncols = (degN + 1) + (degD + 1)
    rows = []
    for e in range(e_max, e_min - 1, -1):
        row = {e: Fraction(-1)} if 0 <= e <= degN else {}
        for i in range(degD + 1):
            c = t.coeff(i - e)
            if c != 0:
                row[degN + 1 + i] = c
        if row:
            rows.append(row)
    basis = nullspace(rows, ncols)
    for vec in basis:
        if max(vec) > degN:  # q != 0
            p = Poly([vec.get(k, _ZERO) for k in range(degN + 1)])
            q = Poly([vec.get(degN + 1 + i, _ZERO) for i in range(degD + 1)])
            f = RatFunc(p, q)
            # belt and braces: the reduced representative must re-expand to t
            check = laurent_expand(f, M)
            ok = all(check.coeff(s) == t.coeff(s) for s in range(min(r, check._known_floor()), M + 1))
            if ok:
                return f
            return None
    return None


def antiderivative(t: LaurentTail) -> LaurentTail:
    """Module-level alias for LaurentTail.antiderivative (spec operation)."""
    return t.antiderivative()


# ---------------------------------------------------------------------------
# rational antiderivative (tail propose, exact derivative verify)
# ---------------------------------------------------------------------------

def rat_antiderivative(g: RatFunc) -> RatFunc:
    """Antiderivative of a rational function, certified rational.

    Proposes a candidate by integrating the Laurent tail at infinity and
    reconstructing; certifies by exact re-differentiation.  Raises
    LogObstruction when the residue at infinity (x^-1 coefficient) is
    nonzero, ReconstructionFailed when no rational antiderivative is found
    within growing degree bounds (e.g. arctan-type integrands).
    """
    if g.is_zero():
        return RatFunc.zero()
    dn = max(g.num.degree - g.den.degree + 1, 0) + g.den.degree
    dd = g.den.degree
    for round_ in range(4):  # four rounds of growing degree bounds
        degN = dn + round_ * (dn + 2)
        degD = dd + round_ * (dd + 2)
        depth = degN + degD + 4 + max(0, -g.infinity_order())
        tail = laurent_expand(g, depth)
        anti = tail.antiderivative()  # raises LogObstruction on x^-1 term
        try:
            cand = rational_reconstruct(anti, degN + 1, degD)
        except InsufficientPrecision:
            cand = None
        if cand is not None and cand.derivative() == g:
            return cand
    raise ReconstructionFailed("no rational antiderivative within degree bounds")


# ---------------------------------------------------------------------------
# truncated power series at the origin
# ---------------------------------------------------------------------------

class PowerSeries(_ScalarSeries):
    """Truncated (Laurent) series at the origin: sum_e c_e * x^e.

    Exponents below zero are allowed internally (they arise while applying
    operators with poles at 0).  ``trunc`` is the last exponent known
    exactly; None means the series is an exact Laurent polynomial.
    """

    __slots__ = ("terms", "trunc")
    _SIGN = 1


def taylor_expand_at_zero(f: RatFunc, M: int) -> PowerSeries:
    """Laurent expansion of ``f`` at the origin, exact through x^M.  The
    principal part (negative exponents) is finite and exact."""
    if f.is_zero():
        return PowerSeries._trusted({}, M)
    num, den = f.num, f.den
    # num = x^nv * (its unit part), den = x^v * unit with unit(0) != 0
    nv, v = num.valuation(), den.valuation()
    start = nv - v
    terms = _quotient_terms(num.coeffs[nv:], den.coeffs[v:], start, M - start + 1)
    return PowerSeries._trusted(terms, M)
