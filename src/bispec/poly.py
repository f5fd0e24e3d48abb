"""Exact scalar and polynomial arithmetic: the bottom layer of the package.

Conventions:

* Scalars are ``fractions.Fraction`` (exact, arbitrary precision).
* ``Poly`` is a dense univariate polynomial, coefficients ascending by
  degree.  The zero polynomial has degree -1 (the distinguished sentinel).
  Its rational roots come from Yun's square-free decomposition and Sturm
  bisection on the grid Z/a (``Poly.rational_roots``), with no integer
  factorization.

Polys are immutable after construction, so ``Poly.zero()``, ``Poly.one()``
and ``Poly.x()`` return shared instances.

Trusted constructor.  ``Poly(coeffs)`` coerces and trims its input.
Arithmetic that already knows its result is canonical wraps it with
``Poly._trusted(coeffs)`` instead, which checks nothing: the caller hands
it a tuple of ``Fraction`` with no trailing zero (products, negation,
nonzero scaling, derivatives and Taylor shifts keep a trimmed tuple
trimmed; sums and remainders are trimmed first by ``_trimmed``).

Every printed sum of the package, from polynomials and series to
operators, is joined by ``signed_sum`` from monomials printed by
``monomial_text``.

This module imports nothing from the rest of the package but an
exception from ``errors``, which imports nothing, so that the
rational-function and series layer (``rational``) builds on it and not the
other way round.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

from .errors import ScalarTooLong

Scalar = Fraction

ScalarLike = Union[Fraction, int]


# An exponent beyond any real one: negated, the leading exponent of an
# empty exact series and the order at infinity of the zero function.
FAR_INDEX = 10 ** 9


def _frac(value: ScalarLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def min_trunc(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The smaller of two truncations, where None means exact."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


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
        """Wrap a tuple of Fractions with no trailing zero, unchecked.

        The package's other value classes take their unchecked
        constructor from ``record.Record``; ``Poly`` keeps its own.  It is
        the bottom layer, importing nothing but ``errors``, and the hot
        one: well over half of the unchecked constructions of a
        classification are Polys, and ``Record``'s generic loop over the
        fields made passes of the pole-at-the-origin benchmark workload
        4-13% slower (2-core VM, Python 3.11)."""
        self = object.__new__(cls)
        _set_coeffs(self, coeffs)
        return self

    def __setattr__(self, *args):  # immutable: no field is set or deleted
        raise AttributeError("Poly is immutable")

    __delattr__ = __setattr__

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
        return self.coeffs[0] if self.coeffs else _ZERO

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

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
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        """self**n by J. C. P. Miller's recurrence, run on the reversed
        coefficients q_0, q_1, ... (leading first, so q_0 is nonzero): the
        coefficients b_k of the reversed power satisfy
        k q_0 b_k = sum_i ((n + 1) i - k) q_i b_(k-i).  That is a few
        products per coefficient, where repeated squaring takes a number
        quadratic in the length of the result."""
        if n < 0:
            raise ValueError("negative polynomial power")
        if not n or self.is_one():
            return _POLY_ONE
        if self.is_zero():
            return self
        q0, *q = reversed(self.coeffs)
        b = [q0 ** n]
        for k in range(1, n * len(q) + 1):
            b.append(sum(((n + 1) * i - k) * c * b[k - i]
                         for i, c in enumerate(q[:k], 1)) / (k * q0))
        return Poly._trusted(tuple(reversed(b)))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        q = [_ZERO] * max(0, len(rem) - d)
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

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div: division is not exact")
        return q

    def derivative(self) -> "Poly":
        return Poly._trusted(tuple([c * i for i, c in enumerate(self.coeffs)][1:]))

    def monic(self) -> "Poly":
        lead = self.leading()
        if lead in (0, 1):  # zero, or monic already
            return self
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor, by Euclid on primitive integer
        pseudo-remainders (Knuth, TAOCP vol. 2, 4.6.1).  By Gauss's lemma
        the primitive integer multiples of the operands have the same gcd
        up to a scalar, and the primitive part of a pseudo-remainder
        lead(b)^k a mod b is an associate of a mod b, so the remainders
        are those of Euclid over Q up to scalars, without the growth of
        Fraction coefficients.  The common power of x is split off first:
        gcd(x^i p, x^j q) = x^min(i, j) gcd(p, q) when p(0) q(0) != 0."""
        if self.degree == 0 or other.degree == 0:
            return _POLY_ONE
        if not other.coeffs:
            return self.monic()
        if not self.coeffs:
            return other.monic()
        va, vb = self.valuation(), other.valuation()
        shift = (_ZERO,) * min(va, vb)
        if va == self.degree or vb == other.degree:  # c x^k: only x^i divides it
            return Poly._trusted(shift + (_ONE,))
        a = _primitive(_int_coeffs(self)[va:])
        b = _primitive(_int_coeffs(other)[vb:])
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            r = _pseudo_remainder(a, b)
            if not r:
                break
            a, b = b, _primitive(r)
        lead = b[-1]
        return Poly._trusted(shift + tuple([Fraction(c, lead) for c in b]))

    def __call__(self, point: ScalarLike) -> Fraction:
        """Evaluate at a scalar point by Horner."""
        point = _frac(point)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def translate(self, a: ScalarLike) -> "Poly":
        """The Taylor shift p(x + a), by repeated Horner steps; the
        leading coefficient is unchanged, so the tuple stays trimmed."""
        n = len(self.coeffs) - 1
        if n < 1 or not a:
            return self
        a = _frac(a)
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
            return [(_POLY_X, self.degree)]
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
        decomposition, with a the leading coefficient of its primitive
        integer multiple, has its roots found by Sturm bisection on the
        grid Z/a, and each grid point left beside a root is tested
        exactly."""
        return decomposition_roots(self.squarefree_decomposition())

    # -- display

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        return poly_text(self)


_set_coeffs = Poly.coeffs.__set__
_ZERO = Fraction(0)
_ONE = Fraction(1)
_POLY_ZERO = Poly._trusted(())
_POLY_ONE = Poly._trusted((_ONE,))
_POLY_X = Poly._trusted((_ZERO, _ONE))


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


def scalar_text(c) -> str:
    """``str(c)``, refused with ScalarTooLong where the interpreter
    refuses to convert an int of more digits than
    ``sys.get_int_max_str_digits()`` to text."""
    try:
        return str(c)
    except ValueError as e:
        raise ScalarTooLong(str(e)) from None


def monomial_text(c: Fraction, xexp: int, dexp: int = 0, var: str = "x",
                  dvar: str = "d") -> str:
    """The monomial |c| * var^xexp * dvar^dexp; its sign is left to
    ``signed_sum``."""
    atoms: list[str] = []
    mag = abs(c)
    if mag != 1 or (xexp == 0 and dexp == 0):
        atoms.append(scalar_text(mag))
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


def _primitive(ints: list[int]) -> list[int]:
    """The integer polynomial divided by the gcd of its coefficients."""
    g = gcd(*ints)
    return ints if g == 1 else [c // g for c in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of a mod b, for integer polynomials with
    deg a >= deg b >= 1, trimmed of trailing zeros: the one remainder
    kernel of ``Poly.gcd`` and ``_sturm_sequence``.  The remainder by -b is
    the remainder by b, so b is taken with a positive leading coefficient;
    each step multiplies the remainder by that lead, which it skips when
    it is 1, and cancels the top term with the other nonzero coefficients
    of b."""
    if b[-1] < 0:
        b = [-c for c in b]
    rem = list(a)
    d = len(b) - 1
    lead = b[-1]
    lower = [(i, c) for i, c in enumerate(b[:-1]) if c]
    while len(rem) > d:
        top = rem.pop()
        if not top:
            continue
        if lead != 1:
            rem = [lead * c for c in rem]
        shift = len(rem) - d
        for i, c in lower:
            rem[shift + i] -= top * c
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _sign_at(coeffs: list[int], point: Fraction) -> int:
    """The sign of the integer polynomial at point = a/b, b > 0, from
    b^deg * p(a/b) in integer arithmetic."""
    a, b = point.numerator, point.denominator
    acc, bpow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return (acc > 0) - (acc < 0)


def _sturm_sequence(g: Poly) -> list[list[int]]:
    """The Sturm sequence of a square-free g of degree >= 1, each member a
    positive multiple of the one over Q (g, g', then -(s_(i-1) mod s_i)),
    in primitive integer coefficients.  A positive multiple has the sign of
    the member at every point, so every sign count is the same."""
    seq = [_int_coeffs(g), _int_coeffs(g.derivative())]
    while len(seq[-1]) > 1:
        seq.append([-c for c in _primitive(_pseudo_remainder(seq[-2], seq[-1]))])
    return seq


def _squarefree_rational_roots(g: Poly) -> list[Fraction]:
    """The rational roots of a square-free polynomial of degree >= 1.

    Let a be the leading coefficient of g's primitive integer multiple.  A
    rational root s/t in lowest terms has t | a, so every rational root
    lies on the grid Z/a; an integer k stands for the point k/a.  The Sturm
    sequence counts the roots in (lo, hi] as V(lo) - V(hi), where V counts
    sign changes, zeros dropped.  Bisection at grid points, from a bound on
    every root, splits each interval that holds a root until it is one grid
    step wide; it then holds one grid point, hi/a, which is tested exactly.
    """
    seq = _sturm_sequence(g)
    ints = seq[0]
    a = abs(ints[-1]) // gcd(*ints)

    def changes(k: int) -> int:
        point = Fraction(k, a)
        signs = [s for s in (_sign_at(c, point) for c in seq) if s]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    # every root has |r| <= 2 max_i |c_i / c_n|^(1/(n-i)) (Fujiwara), and
    # |c_i / c_n| < 2^(bits(c_i) - bits(c_n) + 1)
    n, top = len(ints) - 1, abs(ints[-1]).bit_length()
    k = max([-(-(abs(c).bit_length() - top + 1) // (n - i))
             for i, c in enumerate(ints[:-1]) if c] + [0])
    bound = a * 2 ** (k + 1)
    roots = []
    stack = [(-bound, bound, changes(-bound), changes(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = changes(mid)
            stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
        elif not _sign_at(ints, Fraction(hi, a)):
            roots.append(Fraction(hi, a))
    return roots


def decomposition_roots(factors: list[tuple[Poly, int]]) -> list[tuple[Fraction, int]]:
    """The rational roots with multiplicities, ascending, of a polynomial
    given by its square-free decomposition ``factors`` (as returned by
    ``Poly.squarefree_decomposition``)."""
    return sorted((r, mult) for g, mult in factors
                  for r in _squarefree_rational_roots(g))


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return _POLY_ZERO
    return (a * b).exact_div(a.gcd(b)).monic()

