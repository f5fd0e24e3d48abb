"""The ring of differential operators with rational-function coefficients,
and its subring Q[x, x^-1]<d>, the Laurent Weyl algebra.

A ``DiffOp`` is kept in normal order: all x-dependence to the left of all
derivatives, i.e. a finite sum  sum_j V_j(x) * d^j  stored as a map from
the derivative power j to the nonzero coefficient V_j.  The variable tag
("x" or "z") distinguishes operators acting in the original variable from
operators acting in the spectral one; mixing tags is an error.

Products are computed with the Leibniz rule
    d^i o W(x) = sum_t C(i, t) W^(t)(x) d^(i-t),
so every constructor returns a normal-ordered value and equality is plain
coefficient comparison.

Division with remainder is long division on the same coefficient maps
(``leibniz_divide``): each step cancels the leading term of the remainder
with one quotient monomial, divided by the divisor's leading coefficient
when that is not 1.  It serves ``right_divide`` (L = Q o P + R) and
``left_divide`` (L = P o Q + R) with order(R) < order(P), the inverse of
a pseudo-differential series (a series division cut at a floor), and the
expansion of an operator in powers of L.

A ``TOp`` is an element of the Laurent Weyl algebra, a sparse map
{(k, e): c} of the monomials c * x^e * d^k, multiplied by the closed-form
reordering of d^i past x^b.  It is the package's one class for that
algebra, and the parser evaluates expressions in it.

``DiffOp(var, coeffs)`` coerces every coefficient to a ``RatFunc`` and
drops the zero ones.  Ring operations build their result with the trusted
constructor ``DiffOp._trusted(var, coeffs)`` instead, which checks
nothing; its caller must pass a dict with int keys >= 0 and nonzero
``RatFunc`` values (negation, nonzero scaling, translation and
multiplication by a nonzero function keep nonzero values nonzero; sums
and products drop their cancelled terms first).  A ``DiffOp`` is
immutable but unhashable; its coefficient dict must never be changed.

``DiffOp.zero(var)`` and ``DiffOp.one(var)`` build a new operator for
their variable tag, but the coefficients they and ``d``/``x`` hold are
the shared ``RatFunc.one()`` and ``RatFunc.x()`` instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Optional, Union

from .errors import (
    DivisionByZeroOperator,
    NonRationalGauge,
    NotInDomain,
    NotMonic,
    VariableMismatch,
)
from .poly import _ONE, _ZERO, Poly, ScalarLike
from .rational import RatFunc, add_terms, nonzero_terms
from .record import Record

CoeffLike = Union[RatFunc, Poly, Fraction, int]


def _coerce(c: CoeffLike) -> RatFunc:
    """c as a ``RatFunc``; NotInDomain for a value that is none of
    ``CoeffLike`` (a truncated series, say)."""
    if isinstance(c, RatFunc):
        return c
    if isinstance(c, Poly):
        return RatFunc(c)
    if isinstance(c, (Fraction, int)):
        return RatFunc.const(c)
    raise NotInDomain(f"{type(c).__name__} coefficient is not a rational function")


def binary_power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring, for the noncommutative
    operator rings ``DiffOp`` and ``TOp``; ``one`` is returned for n = 0.
    No square is taken after the last bit of n.  A negative n raises
    ValueError (an operator with d has no inverse in the ring)."""
    if n < 0:
        raise ValueError("negative operator power")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


class DiffOp(Record):
    """Normal-ordered differential operator sum_j V_j(x) d^j."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Mapping[int, CoeffLike]):
        clean = nonzero_terms({int(j): _coerce(c) for j, c in coeffs.items()})
        if any(j < 0 for j in clean):
            raise ValueError("negative derivative power in DiffOp")
        _set_var(self, var)
        _set_coeffs(self, clean)

    @classmethod
    def _trusted(cls, var: str, coeffs: dict) -> "DiffOp":
        """Wrap a clean coefficient dict (see the module docstring), unchecked."""
        self = _new(cls)
        _set_var(self, var)
        _set_coeffs(self, coeffs)
        return self

    # -- constructors

    @staticmethod
    def zero(var: str = "x") -> "DiffOp":
        return DiffOp._trusted(var, {})

    @staticmethod
    def one(var: str = "x") -> "DiffOp":
        return DiffOp._trusted(var, {0: RatFunc.one()})

    @staticmethod
    def const(c: ScalarLike, var: str = "x") -> "DiffOp":
        return DiffOp(var, {0: RatFunc.const(c)})

    @staticmethod
    def d(var: str = "x") -> "DiffOp":
        return DiffOp._trusted(var, {1: RatFunc.one()})

    @staticmethod
    def x(var: str = "x") -> "DiffOp":
        return DiffOp._trusted(var, {0: RatFunc.x()})

    @staticmethod
    def from_function(f: CoeffLike, var: str = "x") -> "DiffOp":
        return DiffOp(var, {0: _coerce(f)})

    @staticmethod
    def monomial(coeff: CoeffLike, j: int, var: str = "x") -> "DiffOp":
        return DiffOp(var, {j: _coerce(coeff)})

    # -- queries

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        """Order in d; -1 for the zero operator."""
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, j: int) -> RatFunc:
        return self.coeffs.get(j, RatFunc.zero())

    def leading(self) -> RatFunc:
        if self.is_zero():
            return RatFunc.zero()
        return self.coeffs[self.order]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading().is_one()

    def is_function(self) -> bool:
        return self.order <= 0

    def has_polynomial_coeffs(self) -> bool:
        return all(c.is_polynomial() for c in self.coeffs.values())

    def _check_var(self, other: "DiffOp"):
        if self.var != other.var:
            raise VariableMismatch(f"operators in {self.var!r} and {other.var!r}")

    # -- ring operations

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffOp)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __neg__(self) -> "DiffOp":
        return DiffOp._trusted(self.var, {j: -c for j, c in self.coeffs.items()})

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check_var(other)
        return DiffOp._trusted(self.var, add_terms(self.coeffs, other.coeffs))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def scale(self, c: ScalarLike) -> "DiffOp":
        if not c:
            return DiffOp._trusted(self.var, {})
        return DiffOp._trusted(self.var, {j: v.scale(c) for j, v in self.coeffs.items()})

    def mul_function(self, f: CoeffLike) -> "DiffOp":
        """Left multiplication by a function of x."""
        f = _coerce(f)
        if f.is_zero():
            return DiffOp._trusted(self.var, {})
        return DiffOp._trusted(self.var, {j: f * v for j, v in self.coeffs.items()})

    def __mul__(self, other: "DiffOp") -> "DiffOp":
        return dop_mul(self, other)

    def __pow__(self, n: int) -> "DiffOp":
        return binary_power(self, n, DiffOp.one(self.var))

    def substitute_d(self, replacement: "DiffOp") -> "DiffOp":
        """Evaluate sum V_j(x) * R^j for an order-preserving replacement R
        of the derivative (used by the gauge normalizer)."""
        self._check_var(replacement)
        powers = _powers(replacement, self.order)
        return sum((powers[j].mul_function(c) for j, c in self.coeffs.items()),
                   DiffOp.zero(self.var))

    def translate(self, a: ScalarLike) -> "DiffOp":
        """L with x replaced by x + a; d is unchanged."""
        return DiffOp._trusted(self.var, {j: c.translate(a) for j, c in self.coeffs.items()})

    def __str__(self):
        # parser imports diffop, so a module-level import would be a cycle
        from .parser import print_operator

        return print_operator(self)

    def __repr__(self):
        return f"DiffOp({self.var!r}, {self!s})"


_new = object.__new__
_set_var = DiffOp.var.__set__
_set_coeffs = DiffOp.coeffs.__set__


# ---------------------------------------------------------------------------
# the Laurent Weyl algebra
# ---------------------------------------------------------------------------

class TOp(Record):
    """An element sum c * x^e * d^k of Q[x, x^-1]<d>, as a map
    {(k, e): c} with nonzero Fraction values that is never changed after
    construction (the constructor checks nothing)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        _set_terms(self, terms)

    @property
    def order(self) -> int:
        """The highest power of d; -1 for zero."""
        return max((k for k, _ in self.terms), default=-1)

    def is_function(self) -> bool:
        return not any(k for k, _ in self.terms)

    def __neg__(self) -> "TOp":
        return TOp({key: -c for key, c in self.terms.items()})

    def __add__(self, other: "TOp") -> "TOp":
        return TOp(add_terms(self.terms, other.terms))

    def __sub__(self, other: "TOp") -> "TOp":
        return self + (-other)

    def __mul__(self, other: "TOp") -> "TOp":
        out: dict = {}
        for (i, a), c1 in self.terms.items():
            for (j, b), c2 in other.terms.items():
                # x^a d^i o x^b d^j = sum_t w_t x^(a+b-t) d^(i+j-t) with
                # w_t = C(i, t) * b(b-1)...(b-t+1), zero once t > b >= 0;
                # the parser's atoms x and d carry the shared _ONE, which
                # needs no product
                c = c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2
                k, e = i + j, a + b
                w = 1
                for t in range(i + 1):
                    key = (k - t, e - t)
                    term = c * w if t else c
                    out[key] = out[key] + term if key in out else term
                    w = w * (i - t) // (t + 1) * (b - t)
                    if not w:
                        break
        return TOp({key: c for key, c in out.items() if c})

    def __pow__(self, n: int) -> "TOp":
        """self**n; n < 0 only for a single term c * x^e."""
        if len(self.terms) == 1:
            ((k, e), c), = self.terms.items()
            if not k:
                return TOp({(0, e * n): c ** n})
        return binary_power(self, n, _TOP_ONE)

    def diffop(self, var: str) -> DiffOp:
        """The same operator as a DiffOp.  Each coefficient sum c * x^e
        is numerator / x^m with m = max(0, -min e), which is already
        reduced: the numerator's constant term is the nonzero lowest one."""
        rows: dict[int, dict[int, Fraction]] = {}
        for (k, e), c in self.terms.items():
            if k in rows:
                rows[k][e] = c
            else:
                rows[k] = {e: c}
        coeffs = {}
        for k, row in rows.items():
            shift = min(min(row), 0)
            num = [_ZERO] * (max(row) - shift + 1)
            for e, c in row.items():
                num[e - shift] = c
            den = Poly.monomial(-shift) if shift else Poly.one()
            coeffs[k] = RatFunc._reduced(Poly._trusted(tuple(num)), den)
        return DiffOp._trusted(var, coeffs)


_set_terms = TOp.terms.__set__
_TOP_ONE = TOp({(0, 0): _ONE})


# ---------------------------------------------------------------------------
# products, brackets, ad powers
# ---------------------------------------------------------------------------

def leibniz_product(left: dict, right: dict, floor: Optional[int] = None,
                    first: int = 0) -> dict:
    """The coefficients of (sum_i a_i d^i) o (sum_j b_j d^j) in normal
    order, by d^i o b = sum_t C(i, t) b^(t) d^(i-t), cleaned by
    ``nonzero_terms``.  Exponents may be negative (pseudo-differential
    series); the binomial C(i, t) is then the generalized one.  A chain
    ends when the binomial reaches 0 (t > i >= 0), when b^(t) vanishes, or
    below the power ``floor`` when one is given.  Terms with t < ``first``
    are left out: with ``first=1`` the product drops the a_i b_j d^(i+j)
    that cancel in a commutator.  Coefficients need ``*``, ``+``,
    ``scale``, ``derivative`` and truth, as ``RatFunc`` has them."""
    out = {}
    for i, a in left.items():
        for j, b in right.items():
            k, c, t, deriv = i + j, 1, 0, b
            while floor is None or k >= floor:
                if t >= first:
                    term = a * deriv if c == 1 else a * deriv.scale(c)
                    out[k] = out[k] + term if k in out else term
                c = c * (i - t) // (t + 1)
                if not c or k == floor:
                    break
                t += 1
                k -= 1
                deriv = deriv.derivative()
                if not deriv:
                    break
    return nonzero_terms(out)


def leibniz_divide(rem: dict, div: dict, floor: Optional[int] = None,
                   left: bool = False) -> tuple[dict, dict]:
    """Long division of coefficient maps: (quotient, remainder) with
    rem = quotient o div + remainder, or div o quotient + remainder when
    ``left``.  Each step cancels the remainder's leading term with one
    quotient monomial and subtracts that monomial times ``div``, by
    ``leibniz_product``.  With n the top power of ``div``, quotient powers
    stay >= 0, so the remainder ends below power n.  A ``floor`` makes the
    maps series: products are cut below power ``floor``, and the quotient
    runs down to power floor - n.  The coefficients are ``RatFunc``
    values: ``DiffOp`` and ``bounded.PDO`` divide here."""
    n = max(div)
    lead = div[n]
    unit = lead.is_one()
    low = n if floor is None else floor
    quo = {}
    while rem and max(rem) >= low:
        k = max(rem)
        c = rem[k] if unit else rem[k] / lead
        quo[k - n] = c
        step = {k - n: -c}
        rem = add_terms(rem, leibniz_product(div, step, floor) if left
                        else leibniz_product(step, div, floor))
    return quo, rem


def dop_mul(L: DiffOp, M: DiffOp) -> DiffOp:
    """Normal-ordered product L o M via the Leibniz rule."""
    L._check_var(M)
    return DiffOp._trusted(L.var, leibniz_product(L.coeffs, M.coeffs))


def commutator(L: DiffOp, M: DiffOp) -> DiffOp:
    """[L, M] = LM - ML, without the t = 0 Leibniz terms, which cancel."""
    LM = DiffOp._trusted(L.var, leibniz_product(L.coeffs, M.coeffs, first=1))
    return LM - DiffOp._trusted(M.var, leibniz_product(M.coeffs, L.coeffs, first=1))


def ad_condition_min_m(L: DiffOp, theta: Poly,
                       m_max: int) -> Optional[tuple[int, DiffOp]]:
    """(m, ad_L^m(theta)) for the minimal m <= m_max with
    ad_L^(m+1)(theta) = 0 and ad_L^m(theta) != 0, or None when no such m
    exists within the budget.  It takes m + 1 brackets, and the chain's
    end ad_L^m(theta), which commutes with L, is returned so that no
    caller brackets again.

    For a bounded L = f(d) + V (deg f >= 1, every coefficient of V in
    O(1/x), as ``bounded.split_constant_part`` returns it) the only
    candidate is m = deg theta, so m_max = deg theta decides.  Filter
    operators by their x-degree at infinity.  [f(d), .] lowers it by
    exactly one while it is >= 1, and [V, .] by at least two, so
    ad_L^k(theta) has leading part theta^(k)(x) f'(d)^k != 0 for
    k <= deg theta, and ad_L^(deg theta)(theta) is c f'(d)^(deg theta) plus
    a part that decays.  Its bracket with L decays too.  On a nonzero
    operator of x-degree -a < 0 with leading part x^-a C(d), the bracket
    with L has leading term -a x^(-a-1) f'(d) C(d) != 0, so a chain that
    goes past deg theta never ends.  On an Airy operator the chain may
    end elsewhere, so the budget stays the caller's."""
    current = DiffOp.from_function(theta, L.var)
    for m in range(m_max + 1):
        nxt = commutator(L, current)
        if nxt.is_zero():
            return (m, current) if not current.is_zero() else None
        current = nxt
    return None


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _divide(L: DiffOp, P: DiffOp, side: str) -> tuple[DiffOp, DiffOp]:
    """``leibniz_divide`` on the coefficients of L and P (see
    ``right_divide`` and ``left_divide``)."""
    L._check_var(P)
    if P.is_zero():
        raise DivisionByZeroOperator(f"{side} division by the zero operator")
    q, r = leibniz_divide(L.coeffs, P.coeffs, left=side == "left")
    return DiffOp._trusted(L.var, q), DiffOp._trusted(L.var, r)


def right_divide(L: DiffOp, P: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Quotient/remainder with the divisor on the right: L = Q o P + R,
    order(R) < order(P).  Division by an order-0 operator is multiplication
    by its inverse (R = 0)."""
    return _divide(L, P, "right")


def left_divide(L: DiffOp, P: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Quotient/remainder with the divisor on the left: L = P o Q + R."""
    return _divide(L, P, "left")


# ---------------------------------------------------------------------------
# gauge normalization
# ---------------------------------------------------------------------------

def gauge_normalize(L: DiffOp) -> tuple[DiffOp, RatFunc]:
    """Kill the subleading coefficient of a monic operator by the gauge
    with exponent derivative g' = -V_{N-1}/N.

    The conjugation acts on generators as d -> d + g', leaving x fixed;
    the returned certificate is g'.  It needs g' alone, so the gauge
    function exp(g) may be any function with a rational logarithmic
    derivative, such as a power of a polynomial.  Raises NotMonic when
    the leading coefficient is not 1, and NonRationalGauge only when the
    subleading term survives the substitution.
    """
    if L.is_zero() or not L.is_monic():
        raise NotMonic("gauge normalization requires a monic operator")
    n = L.order
    sub = L.coeff(n - 1)
    if sub.is_zero():
        return L, RatFunc.zero()
    gprime = sub.scale(Fraction(-1, n))
    replacement = DiffOp(L.var, {1: RatFunc.one(), 0: gprime})
    out = L.substitute_d(replacement)
    if not out.coeff(n - 1).is_zero():
        raise NonRationalGauge("gauge failed to cancel the subleading term")
    return out, gprime


# ---------------------------------------------------------------------------
# small helpers shared by higher modules
# ---------------------------------------------------------------------------

def euler_operator(var: str = "x") -> DiffOp:
    """The Euler operator x d."""
    return DiffOp(var, {1: RatFunc.x()})


def _powers(P: DiffOp, n: int) -> list[DiffOp]:
    """[1, P, P^2, ..., P^n], each power one product from the last."""
    return list(accumulate([P] * n, dop_mul, initial=DiffOp.one(P.var)))


def anti_homomorphism(P: DiffOp, x_image: DiffOp, d_image: DiffOp) -> DiffOp:
    """The anti-homomorphism of the Weyl algebra fixed by x -> x_image and
    d -> d_image (products reverse), on an operator with polynomial
    coefficients: x^a d^j goes to d_image^j x_image^a.  It is well defined
    when [x_image, d_image] = 1.  Each power of an image is built once."""
    if not P.has_polynomial_coeffs():
        raise NotInDomain("anti-homomorphism defined on polynomial coefficients")
    zero = DiffOp.zero(x_image.var)
    xs = _powers(x_image, max((c.num.degree for c in P.coeffs.values()), default=0))
    ds = _powers(d_image, P.order)
    image = zero
    for j, c in P.coeffs.items():
        c_image = sum((xs[a].scale(v) for a, v in enumerate(c.num.coeffs)), zero)
        image = image + dop_mul(ds[j], c_image)
    return image
