"""Constructors for the three basic operator families and the Darboux engine.

The families:

* generalized Airy      A = d^p + sum a_j d^j - x          (1 <= j <= p-2)
* generalized Bessel    B = x^-p (xd - b_1) ... (xd - b_p)
* constant coefficient  C = d^p + sum a_j d^j

A Darboux transformation factors a polynomial in a base operator as
h(L) = Q P and exchanges the factors: the transformed operator is P Q.
The caller supplies P; the engine completes Q by right division, checks
Q P = base exactly and multiplies out P Q once.  When h is a pure power
of the base the transformation is called monomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .errors import BadIndex, NotAFactor
from .poly import Poly, ScalarLike
from .rational import RatFunc
from .diffop import DiffOp, dop_mul, right_divide
from .record import Record


class BesselSpec(Record):
    """Order p and the p roots (beta_1 .. beta_p) of the Bessel symbol.
    Any weight sum is accepted; ``classify`` records whether it is
    p(p-1)/2 as ``bessel_weight_sum_normalized``."""

    __slots__ = ("betas",)
    betas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(Fraction(b) for b in self.betas))

    @property
    def p(self) -> int:
        return len(self.betas)


def make_airy(p: int, a: Mapping[int, ScalarLike] | None = None) -> DiffOp:
    """d^p + sum_{j=1}^{p-2} a_j d^j - x."""
    if p < 2:
        raise BadIndex("Airy order must be >= 2")
    return make_constcoeff(p, a) - DiffOp.x()


def make_constcoeff(p: int, a: Mapping[int, ScalarLike] | None = None) -> DiffOp:
    """d^p + sum_{j=1}^{p-2} a_j d^j."""
    if p < 1:
        raise BadIndex("order must be >= 1")
    a = a or {}
    coeffs: dict[int, RatFunc] = {p: RatFunc.one()}
    for j, c in a.items():
        if not 1 <= j <= p - 2:
            raise BadIndex(f"parameter index {j} outside [1, {p - 2}]")
        if Fraction(c) != 0:
            coeffs[j] = RatFunc.const(c)
    return DiffOp("x", coeffs)


def make_bessel(spec: BesselSpec) -> DiffOp:
    """x^-p (xd - beta_1) ... (xd - beta_p), fully expanded and normal
    ordered.  The factors commute, so the order of the betas is irrelevant."""
    prod = DiffOp.one()
    for b in spec.betas:
        prod = dop_mul(prod, DiffOp("x", {1: RatFunc.x(), 0: -b}))
    return prod.mul_function(RatFunc.x_power(-spec.p))


def bessel_integrality(spec: BesselSpec) -> bool:
    """True iff some difference beta_i - beta_j (i != j) lies in p*Z."""
    p = spec.p
    bs = spec.betas
    for i in range(p):
        for j in range(i + 1, p):
            diff = bs[i] - bs[j]
            if diff.denominator == 1 and diff.numerator % p == 0:
                return True
    return False


# ---------------------------------------------------------------------------
# Bessel symbol and recovery
# ---------------------------------------------------------------------------

def falling_factorial(j: int) -> Poly:
    """u (u-1) ... (u-j+1); the symbol of x^j d^j in the Euler variable."""
    out = Poly.one()
    for i in range(j):
        out = out * Poly([-i, 1])
    return out


def is_euler_homogeneous(L: DiffOp) -> bool:
    """True iff [xd, L] = -N L with N = order(L).  Coefficientwise this is
    x c_j' = (j - N) c_j, whose rational solutions are the monomials
    c_j = w_j x^(j - N): a scan of the coefficients, no bracket."""
    N = L.order
    return not L.is_zero() and all(
        c.is_laurent_polynomial() and [e for e, _ in c.laurent_terms()] == [j - N]
        for j, c in L.coeffs.items())


def bessel_symbol(L: DiffOp) -> Optional[Poly]:
    """For an Euler-homogeneous monic operator, the polynomial b with
    x^N L = b(xd); None when L is not of Bessel shape.  Each term
    w_j x^(j - N) d^j contributes w_j x^j d^j = w_j ff_j(xd)."""
    if not L.is_monic() or not is_euler_homogeneous(L):
        return None
    sym = Poly.zero()
    for j, c in L.coeffs.items():
        (_, w), = c.laurent_terms()
        sym = sym + falling_factorial(j).scale(w)
    return sym


def bessel_recover(L: DiffOp) -> Optional[BesselSpec]:
    """Recover the betas of a Bessel operator as the rational roots of its
    symbol; None when L is not Bessel-shaped or the roots are irrational."""
    sym = bessel_symbol(L)
    if sym is None:
        return None
    roots = sym.rational_roots()
    total = sum(m for _, m in roots)
    if total != sym.degree:
        return None
    betas: list[Fraction] = []
    for root, mult in roots:
        betas.extend([root] * mult)
    return BesselSpec(tuple(sorted(betas)))


# ---------------------------------------------------------------------------
# the shape test for Darboux P factors
# ---------------------------------------------------------------------------

def _is_function_of_xN(q: RatFunc, N: int) -> bool:
    """Exact test for q(x) in Q(x^N): every exponent of the canonical
    numerator and denominator must be divisible by N.  The canonical form
    is gcd-reduced with a monic denominator, and A(x^N), B(x^N) stay
    coprime when A and B are, so a function of x^N keeps that shape."""
    return all(e % N == 0 for p in (q.num, q.den) for e, c in enumerate(p.coeffs) if c)


def p_form_check(P: DiffOp, N: int) -> bool:
    """True iff P = x^-n sum_k p_k(x^N) D^k with D = xd, p_k rational and
    p_n = 1, where n = order(P).

    The rewrite is a change of basis from d^k to Euler powers: with
    h_k(x) = sum_j V_j(x) x^-j s(j, k) (signed Stirling numbers), the test
    is x^n h_n = 1 and x^n h_k a rational function of x^N for every k."""
    if P.is_zero():
        return False
    n = P.order
    h: dict[int, RatFunc] = {}
    for j, v in P.coeffs.items():
        g = v * RatFunc.x_power(-j)
        ff = falling_factorial(j)
        for k, s in enumerate(ff.coeffs):
            if s != 0:
                h[k] = h.get(k, RatFunc.zero()) + g.scale(s)
    xn = RatFunc.x_power(n)
    top = xn * h.get(n, RatFunc.zero())
    if not top.is_one():
        return False
    return all(_is_function_of_xN(xn * q, N) for k, q in h.items() if k != n)


# ---------------------------------------------------------------------------
# the Darboux engine
# ---------------------------------------------------------------------------

def darboux(base: DiffOp, P: DiffOp) -> dict[str, DiffOp]:
    """Factor base = Q P by right division and exchange to P Q: the dict
    ``{"P", "Q", "base", "transformed"}`` that ``bispec darboux`` writes.

    Raises NotAFactor when the division leaves a remainder, or when Q P,
    multiplied out again, is not the base: that check guards
    ``right_divide`` itself.  The shape of P is not tested here;
    ``p_form_check`` tests it.  Two steps compose through the same call:
    when B = Q1 P1 and P1 Q1 = Q2 P2, ``darboux(B B, P2 P1)`` returns the
    pair (P2 P1, Q1 Q2).
    """
    if base.is_zero() or P.is_zero():
        raise NotAFactor("base and P must be nonzero")
    Q, R = right_divide(base, P)
    if not R.is_zero():
        raise NotAFactor("P does not divide the base operator on the right")
    if dop_mul(Q, P) != base:
        raise NotAFactor("Q*P does not reproduce the base operator")
    return {"P": P, "Q": Q, "base": base, "transformed": dop_mul(P, Q)}

