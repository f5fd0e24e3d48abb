"""Filtration toolkit: weight selection on the Newton polygon, weighted
orders, associated polynomials and normal-form tests.

The exponent pairs of L are the points (m, j), m the leading exponent at
infinity of the coefficient of d^j; their convex hull is the Newton
polygon.  The weight of a term V(x) d^i is rho * (leading exponent of V
at infinity) + sigma * i.  The associated polynomial collects the leading
monomials of the maximal-weight terms into a sparse element of
Q[x, x^-1, y]; because all its exponent pairs lie on one line, every
structural question reduces to a univariate polynomial p(w) in the line
parameter w = x^sigma y^-rho times a monomial prefactor, and the
normal-form shapes become statements about the root structure of p.
``normal_form_test`` reads every case from one Yun square-free
decomposition of p: cases (b) and (c) hold when it is one linear factor
w + 1/mu of multiplicity deg p, and case (d) reads its rational roots.

The generalized Airy form (y^N - lam x)^1 of a monic L of order N >= 2
needs none of this: it is the leading form exactly when the d^0
coefficient has order 1 at infinity and every d^j coefficient with
0 < j < N is bounded.  The line through (0, N) and (1, 0) has weights
(N, 1), and no (m, j) with 0 < j < N lies on it, since N m = N - j has
no integer solution; conversely those weights need each m_j <= (N - j)/N,
so m_j < 1.  ``principal_part`` reads lam = -lead(c_0) from one scan,
and ``classify`` decides the increasing branch by it alone: the
filtration serves ``bispec weights``, which names the leading form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

from .errors import NotAiryShape, NotHomogeneous, NotIncreasing, NotMonic, ZeroOperand
from .poly import Poly, decomposition_roots, monomial_text, signed_sum
from .diffop import DiffOp
from .bounded import split_constant_part
from .record import Record


class WeightPair(Record):
    """Coprime positive weights (rho, sigma) with the supporting point."""

    __slots__ = ("rho", "sigma", "support")
    rho: int
    sigma: int
    support: tuple[int, int]  # the point (k, j) on the line besides (0, N)

    def weight(self, x_exp: int, d_exp: int) -> int:
        return self.rho * x_exp + self.sigma * d_exp


def _growing_points(L: DiffOp) -> list[tuple[int, int]]:
    """The exponent pairs (k, j) of L with j < N and k > 0.  Raises
    NotMonic for an operator that is not monic, NotIncreasing when there
    is none."""
    if L.is_zero() or not L.is_monic():
        raise NotMonic("weight selection requires a monic operator")
    grow = [(k, j) for j, c in L.coeffs.items()
            if j < L.order and (k := c.infinity_order()) > 0]
    if not grow:
        raise NotIncreasing("all coefficients bounded at infinity")
    return grow


def choose_weights(L: DiffOp) -> WeightPair:
    """The supporting line of the Newton polygon through (0, N).

    Picks the point (k, j), k > 0, maximizing the slope (j - N)/k; all of
    E(L) then lies on or below the line, and N sigma = k rho + j sigma has
    the coprime positive solution rho = (N - j)/g, sigma = k/g.  Raises
    NotMonic for an operator that is not monic, NotIncreasing when no
    coefficient grows at infinity."""
    N = L.order
    k, j = max(_growing_points(L), key=lambda kj: (Fraction(kj[1] - N, kj[0]), kj[0]))
    g = gcd(N - j, k)
    return WeightPair(rho=(N - j) // g, sigma=k // g, support=(k, j))


def weighted_order(L: DiffOp, w: WeightPair) -> int:
    """Max term weight rho*(ord V_j) + sigma*j."""
    if L.is_zero():
        raise ZeroOperand("weighted order of the zero operator")
    return max(w.weight(c.infinity_order(), j) for j, c in L.coeffs.items())


# ---------------------------------------------------------------------------
# associated polynomials
# ---------------------------------------------------------------------------

class BiHomPoly(Record):
    """Sparse element of Q[x, x^-1, y]: (x exponent, y exponent) -> scalar."""

    __slots__ = ("terms",)
    _defaults = {"terms": {}}  # never mutated: __post_init__ builds a new dict
    terms: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        clean = {
            (int(a), int(b)): Fraction(c)
            for (a, b), c in self.terms.items()
            if Fraction(c) != 0
        }
        if any(b < 0 for (_, b) in clean):
            raise ValueError("negative y exponent")
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def weight(self, w: WeightPair) -> int:
        if self.is_zero():
            raise ZeroOperand("weight of the zero polynomial")
        weights = {w.weight(a, b) for (a, b) in self.terms}
        if len(weights) > 1:
            raise NotHomogeneous(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def __str__(self):
        return signed_sum([(c, monomial_text(c, a, b, "x", "y")) for (a, b), c in
                           sorted(self.terms.items(), key=lambda t: (-t[0][1], -t[0][0]))])


def associated_polynomial(L: DiffOp, w: WeightPair) -> BiHomPoly:
    """Sum of the leading monomials of the maximal-weight terms of L."""
    v = weighted_order(L, w)
    terms: dict[tuple[int, int], Fraction] = {}
    for j, c in L.coeffs.items():
        m = c.infinity_order()
        if w.weight(m, j) == v:
            terms[(m, j)] = c.infinity_leading()
    return BiHomPoly(terms)


# ---------------------------------------------------------------------------
# normal-form classification
# ---------------------------------------------------------------------------

class NormalFormReport(Record):
    """Outcome of matching f against the admissible leading-term shapes.

    ``case`` is one of "b", "c", "d" or None; (n, k, m, mu) describe a match
    f = y^n (y^m + mu x)^k (case c; case b is the same with x and y swapped,
    case d has two linear factors with roots lam, mu).  ``yrx`` carries the
    (y^r - lam x)^k data when f = y^n (y^r - lam x)^k with lam != 0; the
    bispectral normal form is the sub-case n = 0 (lam rescalable to 1).
    ``nilpotency_excluded`` flags
    y^n (y^r - lam x)^k with n >= 1, k >= 1: such leading terms cannot come
    from an operator acting nilpotently."""

    __slots__ = ("case", "n", "k", "m", "mu", "lam", "yrx",
                 "nilpotency_excluded", "unresolved_over_Q")
    _defaults = {"n": 0, "k": 0, "m": 0, "mu": None, "lam": None, "yrx": None,
                 "nilpotency_excluded": False, "unresolved_over_Q": False}
    case: Optional[str]
    n: int
    k: int
    m: int
    mu: Optional[Fraction]
    lam: Optional[Fraction]
    yrx: Optional[tuple[int, int, Fraction]]  # (r, k, lam)
    nilpotency_excluded: bool
    unresolved_over_Q: bool


def normal_form_test(f: BiHomPoly, w: WeightPair) -> NormalFormReport:
    """Classify a homogeneous f against the admissible shapes.

    Shapes tried, keyed by the weight comparison exactly as in the case
    split (scalars extracted over Q, the x-scalar recorded):
      (b) sigma > rho = 1:  f = x^n (x^m + mu y)^k,
      (c) rho > sigma = 1:  f = y^n (y^m + mu x)^k,
      (d) rho = sigma = 1:  f = (y + lam x)^n (y + mu x)^k.
    Every case reads one Yun square-free decomposition [(g_i, i)] of the
    line polynomial p, where f = x^a0 y^b0 p(w), w = x^sigma y^-rho,
    anchored at the minimal x exponent so that p(0) != 0.
    (c) is p = c (1 + mu w)^k, k >= 1, with a0 = 0, and that holds iff
    the decomposition is [(w + 1/mu, deg p)]: the monic p is
    prod g_i^i, which is (w + 1/mu)^k exactly when there is one g_i, of
    degree 1 and with i = deg p.  (b) is its mirror: with b0 = deg p,
    reversing p gives f's polynomial in w' = x^-sigma y, and the reverse
    of c (1 + mu w)^k is c mu^k (1 + w'/mu)^k, so (b) holds with
    mu -> 1/mu and n = a0.  (d) reads the rational roots of the same
    decomposition, plus a (y + 0 x)-factor of multiplicity b0 - deg p,
    and counts its distinct factors when a root is irrational.
    Also reports the (y^r - lam x)^k data and the nilpotency exclusion for
    the y^n (y^r - lam x)^k, n >= 1, k >= 1 pattern."""
    if f.is_zero():
        raise ZeroOperand("normal form of the zero polynomial")
    f.weight(w)  # raises NotHomogeneous
    # the exponent pairs lie on a line with direction (sigma, -rho), one
    # term per x exponent
    a0, b0 = min(f.terms)
    coeffs: dict[int, Fraction] = {}
    for (a, _), c in f.terms.items():
        t, rem = divmod(a - a0, w.sigma)
        if rem:  # only for weights that are not coprime
            raise NotHomogeneous("terms do not lie on a single weight line")
        coeffs[t] = c
    p = Poly([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])
    T = p.degree
    sqf = p.squarefree_decomposition()

    if [(g.degree, i) for g, i in sqf] == [(1, T)]:
        g0 = sqf[0][0].coeff(0)  # p = c (1 + w/g0)^T
        if w.rho == 1 < w.sigma and a0 >= 0 and b0 == T:
            return NormalFormReport(case="b", n=a0, k=T, m=w.sigma, mu=g0)
        # case (c), and the (y^r - lam x)^k form for any rho > sigma = 1
        n = b0 - w.rho * T
        if w.sigma == 1 < w.rho and a0 == 0 and n >= 0:
            return NormalFormReport(case="c", n=n, k=T, m=w.rho, mu=1 / g0,
                                    yrx=(w.rho, T, -1 / g0), nilpotency_excluded=n >= 1)

    if w.rho == 1 and w.sigma == 1 and a0 == 0:
        roots = decomposition_roots(sqf)
        if sum(mult for _, mult in roots) == T:
            factors = [(-1 / r, mult) for r, mult in roots]
            if b0 > T:
                factors.insert(0, (Fraction(0), b0 - T))
            if 1 <= len(factors) <= 2:
                (lam, n), (mu, k) = (factors + [(None, 0)])[:2]
                # lam = 0 only for the y-factor, and every root's mu != 0
                yrx = (1, k, -mu) if lam == 0 and k else None
                return NormalFormReport(case="d", n=n, lam=lam, k=k, mu=mu, yrx=yrx,
                                        nilpotency_excluded=yrx is not None)
        elif (b0 > T) + sum(g.degree for g, _ in sqf) <= 2:  # an irrational root
            return NormalFormReport(case="d", unresolved_over_Q=True)

    return NormalFormReport(case=None)


# ---------------------------------------------------------------------------
# principal part
# ---------------------------------------------------------------------------

def principal_part(L: DiffOp) -> tuple[DiffOp, DiffOp]:
    """Split an increasing-coefficient operator into its generalized Airy
    part and the decaying remainder.

    Requires the pipeline choose_weights -> associated_polynomial ->
    normal_form_test to land on (y^N - lam x)^1.  It does exactly when
    N >= 2, the d^0 coefficient c_0 has order 1 at infinity and every c_j
    with 0 < j < N is bounded, so one scan of the orders decides it and
    lam = -lead(c_0).  Proof: the line through (0, N) and (1, 0) has
    weights (N, 1), and no (m, j) with 0 < j < N lies on it, since
    N m = N - j has no integer solution; so f = y^N + lead(c_0) x.
    Conversely yrx = (N, 1, lam) forces the weights (N, 1), which
    choose_weights picks only at the support (1, 0); every other point
    then lies below the line, m_j <= (N - j)/N < 1.  So the pipeline is
    never run: a rejection names the growing points instead of f.

    Then L + lam x has bounded coefficients, and ``split_constant_part``
    writes it as f(d) + V with every coefficient of V of order O(x^-1);
    the Airy part is A = f(d) - lam x."""
    grow = sorted(_growing_points(L))  # raises NotMonic, NotIncreasing
    if L.order < 2:
        raise NotAiryShape("Airy order must be >= 2")
    if grow != [(1, 0)]:
        raise NotAiryShape(f"growing points {grow} are not [(1, 0)]")
    lam_x = DiffOp.x(L.var).scale(-L.coeffs[0].infinity_leading())
    const, V = split_constant_part(L + lam_x)
    return DiffOp(L.var, dict(enumerate(const.coeffs))) - lam_x, V
