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

The toolkit returns what ``bispec weights`` writes: ``choose_weights``
the pair (rho, sigma), ``associated_polynomial`` the dict
{(x exponent, y exponent): scalar} that ``associated_text`` writes as f,
and ``normal_form_test`` the dict of the match.

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

from .errors import NotAiryShape, NotHomogeneous, NotIncreasing, NotMonic, ZeroOperand
from .poly import Poly, decomposition_roots, monomial_text, signed_sum
from .diffop import DiffOp
from .bounded import split_constant_part


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


def choose_weights(L: DiffOp) -> tuple[int, int]:
    """The weights (rho, sigma) of the supporting line of the Newton
    polygon through (0, N).

    Picks the point (k, j), k > 0, maximizing the slope (j - N)/k; all of
    E(L) then lies on or below the line, and N sigma = k rho + j sigma has
    the coprime positive solution rho = (N - j)/g, sigma = k/g.  Raises
    NotMonic for an operator that is not monic, NotIncreasing when no
    coefficient grows at infinity."""
    N = L.order
    k, j = max(_growing_points(L), key=lambda kj: (Fraction(kj[1] - N, kj[0]), kj[0]))
    g = gcd(N - j, k)
    return (N - j) // g, k // g


def weighted_order(L: DiffOp, w: tuple[int, int]) -> int:
    """Max term weight rho*(ord V_j) + sigma*j."""
    if L.is_zero():
        raise ZeroOperand("weighted order of the zero operator")
    rho, sigma = w
    return max(rho * c.infinity_order() + sigma * j for j, c in L.coeffs.items())


# ---------------------------------------------------------------------------
# associated polynomials
# ---------------------------------------------------------------------------

def associated_polynomial(L: DiffOp, w: tuple[int, int]) -> dict[tuple[int, int], Fraction]:
    """The sum of the leading monomials of the maximal-weight terms of L,
    as the sparse element {(x exponent, y exponent): scalar} of
    Q[x, x^-1, y], every scalar nonzero."""
    v = weighted_order(L, w)
    rho, sigma = w
    f = {}
    for j, c in L.coeffs.items():
        m = c.infinity_order()
        if rho * m + sigma * j == v:
            f[(m, j)] = c.infinity_leading()
    return f


def associated_text(f: dict[tuple[int, int], Fraction]) -> str:
    """f written by degree in y, then in x, as in "y^3 - x"."""
    return signed_sum([(c, monomial_text(c, a, b, "x", "y")) for (a, b), c in
                       sorted(f.items(), key=lambda t: (-t[0][1], -t[0][0]))])


# ---------------------------------------------------------------------------
# normal-form classification
# ---------------------------------------------------------------------------

# the answer when f matches no shape; a match sets some of these keys,
# which keep this order
_NO_MATCH = {"case": None, "n": 0, "k": 0, "m": 0, "mu": None, "lam": None, "yrx": None,
             "nilpotency_excluded": False, "unresolved_over_Q": False}


def normal_form_test(f: dict[tuple[int, int], Fraction], w: tuple[int, int]) -> dict:
    """Match a homogeneous f, as ``associated_polynomial`` returns it,
    against the admissible leading-term shapes.

    Returns the keys that ``bispec weights`` writes after rho, sigma and
    f.  ``case`` is one of "b", "c", "d" or None; (n, k, m, mu) describe
    a match f = y^n (y^m + mu x)^k (case c; case b is the same with x
    and y swapped, case d has two linear factors with roots lam, mu).
    ``yrx`` is (r, k, lam) when f = y^n (y^r - lam x)^k with lam != 0;
    the bispectral normal form is the sub-case n = 0 (lam rescalable to
    1).  ``nilpotency_excluded`` flags y^n (y^r - lam x)^k with n >= 1,
    k >= 1: such leading terms cannot come from an operator acting
    nilpotently.  ``unresolved_over_Q`` flags a case (d) form whose
    roots are irrational.  Raises ZeroOperand for f = 0, NotHomogeneous
    when the terms of f have more than one weight, and ValueError for a
    negative y exponent.

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
    and counts its distinct factors when a root is irrational."""
    if not f:
        raise ZeroOperand("normal form of the zero polynomial")
    if any(b < 0 for _, b in f):
        raise ValueError("negative y exponent")
    rho, sigma = w
    weights = {rho * a + sigma * b for a, b in f}
    if len(weights) > 1:
        raise NotHomogeneous(f"mixed weights {sorted(weights)}")
    # the exponent pairs lie on a line with direction (sigma, -rho), one
    # term per x exponent
    a0, b0 = min(f)
    coeffs: dict[int, Fraction] = {}
    for (a, _), c in f.items():
        t, rem = divmod(a - a0, sigma)
        if rem:  # only for weights that are not coprime
            raise NotHomogeneous("terms do not lie on a single weight line")
        coeffs[t] = c
    p = Poly([coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)])
    T = p.degree
    sqf = p.squarefree_decomposition()

    if [(g.degree, i) for g, i in sqf] == [(1, T)]:
        g0 = sqf[0][0].coeff(0)  # p = c (1 + w/g0)^T
        if rho == 1 < sigma and a0 >= 0 and b0 == T:
            return dict(_NO_MATCH, case="b", n=a0, k=T, m=sigma, mu=g0)
        # case (c), and the (y^r - lam x)^k form for any rho > sigma = 1
        n = b0 - rho * T
        if sigma == 1 < rho and a0 == 0 and n >= 0:
            return dict(_NO_MATCH, case="c", n=n, k=T, m=rho, mu=1 / g0,
                        yrx=(rho, T, -1 / g0), nilpotency_excluded=n >= 1)

    if rho == 1 and sigma == 1 and a0 == 0:
        roots = decomposition_roots(sqf)
        if sum(mult for _, mult in roots) == T:
            factors = [(-1 / r, mult) for r, mult in roots]
            if b0 > T:
                factors.insert(0, (Fraction(0), b0 - T))
            if 1 <= len(factors) <= 2:
                (lam, n), (mu, k) = (factors + [(None, 0)])[:2]
                # lam = 0 only for the y-factor, and every root's mu != 0
                yrx = (1, k, -mu) if lam == 0 and k else None
                return dict(_NO_MATCH, case="d", n=n, lam=lam, k=k, mu=mu, yrx=yrx,
                            nilpotency_excluded=yrx is not None)
        elif (b0 > T) + sum(g.degree for g, _ in sqf) <= 2:  # an irrational root
            return dict(_NO_MATCH, case="d", unresolved_over_Q=True)

    return dict(_NO_MATCH)


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
