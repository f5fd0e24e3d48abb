"""Bounded-coefficient machinery: wave operators for L K = K f(d),
conjugation of theta through K, the anti-isomorphism b, reconstruction of
the dual operator Lambda, the polynomial-identity obstruction chain,
bounded centralizer search, and Fuchs' criterion at the finite poles.

Pseudo-differential series are stored as maps from the power k of d to
exact rational-function coefficients, as differential operators are, so
the wave operator's a_j sits at key -j.  The truncation J means the
powers down to d^-J are known exactly (None for finite exact sums).  With
exact coefficients every product above the truncation is computed
exactly via
    d^k o a(x) = sum_t C(k, t) a^(t)(x) d^(k-t).
The inverse K^-1 is the quotient of 1 by K in the same long division that
divides operators (``diffop.leibniz_divide``), cut at the truncation; the
rank-equals-order test writes ad^m(theta) as a polynomial in L by repeated
right division by L, each remainder a constant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd
from typing import Optional

from .errors import (
    NormalizationFailed,
    NotCommuting,
    NotInDomain,
    NotMonic,
    NotRankOrderCase,
    ReconstructionFailed,
    TruncationTooShort,
    UnboundedCoefficient,
    ZeroOperand,
)
from .poly import Poly, min_trunc, poly_lcm
from .rational import (
    LaurentTail,
    RatFunc,
    TruncatedSeries,
    rat_antiderivative,
    rational_reconstruct,
)
from .diffop import (
    DiffOp,
    _coerce,
    commutator,
    leibniz_divide,
    leibniz_product,
)
from .linalg import nullspace


# ---------------------------------------------------------------------------
# PDO: truncated pseudo-differential series with exact coefficients
# ---------------------------------------------------------------------------

class PDO(TruncatedSeries):
    """sum_k a_k(x) d^k over k <= k0, exact for k >= -trunc (None = finite
    sum), keyed by the power k as ``DiffOp`` is.

    ``PDO(terms, trunc)`` coerces every coefficient to a ``RatFunc`` as
    ``DiffOp`` does (NotInDomain for a value that is not a rational
    function, such as a ``LaurentTail``) and drops the zero ones.
    ``PDO._trusted(terms, trunc)`` wraps a dict with int keys at least
    ``-trunc`` and nonzero ``RatFunc`` coefficients, unchecked.  The
    constructors, negation, sums and ``restrict`` are those of
    ``TruncatedSeries``.

    A series carries no variable tag: K and Theta are series in x, and
    only the dual operator Lambda, a ``DiffOp``, lives in z."""

    __slots__ = ("terms", "trunc")
    _coerce = staticmethod(_coerce)
    _zero = RatFunc.zero()

    # -- constructors

    @staticmethod
    def identity() -> "PDO":
        return PDO._trusted({0: RatFunc.one()}, None)

    # -- arithmetic

    def __mul__(self, other: "PDO") -> "PDO":
        """Product, exact through the combined truncation: the shared
        Leibniz kernel, whose chains for d^k, k < 0, end at the
        truncation or when the derivatives of b die out."""
        trunc = self._product_trunc(other)
        if (trunc is None and any(k < 0 for k in self.terms)
                and not all(b.is_polynomial() for b in other.terms.values())):
            raise NotInDomain("untruncated product with infinite expansion")
        return PDO._trusted(leibniz_product(self.terms, other.terms,
                                            None if trunc is None else -trunc), trunc)

    def inverse(self, J: int) -> "PDO":
        """(1 + T)^-1 down to d^-J for a series with leading term 1 d^0:
        the quotient of 1 by the series, by long division cut at d^-J."""
        if self.coeff(0) != RatFunc.one() or max(self.terms) > 0:
            raise NotInDomain("inverse requires 1 + (strictly decaying part)")
        trunc = min_trunc(self.trunc, J)
        return PDO._trusted(leibniz_divide({0: RatFunc.one()}, self.terms, -trunc)[0], trunc)


# ---------------------------------------------------------------------------
# splitting off the constant part
# ---------------------------------------------------------------------------

def split_constant_part(L: DiffOp) -> tuple[Poly, DiffOp]:
    """L = f(d) + V with f collecting the constants at infinity and every
    coefficient of V of order O(x^-1).  Raises UnboundedCoefficient when a
    coefficient grows (the Airy branch owns those inputs)."""
    fcoeffs: dict[int, Fraction] = {}
    vcoeffs: dict[int, RatFunc] = {}
    for j, c in L.coeffs.items():
        order = c.infinity_order()
        if order > 0:
            raise UnboundedCoefficient(f"coefficient of d^{j} grows at infinity")
        const = c.infinity_leading() if order == 0 else Fraction(0)
        if const != 0:
            fcoeffs[j] = const
        rest = c - RatFunc.const(const)
        if not rest.is_zero():
            vcoeffs[j] = rest
    top = max(fcoeffs) if fcoeffs else 0
    f = Poly([fcoeffs.get(k, Fraction(0)) for k in range(top + 1)])
    return f, DiffOp(L.var, vcoeffs)


# ---------------------------------------------------------------------------
# Fuchs' criterion at the finite poles
# ---------------------------------------------------------------------------

def fuchs_violation(L: DiffOp) -> Optional[dict]:
    """The first finite pole at which the monic L is not regular singular,
    or None when every finite pole is.

    Fuchs' criterion: the coefficient of d^(N-j) has a pole of order at
    most j at every point.  The pole orders are the multiplicities of the
    square-free decomposition of each reduced denominator, so poles at
    irrational or complex points need no algebraic numbers.  Coefficients
    are scanned from d^(N-1) down, and within one coefficient the factor
    of highest multiplicity is named."""
    if L.is_zero() or not L.is_monic():
        raise NotMonic("Fuchs' criterion needs a monic operator")
    N = L.order
    for k in sorted(L.coeffs, reverse=True)[1:]:
        bound = N - k
        excess = [(mult, g) for g, mult in L.coeffs[k].den.squarefree_decomposition()
                  if mult > bound]
        if excess:
            mult, g = excess[-1]
            return {"factor": str(g), "coefficient": f"d^{k}",
                    "pole_order": mult, "fuchs_bound": bound}
    return None


# ---------------------------------------------------------------------------
# the wave operator
# ---------------------------------------------------------------------------

def wave_defect(L: DiffOp, f: Poly, K: PDO) -> PDO:
    """L K - K f(d), treating K as the exact finite sum of its terms."""
    Kx = PDO._trusted(K.terms, None)
    return PDO._trusted(L.coeffs, None) * Kx - Kx * PDO(dict(enumerate(f.coeffs)))


def wave_residual_zero(L: DiffOp, f: Poly, K: PDO) -> bool:
    """Exactness certificate for a wave operator K truncated at J =
    K.trunc: the coefficients of L K - K f(d) vanish at every power of d
    untouched by the unknown a_j, j > J (that is, down to
    d^(deg f - J - 1))."""
    low = f.degree - K.trunc - 1
    return all(c.is_zero() for k, c in wave_defect(L, f, K).terms.items()
               if k >= low)


def wave_operator(L: DiffOp, f: Poly, J: int) -> PDO:
    """Solve L K = K f(d) for K = 1 + sum_{j=1}^J a_j(x) d^-j, returned
    truncated at J (so K.trunc == J and a_j is K.coeff(-j)).

    Each step reads the coefficient of d^(N-1-j) in the defect
    E = L K - K f(d) of the partial solution; the new a_j enters that slot
    only through N a_j', so one antiderivative determines it.  E is linear
    in K, so it is kept as the loop runs: a new term a_j d^-j adds its own
    defect, a product with one term.  Raises LogObstruction when the
    antiderivative has an x^-1 residue (rationality fails, so the input
    cannot satisfy the polynomial-conjugation lemma), ReconstructionFailed
    when the integral is not rational for a deeper reason, NotMonic when
    the leading coefficient of L is not 1, and NotInDomain when the
    d^(N-1) coefficient of L - f(d) is nonzero: that coefficient of E is
    the same for every K, so no K solves the equation."""
    N = L.order
    if N < 1:
        raise UnboundedCoefficient("wave operator needs order >= 1")
    if not L.is_monic():
        raise NotMonic("wave operator needs a monic operator")
    if f.degree != N or f.leading() != 1:
        raise ValueError("f must be monic of the operator's order")
    terms = {0: RatFunc.one()}
    E = wave_defect(L, f, PDO.identity())
    if subleading := E.coeff(N - 1):
        raise NotInDomain(f"the d^{N - 1} coefficient of L - f(d) is "
                          f"{subleading}; gauge-normalize L first")
    for j in range(1, J + 1):
        target = E.coeff(N - 1 - j)
        if target.is_zero():
            continue
        terms[-j] = a_j = rat_antiderivative(target.scale(Fraction(-1, N)))
        E = E + wave_defect(L, f, PDO._trusted({-j: a_j}, None))
    return PDO(terms, J)


# ---------------------------------------------------------------------------
# conjugating theta through K
# ---------------------------------------------------------------------------

def conjugate_theta(K: PDO, theta: Poly) -> PDO:
    """Theta = K^-1 theta(x) K through the truncation J = K.trunc of the
    wave operator K."""
    J = K.trunc
    if J is None or J < 1:
        raise TruncationTooShort("need truncation >= 1")
    # a function times a series multiplies each coefficient; the cleaning
    # constructor drops them all when theta = 0
    th = RatFunc(theta)
    theta_K = PDO({j: th * a for j, a in K.terms.items()})
    return (K.inverse(J) * theta_K).restrict(J)


# ---------------------------------------------------------------------------
# the anti-isomorphism b
# ---------------------------------------------------------------------------

def involution_b(P: PDO) -> dict[int, LaurentTail]:
    """b(x) = d_z, b(d) = z extended as an anti-homomorphism
    (b(PQ) = b(Q) b(P)) on a series sum a_k(x) d^k with polynomial
    coefficients.  The image is sum z^k a_k(d_z), regrouped by powers of
    d_z: a map from the power i of d_z to its coefficient, a truncated
    expansion in z^-1 (a tail).  On a differential operator P in x, b is
    ``diffop.anti_homomorphism(P, DiffOp.d("z"), DiffOp.x("z"))``, which
    sends x^a d^j to z^j d_z^a."""
    tails: dict[int, dict[int, Fraction]] = {}
    for k, c in P.terms.items():
        if not c.is_polynomial():
            raise NotInDomain(f"coefficient at d^{k} is not polynomial")
        for i, v in enumerate(c.num.coeffs):
            if v != 0:
                tails.setdefault(i, {})[k] = v
    return {i: LaurentTail(pairs, P.trunc) for i, pairs in tails.items()}


# ---------------------------------------------------------------------------
# the dual operator Lambda
# ---------------------------------------------------------------------------

def build_lambda(K: PDO, theta: Poly) -> DiffOp:
    """Lambda in z for the wave operator K (truncated at J = K.trunc) and
    theta: assemble sum_j z^-j Theta_j(d_z) from Theta = K^-1 theta K,
    regroup by powers of d_z and lift each z^-1 series coefficient to a
    rational function with ``pade_lift``.  A zero tail proves its
    coefficient zero only when it is known through z^-max(2m, 2)
    (TruncationTooShort otherwise).

    Theta and ad are linear in theta, so theta is made monic first.  The
    order m of Lambda is the largest degree among the coefficients of
    Theta, which must all be polynomials (ReconstructionFailed
    otherwise).  The normalization Lambda_m = 1, Lambda_{m-1} = 0 is
    asserted; as no coefficient above d_z^m is lifted, it also makes m
    the order of Lambda."""
    J = K.trunc
    series = conjugate_theta(K, theta.monic())
    bad = tuple(sorted(-k for k, c in series.terms.items() if not c.is_polynomial()))
    if bad:
        raise ReconstructionFailed(
            f"non-polynomial conjugate coefficients at d^-j, j in {bad}"
        )
    m = max((c.num.degree for c in series.terms.values()), default=0)
    tails = involution_b(series)
    lam_coeffs: dict[int, RatFunc] = {}
    full = max(2 * m, 2)
    for i in range(m + 1):
        tail = tails.get(i, LaurentTail.zero(J))
        if tail.is_zero():
            # a nonzero coefficient of degree <= full starts at or above
            # z^-full, so only a tail known that far proves it zero
            if J < full:
                raise TruncationTooShort(
                    f"Lambda coefficient at d_z^{i} is zero only through trunc "
                    f"{J}; a nonzero one of degree <= {full} can start at z^-{full}")
            continue
        got = pade_lift(tail, m)
        if got is None:
            # Theta starts at d^0, so the tail's known count c is at most
            # J + 1, and pade_lift's degree is (c - 2) // 2 < full until
            # trunc J + 2 full + 2 - c
            c = tail.known_count()
            raise ReconstructionFailed(f"Lambda coefficient at d_z^{i}" + (
                f": the Pade degree is capped at {(c - 2) // 2} by trunc {J}; "
                f"trunc {J + 2 * full + 2 - c} lifts the full degree {full}"
                if c < 2 * full + 2 else ""))
        lam_coeffs[i] = got
    lam = DiffOp("z", lam_coeffs)
    if lam.coeff(m) != RatFunc.one() or not lam.coeff(m - 1).is_zero():
        raise NormalizationFailed(
            f"Lambda_m = {lam.coeff(m)}, Lambda_(m-1) = {lam.coeff(m - 1)}"
        )
    return lam


def pade_lift(tail: LaurentTail, m: int) -> Optional[RatFunc]:
    """The rational function of degree <= D whose expansion at infinity
    matches the tail t (truncated at J = t.trunc), found in one Pade solve at
    D = min(max(2m, 2), (J - 1) // 2, (c - 2) // 2), where c is the
    tail's known count; None when there is none (or D < 0).

    One solve suffices.  If f0 = p0/q0 of degree d0 <= D matches t
    down to x^-J, and (p, q), q != 0, solves the system at D,
    then q0 (q t - p) - q (q0 t - p0) = q p0 - q0 p is a polynomial with
    no term of degree >= d0 + D - J; as J >= 2D + 1 > d0 + D, it is zero
    and p/q = f0.  So every solution at D reduces to the one matching
    function of degree <= D, the lowest-degree answer."""
    D = min(max(2 * m, 2), (tail.trunc - 1) // 2, (tail.known_count() - 2) // 2)
    return rational_reconstruct(tail, D, D) if D >= 0 else None


# ---------------------------------------------------------------------------
# polynomial expansion in L
# ---------------------------------------------------------------------------

def _expand_in_L(Q: DiffOp, L: DiffOp) -> Optional[list[Fraction]]:
    """Constants q_0..q_r with Q = sum q_j L^j, q_r != 0 (just [0] for
    Q = 0), or None when Q is not a polynomial in L; Q must commute with L.
    Q = q_0 + (q_1 + (q_2 + ...) L) L by repeated right division by L,
    where every remainder must be a constant."""
    if L.order < 1:
        return None
    q = []
    rest = Q.coeffs
    while True:
        rest, r = leibniz_divide(rest, L.coeffs)
        c = r.get(0, RatFunc.zero())
        if r.keys() - {0} or not c.is_constant():
            return None
        q.append(c.constant_value())
        if not rest:
            return q


# ---------------------------------------------------------------------------
# the bounded obstruction chain
# ---------------------------------------------------------------------------

def bounded_test(L: DiffOp, f: Poly, theta: Poly, Q: DiffOp) -> dict:
    """Run the full chain for a bounded-coefficient normalized operator
    L = f(d) + V, from the end Q = ad_L^m(theta) of theta's chain, as
    ``diffop.ad_condition_min_m`` returns it with ``split_constant_part``'s
    f, and return its certificate: the dict that ``classify`` stores as
    ``bounded_chain`` and ``bispec ad-test`` prints.

    The certificate carries every link of the chain: the monic theta (as
    text), m, the constants q_0..q_r with Q = sum q_j L^j, whether
    sum q_j f(z)^j = m! f'(z)^m holds, s = m / N (None when N does not
    divide m), r, q_r and the expected m! N^m, the nonzero lower constants
    (j, c_j) of f, and ``failures``, the links that fail among
    "identity", "divisibility" (r = s (N - 1)), "leading-coefficient" and
    "nonzero-constants".  The chain passes when ``failures`` is empty.

    The ad exponent is m = deg theta or none at all (the proof is in
    ``diffop.ad_condition_min_m``), so the chain that admitted theta
    already showed ad_L^(m+1)(theta) = [L, Q] = 0; this function brackets
    nothing and does not check it again.  ad is linear, so theta is made
    monic and Q scaled by the same 1/lead(theta), and the certificate
    carries the monic theta: the expected constants below are those of a
    monic theta.

    Whenever this returns, the identity, divisibility and leading-constant
    links hold; only the constants c_j of f can fail.  Grade by the degree
    in x at infinity.  ad^m(theta) for the monic theta of degree m has
    degree-0 part m! f'(d)^m, and Q = sum q_j L^j has degree-0 part
    sum q_j f(d)^j, as L = f(d) + V with V of degree <= -1.  So
    sum q_j f(z)^j = m! f'(z)^m.  With f monic of degree N, the degrees
    give r N = m (N - 1) and the leading coefficients q_r = m! N^m; as N
    is prime to N - 1, N | m, so m = s N and r = s (N - 1).  The
    certificate still carries these links, because they re-verify the
    result.

    Raises NotMonic when the leading coefficient of L is not 1 (the
    expected q_r = m! N^m holds only for a monic L), NotCommuting when
    theta is constant (its chain ends at once with m = 0, which says
    nothing about L), NotRankOrderCase when ad^m(theta) is not a
    polynomial in L (the rank is then smaller than the order and the
    input belongs to the constant-coefficient Darboux branch).
    """
    if not L.is_monic():
        raise NotMonic("bounded test needs a monic operator")
    if theta.degree < 1:
        raise NotCommuting(f"theta = {theta} is constant: it has no ad exponent m >= 1")
    lead = theta.leading()
    if lead != 1:
        theta, Q = theta.monic(), Q.scale(1 / lead)
    N = L.order
    m = theta.degree
    q = _expand_in_L(Q, L)
    if q is None:
        raise NotRankOrderCase("ad power is not a polynomial in L")
    # sum q_j f(z)^j == m! (f'(z))^m
    lhs = Poly.zero()
    for j, qj in enumerate(q):
        lhs = lhs + (f ** j).scale(qj)
    r = len(q) - 1
    s = m // N if m % N == 0 else None
    q_r_expected = Fraction(factorial(m) * N ** m)
    nonzero = [(j, c) for j, c in enumerate(f.coeffs[:-1]) if c != 0]
    links = {"identity": lhs == (f.derivative() ** m).scale(factorial(m)),
             "divisibility": s is not None and s * (N - 1) == r,
             "leading-coefficient": q[-1] == q_r_expected,
             "nonzero-constants": not nonzero}
    return {"theta": str(theta), "m": m, "q": q, "identity_holds": links["identity"],
            "s": s, "r": r, "q_r": q[-1], "q_r_expected": q_r_expected,
            "nonzero_cj": nonzero,
            "failures": [link for link, holds in links.items() if not holds]}


# ---------------------------------------------------------------------------
# centralizer search
# ---------------------------------------------------------------------------

def centralizer_search(L: DiffOp, max_ord: int) -> dict:
    """Solve [L, M] = 0 over candidates M = sum_j p_j(x) x^-d d^j with
    j <= max_ord, d = max_ord and deg p_j <= 2 max(max_ord, N) + d.

    The ansatz has poles at x = 0 only, so it misses every commuting M
    with a pole elsewhere: for d^2 - (6x^4 - 12x)/(x^3 + 1)^2, whose
    poles are the roots of x^3 + 1, it finds only the constants, although
    an operator of order 5 commutes with it.

    Each bracket [L, x^a d^j] (a >= -d) is cleared of denominators by one
    multiplier F fixed by L, and its coefficients go straight into the
    rows; no bracket is kept.  Let D = lcm_k den(L_k) and R = D / gcd(D, D')
    its squarefree part.  The Leibniz terms of the bracket are
    L_k (x^a)^(t) with t <= k <= N, whose denominators divide D x^(d+N),
    and x^a L_k^(t) with t <= j <= max_ord; a derivative raises each pole
    order by one, so den L_k^(t) divides den(L_k) R^t and these divide
    x^d D R^max_ord.  Hence F = x^d D lcm(x^N, R^max_ord).  For each power
    of d, the rows are those of the lcm of that power's denominators times
    one fixed nonzero polynomial, so the solution space, its reduced
    echelon form and the generators do not depend on F.

    Returns the dict that ``bispec centralizer`` writes: the sorted
    distinct ``orders`` of the generators, the gcd of the nonzero ones as
    the ``rank`` estimate (None when the search finds only the constants)
    and the ``generators``, a basis of the solution space echelonized so
    leading terms are distinct.  Raises ZeroOperand for L = 0, with which
    every operator commutes.
    """
    if L.is_zero():
        raise ZeroOperand("centralizer of the zero operator")
    d = max_ord
    num_degree = 2 * max(max_ord, L.order) + d
    basis_ops: list[tuple[int, int]] = [
        (j, i) for j in range(max_ord + 1) for i in range(num_degree + 1)
    ]
    D = Poly.one()
    for c in L.coeffs.values():
        D = poly_lcm(D, c.den)
    R = D.exact_div(D.gcd(D.derivative()))
    F = Poly.monomial(d) * D * poly_lcm(Poly.monomial(L.order), R ** max_ord)
    rows_by_key: dict[tuple[int, int], dict[int, Fraction]] = {}
    # F / den, divided once per distinct denominator
    cofactor = cache(F.exact_div)
    for col, (j, i) in enumerate(basis_ops):
        B = commutator(L, DiffOp.monomial(RatFunc.x_power(i - d), j, L.var))
        for k, c in B.coeffs.items():
            for e, v in enumerate((c.num * cofactor(c.den)).coeffs):
                if v:
                    rows_by_key.setdefault((k, e), {})[col] = v
    # rref copies each row it takes: popping the rows as it goes keeps the
    # system from being held twice
    rows = map(rows_by_key.pop, list(rows_by_key))
    # the columns ascend with (j, i), and each nullspace vector is 1 at its
    # own free column and elsewhere nonzero only at smaller pivot columns:
    # read by descending (j, i), the reversed list is already echelonized
    gens: list[DiffOp] = []
    for vec in reversed(nullspace(rows, len(basis_ops))):
        coeffs: dict[int, RatFunc] = {}
        for col, v in sorted(vec.items(), reverse=True):
            j, i = basis_ops[col]
            coeffs[j] = coeffs.get(j, RatFunc.zero()) + RatFunc.x_power(i - d, v)
        gens.append(DiffOp(L.var, coeffs))
    for M in gens:
        if not commutator(L, M).is_zero():
            raise NotCommuting("search produced a non-commuting element")
    orders = sorted({M.order for M in gens})
    nonconstant = [n for n in orders if n]
    return {"orders": orders, "rank": gcd(*nonconstant) if nonconstant else None,
            "generators": gens}
