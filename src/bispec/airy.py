"""Calculus of operators expanded in inverse powers of a generalized Airy
operator: the Airy-adic wave recursion, the perturbation obstruction, the
Taylor polynomial of a kernel element with the bispectral check that
applies the operator to it, and the Airy involution.

Height bookkeeping: monomials x^r d^k are ordered by r first, then k; the
height of an operator is the x-exponent of its maximal monomial.  The wave
recursion L K = K A is solved equation by equation in powers of A^-1; within
one equation the unknowns are determined from the top height down, each by a
single antiderivative, because in [A, m] = b A + c the b-part sits exactly
one height below m, while in V m = U A + W the U-part enters at least two
below.  Both decompositions are one division by A (``_contributions``):
division by the monic A is linear, so it divides their sum L m - m A.  Every
operator of the solve lies in Q[x, x^-1]<d>, so it is a ``diffop.TOp``,
the sparse map {(k, e): c} that the parser also evaluates in.

Depth rule.  A solve through truncation J runs at the one depth
D = J + N + 4 on exact Laurent polynomials: V's coefficients are expanded
through x^-D, every division result is cut there, each dividend is cut
at x^-(D + 1) before its division, and nothing else is dropped.  Then m_j
is exact through x^-(D - j).  Proof: V's cut and every later cut drop
only terms of height <= -(D + 1), so an error first enters equation 0
there.  Let equation j - 1 err at heights <= h.  Its unknowns,
the d^k parts of m_j with k >= 1, are one antiderivative each of a
coefficient of that equation, so they err at <= h + 1; their b + U parts
reach the same equation one height or more below them, at <= h.  Their
c + W parts reach equation j at <= h + 1 (c holds lam k alpha d^(k-1) at
alpha's height), but its d^(N-1) slot, which fixes the d^0 part of m_j by
one more antiderivative, only at <= h; that part and all it adds stay at
<= h + 1.  So equation j errs at <= h + 1 and m_j at <= -(D + 1) + j.
Cutting the reported m_j and m_(j-1) at x^-(D - j) and x^-(D + 1 - j)
changes equation j - 1 only at heights <= -(D + 2 - j), so
``airy_wave_residual`` finds it exact through x^-(D - j), where it checks.

The dividend's cut changes no division result through x^-D.  A piece
delta has d-order <= N - 1, and the top terms of A delta and delta A
cancel, so the dividend has d-order <= 2N - 2.  A quotient step on its
term x^e d^k keeps the exponent e in every term it makes but one: A's
-lam x gives x^(e+1) d^(k-N), one index higher, and k - N < N, so that
term makes no further step.  So a result at x^-s comes only from
dividend terms at x^-(s + 1) or higher.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Union

from .errors import (
    InvariantViolation,
    LogObstruction,
    NotAiryShape,
    NotInDomain,
    ZeroOperand,
)
from .poly import Poly
from .rational import LaurentTail, laurent_expand
from .diffop import DiffOp, TOp, anti_homomorphism
from .weights import principal_part
from .record import Record


# ---------------------------------------------------------------------------
# Airy shape inspection
# ---------------------------------------------------------------------------

class AiryShape(Record):
    """A = d^N + sum_{1<=j<=N-2} a_j d^j + a_0 - lam*x.

    The canonical family has lam = 1 and a_0 = 0; a nonzero a_0 is a
    translation of x and lam != 1 a dilation, both recorded rather than
    normalized away."""

    __slots__ = ("N", "a", "a0", "lam")
    N: int
    a: tuple[tuple[int, Fraction], ...]
    a0: Fraction
    lam: Fraction

    @property
    def strict(self) -> bool:
        return self.lam == 1 and self.a0 == 0


def airy_shape(A: DiffOp) -> AiryShape:
    """Validate and decompose a generalized Airy operator."""
    if A.is_zero() or not A.is_monic():
        raise NotAiryShape("Airy operator must be monic")
    N = A.order
    if N < 2:
        raise NotAiryShape("Airy order must be >= 2")
    if not A.coeff(N - 1).is_zero():
        raise NotAiryShape("subleading coefficient must vanish")
    params: list[tuple[int, Fraction]] = []
    for j, c in A.coeffs.items():
        if j in (0, N):
            continue
        if not c.is_constant():
            raise NotAiryShape(f"coefficient of d^{j} is not constant")
        params.append((j, c.constant_value()))
    c0 = A.coeff(0)
    if not c0.is_polynomial() or c0.num.degree > 1:
        raise NotAiryShape("order-0 coefficient must be a0 - lam*x")
    lam = -c0.num.coeff(1)
    a0 = c0.num.coeff(0)
    if lam == 0:
        raise NotAiryShape("missing -x term")
    return AiryShape(N=N, a=tuple(sorted(params)), a0=a0, lam=lam)


# ---------------------------------------------------------------------------
# AiryPDO
# ---------------------------------------------------------------------------

class AiryPDO(Record):
    """Truncated Airy-adic wave operator K = 1 + sum_{j=1}^J m_j A^-j,
    each m_j a ``TOp`` of d-degree below N = order(A).

    ``airy_wave_solve`` reports m_j cut at x^-(D - j) with D = J + N + 4;
    by the depth rule of the module docstring every coefficient down to
    that power is exact.  For V != 0 it reports every m_j, a zero one
    included, so ``mjs`` is empty exactly for K = 1."""

    __slots__ = ("A", "mjs", "trunc")
    A: DiffOp
    mjs: Mapping[int, TOp]
    trunc: int

    def __post_init__(self):
        airy_shape(self.A)
        if any(j < 1 or j > self.trunc for j in self.mjs):
            raise ValueError("coefficient index outside [1, trunc]")
        if any(m.order >= self.A.order for m in self.mjs.values()):
            raise ValueError("coefficient of d-degree at or above the Airy order")

    def coeff(self, j: int) -> TOp:
        return self.mjs.get(j, _ZERO_OP)

    def tails(self, j: int) -> dict[int, LaurentTail]:
        """The d^k parts of m_j, k descending, as tails exact through
        x^-(D - j); a zero m_j is its d^0 part, 0 + O(x^-(D - j + 1))."""
        trunc = _depth(self.trunc, self.A.order) - j
        rows: dict[int, dict[int, Fraction]] = {}
        for (k, e), c in self.coeff(j).terms.items():
            rows.setdefault(k, {})[e] = c
        return {k: LaurentTail._trusted(rows[k], trunc)
                for k in sorted(rows, reverse=True)} or {0: LaurentTail.zero(trunc)}

    def is_identity(self) -> bool:
        return not self.mjs


_ZERO_OP = TOp({})


class ObstructionStep(Record):
    __slots__ = ("j", "s", "k", "alpha")
    j: int
    s: int
    k: int
    alpha: Fraction


class ObstructionTrace(Record):
    """Leading-height record of the wave recursion.

    Verdict "obstructed" certifies that the recursion forces a leading term
    alpha * x^-1 * d^k in some b_j, which cannot be the derivative of a
    rational function; "clean" means the perturbation was zero;
    "inconclusive" means the step budget ran out first."""

    __slots__ = ("steps", "verdict", "N", "lam")
    steps: tuple[ObstructionStep, ...]
    verdict: str  # "obstructed" | "clean" | "inconclusive"
    N: int
    lam: Fraction

    @property
    def obstructed(self) -> bool:
        return self.verdict == "obstructed"


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

def height(m: DiffOp):
    """Height and leading monomial under the (x power, then d power) order.

    Returns (height, d-degree, coefficient) of the leading monomial."""
    if m.is_zero():
        raise ZeroOperand("height of zero")
    return max(((c.infinity_order(), k, c.infinity_leading()) for k, c in m.coeffs.items()),
               key=lambda hkc: hkc[:2])


# ---------------------------------------------------------------------------
# perturbation obstruction (leading-height recursion)
# ---------------------------------------------------------------------------

def perturbation_obstruction(L: Union[DiffOp, tuple[DiffOp, DiffOp]],
                             max_steps: int = 24) -> ObstructionTrace:
    """Track only the leading heights of the b_j through the recursion.

    b_1 matches -V at the top; thereafter the leading of b_{j+1} is forced
    by the leading of c_j, advancing the height by +1 each step with
    alpha_{j+1} = -lam * alpha_j (N(s_j+1)+k) / (N(s_j+1)) != 0.  From the
    top height h < 0 the walk takes min(-1 - h, max_steps) steps.  It ends
    at s_j = -1 (obstructed: that leading term would have to be the
    derivative of a rational function) or when the budget runs out
    (inconclusive); V = 0 is clean.

    ``L`` is the operator, or the split (A, V) that ``principal_part``
    returned for it, so that a caller holding the split does not redo it."""
    A, V = principal_part(L) if isinstance(L, DiffOp) else L
    shape = airy_shape(A)
    N, lam = shape.N, shape.lam
    if V.is_zero():
        return ObstructionTrace((), "clean", N, lam)
    h, k, lead = height(V)
    if h >= 0:
        raise NotAiryShape("perturbation does not decay at infinity")
    steps = [ObstructionStep(j=1, s=h, k=k, alpha=-lead)]
    alpha = -lead
    for s in range(h, h + min(-1 - h, max_steps)):
        alpha = -lam * alpha * Fraction(N * (s + 1) + k, N * (s + 1))
        steps.append(ObstructionStep(j=steps[-1].j + 1, s=s + 1, k=k, alpha=alpha))
    verdict = "obstructed" if steps[-1].s == -1 else "inconclusive"
    return ObstructionTrace(tuple(steps), verdict, N, lam)


# ---------------------------------------------------------------------------
# the Airy-adic wave recursion
# ---------------------------------------------------------------------------

def _depth(J: int, N: int) -> int:
    """The one depth D of a solve through truncation J (module docstring)."""
    return J + N + 4


def _cut(T: TOp, depth: int) -> TOp:
    """The terms of T through x^-depth."""
    return TOp({key: c for key, c in T.terms.items() if key[1] >= -depth})


def _top(P: DiffOp, depth: int) -> TOp:
    """P with each coefficient expanded at infinity through x^-depth, as an
    exact Laurent polynomial; a polynomial coefficient loses nothing."""
    return TOp({(k, e): v for k, c in P.coeffs.items()
                for e, v in laurent_expand(c, depth).terms.items()})


def _piece(R: TOp, slot: int, k: int, N: int) -> TOp:
    """-1/N times the antiderivative of R's d^slot coefficient, times d^k.
    Raises LogObstruction on an x^-1 term, whose antiderivative is a log."""
    out = {}
    for (i, e), c in R.terms.items():
        if i == slot:
            if e == -1:
                raise LogObstruction("antiderivative requires log(x): nonzero x^-1 term")
            out[(k, e + 1)] = c / (e + 1) * Fraction(-1, N)
    return TOp(out)


def _divide(T: TOp, At: TOp) -> tuple[TOp, TOp]:
    """T = q A + r with every d-power of r below N = order(A), for a monic
    A: each step takes the remainder's top d^k terms as the quotient's
    d^(k - N) part."""
    N = At.order
    quo: dict = {}
    while (k := T.order) >= N:
        top = TOp({(i - N, e): c for (i, e), c in T.terms.items() if i == k})
        quo.update(top.terms)
        T = T - top * At
    return TOp(quo), T


def _contributions(delta: TOp, At: TOp, Lt: TOp, depth: int) -> tuple[TOp, TOp]:
    """The (b + U, c + W) parts of [A, delta] = b A + c and
    V delta = U A + W for a piece delta of some m_j, cut at x^-depth: one
    division of their sum L delta - delta A by A, as division by the
    monic A is linear.  The dividend is cut at x^-(depth + 1) first
    (module docstring)."""
    q, r = _divide(_cut(Lt * delta - delta * At, depth + 1), At)
    return _cut(q, depth), _cut(r, depth)


def airy_wave_solve(L: DiffOp, J: int) -> Union[AiryPDO, ObstructionTrace]:
    """Solve L K = K A for K = 1 + sum m_j A^-j through truncation J.

    The recursion runs at the depth D = J + N + 4 of the module docstring
    and reports every m_j, exact through x^-(D - j).  When a required
    antiderivative needs a logarithm the recursion is impossible for
    rational data; the leading-height trace certifying the failure is
    returned instead of K.
    """
    if J < 1:
        raise ValueError("truncation must be >= 1")
    A, V = principal_part(L)
    N = airy_shape(A).N
    if V.order > N - 2:
        raise NotAiryShape("perturbation touches the subleading slot; "
                           "normalize the operator first")
    if V.is_zero():
        return AiryPDO(A, {}, J)

    D = _depth(J, N)
    At, Vt = _top(A, D), _top(V, D)
    Lt = At + Vt
    m: dict[int, dict] = {j: {} for j in range(1, J + 1)}

    try:
        rhs = Vt  # equation 0: b_1 + U_1 + V = 0
        for eq in range(0, J + 1):
            R = rhs
            next_rhs = _ZERO_OP
            if eq >= 1:
                beta = _piece(R, N - 1, 0, N)
                if beta.terms:
                    m[eq].update(beta.terms)
                    same, nxt = _contributions(beta, At, Lt, D)
                    # a pure function has no b/U part: everything it
                    # produces belongs to the current equation
                    R = R + same + nxt
            if eq == J:
                break
            for k in range(N - 1, 0, -1):
                alpha = _piece(R, k - 1, k, N)
                if not alpha.terms:
                    continue
                m[eq + 1].update(alpha.terms)
                same, nxt = _contributions(alpha, At, Lt, D)
                R = R + same
                next_rhs = next_rhs + nxt
            # each unknown cancels its slot exactly, so nothing is left
            if R.terms:
                raise InvariantViolation(f"equation {eq} residual: {R.terms}")
            rhs = next_rhs
    except LogObstruction:
        trace = perturbation_obstruction((A, V))
        if trace.obstructed:
            return trace
        raise

    return AiryPDO(A, {j: _cut(TOp(mj), D - j) for j, mj in m.items()}, J)


def airy_wave_residual(L: DiffOp, K: AiryPDO) -> bool:
    """Re-verify the recursion equations b_{j+1}+U_{j+1}+c_j+W_j = 0
    (and b_1+U_1+V = 0) for the solved coefficients, through truncation.

    Equation j - 1 is checked through x^-(D - j), where the depth rule of
    the module docstring makes it exact.  This is the L K - K A = 0
    statement written in A-adic slices."""
    A, V = principal_part(L)
    D = _depth(K.trunc, airy_shape(A).N)  # raises NotAiryShape
    At, Vt = _top(A, D), _top(V, D)
    Lt = At + Vt
    # equation j - 1 adds the (b+U) part of m_j to the (c+W) part of
    # m_(j-1), or to V for j = 1; each m_j is divided once
    prev = Vt
    for j in range(1, K.trunc + 1):
        same, nxt = _contributions(K.coeff(j), At, Lt, D)
        if any(e >= j - D for _, e in (same + prev).terms):
            return False
        prev = nxt
    return True


# ---------------------------------------------------------------------------
# kernel series and the bispectral identity checks
# ---------------------------------------------------------------------------

def airy_kernel_series(A: DiffOp, init, M: int) -> Poly:
    """The Taylor polynomial through degree M of a kernel element:
    A Phi = 0 with Phi^(i)(0) = init[i], i < N."""
    shape = airy_shape(A)
    N = shape.N
    D = [Fraction(v) for v in init]
    if len(D) != N:
        raise ValueError(f"need {N} initial derivatives")
    # D_k = Phi^(k)(0): differentiating d^N Phi = lam*x*Phi - a0*Phi -
    # sum a_j Phi^(j) n times at 0 gives D_(n+N) = lam*n*D_(n-1) - a0*D_n
    # - sum a_j D_(n+j) (at n = 0 the first term is 0 whatever D[-1] is)
    for n in range(M - N + 1):
        D.append(shape.lam * n * D[n - 1] - shape.a0 * D[n]
                 - sum(aj * D[n + j] for j, aj in shape.a))
    return Poly([D[k] / factorial(k) for k in range(M + 1)])


class AiryBispectralReport(Record):
    __slots__ = ("ok", "verified_degree")
    ok: bool             # A Phi = 0, so Psi meets both eigenvalue identities
    verified_degree: int


def airy_bispectral_check(A: DiffOp, M: int) -> AiryBispectralReport:
    """Verify that Psi(x,z) = Phi(x+z), Phi the kernel series with
    Phi(0) = 1, satisfies the two eigenvalue identities exactly.

    Both identities are the one bit A Phi = 0 in u = x + z:
    A(x, d_x) Psi - lam z Psi = A(z, d_z) Psi - lam x Psi = (A Phi)(x + z),
    and d_x Psi = d_z Psi holds by construction.  The terms of total
    degree e of (A Phi)(x + z) are c_e (x + z)^e, c_e the coefficient of
    u^e in A Phi.  A's coefficients are polynomials of degree <= 1, so
    A applied to the Taylor polynomial of Phi through degree M + N agrees
    with A Phi through degree M; comparing it with 0 through degree M - 2
    verifies the identities through total degree M - 2."""
    N = airy_shape(A).N
    check_deg = M - 2
    phi = airy_kernel_series(A, [1] + [0] * (N - 1), M + N)
    APhi = Poly.zero()
    for j in range(N + 1):  # A Phi = sum_j c_j Phi^(j); phi is Phi^(j)
        APhi = APhi + A.coeff(j).num * phi
        phi = phi.derivative()
    return AiryBispectralReport(
        ok=not any(APhi.coeff(e) for e in range(check_deg + 1)),
        verified_degree=check_deg)


# ---------------------------------------------------------------------------
# the Airy involution
# ---------------------------------------------------------------------------

def airy_involution(P: DiffOp, A: DiffOp) -> DiffOp:
    """Anti-homomorphic image of a Weyl-algebra element under
    b(A) = z, b(d) = d_z, hence b(x) = A(z, d_z).

    Each x^a d^j goes to d_z^j A(z, d_z)^a (``diffop.anti_homomorphism``).
    Requires lam = 1 and polynomial coefficients."""
    if airy_shape(A).lam != 1:
        raise NotInDomain("Airy involution requires the -x normalization")
    return anti_homomorphism(P, DiffOp("z", A.coeffs), DiffOp.d("z"))
