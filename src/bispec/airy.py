"""Calculus of operators expanded in inverse powers of a generalized Airy
operator: the perturbation obstruction, which decides the Airy-adic wave
recursion in closed form, the Taylor polynomial of a kernel element with
the bispectral check that applies the operator to it, and the Airy
involution.

Height bookkeeping: monomials x^r d^k are ordered by r first, then k; the
height of an operator is the x-exponent of its maximal monomial.  The wave
recursion L K = K A, K = 1 + sum_j m_j A^-j, is one equation per power of
A^-1.  In [A, m] = b A + c the b-part sits exactly one height below m,
while in V m = U A + W the U-part enters at least two below, so the
leading term of each equation is forced by the one before, and
``perturbation_obstruction`` follows the leading terms alone.  It is the
one pass over the increasing branch: it splits L, reads its Airy shape
and returns both in its trace, which ``classify`` and ``airy_wave_solve``
read.

The bispectral check is not attached to the ``Airy(1)`` verdict as a
certificate: it applies A to the Taylor polynomial that
``airy_kernel_series`` builds by the recurrence read from A itself, so
it re-checks that recurrence, not L, and holds for every A that
``airy_shape`` accepts.  On ``Airy(1)`` it would certify nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import NotAiryShape, NotInDomain, ZeroOperand
from .poly import Poly
# TOp is not used here: the benchmark's tracer finds the Laurent
# Weyl-algebra product by the name airy.TOp (bench/spans.py)
from .diffop import DiffOp, TOp, anti_homomorphism
from .weights import principal_part
from .record import Record

# the most steps the leading-height walk takes (Budgets.obstruction_steps)
OBSTRUCTION_STEPS = 24


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


class ObstructionStep(Record):
    __slots__ = ("j", "s", "k", "alpha")
    j: int
    s: int
    k: int
    alpha: Fraction


class ObstructionTrace(Record):
    """Leading-height record of the wave recursion of L = A + V.

    ``A`` and ``V`` are the split that ``principal_part`` returned for L
    and ``shape`` is ``airy_shape(A)``, so a reader of the trace needs no
    second split or shape read.  Step j records the leading term
    alpha_j x^s d^k of b_j: alpha_j is the leading coefficient of b_j.
    Verdict "obstructed" certifies that the recursion forces a leading
    term alpha * x^-1 * d^k, alpha != 0, in some b_j, which cannot be the
    derivative of a rational function; "clean" means V = 0, so the wave
    operator is K = 1; "inconclusive" means the step budget ran out
    first."""

    __slots__ = ("steps", "verdict", "A", "V", "shape")
    steps: tuple[ObstructionStep, ...]
    verdict: str  # "obstructed" | "clean" | "inconclusive"
    A: DiffOp
    V: DiffOp
    shape: AiryShape

    @property
    def obstructed(self) -> bool:
        return self.verdict == "obstructed"

    def certificate(self) -> dict:
        """The verdict and each step as (j, s, k, alpha)."""
        return {"verdict": self.verdict,
                "steps": [(s.j, s.s, s.k, s.alpha) for s in self.steps]}


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

def perturbation_obstruction(L: DiffOp,
                             max_steps: int = OBSTRUCTION_STEPS) -> ObstructionTrace:
    """Split L = A + V by ``principal_part``, read ``airy_shape(A)`` and
    track only the leading heights of the b_j through the recursion.

    For L = A + V, K = 1 + sum_j m_j A^-j solves L K = K A exactly when
    b_1 + U_1 + V = 0 and b_(j+1) + U_(j+1) + c_j + W_j = 0 for j >= 1,
    with [A, m_j] = b_j A + c_j and V m_j = U_j A + W_j right divisions by
    A (c_j and W_j of d-degree below N).  Each unknown d-part of an m_j
    is one antiderivative of a coefficient of one of these equations.

    Why the walk decides the recursion.  A term beta x^(s+1) d^(k+1) of
    m_j, 0 <= k <= N - 2, puts N (beta x^(s+1))' d^k = N (s+1) beta x^s d^k
    into b_j and lam (N(s+1) + k + 1) beta x^(s+1) d^k into c_j.
    ``principal_part`` leaves every coefficient of V of order O(x^-1), so
    V's top height h is at most -1.  The walk takes a step only when
    h <= -2, and then V m lies at least two heights below m, so U_(j+1)
    lies below the leading term of b_(j+1) and W_j below that of c_j.
    So b_1 leads with alpha_1 x^h d^k, minus V's top term, and by
    induction the leading term of b_(j+1) is forced by that of c_j: one
    height higher, the same k, and
    alpha_(j+1) = -lam alpha_j (N(s_j+1) + k + 1) / (N(s_j+1)).  For
    s_j + 1 <= -1 and 0 <= k + 1 <= N - 1, N(s_j+1) + k + 1 < 0, so no
    factor vanishes, and after -1 - h steps b_j leads with alpha x^-1 d^k.
    That term is N times the derivative of the d^(k+1) part of m_j, which
    would need log(x): no K with rational coefficients exists.  The walk
    stops at min(-1 - h, max_steps) steps: at s_j = -1 (obstructed) or
    when the budget runs out (inconclusive); V = 0 is clean.

    The proof needs k <= N - 2: at k = N - 1 the factor's numerator
    N(s+2) vanishes at s = -2, and the walk would end at s = -1 with the
    zero witness alpha = 0.  So L must have no d^(N-1) term: one in V is
    refused here and one in A by ``airy_shape``, both with NotAiryShape.
    ``classify`` gauges L first, so neither reaches it."""
    A, V = principal_part(L)
    shape = airy_shape(A)
    N, lam = shape.N, shape.lam
    if V.order > N - 2:
        raise NotAiryShape("perturbation touches the subleading slot; "
                           "normalize the operator first")
    if V.is_zero():
        return ObstructionTrace((), "clean", A, V, shape)
    h, k, lead = height(V)
    steps = [ObstructionStep(j=1, s=h, k=k, alpha=-lead)]
    alpha = -lead
    for s in range(h, h + min(-1 - h, max_steps)):
        alpha = -lam * alpha * Fraction(N * (s + 1) + k + 1, N * (s + 1))
        steps.append(ObstructionStep(j=steps[-1].j + 1, s=s + 1, k=k, alpha=alpha))
    verdict = "obstructed" if steps[-1].s == -1 else "inconclusive"
    return ObstructionTrace(tuple(steps), verdict, A, V, shape)


def airy_wave_solve(L: DiffOp, J: int) -> ObstructionTrace:
    """The Airy-adic wave operator K = 1 + sum m_j A^-j of L K = K A, in
    closed form: the trace of ``perturbation_obstruction``, which also
    refuses a d^(N-1) term.  A clean trace means V = 0 and K = 1; an
    obstructed one proves that no K has rational coefficients.  ``J``, a
    truncation, must be at least 1 and is not read otherwise."""
    if J < 1:
        raise ValueError("truncation must be >= 1")
    return perturbation_obstruction(L)


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


def airy_bispectral_check(A: DiffOp, M: int) -> bool:
    """Whether Psi(x,z) = Phi(x+z), Phi the kernel series with
    Phi(0) = 1, satisfies the two eigenvalue identities exactly through
    total degree M - 2: the certificate is this one bit.

    Both identities are the one bit A Phi = 0 in u = x + z:
    A(x, d_x) Psi - lam z Psi = A(z, d_z) Psi - lam x Psi = (A Phi)(x + z),
    and d_x Psi = d_z Psi holds by construction.  The terms of total
    degree e of (A Phi)(x + z) are c_e (x + z)^e, c_e the coefficient of
    u^e in A Phi.  A's coefficients are polynomials of degree <= 1, so
    A applied to the Taylor polynomial of Phi through degree M + N agrees
    with A Phi through degree M; comparing it with 0 through degree M - 2
    verifies the identities through total degree M - 2."""
    N = A.order  # airy_kernel_series validates A
    phi = airy_kernel_series(A, [1] + [0] * (N - 1), M + N)
    APhi = Poly.zero()
    for j in range(N + 1):  # A Phi = sum_j c_j Phi^(j); phi is Phi^(j)
        APhi = APhi + A.coeff(j).num * phi
        phi = phi.derivative()
    return not any(APhi.coeff(e) for e in range(M - 1))


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
