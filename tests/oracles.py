"""Independent oracles used to compute expected values in the tests.

These deliberately avoid the library's code paths:

* a Weyl-monomial algebra over exponent pairs (a, b) <-> x^a d^b whose
  product uses the closed-form reordering
      d^b o x^a = sum_i C(b, i) * a(a-1)...(a-i+1) * x^(a-i) d^(b-i),
  in contrast to the library's coefficient-differentiation Leibniz rule;
* operator application to explicit Laurent polynomials, so products can be
  checked through their action on functions;
* commutator chains built on the monomial algebra for ad-condition values;
* the product of associated polynomials in commuting x and y;
* the Bessel shape by its defining bracket [xd, L] = -N L, and the Bessel
  symbol read off the product x^N L, the references for the library's
  coefficient scan;
* dense Gauss-Jordan elimination over lists of Fractions, the reference
  for the library's sparse ``linalg``;
* three division loops on whole operators and series, the references
  for the library's one long-division kernel ``diffop.leibniz_divide``:
  operator division, the Neumann series of a pseudo-differential
  inverse, and the expansion of an operator in powers of L by
  subtracting scaled powers L^r;
* the Airy-adic wave recursion L K = K A solved in full, one unknown
  per slot, each piece divided by A twice (once for [A, delta], once for
  V delta, one leading monomial per division step), the reference for
  the leading-height walk that ``airy.airy_wave_solve`` and
  ``airy.perturbation_obstruction`` answer with: the full recursion needs
  its logarithm exactly where the walk ends.  It runs on
  monomial-algebra dicts, so it shares no product with the library, and
  its division also serves as the reference for right division by a
  monic Airy operator;
* the coordinate transpose x^a d^b -> z^b d_z^a, the reference for the
  involution b through ``diffop.anti_homomorphism``;
* three Airy references: the bispectral check on a two-variable series
  Psi(x, z) = Phi(x + z), the Airy involution by relabelling the Weyl
  pair (d, A) and transposing, and the perturbation obstruction walk that
  tests s = -1 at every step and once more after its loop; and the height
  recursion between consecutive steps of an obstruction trace, checked
  step by step;
* the Laurent expansion at infinity as a power series in 1/x, divided
  coefficient by coefficient, the reference for the one polynomial long
  division of ``rational.laurent_expand``;
* the Pade solve over the numerator's and the denominator's
  coefficients together, the reference for the solve over the
  denominator alone in ``rational.rational_reconstruct``;
* the rational antiderivative under the four-round growing degree
  schedule, the reference for the one Pade solve at exact degrees in
  ``rational.rat_antiderivative``;
* the lift of a coefficient of Lambda by Pade solves at growing degree
  bounds, the reference for the one solve of ``bounded.pade_lift``;
* Euclid's algorithm and the Sturm sequence on Fraction remainders, the
  references for the primitive integer pseudo-remainders that
  ``Poly.gcd`` and ``poly._sturm_sequence`` share;
* the rational root theorem over the divisors of the constant term and
  the lead, the reference for the Sturm bisection on the grid Z/a of
  ``Poly.rational_roots``;
* the wave recursion that rebuilds the defect L K - K f(d) from the whole
  of K at every step, the reference for the running defect of
  ``bounded.wave_operator``;
* the centralizer search that keeps every bracket, clears each power of d
  by the lcm of that power's denominators and solves densely, the
  reference for the one multiplier of ``bounded.centralizer_search``.

One helper is not an oracle: ``bounded_chain`` feeds ``bounded_test``
the way ``classify`` does, so the tests of the chain state only L and
theta.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Optional

from bispec import (
    PDO,
    CentralizerResult,
    DiffOp,
    InsufficientPrecision,
    LaurentTail,
    NotCommuting,
    NotInDomain,
    ObstructionStep,
    ObstructionTrace,
    Poly,
    RatFunc,
    ReconstructionFailed,
    ad_condition_min_m,
    airy_kernel_series,
    airy_shape,
    bounded_test,
    commutator,
    dop_mul,
    euler_operator,
    height,
    laurent_expand,
    principal_part,
    rat_antiderivative,
    rational_reconstruct,
    split_constant_part,
    wave_defect,
)
from bispec.airy import AiryBispectralReport
from bispec.diffop import TOp
from bispec.families import falling_factorial
from bispec.linalg import nullspace
from bispec.poly import poly_lcm

# monomial algebra: {(a, b): coeff} represents sum coeff * x^a d^b, a in Z


def mono_zero() -> dict:
    return {}


def mono_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for key, c in v.items():
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def mono_scale(u: dict, s) -> dict:
    s = Fraction(s)
    return {k: c * s for k, c in u.items() if c * s != 0}


def _falling(a: int, i: int) -> int:
    out = 1
    for t in range(i):
        out *= a - t
    return out


def mono_mul(u: dict, v: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in u.items():
        for (a2, b2), c2 in v.items():
            # x^a1 d^b1 x^a2 d^b2: reorder d^b1 past x^a2
            c = c1 * c2
            for i in range(b1 + 1):
                w = comb(b1, i) * _falling(a2, i)
                if w == 0:
                    continue
                key = (a1 + a2 - i, b1 + b2 - i)
                out[key] = out.get(key, Fraction(0)) + c * w
    return {k: c for k, c in out.items() if c != 0}


def commutative_mul(u: dict, v: dict) -> dict:
    """The product of u and v as polynomials in commuting x and y, the
    product of associated polynomials (``weights.BiHomPoly`` terms)."""
    out: dict = {}
    for (a1, b1), c1 in u.items():
        for (a2, b2), c2 in v.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def mono_commutator(u: dict, v: dict) -> dict:
    return mono_add(mono_mul(u, v), mono_scale(mono_mul(v, u), -1))


def mono_ad_chain(L: dict, g: dict, steps: int) -> list[dict]:
    """[g, ad_L g, ad_L^2 g, ...] with ``steps`` applications."""
    out = [g]
    for _ in range(steps):
        out.append(mono_commutator(L, out[-1]))
    return out


def mono_of_diffop(L: DiffOp) -> dict:
    out: dict = {}
    for j, c in L.coeffs.items():
        for e, v in c.laurent_terms():
            out[(e, j)] = out.get((e, j), Fraction(0)) + v
    return {k: c for k, c in out.items() if c != 0}


def diffop_of_mono(u: dict, var: str = "x") -> DiffOp:
    coeffs: dict[int, RatFunc] = {}
    for (a, b), c in u.items():
        coeffs[b] = coeffs.get(b, RatFunc.zero()) + RatFunc.x_power(a, c)
    return DiffOp(var, coeffs)


# applying operators to Laurent polynomials (functions {exponent: coeff})


def fn_apply_mono(u: dict, fn: dict) -> dict:
    """Apply the monomial-algebra operator to a Laurent polynomial."""
    out: dict = {}
    for (a, b), c in u.items():
        for e, v in fn.items():
            coeff = c * v * _falling(e, b)
            if coeff == 0:
                continue
            key = e - b + a
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c != 0}


def fn_of_poly(p: Poly) -> dict:
    return {e: c for e, c in enumerate(p.coeffs) if c != 0}


# random operator generators (seeded by the caller)


def random_poly(rng: random.Random, max_degree: int, zero_ok: bool = True) -> Poly:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(degree + 1)]
    p = Poly(coeffs)
    if p.is_zero() and not zero_ok:
        return Poly([Fraction(rng.randint(1, 4))])
    return p


def random_diffop(
    rng: random.Random,
    max_order: int = 4,
    max_degree: int = 4,
    min_exponent: int = 0,
    density: float = 0.7,
) -> DiffOp:
    """Random operator with sparse Laurent-polynomial coefficients."""
    coeffs: dict[int, RatFunc] = {}
    order = rng.randint(0, max_order)
    for j in range(order + 1):
        if j != order and rng.random() > density:
            continue
        c = RatFunc.zero()
        for _ in range(rng.randint(1, 2)):
            e = rng.randint(min_exponent, max_degree)
            c = c + RatFunc.x_power(e, rng.randint(-4, 4))
        if j == order and c.is_zero():
            c = RatFunc.one()
        if not c.is_zero():
            coeffs[j] = c
    if not coeffs:
        coeffs[0] = RatFunc.one()
    return DiffOp("x", coeffs)


# the Bessel shape through brackets and products


def euler_homogeneous_by_bracket(L: DiffOp) -> bool:
    """[xd, L] == -N L with N = order(L); False for the zero operator."""
    return not L.is_zero() and commutator(euler_operator(L.var), L) == L.scale(-L.order)


def bessel_symbol_by_product(L: DiffOp) -> Optional[Poly]:
    """b with x^N L = b(xd), read off the product x^N * L: its coefficient
    of d^j must be w_j x^j, which contributes w_j u(u-1)...(u-j+1)."""
    if not L.is_monic() or not euler_homogeneous_by_bracket(L):
        return None
    T = DiffOp.from_function(Poly.monomial(L.order), L.var) * L
    sym = Poly.zero()
    for j, c in T.coeffs.items():
        if not c.is_polynomial():
            return None
        mono = c.num
        if any(k != j and v != 0 for k, v in enumerate(mono.coeffs)):
            return None
        sym = sym + falling_factorial(j).scale(mono.coeff(j))
    return sym


# dense Gauss-Jordan: matrices are lists of rows, rows lists of Fractions


def dense_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(r) for r in rows if any(c != 0 for c in r)]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [c * inv for c in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return mat[:row], pivots


def dense_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows * v = 0, one vector per free
    column in ascending order."""
    mat, pivots = dense_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -mat[r][f]
        basis.append(vec)
    return basis


# division by leading terms, one whole-operator product per step


def divide_by_leading_terms(L: DiffOp, P: DiffOp, side: str) -> tuple[DiffOp, DiffOp]:
    """Q, R with L = Q o P + R (side "right") or L = P o Q + R (side
    "left") and order(R) < order(P); P must be nonzero."""
    q = DiffOp.zero(L.var)
    r = L
    n = P.order
    lead = P.leading()
    while r.order >= n:
        term = DiffOp.monomial(r.leading() / lead, r.order - n, L.var)
        q = q + term
        r = r - (dop_mul(P, term) if side == "left" else dop_mul(term, P))
    return q, r


def mono_of_top(T: TOp) -> dict:
    """A Laurent Weyl-algebra value {(k, e): c} as a monomial-algebra dict
    {(e, k): c}."""
    return {(e, k): c for (k, e), c in T.terms.items()}


def mono_order(u: dict) -> int:
    """The highest power of d; -1 for zero."""
    return max((b for _, b in u), default=-1)


def mono_cut(u: dict, depth: int) -> dict:
    """The monomials of u through x^-depth."""
    return {(a, b): c for (a, b), c in u.items() if a >= -depth}


def reduce_top_by_leading_terms(T: dict, A: dict) -> tuple[dict, dict]:
    """q, r with T = q A + r and d-degree(r) < order(A), for A with the
    leading monomial d^N, as monomial-algebra dicts: each step cancels the
    monomial of r with the highest power of d (then of x) by one quotient
    monomial."""
    N = mono_order(A)
    q, r = {}, dict(T)
    while mono_order(r) >= N:
        a, b = max(r, key=lambda ab: (ab[1], ab[0]))
        c = q[(a, b - N)] = r[(a, b)]
        for key, v in mono_mul({(a, b - N): c}, A).items():
            r[key] = r.get(key, Fraction(0)) - v
            if not r[key]:
                del r[key]
    return q, r


def contributions_by_two_divisions(delta: dict, A: dict, V: dict) -> tuple[dict, dict]:
    """The (b + U, c + W) parts of a piece delta of the Airy-adic wave
    recursion: [A, delta] = b A + c and V delta = U A + W, each divided
    by A on its own, as monomial-algebra dicts."""
    qb, rc = reduce_top_by_leading_terms(mono_commutator(A, delta), A)
    qu, rw = reduce_top_by_leading_terms(mono_mul(V, delta), A)
    return mono_add(qb, qu), mono_add(rc, rw)


def airy_wave_deep(L: DiffOp, J: int, extra: int = 12) -> Optional[dict]:
    """The m_j (j <= J) of the Airy-adic wave recursion L K = K A, as
    {j: monomial-algebra dict}, solved on Laurent polynomials cut at
    x^-(J + N + 4 + extra); None when an antiderivative needs a
    logarithm.  Equation eq fixes its slots
    from d^(N-1) down, each by one antiderivative: d^(N-1) the d^0 part of
    m_eq, d^(s) below it the d^(s+1) part of m_(eq+1)."""
    A, V = principal_part(L)
    N = A.order
    depth = J + N + 4 + extra

    def top(P: DiffOp) -> dict:
        return {(e, k): c for k, f in P.coeffs.items()
                for e, c in laurent_expand(f, depth).terms.items()}

    At, Vt = top(A), top(V)
    m: dict = {j: {} for j in range(1, J + 1)}
    rhs = Vt
    for eq in range(J + 1):
        R, rhs = rhs, {}
        for slot in range(N - 1, -1 if eq < J else N - 2, -1):
            j, k = (eq, 0) if slot == N - 1 else (eq + 1, slot + 1)
            g = {a: c for (a, b), c in R.items() if b == slot}
            if -1 in g:
                return None
            piece = {(a + 1, k): c / (-N * (a + 1)) for a, c in g.items()}
            if j == 0 or not piece:
                continue
            m[j] = mono_add(m[j], piece)
            same, nxt = contributions_by_two_divisions(piece, At, Vt)
            # a pure function's c + W part belongs to its own equation
            if k == 0:
                R = mono_add(R, mono_cut(mono_add(same, nxt), depth))
            else:
                R, rhs = mono_add(R, mono_cut(same, depth)), mono_add(rhs, mono_cut(nxt, depth))
        assert eq == J or not R
    return m


def pdo_inverse_neumann(K: PDO, J: int) -> PDO:
    """(1 + T)^-1 = sum_n (-T)^n down to d^-J, for K = 1 + T with T
    strictly decaying."""
    t = PDO({k: c for k, c in K.terms.items() if k < 0}, K.trunc).restrict(J)
    acc = PDO.identity().restrict(J)
    power = PDO.identity().restrict(J)
    for _ in range(J):
        power = (power * (-t)).restrict(J)
        if power.is_zero():
            break
        acc = acc + power
    return acc


def involution_b_as_pdo(P: PDO) -> PDO:
    """b(sum a_k(x) d^k) = sum z^k a_k(d_z) as a series in d_z whose
    coefficient at the power d_z^i is a z^-1 tail.  PDO does not accept
    tail coefficients, so the image is wrapped unchecked."""
    tails: dict[int, dict[int, Fraction]] = {}
    for k, c in P.terms.items():
        if not c.is_polynomial():
            raise NotInDomain(f"coefficient at d^{k} is not polynomial")
        for i, v in enumerate(c.num.coeffs):
            if v != 0:
                tails.setdefault(i, {})[k] = v
    terms = {idx: LaurentTail(pairs, P.trunc) for idx, pairs in tails.items()}
    return PDO._trusted(terms, None)


def expand_in_powers(Q: DiffOp, L: DiffOp) -> Optional[list[Fraction]]:
    """Constants q_0..q_r with Q = sum q_j L^j for a monic L of order >= 1,
    by subtracting q_r L^r for the leading term; None when Q is not a
    polynomial in L."""
    N = L.order
    rem = Q
    coeffs: dict[int, Fraction] = {}
    while not rem.is_zero():
        o = rem.order
        lead = rem.leading()
        if o % N != 0 or not lead.is_constant():
            return None
        coeffs[o // N] = lead.constant_value()
        rem = rem - (L ** (o // N)).scale(coeffs[o // N])
    top = max(coeffs) if coeffs else 0
    return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]


# the Airy side in two variables


def _bi_add(u: dict, v: dict, s=1) -> dict:
    out = dict(u)
    for key, c in v.items():
        out[key] = out.get(key, Fraction(0)) + s * c
    return out


def _bi_diff(u: dict, axis: int) -> dict:
    """d/dx (axis 0) or d/dz (axis 1) of {(i, j): c} = sum c x^i z^j."""
    out = {}
    for key, c in u.items():
        if key[axis]:
            low = list(key)
            low[axis] -= 1
            out[tuple(low)] = key[axis] * c
    return out


def _bi_mul(u: dict, axis: int) -> dict:
    return {(i + (axis == 0), j + (axis == 1)): c for (i, j), c in u.items()}


def airy_bispectral_check_bivariate(A: DiffOp, M: int) -> AiryBispectralReport:
    """Expand Psi(x, z) = Phi(x + z) binomially through total degree
    M + N and compare A(x, d_x) Psi with lam z Psi, A(z, d_z) Psi with
    lam x Psi and d_x Psi with d_z Psi through total degree M - 2."""
    shape = airy_shape(A)
    N = shape.N
    init = [0] * N
    init[0] = 1
    phi = airy_kernel_series(A, init, M + N)
    psi: dict = {}
    for n, c in enumerate(phi.coeffs):
        for i in range(n + 1):
            psi[(i, n - i)] = psi.get((i, n - i), Fraction(0)) + c * comb(n, i)

    def apply_A(axis: int) -> dict:
        out = {k: shape.a0 * c for k, c in psi.items()}
        out = _bi_add(out, _bi_mul(psi, axis), -shape.lam)
        for j, aj in shape.a + ((N, Fraction(1)),):
            term = psi
            for _ in range(j):
                term = _bi_diff(term, axis)
            out = _bi_add(out, term, aj)
        return out

    def zero_through(u: dict) -> bool:
        return all(c == 0 for (i, j), c in u.items() if i + j <= M - 2)

    eigen = [zero_through(_bi_add(apply_A(axis), _bi_mul(psi, 1 - axis), -shape.lam))
             for axis in (0, 1)]
    shift = zero_through(_bi_add(_bi_diff(psi, 0), _bi_diff(psi, 1), -1))
    return AiryBispectralReport(ok=eigen[0] and eigen[1] and shift,
                                verified_degree=M - 2)


def transpose_weyl(P: DiffOp, out_var: str) -> DiffOp:
    """Coordinate transpose x^a d^b -> z^b d_z^a on polynomial-coefficient
    operators.  This realizes the standard anti-isomorphism b with
    b(x) = d_z, b(d) = z (products reverse)."""
    out: dict[int, RatFunc] = {}
    terms: dict[int, Poly] = {}
    for j, c in P.coeffs.items():
        if not c.is_polynomial():
            raise ValueError("transpose requires polynomial coefficients")
        for a, coeff in enumerate(c.num.coeffs):
            if coeff == 0:
                continue
            terms[a] = terms.get(a, Poly.zero()) + Poly.monomial(j, coeff)
    for a, poly in terms.items():
        out[a] = RatFunc(poly)
    return DiffOp(out_var, out)


def airy_involution_by_transpose(P: DiffOp, A: DiffOp) -> DiffOp:
    """b(P) for b(d) = d_z, b(A) = z (lam = 1, polynomial P): write P
    over the Weyl pair (d, A) by x = d^N + sum a_j d^j + a_0 - A, with d
    relabelled as the function generator and A as the derivative, then
    transpose that generator to d_z and that derivative to z."""
    shape = airy_shape(A)
    assert shape.lam == 1 and P.has_polynomial_coeffs()
    var = "_w"
    N = shape.N
    x_image = DiffOp(var, {0: RatFunc(Poly.monomial(N) + Poly.const(shape.a0) + sum(
        (Poly.monomial(j).scale(aj) for j, aj in shape.a), Poly.zero()))}) - DiffOp.d(var)
    image = DiffOp.zero(var)
    for j, c in P.coeffs.items():
        xj = DiffOp.zero(var)
        for a, coeff in enumerate(c.num.coeffs):
            if coeff != 0:
                xj = xj + (x_image ** a).scale(coeff)
        image = image + dop_mul(xj, DiffOp.from_function(Poly.monomial(j), var))
    return transpose_weyl(image, "z")


def perturbation_obstruction_loop(L: DiffOp, max_steps: int) -> ObstructionTrace:
    """The leading-height walk from the top term c x^h d^k of the
    perturbation, testing for s = -1 before each of at most ``max_steps``
    steps and once more after them."""
    A, V = principal_part(L)
    shape = airy_shape(A)
    N, lam = shape.N, shape.lam
    if V.is_zero():
        return ObstructionTrace((), "clean", N, lam)
    h, k, lead = height(V)
    steps = [ObstructionStep(j=1, s=h, k=k, alpha=-lead)]
    s, alpha = h, -lead
    for _ in range(max_steps):
        if s == -1:
            return ObstructionTrace(tuple(steps), "obstructed", N, lam)
        alpha = -lam * alpha * Fraction(N * (s + 1) + k, N * (s + 1))
        s += 1
        steps.append(ObstructionStep(j=steps[-1].j + 1, s=s, k=k, alpha=alpha))
    if s == -1:
        return ObstructionTrace(tuple(steps), "obstructed", N, lam)
    return ObstructionTrace(tuple(steps), "inconclusive", N, lam)


def obstruction_recursion_holds(trace: ObstructionTrace) -> bool:
    """Whether consecutive steps of a trace follow the height recursion
    j' = j + 1, s' = s + 1, k' = k and
    alpha' = -lam * alpha * (N(s+1)+k) / (N(s+1))."""
    N, lam = trace.N, trace.lam
    return all(
        (b.j, b.s, b.k) == (a.j + 1, a.s + 1, a.k) and a.s != -1
        and b.alpha == -lam * a.alpha * Fraction(N * (a.s + 1) + a.k, N * (a.s + 1))
        for a, b in zip(trace.steps, trace.steps[1:]))


def laurent_expand_by_series(f: RatFunc, M: int) -> LaurentTail:
    """The expansion of f at infinity down to x^-M, as the power
    series num_rev/den_rev in t = 1/x divided term by term from the
    leading term on.  The reference for the long division of
    ``rational.laurent_expand``."""
    if f.is_zero():
        return LaurentTail._trusted({}, M)
    # in t = 1/x, num(x) = x^n * num_rev(t) and den likewise, so the tail
    # is the power series num_rev/den_rev in t from the leading index on
    num, den = f.num.coeffs[::-1], f.den.coeffs[::-1]
    start = len(den) - len(num)  # the leading term is in t^start
    lead = den[0]
    series: list[Fraction] = []
    terms: dict[int, Fraction] = {}
    for i in range(M - start + 1):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * series[i - j]
        c = acc / lead
        series.append(c)
        if c:
            terms[-start - i] = c
    return LaurentTail._trusted(terms, M)


def pade_by_joint_system(t: LaurentTail, degN: int, degD: int) -> Optional[RatFunc]:
    """The Pade solve with the numerator's coefficients as unknowns too:
    one nullspace over p_0..p_degN, q_0..q_degD whose rows are the
    coefficients of x^e in q*t - p, and the first vector with q != 0,
    checked by re-expansion.  The reference for the solve over the
    denominator alone in ``rational.rational_reconstruct``."""
    if t.trunc is None:
        raise ValueError("rational_reconstruct needs a truncated tail")
    count = t.known_count()
    if count < degN + degD + 2:
        raise InsufficientPrecision(
            f"need {degN + degD + 2} known coefficients, have {count}"
        )
    if t.is_zero():
        return RatFunc.zero()
    M = t.trunc
    e_max = max(degN, degD + max(t.terms))
    e_min = degD - M
    # unknowns: p_0..p_degN, q_0..q_degD ; rows: coefficient of x^e in q*t - p
    ncols = (degN + 1) + (degD + 1)
    rows = []
    for e in range(e_max, e_min - 1, -1):
        row = {e: Fraction(-1)} if 0 <= e <= degN else {}
        for i in range(degD + 1):
            c = t.coeff(e - i)
            if c != 0:
                row[degN + 1 + i] = c
        if row:
            rows.append(row)
    basis = nullspace(rows, ncols)
    for vec in basis:
        if max(vec) > degN:  # q != 0
            p = Poly([vec.get(k, Fraction(0)) for k in range(degN + 1)])
            q = Poly([vec.get(degN + 1 + i, Fraction(0)) for i in range(degD + 1)])
            f = RatFunc(p, q)
            # belt and braces: the reduced representative must re-expand to t
            return f if laurent_expand(f, M).terms == t.terms else None
    return None


def rat_antiderivative_by_rounds(g: RatFunc) -> RatFunc:
    """The antiderivative of g with zero constant term at infinity,
    proposed from the integrated tail at infinity under four rounds of
    growing degree bounds and certified by re-differentiation."""
    if g.is_zero():
        return RatFunc.zero()
    dn = max(g.num.degree - g.den.degree + 1, 0) + g.den.degree
    dd = g.den.degree
    for round_ in range(4):
        degN = dn + round_ * (dn + 2)
        degD = dd + round_ * (dd + 2)
        depth = degN + degD + 4 + max(0, -g.infinity_order())
        anti = laurent_expand(g, depth).antiderivative()  # LogObstruction
        try:
            cand = rational_reconstruct(anti, degN + 1, degD)
        except InsufficientPrecision:
            cand = None
        if cand is not None and cand.derivative() == g:
            return cand
    raise ReconstructionFailed("no rational antiderivative within degree bounds")


def lift_by_degree_search(tail: LaurentTail, m: int, J: int) -> Optional[RatFunc]:
    """The rational function matching ``tail`` (truncated at J) found by
    Pade solves at degree bounds d = 0, 1, ..., max(2m, 2), the first
    that succeeds; the search stops when 2d + 2 exceeds J + 1 or the tail
    holds too few known coefficients.  None when no bound succeeds."""
    for d in range(max(2 * m, 2) + 1):
        if 2 * d + 2 > J + 1:
            break
        try:
            cand = rational_reconstruct(tail, d, d)
        except InsufficientPrecision:
            break
        if cand is not None:
            return cand
    return None


def gcd_by_fraction_remainders(a: Poly, b: Poly) -> Poly:
    """The monic gcd by Euclid's algorithm over Q: a, b <- b, a mod b
    until b = 0."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def sturm_by_fraction_remainders(g: Poly) -> list[Poly]:
    """The Sturm sequence of a square-free g over Q: g, g', and then
    -(s_(i-1) mod s_i) until a constant."""
    seq = [g, g.derivative()]
    while seq[-1].degree > 0:
        seq.append(-seq[-2].divmod(seq[-1])[1])
    return seq


def sign_changes(values) -> int:
    """The sign changes of a sequence of numbers, zeros dropped."""
    signs = [v > 0 for v in values if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _divisors(n: int) -> set[int]:
    """The positive divisors of n != 0, by trial up to sqrt|n|."""
    n = abs(n)
    return {e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)}


def rational_roots_by_candidates(p: Poly) -> list[tuple[Fraction, int]]:
    """The rational roots of p (degree >= 1) with multiplicities, ascending,
    by the rational root theorem: after x^k is divided out, a root s/t in
    lowest terms of the integer multiple c_0 + ... + c_n x^n has s | c_0
    and t | c_n, and each candidate +-s/t is divided out as often as it
    divides.  The divisors of c_0 and c_n are found once, by trial, so
    c_0 and c_n must be small.

    For s/t in lowest terms, t x - s divides the integer polynomial
    exactly when the quotient has integer coefficients (Gauss's lemma),
    so the division runs in integers and stops at the first step that
    does not divide by t."""
    den = lcm(*(c.denominator for c in p.coeffs))
    cs = [int(c * den) for c in p.coeffs]
    roots = {}
    while not cs[0]:
        cs.pop(0)
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
    tops = _divisors(cs[-1])
    for s in _divisors(cs[0]):
        for t in tops:
            if gcd(s, t) != 1:
                continue
            for signed in (s, -s):
                while len(cs) > 1 and (q := _divide_by_linear(cs, signed, t)):
                    cs = q
                    roots[Fraction(signed, t)] = roots.get(Fraction(signed, t), 0) + 1
    return sorted(roots.items())


def _divide_by_linear(cs: list[int], s: int, t: int) -> Optional[list[int]]:
    """The quotient of c_0 + ... + c_n x^n by t x - s in integers, or None
    when the division is not exact: with quotient b_0..b_(n-1), c_n = t b_(n-1),
    c_i = t b_(i-1) - s b_i and the remainder c_0 + s b_0 must be 0."""
    acc, bs = 0, []
    for c in reversed(cs[1:]):
        acc, rem = divmod(c + s * acc, t)
        if rem:
            return None
        bs.append(acc)
    return bs[::-1] if cs[0] + s * acc == 0 else None


def wave_by_rebuilt_defect(L: DiffOp, f: Poly, J: int) -> PDO:
    """K = 1 + sum_{j=1}^J a_j d^-j with L K = K f(d) through J, for a
    monic L of order N >= 1 and f monic of degree N: at step j, a_j is
    the antiderivative of -1/N times the coefficient of d^(N-1-j) in
    L K - K f(d), recomputed from the whole of K."""
    N = L.order
    K = PDO.identity()
    for j in range(1, J + 1):
        target = wave_defect(L, f, K).coeff(N - 1 - j)
        if not target.is_zero():
            a_j = rat_antiderivative(target.scale(Fraction(-1, N)))
            K = PDO({**K.terms, -j: a_j}, None)
    return K.restrict(J)


def bounded_chain(L: DiffOp, theta: Poly):
    """``bounded_test`` on f from the split of L and the end of theta's ad
    chain, which may take at most deg theta + 1 brackets; NotCommuting
    when it does not end there."""
    f, _ = split_constant_part(L)
    end = ad_condition_min_m(L, theta, max(theta.degree, 0))
    if end is None:
        raise NotCommuting(f"theta = {theta} has no ad exponent")
    return bounded_test(L, f, theta, end[1])


# centralizer search with one denominator per power of d


def centralizer_by_degree_lcm(L: DiffOp, max_ord: int) -> CentralizerResult:
    """``centralizer_search``'s ansatz and result, with every bracket kept
    and the coefficients of d^k cleared by the lcm of their denominators."""
    d = max_ord
    num_degree = 2 * max(max_ord, L.order) + d
    basis_ops = [(j, i) for j in range(max_ord + 1) for i in range(num_degree + 1)]
    brackets = [commutator(L, DiffOp.monomial(RatFunc.x_power(i - d), j, L.var))
                for (j, i) in basis_ops]
    rows = []
    for k in sorted({k for B in brackets for k in B.coeffs}):
        den = Poly.one()
        for B in brackets:
            if k in B.coeffs:
                den = poly_lcm(den, B.coeffs[k].den)
        numers = [(den.exact_div(B.coeffs[k].den) * B.coeffs[k].num).coeffs
                  if k in B.coeffs else () for B in brackets]
        for e in range(max(len(n) for n in numers)):
            rows.append([n[e] if e < len(n) else Fraction(0) for n in numers])
    gens = []
    for vec in reversed(dense_nullspace(rows, len(basis_ops))):
        coeffs: dict[int, RatFunc] = {}
        for col in reversed(range(len(basis_ops))):
            if vec[col]:
                j, i = basis_ops[col]
                coeffs[j] = coeffs.get(j, RatFunc.zero()) + RatFunc.x_power(i - d, vec[col])
        gens.append(DiffOp(L.var, coeffs))
    orders = tuple(M.order for M in gens)
    nonconstant = [n for n in orders if n]
    return CentralizerResult(generators=tuple(gens), orders=orders,
                             rank=gcd(*nonconstant) if nonconstant else None)
