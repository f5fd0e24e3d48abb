"""Airy-adic calculus: reduction mod A, the bracket decompositions of the
wave recursion, the recursion's closed form and its obstruction traces
against the full recursion, kernel series, and the involution."""

import random
from fractions import Fraction

import pytest

from bispec import (
    DiffOp,
    NotAiryShape,
    ObstructionTrace,
    Poly,
    RatFunc,
    ZeroOperand,
    airy_bispectral_check,
    airy_involution,
    airy_kernel_series,
    airy_shape,
    airy_wave_solve,
    commutator,
    dop_mul,
    height,
    make_airy,
    parse_operator,
    perturbation_obstruction,
    right_divide,
)
import bispec.airy
from oracles import (airy_wave_deep, mono_add, mono_commutator, mono_mul, mono_of_diffop,
                     obstruction_recursion_holds, random_diffop)

d = DiffOp.d()
x = DiffOp.x()
A2 = make_airy(2)


def xpow(k, c=1):
    return DiffOp("x", {0: RatFunc.x_power(k, c)})


def mono(e, k=0, c=1):
    """c x^e d^k."""
    return dop_mul(xpow(e, c), d ** k)


def top_height(P):
    """The height of a nonzero operator: its largest x-exponent."""
    return height(P)[0]


def reconstructs(q, A, r, T):
    """T = q A + r, by the monomial-algebra product."""
    return mono_add(mono_mul(mono_of_diffop(q), mono_of_diffop(A)),
                    mono_of_diffop(r)) == mono_of_diffop(T)


class TestAiryShape:
    def test_strict(self):
        s = airy_shape(make_airy(3, {1: 5}))
        assert s.N == 3 and s.a == ((1, Fraction(5)),)
        assert s.strict

    def test_relaxed(self):
        s = airy_shape(d * d - x.scale(2) + DiffOp("x", {0: 7}))
        assert s.lam == 2 and s.a0 == 7 and not s.strict

    def test_rejects_subleading(self):
        with pytest.raises(NotAiryShape):
            airy_shape(d * d + d - x)

    def test_rejects_missing_x(self):
        with pytest.raises(NotAiryShape):
            airy_shape(d * d)


class TestReduceModA:
    """Reduction mod A is right division by A: T = q A + r, order(r) < N."""

    def test_constant_shift(self):
        q, r = right_divide(d * d, A2)
        assert q == DiffOp.one()
        assert r == x

    def test_cube(self):
        q, r = right_divide(d ** 3, A2)
        assert q == d
        assert r == x * d + DiffOp.one()

    def test_already_reduced(self):
        q, r = right_divide(x, A2)
        assert q.is_zero()
        assert r == x

    def test_reconstruction_random(self):
        rng = random.Random(91)
        for _ in range(25):
            A = make_airy(rng.choice([2, 3]), {})
            N = A.order
            T = random_diffop(rng, max_order=2 * N, max_degree=3, min_exponent=-2)
            q, r = right_divide(T, A)
            assert all(c.is_laurent_polynomial() for c in r.coeffs.values())
            assert dop_mul(q, A) + r == T
            assert r.order < N


class TestBracketDecompose:
    """[A, m] = b A + c, one right division by A."""

    @staticmethod
    def bracket(m):
        return right_divide(commutator(A2, m), A2)

    def test_pure_function(self):
        m = mono(2) + mono(0, c=3)  # x^2 + 3
        b, c = self.bracket(m)
        assert b.is_zero()
        # [d^2 - x, x^2 + 3] = 4x d + 2
        assert c == mono(1, 1, 4) + mono(0, c=2)

    def test_alpha_d(self):
        b, c = self.bracket(mono(0, 1))  # d
        assert b.is_zero()
        assert c == DiffOp.one()

    def test_constant(self):
        b, c = self.bracket(mono(0, c=5))
        assert b.is_zero() and c.is_zero()

    def test_consistency_and_height_relation(self):
        rng = random.Random(97)
        for _ in range(25):
            # recursion-shaped m: the d^0 part never dominates
            h1 = rng.randint(-4, 3)
            m = mono(h1, 1) + mono(rng.randint(-4, h1 + 1))
            lhs = commutator(A2, m)
            assert mono_of_diffop(lhs) == mono_commutator(mono_of_diffop(A2), mono_of_diffop(m))
            b, c = right_divide(lhs, A2)
            assert reconstructs(b, A2, c, lhs)
            if not b.is_zero():
                assert top_height(c) == top_height(b) + 1


class TestVDecompose:
    """V m = U A + W, one right division by A."""

    @staticmethod
    def v_parts(V, m):
        return right_divide(dop_mul(V, m), A2)

    def test_below_order(self):
        U, W = self.v_parts(xpow(-2), mono(0))
        assert U.is_zero()
        assert W == xpow(-2)

    def test_quotient_appears(self):
        # x^-1 d applied to d with N = 2: x^-1 d^2 = x^-1 A + 1
        U, W = self.v_parts(dop_mul(xpow(-1), d), mono(0, 1))
        assert U == xpow(-1)
        assert W == DiffOp.one()

    def test_function_argument(self):
        U, W = self.v_parts(xpow(-2), mono(0, 1))
        assert U.is_zero()
        assert W == mono(-2, 1)

    def test_height_bounds(self):
        rng = random.Random(103)
        for _ in range(20):
            hm = rng.randint(-3, 3)
            m = mono(hm, rng.randint(0, 1))
            V = xpow(rng.randint(-5, -2))
            U, W = self.v_parts(V, m)
            if not U.is_zero():
                assert top_height(U) <= hm - 2
            if not W.is_zero():
                assert top_height(W) <= hm - 1

    def test_reconstruction(self):
        rng = random.Random(107)
        for _ in range(20):
            m = sum((mono(rng.randint(-4, 3), k, rng.randint(-3, 3) or 1)
                     for k in range(2) if rng.random() < 0.8), DiffOp.zero()) or DiffOp.one()
            V = dop_mul(xpow(rng.randint(-5, -2)), d ** rng.randint(0, 1))
            U, W = self.v_parts(V, m)
            Vm = dop_mul(V, m)
            assert mono_of_diffop(Vm) == mono_mul(mono_of_diffop(V), mono_of_diffop(m))
            assert reconstructs(U, A2, W, Vm)


class TestWaveSolve:
    """The closed form: K = 1 exactly when V = 0, and otherwise the walk."""

    def test_exact_airy_identity(self):
        assert airy_wave_solve(A2, 5).verdict == "clean"

    def test_exact_airy_with_parameters(self):
        assert airy_wave_solve(make_airy(3, {1: 5}), 4).verdict == "clean"

    def test_perturbed_obstructs(self):
        out = airy_wave_solve(A2 + xpow(-2), 10)
        assert isinstance(out, ObstructionTrace)
        assert out.obstructed

    def test_third_order_perturbed(self):
        L = make_airy(3) + dop_mul(xpow(-1), d)
        out = airy_wave_solve(L, 10)
        assert isinstance(out, ObstructionTrace) and out.obstructed

    def test_residual_for_identity(self):
        # the full recursion of an unperturbed operator has every m_j zero
        A = make_airy(3, {1: 5})
        assert airy_wave_solve(A, 4).verdict == "clean"
        assert airy_wave_deep(A, 4) == {j: {} for j in range(1, 5)}

    def test_residual_for_deep_perturbation(self):
        # an obstruction deeper than the truncation is still the answer:
        # the truncation is not read
        L = A2 + xpow(-9)
        assert airy_wave_solve(L, 2) == airy_wave_solve(L, 12) == perturbation_obstruction(L)
        assert airy_wave_solve(L, 2).obstructed

    def test_partial_solve_nontrivial(self):
        # obstruction at height -1 needs nine steps; the full recursion
        # through J = 4 stays formal and has genuine coefficients
        L = A2 + xpow(-9)
        m = airy_wave_deep(L, 4)
        # 2 alpha_{1,1}' = -x^-9
        assert m[1][(-8, 1)] == Fraction(1, 16)
        deep = airy_wave_solve(L, 12)
        assert isinstance(deep, ObstructionTrace) and deep.obstructed
        assert [s.s for s in deep.steps] == list(range(-9, 0))
        assert airy_wave_deep(L, len(deep.steps)) is None

    def test_past_the_cap_is_inconclusive(self):
        # the walk from x^-30 needs 29 steps; the 24-step cap stops it
        trace = airy_wave_solve(parse_operator("d^2 - x + x^-30"), 1)
        assert trace.verdict == "inconclusive" and len(trace.steps) == 25

    @pytest.mark.parametrize("J", [0, -1])
    def test_truncation_below_one(self, J):
        with pytest.raises(ValueError):
            airy_wave_solve(A2, J)

    def test_subleading_perturbation_is_refused(self):
        with pytest.raises(NotAiryShape):
            airy_wave_solve(parse_operator("d^3 - x + x^-2*d^2"), 4)


def perturbed_airy(rng):
    """(L, J): a generalized Airy operator of order N in {2, 3, 5} plus one
    or two terms c B^-e d^k, B in {x, x + a, x^2 + 1}, e <= 9, k <= N - 2,
    and a truncation J <= 8."""
    N = rng.choice([2, 3, 5])
    L = make_airy(N, {j: rng.choice([-2, -1, 1, 3]) for j in range(1, N - 1)
                      if rng.random() < 0.5})
    for _ in range(rng.choice([1, 2])):
        B = rng.choice([Poly([0, 1]), Poly([rng.choice([-2, -1, 1, 2]), 1]), Poly([1, 0, 1])])
        c = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3]))
        L = L + DiffOp("x", {rng.randrange(N - 1): RatFunc(Poly([c]), B ** rng.randint(1, 9))})
    return L, rng.randint(1, 8)


class TestWalkAgainstTheFullRecursion:
    """The full recursion (``oracles.airy_wave_deep``, which shares no
    product with the library) needs its logarithm exactly where the walk
    ends, and the walk's steps, alphas included, are the leading terms of
    its m_j."""

    def test_logarithm_exactly_at_the_last_step(self):
        walks = 0
        for seed in (1, 2):
            rng = random.Random(seed)
            for _ in range(40):
                L, _ = perturbed_airy(rng)
                trace = airy_wave_solve(L, 1)
                assert trace.obstructed
                last = trace.steps[-1].j
                if last > 5:  # the deep solves grow fast with the depth
                    continue
                walks += 1
                assert airy_wave_deep(L, last, extra=4) is None
                if last == 1:
                    continue
                m = airy_wave_deep(L, last - 1, extra=4)
                assert m is not None
                for step in trace.steps[:-1]:
                    # b_j leads with alpha x^s d^k, so m_j with x^(s+1)
                    # d^(k+1), whose coefficient b_j takes N (s+1) times
                    lead = (step.s + 1, step.k + 1)
                    assert max(m[step.j]) == lead
                    assert step.alpha == trace.shape.N * (step.s + 1) * m[step.j][lead]
        assert walks >= 45


class TestPerturbationObstruction:
    def test_clean(self):
        assert perturbation_obstruction(A2).verdict == "clean"

    def test_order_two(self):
        trace = perturbation_obstruction(A2 + xpow(-2), 10)
        assert trace.obstructed
        assert [s.s for s in trace.steps] == [-2, -1]
        assert all(s.alpha != 0 for s in trace.steps)
        assert obstruction_recursion_holds(trace)

    def test_order_three_derivative_term(self):
        L = make_airy(3, {1: 1}) + dop_mul(xpow(-1), d)
        trace = perturbation_obstruction(L, 10)
        assert trace.obstructed
        assert trace.steps[-1].s == -1
        assert trace.steps[0].k == 1

    def test_clean_iff_zero_corpus(self):
        rng = random.Random(109)
        corpus = []
        for p in (2, 3, 5):
            corpus.append(make_airy(p))
            corpus.append(make_airy(p, {j: rng.randint(-3, 3)
                                        for j in range(1, p - 1)}))
        for A in corpus:
            assert perturbation_obstruction(A).verdict == "clean"
        for A in corpus:
            N = A.order
            k = rng.randint(0, N - 2)
            h = rng.randint(-6, -1)
            V = dop_mul(xpow(h, rng.choice([1, -2, 3])), d ** k)
            trace = perturbation_obstruction(A + V, 20)
            assert trace.obstructed

    def test_steps_advance_by_one(self):
        trace = perturbation_obstruction(A2 + xpow(-5, 3), 20)
        assert trace.obstructed
        assert [s.s for s in trace.steps] == [-5, -4, -3, -2, -1]


class TestKernelSeries:
    def test_classic(self):
        s = airy_kernel_series(A2, (1, 0), 7)
        assert s == Poly([1, 0, 0, Fraction(1, 6), 0, 0, Fraction(1, 180)])

    def test_second_solution(self):
        s = airy_kernel_series(A2, (0, 1), 5)
        assert s == Poly([0, 1, 0, 0, Fraction(1, 12)])

    def test_third_order(self):
        s = airy_kernel_series(make_airy(3), (1, 0, 0), 5)
        assert s == Poly([1, 0, 0, 0, Fraction(1, 24)])

    def test_annihilated(self):
        # A2 = d^2 - x on the Taylor polynomial cut at degree 12 cancels
        # through degree 10; what is left is -x times the top term
        s = airy_kernel_series(A2, (1, 0), 12)
        assert s.coeff(12) != 0
        out = s.derivative().derivative() - Poly.x() * s
        assert out == Poly.monomial(13, -s.coeff(12))


class TestBispectralCheck:
    @pytest.mark.parametrize("A", [make_airy(2), make_airy(3),
                                   make_airy(3, {1: 5})])
    def test_identities(self, A):
        assert airy_bispectral_check(A, 12) is True

    @pytest.mark.parametrize("A", [make_airy(2), make_airy(3, {1: 5})])
    def test_checked_through_degree_M_minus_2(self, A, monkeypatch):
        # x^k added to Phi adds k!/(k - N)! x^(k - N) to A Phi and nothing
        # of lower degree: the check of M = 8 sees it at k = M + N - 2
        # (degree 6) and not at k = M + N - 1 (degree 7)
        kernel = bispec.airy.airy_kernel_series
        N, M = A.order, 8
        assert airy_bispectral_check(A, M) is True
        for k, holds in ((M + N - 2, False), (M + N - 1, True)):
            monkeypatch.setattr(bispec.airy, "airy_kernel_series",
                                lambda op, init, n, k=k: kernel(op, init, n) + Poly.monomial(k))
            assert airy_bispectral_check(A, M) is holds


class TestAiryInvolution:
    def test_generator_images(self):
        assert airy_involution(d, A2) == DiffOp.d("z")
        assert airy_involution(A2, A2) == DiffOp.x("z")
        assert airy_involution(x, A2) == DiffOp("z", A2.coeffs)

    def test_anti_homomorphism(self):
        rng = random.Random(113)
        A = make_airy(3, {1: 2})
        for _ in range(15):
            P = random_diffop(rng, max_order=2, max_degree=2)
            Q = random_diffop(rng, max_order=2, max_degree=2)
            lhs = airy_involution(dop_mul(P, Q), A)
            rhs = dop_mul(airy_involution(Q, A), airy_involution(P, A))
            assert lhs == rhs


class TestHeight:
    def test_x_dominates(self):
        L = DiffOp("x", {1: RatFunc(Poly([0, 0, 1])), 0: RatFunc(Poly([0, 0, 0, 1]))})
        assert height(L) == (3, 0, Fraction(1))

    def test_tie_broken_by_derivative(self):
        L = DiffOp("x", {2: RatFunc.x(), 1: RatFunc.x()})
        assert height(L) == (1, 2, Fraction(1))

    def test_constant(self):
        assert height(DiffOp("x", {0: 5}))[0] == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroOperand):
            height(DiffOp.zero())
