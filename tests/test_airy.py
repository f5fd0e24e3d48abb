"""Airy-adic calculus: reduction mod A, the bracket decompositions of the
wave recursion, the recursion itself, obstruction traces, kernel series,
and the involution."""

import random
from fractions import Fraction

import pytest

from bispec import (
    AiryPDO,
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
    airy_wave_residual,
    airy_wave_solve,
    dop_mul,
    height,
    make_airy,
    parse_operator,
    perturbation_obstruction,
    right_divide,
)
from bispec.airy import AiryBispectralReport, _contributions, _divide, _top
from bispec.diffop import TOp
from oracles import (airy_wave_deep, mono_add, mono_commutator, mono_cut, mono_mul,
                     mono_of_top, obstruction_recursion_holds, random_diffop, top_height)

d = DiffOp.d()
x = DiffOp.x()
A2 = make_airy(2)
DEPTH = 24  # deeper than every tail of the tests below
AT2 = _top(A2, DEPTH)


def xpow(k, c=1):
    return DiffOp.from_function(RatFunc.x_power(k, c))


def mono(e, k=0, c=1):
    """c x^e d^k in the Laurent Weyl algebra."""
    return TOp({(k, e): Fraction(c)})


def reconstructs(q, A, r, T):
    """T = q A + r, by the monomial-algebra product."""
    return mono_add(mono_mul(mono_of_top(q), mono_of_top(A)), mono_of_top(r)) == mono_of_top(T)


class TestAiryShape:
    def test_strict(self):
        s = airy_shape(make_airy(3, {1: 5}))
        assert s.N == 3 and s.a == ((1, Fraction(5)),)
        assert s.strict

    def test_relaxed(self):
        s = airy_shape(d * d - x.scale(2) + DiffOp.const(7))
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
    """[A, m] = b A + c, ``_contributions`` with V = 0, so L = A."""

    @staticmethod
    def bracket(m):
        return _contributions(m, AT2, AT2, DEPTH)

    def test_pure_function(self):
        m = mono(2) + mono(0, c=3)  # x^2 + 3
        b, c = self.bracket(m)
        assert not b.terms
        # [d^2 - x, x^2 + 3] = 4x d + 2
        assert c.terms == {(1, 1): 4, (0, 0): 2}

    def test_alpha_d(self):
        b, c = self.bracket(mono(0, 1))  # d
        assert not b.terms
        assert c.terms == {(0, 0): 1}

    def test_constant(self):
        b, c = self.bracket(mono(0, c=5))
        assert not b.terms and not c.terms

    def test_consistency_and_height_relation(self):
        rng = random.Random(97)
        for _ in range(25):
            # recursion-shaped m: the d^0 part never dominates
            h1 = rng.randint(-4, 3)
            m = mono(h1, 1) + mono(rng.randint(-4, h1 + 1))
            lhs = AT2 * m - m * AT2
            assert mono_of_top(lhs) == mono_commutator(mono_of_top(AT2), mono_of_top(m))
            b, c = _divide(lhs, AT2)
            assert reconstructs(b, AT2, c, lhs)
            if b.terms:
                assert top_height(mono_of_top(c)) == top_height(mono_of_top(b)) + 1


class TestVDecompose:
    """V m = U A + W, one division by A in the Laurent Weyl algebra."""

    @staticmethod
    def v_parts(V, m):
        return _divide(_top(V, DEPTH) * m, AT2)

    def test_below_order(self):
        U, W = self.v_parts(xpow(-2), mono(0))
        assert not U.terms
        assert W.terms == {(0, -2): 1}

    def test_quotient_appears(self):
        # x^-1 d applied to d with N = 2: x^-1 d^2 = x^-1 A + 1
        U, W = self.v_parts(dop_mul(xpow(-1), d), mono(0, 1))
        assert U.terms == {(0, -1): 1}
        assert W.terms == {(0, 0): 1}

    def test_function_argument(self):
        U, W = self.v_parts(xpow(-2), mono(0, 1))
        assert not U.terms
        assert W.terms == {(1, -2): 1}

    def test_height_bounds(self):
        rng = random.Random(103)
        for _ in range(20):
            hm = rng.randint(-3, 3)
            m = mono(hm, rng.randint(0, 1))
            V = xpow(rng.randint(-5, -2))
            U, W = self.v_parts(V, m)
            if U.terms:
                assert top_height(mono_of_top(U)) <= hm - 2
            if W.terms:
                assert top_height(mono_of_top(W)) <= hm - 1

    def test_reconstruction(self):
        rng = random.Random(107)
        for _ in range(20):
            m = TOp({(k, rng.randint(-4, 3)): Fraction(rng.randint(-3, 3) or 1)
                     for k in range(2) if rng.random() < 0.8} or {(0, 0): Fraction(1)})
            V = dop_mul(xpow(rng.randint(-5, -2)), d ** rng.randint(0, 1))
            U, W = self.v_parts(V, m)
            Vm = _top(V, DEPTH) * m
            assert mono_of_top(Vm) == mono_mul(mono_of_top(_top(V, DEPTH)), mono_of_top(m))
            assert reconstructs(U, AT2, W, Vm)


class TestWaveSolve:
    def test_exact_airy_identity(self):
        K = airy_wave_solve(A2, 5)
        assert isinstance(K, AiryPDO) and K.is_identity()

    def test_exact_airy_with_parameters(self):
        K = airy_wave_solve(make_airy(3, {1: 5}), 4)
        assert isinstance(K, AiryPDO) and K.is_identity()

    def test_perturbed_obstructs(self):
        out = airy_wave_solve(A2 + xpow(-2), 10)
        assert isinstance(out, ObstructionTrace)
        assert out.obstructed

    def test_third_order_perturbed(self):
        L = make_airy(3) + dop_mul(xpow(-1), d)
        out = airy_wave_solve(L, 10)
        assert isinstance(out, ObstructionTrace) and out.obstructed

    def test_residual_for_identity(self):
        K = airy_wave_solve(make_airy(3, {1: 5}), 4)
        assert airy_wave_residual(make_airy(3, {1: 5}), K)

    def test_residual_for_deep_perturbation(self):
        # an obstruction deeper than the solve depth: a partial solve
        # comes back and its residual must vanish through truncation
        L = A2 + xpow(-9)
        out = airy_wave_solve(L, 2)
        if isinstance(out, AiryPDO):
            assert airy_wave_residual(L, out)
        else:
            assert out.obstructed

    def test_partial_solve_nontrivial(self):
        # obstruction at height -1 needs nine steps; with J = 4 the solve
        # stays formal and returns genuine coefficients
        L = A2 + xpow(-9)
        out = airy_wave_solve(L, 4)
        assert isinstance(out, AiryPDO) and not out.is_identity()
        # 2 alpha_{1,1}' = -x^-9
        assert out.coeff(1).terms[(1, -8)] == Fraction(1, 16)
        assert airy_wave_residual(L, out)
        deep = airy_wave_solve(L, 12)
        assert isinstance(deep, ObstructionTrace) and deep.obstructed
        assert [s.s for s in deep.steps] == list(range(-9, 0))


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


class TestDepthRule:
    """m_j is exact through x^-(D - j), D = J + N + 4, and the residual
    check accepts every solve."""

    @pytest.mark.parametrize("J", [1, 2, 3])
    def test_regression_d0_part_of_m1(self, J):
        out = airy_wave_solve(parse_operator("d^3 - x^-5*d - x"), J)
        m10 = out.tails(1)[0]
        assert m10.coeff(-6) == Fraction(-10, 9)
        assert m10.trunc == J + 3 + 4 - 1

    @pytest.mark.parametrize("J", [1, 5])
    def test_perturbation_below_the_depth_is_no_identity(self, J):
        # V = -3/2 (x^2+1)^-6 starts at x^-12, below D = J + 6 for J <= 5:
        # every m_j is zero as far as it is known, which is not K = 1
        L = parse_operator("d^2 - x - 3/2*(x^2+1)^-6")
        K = airy_wave_solve(L, J)
        assert isinstance(K, AiryPDO) and not K.is_identity()
        assert K.mjs == {j: TOp({}) for j in range(1, J + 1)}
        assert {j: {k: str(t) for k, t in K.tails(j).items()} for j in K.mjs} == {
            j: {0: f"0 + O(x^-{J + 7 - j})"} for j in range(1, J + 1)}
        assert airy_wave_residual(L, K)
        # one more equation reaches V's first term
        assert airy_wave_solve(L, 6).coeff(1).terms == {(1, -11): Fraction(-3, 44)}

    def test_reported_coefficients_match_a_deeper_solve(self):
        solves = 0
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            for _ in range(20):
                L, J = perturbed_airy(rng)
                K = airy_wave_solve(L, J)
                if not isinstance(K, AiryPDO):
                    continue
                assert airy_wave_residual(L, K)
                solves += not K.is_identity()
                deep = airy_wave_deep(L, J)
                D = J + L.order + 4
                assert sorted(K.mjs) == list(range(1, J + 1))
                for j in range(1, J + 1):
                    assert mono_of_top(K.coeff(j)) == mono_cut(deep[j], D - j)
                    assert all(t.trunc == D - j for t in K.tails(j).values())
        assert solves >= 20


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
        rep = airy_bispectral_check(A, 12)
        assert rep.ok
        assert rep.verified_degree == 10

    def test_report_is_one_bit_and_its_degree(self):
        assert airy_bispectral_check(make_airy(2), 8) == AiryBispectralReport(True, 6)


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
        assert height(DiffOp.const(5))[0] == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroOperand):
            height(DiffOp.zero())
