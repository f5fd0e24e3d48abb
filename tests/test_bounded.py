"""Wave operators, theta conjugation, the anti-isomorphism b, Lambda
reconstruction, the obstruction chain, and centralizer search."""

import random
import tracemalloc
from fractions import Fraction
from math import factorial

import bispec.bounded
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bispec import (
    BispecError,
    Budgets,
    DiffOp,
    LogObstruction,
    NotInDomain,
    NotCommuting,
    NotMonic,
    NotRankOrderCase,
    PDO,
    Poly,
    RatFunc,
    TruncationTooShort,
    UnboundedCoefficient,
    ad_condition_min_m,
    bounded_test,
    build_lambda,
    centralizer_search,
    classify,
    commutator,
    conjugate_theta,
    dop_mul,
    involution_b,
    laurent_expand,
    make_constcoeff,
    parse_operator,
    print_operator,
    split_constant_part,
    wave_defect,
    wave_operator,
    wave_residual_zero,
)
from bispec.bounded import _expand_in_L, pade_lift
from bispec.diffop import anti_homomorphism
from oracles import (
    bounded_chain,
    centralizer_by_degree_lcm,
    involution_b_as_pdo,
    lift_by_degree_search,
    random_diffop,
    random_poly,
    transpose_weyl,
    wave_by_rebuilt_defect,
)

d = DiffOp.d()
x = DiffOp.x()


def xpow(k, c=1):
    return DiffOp("x", {0: RatFunc.x_power(k, c)})


def b_of(P):
    """b(x) = d_z, b(d) = z on a differential operator: the Weyl-algebra
    anti-homomorphism with those images, x and z swapped."""
    var = "z" if P.var == "x" else "x"
    return anti_homomorphism(P, DiffOp.d(var), DiffOp.x(var))


def lambda_wave(L, J):
    """The wave operator that Lambda is built from, as classify makes it."""
    return wave_operator(L, split_constant_part(L)[0], J)


L_KDV = d * d - xpow(-2, 2)  # d^2 - 2 x^-2
THETA2 = Poly([0, 0, 1])     # x^2


class TestSplitConstantPart:
    def test_decaying(self):
        f, V = split_constant_part(L_KDV)
        assert f == Poly([0, 0, 1])
        assert V == xpow(-2, -2)

    def test_mixed(self):
        f, V = split_constant_part(d ** 3 + d - xpow(-1))
        assert f == Poly([0, 1, 0, 1])
        assert V == xpow(-1, -1)

    def test_constant_coefficient(self):
        f, V = split_constant_part(d * d)
        assert f == Poly([0, 0, 1]) and V.is_zero()

    def test_unbounded(self):
        with pytest.raises(UnboundedCoefficient):
            split_constant_part(d * d - x)

    def test_rational_constants(self):
        L = d * d + DiffOp("x", {0: RatFunc(Poly([1, 3]), Poly([2, 1]))})
        f, V = split_constant_part(L)
        assert f.coeff(0) == 3
        assert all(c.infinity_order() <= -1 for c in V.coeffs.values())


class TestWaveOperator:
    def test_trivial(self):
        K = wave_operator(d * d, Poly([0, 0, 1]), 5)
        assert dict(K.terms) == {0: RatFunc.one()} and K.trunc == 5
        assert wave_residual_zero(d * d, Poly([0, 0, 1]), K)

    def test_kdv(self):
        f, _ = split_constant_part(L_KDV)
        K = wave_operator(L_KDV, f, 5)
        assert K.coeff(-1) == RatFunc.x_power(-1, -1)
        assert all(K.coeff(-j).is_zero() for j in range(2, 6))
        assert wave_residual_zero(L_KDV, f, K)

    @pytest.mark.parametrize("L", [
        (d * d).scale(2),
        DiffOp("x", {2: RatFunc(Poly([1, 1]), Poly([0, 1]))}),  # (1 + x^-1) d^2
    ])
    def test_non_monic_rejected(self, L):
        # 2 d^2 has f = 2 z^2 and used to raise ValueError; (1 + x^-1) d^2
        # has f = z^2 and used to return a K with L K != K f(d)
        f, _ = split_constant_part(L)
        with pytest.raises(NotMonic):
            wave_operator(L, f, 3)

    @pytest.mark.parametrize("text, slot", [
        ("d^3 + x^-1*d^2", "the d^2 coefficient of L - f(d) is (1)/(x)"),
        ("d^2 + (x+1)^-1*d - 2*x^-2", "the d^1 coefficient of L - f(d) is (1)/(x + 1)"),
    ], ids=["order-3", "order-2"])
    def test_nonzero_subleading_slot_is_refused(self, text, slot):
        # that slot of L K - K f(d) is the same for every K, and the loop
        # never reads it: a K with L K != K f(d) used to be returned
        L = parse_operator(text)
        f, _ = split_constant_part(L)
        with pytest.raises(NotInDomain) as caught:
            wave_operator(L, f, 4)
        assert str(caught.value) == f"{slot}; gauge-normalize L first"
        # a constant in that slot goes into f, which matches it
        L = parse_operator("d^3 + d^2 + x^-2")
        f, _ = split_constant_part(L)
        assert wave_residual_zero(L, f, wave_operator(L, f, 4))

    def test_log_obstruction(self):
        with pytest.raises(LogObstruction):
            wave_operator(d * d + xpow(-1), Poly([0, 0, 1]), 2)

    def test_defect_vanishes_third_order(self):
        L = d ** 3 + xpow(-2) - xpow(-4, 6)
        f, _ = split_constant_part(L)
        K = wave_operator(L, f, 4)
        assert wave_residual_zero(L, f, K)
        E = wave_defect(L, f, K)
        assert all(c.is_zero() for k, c in E.terms.items() if k >= 3 - K.trunc - 1)

    POLES = [Poly([0, 1]), Poly([1, 1]), Poly([-2, 1]), Poly([1, 0, 1])]

    @staticmethod
    def _solved(solve, L, J):
        f, _ = split_constant_part(L)
        try:
            K = solve(L, f, J)
        except BispecError as e:
            return type(e), str(e)
        return K.terms, K.trunc

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 10),
           st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                              st.integers(0, 3), st.integers(1, 3),
                              st.integers(0, 4)),
                    min_size=1, max_size=3),
           st.integers(-2, 2))
    @example(3, 10, [(1, 2, 2, 0)], 0)   # d^3 + (x-2)^-2: rational through 10
    @example(2, 10, [(-2, 0, 2, 0)], 1)  # d^2 + 1 - 2*x^-2: K ends at a_1
    def test_running_defect_equals_the_rebuilt_one(self, N, J, parts, c0):
        # d^N + c0 plus, for each (c, pole, e, k), c * B^-e * d^(k mod
        # (N - 1)) with B one of POLES: 0, -1, 2 and the roots of x^2 + 1;
        # no d^(N-1) term, as in the operators classify solves for
        L = d ** N + DiffOp("x", {0: RatFunc.const(c0)})
        for c, pole, e, k in parts:
            B = RatFunc(Poly([c]), self.POLES[pole] ** e)
            L = L + DiffOp("x", {k % (N - 1): B})
        assert (self._solved(wave_operator, L, J)
                == self._solved(wave_by_rebuilt_defect, L, J))

    def test_coefficients_vanish_at_infinity(self):
        L = d ** 3 + xpow(-2) - xpow(-4, 6)
        f, _ = split_constant_part(L)
        K = wave_operator(L, f, 4)
        for k, c in K.terms.items():
            if k < 0:
                assert c.infinity_order() <= -1


class TestConjugateTheta:
    def test_identity_wave(self):
        K = wave_operator(d * d, Poly([0, 0, 1]), 4)
        conj = conjugate_theta(K, Poly([0, 1]))
        assert dict(conj.terms) == {0: RatFunc.x()} and conj.trunc == 4

    def test_zero_theta(self):
        f, _ = split_constant_part(L_KDV)
        conj = conjugate_theta(wave_operator(L_KDV, f, 6), Poly.zero())
        assert conj.terms == {} and conj.trunc == 6

    def test_kdv_theta_squared(self):
        f, _ = split_constant_part(L_KDV)
        conj = conjugate_theta(wave_operator(L_KDV, f, 6), THETA2)
        assert all(c.is_polynomial() for c in conj.terms.values())
        assert max(c.num.degree for c in conj.terms.values()) == 2
        # degree exactly m attained at the head
        assert conj.coeff(0) == RatFunc(THETA2)
        assert conj.coeff(-2) == RatFunc.const(-2)

    def test_kdv_theta_linear_fails(self):
        f, _ = split_constant_part(L_KDV)
        conj = conjugate_theta(wave_operator(L_KDV, f, 6), Poly([0, 1]))
        assert not all(c.is_polynomial() for c in conj.terms.values())

    def test_degree_bound_property(self):
        # for admissible theta every coefficient has degree <= m
        f, _ = split_constant_part(L_KDV)
        conj = conjugate_theta(wave_operator(L_KDV, f, 8), THETA2)
        for j, c in conj.terms.items():
            assert c.is_polynomial() and c.num.degree <= 2


class TestInvolutionB:
    """b on operators is ``anti_homomorphism`` (``b_of``); on series it is
    ``involution_b``."""

    def test_generators(self):
        assert b_of(x) == DiffOp.d("z")
        assert b_of(d * d) == DiffOp("z", {0: RatFunc(Poly([0, 0, 1]))})
        assert b_of(dop_mul(x, d)) == DiffOp("z", {1: RatFunc.x()})

    def test_anti_homomorphism(self):
        rng = random.Random(83)
        for _ in range(30):
            P = random_diffop(rng, max_order=3, max_degree=3)
            Q = random_diffop(rng, max_order=3, max_degree=3)
            assert b_of(dop_mul(P, Q)) == dop_mul(b_of(Q), b_of(P))

    def test_involutive(self):
        rng = random.Random(89)
        for _ in range(20):
            P = random_diffop(rng, max_order=3, max_degree=3)
            back = b_of(b_of(P))
            assert back == DiffOp(back.var, P.coeffs)

    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 4), st.lists(small, max_size=5).map(Poly),
                           max_size=4),
           st.sampled_from(["x", "z"]))
    def test_matches_the_coordinate_transpose(self, coeffs, var):
        P = DiffOp(var, coeffs)
        assert b_of(P) == transpose_weyl(P, "z" if var == "x" else "x")

    def test_needs_polynomial_coefficients(self):
        with pytest.raises(NotInDomain):
            b_of(DiffOp("x", {1: RatFunc.x_power(-1)}))

    def test_pdo_image(self):
        K = PDO({0: RatFunc.one(), -1: RatFunc(Poly([0, 1])),
                 -2: RatFunc(Poly([1, 0, 3]))}, 4)
        S = involution_b(K)
        # z^k a_k(d_z), keyed by the power of d_z: x at d^-1 becomes
        # d_z times the tail z^-1
        assert S.keys() == {0, 1, 2}
        assert S[1] == {-1: 1}
        assert S[0] == {0: 1, -2: 1}
        assert S[2] == {-2: 3}

    def test_series_image_matches_the_tail_valued_pdo(self):
        rng = random.Random(97)
        for _ in range(40):
            trunc = rng.choice([None, 1, 3, 5])
            terms = {j: RatFunc(random_poly(rng, 3))
                     for j in rng.sample(range(-2, 6), rng.randint(0, 4))}
            P = PDO(terms, trunc)
            assert involution_b_as_pdo(P).terms == involution_b(P)

    def test_series_image_needs_polynomial_coefficients(self):
        with pytest.raises(NotInDomain):
            involution_b(PDO({-1: RatFunc.x_power(-1)}, 3))


class TestPDOCoefficients:
    def test_coerced_as_in_diffop(self):
        P = PDO({-1: 1, 0: Fraction(1, 2), 1: Poly([0, 1]), 2: 0}, 4)
        assert P == PDO._trusted({-1: RatFunc.one(), 0: RatFunc.const(Fraction(1, 2)),
                                       1: RatFunc.x()}, 4)

    def test_tail_refused(self):
        tail = {1: Fraction(1)}  # a Laurent tail's exponent map
        with pytest.raises(NotInDomain):
            PDO({0: RatFunc.one(), 1: tail}, 3)
        with pytest.raises(NotInDomain):
            DiffOp("x", {0: tail})


class TestDeeperPotential:
    """The next rational potential -6 x^-2: two nonzero wave coefficients
    and an x <-> z symmetric dual operator."""

    L6 = d * d - DiffOp("x", {0: RatFunc.x_power(-2, 6)})

    def test_wave_coefficients(self):
        f, _ = split_constant_part(self.L6)
        K = wave_operator(self.L6, f, 6)
        assert K.coeff(-1) == RatFunc.x_power(-1, -3)
        assert K.coeff(-2) == RatFunc.x_power(-2, 3)
        assert all(K.coeff(-j).is_zero() for j in range(3, 7))
        assert wave_residual_zero(self.L6, f, K)

    def test_dual_operator(self):
        lam = build_lambda(lambda_wave(self.L6, 10), THETA2)
        assert lam == DiffOp("z", {2: RatFunc.one(), 0: RatFunc.x_power(-2, -6)})

    def test_chain(self):
        rep = bounded_chain(self.L6, THETA2)
        assert rep["failures"] == [] and rep["q"] == [0, 8]


class TestBuildLambda:
    def test_free_operator(self):
        lam = build_lambda(lambda_wave(d * d, 6), Poly([0, 1]))
        assert lam == DiffOp.d("z") and lam.order == 1

    def test_kdv(self):
        lam = build_lambda(lambda_wave(L_KDV, 8), THETA2)
        assert lam.order == 2
        assert lam == DiffOp("z", {2: RatFunc.one(), 0: RatFunc.x_power(-2, -2)})

    def test_unbounded_routed(self):
        # Lambda starts from K, whose f(d) comes from the split, and the
        # split routes an unbounded operator to the Airy branch
        with pytest.raises(UnboundedCoefficient):
            lambda_wave(d * d - x, 6)

    def test_reuses_the_callers_wave_operator(self, monkeypatch):
        K = lambda_wave(L_KDV, 8)
        for name in ("split_constant_part", "wave_operator"):
            monkeypatch.setattr(bispec.bounded, name, None)
        assert build_lambda(K, THETA2).order == 2

    def test_short_zero_tail_is_refused(self):
        # at trunc 1 the d_z^0 tail of d^2 - 2 z^-2 is zero through z^-1,
        # which cannot tell it from a coefficient starting at z^-4
        with pytest.raises(TruncationTooShort, match=r"d_z\^0 is zero only through trunc 1"):
            build_lambda(lambda_wave(L_KDV, 1), THETA2)

    @pytest.mark.parametrize("text,P,theta,trunc,lam", [
        ("d^2 - 2*x^-2", "d - x^-1", None, 1, None),
        ("d^2 - 2*x^-2", "d - x^-1", None, 8, "d^2 - 2*z^-2"),
        ("d^2 - 2*x^-2", "d - x^-1", None, 16, "d^2 - 2*z^-2"),
        ("d^2 - (6*x^4 - 12*x)*(x^3+1)^-2", None, Poly([1, 0, 0, 2, 0, 0, 1]), 1, None),
    ])
    def test_classify_reports_no_unproven_lambda(self, text, P, theta, trunc, lam):
        # d^2 and d^6 + 2*d^3 + 1 used to be reported at trunc 1
        r = classify(text, P=P and parse_operator(P), theta=theta,
                     budgets=Budgets(trunc=trunc))
        assert r["verdict"] == "MonomialDarbouxCandidate(4)"
        got = r["certificates"].get("lambda")
        assert (got and print_operator(got)) == lam
        short = [e for e in r["errors"] if e.startswith("TruncationTooShort")]
        assert bool(short) == (lam is None)

    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(small, min_size=1, max_size=4),
           st.lists(small, min_size=1, max_size=4),
           st.integers(1, 16), st.integers(0, 3), st.integers(0, 8))
    def test_one_solve_equals_the_degree_search(self, num, den, J, m, k):
        # shifting by x^-k keeps the truncation J and shortens the known
        # part, so the known-count cap binds, down to tails too short
        # for any solve
        assume(any(den))
        f = RatFunc(Poly(num), Poly(den))
        tail = {e - k: c for e, c in laurent_expand(f, J).items() if e - k >= -J}
        assert pade_lift(tail, J, m) == lift_by_degree_search(tail, m, J)


class TestThetaScale:
    """ad and K^-1 theta K are linear in theta, so every part of the
    chain, Lambda and the verdict are those of the monic theta."""

    SCALES = [3, -1, Fraction(1, 2)]

    @pytest.mark.parametrize("c", SCALES)
    def test_classify(self, c):
        r0 = classify("d^2 + 1 - 2*x^-2", theta=THETA2)
        r = classify("d^2 + 1 - 2*x^-2", theta=THETA2.scale(c))
        assert r["verdict"] == r0["verdict"] == "PolynomialDarbouxCandidate(5)"
        assert r["certificates"]["bounded_chain"] == r0["certificates"]["bounded_chain"]

    @pytest.mark.parametrize("c", SCALES)
    def test_chain(self, c):
        rep = bounded_chain(L_KDV, THETA2.scale(c))
        assert rep == bounded_chain(L_KDV, THETA2) and rep["failures"] == []

    @pytest.mark.parametrize("c", SCALES)
    def test_lambda(self, c):
        K = lambda_wave(L_KDV, 8)
        assert build_lambda(K, THETA2.scale(c)) == build_lambda(K, THETA2)


class TestQPolynomialInL:
    """Q as a polynomial in a commuting L, by ``_expand_in_L``."""

    def test_scalar_multiple(self):
        assert _expand_in_L((d * d).scale(8), d * d) == [0, 8]

    def test_quadratic(self):
        L = d * d
        Q = dop_mul(L, L) + L
        assert _expand_in_L(Q, L) == [0, 1, 1]

    def test_odd_order_rejected(self):
        assert _expand_in_L(d, d * d) is None

    def test_non_monic_L(self):
        # subtracting q_r L^r assumed L monic: 2 d^2 used to give None
        L = (d * d).scale(2)
        assert _expand_in_L(dop_mul(L, L) + L.scale(3), L) == [0, 3, 1]


class TestBoundedChain:
    def test_free_chain(self):
        rep = bounded_chain(d * d, THETA2)
        assert rep["m"] == 2
        assert rep["q"] == [0, 8]
        assert rep["identity_holds"]
        assert rep["s"] == 1 and rep["r"] == 1
        assert rep["q_r"] == 8 == factorial(2) * 2 ** 2 == rep["q_r_expected"]
        assert rep["failures"] == []

    def test_kdv_chain(self):
        rep = bounded_chain(L_KDV, THETA2)
        assert rep["failures"] == []
        assert rep["q"] == [0, 8]
        assert rep["nonzero_cj"] == []

    def test_nonzero_constant_flagged(self):
        rep = bounded_chain(d * d + DiffOp.one(), THETA2)
        assert rep["identity_holds"] and rep["s"] == 1 == rep["r"]
        assert rep["q_r"] == rep["q_r_expected"]
        assert rep["nonzero_cj"] == [(0, Fraction(1))]
        assert rep["failures"] == ["nonzero-constants"]

    @pytest.mark.parametrize("L, theta, m", [
        (L_KDV, THETA2, 2),
        (make_constcoeff(3), Poly.monomial(3), 3),
    ])
    def test_chain_is_built_once(self, monkeypatch, L, theta, m):
        # the chain that finds m ends at ad^m(theta), which commutes with
        # L: m + 1 brackets in all, and bounded_test takes that end and
        # brackets nothing
        import bispec.diffop

        calls = []

        def counting(A, B):
            calls.append(A)
            return commutator(A, B)

        for module in (bispec.diffop, bispec.bounded):
            monkeypatch.setattr(module, "commutator", counting)
        f, _ = split_constant_part(L)
        found, Q = ad_condition_min_m(L, theta, theta.degree)
        assert found == m and len(calls) == m + 1
        assert bounded_test(L, f, theta, Q)["m"] == m
        assert len(calls) == m + 1

    def test_rank_order_case_error(self):
        with pytest.raises(NotRankOrderCase):
            bounded_chain(d * d, Poly([0, 1]))

    def test_no_ad_exponent(self):
        # the exponent could only be deg theta = 2, and ad^3(x^2) != 0
        with pytest.raises(NotCommuting):
            bounded_chain(d * d + xpow(-1), THETA2)

    @pytest.mark.parametrize("theta", [Poly([3]), Poly.zero()])
    def test_constant_theta_refused(self, theta):
        # ad^1(c) = 0, so a constant's chain ends at once with m = 0: it
        # used to pass the chain and decide a family
        f, _ = split_constant_part(L_KDV)
        with pytest.raises(NotCommuting, match="is constant"):
            bounded_test(L_KDV, f, theta, DiffOp("x", {0: theta}))

    def test_constant_coefficient_leading(self):
        # q_r = m! N^m where the chain completes (theta of degree N)
        for N in (2, 3):
            L = make_constcoeff(N)
            rep = bounded_chain(L, Poly.monomial(N))
            assert rep["m"] == N
            assert rep["q_r"] == factorial(N) * N ** N == rep["q_r_expected"]
            assert rep["identity_holds"]
            assert "leading-coefficient" not in rep["failures"]

    @pytest.mark.parametrize("L", [
        (d * d).scale(2),
        (d * d).mul_function(RatFunc(Poly([1, 1]), Poly([0, 1]))),  # (1 + x^-1) d^2
    ])
    def test_non_monic_rejected(self, L):
        # q_r = m! N^m holds only for a monic L: 2*d^2 used to report
        # q = [0, 16] and a false leading-coefficient failure against 8
        # (the check comes first, so the chain end passed is immaterial:
        # that of (1 + x^-1) d^2 would never end)
        f, _ = split_constant_part(L)
        with pytest.raises(NotMonic):
            bounded_test(L, f, THETA2, L)

    def test_generic_constant_coefficient_routed(self):
        # a lower-order term of the wrong parity forces rank < order
        with pytest.raises(NotRankOrderCase):
            bounded_chain(make_constcoeff(3, {1: 2}), Poly([0, 0, 0, 1]))

    CHAIN_BASES = [d * d, L_KDV, d * d - xpow(-2, 6), d * d - xpow(-2, Fraction(15, 4)),
                   make_constcoeff(3), d ** 3 - dop_mul(xpow(-2, 6), d) + xpow(-3, 12),
                   d ** 3 + xpow(-3, 2), d * d + xpow(-1)]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=2)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(CHAIN_BASES), st.lists(small, min_size=3, max_size=3),
           st.integers(1, 6), st.lists(small, max_size=2))
    @example(d * d, [1, 0, 0], 2, [])
    @example(make_constcoeff(3), [0, -3, 0], 3, [])
    @example(L_KDV, [0, 0, 0], 4, [])
    def test_only_the_constants_can_fail(self, base, consts, m, lower):
        # the degree-0 parts at infinity of ad^m(theta) = sum q_j L^j give
        # the identity, and with it r N = m (N - 1), N | m and q_r = m! N^m
        # (the proof is in bounded_test's docstring)
        N = base.order
        L = base + DiffOp("x", {j: RatFunc.const(c) for j, c in enumerate(consts[:N])})
        theta = Poly.monomial(m) + Poly(lower)
        try:
            rep = bounded_chain(L, theta)
        except (NotCommuting, NotRankOrderCase):
            return
        s, r = rep["s"], rep["r"]
        assert rep["identity_holds"] and s is not None and r == s * (N - 1)
        assert rep["q_r"] == rep["q_r_expected"]
        assert rep["failures"] == ([] if rep["nonzero_cj"] == [] else ["nonzero-constants"])


AM2 = "d^2 - (6*x^4 - 12*x)*(x^3+1)^-2"


@st.composite
def _pole_operators(draw):
    """d^N plus lower coefficients a (x + s)^-k, N in {2, 3}, a pole at 0
    (s = 0) or off it, and a search budget of at most 3."""
    N = draw(st.integers(2, 3))
    coeffs = {N: RatFunc.one()}
    for j in range(N):
        a = draw(st.integers(-3, 3))
        shift = draw(st.sampled_from([0, 1, -2]))
        k = draw(st.integers(0, 3))
        coeffs[j] = RatFunc(Poly([a]), Poly([shift, 1]) ** k)
    return DiffOp("x", coeffs), draw(st.integers(0, 3))


class TestCentralizer:
    @pytest.mark.parametrize("text", [AM2, "d^2 - 2*(x+1)^-2"])
    def test_pole_off_the_origin_finds_the_constants(self, text):
        # the ansatz has poles at 0 only; one multiplier clears denominators
        # that are not powers of x
        res = centralizer_search(parse_operator(text), 3)
        assert res["orders"] == [0]
        assert res["rank"] is None
        assert [print_operator(M) for M in res["generators"]] == ["1"]

    @settings(max_examples=25, deadline=None)
    @given(_pole_operators())
    def test_matches_per_degree_denominators(self, case):
        L, budget = case
        assert centralizer_search(L, budget) == centralizer_by_degree_lcm(L, budget)

    def test_no_bracket_is_kept(self):
        # the rows (about 80 KB here) are built as each bracket is taken
        # and handed to rref one at a time: holding every bracket read
        # about 300 KB, and holding the rows beside rref's copies 136 KB
        L = parse_operator("d^3 - 3*x^-2*d + 3*x^-3")
        centralizer_search(L, 1)
        tracemalloc.start()
        try:
            centralizer_search(L, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 120 * 1024

    def test_coefficient_derivatives_are_taken_once(self, monkeypatch):
        # every bracket's Leibniz chains run over L's coefficients and their
        # derivatives, of order at most the budget 5: each derivative is
        # taken once, and later calls return the one kept
        L = parse_operator("d^3 - 3*x^-2*d + 3*x^-3")
        kept = {}
        for c in L.coeffs.values():
            for _ in range(5):
                kept[id(c)] = c.derivative()
                c = kept[id(c)]
        derivative = RatFunc.derivative
        reused = []

        def recorded(f):
            out = derivative(f)
            if id(f) in kept:
                reused.append(out is kept[id(f)])
            return out

        monkeypatch.setattr(RatFunc, "derivative", recorded)
        centralizer_search(L, 5)
        assert len(reused) > 151 and all(reused)

    def test_one_division_per_denominator(self, monkeypatch):
        # F is divided by each distinct bracket denominator once: 19
        # divisions in all, where one per bracket coefficient made 513
        calls = []
        divmod_ = Poly.divmod

        def counted(a, b):
            calls.append(b)
            return divmod_(a, b)

        monkeypatch.setattr(Poly, "divmod", counted)
        centralizer_search(parse_operator("d^3 - 3*x^-2*d + 3*x^-3"), 5)
        assert len(calls) <= 20

    def test_free(self):
        res = centralizer_search(d * d, 3)
        assert 1 in res["orders"]
        assert res["rank"] == 1
        for M in res["generators"]:
            assert commutator(d * d, M).is_zero()

    def test_kdv_contains_order_three(self):
        res = centralizer_search(L_KDV, 3)
        assert 3 in res["orders"]
        assert res["rank"] == 1
        expect = d ** 3 - dop_mul(xpow(-2, 3), d) + xpow(-3, 3)
        found = [M for M in res["generators"] if M.order == 3]
        assert any(commutator(expect, M).is_zero() for M in found)

    def test_contains_constants_and_self(self):
        for L in (d * d, L_KDV, d ** 3 + d):
            res = centralizer_search(L, max(3, L.order))
            assert 0 in res["orders"]
            assert any(
                not dop_mul(M, DiffOp.one(M.var)).is_zero() and
                commutator(L, M).is_zero() and M.order == L.order
                for M in res["generators"]
            )
