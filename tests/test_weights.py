"""Filtration toolkit: weights, associated polynomials, normal forms, and
principal parts."""

import random
from fractions import Fraction
from math import comb

import pytest

from bispec import (
    DiffOp,
    NotAiryShape,
    NotHomogeneous,
    NotIncreasing,
    NotMonic,
    Poly,
    RatFunc,
    ZeroOperand,
    associated_polynomial,
    choose_weights,
    dop_mul,
    make_airy,
    normal_form_test,
    principal_part,
    split_constant_part,
    weighted_order,
)
from bispec import weights
from oracles import commutative_mul, random_diffop

d = DiffOp.d()
x = DiffOp.x()


def xpow(k, c=1):
    return DiffOp("x", {0: RatFunc.x_power(k, c)})


class TestChooseWeights:
    @pytest.mark.parametrize("L,rho,sigma", [
        (d * d - x, 2, 1),
        (d ** 3 - x, 3, 1),
        (d ** 3 - dop_mul(DiffOp("x", {0: Poly([0, 0, 1])}), d), 1, 1),
    ])
    def test_examples(self, L, rho, sigma):
        assert choose_weights(L) == (rho, sigma)

    def test_bounded_rejected(self):
        with pytest.raises(NotIncreasing):
            choose_weights(d * d - xpow(-2, 2))

    @pytest.mark.parametrize("L", [DiffOp.zero(), (d ** 3).scale(2) - x,
                                   (d * d).mul_function(RatFunc(Poly([1, 1]))) - x])
    def test_non_monic_rejected(self, L):
        # used to raise NotIncreasing, which says "bounded at infinity"
        with pytest.raises(NotMonic):
            choose_weights(L)

    def test_supporting_line(self):
        rng = random.Random(61)
        for _ in range(30):
            L = d ** 4 + random_diffop(rng, max_order=3, max_degree=3,
                                       min_exponent=-2)
            if L.order != 4 or not any(
                    c.infinity_order() > 0 for j, c in L.coeffs.items() if j < 4):
                continue
            rho, sigma = choose_weights(L)
            v = L.order * sigma
            points = {(c.infinity_order(), j) for j, c in L.coeffs.items()}
            assert all(rho * m + sigma * j <= v for m, j in points)
            # the line supports the polygon at a point besides (0, N)
            assert any(rho * m + sigma * j == v for m, j in points if j < L.order)

    def test_coprime_positive(self):
        rho, sigma = choose_weights(d ** 4 - DiffOp("x", {0: Poly([0, 0, 1])}))
        assert rho >= 1 and sigma >= 1
        from math import gcd
        assert gcd(rho, sigma) == 1


class TestWeightedOrder:
    def test_examples(self):
        assert weighted_order(d * d - x, (2, 1)) == 2
        assert weighted_order(x * d, (1, 1)) == 2
        assert weighted_order(dop_mul(x, d ** 3), (2, 1)) == 5


class TestAssociatedPolynomial:
    def test_airy(self):
        assert associated_polynomial(d * d - x, (2, 1)) == {(0, 2): 1, (1, 0): -1}

    def test_low_weight_terms_dropped(self):
        L = d * d - x + dop_mul(xpow(-1), d)
        assert associated_polynomial(L, (2, 1)) == {(0, 2): 1, (1, 0): -1}

    def test_constant_dropped(self):
        assert associated_polynomial(x * d + DiffOp.one(), (1, 1)) == {(1, 1): 1}

    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({(1, 0): -1, (0, 2): 1}, "y^2 - x"),
        ({(0, 0): -3, (-2, 1): Fraction(1, 2), (5, 1): -1}, "-x^5*y + 1/2*x^-2*y - 3"),
    ])
    def test_printed_by_degree_in_y_then_x(self, terms, text):
        assert weights.associated_text(terms) == text

    def test_multiplicative_without_cancellation(self):
        rng = random.Random(67)
        w = (2, 1)
        checked = 0
        while checked < 20:
            A = random_diffop(rng, max_order=3, max_degree=2, min_exponent=-1)
            B = random_diffop(rng, max_order=3, max_degree=2, min_exponent=-1)
            if A.is_zero() or B.is_zero():
                continue
            fa = associated_polynomial(A, w)
            fb = associated_polynomial(B, w)
            prod = commutative_mul(fa, fb)
            if not prod:
                continue
            assert associated_polynomial(dop_mul(A, B), w) == prod
            assert weighted_order(dop_mul(A, B), w) == \
                weighted_order(A, w) + weighted_order(B, w)
            checked += 1


class TestNormalForm:
    def test_airy_form(self):
        nf = normal_form_test({(0, 2): 1, (1, 0): -1}, (2, 1))
        assert nf["case"] == "c"
        assert nf["yrx"] == (2, 1, Fraction(1))
        assert nf["n"] == 0
        assert not nf["nilpotency_excluded"]

    def test_nilpotency_flag(self):
        nf = normal_form_test({(0, 3): 1, (1, 1): -1}, (2, 1))
        assert nf["n"] == 1 and nf["k"] == 1
        assert nf["nilpotency_excluded"]

    def test_case_d(self):
        nf = normal_form_test({(0, 2): 1, (1, 1): 3, (2, 0): 2}, (1, 1))
        assert nf["case"] == "d"
        assert {nf["lam"], nf["mu"]} == {Fraction(1), Fraction(2)}

    def test_case_b(self):
        # x (x^2 + y)^2 with (rho, sigma) = (1, 2)
        nf = normal_form_test({(5, 0): 1, (3, 1): 2, (1, 2): 1}, (1, 2))
        assert nf["case"] == "b"
        assert nf["n"] == 1 and nf["k"] == 2 and nf["m"] == 2 and nf["mu"] == 1

    MIRROR = [(0, 1, 2, Fraction(1)), (1, 2, 2, Fraction(1)), (2, 3, 3, Fraction(-2, 3)),
              (0, 2, 5, Fraction(7)), (3, 1, 4, Fraction(-1, 2))]

    @staticmethod
    def _binomial_form(n, k, s, mu, swap):
        # x^n (x^s + mu y)^k, or with x and y swapped
        terms = {(n + s * (k - i), i): comb(k, i) * mu ** i for i in range(k + 1)}
        return {((b, a) if swap else (a, b)): c for (a, b), c in terms.items()}

    @pytest.mark.parametrize("n,k,s,mu", MIRROR)
    def test_case_b_mirrors_case_c(self, n, k, s, mu):
        # (b) reads the same binomial match as (c), through the reversed p
        nf = normal_form_test(self._binomial_form(n, k, s, mu, False), (1, s))
        assert (nf["case"], nf["n"], nf["k"], nf["m"], nf["mu"]) == ("b", n, k, s, mu)
        assert nf["yrx"] is None and not nf["nilpotency_excluded"]
        nf = normal_form_test(self._binomial_form(n, k, s, mu, True), (s, 1))
        assert (nf["case"], nf["n"], nf["k"], nf["m"], nf["mu"]) == ("c", n, k, s, mu)
        assert nf["yrx"] == (s, k, -mu) and nf["nilpotency_excluded"] == (n >= 1)

    def test_unresolved_over_q(self):
        # (y - sqrt(2) x)(y + sqrt(2) x): rational coefficients, irrational roots
        nf = normal_form_test({(0, 2): 1, (2, 0): -2}, (1, 1))
        assert nf["unresolved_over_Q"]

    def test_case_d_decomposes_once(self, monkeypatch):
        # every case reads one square-free decomposition of p: the binomial
        # power of (b) and (c), and the rational roots and the count of
        # distinct factors of (d), which alone asks it for roots
        calls, roots = [], []
        original, original_roots = Poly.squarefree_decomposition, weights.decomposition_roots
        monkeypatch.setattr(Poly, "squarefree_decomposition",
                            lambda p: calls.append(p) or original(p))
        monkeypatch.setattr(weights, "decomposition_roots",
                            lambda sqf: roots.append(sqf) or original_roots(sqf))
        for terms, (rho, sigma), case in [
            ({(5, 0): 1, (3, 1): 2, (1, 2): 1}, (1, 2), "b"),  # x (x^2 + y)^2
            ({(0, 3): 1, (1, 1): -1}, (2, 1), "c"),  # y (y^2 - x)
            ({(0, 2): 1, (1, 1): 3, (2, 0): 2}, (1, 1), "d"),  # (y + x)(y + 2 x)
            ({(0, 2): 1, (2, 0): -2}, (1, 1), "d"),  # y^2 - 2 x^2, unresolved
        ]:
            calls.clear()
            roots.clear()
            nf = normal_form_test(terms, (rho, sigma))
            assert nf["case"] == case
            assert len(calls) == 1
            assert len(roots) == (case == "d")
        assert nf["unresolved_over_Q"]

    WEIGHTS = [(1, 1), (2, 1), (3, 1), (5, 1), (1, 2), (1, 3)]

    @staticmethod
    def _draw(rng):
        # f = x^a0 y^b0 p(x^sigma y^-rho), p a product of up to three
        # linear factors from a pool of two, sometimes times 2 + w^2
        rho, sigma = rng.choice(TestNormalForm.WEIGHTS)
        pool = [Poly([rng.choice([1, -1, 2, Fraction(1, 3)]),
                      rng.choice([1, -2, 3, Fraction(-1, 2)])]) for _ in range(2)]
        p = Poly([rng.choice([1, 2, Fraction(-3, 4)])])
        for _ in range(rng.randrange(4)):
            p = p * rng.choice(pool)
        if rng.random() < 0.2:
            p = p * Poly([2, 0, 1])
        a0 = rng.choice([0, 0, 1, 2])
        b0 = rho * p.degree + rng.choice([0, 0, 1, 2])
        f = {(a0 + sigma * t, b0 - rho * t): c for t, c in enumerate(p.coeffs) if c}
        return f, (rho, sigma)

    KEYS = ["case", "n", "k", "m", "mu", "lam", "yrx", "nilpotency_excluded",
            "unresolved_over_Q"]
    NONE = (None, 0, 0, 0, None, None, None, False, False)

    @staticmethod
    def _sympy_report(sympy, f, w):
        """The report fields (case, n, k, m, mu, lam, yrx, nilpotency,
        unresolved) read off sympy's factorization of f over Q."""
        X, Y = sympy.symbols("x y")
        _, factors = sympy.factor_list(sum(
            sympy.Rational(c.numerator, c.denominator) * X ** a * Y ** b
            for (a, b), c in f.items()), X, Y)
        mono = {X: 0, Y: 0}
        other = []  # (coefficient map, multiplicity) of each other factor
        for g, e in factors:
            if g in mono:
                mono[g] = e
            else:
                other.append(({key: Fraction(int(c.p), int(c.q))
                               for key, c in sympy.Poly(g, X, Y).as_dict().items()}, e))

        def binomial(lead, second):
            # f is a monomial times (alpha lead + beta second)^k: (k, beta/alpha)
            if len(other) == 1 and set(other[0][0]) == {lead, second}:
                g, k = other[0]
                return k, g[second] / g[lead]
            return None

        rho, sigma = w
        if rho == 1 < sigma:  # (b): x^n (x^sigma + mu y)^k
            match = binomial((sigma, 0), (0, 1))
            if match and not mono[Y]:
                k, mu = match
                return ("b", mono[X], k, sigma, mu, None, None, False, False)
            return TestNormalForm.NONE
        if sigma == 1 < rho:  # (c): y^n (y^rho + mu x)^k
            match = binomial((0, rho), (1, 0))
            if match and not mono[X]:
                (k, mu), n = match, mono[Y]
                return ("c", n, k, rho, mu, None, (rho, k, -mu), n >= 1, False)
            return TestNormalForm.NONE
        if mono[X]:
            return TestNormalForm.NONE
        # (d): (y + lam x)^n (y + mu x)^k; the factors of f are homogeneous
        degree = [sum(next(iter(g))) for g, _ in other]
        if max(degree, default=1) > 1:
            distinct = bool(mono[Y]) + sum(degree)
            if distinct <= 2:
                return ("d", 0, 0, 0, None, None, None, False, True)
            return TestNormalForm.NONE
        # the y factor first, then by the root -1/mu of p
        linear = sorted(((g.get((1, 0), Fraction(0)) / g[(0, 1)], e) for g, e in other),
                        key=lambda me: -1 / me[0])
        found = [(Fraction(0), mono[Y])] * bool(mono[Y]) + linear
        if not 1 <= len(found) <= 2:
            return TestNormalForm.NONE
        (lam, n), (mu, k) = (found + [(None, 0)])[:2]
        yrx = (1, k, -mu) if lam == 0 and k else None
        return ("d", n, k, 0, mu, lam, yrx, yrx is not None, False)

    def test_agrees_with_sympy_factorization(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(40)
        seen = []
        for _ in range(300):
            f, w = self._draw(rng)
            nf = normal_form_test(f, w)
            assert list(nf) == self.KEYS
            assert tuple(nf.values()) == self._sympy_report(sympy, f, w), (f, w)
            seen.append(nf["case"])
        assert {"b", "c", "d", None} <= set(seen)

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            normal_form_test({(0, 2): 1, (0, 0): 1}, (2, 1))

    def test_refusals(self):
        with pytest.raises(ZeroOperand):
            normal_form_test({}, (1, 1))
        with pytest.raises(ValueError):
            normal_form_test({(1, 1): 1, (2, -1): 1}, (2, 1))


class TestPrincipalPart:
    def test_decaying_remainder(self):
        A, V = principal_part(d * d - x + xpow(-1))
        assert A == d * d - x
        assert V == xpow(-1)

    def test_exact_airy(self):
        L = make_airy(3, {1: 5})
        A, V = principal_part(L)
        assert A == L and V.is_zero()

    def test_shape_rejected(self):
        with pytest.raises(NotAiryShape):
            principal_part(d ** 4 - DiffOp("x", {0: Poly([0, 0, 1])}))

    def test_constant_collection(self):
        L = d ** 3 + dop_mul(DiffOp("x", {0: RatFunc(Poly([1, 5]), Poly([0, 1]))}), d) - x
        A, V = principal_part(L)
        # (5x + 1)/x = 5 + 1/x: the constant joins A, the decay stays in V
        assert A == make_airy(3, {1: 5})
        assert V == dop_mul(xpow(-1), d)

    def test_airy_pipeline_property(self):
        rng = random.Random(73)
        for _ in range(20):
            p = rng.randint(2, 5)
            params = {j: rng.randint(-3, 3) for j in range(1, p - 1)
                      if rng.random() < 0.6}
            A = make_airy(p, params)
            w = choose_weights(A)
            assert w == (p, 1)
            f = associated_polynomial(A, w)
            assert f == {(0, p): 1, (1, 0): -1}
            nf = normal_form_test(f, w)
            assert nf["n"] == 0 and nf["yrx"] == (p, 1, Fraction(1))

    @staticmethod
    def _random_monic(rng, N):
        # coefficient orders in -2..2 at infinity, so that the Airy shape,
        # its near misses and the bounded case all come up
        coeffs = {N: RatFunc.one()}
        for j in range(N):
            if rng.random() < 0.5:
                c = RatFunc.zero()
                for _ in range(rng.randint(1, 2)):
                    c = c + RatFunc.x_power(rng.randint(-2, 2), rng.choice([-3, -1, 1, 2]))
                if rng.random() < 0.2:
                    c = c * RatFunc(Poly([1]), Poly([1, 0, 1]))  # (x^2 + 1)^-1
                if not c.is_zero():
                    coeffs[j] = c
        if rng.random() < 0.5:  # lean towards an order-1 d^0 coefficient
            coeffs[0] = RatFunc(Poly([rng.randint(-2, 2), rng.choice([-2, -1, 1, 3])]))
        return DiffOp("x", coeffs)

    def test_orders_decide_the_airy_form(self):
        # principal_part reads the Airy form from the coefficient orders;
        # it must agree with the weight pipeline, and split at its lam.
        # On a monic increasing L the pipeline never raises, and r = N
        # forces n = 0 and k = 1, as f has y-degree n + r k = N; classify
        # decides by principal_part alone, so this is where the two meet
        rng = random.Random(2024)
        accepted = 0
        for _ in range(400):
            N = rng.randint(2, 6)
            L = self._random_monic(rng, N)
            try:
                w = choose_weights(L)
            except NotIncreasing:
                with pytest.raises(NotIncreasing):
                    principal_part(L)
                continue
            nf = normal_form_test(associated_polynomial(L, w), w)
            yrx = nf["yrx"]
            if yrx is not None and yrx[0] == N:
                assert nf["n"] == 0 and yrx[1] == 1
            if not (nf["n"] == 0 and yrx is not None and yrx[:2] == (N, 1)):
                with pytest.raises(NotAiryShape):
                    principal_part(L)
                continue
            accepted += 1
            lam_x = x.scale(yrx[2])
            const, V = split_constant_part(L + lam_x)
            assert principal_part(L) == (DiffOp("x", dict(enumerate(const.coeffs))) - lam_x, V)
        assert accepted >= 50

