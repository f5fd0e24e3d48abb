"""Exact scalar, polynomial, rational-function and Laurent-tail arithmetic.

A Laurent tail is a plain exponent map ``{e: c_e}``; its truncation M,
the power x^-M down to which it is exact, is passed alongside it."""

from datetime import timedelta
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bispec.rational

from bispec import (
    InsufficientPrecision,
    LogObstruction,
    PDO,
    Poly,
    RatFunc,
    ZeroDenominator,
    laurent_expand,
    parse_operator,
    rat_antiderivative,
    rational_reconstruct,
)
from bispec.errors import ReconstructionFailed
from bispec.rational import add_terms, nonzero_terms

from bispec.poly import _sign_at, _sturm_sequence
from oracles import (
    gcd_by_fraction_remainders,
    laurent_expand_by_series,
    pade_by_joint_system,
    rat_antiderivative_by_rounds,
    rational_roots_by_candidates,
    sign_changes,
    sturm_by_fraction_remainders,
    value,
)

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)
polys_st = st.lists(fractions_st, min_size=0, max_size=5).map(Poly)
nonzero_polys_st = polys_st.filter(lambda p: not p.is_zero())
ratfuncs_st = st.builds(RatFunc, polys_st, nonzero_polys_st)
nonzero_ratfuncs_st = ratfuncs_st.filter(lambda f: not f.is_zero())

# small functions over the denominators 1, x^k, (x + 1)^k, (x - 2)^k and
# (x^2 + 1)^k, alone or times x^k
small_polys_st = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                          min_size=1, max_size=3).map(Poly)
dens_st = st.builds(
    lambda base, k, xk: base ** k * Poly.monomial(xk),
    st.sampled_from([Poly([1]), Poly([1, 1]), Poly([-2, 1]), Poly([1, 0, 1])]),
    st.integers(0, 2),
    st.integers(0, 2),
)
small_ratfuncs_st = st.builds(RatFunc, small_polys_st, dens_st)
# integrands: derivatives, with or without an extra term that may carry a
# logarithm or an arctan
integrands_st = st.builds(lambda h, extra: h.derivative() + extra,
                          small_ratfuncs_st,
                          st.one_of(st.just(RatFunc.zero()), small_ratfuncs_st))


def value_at_infinity(h: RatFunc) -> Fraction:
    """The x^0 coefficient of the expansion of h at infinity."""
    return laurent_expand(h, 0).get(0, Fraction(0))


def outcome(fn, g):
    try:
        return fn(g)
    except (LogObstruction, ReconstructionFailed) as e:
        return type(e)


class TestPoly:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(-3, 3, max_denominator=3), max_size=5).map(Poly),
           st.integers(0, 9))
    def test_power_by_recurrence_is_repeated_product(self, p, n):
        expect = Poly.one()
        for _ in range(n):
            expect = expect * p
        assert p ** n == expect

    def test_powers_of_one_are_the_shared_unit(self):
        assert Poly.one() ** 7 is Poly.one() and Poly([5]) ** 0 is Poly.one()

    def test_zero_degree_sentinel(self):
        assert Poly().degree == -1
        assert Poly([0, 0]).degree == -1
        assert Poly([3]).degree == 0

    def test_divmod_reconstruction(self):
        a = Poly([1, 2, 0, 1])
        b = Poly([-1, 1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_gcd_monic(self):
        p = Poly([-1, 0, 1])
        q = Poly([-1, 1])
        assert p.gcd(q) == Poly([-1, 1])

    # products with a random common factor, so that gcds of positive
    # degree, powers of x and constants all occur
    small_polys = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                           max_size=5).map(Poly)

    @settings(max_examples=300, deadline=None)
    @given(small_polys, small_polys, small_polys, st.integers(0, 3), st.integers(0, 3))
    @example(Poly.zero(), Poly.zero(), Poly.one(), 0, 0)
    @example(Poly.one(), Poly.zero(), Poly([1, 2]), 2, 0)
    def test_gcd_equals_fraction_euclid(self, p, q, c, i, j):
        a = p * c * Poly.monomial(i)
        b = q * c * Poly.monomial(j)
        assert a.gcd(b) == gcd_by_fraction_remainders(a, b)
        assert b.gcd(a) == gcd_by_fraction_remainders(a, b)

    def test_rational_roots(self):
        # (x - 1/2)^2 (x + 3)
        p = (Poly([Fraction(-1, 2), 1]) ** 2) * Poly([3, 1])
        assert p.rational_roots() == [(Fraction(-3), 1), (Fraction(1, 2), 2)]

    def test_rational_roots_of_60_bit_products(self):
        r1 = Fraction(2 ** 61 + 15, 3 ** 40)
        r2 = Fraction(-(2 ** 64) - 1, 7)
        r3 = Fraction(2 ** 100 + 1)
        irrational = Poly([-(2 ** 62 + 3), 0, 5])  # 5x^2 - (2^62 + 3)
        p = (Poly([-r1, 1]) ** 3 * Poly([-r2, 1]) * Poly([-r3, 1]) ** 2
             * irrational).scale(Fraction(2 ** 70 + 1, 2 ** 61 - 1))
        assert p.rational_roots() == [(r2, 1), (r1, 3), (r3, 2)]

    def test_rational_roots_large_constant_irrational(self):
        # w(w - 1) - 10^20: 1 + 4*10^20 is not a square
        assert Poly([-10 ** 20, -1, 1]).rational_roots() == []
        assert Poly([-10 ** 20, 0, 1]).rational_roots() == [
            (Fraction(-10 ** 10), 1), (Fraction(10 ** 10), 1)]

    def test_rational_root_next_to_irrational_one(self):
        # -sqrt(23) is within 1/2 of the root -5
        p = Poly([5, 1]) * Poly([-1, 1]) * Poly([-23, 0, 1]) * Poly([0, 1]) ** 2
        assert p.rational_roots() == [(Fraction(-5), 1), (Fraction(0), 2), (Fraction(1), 1)]

    # roots k/a on the grid of a lead a, with multiplicities, beside
    # irrational pairs +-sqrt(c); a straddled sqrt(c) also has the grid
    # points on either side of it, floor(a sqrt c)/a and the next, as roots
    @settings(max_examples=150, deadline=None)
    @given(st.integers(-12, 12).filter(bool),
           st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 2)), max_size=3),
           st.lists(st.tuples(st.integers(2, 30).filter(lambda c: isqrt(c) ** 2 != c),
                              st.booleans()), max_size=2))
    @example(1, [(-5, 1)], [(23, False)])
    @example(7, [], [(23, True)])
    @example(-3, [(4, 1), (5, 2)], [(2, True)])
    def test_rational_roots_on_the_grid_equal_candidates(self, a, ks, quads):
        p = Poly.const(a)
        for k, m in ks:
            p = p * linear(Fraction(k, abs(a))) ** m
        for c, straddle in quads:
            p = p * Poly([-c, 0, 1])
            if straddle:
                k = isqrt(a * a * c)
                p = p * linear(Fraction(k, abs(a))) * linear(Fraction(k + 1, abs(a)))
        if p.degree >= 1:
            assert p.rational_roots() == rational_roots_by_candidates(p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.fractions(min_value=-2 ** 64, max_value=2 ** 64,
                                           max_denominator=2 ** 62),
                              st.integers(1, 3)), max_size=4),
           st.lists(st.integers(2, 10 ** 6).filter(lambda c: int(c ** 0.5) ** 2 != c),
                    max_size=2),
           fractions_st.filter(bool))
    def test_rational_roots_of_constructed_products(self, factors, irrational, lead):
        p = Poly.const(lead)
        want: dict = {}
        for r, m in factors:
            p = p * Poly([-r, 1]) ** m
            want[r] = want.get(r, 0) + m
        for c in irrational:
            p = p * Poly([-c, 0, 1])
        assert p.rational_roots() == sorted(want.items())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=2, max_size=7),
           st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9),
                    max_size=3))
    def test_rational_roots_sympy_oracle(self, coeffs, roots):
        sympy = pytest.importorskip("sympy")
        p = Poly(coeffs)
        for r in roots:
            p = p * Poly([-r, 1])
        if p.degree < 1:
            return
        x = sympy.Symbol("x")
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x)
        want = sorted((Fraction(int(r.p), int(r.q)), m)
                      for r, m in sympy.roots(sp, filter="Q").items())
        assert p.rational_roots() == want

    def test_squarefree_decomposition(self):
        p = Poly([-1, 1]) ** 3 * Poly([1, 1])
        dec = p.squarefree_decomposition()
        assert sorted((g.degree, m) for g, m in dec) == [(1, 1), (1, 3)]


def linear(r) -> Poly:
    return Poly([-Fraction(r), 1])


class TestRemainderKernel:
    """``Poly.gcd`` and the Sturm sequences of ``Poly.rational_roots`` share
    one integer pseudo-remainder, which keeps its multiplier positive."""

    BIG = 2 ** 60 + 33  # a 61-bit root

    @pytest.mark.parametrize("p, want", [
        # negative leading coefficients
        (linear(2) * linear(-3).scale(-1), [(-3, 1), (2, 1)]),
        (Poly([-2, 0, 1]).scale(-7) * linear(Fraction(5, 3)) ** 2,
         [(Fraction(5, 3), 2)]),
        # sparse factors: a pseudo-remainder step meets a zero top, so the
        # multiplier is an odd power of a leading coefficient
        (Poly([-2, 0, 0, -1]) * linear(-1) ** 3 * linear(4), [(-1, 3), (4, 1)]),
        (Poly([2, 0, 0, 1]) * linear(0), [(0, 1)]),
        (Poly([3, 0, 0, 0, -2]) * linear(0) ** 2 * linear(Fraction(-1, 2)),
         [(Fraction(-1, 2), 1), (0, 2)]),
        (Poly([3, 0, 0, 0, -2]).scale(2) * linear(1) * linear(-1), [(-1, 1), (1, 1)]),
        # a 10^20 constant next to small roots
        (Poly([10 ** 20, -1, -1]) * linear(7) * linear(-7) ** 2, [(-7, 2), (7, 1)]),
        (Poly([-10 ** 20, 1, -3]) * linear(Fraction(10 ** 20, 3)),
         [(Fraction(10 ** 20, 3), 1)]),
        # 60-bit roots, repeated, beside a 60-bit irrational pair
        (linear(BIG) ** 2 * linear(Fraction(-BIG, 2 ** 59 + 1))
         * Poly([2 ** 61 + 1, 0, -3]), [(Fraction(-BIG, 2 ** 59 + 1), 1), (BIG, 2)]),
        (linear(Fraction(BIG, 3)) ** 3 * Poly([BIG, 0, 0, -1]).scale(Fraction(-5, 2)),
         [(Fraction(BIG, 3), 3)]),
    ])
    def test_rational_roots_beside_irrational_factors(self, p, want):
        assert p.rational_roots() == [(Fraction(r), m) for r, m in want]

    # sparse integer polynomials, so that remainders drop more than one
    # degree and leading coefficients of either sign occur
    sparse_st = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, -10 ** 20]),
                         min_size=3, max_size=8).map(Poly)
    points_st = st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=7),
                         min_size=1, max_size=6)

    @settings(max_examples=300, deadline=None)
    @given(sparse_st, points_st)
    @example(Poly([-2, 0, 0, -1]), [Fraction(0), Fraction(-2), Fraction(3, 2)])
    @example(Poly([1, 0, 0, 0, -1, 0, 1]).scale(-1), [Fraction(1, 2)])
    def test_sturm_signs_equal_fraction_remainders(self, p, points):
        if p.degree < 1:
            return
        g = p.exact_div(p.gcd(p.derivative()))  # square-free, p's lead sign
        if g.degree < 1:
            return
        ints = _sturm_sequence(g)
        want = sturm_by_fraction_remainders(g)
        assert len(ints) == len(want)
        for point in points:
            signs = [_sign_at(c, point) for c in ints]
            values = [value(s, point) for s in want]
            assert signs == [(v > 0) - (v < 0) for v in values]
            assert sign_changes(signs) == sign_changes(values)


class TestRatFunc:
    def test_canonicalize_common_factor(self):
        f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
        assert f == RatFunc(Poly([1, 1]))

    def test_canonicalize_identity(self):
        assert RatFunc(Poly([0, 1]), Poly([0, 1])).is_one()

    def test_canonicalize_monic_denominator(self):
        f = RatFunc(Poly([1]), Poly([0, 2]))
        assert f.num == Poly([Fraction(1, 2)])
        assert f.den == Poly([0, 1])
        # cross-multiplication: f * 2x = 1
        assert f * RatFunc(Poly([0, 2])) == RatFunc.one()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RatFunc(Poly([1]), Poly())

    @settings(max_examples=60)
    @given(ratfuncs_st, ratfuncs_st, ratfuncs_st)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=40)
    @given(nonzero_ratfuncs_st)
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == RatFunc.one()

    @settings(max_examples=40)
    @given(ratfuncs_st, ratfuncs_st)
    def test_derivative_product_rule(self, a, b):
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()

    @settings(max_examples=60)
    @given(ratfuncs_st, nonzero_polys_st)
    def test_equal_values_hash_equal(self, f, p):
        # f and f p / p reduce to the same pair
        a, b = f, RatFunc(f.num * p, f.den * p)
        assert a == b
        assert hash(a) == hash(b)


class TestSum:
    """A sum is reduced over the lcm of the denominators, and one over
    coprime denominators needs no reduction at all."""

    @staticmethod
    def by_full_reduction(a: RatFunc, b: RatFunc) -> RatFunc:
        return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)

    @pytest.fixture
    def gcd_degrees(self, monkeypatch):
        """The degree pairs that reach Poly.gcd from here on."""
        seen = []
        gcd = Poly.gcd

        def recording(p, q):
            seen.append((p.degree, q.degree))
            return gcd(p, q)

        monkeypatch.setattr(Poly, "gcd", recording)
        return seen

    @settings(max_examples=80)
    @given(small_ratfuncs_st, small_ratfuncs_st)
    def test_equals_the_full_reduction(self, a, b):
        assert a + b == self.by_full_reduction(a, b)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_coprime_powers_equal_the_full_reduction(self, n):
        a = RatFunc(Poly([1]), Poly([1, 1]) ** n)
        b = RatFunc(Poly([3]), Poly([2, 1]) ** n)
        assert a + b == self.by_full_reduction(a, b)

    def test_gcd_sees_no_degree_above_a_denominator(self, gcd_degrees):
        # the sum of (x+1)^-300 and (x+2)^-300 took one gcd of two
        # degree-600 polynomials (74 s); the denominators alone are coprime
        L = parse_operator("(x+1)^-300+(x+2)^-300")
        assert gcd_degrees and max(map(max, gcd_degrees)) <= 300
        assert L.coeff(0).den == (Poly([1, 1]) * Poly([2, 1])) ** 300

    def test_common_factor_reduces_over_the_lcm(self, gcd_degrees):
        x1, x2, x3 = Poly([1, 1]), Poly([2, 1]), Poly([3, 1])
        a = RatFunc(x3, x1 * x1 * x2)  # (x+3)/((x+1)^2 (x+2))
        b = RatFunc(-x2, x1 * x3)      # -(x+2)/((x+1)(x+3))
        expect = self.by_full_reduction(a, b)
        gcd_degrees.clear()
        assert a + b == expect
        # the lcm (x+1)^2 (x+2)(x+3) has degree 4, the product 5
        assert gcd_degrees and max(map(max, gcd_degrees)) <= 4


def tail_product(s, t, M):
    """The product of two tails exact down to x^-M, and its truncation:
    it is exact down to the power above the one where the first unknown
    term of either factor lands."""
    trunc = min(M - max(t, default=-M - 1), M - max(s, default=-M - 1))
    terms = {}
    for i, a in s.items():
        for j, b in t.items():
            if i + j >= -trunc:
                terms[i + j] = terms.get(i + j, 0) + a * b
    return nonzero_terms(terms, trunc), trunc


class TestLaurentExpand:
    def test_geometric(self):
        t = laurent_expand(RatFunc(Poly([1]), Poly([-1, 1])), 3)
        assert t == {-1: 1, -2: 1, -3: 1}

    def test_polynomial_passthrough(self):
        t = laurent_expand(RatFunc(Poly([0, 0, 1])), 3)
        assert t == {2: 1}

    def test_alternating(self):
        t = laurent_expand(RatFunc(Poly([1]), Poly([1, 0, 1])), 4)
        assert t == {-2: 1, -4: -1}

    @settings(max_examples=40)
    @given(ratfuncs_st, ratfuncs_st)
    def test_additive(self, f, g):
        M = 6
        assert laurent_expand(f + g, M) == add_terms(laurent_expand(f, M),
                                                     laurent_expand(g, M))

    @settings(max_examples=40)
    @given(ratfuncs_st, ratfuncs_st)
    def test_multiplicative(self, f, g):
        M = 6
        prod = laurent_expand(f * g, M)
        approx, trunc = tail_product(laurent_expand(f, M + 8),
                                     laurent_expand(g, M + 8), M + 8)
        for e in range(-M, max(prod, default=0) + 1):
            if e >= -trunc:
                assert prod.get(e, 0) == approx.get(e, 0)

    @settings(max_examples=200)
    @given(ratfuncs_st, st.integers(-8, 30))
    # the zero function; M < 0; M below the leading index (1/(x^2+x+1)
    # leads at 2); and denominators that are not powers of x
    @example(RatFunc.zero(), 3)
    @example(RatFunc.zero(), -2)
    @example(RatFunc(Poly([1, 2]), Poly([1, 0, 0, 1])), -3)
    @example(RatFunc(Poly([1]), Poly([1, 1, 1])), 1)
    @example(RatFunc(Poly([3, 0, 1]), Poly([-2, 1])), -1)
    @example(RatFunc(Poly([1]), Poly([0, 0, 1])), -5)
    def test_equals_the_series_division(self, f, M):
        assert laurent_expand(f, M) == laurent_expand_by_series(f, M)

    def test_multiply_back(self):
        # independent verification: t * den - num vanishes on known range
        f = RatFunc(Poly([2, -1, 3]), Poly([1, 1, 0, 1]))
        t = laurent_expand(f, 9)
        den_tail = laurent_expand(RatFunc(f.den), 9)
        num_tail = laurent_expand(RatFunc(f.num), 9)
        prod, trunc = tail_product(t, den_tail, 9)
        resid = add_terms(prod, {e: -c for e, c in num_tail.items()}, trunc)
        assert resid == {}


class TestSeriesText:
    """A tail is a plain exponent map and a ``PDO`` has no printed form of
    its own: these pin the expansion by its map, the series' negation and
    constructors by their terms, and the text of a ``Poly``."""

    def test_expansions_at_both_ends(self):
        f = RatFunc(Poly([1, 2]), Poly([0, 0, 1, 1]))
        t = laurent_expand(f, 5)
        assert t == {-2: 2, -3: -1, -4: 1, -5: -1}
        assert all(type(e) is int and type(c) is Fraction for e, c in t.items())

    def test_poly_and_pdo(self):
        assert str(Poly([Fraction(-1, 2), 0, -1, 3])) == "3*x^3 - x^2 - 1/2"
        P = PDO({1: RatFunc.one(), -2: RatFunc.x_power(-1).scale(-1)}, 3)
        assert P.terms == {1: RatFunc.one(), -2: -RatFunc.x_power(-1)} and P.trunc == 3
        assert (-P).terms == {1: -RatFunc.one(), -2: RatFunc.x_power(-1)} and (-P).trunc == 3
        assert PDO({}).terms == {} and PDO({}).trunc is None


@st.composite
def pade_cases(draw):
    """(t, M, degN, degD): the expansion of a random p/q with leading term
    in x^-lead, lead in -6..4, truncated at M anywhere from above its
    leading term (so also above x^-degD) to well past what the solve
    needs, at times with one known coefficient changed; the degree pair
    is p/q's own, swapped, or with one more numerator degree."""
    num = draw(st.lists(fractions_st, min_size=1, max_size=4).map(Poly)
               .filter(lambda p: not p.is_zero()))
    den = draw(nonzero_polys_st.filter(lambda p: p.degree <= 3))
    lead = draw(st.integers(-6, 4))
    shift = den.degree - num.degree - lead  # x^shift * num/den leads at lead
    f = (RatFunc(num * Poly.monomial(shift), den) if shift >= 0
         else RatFunc(num, den * Poly.monomial(-shift)))
    dN, dD = f.num.degree, f.den.degree
    degN, degD = draw(st.sampled_from([(dN, dD), (dD, dN), (dN + 1, dD)]))
    # the solve at p/q's own degrees needs M >= lead + dN + dD + 1
    M = lead + dN + dD + 1 + draw(st.integers(-dN - dD - 2, 5))
    terms = laurent_expand(f, M)
    if draw(st.booleans()):
        e = -draw(st.integers(lead, max(lead, M)))
        terms[e] = terms.get(e, Fraction(0)) + draw(fractions_st.filter(bool))
    return nonzero_terms(terms, M), M, degN, degD


def pade_outcome(solve, t, M, degN, degD):
    try:
        return solve(t, M, degN, degD)
    except InsufficientPrecision as e:
        return type(e)


class TestRationalReconstruct:
    def test_geometric_series(self):
        t = {-s: Fraction(1) for s in range(1, 9)}
        f = rational_reconstruct(t, 8, 0, 1)
        assert f == RatFunc(Poly([1]), Poly([-1, 1]))

    def test_zero(self):
        assert rational_reconstruct({}, 8, 2, 2) == RatFunc.zero()

    def test_exponential_tail_rejected(self):
        from math import factorial

        t = {-s: Fraction(1, factorial(s)) for s in range(8)}
        assert rational_reconstruct(t, 7, 2, 2) is None

    def test_unmatched_numerator_coefficient_is_no_solution(self):
        # the window x^11..x^1 holds no x^0 row, and its x^11..x^9 rows
        # force q = 0
        t = laurent_expand(RatFunc(Poly([0] * 9 + [1])) + RatFunc(Poly([1]), Poly([1, 1])), 1)
        assert rational_reconstruct(t, 1, 0, 2) is None

    def test_numerator_degree_too_low_needs_no_reexpansion(self, monkeypatch):
        # x^3 + 1/(x + 1) at (degN, degD) = (1, 1): the rows above x^1
        # force q = 0, so the solve answers None before re-expanding
        t = laurent_expand(RatFunc(Poly([0, 0, 0, 1])) + RatFunc(Poly([1]), Poly([1, 1])), 6)
        calls = []
        real = bispec.rational.laurent_expand
        monkeypatch.setattr(bispec.rational, "laurent_expand",
                            lambda *args: calls.append(args) or real(*args))
        assert rational_reconstruct(t, 6, 1, 1) is None
        assert calls == []

    def test_insufficient_precision(self):
        with pytest.raises(InsufficientPrecision, match="need 6 known coefficients, have 2"):
            rational_reconstruct({-1: Fraction(1)}, 2, 2, 2)

    @settings(max_examples=40)
    @given(st.builds(RatFunc,
                     st.lists(fractions_st, min_size=0, max_size=3).map(Poly),
                     st.lists(fractions_st, min_size=1, max_size=3).map(Poly)
                     .filter(lambda p: not p.is_zero())))
    def test_roundtrip(self, f):
        dn = max(f.num.degree, 0)
        dd = max(f.den.degree, 0)
        t = laurent_expand(f, dn + dd + 8)
        assert rational_reconstruct(t, dn + dd + 8, dn, dd) == f

    @settings(max_examples=300, deadline=None)
    @given(pade_cases())
    def test_equals_the_joint_system(self, case):
        assert pade_outcome(rational_reconstruct, *case) == \
            pade_outcome(pade_by_joint_system, *case)


class TestAntiderivative:
    """The termwise antiderivative that ``rat_antiderivative`` takes of the
    tail of its integrand, with zero constant of integration, before its
    one Pade solve: read off the map and truncation the solve receives."""

    @staticmethod
    def integrated_tail(monkeypatch, g):
        seen = []
        real = bispec.rational.rational_reconstruct
        monkeypatch.setattr(bispec.rational, "rational_reconstruct",
                            lambda t, M, *degs: seen.append((t, M)) or real(t, M, *degs))
        rat_antiderivative(g)
        return seen[0]

    def test_polynomial_part(self, monkeypatch):
        anti, _ = self.integrated_tail(monkeypatch, RatFunc(Poly([0, 2])))  # 2x
        assert anti == {2: 1}  # x^2

    def test_inverse_square(self, monkeypatch):
        anti, _ = self.integrated_tail(monkeypatch, RatFunc.x_power(-2, -1))  # -x^-2
        assert anti == {-1: 1}  # x^-1

    def test_log_obstruction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bispec.rational, "rational_reconstruct",
                            lambda *args: calls.append(args))
        with pytest.raises(LogObstruction, match=r"^antiderivative requires log\(x\): "
                                                 r"nonzero x\^-1 term$"):
            rat_antiderivative(RatFunc.x_power(-1) + RatFunc.x_power(-3))
        assert calls == []

    def test_derivative_inverts(self, monkeypatch):
        g = RatFunc(Poly([5, 0, 0, 2])) + RatFunc(Poly([Fraction(1, 3), 0, -7]),
                                                  Poly.monomial(4))
        anti, M = self.integrated_tail(monkeypatch, g)
        # d/dx x^e = e x^(e-1)
        back = {e - 1: e * c for e, c in anti.items() if e}
        assert back == laurent_expand(g, M + 1)

    def test_truncation_shifts(self, monkeypatch):
        # x^-2 expands to x^-4 (h = -1/x: deg P = 0, deg Q = 1); the
        # integral is known one power less deep, to x^-3, which leaves the
        # degN + degD + 2 = 3 known coefficients the solve needs
        anti, M = self.integrated_tail(monkeypatch, RatFunc.x_power(-2))
        assert anti == {-1: -1} and M == 3


class TestRatAntiderivative:
    def test_simple_pole_free(self):
        g = RatFunc(Poly([1]), Poly([0, 0, 1]))  # x^-2
        assert rat_antiderivative(g) == RatFunc(Poly([-1]), Poly([0, 1]))

    def test_polynomial(self):
        assert rat_antiderivative(RatFunc(Poly([0, 2]))) == RatFunc(Poly([0, 0, 1]))

    def test_residue_at_infinity(self):
        with pytest.raises(LogObstruction):
            rat_antiderivative(RatFunc(Poly([1]), Poly([0, 1])))

    def test_arctan_type_rejected(self):
        with pytest.raises(ReconstructionFailed):
            rat_antiderivative(RatFunc(Poly([1]), Poly([1, 0, 1])))

    def test_higher_order_pole(self):
        # d/dx of x / (x^2+1) has no log part
        f = RatFunc(Poly([0, 1]), Poly([1, 0, 1]))
        assert rat_antiderivative(f.derivative()) == f

    def test_two_simple_poles_without_residue_at_infinity(self):
        # 2/(x^2 - 1) = 1/(x - 1) - 1/(x + 1): the logarithms cancel at
        # infinity only, and gcd(den, den') = 1 leaves no room for h
        with pytest.raises(ReconstructionFailed):
            rat_antiderivative(RatFunc(Poly([2]), Poly([-1, 0, 1])))

    @settings(max_examples=60, deadline=timedelta(seconds=5))
    @given(small_ratfuncs_st)
    @example(RatFunc(Poly([1]), Poly([1, 0, 1]) ** 2))
    @example(RatFunc(Poly([1, 1]), Poly([0, 0, 1]) * Poly([-2, 1]) ** 2))
    def test_inverts_the_derivative(self, h):
        # the denominator of h is gcd(den, den') of h', and no smaller one
        # reconstructs h
        expected = h - RatFunc.const(value_at_infinity(h))
        assert rat_antiderivative(h.derivative()) == expected

    @settings(max_examples=25, deadline=None)
    @given(integrands_st)
    def test_matches_the_four_round_schedule(self, g):
        assert outcome(rat_antiderivative, g) == outcome(rat_antiderivative_by_rounds, g)

    @settings(max_examples=40, deadline=timedelta(seconds=5))
    @given(integrands_st)
    def test_agrees_with_sympy_ratint(self, g):
        sympy = pytest.importorskip("sympy")
        from sympy.integrals.rationaltools import ratint

        x = sympy.Symbol("x")

        def to_sympy(p: Poly):
            return sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                       for k, c in enumerate(p.coeffs))

        integral = ratint(to_sympy(g.num) / to_sympy(g.den), x)
        got = outcome(rat_antiderivative, g)
        if integral.has(sympy.log, sympy.atan, sympy.RootSum):
            assert got in (LogObstruction, ReconstructionFailed)
        else:
            assert isinstance(got, RatFunc)
            diff = sympy.cancel(to_sympy(got.num) / to_sympy(got.den) - integral)
            assert diff.is_constant()

    def test_one_pade_solve(self, monkeypatch):
        # the arctan integrand took four solves under the growing schedule
        calls = []
        real = bispec.rational.rational_reconstruct

        def counting(*args):
            calls.append(args[2:])
            return real(*args)

        monkeypatch.setattr(bispec.rational, "rational_reconstruct", counting)
        with pytest.raises(ReconstructionFailed):
            rat_antiderivative(RatFunc(Poly([1]), Poly([1, 0, 1])))
        assert len(calls) == 1
        calls.clear()
        # h = 1/(x^3 + x): the solve runs at deg P = 0 and deg Q = 3
        h = RatFunc(Poly([1]), Poly([0, 1, 0, 1]))
        assert rat_antiderivative(h.derivative()) == h
        assert calls == [(0, 3)]
