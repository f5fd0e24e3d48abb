"""The gcd-free reduction of rational functions whose denominator is c*x^k.

``RatFunc`` reduces such a pair by shifting out x^min(val(num), k) instead
of running Euclid.  These tests check that it gives the same canonical pair
as the Euclid reduction, and that Laurent-polynomial work never reaches
``Poly.gcd``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import DiffOp, Poly, RatFunc, commutator, dop_mul, parse_operator

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=12)
nonmonic_st = fractions_st.filter(lambda c: c not in (0, 1))


def euclid_reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Reference reduction: divide by the monic gcd, then make den monic."""
    g = num.gcd(den)
    num, den = num.exact_div(g), den.exact_div(g)
    lead = den.leading()
    return num.scale(1 / lead), den.scale(1 / lead)


@st.composite
def monomial_pairs(draw):
    """(num, c*x^k) with val(num) drawn on both sides of k."""
    k = draw(st.integers(0, 6))
    val = draw(st.integers(0, 9))
    body = draw(st.lists(fractions_st, min_size=1, max_size=5)
                .filter(lambda cs: cs[0] != 0))
    num = Poly([0] * val + body)
    c = draw(nonmonic_st)
    return num, Poly.monomial(k, c)


class TestMonomialDenominator:
    @settings(max_examples=200)
    @given(monomial_pairs())
    def test_matches_euclid(self, pair):
        num, den = pair
        f = RatFunc(num, den)
        assert (f.num, f.den) == euclid_reduce(num, den)

    @pytest.mark.parametrize("val,k", [(0, 3), (2, 5), (5, 5), (7, 2), (3, 0)])
    def test_valuation_against_k(self, val, k):
        num = Poly([0] * val + [3, -1, Fraction(1, 2)])
        den = Poly.monomial(k, Fraction(-2, 3))
        f = RatFunc(num, den)
        assert (f.num, f.den) == euclid_reduce(num, den)
        assert f.den == Poly.monomial(max(k - val, 0))

    @settings(max_examples=60)
    @given(monomial_pairs(), fractions_st)
    def test_neg_and_scale_stay_canonical(self, pair, c):
        num, den = pair
        f = RatFunc(num, den)
        for g, n in ((-f, -num), (f.scale(c), num.scale(c))):
            ref = RatFunc(n, den)
            assert (g.num, g.den) == (ref.num, ref.den)


@pytest.fixture
def no_euclid(monkeypatch):
    def refuse(self, other):
        raise AssertionError("Poly.gcd reached")

    monkeypatch.setattr(Poly, "gcd", refuse)


class TestNoEuclid:
    def test_ratfunc_arithmetic(self, no_euclid):
        f = RatFunc(Poly([0, 0, 3, 1]), Poly.monomial(5, Fraction(2, 7)))
        g = RatFunc.x_power(-3, Fraction(-5, 2)) + RatFunc.x()
        h = (f * g - g.derivative()) ** 3 + f / RatFunc.x_power(2, 4)
        assert h.is_laurent_polynomial()
        assert (-h).scale(Fraction(3, 4)) + h.scale(Fraction(3, 4)) == RatFunc.zero()

    def test_operator_products(self, no_euclid):
        d = DiffOp.d()
        L = d * d + DiffOp("x", {0: RatFunc.x_power(-2, -2)})
        theta = DiffOp("x", {0: RatFunc.x_power(2)})
        assert not commutator(L, theta).is_zero()
        P = d - DiffOp("x", {0: RatFunc.x_power(-1)})
        assert dop_mul(P, L) - dop_mul(L, P) == commutator(P, L)
        assert (P ** 3).order == 3

    def test_parse_bessel_product(self, no_euclid):
        L = parse_operator(
            "x^-5*(x*d + 3)*(x*d - 1/2)*(x*d - 2)*(x*d + 1)*(x*d - 4)")
        assert L.order == 5
        assert L.is_monic()
        assert all(c.is_laurent_polynomial() for c in L.coeffs.values())
