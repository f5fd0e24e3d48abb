"""The noncommutative operator ring: products, brackets, division, gauges."""

import random
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bispec.diffop
from bispec import (
    DiffOp,
    DivisionByZeroOperator,
    NotMonic,
    Poly,
    RatFunc,
    VariableMismatch,
    ad_condition_min_m,
    commutator,
    dop_mul,
    gauge_normalize,
    right_divide,
)
from bispec.diffop import TOp

from oracles import (
    diffop_of_mono,
    fn_apply_mono,
    fn_of_poly,
    mono_ad_chain,
    mono_mul,
    mono_of_diffop,
    random_diffop,
)

d = DiffOp.d()
x = DiffOp.x()

# coefficients bounded at infinity over the denominators x^k, (x + 1)^k,
# (x - 2)^k and (x^2 + 1)^k (k >= 1), alone or times x: a numerator of
# degree at most 1
BOUNDED_ST = st.builds(
    lambda num, base, k, xk: RatFunc(num, base ** k * Poly.monomial(xk)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
             min_size=1, max_size=2).map(Poly),
    st.sampled_from([Poly([1, 1]), Poly([-2, 1]), Poly([1, 0, 1]), Poly([0, 1])]),
    st.integers(1, 2),
    st.integers(0, 1),
)


def xpow(k, c=1):
    return DiffOp("x", {0: RatFunc.x_power(k, c)})


class TestProducts:
    def test_weyl_relation(self):
        assert dop_mul(d, x) == DiffOp("x", {1: RatFunc.x(), 0: RatFunc.one()})

    def test_euler_square(self):
        xd = dop_mul(x, d)
        expect = DiffOp("x", {2: RatFunc(Poly([0, 0, 1])), 1: RatFunc.x()})
        assert dop_mul(xd, xd) == expect

    def test_pole_coefficients(self):
        left = d - xpow(-1)
        right = d + xpow(-1)
        assert dop_mul(left, right) == d * d - xpow(-2, 2)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            dop_mul(d, DiffOp.d("z"))

    def test_order_additive(self):
        rng = random.Random(101)
        for _ in range(40):
            a = random_diffop(rng, min_exponent=-2)
            b = random_diffop(rng, min_exponent=-2)
            if a.is_zero() or b.is_zero():
                continue
            assert dop_mul(a, b).order == a.order + b.order
            lead = dop_mul(a, b).leading()
            assert lead == a.leading() * b.leading()

    def test_associativity_and_distributivity(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_diffop(rng)
            b = random_diffop(rng)
            c = random_diffop(rng)
            assert dop_mul(dop_mul(a, b), c) == dop_mul(a, dop_mul(b, c))
            assert dop_mul(a, b + c) == dop_mul(a, b) + dop_mul(a, c)

    def test_against_monomial_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_diffop(rng, min_exponent=-3)
            b = random_diffop(rng, min_exponent=-3)
            expect = diffop_of_mono(mono_mul(mono_of_diffop(a), mono_of_diffop(b)))
            assert dop_mul(a, b) == expect

    def test_action_on_polynomials(self):
        # (LM)(h) = L(M(h)) through the function action
        rng = random.Random(17)
        for _ in range(20):
            a = mono_of_diffop(random_diffop(rng))
            b = mono_of_diffop(random_diffop(rng))
            h = fn_of_poly(Poly([rng.randint(-3, 3) for _ in range(5)]))
            lhs = fn_apply_mono(mono_mul(a, b), h)
            rhs = fn_apply_mono(a, fn_apply_mono(b, h))
            assert lhs == rhs


class TestPower:
    @pytest.fixture
    def products(self, monkeypatch):
        calls = []

        def counting(L, M):
            calls.append((L.order, M.order))
            return dop_mul(L, M)

        monkeypatch.setattr(bispec.diffop, "dop_mul", counting)
        return calls

    @pytest.mark.parametrize("base,n,count", [
        (d, 5, 3),                          # d^2, d^4, d * d^4
        (x * d + DiffOp.one(), 4, 2),       # B^2, B^4
        (x * d + DiffOp.one(), 1, 0),
        (d, 0, 0),
    ])
    def test_no_wasted_squaring(self, products, base, n, count):
        value = base ** n
        assert len(products) == count
        expect = DiffOp.one()
        for _ in range(n):
            expect = diffop_of_mono(mono_mul(mono_of_diffop(expect), mono_of_diffop(base)))
        assert value == expect

    @pytest.mark.parametrize("base", [d, x * d, TOp({(1, 0): Fraction(1)}),
                                      TOp({(1, 0): Fraction(1), (0, 1): Fraction(1)})])
    def test_negative_power_raises(self, base):
        # the squaring loop shifted n = -1 to -1 for ever; the parser refuses
        # such powers before they get here (a TOp c * x^e is inverted
        # without it)
        with pytest.raises(ValueError, match="negative operator power"):
            base ** -1
        with pytest.raises(ValueError, match="negative operator power"):
            base ** -4


class TestCommutator:
    def test_weyl(self):
        assert commutator(d, x) == DiffOp.one()

    def test_dsquared_x(self):
        assert commutator(d * d, x) == d.scale(2)

    def test_self(self):
        L = d * d - x
        assert commutator(L, L).is_zero()

    def test_jacobi(self):
        rng = random.Random(23)
        for _ in range(40):
            a = random_diffop(rng, max_order=3, max_degree=3)
            b = random_diffop(rng, max_order=3, max_degree=3)
            c = random_diffop(rng, max_order=3, max_degree=3)
            total = (commutator(a, commutator(b, c))
                     + commutator(b, commutator(c, a))
                     + commutator(c, commutator(a, b)))
            assert total.is_zero()


class TestAdCondition:
    @pytest.mark.parametrize("L,theta,expect", [
        (d * d, Poly([0, 1]), 1),
        (d * d - x, Poly([0, 1]), 2),
        (d * d - DiffOp("x", {0: RatFunc.x_power(-2, 2)}), Poly([0, 0, 1]), 2),
    ])
    def test_examples(self, L, theta, expect):
        assert ad_condition_min_m(L, theta, 6)[0] == expect

    @pytest.mark.parametrize("L,end", [
        (d * d, (1, d.scale(2))),
        (d * d - x, (2, DiffOp("x", {0: 2}))),
    ])
    def test_chain_returns_its_end(self, L, end):
        # ad_L^m(x), whose bracket with L is zero
        assert ad_condition_min_m(L, Poly([0, 1]), 6) == end
        assert commutator(L, end[1]).is_zero()

    def test_budget_exhausted(self):
        L = d * d + xpow(-1)
        assert ad_condition_min_m(L, Poly([0, 1]), 5) is None

    @settings(max_examples=15, deadline=timedelta(seconds=10))
    @given(st.just(2), BOUNDED_ST,
           st.fractions(min_value=-2, max_value=2, max_denominator=2),
           st.integers(1, 2))
    @example(2, RatFunc(Poly([-2]), Poly([0, 0, 1])), 0, 2)
    @example(2, RatFunc(Poly([-2]), Poly([1, 0, 1])), 0, 4)
    @example(3, RatFunc(Poly([Fraction(-1, 2)]), Poly([1, 1])), 1, 3)
    @example(3, RatFunc(Poly([1]), Poly([0, 0, 0, 1])), 0, 2)
    def test_bounded_exponent_is_deg_theta(self, N, V, c, l):
        # L = d^N + c + V with V bounded: ad^(m+1)(x^l) = 0 holds at m = l
        # or at no m (see the ad_condition_min_m docstring)
        L = DiffOp("x", {N: RatFunc.one(), 0: V + RatFunc.const(c)})
        end = ad_condition_min_m(L, Poly.monomial(l), l + 3)
        assert end is None or end[0] == l

    def test_oracle_chain(self):
        # independent commutator-chain oracle for the same values
        L = mono_of_diffop(d * d - DiffOp("x", {0: RatFunc.x_power(-2, 2)}))
        chain = mono_ad_chain(L, {(2, 0): Fraction(1)}, 4)
        assert chain[2] == mono_of_diffop((d * d - xpow(-2, 2)).scale(8))
        assert chain[3] == {}


class TestDivision:
    def test_exact(self):
        q, r = right_divide(d * d, d)
        assert q == d and r.is_zero()

    def test_pole_divisor(self):
        q, r = right_divide(d * d, d - xpow(-1))
        assert q == d + xpow(-1)
        assert r.is_zero()
        assert dop_mul(q, d - xpow(-1)) == d * d

    def test_low_order(self):
        q, r = right_divide(x * d, d * d)
        assert q.is_zero() and r == x * d

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZeroOperator):
            right_divide(d, DiffOp.zero())

    def test_order_zero_divisor(self):
        q, r = right_divide(d * d, xpow(1, 2))
        assert r.is_zero()
        assert dop_mul(q, xpow(1, 2)) == d * d

    def test_reconstruction_random(self):
        rng = random.Random(37)
        for _ in range(40):
            L = random_diffop(rng, min_exponent=-2)
            P = random_diffop(rng, min_exponent=-2)
            if P.is_zero():
                continue
            q, r = right_divide(L, P)
            assert dop_mul(q, P) + r == L
            assert r.is_zero() or r.order < P.order


class TestGauge:
    def test_already_normalized(self):
        L = d * d - x
        out, g = gauge_normalize(L)
        assert out == L and g.is_zero()

    def test_constant_shift(self):
        out, g = gauge_normalize(d * d + d.scale(2))
        assert out == d * d - DiffOp.one()
        assert g == RatFunc.const(-1)

    def test_gauge_with_logarithmic_exponent(self):
        # g' = -1/(2x) has no rational antiderivative (the gauge function
        # is x^(-1/2)), yet the conjugation needs g' alone
        out, g = gauge_normalize(d * d + dop_mul(xpow(-1), d))
        assert out == d * d + xpow(-2, Fraction(1, 4))
        assert g == RatFunc.x_power(-1, Fraction(-1, 2))

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            gauge_normalize((d * d).scale(2))

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(10):
            p = Poly([rng.randint(-3, 3) for _ in range(3)])
            L = d ** 3 + dop_mul(DiffOp("x", {0: p.derivative().scale(3)}), d * d) \
                + random_diffop(rng, max_order=1, max_degree=2)
            if not L.is_monic() or L.order != 3:
                continue
            out, g = gauge_normalize(L)
            assert out.coeff(L.order - 1).is_zero()
            back = out.substitute_d(DiffOp("x", {1: RatFunc.one(), 0: -g}))
            assert back == L

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), BOUNDED_ST,
           st.lists(st.fractions(-3, 3, max_denominator=2), max_size=3),
           st.dictionaries(st.integers(0, 3), BOUNDED_ST, max_size=2))
    def test_any_monic_operator_normalizes(self, N, pole, poly, lower):
        # classify calls the gauge without a handler: a monic L of order
        # N >= 2 with any nonzero rational V_(N-1) must not raise
        sub = pole + RatFunc(Poly(poly))
        assume(not sub.is_zero())
        L = DiffOp("x", {j: c for j, c in lower.items() if j < N - 1}
                   | {N: RatFunc.one(), N - 1: sub})
        out, g = gauge_normalize(L)
        assert out.order == N and out.is_monic()
        assert out.coeff(N - 1).is_zero()
        assert g == sub.scale(Fraction(-1, N))
