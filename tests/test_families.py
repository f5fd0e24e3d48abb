"""Family constructors, the Bessel symbol, and the Darboux engine."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import (
    BadIndex,
    BesselSpec,
    DiffOp,
    NotAFactor,
    Poly,
    RatFunc,
    bessel_integrality,
    bessel_recover,
    bessel_symbol,
    commutator,
    darboux,
    dop_mul,
    is_euler_homogeneous,
    make_airy,
    make_bessel,
    make_constcoeff,
    p_form_check,
)
from bispec import families
from oracles import bessel_symbol_by_product, euler_homogeneous_by_bracket

d = DiffOp.d()
x = DiffOp.x()
half = Fraction(1, 2)


def xpow(k, c=1):
    return DiffOp("x", {0: RatFunc.x_power(k, c)})


class TestMakeAiry:
    def test_order_two(self):
        assert make_airy(2) == d * d - x

    def test_with_parameters(self):
        assert make_airy(3, {1: 5}) == d ** 3 + d.scale(5) - x

    def test_empty_parameters(self):
        assert make_airy(3) == d ** 3 - x

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            make_airy(3, {2: 1})  # subleading slot is reserved
        with pytest.raises(BadIndex):
            make_airy(2, {1: 1})


class TestMakeConstCoeff:
    def test_plain(self):
        assert make_constcoeff(2) == d * d

    def test_with_parameters(self):
        assert make_constcoeff(3, {1: 1}) == d ** 3 + d

    def test_high_order(self):
        assert make_constcoeff(5) == d ** 5


class TestMakeBessel:
    def test_zero_one(self):
        assert make_bessel(BesselSpec((0, 1))) == d * d

    def test_half_half(self):
        B = make_bessel(BesselSpec((half, half)))
        assert B == d * d + xpow(-2, Fraction(1, 4))

    def test_zero_one_two(self):
        assert make_bessel(BesselSpec((0, 1, 2))) == d ** 3

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_consecutive_betas_give_pure_power(self, p):
        assert make_bessel(BesselSpec(tuple(range(p)))) == d ** p

    @pytest.mark.parametrize("betas", [(0, 3), (half, Fraction(5, 2), 1), (1, 2, 4, 5)])
    def test_euler_homogeneity(self, betas):
        B = make_bessel(BesselSpec(betas))
        p = len(betas)
        assert commutator(DiffOp("x", {1: RatFunc.x()}), B) == B.scale(-p)
        assert is_euler_homogeneous(B)

    def test_coefficient_shape(self):
        # coefficient of d^j is a constant times x^(j-p)
        B = make_bessel(BesselSpec((1, 3, Fraction(2, 3))))
        for j, c in B.coeffs.items():
            terms = c.laurent_terms()
            assert len(terms) == 1
            assert terms[0][0] == j - 3


class TestBesselRecovery:
    def test_symbol_and_roots(self):
        B = make_bessel(BesselSpec((half, half)))
        sym = bessel_symbol(B)
        assert sym == Poly([Fraction(1, 4), -1, 1])
        spec = bessel_recover(B)
        assert spec.betas == (half, half)

    def test_random_roundtrip(self):
        rng = random.Random(55)
        for _ in range(15):
            p = rng.randint(2, 4)
            betas = tuple(sorted(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                                 for _ in range(p)))
            spec = bessel_recover(make_bessel(BesselSpec(betas)))
            assert spec is not None and spec.betas == betas

    def test_non_bessel(self):
        assert bessel_recover(d * d - x) is None
        assert bessel_recover(d * d + DiffOp.one()) is None


weights = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def coefficients(draw, k):
    """A coefficient near the Bessel shape w x^k: that monomial, a
    monomial at another exponent, a two-term Laurent polynomial, or the
    monomial with its pole moved off the origin."""
    w = draw(weights.filter(bool))
    mono = RatFunc.x_power(k, w)
    kind = draw(st.integers(0, 5))
    if kind == 3:
        return RatFunc.x_power(draw(st.integers(-4, 3)), w)
    if kind == 4:
        return mono + RatFunc.x_power(draw(st.integers(-4, 3)), draw(weights))
    if kind == 5:
        return mono.translate(draw(weights.filter(bool)))
    return mono


@st.composite
def near_bessel_operators(draw):
    """Operators of order -1 (zero) to 4, monic or not, whose
    coefficient of d^j is drawn around w_j x^(j - N); some are translated
    as a whole."""
    N = draw(st.integers(-1, 4))
    coeffs = {}
    for j in range(N + 1):
        if j == N and draw(st.booleans()):
            coeffs[j] = RatFunc.one()
        elif j == N or draw(st.booleans()):
            coeffs[j] = draw(coefficients(j - N))
    L = DiffOp("x", {j: c for j, c in coeffs.items() if c})
    if draw(st.integers(0, 4)) == 0:
        L = L.translate(draw(weights.filter(bool)))
    return L


class TestShapeScan:
    """The coefficient scan agrees with the bracket [xd, L] = -N L and
    with the symbol read off x^N * L."""

    @settings(max_examples=300, deadline=None)
    @given(near_bessel_operators())
    def test_agrees_with_the_bracket_and_the_product(self, L):
        assert is_euler_homogeneous(L) == euler_homogeneous_by_bracket(L)
        assert bessel_symbol(L) == bessel_symbol_by_product(L)

    @pytest.mark.parametrize("L, homogeneous", [
        (DiffOp("x", {}), False),
        (DiffOp("x", {0: 3}), True),
        (d, True),
        (d + xpow(-1), True),
        (d + xpow(-1, 2) + xpow(-2), False),
        (d * d + DiffOp("x", {0: 2}) * xpow(-1) * d, True),
        (DiffOp("x", {0: 2}) * d * d + xpow(-2), True),
        (d * d - DiffOp("x", {0: RatFunc.x_power(-2, 2).translate(1)}), False),
    ])
    def test_edge_cases(self, L, homogeneous):
        assert is_euler_homogeneous(L) is homogeneous
        assert euler_homogeneous_by_bracket(L) is homogeneous
        assert bessel_symbol(L) == bessel_symbol_by_product(L)


class TestIntegrality:
    def test_half_half(self):
        assert bessel_integrality(BesselSpec((half, half))) is True

    def test_thirds(self):
        spec = BesselSpec((0, Fraction(1, 3), Fraction(8, 3)))
        assert bessel_integrality(spec) is False

    def test_multiples_of_three(self):
        assert bessel_integrality(BesselSpec((0, 3, 6))) is True


class TestPFormCheck:
    def test_pole_factor(self):
        assert p_form_check(d - xpow(-1), 2) is True

    def test_bare_derivative(self):
        assert p_form_check(d, 2) is True

    def test_constant_term_fails(self):
        assert p_form_check(d - DiffOp.one(), 2) is False

    def test_higher_order(self):
        # x^-2 (D^2 - D) = d^2 is of the form for any N dividing the exponents
        assert p_form_check(d * d, 2) is True

    def test_x_cubed_dependence(self):
        # p_0(x^3) = x^3 is fine for N = 3, not a function of x^2
        P = d - xpow(2)
        assert p_form_check(P, 3) is True
        assert p_form_check(P, 2) is False


class TestDarboux:
    def test_round_trip(self):
        res = darboux(d * d, d - xpow(-1))
        assert list(res) == ["P", "Q", "base", "transformed"]
        assert res["Q"] == d + xpow(-1)
        assert res["transformed"] == d * d - xpow(-2, 2)
        assert dop_mul(res["Q"], res["P"]) == res["base"]
        assert dop_mul(res["P"], res["Q"]) == res["transformed"]

    def test_commuting_factor(self):
        res = darboux(d * d, d)
        assert res["transformed"] == d * d

    def test_not_a_factor(self):
        with pytest.raises(NotAFactor):
            darboux(d * d - x, d - xpow(-1))

    def test_rechecks_q_times_p(self, monkeypatch):
        # a division that returns a wrong Q with a zero remainder is caught
        monkeypatch.setattr(families, "right_divide",
                            lambda base, P: (base, DiffOp.zero()))
        with pytest.raises(NotAFactor, match="Q\\*P"):
            darboux(d * d - xpow(-2, 2), d)

    def test_self_factor(self):
        base = d * d - xpow(-2, 2)
        res = darboux(base, base)
        assert res["transformed"] == base

    def test_compose(self):
        # two steps are one: B = Q1 P1 and P1 Q1 = Q2 P2 give B B = (Q1 Q2)(P2 P1)
        first = darboux(d * d, d)
        second = darboux(first["transformed"], d)
        combined = darboux(dop_mul(first["base"], first["base"]),
                           dop_mul(second["P"], first["P"]))
        assert combined["Q"] == dop_mul(first["Q"], second["Q"])
        assert dop_mul(combined["Q"], combined["P"]) == combined["base"]
        assert dop_mul(combined["P"], combined["Q"]) == combined["transformed"]
