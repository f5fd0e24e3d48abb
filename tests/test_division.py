"""The one long-division kernel, ``diffop.leibniz_divide``, behind
``right_divide``/``left_divide``, ``PDO.inverse`` and the expansion of an
operator in powers of L; and the division of a Laurent Weyl-algebra value
by a monic Airy operator, ``airy._divide``.

Each is checked against the whole-operator loop it replaced (in
``oracles``) and against the identity that defines it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bispec.bounded
from bispec import (
    PDO,
    DiffOp,
    DivisionByZeroOperator,
    Poly,
    RatFunc,
    dop_mul,
    left_divide,
    make_airy,
    right_divide,
    split_constant_part,
    wave_operator,
)
from bispec.airy import _divide, _top
from bispec.diffop import TOp

from oracles import (
    divide_by_leading_terms,
    expand_in_powers,
    mono_add,
    mono_mul,
    mono_of_top,
    pdo_inverse_neumann,
    reduce_top_by_leading_terms,
)

small_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)
polys_st = st.lists(small_st, min_size=1, max_size=3).map(Poly)
# denominators 1, x^k, (x + 1)^k and (x^2 + 1)^k
dens_st = st.builds(
    lambda base, k: base ** k,
    st.sampled_from([Poly([0, 1]), Poly([1, 1]), Poly([1, 0, 1])]),
    st.integers(0, 2),
)
ratfuncs_st = st.builds(RatFunc, polys_st, dens_st)
nonzero_st = ratfuncs_st.filter(bool)


def operators(max_order=3):
    """Nonzero operators of order at most ``max_order`` whose leading
    coefficient is drawn like the others, so it is rarely 1."""
    return st.builds(
        lambda top, lead, rest: DiffOp("x", {**{j: c for j, c in rest.items() if j < top},
                                             top: lead}),
        st.integers(0, max_order), nonzero_st,
        st.dictionaries(st.integers(0, max_order), ratfuncs_st, max_size=max_order),
    )


class TestOperatorDivision:
    @settings(max_examples=60, deadline=None)
    @given(operators(4), operators(2))
    def test_right_matches_reference(self, L, P):
        Q, R = right_divide(L, P)
        assert (Q, R) == divide_by_leading_terms(L, P, "right")
        assert dop_mul(Q, P) + R == L
        assert R.order < P.order

    @settings(max_examples=60, deadline=None)
    @given(operators(4), operators(2))
    def test_left_matches_reference(self, L, P):
        Q, R = left_divide(L, P)
        assert (Q, R) == divide_by_leading_terms(L, P, "left")
        assert dop_mul(P, Q) + R == L
        assert R.order < P.order

    def test_zero_divisor_on_either_side(self):
        for divide in (right_divide, left_divide):
            with pytest.raises(DivisionByZeroOperator):
                divide(DiffOp.d(), DiffOp.zero())


def tops(max_order):
    """Values c x^e d^k of the Laurent Weyl algebra, k <= max_order."""
    return st.dictionaries(st.tuples(st.integers(0, max_order), st.integers(-4, 4)),
                           small_st.filter(bool), max_size=8).map(TOp)


airy_st = st.builds(
    lambda N, a: make_airy(N, {1: a} if N > 2 else None),
    st.integers(2, 3), small_st,
)


class TestReductionModA:
    @settings(max_examples=60, deadline=None)
    @given(tops(5), airy_st)
    def test_matches_reference(self, T, A):
        At = _top(A, 0)  # A is polynomial: nothing is cut
        q, r = _divide(T, At)
        assert (mono_of_top(q), mono_of_top(r)) == \
            reduce_top_by_leading_terms(mono_of_top(T), mono_of_top(At))

    @settings(max_examples=60, deadline=None)
    @given(tops(5), airy_st)
    def test_identity_on_exact_tails(self, T, A):
        """T = q A + r by the monomial-algebra product, with every power
        of d in r below N."""
        At = _top(A, 0)  # A is polynomial: nothing is cut
        q, r = _divide(T, At)
        assert mono_add(mono_mul(mono_of_top(q), mono_of_top(At)), mono_of_top(r)) == \
            mono_of_top(T)
        assert r.order < At.order


def series(J):
    """K = 1 + sum_{j=1}^{J+1} a_j d^-j, exact or truncated at J."""
    return st.builds(
        lambda terms, trunc: PDO({**terms, 0: RatFunc.one()}, trunc),
        st.dictionaries(st.integers(-J - 1, -1), ratfuncs_st, max_size=3),
        st.sampled_from([None, J]),
    )


class TestPDOInverse:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda J: st.tuples(st.just(J), series(J))))
    def test_matches_neumann_series(self, case):
        J, K = case
        inv = K.inverse(J)
        assert inv == pdo_inverse_neumann(K, J)
        assert (inv * PDO._trusted(K.terms, None)).restrict(J) == \
            PDO.identity().restrict(J)

    def test_makes_no_series_product(self, monkeypatch):
        # the Neumann series took one PDO product per power of T
        calls = []
        product = PDO.__mul__

        def counting(a, b):
            calls.append(a)
            return product(a, b)

        L = DiffOp.d() ** 3 + DiffOp.from_function(RatFunc(Poly([1]), Poly([1, 1]) ** 2))
        f, _ = split_constant_part(L)
        K = wave_operator(L, f, 6)
        monkeypatch.setattr(bispec.bounded.PDO, "__mul__", counting)
        K.inverse(6)
        assert calls == []


def monic_operators(max_order=3):
    return st.builds(
        lambda N, rest: DiffOp("x", {**{j: c for j, c in rest.items() if j < N},
                                     N: RatFunc.one()}),
        st.integers(1, max_order),
        st.dictionaries(st.integers(0, max_order), ratfuncs_st, max_size=2),
    )


class TestExpansionInL:
    @settings(max_examples=40, deadline=None)
    @given(monic_operators(2), st.lists(small_st, min_size=1, max_size=3),
           operators(2))
    def test_matches_reference(self, L, q, extra):
        Q = DiffOp.zero()
        for j, c in enumerate(q):
            Q = Q + (L ** j).scale(c)
        for E in (Q, Q + extra):
            assert bispec.bounded._expand_in_L(E, L) == expand_in_powers(E, L)
        got = bispec.bounded._expand_in_L(Q, L)
        assert got is not None
        assert Q == sum(((L ** j).scale(c) for j, c in enumerate(got)), DiffOp.zero())

    def test_zero(self):
        assert bispec.bounded._expand_in_L(DiffOp.zero(), DiffOp.d()) == [Fraction(0)]
