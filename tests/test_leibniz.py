"""The one Leibniz kernel, ``diffop.leibniz_product``, behind ``dop_mul``,
``commutator`` and ``PDO.__mul__``.

Brackets skip the t = 0 terms a_i b_j d^(i+j), which cancel; PDO
products run the kernel on their own keys with a floor at the truncation.
Both are checked against the direct computations they replace.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import PDO, DiffOp, NotInDomain, Poly, RatFunc, commutator, dop_mul
from bispec.rational import nonzero_terms

small_st = st.fractions(min_value=-5, max_value=5, max_denominator=3)
polys_st = st.lists(small_st, min_size=1, max_size=3).map(Poly)
# denominators: 1, x^k, (x + a)^k and x^2 + 1, alone or times x^k
dens_st = st.builds(
    lambda base, k, xk: base ** k * Poly.monomial(xk),
    st.sampled_from([Poly([1]), Poly([1, 1]), Poly([-2, 1]), Poly([1, 0, 1])]),
    st.integers(0, 2),
    st.integers(0, 2),
)
ratfuncs_st = st.builds(RatFunc, polys_st, dens_st)


def operators(max_order=3):
    return st.dictionaries(st.integers(0, max_order), ratfuncs_st,
                           max_size=max_order + 1).map(lambda cs: DiffOp("x", cs))


class TestBracket:
    @settings(max_examples=50, deadline=None)
    @given(operators(2), operators(3))
    def test_matches_difference_of_products(self, L, M):
        assert commutator(L, M) == dop_mul(L, M) - dop_mul(M, L)

    def test_function_with_function_is_zero(self):
        f = DiffOp.from_function(RatFunc(Poly([1, 2]), Poly([1, 0, 1])))
        g = DiffOp.from_function(RatFunc(Poly([0, 1]), Poly([1, 1])))
        assert commutator(f, g).is_zero()


# ---------------------------------------------------------------------------
# PDO products against the generalized-binomial loop they replace
# ---------------------------------------------------------------------------

def _binom(n: int, t: int) -> Fraction:
    out = Fraction(1)
    for s in range(t):
        out *= Fraction(n - s, s + 1)
    return out


def pdo_product_oracle(P: PDO, Q: PDO) -> PDO:
    """d^i o b = sum_t C(i, t) b^(t) d^(i-t), each chain cut at the
    truncation, with the binomial C(i, t) taken in fractions."""
    trunc = P._product_trunc(Q)
    out = {}
    for i, a in P.terms.items():
        for j, b in Q.terms.items():
            if trunc is None and i < 0 and not b.is_polynomial():
                raise NotInDomain("untruncated product with infinite expansion")
            deriv, t = b, 0
            while not deriv.is_zero() and not (i >= 0 and t > i):
                k = i + j - t
                if trunc is not None and k < -trunc:
                    break
                out[k] = out.get(k, RatFunc.zero()) + a * deriv.scale(_binom(i, t))
                deriv, t = deriv.derivative(), t + 1
    return PDO._trusted(nonzero_terms(out), trunc)


def pdos(polynomial=False):
    coeffs = polys_st.map(RatFunc) if polynomial else ratfuncs_st
    return st.builds(PDO,
                     st.dictionaries(st.integers(-3, 2), coeffs, max_size=4),
                     st.one_of(st.none(), st.integers(1, 5)))


def _product_or_error(P, Q):
    try:
        return P * Q
    except NotInDomain as e:
        return str(e)


def _oracle_or_error(P, Q):
    try:
        return pdo_product_oracle(P, Q)
    except NotInDomain as e:
        return str(e)


x = RatFunc.x()
inv = RatFunc(Poly([1]), Poly([1, 1]))  # (x + 1)^-1


class TestPDOProduct:
    @settings(max_examples=80, deadline=None)
    @given(pdos(), pdos())
    def test_matches_binomial_loop(self, P, Q):
        assert _product_or_error(P, Q) == _oracle_or_error(P, Q)

    @settings(max_examples=40, deadline=None)
    @given(pdos(), pdos(polynomial=True))
    def test_matches_binomial_loop_polynomial_right(self, P, Q):
        assert _product_or_error(P, Q) == _oracle_or_error(P, Q)

    def test_truncated(self):
        P = PDO({1: RatFunc.one(), -1: inv, -2: x}, 4)
        Q = PDO({0: RatFunc.one(), -1: inv * inv, -3: x * inv}, 5)
        got = P * Q
        assert got.trunc == 4  # min(4 - 0, 5 - 1)
        assert got == pdo_product_oracle(P, Q)

    def test_untruncated(self):
        P = PDO({2: RatFunc.one(), 0: inv, -2: x}, None)
        Q = PDO({1: x * x, -1: RatFunc(Poly([1, 0, 3]))}, None)
        got = P * Q
        assert got.trunc is None
        assert got == pdo_product_oracle(P, Q)

    def test_infinite_expansion_is_not_in_domain(self):
        P = PDO({0: RatFunc.one(), -1: x}, None)
        Q = PDO({0: inv}, None)
        with pytest.raises(NotInDomain, match="infinite expansion"):
            P * Q
        with pytest.raises(NotInDomain):
            pdo_product_oracle(P, Q)
        # with no negative power of d on the left the sum is finite
        assert (Q * P) == pdo_product_oracle(Q, P)


# ---------------------------------------------------------------------------
# work done by the kernel
# ---------------------------------------------------------------------------

@pytest.fixture
def ratfunc_calls(monkeypatch):
    """Record the scalar of every RatFunc.scale and count RatFunc products
    and derivatives."""
    seen = {"scale": [], "mul": 0, "derivative": 0}
    scale, mul, derivative = RatFunc.scale, RatFunc.__mul__, RatFunc.derivative

    def counting_scale(self, c):
        seen["scale"].append(c)
        return scale(self, c)

    def counting_mul(self, other):
        seen["mul"] += 1
        return mul(self, other)

    def counting_derivative(self):
        seen["derivative"] += 1
        return derivative(self)

    monkeypatch.setattr(RatFunc, "scale", counting_scale)
    monkeypatch.setattr(RatFunc, "__mul__", counting_mul)
    monkeypatch.setattr(RatFunc, "derivative", counting_derivative)
    return seen


class TestKernelWork:
    def test_never_scales_by_one(self, ratfunc_calls):
        d = DiffOp.d()
        L = d ** 3 + DiffOp.from_function(inv) * d + DiffOp.from_function(x)
        M = DiffOp.from_function(x * x) * d * d + DiffOp.from_function(inv * inv)
        dop_mul(L, M)
        commutator(L, M)
        P = PDO({2: RatFunc.one(), -1: inv, -2: x}, 4)
        P * PDO({0: RatFunc.one(), -1: x * x, -2: inv}, 4)
        assert ratfunc_calls["scale"]
        assert 1 not in ratfunc_calls["scale"]

    def test_bracket_product_count(self, ratfunc_calls):
        """[d^2 - 2x^-2, x^2 d + x] with the t = 0 terms skipped:
        d^2 o x^2 d gives t = 1, 2 (two products), d^2 o x gives t = 1
        (x'' = 0 ends the chain), x^2 d o -2x^-2 gives t = 1, and the
        order-0 coefficients end their chains at once: four products.  The
        two full products of the difference LM - ML take twelve."""
        L = DiffOp("x", {2: RatFunc.one(), 0: RatFunc.x_power(-2, -2)})
        M = DiffOp("x", {1: x * x, 0: x})
        ratfunc_calls["mul"] = 0
        bracket = commutator(L, M)
        assert ratfunc_calls["mul"] == 4
        assert ratfunc_calls["scale"] == [2, 2]
        ratfunc_calls["mul"] = 0
        assert bracket == dop_mul(L, M) - dop_mul(M, L)
        assert ratfunc_calls["mul"] == 12

    @pytest.mark.parametrize("P,Q,count", [
        # d^2 o (x + 1)^-1: the binomial C(2, 3) = 0 ends the chain
        (PDO({2: RatFunc.one()}, None), PDO({0: inv}, None), 2),
        # d^-1 o (x + 1)^-1 through d^-3: the truncation ends the chain
        (PDO({-1: RatFunc.one()}, 3), PDO({0: inv}, 3), 2),
    ])
    def test_no_unused_derivative(self, ratfunc_calls, P, Q, count):
        ratfunc_calls["derivative"] = 0
        P * Q
        assert ratfunc_calls["derivative"] == count
