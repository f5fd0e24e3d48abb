"""The trusted constructors build only canonical values.

Ring arithmetic wraps results it knows are canonical with ``Poly._trusted``
or, for ``RatFunc``, ``DiffOp``, ``TOp`` and the series, the one
``Record._trusted``, skipping the public constructors' coercion, trimming,
reduction and zero filtering.
Each test re-validates results through the public constructors and
requires the copy to be identical, entry types included.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import DiffOp, LaurentTail, PDO, Poly, RatFunc, dop_mul
from bispec.diffop import TOp

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonzero = small.filter(bool)
poly_st = st.lists(small, max_size=4).map(Poly)
# denominators: 1, c*x^k (shift reduction) and others (Euclid reduction)
den_st = st.one_of(
    st.just(Poly.one()),
    st.builds(Poly.monomial, st.integers(1, 3), nonzero),
    st.sampled_from([Poly([1, 1]), Poly([1, 0, 1]), Poly([-2, 1]) ** 2,
                     Poly([0, 1, 1])]),
)
ratfunc_st = st.builds(RatFunc, poly_st, den_st)
op_st = st.dictionaries(st.integers(0, 3), ratfunc_st, max_size=3).map(
    lambda cs: DiffOp("x", cs))


def assert_canonical_poly(p: Poly):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert Poly(p.coeffs).coeffs == p.coeffs


def assert_canonical_ratfunc(f: RatFunc):
    assert_canonical_poly(f.num)
    assert_canonical_poly(f.den)
    ref = RatFunc(f.num, f.den)
    assert (ref.num.coeffs, ref.den.coeffs) == (f.num.coeffs, f.den.coeffs)
    if f.den.coeffs == (1,):
        assert f.den is Poly.one()


def assert_canonical_op(L: DiffOp):
    assert all(type(j) is int and j >= 0 for j in L.coeffs)
    assert not any(c.is_zero() for c in L.coeffs.values())
    for c in L.coeffs.values():
        assert_canonical_ratfunc(c)
    assert DiffOp(L.var, dict(L.coeffs)).coeffs == L.coeffs


@settings(max_examples=150, deadline=None)
@given(poly_st, poly_st, small, st.integers(0, 4))
def test_poly_results(p, q, c, k):
    for r in (p * q, p + q, p - q, -p, p.scale(c), p.derivative(),
              Poly.monomial(k, c), Poly.const(c)):
        assert_canonical_poly(r)
    if not q.is_zero():
        for r in p.divmod(q):
            assert_canonical_poly(r)


@settings(max_examples=150, deadline=None)
@given(ratfunc_st, ratfunc_st, small)
def test_ratfunc_results(f, g, c):
    for h in (f * g, f + g, f - g, -f, f.scale(c), f.derivative(), g.derivative(),
              RatFunc.const(c)):
        assert_canonical_ratfunc(h)


@settings(max_examples=100, deadline=None)
@given(op_st, op_st, small, ratfunc_st)
def test_operator_results(L, M, c, f):
    assert_canonical_op(L)
    for R in (dop_mul(L, M), dop_mul(M, L), L + M, L - M, -L, L.scale(c),
              L.mul_function(f)):
        assert_canonical_op(R)


def test_cancellation_leaves_no_zero_coefficient():
    L = DiffOp("x", {2: RatFunc.one(), 0: RatFunc.x()})
    assert (L - L).coeffs == {}
    assert (L + L.scale(-1)).is_zero()
    assert L.mul_function(RatFunc.zero()).is_zero()
    # [d, x] = 1: the d-terms of d*x and x*d cancel
    d, x = DiffOp.d(), DiffOp.x()
    assert (dop_mul(d, x) - dop_mul(x, d)).coeffs == {0: RatFunc.one()}
    p = Poly([1, 2, 3])
    assert (p - p).coeffs == () and (p + Poly([0, 0, -3])).coeffs == (1, 2)


tail_st = st.builds(
    LaurentTail,
    st.dictionaries(st.integers(-6, 3), small, max_size=5),
    st.one_of(st.none(), st.integers(-2, 8)),
)


def assert_canonical_terms(t):
    assert all(type(k) is int for k in t.terms)
    assert all(type(v) is Fraction and v != 0 for v in t.terms.values())
    assert type(t)(dict(t.terms), t.trunc) == t


@settings(max_examples=100, deadline=None)
@given(tail_st, tail_st, small, st.integers(-2, 8))
def test_tail_results(s, t, c, trunc):
    results = [s + t, s - t, -s, s.restrict(trunc)]
    if not s.coeff(-1):
        results.append(s.antiderivative())
    for r in results:
        assert_canonical_terms(r)
    # the Laurent Weyl algebra: s as a function, t d^2 scaled by c
    top = TOp({**{(0, e): v for e, v in s.terms.items()},
               **{(2, e): v * c for e, v in t.terms.items() if c}})
    for T in (top + top, top - top, top * top, -top, top ** 2):
        assert all(type(v) is Fraction and v for v in T.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-3, 2), ratfunc_st, max_size=3),
       st.dictionaries(st.integers(-3, 1), ratfunc_st, max_size=3),
       st.integers(2, 5))
def test_pdo_results(a, b, trunc):
    P, Q = PDO(a, trunc), PDO(b, trunc)
    for R in (P * Q, P + Q, P - Q, -P, P.restrict(trunc - 1)):
        assert all(not v.is_zero() for v in R.terms.values())
        assert R.trunc is None or all(k >= -R.trunc for k in R.terms)
        assert PDO(dict(R.terms), R.trunc) == R
