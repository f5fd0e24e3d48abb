"""The Airy side in one variable, u = x + z: the bispectral check reads
both eigenvalue identities from A Phi = 0, the involution maps x^a d^j to
d_z^j A(z, d_z)^a, and the obstruction walk takes its known length.

Each is checked against the two-variable or step-by-step reference it
replaced (in ``oracles``).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bispec.airy
import oracles
from bispec import (
    DiffOp,
    NotAiryShape,
    Poly,
    RatFunc,
    airy_bispectral_check,
    airy_involution,
    make_airy,
    perturbation_obstruction,
)
from oracles import (
    airy_bispectral_check_bivariate,
    airy_involution_by_transpose,
    perturbation_obstruction_loop,
)

small_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero_st = small_st.filter(bool)


def airy_operators(orders=(2, 3, 4, 5), strict_lam=False):
    """d^N + sum_{1<=j<=N-2} a_j d^j + a_0 - lam x, with lam = 1 when
    ``strict_lam`` and otherwise 1 or a random nonzero value."""
    lam_st = st.just(Fraction(1)) if strict_lam else st.one_of(st.just(Fraction(1)),
                                                               nonzero_st)

    def build(N, a, a0, lam):
        coeffs = {j: RatFunc.const(c) for j, c in a.items() if 1 <= j <= N - 2}
        return DiffOp("x", {**coeffs, N: 1, 0: RatFunc(Poly([a0, -lam]))})

    return st.builds(build, st.sampled_from(orders),
                     st.dictionaries(st.integers(1, 3), small_st, max_size=3),
                     small_st, lam_st)


class TestBispectralCheck:
    @settings(max_examples=40, deadline=None)
    @given(airy_operators(), st.integers(3, 14))
    def test_matches_two_variable_check(self, A, M):
        # both check the identities through total degree M - 2
        assert airy_bispectral_check(A, M) is airy_bispectral_check_bivariate(A, M) is True

    @pytest.mark.parametrize("A", [make_airy(2), make_airy(3, {1: 5}),
                                   make_airy(5, {2: -1, 3: 2})])
    @pytest.mark.parametrize("degree", [0, 2, 5])
    def test_corrupted_kernel_fails(self, A, degree, monkeypatch):
        kernel = bispec.airy.airy_kernel_series

        def corrupted(op, init, M):
            return kernel(op, init, M) + Poly.monomial(degree)

        monkeypatch.setattr(bispec.airy, "airy_kernel_series", corrupted)
        monkeypatch.setattr(oracles, "airy_kernel_series", corrupted)
        assert airy_bispectral_check(A, 10) is airy_bispectral_check_bivariate(A, 10) is False


polys_st = st.lists(small_st, min_size=1, max_size=3).map(Poly)


class TestInvolution:
    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(0, 3), polys_st, max_size=3),
           airy_operators(orders=(2, 3, 4), strict_lam=True))
    def test_matches_transpose(self, coeffs, A):
        P = DiffOp("x", coeffs)
        assert airy_involution(P, A) == airy_involution_by_transpose(P, A)


class TestObstructionWalk:
    @settings(max_examples=60, deadline=None)
    @given(airy_operators(), nonzero_st, st.integers(-30, -1), st.integers(0, 3),
           st.integers(0, 30))
    def test_matches_step_loop(self, A, c, h, k, max_steps):
        # k reaches N - 1, the slot where the walk's factor vanishes and
        # the last step would carry the witness alpha = 0: refused
        k = min(k, A.order - 1)
        L = A + DiffOp.monomial(RatFunc.x_power(h, c), k)
        if k == A.order - 1:
            with pytest.raises(NotAiryShape):
                perturbation_obstruction(L, max_steps)
            return
        trace = perturbation_obstruction(L, max_steps)
        assert trace == perturbation_obstruction_loop(L, max_steps)
        assert len(trace.steps) == 1 + min(-1 - h, max_steps)
        assert trace.obstructed == (-1 - h <= max_steps)
        if trace.obstructed:
            assert trace.steps[-1].s == -1 and trace.steps[-1].alpha != 0

