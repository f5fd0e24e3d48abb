"""The Airy side in one variable, u = x + z: the bispectral check reads
both eigenvalue identities from A Phi = 0, the involution maps x^a d^j to
d_z^j A(z, d_z)^a, the obstruction walk takes its known length, and each
piece of the wave recursion is one division of [A, delta] + V delta.

Each is checked against the two-variable, step-by-step or two-division
reference it replaced (in ``oracles``).
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bispec.airy
import oracles
from bispec import (
    DiffOp,
    Poly,
    RatFunc,
    airy_bispectral_check,
    airy_involution,
    airy_wave_residual,
    airy_wave_solve,
    make_airy,
    parse_operator,
    perturbation_obstruction,
)

from bispec.airy import AiryPDO, _contributions, _top
from bispec.diffop import TOp
from oracles import (
    airy_bispectral_check_bivariate,
    airy_involution_by_transpose,
    contributions_by_two_divisions,
    mono_add,
    mono_cut,
    mono_of_top,
    mono_scale,
    perturbation_obstruction_loop,
    top_of_mono,
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
        rep = airy_bispectral_check(A, M)
        assert rep == airy_bispectral_check_bivariate(A, M)
        assert rep.ok and rep.verified_degree == M - 2

    @pytest.mark.parametrize("A", [make_airy(2), make_airy(3, {1: 5}),
                                   make_airy(5, {2: -1, 3: 2})])
    @pytest.mark.parametrize("degree", [0, 2, 5])
    def test_corrupted_kernel_fails(self, A, degree, monkeypatch):
        kernel = bispec.airy.airy_kernel_series

        def corrupted(op, init, M):
            return kernel(op, init, M) + Poly.monomial(degree)

        monkeypatch.setattr(bispec.airy, "airy_kernel_series", corrupted)
        monkeypatch.setattr(oracles, "airy_kernel_series", corrupted)
        rep = airy_bispectral_check(A, 10)
        assert not rep.ok
        assert rep == airy_bispectral_check_bivariate(A, 10)


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
        k = min(k, A.order - 2)
        L = A + DiffOp.monomial(RatFunc.x_power(h, c), k)
        trace = perturbation_obstruction(L, max_steps)
        assert trace == perturbation_obstruction_loop(L, max_steps)
        assert len(trace.steps) == 1 + min(-1 - h, max_steps)
        assert trace.obstructed == (-1 - h <= max_steps)


def pieces(N):
    """Values c x^e d^k of the Laurent Weyl algebra with k < N and
    e in -6..3."""
    return st.dictionaries(st.tuples(st.integers(0, N - 1), st.integers(-6, 3)),
                           nonzero_st, max_size=3 * N).map(TOp)


@st.composite
def perturbations(draw, N):
    """A decaying V of order <= N - 2: Laurent terms c x^h (h < 0) and
    rational terms c (x + a)^-k."""
    coeffs = {}
    for j in range(draw(st.integers(1, N - 1))):
        c, h = draw(nonzero_st), draw(st.integers(-4, -1))
        f = RatFunc.x_power(h, c)
        if draw(st.booleans()):
            a, k = draw(st.integers(-2, 2)), draw(st.integers(1, 2))
            f = f + RatFunc(Poly([c]), Poly([a, 1]) ** k)
        coeffs[j] = f
    return DiffOp("x", coeffs)


def contributions_cut_by_two_divisions(delta, At, Lt, depth):
    """``contributions_by_two_divisions`` of the whole dividend, with
    V = L - A, cut at x^-depth, as the solve cuts its results."""
    A = mono_of_top(At)
    V = mono_add(mono_of_top(Lt), mono_scale(A, -1))
    return tuple(top_of_mono(mono_cut(part, depth))
                 for part in contributions_by_two_divisions(mono_of_top(delta), A, V))


class TestContributions:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), airy_operators(orders=(2, 3, 4)), st.integers(3, 12))
    def test_matches_two_divisions(self, data, A, depth):
        N = A.order
        V = data.draw(perturbations(N))
        delta = data.draw(pieces(N))
        At = _top(A, depth)
        Lt = At + _top(V, depth)
        assert _contributions(delta, At, Lt, depth) == \
            contributions_cut_by_two_divisions(delta, At, Lt, depth)

    @staticmethod
    def solve_both_ways(L, J):
        """(K, residual) by one division per piece, then by two."""
        out = []
        for contributions in (_contributions, contributions_cut_by_two_divisions):
            with mock.patch.object(bispec.airy, "_contributions", contributions):
                K = airy_wave_solve(L, J)
                out.append((K, isinstance(K, AiryPDO) and airy_wave_residual(L, K)))
        return out

    @settings(max_examples=60, deadline=None)
    @given(st.data(), airy_operators(orders=(2, 3, 4)), st.integers(1, 6))
    def test_exact_pieces(self, data, A, J):
        """The recursion's pieces are exact Laurent polynomials cut at one
        depth, so one division and two give the same solve, and the
        residual check accepts every solve either way."""
        L = A + data.draw(perturbations(A.order))
        (K, one), (K2, two) = self.solve_both_ways(L, J)
        assert K == K2
        assert one == two == isinstance(K, AiryPDO)

    def test_residual_found_by_either_division(self):
        L = parse_operator("d^4 - d^2 + 3*x^-4*d^2 - 3*d - x")
        (K, one), (K2, two) = self.solve_both_ways(L, 2)
        assert isinstance(K, AiryPDO)
        assert K == K2 and one and two
