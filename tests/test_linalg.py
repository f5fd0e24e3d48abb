"""Sparse exact elimination in ``bispec.linalg`` against the dense
Gauss-Jordan reference of ``oracles`` and against sympy, and the callers
that must keep reaching it."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispec import (
    Poly,
    RatFunc,
    centralizer_search,
    laurent_expand,
    linalg,
    parse_operator,
    print_operator,
)
from bispec.rational import rational_reconstruct
from oracles import dense_nullspace, dense_rref


def sparse(row):
    return {c: v for c, v in enumerate(row) if v != 0}


def dense(vec, ncols):
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]).flatmap(
    lambda n: st.sampled_from([Fraction(n), Fraction(n, 2), Fraction(n, 3)]))


@st.composite
def matrices(draw):
    """(rows, ncols): sparse rows, zero rows, and rows that are combinations
    of earlier rows, in a random order."""
    ncols = draw(st.integers(0, 7))
    base = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=6))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3)) if base else 0):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        s = draw(_entries)
        rows.append([x + s * y for x, y in zip(a, b)])
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows)), ncols


def check_against_reference(rows, ncols):
    given_rows = [sparse(r) for r in rows]
    snapshot = [dict(r) for r in given_rows]
    red, pivots = linalg.rref(given_rows)
    ref_red, ref_pivots = dense_rref(rows, ncols)
    assert pivots == ref_pivots
    assert [dense(r, ncols) for r in red] == ref_red
    assert all(0 not in r.values() for r in red)
    basis = linalg.nullspace(given_rows, ncols)
    assert [dense(v, ncols) for v in basis] == dense_nullspace(rows, ncols)
    assert len(basis) == ncols - len(pivots)
    for v in basis:
        assert all(sum(a * v.get(c, 0) for c, a in enumerate(r)) == 0 for r in rows)
    assert given_rows == snapshot  # the input is not modified


class TestAgainstDense:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_random(self, m):
        check_against_reference(*m)

    @pytest.mark.parametrize("rows, ncols", [
        ([], 0),
        ([], 3),
        ([[]], 0),
        ([[0, 0, 0], [0, 0, 0]], 3),  # zero rows, every column free
        ([[1, 2, 3], [2, 4, 6], [0, 0, 0], [-1, -2, -3]], 3),  # dependent rows
        ([[0, 2, 4], [3, 0, 1]], 3),  # pivot rows out of order
        ([[0, 0, 5], [0, 1, 1], [1, 1, 1]], 3),  # full rank, reversed
    ])
    def test_examples(self, rows, ncols):
        check_against_reference([[Fraction(v) for v in r] for r in rows], ncols)

    def test_stored_zeros_are_ignored(self):
        red, pivots = linalg.rref([{0: Fraction(0), 1: Fraction(2)}, {1: Fraction(0)}])
        assert (red, pivots) == ([{1: Fraction(1)}], [1])
        assert linalg.nullspace([{0: Fraction(0), 1: Fraction(2)}], 2) == [{0: Fraction(1)}]


class TestAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rref(self, m):
        sympy = pytest.importorskip("sympy")
        rows, ncols = m
        if not rows or not ncols:
            return
        ref, ref_pivots = sympy.Matrix(rows).rref()
        red, pivots = linalg.rref([sparse(r) for r in rows])
        assert pivots == list(ref_pivots)
        expect = [[Fraction(int(v.p), int(v.q)) for v in ref.row(i)] for i in range(len(pivots))]
        assert [dense(r, ncols) for r in red] == expect


KDV3 = "d^3 - 3*x^-2*d + 3*x^-3"


def test_centralizer_anchor_generators():
    # the bounded-origin benchmark's centralizer operation
    res = centralizer_search(parse_operator(KDV3), 5)
    assert res["orders"] == [0, 2, 3, 4, 5]
    assert [M.order for M in res["generators"]] == [5, 4, 3, 2, 0]
    assert res["rank"] == 1
    assert [print_operator(M) for M in res["generators"]] == [
        "d^5 - 5*x^-2*d^3 + 15*x^-3*d^2 - 30*x^-4*d + 30*x^-5",
        "d^4 - 4*x^-2*d^2 + 8*x^-3*d - 8*x^-4",
        KDV3,
        "d^2 - 2*x^-2",
        "1",
    ]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls to linalg.rref and linalg.nullspace by rebinding them in
    every bispec module namespace, the way the benchmark's span tracer
    does; a caller that stops going through those names counts nothing."""
    calls = {"rref": 0, "nullspace": 0}
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "bispec" or n.startswith("bispec.")) and m is not None]
    for name in calls:
        original = getattr(linalg, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, wrapper)
    return calls


def test_centralizer_search_reaches_traced_names(linalg_calls):
    centralizer_search(parse_operator(KDV3), 3)
    # one nullspace (with its rref); its basis comes already echelonized
    assert linalg_calls == {"nullspace": 1, "rref": 1}


def test_rational_reconstruct_reaches_traced_names(linalg_calls):
    f = RatFunc(Poly([1]), Poly([1, 1]))
    assert rational_reconstruct(laurent_expand(f, 4), 4, 0, 1) == f
    assert linalg_calls == {"nullspace": 1, "rref": 1}
