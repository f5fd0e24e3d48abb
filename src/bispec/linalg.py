"""Exact sparse linear algebra over Fraction: row reduction and nullspaces.

A row or vector is a map {column: nonzero Fraction}.  The systems here are
sparse: the centralizer search of d^3 - 3*x^-2*d + 3*x^-3 at order budget 5
has 151 rows, 96 columns and 508 nonzeros.  So elimination touches only
nonzeros, and its cost follows the fill of the system, not rows x columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Row = dict[int, Fraction]


def rref(rows: Iterable[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices), the
    rows in ascending pivot order.  The given rows are read once, in order,
    and left unchanged."""
    reduced: dict[int, Row] = {}  # pivot column -> its row
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        # pivot rows are zero in every other pivot column, so clearing one
        # never brings back another
        for p in [c for c in row if c in reduced]:
            _subtract(row, row[p], reduced[p])
        if not row:
            continue
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        # an earlier pivot row leads left of col or is zero there, so
        # clearing col keeps its pivot
        for other in reduced.values():
            if col in other:
                _subtract(other, other[col], row)
        reduced[col] = row
    pivots = sorted(reduced)
    return [reduced[p] for p in pivots], pivots


def _subtract(row: Row, factor: Fraction, pivot_row: Row) -> None:
    """row -= factor * pivot_row in place, dropping the zeros."""
    for c, v in pivot_row.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            del row[c]


def nullspace(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Basis of the solution space of rows * v = 0 over columns 0..ncols-1,
    one vector per free column, in ascending order of that column."""
    mat, pivots = rref(rows)
    basis = {f: {f: Fraction(1)} for f in range(ncols)}
    for p, row in zip(pivots, mat):
        del basis[p]
        for c, v in row.items():
            if c != p:
                basis[c][p] = -v
    return list(basis.values())
