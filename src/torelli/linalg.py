"""Exact linear algebra over the rationals.

Elimination works on sparse rows: a row is a dict {column key: Fraction}
with mutually orderable keys; zero entries are ignored.
Pivots are kept in row echelon form on the smallest key of each row, so
the kept row indices are the greedy in-order maximal independent set,
whatever the column order.  mat_mul multiplies small dense matrices,
lists of lists of Fraction; nothing in the package calls it.  No floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def independent_row_indices(rows: list[dict]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily in order."""
    pivots: dict = {}  # lead key -> row normalized to 1 there, all other keys larger
    kept = []
    for i, row in enumerate(rows):
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {k: v * inv for k, v in row.items()}
                kept.append(i)
                break
            f = row[lead]
            for k, v in pivot.items():
                c = row.get(k, 0) - f * v
                if c:
                    row[k] = c
                else:
                    del row[k]
    return kept


def rank_of_rows(rows: list[dict]) -> int:
    """Exact rank of the row span."""
    return len(independent_row_indices(rows))


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Dense matrix product.  No caller in the package; kept as a benchmark tracing target."""
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(r) == k for r in a)
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
            for i in range(n)]

