"""Dense exact linear algebra over the rationals.

Just enough for the rank computations and matrix identities used
elsewhere: no pivoting heuristics, no floats, matrices are lists of
lists of Fraction and never large (at most a few hundred columns).
"""

from __future__ import annotations

from fractions import Fraction


def _reduce_against(pivots: dict[int, list[Fraction]], row: list[Fraction]):
    """Reduce row against an echelon set; return (lead, normalized row) or None.

    pivots maps a leading column to a row normalized to have a 1 there.
    """
    row = list(row)
    while True:
        lead = None
        for j, v in enumerate(row):
            if v:
                lead = j
                break
        if lead is None:
            return None
        if lead not in pivots:
            inv = Fraction(1, 1) / row[lead]
            return lead, [v * inv for v in row]
        p = pivots[lead]
        f = row[lead]
        row = [v - f * w for v, w in zip(row, p)]


def independent_row_indices(rows: list[list[Fraction]]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily in order."""
    pivots: dict[int, list[Fraction]] = {}
    kept = []
    for i, row in enumerate(rows):
        hit = _reduce_against(pivots, row)
        if hit is not None:
            lead, reduced = hit
            pivots[lead] = reduced
            kept.append(i)
    return kept


def rank_of_rows(rows: list[list[Fraction]]) -> int:
    """Exact rank of the row span."""
    return len(independent_row_indices(rows))


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(r) == k for r in a)
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
            for i in range(n)]


def is_identity(a: list[list[Fraction]]) -> bool:
    return all(v == (1 if i == j else 0) for i, row in enumerate(a) for j, v in enumerate(row))
