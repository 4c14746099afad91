"""Exact linear algebra over the integers and the rationals.

Elimination works on sparse rows: a row is a dict {column key: Fraction
or int} with mutually orderable keys; zero entries are ignored.  Echelon
scales each added row once to Python ints over the common denominator of
its entries and reduces it against pivots kept in row echelon form on
the smallest key of each row, so the kept row indices are the greedy
in-order maximal independent set, whatever the column order.

Every step is unimodular.  With pivot lead a and row lead b, a row is
reduced by (b // a) times the pivot when a divides b; otherwise, with
d = gcd(a, b) = x a + y b, the pivot becomes x p + y r (lead d) and the
row (b // d) p - (a // d) r (lead 0) is reduced further.  No Fraction is
built and no row is divided by its content, so the pivot rows are a
basis of the Z-span of the scaled rows.  index() is |product of the
pivot leads|: when every added row is integral and the rank is the
number of columns n, that is the index of their Z-span in Z^n.  On
scaled p/q rows it depends on the scaling and is no lattice invariant.

mat_mul multiplies small dense matrices, lists of lists of Fraction;
nothing in the package calls it.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod


def _over_common_denominator(coeffs) -> tuple[int, list[int]]:
    """(D, [n, ...]) with each Fraction of the collection equal to n / D.

    D is the least common multiple of the denominators, so integral
    coefficients give D = 1 and their numerators unchanged.  The one
    scaling helper of the package's integer kernels.
    """
    den = 1
    for c in coeffs:
        q = c.denominator
        if den % q:
            den = den // gcd(den, q) * q
    if den == 1:
        return 1, [c.numerator for c in coeffs]
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(d, x, y) with d = gcd(a, b) = x a + y b, for nonzero a, b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


class Echelon:
    """Integer row echelon form grown one row at a time."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict = {}  # lead key -> int row, every other key larger

    def add(self, row: dict) -> bool:
        """Reduce a copy of row against the pivots; True when the rank went up."""
        r = {k: n for k, n in zip(row, _over_common_denominator(row.values())[1]) if n}
        pivots = self._pivots
        while r:
            lead = min(r)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = r
                return True
            a, b = p[lead], r[lead]
            q, rem = divmod(b, a)
            if rem:  # a does not divide b: the gcd step, determinant -1
                d, x, y = _bezout(a, b)
                keys = p.keys() | r.keys()
                pivots[lead] = {k: n for k in keys
                                if (n := x * p.get(k, 0) + y * r.get(k, 0))}
                bd, ad = b // d, a // d
                r = {k: n for k in keys if (n := bd * p.get(k, 0) - ad * r.get(k, 0))}
                continue
            for k, v in p.items():
                n = r.get(k, 0) - q * v
                if n:
                    r[k] = n
                else:
                    del r[k]
        return False

    def index(self) -> int:
        """|product of the pivot leads|; 1 while no row has been kept."""
        return abs(prod(p[lead] for lead, p in self._pivots.items()))


def independent_row_indices(rows: list[dict]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily in order."""
    echelon = Echelon()
    return [i for i, row in enumerate(rows) if echelon.add(row)]


def rank_of_rows(rows: list[dict]) -> int:
    """Exact rank of the row span."""
    return len(independent_row_indices(rows))


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Dense matrix product.  No caller in the package; kept as a benchmark tracing target."""
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(r) == k for r in a)
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
            for i in range(n)]
