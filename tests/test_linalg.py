"""Sparse exact elimination against the dense oracle in conftest, and Echelon.index."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import oracle_independent_rows
from torelli import (Multivector, SymplecticSpace, omega3, primitive_basis,
                     project_primitive)
from torelli.exterior import isotropic_spanning_wedges
from torelli.linalg import Echelon, independent_row_indices, rank_of_rows


def _dense(rows: list[dict], columns: list) -> list[list[Fraction]]:
    return [[row.get(c, Fraction(0)) for c in columns] for row in rows]


def _projector_rows(sp: SymplecticSpace) -> list[dict]:
    return [project_primitive(Multivector.basis(sp, t)).terms
            for t in itertools.combinations(range(sp.dim), 3)]


def _isotropic_rows(sp: SymplecticSpace) -> list[dict]:
    return [w.terms for w in isotropic_spanning_wedges(sp)]


def _check(rows: list[dict], columns: list) -> list[int]:
    expected = oracle_independent_rows(_dense(rows, columns))
    assert independent_row_indices(rows) == expected
    assert rank_of_rows(rows) == len(expected)
    return expected


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
@pytest.mark.parametrize("family", [_projector_rows, _isotropic_rows])
def test_primitive_rows_match_oracle(genus, family):
    sp = SymplecticSpace(genus)
    columns = list(itertools.combinations(range(sp.dim), 3))
    kept = _check(family(sp), columns)
    assert len(kept) == len(columns) - sp.dim


@pytest.mark.parametrize("genus", [3, 4])
def test_omega3_gram_rows_match_oracle(genus):
    size = math.comb(2 * genus, 3) - 2 * genus  # 14 and 48
    basis = primitive_basis(SymplecticSpace(genus))
    gram = [[omega3(x, y) for y in basis] for x in basis]
    assert any(v.denominator > 1 for row in gram for v in row)
    as_dicts = [{j: v for j, v in enumerate(row) if v} for row in gram]
    assert _check(as_dicts, list(range(len(basis)))) == list(range(size))


def _random_rows(rng: random.Random, ncols: int, nrows: int) -> list[dict]:
    """Sparse p/q rows, about half of them exact combinations of earlier rows.

    Some combinations are chosen to cancel a shared key, so elimination
    has to delete keys; an empty row appears too.
    """
    rows: list[dict] = [{}]
    while len(rows) < nrows:
        live = [r for r in rows if r]
        if len(live) >= 2 and rng.random() < 0.5:
            r1, r2 = rng.sample(live, 2)
            shared = sorted(set(r1) & set(r2))
            if shared and rng.random() < 0.7:
                k = rng.choice(shared)
                a, b = r2[k], -r1[k]  # a*r1 + b*r2 cancels key k
            else:
                a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                b = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            combo: dict = {}
            for row, s in ((r1, a), (r2, b)):
                for key, v in row.items():
                    combo[key] = combo.get(key, 0) + s * v
            rows.append({key: v for key, v in combo.items() if v})
        else:
            width = rng.randint(1, 4)
            rows.append({c: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                                      rng.randint(1, 6))
                         for c in rng.sample(range(ncols), width)})
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_random_sparse_rows_match_oracle(seed):
    rng = random.Random(seed)
    ncols = rng.randint(4, 12)
    rows = _random_rows(rng, ncols, rng.randint(5, 20))
    kept = _check(rows, list(range(ncols)))
    assert 0 not in kept  # the empty row is never independent


def test_tuple_keys_order_like_dense_columns():
    columns = list(itertools.combinations(range(5), 2))
    rng = random.Random(7)
    rows = [{columns[c]: v for c, v in row.items()}
            for row in _random_rows(rng, len(columns), 15)]
    _check(rows, columns)


def test_zero_entries_in_dict_rows_are_ignored():
    rows = [{0: Fraction(0), 1: Fraction(2)}, {0: Fraction(0), 1: Fraction(1)},
            {0: Fraction(5), 1: Fraction(0)}]
    assert independent_row_indices(rows) == [0, 2]


def test_input_rows_are_not_modified():
    rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(3), 1: Fraction(6)},
            {1: Fraction(1, 3)}]  # the second row takes the gcd step
    before = [dict(r) for r in rows]
    assert independent_row_indices(rows) == [0, 2]
    assert rows == before


def test_integer_entries_stay_exact():
    # in floats the second row would look like a third of the first
    nearly = Fraction(1, 3) + Fraction(1, 10**30)
    assert independent_row_indices([{0: 3, 1: 1}, {0: 1, 1: nearly}]) == [0, 1]
    assert independent_row_indices([{0: 3, 1: 1}, {0: 1, 1: Fraction(1, 3)}]) == [0]


def _index(rows: list[dict]) -> int:
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.index()


def test_add_reports_rank_increase():
    echelon = Echelon()
    assert [echelon.add(r) for r in ({0: 2}, {0: 3}, {}, {0: 1, 1: 5}, {1: 7})] == [
        True, False, False, True, False]


@pytest.mark.parametrize("rows, index", [
    ([{0: 2}, {1: 1}, {2: 1}], 2),  # 2 e_1 with unit rows
    ([{0: 1, 1: 1}, {0: 1, 1: 2}], 1),  # unimodular, divisible leads
    ([{0: 2, 1: 1}, {0: 3, 1: 2}], 1),  # unimodular, leads 2 and 3
    ([{0: 2}, {0: 3}, {1: 1}], 1),  # only the gcd step makes e_1 a pivot
    ([{0: 4, 1: 2}, {0: 6, 1: 1}], 8),  # det -8
    ([{(0, 1): -6, (0, 2): 4}, {(0, 1): 10, (1, 2): 1}, {(0, 2): 1}], 6),
], ids=["2e1", "unimodular-divisible", "unimodular-gcd", "gcd-step", "det8",
        "tuple-keys"])
def test_index_of_integral_lattices(rows, index):
    assert _index(rows) == index


@pytest.mark.parametrize("seed", range(5))
def test_index_of_a_random_integral_basis_is_its_determinant(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    while True:
        dense = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = _determinant(dense)
        if det:
            break
    assert _index([{j: v for j, v in enumerate(row) if v} for row in dense]) == abs(det)


def _determinant(m: list[list[int]]) -> int:
    """Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * v * _determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j, v in enumerate(m[0]) if v)
