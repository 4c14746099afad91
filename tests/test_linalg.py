"""Sparse exact elimination against the dense oracle in conftest."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import oracle_independent_rows
from torelli import (Multivector, SymplecticSpace, omega3, primitive_basis,
                     project_primitive)
from torelli.exterior import isotropic_spanning_wedges
from torelli.linalg import independent_row_indices, rank_of_rows


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


def test_omega3_gram_rows_match_oracle():
    basis = primitive_basis(SymplecticSpace(3))
    gram = [[omega3(x, y) for y in basis] for x in basis]
    as_dicts = [{j: v for j, v in enumerate(row) if v} for row in gram]
    assert _check(as_dicts, list(range(len(basis)))) == list(range(14))


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
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)},
            {1: Fraction(1, 3)}]
    before = [dict(r) for r in rows]
    assert independent_row_indices(rows) == [0, 2]
    assert rows == before


def test_integer_entries_stay_exact():
    # in floats the second row would look like a third of the first
    nearly = Fraction(1, 3) + Fraction(1, 10**30)
    assert independent_row_indices([{0: 3, 1: 1}, {0: 1, 1: nearly}]) == [0, 1]
    assert independent_row_indices([{0: 3, 1: 1}, {0: 1, 1: Fraction(1, 3)}]) == [0]
