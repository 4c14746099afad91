"""Exactness of the kernels that sum Python ints over a common denominator.

contraction3, split_primitive, sym_product, the determinant pairings
(intersection, q2, omega3, omega3_gram_rows), phi and Transvection.apply
scale their inputs to ints, accumulate, and build one Fraction per
nonzero output key.  Each is checked against its conftest oracle at
genus 3-6 on p/q inputs with the coprime denominators 7, 9 and 11, and
on inputs whose contributions cancel a key, and every result is checked
to be in normal form: each value a Fraction, none zero.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (dense_coords, dense_pairing_matrix, oracle_contraction3,
                      oracle_omega3, oracle_q2_vectors, oracle_transvection,
                      oracle_vector_wedge)
from test_forms import expanded_phi, expanded_q2
from torelli import (Multivector, Sym2Element, SymplecticSpace, Transvection,
                     contraction3, delta, intersection, omega3, phi, q2,
                     split_primitive, sym_product, wedge)
from torelli.forms import omega3_gram_rows

GENERA = (3, 4, 5, 6)
DENOMINATORS = (7, 9, 11)


def pq(rng) -> Fraction:
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4, 6]), rng.choice(DENOMINATORS))


def pq_form(space, degree, rng, nterms=6):
    """Random form on the a and b vectors of three handles, p/q coefficients.

    Three handles keep dual keys and dual slot pairs shared between two
    draws, so the pairings and phi are rarely zero even at genus 6.
    """
    handles = rng.sample(range(space.genus), 3)
    indices = sorted(handles + [space.genus + h for h in handles])
    keys = rng.sample(list(itertools.combinations(indices, degree)), nterms)
    return Multivector(space, degree, {k: pq(rng) for k in keys})


def pq_vector(space, rng):
    return Multivector(space, 1, {(i,): pq(rng) for i in rng.sample(range(space.dim), 4)})


def assert_normal(x):
    """Each value a Fraction, not an int, and none zero; a scalar is a Fraction."""
    if isinstance(x, (Multivector, Sym2Element)):
        for value in x.terms.values():
            assert type(value) is Fraction and value != 0, x.terms
    else:
        assert type(x) is Fraction


def oracle_intersection(u, v):
    j = dense_pairing_matrix(u.space)
    us, vs = dense_coords(u), dense_coords(v)
    return sum((us[p] * vs[q] * j[p][q] for p in range(u.space.dim)
                for q in range(u.space.dim)), Fraction(0))


def oracle_sym_product(u, v):
    terms: dict = {}
    for p, x in enumerate(dense_coords(u)):
        for q, y in enumerate(dense_coords(v)):
            key = (p, q) if p <= q else (q, p)
            terms[key] = terms.get(key, Fraction(0)) + x * y
    return Sym2Element(u.space, terms)


def oracle_delta_wedge(w):
    """delta ^ w as the sum of the determinant wedges a_i ^ b_i ^ w."""
    sp = w.space
    out = Multivector.zero(sp, 3)
    for i in range(sp.genus):
        out = out + oracle_vector_wedge(sp.basis_vector(i), sp.basis_vector(sp.genus + i), w)
    return out


def cancelling_three_forms(sp):
    """(x, key): contraction3(x) has two contributions at key that cancel."""
    g = sp.genus
    a1, a2, a3, b1, b2, b3 = 0, 1, 2, g, g + 1, g + 2
    x = Multivector(sp, 3, {(a1, b1, a3): Fraction(1, 7), (a2, b2, a3): Fraction(-1, 7),
                            (a1, b1, b3): Fraction(2, 9), (a1, a2, b2): Fraction(3, 11)})
    return x, (a3,)


@pytest.mark.parametrize("genus", GENERA)
class TestAgainstOracles:
    def test_contraction3(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(700 + genus)
        x, key = cancelling_three_forms(sp)
        for x in (x, 693 * x):  # p/q, then integral: common denominator 1
            got = contraction3(x)
            assert got == oracle_contraction3(x) and key not in got.terms
            assert_normal(got)
        for _ in range(4):
            x = pq_form(sp, 3, rng, nterms=8)
            got = contraction3(x)
            assert got == oracle_contraction3(x)
            assert_normal(got)

    def test_split_primitive(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(710 + genus)
        v = Multivector(sp, 1, {(0,): Fraction(1, 7), (genus + 1,): Fraction(2, 9),
                                (2,): Fraction(3, 11)})
        top = Multivector(sp, 3, {(0, 1, 2): Fraction(5, 11)})
        cases = [wedge(delta(sp), v), wedge(delta(sp), v) + top, cancelling_three_forms(sp)[0]]
        cases += [pq_form(sp, 3, rng, nterms=8) for _ in range(4)]
        for x in cases:
            p, w, dw = split_primitive(x)
            want_w = Fraction(1, genus - 1) * oracle_contraction3(x)
            want_dw = oracle_delta_wedge(want_w)
            assert (p, w, dw) == (x - want_dw, want_w, want_dw)
            assert oracle_contraction3(p).is_zero()
            for part in (p, w, dw):
                assert_normal(part)
        assert split_primitive(cases[0])[0].is_zero()
        assert split_primitive(cases[1])[0] == top

    def test_sym_product(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(720 + genus)
        a1, b1 = 0, genus
        u = Multivector(sp, 1, {(a1,): Fraction(1, 7), (b1,): Fraction(1, 9)})
        v = Multivector(sp, 1, {(a1,): Fraction(1, 11), (b1,): Fraction(-7, 99)})
        for u, v in ((u, v), (63 * u, 99 * v)):  # p/q, then integral
            got = sym_product(u, v)
            assert got == oracle_sym_product(u, v) and (a1, b1) not in got.terms
            assert_normal(got)
        for _ in range(4):
            u, v = pq_vector(sp, rng), pq_vector(sp, rng)
            got = sym_product(u, v)
            assert got == oracle_sym_product(u, v)
            assert_normal(got)

    def test_intersection(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(730 + genus)
        u = Multivector(sp, 1, {(0,): Fraction(1, 7), (genus,): Fraction(1, 9)})
        assert intersection(u, u) == 0
        assert_normal(intersection(u, u))
        for _ in range(4):
            u, v = pq_vector(sp, rng), pq_vector(sp, rng)
            got = intersection(u, v)
            assert got == oracle_intersection(u, v)
            assert_normal(got)

    def test_q2(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(740 + genus)
        g = genus
        x = Multivector(sp, 2, {(0, 1): Fraction(1, 7), (0, 2): Fraction(1, 7)})
        y = Multivector(sp, 2, {(g, g + 1): Fraction(1, 9), (g, g + 2): Fraction(-1, 9)})
        assert q2(x, y) == expanded_q2(x, y) == 0
        assert_normal(q2(x, y))
        for _ in range(3):
            x, y = pq_form(sp, 2, rng, nterms=4), pq_form(sp, 2, rng, nterms=4)
            got = q2(x, y)
            assert got == expanded_q2(x, y)
            assert_normal(got)
        x1, x2, y1, y2 = (pq_vector(sp, rng) for _ in range(4))
        assert q2(wedge(x1, x2), wedge(y1, y2)) == oracle_q2_vectors(x1, x2, y1, y2)

    def test_omega3(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(750 + genus)
        g = genus
        s = Multivector(sp, 3, {(0, 1, 2): Fraction(1, 7), (g, g + 1, g + 2): Fraction(1, 9)})
        assert omega3(s, s) == oracle_omega3(s, s) == 0
        assert_normal(omega3(s, s))
        forms = [pq_form(sp, 3, rng) for _ in range(4)]
        for s, t in itertools.combinations(forms, 2):
            got = omega3(s, t)
            assert got == oracle_omega3(s, t)
            assert_normal(got)

    def test_omega3_gram_rows(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(760 + genus)
        g = genus
        s = Multivector(sp, 3, {(0, 1, 2): Fraction(1, 7), (g, g + 1, g + 2): Fraction(1, 9)})
        basis = [s, pq_form(sp, 3, rng), s, pq_form(sp, 3, rng)]
        rows = omega3_gram_rows(basis)
        assert 0 not in rows[0] and 2 not in rows[0]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                assert rows[i].get(j, 0) == oracle_omega3(x, y)
            for value in rows[i].values():
                assert type(value) is Fraction and value != 0

    def test_phi(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(770 + genus)
        g = genus
        a1, a2, a3, b1, b2, b3 = 0, 1, 2, g, g + 1, g + 2
        # the two pieces pair to -(a2.a3) and +(a2.a3) against a2 ^ b1 ^ a3
        s = Multivector(sp, 3, {(a1, a2, b2): Fraction(1, 7), (a1, a3, b3): Fraction(1, 7),
                                (a2, a3, b1): Fraction(2, 9)})
        t = Multivector(sp, 3, {(a2, a3, b1): Fraction(3, 11), (a1, a2, b3): Fraction(-1, 9)})
        got = phi(s, t)
        assert got.terms == expanded_phi(s, t) and (a2, a3) not in got.terms
        assert_normal(got)
        for _ in range(2):
            s, t = pq_form(sp, 3, rng, nterms=4), pq_form(sp, 3, rng, nterms=4)
            got = phi(s, t)
            assert got.terms == expanded_phi(s, t)
            assert_normal(got)

    def test_transvection_apply(self, genus):
        sp = SymplecticSpace(genus)
        rng = random.Random(780 + genus)
        u = Multivector(sp, 1, {(0,): Fraction(1, 7), (genus,): Fraction(1, 9)})
        # u . u = 0: the degree-1 contraction has two cancelling contributions
        cases = [(u, u)]
        for _ in range(2):
            c = pq_vector(sp, rng)
            cases += [(c, pq_vector(sp, rng)), (c, pq_form(sp, 2, rng)),
                      (c, pq_form(sp, 3, rng)),
                      (c, phi(pq_form(sp, 3, rng, nterms=3), pq_form(sp, 3, rng, nterms=3)))]
        for c, x in cases:
            t = Transvection(c)
            for inverse in (False, True):
                got = t.apply(x, inverse)
                assert got == oracle_transvection(c, x, inverse)
                assert_normal(got)
