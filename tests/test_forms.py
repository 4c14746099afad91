"""Pairings omega3 / q2 / phi and their behaviour under transvections."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (dense_coords, dense_identity, oracle_omega3,
                      oracle_phi_decomposables,
                      oracle_q2_vectors, oracle_transvection,
                      oracle_transvection_matrix)
from test_exterior import rand_mv, rand_vector
from torelli import (Multivector, Sym2Element, SymplecticSpace, Transvection,
                     delta, intersection, omega3, phi, primitive_basis,
                     project_primitive, q2, sym_product, wedge)
from torelli import forms
from torelli.forms import omega3_gram_rows
from torelli.linalg import mat_mul, rank_of_rows


def handle_form(space, degree, rng, handles, nterms):
    """Random p/q form on the a and b vectors of the given handles (0-based).

    Two forms on the same few handles share dual keys and dual slot
    pairs often, so their pairings are rarely zero even at high genus.
    """
    indices = sorted(handles + [space.genus + h for h in handles])
    keys = rng.sample(list(itertools.combinations(indices, degree)), nterms)
    return Multivector(space, degree, {k: Fraction(rng.choice([-7, -3, -1, 1, 2, 5]),
                                                   rng.randint(1, 9)) for k in keys})


def basis_vectors(space, key):
    return [space.basis_vector(i) for i in key]


def expanded_q2(x, y):
    """q2 by bilinear expansion over basis decomposables, with the vector oracle."""
    return sum((c * d * oracle_q2_vectors(*basis_vectors(x.space, p), *basis_vectors(y.space, q))
                for p, c in x.terms.items() for q, d in y.terms.items()), Fraction(0))


def expanded_phi(s, t):
    """phi(s, t).terms by bilinear expansion over basis decomposables."""
    terms: dict = {}
    for u, c in s.terms.items():
        for v, d in t.terms.items():
            pieces = oracle_phi_decomposables(basis_vectors(s.space, u),
                                              basis_vectors(t.space, v))
            for key, val in pieces.items():
                terms[key] = terms.get(key, Fraction(0)) + c * d * val
    return {k: v for k, v in terms.items() if v}


class TestQ2:
    def test_hand_values(self):
        sp = SymplecticSpace(3)
        assert q2(wedge(sp.a(1), sp.b(1)), wedge(sp.a(1), sp.b(1))) == 1
        assert q2(wedge(sp.a(1), sp.b(1)), wedge(sp.a(2), sp.b(2))) == 0
        assert q2(wedge(sp.a(1), sp.a(2)), wedge(sp.b(1), sp.b(2))) == 1
        assert q2(delta(sp), delta(sp)) == sp.genus

    def test_represents_slot_pairing_determinant(self):
        sp = SymplecticSpace(3)
        rng = random.Random(20)
        for _ in range(25):
            x1, x2, y1, y2 = (rand_vector(sp, rng) for _ in range(4))
            assert q2(wedge(x1, x2), wedge(y1, y2)) == oracle_q2_vectors(x1, x2, y1, y2)

    def test_symmetric(self):
        sp = SymplecticSpace(3)
        rng = random.Random(21)
        for _ in range(20):
            x, y = rand_mv(sp, 2, rng), rand_mv(sp, 2, rng)
            assert q2(x, y) == q2(y, x)

    def test_bilinear_expansion_oracle_higher_genus(self):
        nonzero = 0
        for g in (4, 5, 6):
            sp = SymplecticSpace(g)
            rng = random.Random(50 + g)
            for _ in range(4):
                handles = rng.sample(range(g), 3)
                x, y = (handle_form(sp, 2, rng, handles, 3) for _ in range(2))
                value = q2(x, y)
                assert value == expanded_q2(x, y)
                nonzero += value != 0
        assert nonzero >= 6

    def test_degree_guard(self):
        sp = SymplecticSpace(2)
        with pytest.raises(ValueError):
            q2(delta(sp), sp.a(1))


class TestOmega3:
    def test_hand_values(self):
        sp = SymplecticSpace(3)
        x = wedge(sp.a(1), sp.a(2), sp.a(3))
        y = wedge(sp.b(1), sp.b(2), sp.b(3))
        assert omega3(x, y) == 1
        assert omega3(x, x) == 0
        assert omega3(wedge(sp.a(1), sp.a(2), sp.b(2)), wedge(sp.b(1), sp.b(2), sp.a(2))) == -1

    def test_matches_permutation_oracle(self):
        for g in (2, 3):
            sp = SymplecticSpace(g)
            rng = random.Random(22 + g)
            for _ in range(20):
                s, t = rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)
                assert omega3(s, t) == oracle_omega3(s, t)

    def test_matches_permutation_oracle_higher_genus(self):
        nonzero = 0
        for g in (4, 5):
            sp = SymplecticSpace(g)
            rng = random.Random(52 + g)
            for _ in range(6):
                s, t = rand_mv(sp, 3, rng, nterms=20), rand_mv(sp, 3, rng, nterms=20)
                value = omega3(s, t)
                assert value == oracle_omega3(s, t)
                nonzero += value != 0
        assert nonzero >= 8

    def test_matches_permutation_oracle_fully_dense(self):
        sp = SymplecticSpace(4)
        rng = random.Random(56)
        every = len(sp.basis_tuples(3))
        s, t = (handle_form(sp, 3, rng, list(range(sp.genus)), every) for _ in range(2))
        assert len(s.terms) == len(t.terms) == every
        assert omega3(s, t) == oracle_omega3(s, t) != 0

    def test_antisymmetric(self):
        sp = SymplecticSpace(3)
        rng = random.Random(24)
        for _ in range(20):
            s, t = rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)
            assert omega3(s, t) == -omega3(t, s)

    def test_splitting_orthogonality(self):
        """omega3 pairs the primitive part against nothing from delta ^ V."""
        sp = SymplecticSpace(3)
        rng = random.Random(25)
        for _ in range(20):
            p = project_primitive(rand_mv(sp, 3, rng))
            v = rand_vector(sp, rng)
            assert omega3(p, wedge(delta(sp), v)) == 0

    def test_primitive_gram_rank_full(self):
        """omega3 is a perfect pairing on the 14-dimensional primitive part."""
        sp = SymplecticSpace(3)
        basis = primitive_basis(sp)
        gram = [{j: omega3(x, y) for j, y in enumerate(basis)} for x in basis]
        assert rank_of_rows(gram) == 14


class TestOmega3GramRows:
    def check_rows(self, forms):
        rows = omega3_gram_rows(forms)
        assert len(rows) == len(forms)
        for row, x in zip(rows, forms):
            assert all(type(c) is Fraction and c for c in row.values())
            for j, y in enumerate(forms):
                entry = row.get(j, Fraction(0))
                assert entry == omega3(x, y) == oracle_omega3(x, y)
        return rows

    def test_primitive_basis_entry_by_entry(self):
        for g in (3, 4):
            basis = primitive_basis(SymplecticSpace(g))
            rows = self.check_rows(basis)
            assert rank_of_rows(rows) == len(basis)

    def test_random_forms_with_repeated_keys(self):
        """p/q forms on few handles share keys, so the index holds several j per key."""
        for g in (3, 4):
            sp = SymplecticSpace(g)
            rng = random.Random(70 + g)
            forms = [handle_form(sp, 3, rng, [0, 1, 2], 8) for _ in range(6)]
            forms += [rand_mv(sp, 3, rng, nterms=6), Multivector.zero(sp, 3)]
            rows = self.check_rows(forms)
            assert sum(len(row) for row in rows) >= 10

    def test_empty_and_degree_guard(self):
        assert omega3_gram_rows([]) == []
        sp = SymplecticSpace(3)
        with pytest.raises(ValueError, match="degree-3"):
            omega3_gram_rows([delta(sp)])
        with pytest.raises(ValueError, match="space mismatch"):
            omega3_gram_rows(primitive_basis(sp)[:1] + primitive_basis(SymplecticSpace(4))[:1])


class TestPhi:
    def test_central_frozen_values(self):
        """The two decomposable pieces pairing against a2 ^ b1 ^ a3."""
        sp = SymplecticSpace(3)
        t = wedge(sp.a(2), sp.b(1), sp.a(3))
        assert phi(wedge(sp.a(1), sp.a(2), sp.b(2)), t) == -1 * sym_product(sp.a(2), sp.a(3))
        assert phi(wedge(sp.a(1), sp.a(3), sp.b(3)), t) == sym_product(sp.a(2), sp.a(3))

    def test_matches_double_cyclic_oracle(self):
        sp = SymplecticSpace(3)
        rng = random.Random(26)
        for _ in range(20):
            us = [rand_vector(sp, rng) for _ in range(3)]
            vs = [rand_vector(sp, rng) for _ in range(3)]
            got = phi(wedge(*us), wedge(*vs))
            assert got.terms == oracle_phi_decomposables(us, vs)

    def test_bilinear_expansion_oracle_higher_genus(self):
        nonzero = 0
        for g in (4, 5, 6):
            sp = SymplecticSpace(g)
            rng = random.Random(57 + g)
            for _ in range(2):
                handles = rng.sample(range(g), 3)
                s, t = handle_form(sp, 3, rng, handles, 3), handle_form(sp, 3, rng, handles, 2)
                got = phi(s, t)
                assert got.terms == expanded_phi(s, t)
                nonzero += not got.is_zero()
        assert nonzero >= 4

    def test_symmetric(self):
        sp = SymplecticSpace(3)
        rng = random.Random(27)
        for _ in range(15):
            s, t = rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)
            assert phi(s, t) == phi(t, s)

    def test_bilinear(self):
        sp = SymplecticSpace(3)
        rng = random.Random(28)
        for _ in range(10):
            s, t, u = (rand_mv(sp, 3, rng) for _ in range(3))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert phi(s + c * t, u) == phi(s, u) + c * phi(t, u)

    def test_sees_only_primitive_part(self):
        """Pairing against a primitive element factors through the projector."""
        sp = SymplecticSpace(3)
        rng = random.Random(29)
        for _ in range(15):
            x = rand_mv(sp, 3, rng)
            w = project_primitive(rand_mv(sp, 3, rng))
            assert phi(wedge(delta(sp), rand_vector(sp, rng)), w).is_zero()
            assert phi(x, w) == phi(project_primitive(x), w)


class TestPairingEdgeCases:
    """Inputs where the dual-key lookups find nothing, or find the same form."""

    def test_zero_form(self):
        sp = SymplecticSpace(4)
        rng = random.Random(62)
        s, x = rand_mv(sp, 3, rng, nterms=20), rand_mv(sp, 2, rng, nterms=10)
        zero3, zero2 = Multivector.zero(sp, 3), Multivector.zero(sp, 2)
        assert omega3(s, zero3) == omega3(zero3, s) == 0
        assert q2(x, zero2) == q2(zero2, x) == 0
        assert phi(s, zero3).is_zero() and phi(zero3, s).is_zero()

    def test_form_paired_with_itself(self):
        sp = SymplecticSpace(5)
        rng = random.Random(63)
        handles = rng.sample(range(sp.genus), 3)
        s, x = handle_form(sp, 3, rng, handles, 3), handle_form(sp, 2, rng, handles, 4)
        assert omega3(s, s) == oracle_omega3(s, s) == 0
        assert q2(x, x) == expanded_q2(x, x) != 0
        assert phi(s, s).terms == expanded_phi(s, s) != {}

    def test_right_form_missing_every_dual_key(self):
        """t keeps no key dual to a key of s: omega3 and q2 vanish, phi need not."""
        sp = SymplecticSpace(4)
        rng = random.Random(65)
        handles = rng.sample(range(sp.genus), 3)
        for degree, size in ((2, 6), (3, 4)):
            s, t = (handle_form(sp, degree, rng, handles, size) for _ in range(2))
            duals = {tuple(sorted(sp.dual(i)[0] for i in key)) for key in s.terms}
            t = Multivector(sp, degree, {k: c for k, c in t.terms.items() if k not in duals})
            if degree == 2:
                assert q2(s, t) == expanded_q2(s, t) == 0
            else:
                assert omega3(s, t) == oracle_omega3(s, t) == 0
                assert phi(s, t).terms == expanded_phi(s, t) != {}
        # forms on a-vectors alone hold no dual slot pair either
        a_only = [k for k in sp.basis_tuples(3) if max(k) < sp.genus]
        s = Multivector(sp, 3, {k: Fraction(i + 1, 2) for i, k in enumerate(a_only)})
        assert omega3(s, s) == oracle_omega3(s, s) == 0
        assert phi(s, s).is_zero()


class TestTransvection:
    def test_vector_formula(self):
        sp = SymplecticSpace(2)
        t = Transvection(sp.a(1))
        # v -> v + <v, c> c and <b1, a1> = -1
        assert t.apply(sp.b(1)) == sp.b(1) - sp.a(1)
        assert t.apply(sp.a(1)) == sp.a(1)
        assert t.apply(sp.a(2)) == sp.a(2)
        assert t.apply(t.apply(sp.b(1)), inverse=True) == sp.b(1)

    def test_zero_direction_rejected(self):
        sp = SymplecticSpace(2)
        with pytest.raises(ValueError):
            Transvection(Multivector.zero(sp, 1))

    def test_direction_must_be_degree_one(self):
        sp = SymplecticSpace(3)
        c = Multivector(sp, 1, {(0,): 2, (4,): Fraction(-1, 3)})
        assert Transvection(c).direction is c
        for bad in (wedge(sp.a(1), sp.b(2)), delta(sp), [1, 0, 0, 0, 0, 0]):
            with pytest.raises(TypeError, match="^direction must be a degree-1 Multivector$"):
                Transvection(bad)

    def test_preserves_intersection(self):
        sp = SymplecticSpace(3)
        rng = random.Random(30)
        for _ in range(20):
            t = Transvection(rand_vector(sp, rng) + sp.a(1))
            u, v = rand_vector(sp, rng), rand_vector(sp, rng)
            assert intersection(t.apply(u), t.apply(v)) == intersection(u, v)

    def test_matrix_matches_apply(self):
        sp = SymplecticSpace(2)
        rng = random.Random(31)
        for _ in range(10):
            t = Transvection(sp.b(2) + rand_vector(sp, rng))
            m = t.matrix()
            for j in range(sp.dim):
                image = t.apply(sp.basis_vector(j))
                assert [m[i][j] for i in range(sp.dim)] == dense_coords(image)
            assert m == oracle_transvection_matrix(t.direction)
            assert mat_mul(m, t.matrix(inverse=True)) == dense_identity(sp.dim)

    def test_invariance_of_omega3_and_q2(self):
        sp = SymplecticSpace(3)
        rng = random.Random(32)
        for _ in range(15):
            t = Transvection(sp.a(2) + rand_vector(sp, rng))
            s3, t3 = rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)
            assert omega3(t.apply(s3), t.apply(t3)) == omega3(s3, t3)
            x2, y2 = rand_mv(sp, 2, rng), rand_mv(sp, 2, rng)
            assert q2(t.apply(x2), t.apply(y2)) == q2(x2, y2)

    def test_phi_equivariance(self):
        """phi(Tx, Ty) = T . phi(x, y), the action extended to Sym^2."""
        sp = SymplecticSpace(3)
        rng = random.Random(33)
        for _ in range(15):
            t = Transvection(sp.b(1) + rand_vector(sp, rng))
            x, y = rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)
            assert phi(t.apply(x), t.apply(y)) == t.apply(phi(x, y))

    def test_fixes_delta(self):
        sp = SymplecticSpace(3)
        rng = random.Random(34)
        for _ in range(10):
            t = Transvection(sp.a(1) + rand_vector(sp, rng))
            assert t.apply(delta(sp)) == delta(sp)

    @pytest.mark.parametrize("genus", [3, 4, 5, 6])
    def test_apply_matches_oracle_both_directions(self, genus):
        """Forms of degree 1-3 and Sym^2, p/q directions and coefficients."""
        sp = SymplecticSpace(genus)
        rng = random.Random(35 + genus)
        for _ in range(4):
            c = rand_vector(sp, rng) + sp.b(genus)
            t = Transvection(c)
            sym2 = Sym2Element(sp, {(rng.randrange(sp.dim), rng.randrange(sp.dim)):
                                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for _ in range(5)})
            for x in (rand_mv(sp, 1, rng), rand_mv(sp, 2, rng), rand_mv(sp, 3, rng), sym2):
                image = t.apply(x)
                assert image == oracle_transvection(c, x)
                assert t.apply(x, inverse=True) == oracle_transvection(c, x, inverse=True)
                assert t.apply(image, inverse=True) == x
                assert Transvection(-c).apply(x) == image

    @pytest.mark.parametrize("genus", [2, 4])
    def test_apply_refuses_another_space(self, genus):
        sp3 = SymplecticSpace(3)
        t = Transvection(sp3.a(1) + sp3.b(2))
        sp = SymplecticSpace(genus)
        for x in (Multivector.basis(sp, (0, 1, 2)), Multivector.basis(sp, (sp.genus,)),
                  Sym2Element(sp, {(sp.genus, sp.genus): 1})):
            for inverse in (False, True):
                with pytest.raises(ValueError, match=f"space mismatch: genus {genus} vs 3"):
                    t.apply(x, inverse)

    def test_apply_makes_one_wedge_or_two_sym_products(self, monkeypatch):
        """No basis images: one wedge per form, two symmetric products per Sym^2 element."""
        sp = SymplecticSpace(4)
        rng = random.Random(39)
        calls = []

        def counting(name):
            real = getattr(forms, name)

            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted
        for name in ("wedge", "sym_product"):
            monkeypatch.setattr(forms, name, counting(name))
        t = Transvection(rand_vector(sp, rng) + sp.a(1))
        for degree in (2, 3):
            for inverse in (False, True):
                calls.clear()
                t.apply(rand_mv(sp, degree, rng, nterms=20), inverse)
                assert calls == ["wedge"]
        calls.clear()
        t.apply(phi(rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)), inverse=True)
        assert calls == ["sym_product", "sym_product"]
