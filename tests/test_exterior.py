"""Exterior core: normal form, wedge, contraction, primitive splitting, ranks."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense_coords, dense_pairing_matrix, oracle_contraction3,
                      oracle_vector_wedge)
from torelli import (Multivector, Sym2Element, SymplecticSpace, Vector,
                     contraction3, delta, intersection, is_primitive,
                     primitive_basis, primitive_rank_two_ways,
                     project_primitive, split_primitive, sym_product, wedge)
from torelli.exterior import isotropic_spanning_wedges


def rational():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def vectors(genus=3):
    space = SymplecticSpace(genus)
    return st.builds(lambda cs: Vector(space, cs),
                     st.lists(rational(), min_size=2 * genus, max_size=2 * genus))


def rand_vector(space, rng):
    return Vector(space, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(space.dim)])


def rand_mv(space, degree, rng, nterms=5):
    tuples = space.basis_tuples(degree)
    picks = rng.sample(tuples, min(nterms, len(tuples)))
    return Multivector(space, degree,
                       {t: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for t in picks})


class TestSpace:
    def test_genus_bounds(self):
        with pytest.raises(ValueError):
            SymplecticSpace(1)
        with pytest.raises(TypeError):
            SymplecticSpace("3")
        assert SymplecticSpace(2).dim == 4

    def test_labels_round_trip(self):
        sp = SymplecticSpace(3)
        assert [sp.label(i) for i in range(sp.dim)] == ["a1", "a2", "a3", "b1", "b2", "b3"]
        for i in range(sp.dim):
            assert sp.index(sp.label(i)) == i
        with pytest.raises(ValueError):
            sp.index("a4")
        with pytest.raises(ValueError):
            sp.index("c1")
        for padded in ("a1\n", " a1", "a1 "):
            with pytest.raises(ValueError):
                sp.index(padded)

    def test_basis_pairing_table(self):
        sp = SymplecticSpace(2)
        assert sp.basis_pairing(0, 2) == 1
        assert sp.basis_pairing(2, 0) == -1
        assert sp.basis_pairing(0, 1) == 0
        assert sp.basis_pairing(0, 3) == 0

    def test_dual_matches_dense_pairing_matrix(self):
        """dual(i) names the one nonzero of row i of the pairing matrix, with its value."""
        for g in range(2, 7):
            sp = SymplecticSpace(g)
            j = dense_pairing_matrix(sp)
            for i in range(sp.dim):
                k, sign = sp.dual(i)
                assert [c for c, x in enumerate(j[i]) if x] == [k]
                assert j[i][k] == sign
            for bad in (-1, sp.dim):
                message = f"basis index {bad} out of range for dimension {sp.dim}"
                with pytest.raises(ValueError, match=message):
                    sp.dual(bad)
                with pytest.raises(ValueError, match=message):
                    sp.label(bad)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_basis_vector_out_of_range(self, bad):
        with pytest.raises(ValueError, match=f"basis index {bad} out of range for dimension 4"):
            SymplecticSpace(2).basis_vector(bad)

    @pytest.mark.parametrize("bad", [1.0, Fraction(1), "1", True])
    def test_basis_vector_index_must_be_int(self, bad):
        with pytest.raises(TypeError, match="basis index must be an int"):
            SymplecticSpace(2).basis_vector(bad)

    @pytest.mark.parametrize("method, args", [
        ("dual", (1.5,)), ("dual", (True,)), ("label", (1.5,)),
        ("basis_pairing", (0.5, 3.5)), ("basis_pairing", (0, 3.5))],
        ids=["dual-1.5", "dual-True", "label-1.5", "pairing-0.5-3.5", "pairing-0-3.5"])
    def test_index_must_be_int(self, method, args):
        with pytest.raises(TypeError, match="basis index must be an int"):
            getattr(SymplecticSpace(3), method)(*args)

    def test_float_rejected(self):
        sp = SymplecticSpace(2)
        with pytest.raises(TypeError):
            Vector(sp, [0.5, 0, 0, 0])
        with pytest.raises(TypeError):
            0.5 * sp.a(1)


class TestIntersection:
    def test_standard_values(self):
        sp = SymplecticSpace(3)
        assert intersection(sp.a(1), sp.b(1)) == 1
        assert intersection(sp.b(1), sp.a(1)) == -1
        assert intersection(sp.a(1), sp.b(2)) == 0
        assert intersection(sp.a(2), sp.a(3)) == 0

    def test_degree_one_only(self):
        sp = SymplecticSpace(3)
        for u, v in ((delta(sp), sp.a(1)), (sp.a(1), delta(sp))):
            with pytest.raises(TypeError, match="must be a degree-1 Multivector"):
                intersection(u, v)
            with pytest.raises(TypeError, match="must be a degree-1 Multivector"):
                sym_product(u, v)

    @given(vectors(), vectors())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric(self, u, v):
        assert intersection(u, v) == -intersection(v, u)

    @given(vectors(), vectors(), vectors(), rational())
    @settings(max_examples=40, deadline=None)
    def test_bilinear(self, u, v, w, s):
        assert intersection(u + s * v, w) == intersection(u, w) + s * intersection(v, w)

    @given(vectors(), vectors())
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_pairing_matrix(self, u, v):
        j = dense_pairing_matrix(u.space)
        want = sum(x * j[i][k] * y for i, x in enumerate(dense_coords(u))
                   for k, y in enumerate(dense_coords(v)))
        got = intersection(u, v)
        assert got == want and isinstance(got, Fraction)


class TestNormalForm:
    def test_unsorted_tuple_normalizes_with_sign(self):
        sp = SymplecticSpace(3)
        x = Multivector(sp, 3, {(1, 4, 0): Fraction(1)})
        assert x == Multivector.basis(sp, (0, 1, 4))
        y = Multivector(sp, 3, {(4, 1, 0): Fraction(1)})
        assert y == -1 * Multivector.basis(sp, (0, 1, 4))

    def test_repeated_index_is_zero(self):
        sp = SymplecticSpace(2)
        assert Multivector(sp, 2, {(1, 1): Fraction(5)}).is_zero()

    def test_no_zero_coefficients_stored(self):
        sp = SymplecticSpace(2)
        x = Multivector(sp, 2, {(0, 1): Fraction(1), (0, 2): Fraction(0)})
        assert x.terms == {(0, 1): Fraction(1)}
        assert (x - x).terms == {}

    def test_keys_strictly_increasing(self):
        sp = SymplecticSpace(3)
        rng = random.Random(0)
        for _ in range(20):
            x = rand_mv(sp, 3, rng)
            assert all(t[0] < t[1] < t[2] for t in x.terms)

    def test_degree_guards(self):
        sp = SymplecticSpace(2)
        with pytest.raises(ValueError):
            Multivector(sp, 4, {})
        with pytest.raises(ValueError):
            Multivector(sp, 2, {(0, 1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            Multivector(sp, 2, {(0, 9): Fraction(1)})

    @pytest.mark.parametrize("key", [(1.5,), (Fraction(1),), ("1",)])
    def test_multivector_index_must_be_int(self, key):
        with pytest.raises(TypeError, match="basis index must be an int"):
            Multivector(SymplecticSpace(2), 1, {key: 1})

    @pytest.mark.parametrize("key", [(0.5, 2), (2, Fraction(2)), (0, "1")])
    def test_sym2_index_must_be_int(self, key):
        with pytest.raises(TypeError, match="basis index must be an int"):
            Sym2Element(SymplecticSpace(2), {key: 1})

    def test_sym2_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"basis index pair \(-1, 2\) out of range"):
            Sym2Element(SymplecticSpace(2), {(-1, 2): 1})

    def test_vector_multivector_round_trip(self):
        """Vector(space, coords) is the degree-1 Multivector with those coordinates."""
        sp = SymplecticSpace(3)
        rng = random.Random(1)
        for _ in range(10):
            v = rand_vector(sp, rng)
            assert type(v) is Multivector and v.degree == 1
            assert Vector(sp, dense_coords(v)) == v
            x = rand_mv(sp, 1, rng)
            assert Vector(sp, dense_coords(x)) == x
        assert Vector(sp, [0, "1/2", 0, 0, 0, -3]).terms == {(1,): Fraction(1, 2),
                                                            (5,): Fraction(-3)}
        assert Vector(sp, [0] * 6) == Multivector.zero(sp, 1)
        with pytest.raises(ValueError, match="expected 6 coordinates, got 4"):
            Vector(sp, [1, 0, 0, 0])

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SymplecticSpace(2).a(1) + SymplecticSpace(3).a(1)


class TestWedge:
    def test_sign_bookkeeping_example(self):
        sp = SymplecticSpace(3)
        x = wedge(Multivector.basis(sp, (0, 1)), Multivector.basis(sp, (4,)))
        assert x == Multivector.basis(sp, (0, 1, 4))
        y = wedge(Multivector.basis(sp, (4,)), Multivector.basis(sp, (0, 1)))
        assert y == Multivector.basis(sp, (0, 1, 4))  # even crossing count

    def test_matches_determinant_oracle(self):
        sp = SymplecticSpace(3)
        rng = random.Random(2)
        for _ in range(25):
            u, v, w = (rand_vector(sp, rng) for _ in range(3))
            assert wedge(u, v) == oracle_vector_wedge(u, v)
            assert wedge(u, v, w) == oracle_vector_wedge(u, v, w)

    @given(vectors())
    @settings(max_examples=40, deadline=None)
    def test_alternating(self, u):
        assert wedge(u, u).is_zero()

    @given(vectors(), vectors(), vectors(), rational())
    @settings(max_examples=40, deadline=None)
    def test_bilinear(self, u, v, w, s):
        assert wedge(u + s * v, w) == wedge(u, w) + s * wedge(v, w)

    def test_graded_commutation(self):
        sp = SymplecticSpace(3)
        rng = random.Random(3)
        for _ in range(15):
            x1 = rand_mv(sp, 1, rng)
            y2 = rand_mv(sp, 2, rng)
            assert wedge(x1, y2) == wedge(y2, x1)  # (-1)^(1*2) = +1
            u, v = rand_vector(sp, rng), rand_vector(sp, rng)
            assert wedge(u, v) == -1 * wedge(v, u)

    def test_associative_on_vectors(self):
        sp = SymplecticSpace(4)
        rng = random.Random(4)
        for _ in range(15):
            u, v, w = (rand_vector(sp, rng) for _ in range(3))
            assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))

    def test_degree_overflow(self):
        sp = SymplecticSpace(2)
        two = delta(sp)
        with pytest.raises(ValueError, match="overflow"):
            wedge(two, two)
        with pytest.raises(ValueError, match="overflow"):
            wedge(wedge(sp.a(1), sp.b(1), sp.a(2)), sp.b(2))


class TestWedgeOracleHigherGenus:
    """The integer wedge kernel against coordinate determinants at genus 4-6."""

    def assert_stored_exactly(self, x):
        assert all(type(c) is Fraction and c for c in x.terms.values())

    def test_pq_vector_triples(self):
        for g in (4, 5, 6):
            sp = SymplecticSpace(g)
            rng = random.Random(80 + g)
            for _ in range(6):
                u, v, w = (rand_vector(sp, rng) for _ in range(3))
                for got, want in ((wedge(u, v), oracle_vector_wedge(u, v)),
                                  (wedge(u, v, w), oracle_vector_wedge(u, v, w))):
                    assert got == want
                    self.assert_stored_exactly(got)

    def test_cancelling_terms(self):
        """v is a p/q multiple of u off a few slots, and w = u - v plus one slot,
        so most minors cancel exactly across different denominators."""
        for g in (4, 5, 6):
            sp = SymplecticSpace(g)
            rng = random.Random(90 + g)
            for _ in range(6):
                u = rand_vector(sp, rng)
                ratio = Fraction(rng.choice([-5, -2, 1, 3]), rng.randint(2, 7))
                coords = [ratio * c for c in dense_coords(u)]
                for i in rng.sample(range(sp.dim), 2):
                    coords[i] += Fraction(rng.randint(1, 4), rng.randint(1, 5))
                v = Vector(sp, coords)
                w = u - v + Fraction(1, 3) * sp.basis_vector(rng.randrange(sp.dim))
                uv, uvw = wedge(u, v), wedge(u, v, w)
                assert uv == oracle_vector_wedge(u, v)
                assert uvw == oracle_vector_wedge(u, v, w)
                assert len(uv.terms) < comb(sp.dim, 2)
                self.assert_stored_exactly(uv)
                self.assert_stored_exactly(uvw)
                assert wedge(u, ratio * u).is_zero()
                assert wedge(u, v, u + v).is_zero()

    def test_one_form_with_two_form_both_orders(self):
        """Bilinearity: u ^ sum c_k (v_k ^ w_k) = sum c_k u ^ v_k ^ w_k, either order."""
        for g in (4, 5, 6):
            sp = SymplecticSpace(g)
            rng = random.Random(100 + g)
            for _ in range(4):
                u = rand_vector(sp, rng)
                pieces = [(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                           rand_vector(sp, rng), rand_vector(sp, rng)) for _ in range(3)]
                two = Multivector.zero(sp, 2)
                left = right = Multivector.zero(sp, 3)
                for c, v, w in pieces:
                    two = two + c * oracle_vector_wedge(v, w)
                    left = left + c * oracle_vector_wedge(u, v, w)
                    right = right + c * oracle_vector_wedge(v, w, u)
                for got, want in ((wedge(u, two), left), (wedge(two, u), right)):
                    assert got == want
                    self.assert_stored_exactly(got)

    def test_integral_results_and_basis_wedges_store_fractions(self):
        sp = SymplecticSpace(4)
        half = Fraction(1, 2) * sp.a(1) + sp.b(2)
        for x in (wedge(sp.a(1), sp.b(1)), wedge(sp.b(3), sp.a(2), sp.a(4)),
                  wedge(half, 2 * sp.a(3)), wedge(2 * sp.a(2), half, sp.b(4)),
                  wedge(delta(sp), sp.a(1)), wedge(sp.a(1), delta(sp))):
            assert x.terms
            self.assert_stored_exactly(x)
        assert wedge(half, 2 * sp.a(3)).terms == {(0, 2): Fraction(1), (2, 5): Fraction(-2)}


class TestDelta:
    def test_expansion(self):
        sp = SymplecticSpace(2)
        assert delta(sp) == Multivector(sp, 2, {(0, 2): 1, (1, 3): 1})

    def test_contraction_normalization_all_genera(self):
        """contraction3(delta ^ v) = (g-1) v, the projector's scaling."""
        for g in (2, 3, 4):
            sp = SymplecticSpace(g)
            d = delta(sp)
            for i in range(sp.dim):
                v = sp.basis_vector(i)
                assert contraction3(wedge(d, v)) == (g - 1) * v


class TestContraction3:
    def test_hand_examples(self):
        sp = SymplecticSpace(3)
        assert contraction3(wedge(sp.a(1), sp.a(2), sp.a(3))).is_zero()
        assert contraction3(wedge(sp.a(1), sp.a(2), sp.b(2))) == sp.a(1)
        assert contraction3(wedge(sp.a(1), sp.b(1), sp.a(2))) == sp.a(2)

    def test_matches_dense_oracle(self):
        for g in (2, 3):
            sp = SymplecticSpace(g)
            rng = random.Random(5 + g)
            for _ in range(20):
                x = rand_mv(sp, 3, rng)
                assert contraction3(x) == oracle_contraction3(x)

    def test_linear(self):
        sp = SymplecticSpace(3)
        rng = random.Random(6)
        for _ in range(10):
            x, y = rand_mv(sp, 3, rng), rand_mv(sp, 3, rng)
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            assert contraction3(x + s * y) == contraction3(x) + s * contraction3(y)

    def test_well_defined_under_slot_permutation(self):
        sp = SymplecticSpace(3)
        rng = random.Random(7)
        for _ in range(10):
            u, v, w = (rand_vector(sp, rng) for _ in range(3))
            base = contraction3(wedge(u, v, w))
            assert contraction3(wedge(v, w, u)) == base
            assert contraction3(wedge(v, u, w)) == -1 * base

    def test_degree_guard(self):
        sp = SymplecticSpace(2)
        with pytest.raises(ValueError):
            contraction3(delta(sp))


class TestProjector:
    def test_golden_example(self):
        sp = SymplecticSpace(3)
        x = wedge(sp.a(1), sp.a(2), sp.b(2))
        expected = (Fraction(1, 2) * wedge(sp.a(1), sp.a(2), sp.b(2))
                    - Fraction(1, 2) * wedge(sp.a(1), sp.a(3), sp.b(3)))
        assert project_primitive(x) == expected

    def test_idempotent_and_kills_contraction(self):
        for g in (2, 3, 4):
            sp = SymplecticSpace(g)
            rng = random.Random(10 + g)
            for _ in range(25):
                x = rand_mv(sp, 3, rng)
                p = project_primitive(x)
                assert contraction3(p).is_zero()
                assert project_primitive(p) == p

    def test_fixes_primitives_kills_delta_wedge(self):
        sp = SymplecticSpace(3)
        iso = wedge(sp.a(1), sp.a(2), sp.a(3))
        assert project_primitive(iso) == iso
        rng = random.Random(11)
        for _ in range(10):
            v = rand_vector(sp, rng)
            assert project_primitive(wedge(delta(sp), v)).is_zero()

    def test_unique_decomposition(self):
        """x = primitive + delta ^ w with w = contraction3(x)/(g-1), exactly once."""
        sp = SymplecticSpace(4)
        rng = random.Random(12)
        for _ in range(15):
            x = rand_mv(sp, 3, rng)
            p = project_primitive(x)
            w = Fraction(1, sp.genus - 1) * contraction3(x)
            assert p + wedge(delta(sp), w) == x
            assert split_primitive(x) == (p, w, wedge(delta(sp), w))
            # the complement piece determines w: delta ^ w = 0 forces w = 0
            if not w.is_zero():
                assert not wedge(delta(sp), w).is_zero()

    def test_split_matches_oracles(self):
        """split_primitive against the dense contraction and the determinant wedge."""
        for g in (3, 4, 5, 6):
            sp = SymplecticSpace(g)
            rng = random.Random(40 + g)
            for _ in range(3):
                x = rand_mv(sp, 3, rng, nterms=12)
                p, w, dw = split_primitive(x)
                assert w == Fraction(1, g - 1) * oracle_contraction3(x)
                assert oracle_contraction3(p).is_zero()
                expected = Multivector.zero(sp, 3)
                for h in range(1, g + 1):
                    expected = expected + oracle_vector_wedge(sp.a(h), sp.b(h), w)
                assert dw == expected
                assert p + dw == x

    def test_everything_degenerate_at_genus_two(self):
        sp = SymplecticSpace(2)
        rng = random.Random(13)
        for _ in range(10):
            assert project_primitive(rand_mv(sp, 3, rng)).is_zero()

    def test_is_primitive(self):
        sp = SymplecticSpace(3)
        assert is_primitive(wedge(sp.a(1), sp.a(2), sp.b(3)))
        assert not is_primitive(wedge(sp.a(1), sp.a(2), sp.b(2)))


class TestPrimitiveRank:
    def test_frozen_values_two_ways(self):
        for g, expected in ((2, 0), (3, 14), (4, 48)):
            sp = SymplecticSpace(g)
            r1, r2 = primitive_rank_two_ways(sp)
            assert r1 == r2 == expected == comb(2 * g, 3) - 2 * g

    def test_primitive_basis_spans(self):
        sp = SymplecticSpace(3)
        basis = primitive_basis(sp)
        assert len(basis) == 14
        assert all(is_primitive(x) for x in basis)

    def test_isotropic_family_is_primitive(self):
        for g in (2, 3, 4):
            sp = SymplecticSpace(g)
            for x in isotropic_spanning_wedges(sp):
                assert is_primitive(x)


class TestSym2:
    def test_product_normalization(self):
        sp = SymplecticSpace(2)
        s = sym_product(sp.a(1), sp.b(1))
        assert s == sym_product(sp.b(1), sp.a(1))
        assert s.terms == {(0, 2): Fraction(1)}
        sq = sym_product(sp.a(1), sp.a(1))
        assert sq.terms == {(0, 0): Fraction(1)}

    def test_bilinear(self):
        sp = SymplecticSpace(3)
        rng = random.Random(14)
        for _ in range(10):
            u, v, w = (rand_vector(sp, rng) for _ in range(3))
            s = Fraction(rng.randint(-3, 3))
            assert sym_product(u + s * v, w) == sym_product(u, w) + s * sym_product(v, w)

    def test_algebra_ops(self):
        sp = SymplecticSpace(2)
        s = sym_product(sp.a(1), sp.b(2))
        assert (s - s).is_zero()
        assert (2 * s).terms[(0, 3)] == 2
        assert Sym2Element.zero(sp).is_zero()
