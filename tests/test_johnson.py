"""Subsurface specs, bounding pairs and their Johnson elements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import dense_identity, dense_product, oracle_transvection_matrix
from torelli import (BoundingPairSpec, InvalidBoundingPair, InvalidSubsurface,
                     JohnsonIdentityError, Multivector, SubsurfaceSpec,
                     SymplecticSpace,
                     Transvection, bounding_pair_trivial_on_homology,
                     builtin_fixture, canonical_split, contraction3, delta,
                     is_primitive, johnson_bp, johnson_element, johnson_pair,
                     project_primitive, wedge)
from torelli.checks import random_bounding_pair, random_vector, respecify
from torelli.johnson import FIXTURE_NAMES, _fixes_every_basis_vector
from torelli.render import render_multivector


def canonical_pair(space):
    """d = a1, side1 carries handle 2, side2 the remaining handles."""
    g = space.genus
    side1 = SubsurfaceSpec(space.a(1), [(space.a(2), space.b(2))])
    side2 = SubsurfaceSpec(-space.a(1),
                           [(space.a(h), space.b(h)) for h in range(3, g + 1)])
    return BoundingPairSpec(side1, side2)


class TestSubsurfaceSpec:
    def test_accepts_standard_side(self):
        sp = SymplecticSpace(3)
        s = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2))])
        assert s.genus == 1
        assert s.pairing_form() == wedge(sp.a(2), sp.b(2))

    def test_genus_zero_side(self):
        sp = SymplecticSpace(3)
        s = SubsurfaceSpec(sp.a(1), [])
        assert s.genus == 0
        assert johnson_element(s).is_zero()

    def test_zero_boundary_rejected(self):
        sp = SymplecticSpace(2)
        with pytest.raises(InvalidSubsurface, match="nonzero"):
            SubsurfaceSpec(Multivector.zero(sp, 1), [])

    def test_boundary_and_pairs_must_be_degree_one(self):
        sp = SymplecticSpace(3)
        d = Multivector(sp, 1, {(0,): Fraction(1, 2)})
        assert SubsurfaceSpec(d, [(sp.a(2), sp.b(2))]).d is d
        for bad in (wedge(sp.a(1), sp.a(2)), delta(sp)):
            with pytest.raises(TypeError, match="^boundary class must be a degree-1 Multivector$"):
                SubsurfaceSpec(bad, [])
            with pytest.raises(InvalidSubsurface, match="^f1 must be a degree-1 Multivector"):
                SubsurfaceSpec(sp.a(1), [(sp.a(2), bad)])

    def test_boundary_must_be_orthogonal_to_pairs(self):
        sp = SymplecticSpace(2)
        with pytest.raises(InvalidSubsurface, match=r"d \. e1"):
            SubsurfaceSpec(sp.b(2), [(sp.a(2), sp.b(2))])

    def test_pairs_must_be_symplectic(self):
        sp = SymplecticSpace(3)
        with pytest.raises(InvalidSubsurface, match="expected 1"):
            SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.a(3))])
        with pytest.raises(InvalidSubsurface, match=r"e1 \. f2 = 1, expected 0"):
            SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2)), (sp.a(3), sp.b(3) + sp.b(2))])

    def test_fractional_pairing_reported(self):
        sp = SymplecticSpace(2)
        with pytest.raises(InvalidSubsurface, match="= 1/2, expected 1"):
            SubsurfaceSpec(sp.a(1), [(sp.a(2), Fraction(1, 2) * sp.b(2))])

    def test_non_integral_messages_and_check_order(self):
        """The first failing pairing is reported, reduced, in the order
        d . e_n, d . f_n for every n, then pairs of vectors in listed order."""
        sp = SymplecticSpace(3)
        half = Fraction(1, 2)
        # d . f2 fails before e1 . f2, which fails too
        f2 = Fraction(-1, 3) * sp.b(1) + sp.b(3) + sp.b(2)
        with pytest.raises(InvalidSubsurface, match=r"^d \. f2 = -1/6, expected 0$"):
            SubsurfaceSpec(half * sp.a(1), [(sp.a(2), sp.b(2)), (sp.a(3), f2)])
        # e1 . e2 fails before e2 . f2, which fails too
        e1 = sp.a(2) + half * sp.b(3)
        with pytest.raises(InvalidSubsurface, match=r"^e1 \. e2 = -3/4, expected 0$"):
            SubsurfaceSpec(sp.a(1), [(e1, sp.b(2)), (Fraction(3, 2) * sp.a(3), sp.b(3))])
        with pytest.raises(InvalidSubsurface, match=r"^e1 \. f1 = 2/3, expected 1$"):
            SubsurfaceSpec(sp.a(1), [(Fraction(4, 3) * sp.a(2), half * sp.b(2))])
        with pytest.raises(InvalidSubsurface, match=r"^e1 \. f1 = 2, expected 1$"):
            SubsurfaceSpec(sp.a(1), [(Fraction(4, 3) * sp.a(2), Fraction(3, 2) * sp.b(2))])

    def test_non_integral_vectors_accepted(self):
        sp = SymplecticSpace(3)
        s = SubsurfaceSpec(Fraction(2, 5) * sp.a(1),
                           [(Fraction(3, 2) * sp.a(2) + Fraction(1, 7) * sp.a(1),
                             Fraction(2, 3) * sp.b(2))])
        assert s.genus == 1


class TestBoundingPairSpec:
    def test_boundaries_must_cancel(self):
        sp = SymplecticSpace(3)
        s1 = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2))])
        bad = SubsurfaceSpec(sp.a(1), [(sp.a(3), sp.b(3))])
        with pytest.raises(InvalidBoundingPair, match="negative"):
            BoundingPairSpec(s1, bad)

    def test_genus_count_must_close_surface(self):
        sp = SymplecticSpace(3)
        s1 = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2))])
        small = SubsurfaceSpec(-sp.a(1), [])
        with pytest.raises(InvalidBoundingPair, match="ambient genus"):
            BoundingPairSpec(s1, small)

    def test_canonical_pair_valid_at_each_genus(self):
        for g in (3, 4, 5):
            b = canonical_pair(SymplecticSpace(g))
            assert b.side1.genus + b.side2.genus == g - 1

    def test_sides_must_be_subsurface_specs(self):
        side = canonical_pair(SymplecticSpace(3)).side1
        for args, name in ((("x", "y"), "side1"), ((side, "y"), "side2"),
                           ((side.d, side), "side1")):
            with pytest.raises(TypeError, match=f"^{name} must be a SubsurfaceSpec$"):
                BoundingPairSpec(*args)


class TestCanonicalSplit:
    def test_shuffled_handles(self):
        sp = SymplecticSpace(5)
        b = canonical_split(sp, [3, 5, 1, 4, 2], 2)
        assert b.side1.d == sp.a(3) and b.side2.d == -sp.a(3)
        assert b.side1.pairs == ((sp.a(5), sp.b(5)), (sp.a(1), sp.b(1)))
        assert b.side2.pairs == ((sp.a(4), sp.b(4)), (sp.a(2), sp.b(2)))

    def test_h1_out_of_range_rejected(self):
        sp = SymplecticSpace(5)
        for h1 in (-1, 5):
            with pytest.raises(InvalidBoundingPair, match=r"h1 must be in 0\.\.4"):
                canonical_split(sp, range(1, 6), h1)


class TestJohnsonElement:
    def test_golden_side_value(self):
        sp = SymplecticSpace(3)
        s = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2))])
        assert johnson_element(s) == wedge(sp.a(1), sp.a(2), sp.b(2))

    def test_contraction_is_genus_times_boundary(self):
        rng = random.Random(40)
        for g in (3, 4):
            sp = SymplecticSpace(g)
            for _ in range(10):
                b = random_bounding_pair(sp, rng)
                for side in (b.side1, b.side2):
                    assert contraction3(johnson_element(side)) == side.genus * side.d

    def test_respec_moves_fix_element(self):
        sp = SymplecticSpace(3)
        s = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2) + 3 * sp.a(1))])
        assert johnson_element(s) == wedge(sp.a(1), sp.a(2), sp.b(2))
        rotated = SubsurfaceSpec(sp.a(1), [(sp.b(2), -1 * sp.a(2))])
        assert johnson_element(rotated) == wedge(sp.a(1), sp.a(2), sp.b(2))
        sheared = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2) + 2 * sp.a(2))])
        assert johnson_element(sheared) == wedge(sp.a(1), sp.a(2), sp.b(2))


class TestJohnsonBP:
    def test_golden_primitive_value(self):
        b = builtin_fixture("paper-figure-1").pairs["bp"]
        j = johnson_bp(b)
        assert render_multivector(j) == "1/2 a1^a2^b2 - 1/2 a1^a3^b3"

    def test_cross_side_identity_checked(self):
        """Valid sides that do not assemble into one surface are caught."""
        sp = SymplecticSpace(3)
        s1 = SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2))])
        # passes every per-side constraint, yet j1 - j2 != d ^ delta
        s2 = SubsurfaceSpec(-sp.a(1), [(sp.a(3), sp.b(3) + sp.a(2))])
        b = BoundingPairSpec(s1, s2)
        with pytest.raises(JohnsonIdentityError, match="d \\^ delta"):
            johnson_bp(b)
        assert not johnson_pair(b).cross_side_identity

    def test_pair_record_on_fixture(self):
        b = builtin_fixture("paper-figure-1").pairs["bp"]
        sp = b.space
        pair = johnson_pair(b)
        assert pair.side1 == wedge(sp.a(1), sp.a(2), sp.b(2))
        assert pair.side2 == wedge(-sp.a(1), sp.a(3), sp.b(3))
        assert pair.d_wedge_delta == wedge(sp.a(1), delta(sp))
        assert pair.cross_side_identity and pair.projections_agree
        assert pair.primitive1 == pair.primitive2 == johnson_bp(b)

    def test_primitive_and_projection_consistent(self):
        rng = random.Random(41)
        for g in (3, 4):
            sp = SymplecticSpace(g)
            for _ in range(15):
                b = random_bounding_pair(sp, rng)
                j = johnson_bp(b)
                assert is_primitive(j)
                assert j == project_primitive(johnson_element(b.side1))
                identity = johnson_element(b.side1) - johnson_element(b.side2)
                assert identity == wedge(b.side1.d, delta(sp))

    def test_invariant_under_respecification(self):
        rng = random.Random(42)
        sp = SymplecticSpace(3)
        for _ in range(15):
            b = random_bounding_pair(sp, rng)
            j = johnson_bp(b)
            assert johnson_bp(respecify(b, rng)) == j
            assert johnson_bp(respecify(b, rng, swap=True)) == j

    def test_action_matrix_is_identity(self):
        """The predicate and the oracle matrix of T_d T_d'^-1 agree at genus 3-8."""
        rng = random.Random(43)
        pairs = [builtin_fixture(name).pairs["bp"] for name in FIXTURE_NAMES]
        for g in range(3, 9):
            sp = SymplecticSpace(g)
            pairs += [canonical_split(sp, range(1, g + 1), h1) for h1 in range(g)]
            pairs += [random_bounding_pair(sp, rng) for _ in range(8)]
        for b in pairs:
            assert composite_matrix(b.side1.d, b.side2.d) == dense_identity(b.space.dim)
            assert bounding_pair_trivial_on_homology(b) is True


def composite_matrix(c, c_prime):
    """The oracle matrix of T_c composed with the inverse of T_c'."""
    return dense_product(oracle_transvection_matrix(c),
                         oracle_transvection_matrix(c_prime, inverse=True))


class TestTrivialOnHomology:
    """The basis-vector loop against dense oracle matrices built without Transvection."""

    @pytest.mark.parametrize("g", range(3, 9))
    def test_basis_loop_agrees_with_oracle_on_composites(self, g):
        """T_u T_v^-1 is the identity exactly when u = +-v; the loop sees both outcomes."""
        sp = SymplecticSpace(g)
        rng = random.Random(330 + g)
        seen = set()
        for _ in range(8):
            u = random_vector(sp, rng, denominators=True) + sp.a(1)
            for v in (u, -u, random_vector(sp, rng, denominators=True) + sp.b(1)):
                t, t_inv = Transvection(u), Transvection(v)
                fixed = _fixes_every_basis_vector(
                    sp, lambda e: t.apply(t_inv.apply(e, inverse=True)))
                assert fixed is (composite_matrix(u, v) == dense_identity(sp.dim))
                seen.add(fixed)
        assert seen == {True, False}

    @pytest.mark.parametrize("g", range(3, 9))
    def test_lone_twist_is_never_trivial(self, g):
        sp = SymplecticSpace(g)
        for c in [sp.a(h) for h in range(1, g + 1)] + [sp.b(h) for h in range(1, g + 1)]:
            assert oracle_transvection_matrix(c) != dense_identity(sp.dim)
            t = Transvection(c)
            for inverse in (False, True):
                assert _fixes_every_basis_vector(
                    sp, lambda e: t.apply(e, inverse)) is False


class TestFixtures:
    def test_registry(self):
        assert FIXTURE_NAMES == ("genus4-split", "paper-figure-1")
        with pytest.raises(ValueError, match="unknown fixture"):
            builtin_fixture("nope")

    def test_paper_figure_1_contents(self):
        f = builtin_fixture("paper-figure-1")
        sp = f.space
        assert sp.genus == 3
        assert f.vectors["d"] == sp.a(1)
        assert f.multivectors["top"] == wedge(sp.a(2), sp.b(1), sp.a(3))
        assert f.multivectors["j1"] == johnson_element(f.subsurfaces["side1"])
        for key in ("pair", "top", "subsurface", "input", "form", "left", "right"):
            assert key in f.defaults

    def test_contents_equal_hand_written_values(self):
        defaults = {"pair": "bp", "top": "top", "subsurface": "side1",
                    "input": "j1", "form": "phi", "left": "j1", "right": "top"}
        s3, s4 = SymplecticSpace(3), SymplecticSpace(4)
        want = {
            "paper-figure-1": (
                s3,
                {"d": s3.a(1), "dprime": -s3.a(1), "a": s3.a(2),
                 "aprime": s3.b(2), "b": s3.a(3), "c": s3.b(1)},
                {"top": wedge(s3.a(2), s3.b(1), s3.a(3)),
                 "j1": wedge(s3.a(1), s3.a(2), s3.b(2))},
                {"side1": (s3.a(1), ((s3.a(2), s3.b(2)),)),
                 "side2": (-s3.a(1), ((s3.a(3), s3.b(3)),))}),
            "genus4-split": (
                s4,
                {"d": s4.a(1), "dprime": -s4.a(1)},
                {"top": wedge(s4.a(2), s4.b(1), s4.a(4)),
                 "j1": (wedge(s4.a(1), s4.a(2), s4.b(2))
                        + wedge(s4.a(1), s4.a(3), s4.b(3)))},
                {"side1": (s4.a(1), ((s4.a(2), s4.b(2)), (s4.a(3), s4.b(3)))),
                 "side2": (-s4.a(1), ((s4.a(4), s4.b(4)),))}),
        }
        for name, (space, vectors, multivectors, sides) in want.items():
            f = builtin_fixture(name)
            assert f.name == name and f.space == space
            assert f.vectors == vectors
            assert f.multivectors == multivectors
            assert {k: (s.d, s.pairs) for k, s in f.subsurfaces.items()} == sides
            assert list(f.pairs) == ["bp"]
            assert f.pairs["bp"].side1 is f.subsurfaces["side1"]
            assert f.pairs["bp"].side2 is f.subsurfaces["side2"]
            assert f.defaults == defaults

    def test_genus4_split_golden(self):
        f = builtin_fixture("genus4-split")
        j = johnson_bp(f.pairs["bp"])
        assert render_multivector(j) == "1/3 a1^a2^b2 + 1/3 a1^a3^b3 - 2/3 a1^a4^b4"
