"""The randomized identity suite and its samplers."""

from __future__ import annotations

import itertools
import random
from math import gcd

import pytest

from torelli import SymplecticSpace, checks, forms, intersection, is_primitive
from torelli.checks import (random_bounding_pair, random_multivector,
                            random_primitive, random_primitive_integral_vector,
                            random_sym2, random_transvection, random_vector,
                            respecify, run_invariant_checks)
from torelli.exterior import Multivector, Sym2Element, Vector
from torelli.h3model import GradedH3Element
from torelli.render import render_vector

EXPECTED_CHECKS = (
    "action-unipotent",
    "bounding-pair-trivial-on-homology",
    "contraction-well-defined",
    "johnson-contraction-genus-multiple",
    "johnson-cross-side-identity",
    "johnson-respec-invariant",
    "omega3-antisymmetric",
    "omega3-primitive-gram-rank",
    "omega3-q2-transvection-invariant",
    "omega3-splitting-orthogonal",
    "phi-sees-only-primitive-part",
    "phi-symmetric",
    "phi-transvection-equivariant",
    "primitive-rank-two-ways",
    "projector-idempotent",
    "projector-kills-contraction",
    "projector-normalization",
    "q2-represents-pairing",
    "q2-symmetric",
    "render-parse-round-trip",
    "splitting-reconstructs",
    "transvection-symplectic",
    "variation-linear-in-top",
    "variation-nontrivial-on-builtin-pair",
    "wedge-alternating",
    "wedge-associative",
    "wedge-bilinear",
    "wedge-graded-commutation",
)


class TestSuite:
    def test_every_check_passes_at_reference_genus(self):
        verdicts = run_invariant_checks(genus=3, seed=0, rounds=6)
        assert all(v.passed for v in verdicts), \
            [v.name for v in verdicts if not v.passed]
        assert tuple(v.name for v in verdicts) == EXPECTED_CHECKS

    @pytest.mark.parametrize("genus,seed", [(2, 1), (3, 7), (4, 2)])
    def test_passes_across_genera_and_seeds(self, genus, seed):
        verdicts = run_invariant_checks(genus=genus, seed=seed, rounds=4)
        assert all(v.passed for v in verdicts), \
            [v.name for v in verdicts if not v.passed]

    def test_deterministic_in_seed(self):
        a = run_invariant_checks(genus=3, seed=5, rounds=3)
        b = run_invariant_checks(genus=3, seed=5, rounds=3)
        assert a == b


class TestSamplers:
    def test_vectors_land_in_space(self):
        sp = SymplecticSpace(3)
        rng = random.Random(70)
        for _ in range(20):
            assert random_vector(sp, rng).space == sp
            v = random_primitive_integral_vector(sp, rng)
            assert not v.is_zero()
            assert gcd(*(int(c) for c in v.coords)) == 1

    def test_primitive_sampler(self):
        sp = SymplecticSpace(3)
        rng = random.Random(71)
        for _ in range(15):
            assert is_primitive(random_primitive(sp, rng))

    def test_multivector_degrees(self):
        sp = SymplecticSpace(2)
        rng = random.Random(72)
        for degree in (1, 2, 3):
            assert random_multivector(sp, degree, rng).degree == degree

    def test_sym2_symmetric_keys(self):
        sp = SymplecticSpace(3)
        rng = random.Random(73)
        for _ in range(10):
            s = random_sym2(sp, rng)
            assert all(i <= j for i, j in s.terms)

    def test_transvection_directions_nonzero(self):
        sp = SymplecticSpace(3)
        rng = random.Random(74)
        for _ in range(20):
            t = random_transvection(sp, rng)
            assert not t.direction.is_zero()

    def test_bounding_pairs_always_valid(self):
        rng = random.Random(75)
        for g in (2, 3, 4, 5):
            sp = SymplecticSpace(g)
            for _ in range(10):
                b = random_bounding_pair(sp, rng)
                assert b.side1.genus + b.side2.genus + 1 == g
                assert (b.side1.d + b.side2.d).is_zero()
                for e, f in b.side1.pairs + b.side2.pairs:
                    assert intersection(e, f) == 1

    def test_bounding_pair_golden_draws(self):
        """Pinned samples: any change in the rng draw order changes these."""
        golden = {
            (3, 72): ("a3 + b2 - b3",
                      [("a2 - b2 + b3", "a2 - a3 - b2 + 2 b3")],
                      [("b1", "-a1 - 2 b1")],
                      0.2953739992609059),
            (4, 7): ("a4",
                     [],
                     [("a3", "-a4 + b3"), ("-a4 + b1", "-a1 - a4"),
                      ("2 a4 + b2", "-a2 - 2 a4")],
                     0.9762551055929201),
            (5, 15): ("-a1 - 3 a3 + a5 + 3 b1 - b3 - 3 b4 + b5",
                      [("3 a1 + 9 a3 + a4 - 9 b1 + 3 b3 + 9 b4 - 3 b5",
                        "2 a1 + 6 a3 - 2 a5 - 6 b1 + 2 b3 + 7 b4 - 2 b5")],
                      [("-3 a1 - 9 a3 + 9 b1 - 2 b3 - 9 b4 + 3 b5",
                        "-a1 - 4 a3 + 3 b1 - b3 - 3 b4 + b5"),
                       ("-2 a1 - 9 a3 + 9 b1 - 3 b3 - 9 b4 + 3 b5",
                        "-a1 - 3 a3 + 4 b1 - b3 - 3 b4 + b5"),
                       ("b2", "-a2")],
                      0.43930244870197555),
        }
        for (g, seed), (d, pairs1, pairs2, after) in golden.items():
            rng = random.Random(seed)
            b = random_bounding_pair(SymplecticSpace(g), rng)
            assert render_vector(b.side1.d) == d
            assert (b.side1.d + b.side2.d).is_zero()
            for side, want in ((b.side1, pairs1), (b.side2, pairs2)):
                assert [(render_vector(e), render_vector(f)) for e, f in side.pairs] == want
            assert rng.random() == after

    def test_respecify_keeps_boundary_up_to_swap(self):
        sp = SymplecticSpace(3)
        rng = random.Random(76)
        b = random_bounding_pair(sp, rng)
        same = respecify(b, rng)
        assert same.side1.d == b.side1.d
        swapped = respecify(b, rng, swap=True)
        assert swapped.side1.d == b.side2.d


@pytest.fixture
def rngs(monkeypatch):
    """Every random.Random the suite makes, in order of construction."""
    made = []

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(checks.random, "Random", Recording)
    return made


def failing(verdicts):
    return {v.name for v in verdicts if not v.passed}


class TestHarness:
    """Every round draws and is tested, whatever earlier rounds gave."""

    @pytest.mark.parametrize("genus, seed, rounds, after", [
        (2, 1, 4, 0.8005406991407494),
        (3, 0, 10, 0.9608456459247321),
        (3, 7, 6, 0.8846853204646358),
        (4, 3, 10, 0.4451268903186446),
        (5, 11, 10, 0.5128674619514554),
    ])
    def test_golden_draw_stream(self, rngs, genus, seed, rounds, after):
        """Pinned: any change in what the suite draws, or in what order, moves these."""
        assert not failing(run_invariant_checks(genus, seed, rounds))
        [rng] = rngs
        assert rng.random() == after

    def test_failure_does_not_shift_later_draws(self, rngs, monkeypatch):
        """A failing round still draws the rest, so later checks see the same samples."""
        calls = itertools.count()
        real = checks.johnson_bp

        def flaky(b):
            j = real(b)
            return j if next(calls) % 3 == 0 else -j

        monkeypatch.setattr(checks, "johnson_bp", flaky)
        assert failing(run_invariant_checks(3, 0, 10)) == {"johnson-respec-invariant"}
        assert rngs[0].random() == 0.9608456459247321

    @pytest.mark.parametrize("result", [(False,), None])
    def test_identity_must_return_true_itself(self, monkeypatch, result):
        """A truthy tuple or a None from an identity is a failure, not a pass."""
        monkeypatch.setattr(checks, "is_primitive", lambda x: result)
        assert failing(run_invariant_checks(3, 0, 2)) == {"johnson-cross-side-identity"}


def plant_wedge(monkeypatch):
    """A sign error whenever the right factor is a 2-form."""
    real = checks.wedge

    def wedge(x, *rest):
        out = real(x, *rest)
        right = rest[-1]
        return -out if isinstance(right, Multivector) and right.degree == 2 else out
    monkeypatch.setattr(checks, "wedge", wedge)


def plant_forms(monkeypatch):
    """omega3 is off by one."""
    real = checks.omega3
    monkeypatch.setattr(checks, "omega3", lambda s, t: real(s, t) + 1)


def plant_transvection(monkeypatch):
    """Transvection.apply_vector ignores `inverse`."""
    real = forms.Transvection.apply_vector
    monkeypatch.setattr(forms.Transvection, "apply_vector",
                        lambda self, v, inverse=False: real(self, v))


def plant_transvection_sym2(monkeypatch):
    """Transvection.apply on Sym^2 drops its s·c^2 term."""
    real = forms.sym_product
    monkeypatch.setattr(forms, "sym_product",
                        lambda u, v: Sym2Element.zero(u.space) if u is v else real(u, v))


def plant_transvection_3form(monkeypatch):
    """Transvection.apply on a 3-form wedges i_c(x) with the a-part of c only.

    A rescaled shear x + l c ^ i_c(x) would still be a transvection, along
    sqrt(l) c, and so still symplectic; this fault is not.
    """
    real = forms.wedge

    def wedge(c, y):
        if y.degree != 2:
            return real(c, y)
        g = c.space.genus
        return real(Vector(c.space, c.coords[:g] + (0,) * g), y)
    monkeypatch.setattr(forms, "wedge", wedge)


def plant_johnson(monkeypatch):
    """The Johnson element of a side comes out doubled."""
    real = checks.johnson_element
    monkeypatch.setattr(checks, "johnson_element", lambda s: 2 * real(s))


def plant_action(monkeypatch):
    """act moves the top class by the actor."""
    real = checks.act

    def act(t, m, params):
        out = real(t, m, params)
        return GradedH3Element(out.scalar, out.sym2, out.top + t)
    monkeypatch.setattr(checks, "act", act)


class TestPlantedFaults:
    """Each planted fault fails exactly the verdicts that test its identity."""

    @pytest.mark.parametrize("plant, expected", [
        (plant_wedge, {"wedge-associative", "wedge-graded-commutation"}),
        (plant_forms, {"omega3-antisymmetric", "omega3-splitting-orthogonal"}),
        (plant_transvection, {"bounding-pair-trivial-on-homology",
                              "transvection-symplectic"}),
        (plant_transvection_sym2, {"phi-transvection-equivariant"}),
        (plant_transvection_3form, {"omega3-q2-transvection-invariant",
                                    "phi-transvection-equivariant"}),
        (plant_johnson, {"johnson-contraction-genus-multiple"}),
        (plant_action, {"action-unipotent"}),
    ], ids=["wedge", "forms", "transvection", "transvection-sym2", "transvection-3form",
            "johnson", "action"])
    def test_fault_flips_only_its_own_verdicts(self, rngs, monkeypatch, plant, expected):
        assert not failing(run_invariant_checks(3, 0, 4))
        clean_next = rngs[0].random()
        plant(monkeypatch)
        assert failing(run_invariant_checks(3, 0, 4)) == expected
        assert rngs[1].random() == clean_next
