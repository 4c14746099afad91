"""Acceptance suite: the eleven headline guarantees, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside pytest's own verdicts.  Every check is exact
rational arithmetic; the only tolerances anywhere are wall-clock bounds.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from fractions import Fraction
from math import comb

from conftest import dense_identity, dense_product, oracle_transvection_matrix
from torelli import (BoundingPairSpec, SubsurfaceSpec, SymplecticSpace,
                     Transvection, bounding_pair_trivial_on_homology,
                     builtin_fixture, canonical_split, contraction3, delta,
                     johnson_bp, johnson_element, lift_tube, omega3,
                     parse_multivector, parse_sym2, parse_vector, phi,
                     project_primitive,
                     primitive_basis, primitive_rank_two_ways, q2,
                     render_multivector, render_sym2, render_vector,
                     sym_product, variation, wedge)
from torelli.checks import (random_bounding_pair, random_multivector,
                            random_sym2, random_vector, respecify)
from torelli.cli import main
from torelli.h3model import GradedH3Element, act
from torelli.linalg import rank_of_rows

EPSILON = Fraction(-1)  # frozen global sign of phi on the canonical fixture


def _report(num, label, fn, limit=None):
    start = time.perf_counter()
    try:
        fn()
    except AssertionError:
        print(f"criterion {num:2d}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(f"criterion {num:2d}: FAIL  {label} (took {elapsed:.2f}s, limit {limit}s)")
        raise AssertionError(f"criterion {num} exceeded {limit}s: {elapsed:.2f}s")
    print(f"criterion {num:2d}: PASS  {label}")


def _canonical_fixture_parts():
    f = builtin_fixture("paper-figure-1")
    return f.space, f.pairs["bp"], f.multivectors["top"]


def test_criterion_01_central_pairing_value():
    def check():
        sp, bp, top = _canonical_fixture_parts()
        expected = EPSILON * sym_product(sp.a(2), sp.a(3))
        assert phi(johnson_bp(bp), top) == expected
        # the same value across equivalent respecifications of the pair
        rng = random.Random(101)
        variants = [respecify(bp, rng) for _ in range(5)]
        variants += [respecify(bp, rng, swap=True) for _ in range(5)]
        shifted = BoundingPairSpec(
            SubsurfaceSpec(sp.a(1), [(sp.a(2), sp.b(2) + 7 * sp.a(1))]),
            SubsurfaceSpec(-sp.a(1), [(sp.b(3), -1 * sp.a(3))]))
        variants.append(shifted)
        for b in variants:
            assert phi(johnson_bp(b), top) == expected

    _report(1, "phi(j(d,d'), a^c^b) = -(a2.a3), stable across respecifications",
            check, limit=1.0)


def test_criterion_02_nontriviality_certificate():
    def check():
        _, bp, top = _canonical_fixture_parts()
        v = variation(bp, top)
        assert not v.sym2.is_zero()
        assert v.top.is_zero()

    _report(2, "variation of the lifted top class has nonzero sym2 part",
            check, limit=1.0)


def test_criterion_03_johnson_identity():
    def check():
        sp, bp, _ = _canonical_fixture_parts()
        assert (johnson_element(bp.side1) - johnson_element(bp.side2)
                == wedge(bp.side1.d, delta(sp)))
        for g in (3, 4):
            space = SymplecticSpace(g)
            rng = random.Random(103 + g)
            for _ in range(50):
                b = random_bounding_pair(space, rng)
                lhs = johnson_element(b.side1) - johnson_element(b.side2)
                assert lhs == wedge(b.side1.d, delta(space))

    _report(3, "j(side1) - j(side2) = d ^ delta on canonical and 50 random pairs at g=3,4",
            check)


def test_criterion_04_splitting_correctness():
    def check():
        for g in (2, 3, 4):
            sp = SymplecticSpace(g)
            rng = random.Random(104 + g)
            for _ in range(100):
                x = random_multivector(sp, 3, rng, denominators=True)
                p = project_primitive(x)
                assert contraction3(p).is_zero()
                assert project_primitive(p) == p
            d = delta(sp)
            for i in range(sp.dim):
                v = sp.basis_vector(i)
                assert contraction3(wedge(d, v)) == (g - 1) * v

    _report(4, "projector kills contraction and is idempotent; delta-wedge normalization",
            check)


def test_criterion_05_dimension_audit():
    def check():
        for g, expected in ((2, 0), (3, 14), (4, 48), (6, 208), (8, 544)):
            sp = SymplecticSpace(g)
            r1, r2 = primitive_rank_two_ways(sp)
            assert r1 == r2 == expected == comb(2 * g, 3) - 2 * g

    _report(5, "primitive rank 0/14/48/208/544 at g=2/3/4/6/8, two independent computations",
            check, limit=10.0)


def test_criterion_06_equivariance_suite():
    def check():
        sp = SymplecticSpace(3)
        rng = random.Random(106)
        for _ in range(100):
            t = Transvection(random_vector(sp, rng) + sp.a(rng.randint(1, 3)))
            s3 = random_multivector(sp, 3, rng)
            t3 = random_multivector(sp, 3, rng)
            assert omega3(t.apply(s3), t.apply(t3)) == omega3(s3, t3)
            x2 = random_multivector(sp, 2, rng)
            y2 = random_multivector(sp, 2, rng)
            assert q2(t.apply(x2), t.apply(y2)) == q2(x2, y2)
            assert phi(t.apply(s3), t.apply(t3)) == t.apply(phi(s3, t3))

    _report(6, "omega3 and q2 invariant, phi equivariant, under 100 transvections at g=3",
            check)


def test_criterion_07_omega3_rank():
    def check():
        sp = SymplecticSpace(3)
        rng = random.Random(107)
        for _ in range(50):
            s = random_multivector(sp, 3, rng)
            t = random_multivector(sp, 3, rng)
            assert omega3(s, t) == -omega3(t, s)
        basis = primitive_basis(sp)
        gram = [{j: omega3(x, y) for j, y in enumerate(basis)} for x in basis]
        assert rank_of_rows(gram) == 14

    _report(7, "omega3 antisymmetric with Gram rank 14 on the primitive part at g=3",
            check)


def test_criterion_08_trivial_on_homology():
    def acts_as_identity(bp):
        product = dense_product(oracle_transvection_matrix(bp.side1.d),
                                oracle_transvection_matrix(bp.side2.d, inverse=True))
        return product == dense_identity(bp.space.dim)

    def check():
        sp3, bp, _ = _canonical_fixture_parts()
        assert bounding_pair_trivial_on_homology(bp) and acts_as_identity(bp)
        for g in (3, 4):
            sp = SymplecticSpace(g)
            rng = random.Random(108 + g)
            for _ in range(25):
                b = random_bounding_pair(sp, rng)
                assert bounding_pair_trivial_on_homology(b) and acts_as_identity(b)
        lone = Transvection(sp3.a(1))
        basis = [sp3.basis_vector(i) for i in range(sp3.dim)]
        assert any(lone.apply_vector(e) != e for e in basis)
        assert oracle_transvection_matrix(sp3.a(1)) != dense_identity(sp3.dim)

    _report(8, "bounding pairs act as the identity matrix; a lone transvection does not",
            check)


def test_criterion_09_unipotency():
    def check():
        sp = SymplecticSpace(3)
        rng = random.Random(109)
        for _ in range(30):
            t1 = project_primitive(random_multivector(sp, 3, rng))
            t2 = project_primitive(random_multivector(sp, 3, rng))
            m = lift_tube(random_sym2(sp, rng), scalar=rng.randint(-3, 3))
            m = m + GradedH3Element.from_top(
                project_primitive(random_multivector(sp, 3, rng)))
            assert act(t1, act(t2, m)) == act(t1 + t2, m)
            assert act(t1, m).top == m.top

    _report(9, "act(t1, act(t2, m)) = act(t1+t2, m) and the top piece never moves",
            check)


def test_criterion_10_determinism_and_round_trip():
    def run_cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    def check():
        jobs = [
            ["act", "--fixture", "paper-figure-1", "--format", "json"],
            ["act", "--fixture", "paper-figure-1", "--format", "text"],
            ["johnson", "--fixture", "genus4-split", "--format", "json"],
            ["audit", "--genus", "3", "--format", "text"],
        ]
        for argv in jobs:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second
            assert first[0] == 0
        count = 0
        rng = random.Random(110)
        for g in (2, 3, 4):
            sp = SymplecticSpace(g)
            while count < 200 * (g - 1) // 3:
                v = random_vector(sp, rng, denominators=True)
                assert parse_vector(sp, render_vector(v)) == v
                degree = rng.randint(1, 3)
                x = random_multivector(sp, degree, rng, denominators=True)
                assert parse_multivector(sp, render_multivector(x), degree) == x
                s = random_sym2(sp, rng)
                assert parse_sym2(sp, render_sym2(s)) == s
                count += 3
        assert count >= 200

    _report(10, "byte-identical reports on repeated runs; parse(render(x)) = x, 200 elements",
            check)


def test_criterion_11_nontrivial_at_every_genus():
    def check():
        for g in range(3, 13):
            sp = SymplecticSpace(g)
            top = wedge(sp.a(2), sp.b(1), sp.a(g))
            moved = sym_product(sp.a(2), sp.a(g))
            for h1 in range(g):
                v = variation(canonical_split(sp, range(1, g + 1), h1), top)
                assert v.top.is_zero() and v.scalar == 0
                if 1 <= h1 <= g - 2:
                    assert v.sym2 == moved
                else:
                    assert v.sym2.is_zero()

    _report(11, "canonical splits at g=3..12 move a2^b1^ag by a2.ag, or by 0 with a genus-0 side",
            check, limit=5.0)
