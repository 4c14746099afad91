"""Seeded randomized verification of the library's algebraic identities.

Everything here is exact: a check passes only when the identity holds
on the nose for every sampled input.  The CLI `invariants` command runs
this suite; tests reuse the samplers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .exterior import (Multivector, SymplecticSpace, Vector, contraction3,
                       delta, intersection, is_primitive, primitive_basis,
                       project_primitive, split_primitive, sym_product,
                       wedge)
from .forms import Transvection, omega3, phi, q2
from .h3model import (GradedH3Element, TorelliParams, act, dimension_audit,
                      lift_tube, variation)
from .johnson import (BoundingPairSpec, SubsurfaceSpec,
                      bounding_pair_action_matrix, builtin_fixture,
                      canonical_split, johnson_bp, johnson_element,
                      johnson_pair)
from .linalg import is_identity, rank_of_rows
from .render import parse_multivector, parse_sym2, parse_vector, render_canonical
from .report import Verdict


def random_vector(space: SymplecticSpace, rng: random.Random,
                  denominators: bool = False) -> Vector:
    coords = []
    for _ in range(space.dim):
        num = rng.randint(-3, 3)
        den = rng.randint(1, 3) if denominators else 1
        coords.append(Fraction(num, den))
    return Vector(space, coords)


def random_primitive_integral_vector(space: SymplecticSpace,
                                     rng: random.Random) -> Vector:
    """Nonzero integral vector with coprime entries."""
    while True:
        ints = [rng.randint(-3, 3) for _ in range(space.dim)]
        divisor = 0
        for n in ints:
            divisor = gcd(divisor, n)
        if divisor:
            return Vector(space, [Fraction(n // divisor) for n in ints])


def random_multivector(space: SymplecticSpace, degree: int, rng: random.Random,
                       nterms: int = 4, denominators: bool = False) -> Multivector:
    tuples = space.basis_tuples(degree)
    terms = {}
    for t in rng.sample(tuples, min(nterms, len(tuples))):
        num = rng.randint(-3, 3)
        den = rng.randint(1, 3) if denominators else 1
        terms[t] = Fraction(num, den)
    return Multivector(space, degree, terms)


def random_primitive(space: SymplecticSpace, rng: random.Random) -> Multivector:
    return project_primitive(random_multivector(space, 3, rng))


def random_sym2(space: SymplecticSpace, rng: random.Random):
    return sym_product(random_vector(space, rng), random_vector(space, rng))


def random_transvection(space: SymplecticSpace, rng: random.Random) -> Transvection:
    return Transvection(random_primitive_integral_vector(space, rng))


def _jitter_pairs(d: Vector, pairs, rng: random.Random):
    """Respecify one side without changing the subsurface it describes."""
    pairs = [list(p) for p in pairs]
    for p in pairs:
        if rng.random() < 0.5:
            p[0] = p[0] + rng.randint(-2, 2) * d
        if rng.random() < 0.5:
            p[1] = p[1] + rng.randint(-2, 2) * d
        if rng.random() < 0.3:
            p[0], p[1] = p[1], -p[0]
        if rng.random() < 0.3:
            p[1] = p[1] + rng.randint(-2, 2) * p[0]
    rng.shuffle(pairs)
    return [tuple(p) for p in pairs]


def random_bounding_pair(space: SymplecticSpace, rng: random.Random,
                         twists: int | None = None) -> BoundingPairSpec:
    """A valid randomized bounding pair.

    Built from a canonical split of shuffled handles, respecified pair
    by pair, then pushed through a random composite of transvections;
    every step preserves both the validation constraints and the
    cross-side identity.
    """
    g = space.genus
    handles = list(range(1, g + 1))
    rng.shuffle(handles)
    split = canonical_split(space, handles, rng.randint(0, g - 1))
    d = split.side1.d
    pairs1 = _jitter_pairs(d, split.side1.pairs, rng)
    pairs2 = _jitter_pairs(d, split.side2.pairs, rng)
    if twists is None:
        twists = rng.randint(0, 4)
    maps = [random_transvection(space, rng) for _ in range(twists)]

    def push(v: Vector) -> Vector:
        for t in maps:
            v = t.apply_vector(v)
        return v

    d = push(d)
    side1 = SubsurfaceSpec(d, [(push(e), push(f)) for e, f in pairs1])
    side2 = SubsurfaceSpec(-d, [(push(e), push(f)) for e, f in pairs2])
    return BoundingPairSpec(side1, side2)


def respecify(b: BoundingPairSpec, rng: random.Random,
              swap: bool = False) -> BoundingPairSpec:
    """The same bounding pair presented differently."""
    side1 = SubsurfaceSpec(b.side1.d, _jitter_pairs(b.side1.d, b.side1.pairs, rng))
    side2 = SubsurfaceSpec(b.side2.d, _jitter_pairs(b.side2.d, b.side2.pairs, rng))
    return BoundingPairSpec(side2, side1) if swap else BoundingPairSpec(side1, side2)


def run_invariant_checks(genus: int = 3, seed: int = 0,
                         rounds: int = 10) -> list[Verdict]:
    """Run every identity check at the given genus; deterministic in (genus, seed)."""
    space = SymplecticSpace(genus)
    rng = random.Random(seed)
    out: list[Verdict] = []

    def sample_pairs(degree):
        return [(random_multivector(space, degree, rng, denominators=True),
                 random_multivector(space, degree, rng, denominators=True))
                for _ in range(rounds)]

    ok = True
    for _ in range(rounds):
        u = random_vector(space, rng)
        x = random_multivector(space, 1, rng)
        ok = ok and wedge(u, u).is_zero() and wedge(x, x).is_zero()
    out.append(Verdict("wedge-alternating", ok))

    ok = True
    for _ in range(rounds):
        u, v = random_vector(space, rng), random_vector(space, rng)
        w = random_multivector(space, 2, rng)
        lhs = wedge(u + v, w)
        rhs = wedge(u, w) + wedge(v, w)
        ok = ok and lhs == rhs
    out.append(Verdict("wedge-bilinear", ok))

    ok = True
    for _ in range(rounds):
        x = random_multivector(space, 1, rng)
        y = random_multivector(space, 2, rng)
        ok = ok and wedge(x, y) == Fraction(-1) ** (1 * 2) * wedge(y, x)
        u, v = random_vector(space, rng), random_vector(space, rng)
        ok = ok and wedge(u, v) == -1 * wedge(v, u)
    out.append(Verdict("wedge-graded-commutation", ok))

    ok = True
    for _ in range(rounds):
        u, v, w = (random_vector(space, rng) for _ in range(3))
        ok = ok and wedge(wedge(u, v), w) == wedge(u, wedge(v, w))
    out.append(Verdict("wedge-associative", ok))

    ok = True
    for _ in range(rounds):
        u, v, w = (random_vector(space, rng) for _ in range(3))
        base = contraction3(wedge(u, v, w))
        for perm, sign in (((v, u, w), -1), ((v, w, u), 1), ((w, u, v), 1)):
            ok = ok and contraction3(wedge(*perm)) == sign * base
    out.append(Verdict("contraction-well-defined", ok))

    ok = all(contraction3(wedge(delta(space), space.basis_vector(i)))
             == (genus - 1) * space.basis_vector(i) for i in range(space.dim))
    out.append(Verdict("projector-normalization", ok,
                       f"contraction3(delta^v) = {genus - 1} v on the basis"))

    idem, kills, recon = True, True, True
    for _ in range(rounds):
        x = random_multivector(space, 3, rng, denominators=True)
        p, _, dw = split_primitive(x)
        idem = idem and project_primitive(p) == p
        kills = kills and contraction3(p).is_zero()
        recon = recon and p + dw == x
    out.append(Verdict("projector-idempotent", idem))
    out.append(Verdict("projector-kills-contraction", kills))
    out.append(Verdict("splitting-reconstructs", recon))

    audit = dimension_audit(space)
    r1, r2, expected = audit.projector_rank, audit.isotropic_rank, audit.quotient_dim
    out.append(Verdict("primitive-rank-two-ways", r1 == r2 == expected,
                       f"projector {r1}, isotropic span {r2}, count {expected}"))

    ok = True
    for x, y in sample_pairs(2):
        ok = ok and q2(x, y) == q2(y, x)
    out.append(Verdict("q2-symmetric", ok))

    ok = True
    for _ in range(rounds):
        u, v = random_vector(space, rng), random_vector(space, rng)
        ok = ok and q2(delta(space), wedge(u, v)) == intersection(u, v)
    ok = ok and q2(delta(space), delta(space)) == genus
    out.append(Verdict("q2-represents-pairing", ok,
                       "q2(delta, u^v) = u.v and q2(delta, delta) = g"))

    ok = True
    for s, t in sample_pairs(3):
        ok = ok and omega3(s, t) == -omega3(t, s)
    out.append(Verdict("omega3-antisymmetric", ok))

    ok = True
    for _ in range(rounds):
        t = random_transvection(space, rng)
        s1, s2 = random_multivector(space, 3, rng), random_multivector(space, 3, rng)
        x1, x2 = random_multivector(space, 2, rng), random_multivector(space, 2, rng)
        ok = ok and omega3(t.apply(s1), t.apply(s2)) == omega3(s1, s2)
        ok = ok and q2(t.apply(x1), t.apply(x2)) == q2(x1, x2)
    out.append(Verdict("omega3-q2-transvection-invariant", ok))

    basis = primitive_basis(space)
    gram = [[omega3(x, y) for y in basis] for x in basis]
    rank = rank_of_rows(gram)
    out.append(Verdict("omega3-primitive-gram-rank", rank == expected == len(basis),
                       f"rank {rank} on a {len(basis)}-element primitive basis"))

    ok = True
    for _ in range(rounds):
        x = random_multivector(space, 3, rng, denominators=True)
        v = random_vector(space, rng)
        ok = ok and omega3(project_primitive(x), wedge(delta(space), v)) == 0
    out.append(Verdict("omega3-splitting-orthogonal", ok,
                       "measured: the two summands pair to zero"))

    ok = True
    for s, t in sample_pairs(3):
        ok = ok and phi(s, t) == phi(t, s)
    out.append(Verdict("phi-symmetric", ok))

    ok = True
    for _ in range(rounds):
        t = random_transvection(space, rng)
        s1, s2 = random_multivector(space, 3, rng), random_multivector(space, 3, rng)
        ok = ok and phi(t.apply(s1), t.apply(s2)) == t.apply(phi(s1, s2))
    out.append(Verdict("phi-transvection-equivariant", ok))

    ok = True
    for _ in range(rounds):
        x = random_multivector(space, 3, rng, denominators=True)
        w = random_primitive(space, rng)
        ok = ok and phi(x, w) == phi(project_primitive(x), w)
    out.append(Verdict("phi-sees-only-primitive-part", ok,
                       "measured: phi(delta^v, w) = 0 for primitive w"))

    ok = True
    for _ in range(rounds):
        t = random_transvection(space, rng)
        u, v = random_vector(space, rng), random_vector(space, rng)
        ok = ok and intersection(t.apply_vector(u), t.apply_vector(v)) == intersection(u, v)
        ok = ok and t.apply_vector(t.apply_vector(u), inverse=True) == u
    ok = ok and all(random_transvection(space, rng).apply(delta(space)) == delta(space)
                    for _ in range(rounds))
    out.append(Verdict("transvection-symplectic", ok,
                       "preserves the pairing, fixes delta, inverts exactly"))

    ok = True
    for _ in range(rounds):
        pair = johnson_pair(random_bounding_pair(space, rng))
        ok = (ok and pair.cross_side_identity and pair.projections_agree
              and is_primitive(pair.primitive1))
    out.append(Verdict("johnson-cross-side-identity", ok))

    ok = True
    for _ in range(rounds):
        b = random_bounding_pair(space, rng)
        j = johnson_bp(b)
        ok = ok and johnson_bp(respecify(b, rng)) == j
        ok = ok and johnson_bp(respecify(b, rng, swap=True)) == j
    out.append(Verdict("johnson-respec-invariant", ok))

    ok = True
    for _ in range(rounds):
        s = random_bounding_pair(space, rng).side1
        ok = ok and contraction3(johnson_element(s)) == s.genus * s.d
    out.append(Verdict("johnson-contraction-genus-multiple", ok,
                       "contraction3(j(side)) = genus(side) d, measured and frozen"))

    ok = True
    for _ in range(rounds):
        b = random_bounding_pair(space, rng)
        ok = ok and is_identity(bounding_pair_action_matrix(b))
    single = Transvection(space.b(1)).matrix()
    out.append(Verdict("bounding-pair-trivial-on-homology",
                       ok and not is_identity(single),
                       "composite is the identity, a lone twist is not"))

    params = TorelliParams(kappa1=Fraction(1, 2))
    ok = True
    for _ in range(rounds):
        t1, t2 = random_primitive(space, rng), random_primitive(space, rng)
        m = GradedH3Element(Fraction(rng.randint(-2, 2)),
                            random_sym2(space, rng),
                            random_primitive(space, rng))
        ok = ok and act(t1, act(t2, m, params), params) == act(t1 + t2, m, params)
        ok = ok and act(t1, m, params).top == m.top
        tube = lift_tube(random_sym2(space, rng), rng.randint(-2, 2))
        ok = ok and act(t1, tube, params) == tube
    out.append(Verdict("action-unipotent", ok,
                       "additive in the actor, fixes the sub, fixes the top"))

    ok = True
    for _ in range(rounds):
        b = random_bounding_pair(space, rng)
        w1 = random_primitive(space, rng)
        w2 = random_primitive(space, rng)
        var1, var2 = variation(b, w1), variation(b, w2)
        both = variation(b, w1 + w2)
        ok = ok and both.sym2 == var1.sym2 + var2.sym2 and both.scalar == var1.scalar + var2.scalar
        ok = ok and var1.top.is_zero()
    out.append(Verdict("variation-linear-in-top", ok))

    fx = builtin_fixture("paper-figure-1")
    var = variation(fx.pairs["bp"], fx.multivectors["top"])
    expect = sym_product(fx.space.a(2), fx.space.a(3))
    out.append(Verdict("variation-nontrivial-on-builtin-pair",
                       var.sym2 == expect and not var.sym2.is_zero(),
                       "the genus-3 pair moves a2^b1^a3 by +a2.a3"))

    ok = True
    for _ in range(rounds):
        v = random_vector(space, rng, denominators=True)
        ok = ok and parse_vector(space, render_canonical(v)) == v
        for degree in (1, 2, 3):
            x = random_multivector(space, degree, rng, denominators=True)
            ok = ok and parse_multivector(space, render_canonical(x), degree) == x
        s = random_sym2(space, rng)
        ok = ok and parse_sym2(space, render_canonical(s)) == s
    out.append(Verdict("render-parse-round-trip", ok))

    return sorted(out, key=lambda v: v.name)
