"""Seeded randomized verification of the library's algebraic identities.

Everything here is exact: a check passes only when the identity holds
on the nose for every sampled input.  The CLI `invariants` command runs
this suite; tests reuse the samplers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd

from .exterior import (Multivector, SymplecticSpace, Vector, contraction3,
                       delta, intersection, is_primitive, primitive_basis,
                       project_primitive, split_primitive, sym_product,
                       wedge)
from .forms import Transvection, omega3, omega3_gram_rows, phi, q2
from .h3model import (GradedH3Element, TorelliParams, act, dimension_audit,
                      lift_tube, variation)
from .johnson import (BoundingPairSpec, SubsurfaceSpec,
                      _fixes_every_basis_vector,
                      bounding_pair_trivial_on_homology, builtin_fixture,
                      canonical_split, johnson_bp, johnson_element,
                      johnson_pair)
from .linalg import rank_of_rows
from .render import parse_multivector, parse_sym2, render_canonical
from .report import Verdict

# rounds per randomized verdict; the CLI reports it when a job names none
_DEFAULT_ROUNDS = 10


def random_vector(space: SymplecticSpace, rng: random.Random,
                  denominators: bool = False) -> Multivector:
    coords = []
    for _ in range(space.dim):
        num = rng.randint(-3, 3)
        den = rng.randint(1, 3) if denominators else 1
        coords.append(Fraction(num, den))
    return Vector(space, coords)


def random_primitive_integral_vector(space: SymplecticSpace,
                                     rng: random.Random) -> Multivector:
    """Nonzero integral vector with coprime entries."""
    while True:
        ints = [rng.randint(-3, 3) for _ in range(space.dim)]
        divisor = 0
        for n in ints:
            divisor = gcd(divisor, n)
        if divisor:
            return Vector(space, [Fraction(n // divisor) for n in ints])


def random_multivector(space: SymplecticSpace, degree: int, rng: random.Random,
                       denominators: bool = False) -> Multivector:
    """Up to four basis terms with coefficients in -3..3 (over 1..3 with denominators)."""
    tuples = space.basis_tuples(degree)
    terms = {}
    for t in rng.sample(tuples, min(4, len(tuples))):
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


def _jitter_pairs(d: Multivector, pairs, rng: random.Random):
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


def random_bounding_pair(space: SymplecticSpace, rng: random.Random) -> BoundingPairSpec:
    """A valid randomized bounding pair.

    Built from a canonical split of shuffled handles, respecified pair
    by pair, then pushed through a composite of zero to four random
    transvections; every step preserves both the validation constraints
    and the cross-side identity.
    """
    g = space.genus
    handles = list(range(1, g + 1))
    rng.shuffle(handles)
    split = canonical_split(space, handles, rng.randint(0, g - 1))
    d = split.side1.d
    pairs1 = _jitter_pairs(d, split.side1.pairs, rng)
    pairs2 = _jitter_pairs(d, split.side2.pairs, rng)
    maps = [random_transvection(space, rng) for _ in range(rng.randint(0, 4))]

    def push(v: Multivector) -> Multivector:
        for t in maps:
            v = t.apply(v)
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
                         rounds: int = _DEFAULT_ROUNDS) -> list[Verdict]:
    """Run every identity check at the given genus; deterministic in (genus, seed).

    Each randomized verdict is one `holds(sample, identity)`: every round
    draws its inputs with `sample()` and passes only when
    `identity(*inputs)` returns True itself.  All rounds run whatever the
    outcome, so a failing round never changes what a later check draws.
    """
    space = SymplecticSpace(genus)
    rng = random.Random(seed)
    out: list[Verdict] = []

    def holds(sample, identity) -> bool:
        # a list, not a generator, so that no failure cuts the rounds short
        results = [identity(*sample()) is True for _ in range(rounds)]
        return all(results)

    def check(name, sample, identity, detail=""):
        out.append(Verdict(name, holds(sample, identity), detail))

    def mv(degree, denominators=False):
        return random_multivector(space, degree, rng, denominators=denominators)

    vec = partial(random_vector, space, rng)
    prim = partial(random_primitive, space, rng)
    sym2 = partial(random_sym2, space, rng)
    twist = partial(random_transvection, space, rng)
    pair = partial(random_bounding_pair, space, rng)

    check("wedge-alternating", lambda: (vec(), mv(1)),
          lambda u, x: wedge(u, u).is_zero() and wedge(x, x).is_zero())
    check("wedge-bilinear", lambda: (vec(), vec(), mv(2)),
          lambda u, v, w: wedge(u + v, w) == wedge(u, w) + wedge(v, w))
    check("wedge-graded-commutation", lambda: (mv(1), mv(2), vec(), vec()),
          lambda x, y, u, v: (wedge(x, y) == Fraction(-1) ** (1 * 2) * wedge(y, x)
                              and wedge(u, v) == -1 * wedge(v, u)))
    check("wedge-associative", lambda: (vec(), vec(), vec()),
          lambda u, v, w: wedge(wedge(u, v), w) == wedge(u, wedge(v, w)))

    def contraction_well_defined(u, v, w):
        base = contraction3(wedge(u, v, w))
        return all(contraction3(wedge(*perm)) == sign * base
                   for perm, sign in (((v, u, w), -1), ((v, w, u), 1), ((w, u, v), 1)))
    check("contraction-well-defined", lambda: (vec(), vec(), vec()),
          contraction_well_defined)

    ok = all(contraction3(wedge(delta(space), space.basis_vector(i)))
             == (genus - 1) * space.basis_vector(i) for i in range(space.dim))
    out.append(Verdict("projector-normalization", ok,
                       f"contraction3(delta^v) = {genus - 1} v on the basis"))

    # one draw per round serves all three projector verdicts
    splits = [(x, *split_primitive(x)) for x in [mv(3, True) for _ in range(rounds)]]
    for name, identity in (
            ("projector-idempotent", lambda x, p, w, dw: project_primitive(p) == p),
            ("projector-kills-contraction", lambda x, p, w, dw: contraction3(p).is_zero()),
            ("splitting-reconstructs", lambda x, p, w, dw: p + dw == x)):
        check(name, iter(splits).__next__, identity)

    audit = dimension_audit(space)
    r1, r2, expected = audit.projector_rank, audit.isotropic_rank, audit.quotient_dim
    out.append(Verdict("primitive-rank-two-ways", r1 == r2 == expected,
                       f"projector {r1}, isotropic span {r2}, count {expected}"))

    check("q2-symmetric", lambda: (mv(2, True), mv(2, True)),
          lambda x, y: q2(x, y) == q2(y, x))
    ok = holds(lambda: (vec(), vec()),
               lambda u, v: q2(delta(space), wedge(u, v)) == intersection(u, v))
    out.append(Verdict("q2-represents-pairing", ok and q2(delta(space), delta(space)) == genus,
                       "q2(delta, u^v) = u.v and q2(delta, delta) = g"))
    check("omega3-antisymmetric", lambda: (mv(3, True), mv(3, True)),
          lambda s, t: omega3(s, t) == -omega3(t, s))
    check("omega3-q2-transvection-invariant", lambda: (twist(), mv(3), mv(3), mv(2), mv(2)),
          lambda t, s1, s2, x1, x2: (omega3(t.apply(s1), t.apply(s2)) == omega3(s1, s2)
                                     and q2(t.apply(x1), t.apply(x2)) == q2(x1, x2)))

    basis = primitive_basis(space)
    rank = rank_of_rows(omega3_gram_rows(basis))
    out.append(Verdict("omega3-primitive-gram-rank", rank == expected == len(basis),
                       f"rank {rank} on a {len(basis)}-element primitive basis"))

    check("omega3-splitting-orthogonal", lambda: (mv(3, True), vec()),
          lambda x, v: omega3(project_primitive(x), wedge(delta(space), v)) == 0,
          "measured: the two summands pair to zero")
    check("phi-symmetric", lambda: (mv(3, True), mv(3, True)),
          lambda s, t: phi(s, t) == phi(t, s))
    check("phi-transvection-equivariant", lambda: (twist(), mv(3), mv(3)),
          lambda t, s1, s2: phi(t.apply(s1), t.apply(s2)) == t.apply(phi(s1, s2)))
    check("phi-sees-only-primitive-part", lambda: (mv(3, True), prim()),
          lambda x, w: phi(x, w) == phi(project_primitive(x), w),
          "measured: phi(delta^v, w) = 0 for primitive w")

    preserves = holds(lambda: (twist(), vec(), vec()),
                      lambda t, u, v: (intersection(t.apply(u), t.apply(v)) == intersection(u, v)
                                       and t.apply(t.apply(u), inverse=True) == u))
    fixes_delta = holds(lambda: (twist(),),
                        lambda t: t.apply(delta(space)) == delta(space))
    out.append(Verdict("transvection-symplectic", preserves and fixes_delta,
                       "preserves the pairing, fixes delta, inverts exactly"))

    def cross_side(b):
        jp = johnson_pair(b)
        return jp.cross_side_identity and jp.projections_agree and is_primitive(jp.primitive1)
    check("johnson-cross-side-identity", lambda: (pair(),), cross_side)

    def respecified():
        b = pair()
        return b, respecify(b, rng), respecify(b, rng, swap=True)
    check("johnson-respec-invariant", respecified,
          lambda b, same, swapped: johnson_bp(b) == johnson_bp(same) == johnson_bp(swapped))
    check("johnson-contraction-genus-multiple", lambda: (pair().side1,),
          lambda s: contraction3(johnson_element(s)) == s.genus * s.d,
          "contraction3(j(side)) = genus(side) d, measured and frozen")

    ok = holds(lambda: (pair(),), bounding_pair_trivial_on_homology)
    single = Transvection(space.b(1)).apply
    out.append(Verdict("bounding-pair-trivial-on-homology",
                       ok and not _fixes_every_basis_vector(space, single),
                       "composite is the identity, a lone twist is not"))

    params = TorelliParams(kappa1=Fraction(1, 2))

    def unipotent(t1, t2, m, tube):
        return (act(t1, act(t2, m, params), params) == act(t1 + t2, m, params)
                and act(t1, m, params).top == m.top and act(t1, tube, params) == tube)
    check("action-unipotent",
          lambda: (prim(), prim(), GradedH3Element(Fraction(rng.randint(-2, 2)), sym2(), prim()),
                   lift_tube(sym2(), rng.randint(-2, 2))),
          unipotent, "additive in the actor, fixes the sub, fixes the top")

    def linear_in_top(b, w1, w2):
        var1, var2 = variation(b, w1), variation(b, w2)
        both = variation(b, w1 + w2)
        return (both.sym2 == var1.sym2 + var2.sym2 and both.scalar == var1.scalar + var2.scalar
                and var1.top.is_zero())
    check("variation-linear-in-top", lambda: (pair(), prim(), prim()), linear_in_top)

    fx = builtin_fixture("paper-figure-1")
    var = variation(fx.pairs["bp"], fx.multivectors["top"])
    expect = sym_product(fx.space.a(2), fx.space.a(3))
    out.append(Verdict("variation-nontrivial-on-builtin-pair",
                       var.sym2 == expect and not var.sym2.is_zero(),
                       "the genus-3 pair moves a2^b1^a3 by +a2.a3"))

    check("render-parse-round-trip",
          lambda: (vec(True), [mv(degree, True) for degree in (1, 2, 3)], sym2()),
          lambda v, xs, s: (all(parse_multivector(space, render_canonical(x), x.degree) == x
                                for x in (v, *xs))
                            and parse_sym2(space, render_canonical(s)) == s))

    return sorted(out, key=lambda v: v.name)
