"""Bounding-pair data and their Johnson elements.

A SubsurfaceSpec is the homological shadow of one side of a bounding
pair: the boundary class d together with a symplectic basis of the
side's genus, all pairings validated on construction.  The Johnson
element of a side is d wedged with the side's pairing form; for the
full bounding pair the primitive projection is the invariant that the
two sides must agree on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .exterior import (Multivector, SymplecticSpace, _check_vector,
                       _over_common_denominator, delta, project_primitive,
                       wedge)
from .forms import Transvection


class InvalidSubsurface(ValueError):
    """A pairing constraint on subsurface data failed."""


class InvalidBoundingPair(ValueError):
    """The two sides of a bounding pair do not fit together."""


class JohnsonIdentityError(ValueError):
    """The two sides' Johnson elements do not differ by d ^ delta.

    Raised by johnson_bp when per-side data is individually consistent
    but no surface decomposition can realize both sides at once.
    """


class SubsurfaceSpec:
    """Boundary class d plus symplectic basis pairs (e_i, f_i) of one side.

    Constraints checked exactly: e_i . f_j = 1 if i = j else 0,
    e_i . e_j = f_i . f_j = 0, d pairs to zero with everything listed,
    and d is nonzero.
    """

    __slots__ = ("space", "d", "pairs")

    def __init__(self, d: Multivector, pairs):
        _check_vector(d, "boundary class")
        if d.is_zero():
            raise InvalidSubsurface("boundary class d must be nonzero")
        pairs = tuple((e, f) for e, f in pairs)
        duals = d.space._duals

        def scaled(v):
            # (D, {i: n_i}, {dual(i): sign_i n_i}) for v = sum n_i e_i / D, so
            # x . y is the sum of x[2][k] * y[1][k] over shared k, over D_x D_y
            den, ints = _over_common_denominator(v.terms.values())
            keys = [i for (i,) in v.terms]
            return (den, dict(zip(keys, ints)),
                    {duals[i][0]: duals[i][1] * n for i, n in zip(keys, ints)})

        vecs = [("d", scaled(d))]
        for n, (e, f) in enumerate(pairs, start=1):
            for v, name in ((e, f"e{n}"), (f, f"f{n}")):
                if not isinstance(v, Multivector) or v.degree != 1 or v.space != d.space:
                    raise InvalidSubsurface(
                        f"{name} must be a degree-1 Multivector in the same space as d")
                vecs.append((name, scaled(v)))
        # d first, so its checks come before those among the pairs
        for i, (namex, x) in enumerate(vecs):
            for namey, y in vecs[i + 1:]:
                want = 1 if (namex[0], namey[0]) == ("e", "f") and namex[1:] == namey[1:] else 0
                get = y[1].get
                val, den = sum(n * get(k, 0) for k, n in x[2].items()), x[0] * y[0]
                if val != want * den:
                    raise InvalidSubsurface(
                        f"{namex} . {namey} = {Fraction(val, den)}, expected {want}")
        self.space = d.space
        self.d = d
        self.pairs = pairs

    @property
    def genus(self) -> int:
        return len(self.pairs)

    def __repr__(self):
        return f"SubsurfaceSpec(genus={self.genus}, d={self.d!r})"

    def pairing_form(self) -> Multivector:
        """The 2-form sum of e_i ^ f_i over the side's pairs."""
        out = Multivector.zero(self.space, 2)
        for e, f in self.pairs:
            out = out + wedge(e, f)
        return out


class BoundingPairSpec:
    """Two subsurface sides with opposite boundary classes filling a closed surface."""

    __slots__ = ("space", "side1", "side2")

    def __init__(self, side1: SubsurfaceSpec, side2: SubsurfaceSpec):
        for name, side in (("side1", side1), ("side2", side2)):
            if not isinstance(side, SubsurfaceSpec):
                raise TypeError(f"{name} must be a SubsurfaceSpec")
        if side1.space != side2.space:
            raise InvalidBoundingPair("sides live in different spaces")
        if not (side1.d + side2.d).is_zero():
            raise InvalidBoundingPair("side2 boundary must be the negative of side1's")
        g = side1.space.genus
        if side1.genus + side2.genus + 1 != g:
            raise InvalidBoundingPair(
                f"side genera {side1.genus} + {side2.genus} + 1 != ambient genus {g}")
        self.space = side1.space
        self.side1 = side1
        self.side2 = side2

    def __repr__(self):
        return (f"BoundingPairSpec(genus={self.space.genus}, "
                f"sides {self.side1.genus}+{self.side2.genus})")


def johnson_element(s: SubsurfaceSpec) -> Multivector:
    """Johnson element of one side: d ^ (sum of e_i ^ f_i).

    Invariant under symplectic respecification of the pairs and under
    shifts of any pair vector by a multiple of d.
    """
    return wedge(s.d, s.pairing_form()) if s.pairs else Multivector.zero(s.space, 3)


@dataclass(frozen=True)
class JohnsonPair:
    """Both sides' Johnson elements of a bounding pair, d ^ delta, and the
    primitive projection of each side."""

    side1: Multivector
    side2: Multivector
    d_wedge_delta: Multivector
    primitive1: Multivector
    primitive2: Multivector

    @property
    def cross_side_identity(self) -> bool:
        """j(side1) - j(side2) = d ^ delta; per-side constraints alone do not force it."""
        return self.side1 - self.side2 == self.d_wedge_delta

    @property
    def projections_agree(self) -> bool:
        return self.primitive1 == self.primitive2


def johnson_pair(b: BoundingPairSpec) -> JohnsonPair:
    """Every quantity of the cross-side identity, unchecked."""
    j1 = johnson_element(b.side1)
    j2 = johnson_element(b.side2)
    return JohnsonPair(j1, j2, wedge(b.side1.d, delta(b.space)),
                       project_primitive(j1), project_primitive(j2))


def johnson_bp(b: BoundingPairSpec) -> Multivector:
    """Primitive Johnson element of a bounding pair.

    Raises JohnsonIdentityError unless the cross-side identity holds
    and both sides project to the same primitive element.
    """
    pair = johnson_pair(b)
    if not pair.cross_side_identity:
        raise JohnsonIdentityError(
            "side data is inconsistent: j(side1) - j(side2) != d ^ delta")
    if not pair.projections_agree:
        raise JohnsonIdentityError("sides project to different primitive elements")
    return pair.primitive1


def _fixes_every_basis_vector(space: SymplecticSpace, f) -> bool:
    """Whether the map f on degree-1 elements sends each basis vector to itself."""
    return all(f(e) == e for e in map(space.basis_vector, range(space.dim)))


def bounding_pair_trivial_on_homology(b: BoundingPairSpec) -> bool:
    """Whether twist(d) composed with inverse twist(d') fixes every basis vector.

    Always true: the two twists along homologous curves cancel on
    homology, which is the point of working with bounding pairs.
    """
    t, t_prime = Transvection(b.side1.d), Transvection(b.side2.d)
    return _fixes_every_basis_vector(
        b.space, lambda e: t.apply(t_prime.apply(e, inverse=True)))


def canonical_split(space: SymplecticSpace, handles: Sequence[int],
                    h1: int) -> BoundingPairSpec:
    """The bounding pair cut along d = a_{handles[0]}.

    Side 1 carries the standard pairs (a_k, b_k) of the next h1 handles,
    side 2 those of the rest, and d' = -d.  With every handle listed
    once, each h1 in 0..g-1 gives a valid pair.
    """
    if not 0 <= h1 < len(handles):
        raise InvalidBoundingPair(f"h1 must be in 0..{len(handles) - 1}, got {h1}")
    d = space.a(handles[0])
    side1 = SubsurfaceSpec(d, [(space.a(k), space.b(k)) for k in handles[1:1 + h1]])
    side2 = SubsurfaceSpec(-d, [(space.a(k), space.b(k)) for k in handles[1 + h1:]])
    return BoundingPairSpec(side1, side2)


class Fixture:
    """A named, ready-made configuration: space plus named objects."""

    __slots__ = ("name", "space", "vectors", "multivectors", "subsurfaces",
                 "pairs", "defaults")

    def __init__(self, name, space, vectors, multivectors, subsurfaces, pairs, defaults):
        self.name = name
        self.space = space
        self.vectors = dict(vectors)
        self.multivectors = dict(multivectors)
        self.subsurfaces = dict(subsurfaces)
        self.pairs = dict(pairs)
        self.defaults = dict(defaults)

    def __repr__(self):
        return f"Fixture({self.name!r}, genus={self.space.genus})"


def _split_fixture(name: str, g: int, h1: int, labels) -> Fixture:
    """The canonical split at (g, h1) with the top class a2 ^ b1 ^ ag.

    labels names extra basis vectors, {name: basis label}, so that
    configs written against a fixture keep resolving.
    """
    space = SymplecticSpace(g)
    pair = canonical_split(space, range(1, g + 1), h1)
    vectors = {"d": pair.side1.d, "dprime": pair.side2.d}
    vectors.update((n, space.basis_vector(space.index(label)))
                   for n, label in labels.items())
    return Fixture(
        name=name,
        space=space,
        vectors=vectors,
        multivectors={"top": wedge(space.a(2), space.b(1), space.a(g)),
                      "j1": johnson_element(pair.side1)},
        subsurfaces={"side1": pair.side1, "side2": pair.side2},
        pairs={"bp": pair},
        defaults={"pair": "bp", "top": "top", "subsurface": "side1",
                  "input": "j1", "form": "phi", "left": "j1", "right": "top"},
    )


# name: (genus, h1, extra vector names as basis labels).  In paper-figure-1
# the top class a2 ^ b1 ^ a3 is the isotropic triple a ^ c ^ b, meeting
# both sides' curve systems.
_FIXTURE_SPLITS = {
    "paper-figure-1": (3, 1, {"a": "a2", "aprime": "b2", "b": "a3", "c": "b1"}),
    "genus4-split": (4, 2, {}),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_SPLITS))


def builtin_fixture(name: str) -> Fixture:
    """Look up a named built-in configuration."""
    try:
        split = _FIXTURE_SPLITS[name]
    except KeyError:
        known = ", ".join(FIXTURE_NAMES)
        raise ValueError(f"unknown fixture {name!r}; known fixtures: {known}") from None
    return _split_fixture(name, *split)
