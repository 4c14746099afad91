"""Weight-graded model of the symmetric part of three-point configuration homology.

An element has a rational line piece and a symmetric-square piece (the
sub, dual weight 3) plus a primitive 3-form piece (the quotient, dual
weight 4).  A primitive 3-form t acts unipotently: it shears the sub by
kappa1 * omega3(t, top) and kappa2 * phi(t, top) and fixes the quotient.
The weights are bookkeeping tags only; nothing here computes cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exterior import (Multivector, Sym2Element, SymplecticSpace, as_rational,
                       is_primitive, primitive_rank_two_ways)
from .forms import omega3, phi
from .johnson import BoundingPairSpec, johnson_bp

# Dual cohomological weights of the two graded pieces; metadata only.
WEIGHT_TAGS = {"sub": 3, "quotient": 4}

# Frozen so that the built-in genus-3 bounding pair moves the lift of
# a2 ^ b1 ^ a3 by exactly +a2.a3: phi itself evaluates to -a2.a3 there.
DEFAULT_KAPPA2 = Fraction(-1)


@dataclass(frozen=True)
class TorelliParams:
    """Coefficients of the unipotent action; kappa2 must be nonzero."""

    kappa1: Fraction = Fraction(0)
    kappa2: Fraction = DEFAULT_KAPPA2

    def __post_init__(self):
        object.__setattr__(self, "kappa1", as_rational(self.kappa1))
        object.__setattr__(self, "kappa2", as_rational(self.kappa2))
        if self.kappa2 == 0:
            raise ValueError("kappa2 must be nonzero, or the action forgets phi entirely")


class GradedH3Element:
    """Scalar line + symmetric square (sub) and a primitive 3-form (quotient)."""

    __slots__ = ("space", "scalar", "sym2", "top")

    def __init__(self, scalar, sym2: Sym2Element, top: Multivector):
        if not isinstance(sym2, Sym2Element):
            raise TypeError("sym2 piece must be a Sym2Element")
        if not isinstance(top, Multivector) or top.degree != 3:
            raise ValueError("top piece must be a degree-3 multivector")
        if sym2.space != top.space:
            raise ValueError("sym2 and top pieces live in different spaces")
        if not is_primitive(top):
            raise ValueError("top piece must be primitive (zero cyclic contraction)")
        self.space = top.space
        self.scalar = as_rational(scalar)
        self.sym2 = sym2
        self.top = top

    @classmethod
    def zero(cls, space: SymplecticSpace) -> GradedH3Element:
        return cls(0, Sym2Element.zero(space), Multivector.zero(space, 3))

    @classmethod
    def from_top(cls, top: Multivector) -> GradedH3Element:
        """The lift of a primitive 3-form with trivial sub part."""
        return cls(0, Sym2Element.zero(top.space), top)

    def __eq__(self, other):
        return (isinstance(other, GradedH3Element) and other.space == self.space
                and other.scalar == self.scalar and other.sym2 == self.sym2
                and other.top == self.top)

    def __hash__(self):
        return hash((self.space, self.scalar, self.sym2, self.top))

    def __add__(self, other):
        if not isinstance(other, GradedH3Element) or other.space != self.space:
            raise TypeError("can only add GradedH3Elements over the same space")
        return GradedH3Element(self.scalar + other.scalar, self.sym2 + other.sym2,
                               self.top + other.top)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GradedH3Element(-self.scalar, -self.sym2, -self.top)

    def __repr__(self):
        return (f"GradedH3Element(scalar={self.scalar}, sym2={self.sym2!r}, "
                f"top={self.top!r})")

    def is_zero(self) -> bool:
        return self.scalar == 0 and self.sym2.is_zero() and self.top.is_zero()


def lift_tube(x: Sym2Element, scalar=0) -> GradedH3Element:
    """Include a symmetric-square class (and optional scalar) into the sub."""
    return GradedH3Element(scalar, x, Multivector.zero(x.space, 3))


def act(t: Multivector, m: GradedH3Element,
        params: TorelliParams | None = None) -> GradedH3Element:
    """Unipotent action of a primitive 3-form t on a model element."""
    if params is None:
        params = TorelliParams()
    if not isinstance(t, Multivector) or t.degree != 3:
        raise ValueError("acting element must be a degree-3 multivector")
    if t.space != m.space:
        raise ValueError("acting element lives in a different space")
    if not is_primitive(t):
        raise ValueError("acting element must be primitive (zero cyclic contraction)")
    return GradedH3Element(
        m.scalar + params.kappa1 * omega3(t, m.top),
        m.sym2 + params.kappa2 * phi(t, m.top),
        m.top)


def variation(b: BoundingPairSpec, top: Multivector,
              params: TorelliParams | None = None) -> GradedH3Element:
    """How the lift of a primitive top class moves under a bounding pair.

    Returns act(j, lift) - lift for j the pair's primitive Johnson
    element; the top piece of the difference is always zero, so a
    nonzero sym2 piece certifies that the action is nontrivial.
    """
    m = GradedH3Element.from_top(top)
    return act(johnson_bp(b), m, params) - m


@dataclass(frozen=True)
class DimensionAudit:
    """Exact dimension bookkeeping for the graded model at one genus.

    quotient_dim is the count C(2g,3) - 2g; projector_rank and
    isotropic_rank are the two independent computations of the same
    dimension, left for the caller to compare.
    """

    genus: int
    sub_dim: int
    quotient_dim: int
    total_dim: int
    projector_rank: int
    isotropic_rank: int

    def as_dict(self) -> dict[str, int]:
        return {"genus": self.genus, "sub_dim": self.sub_dim,
                "quotient_dim": self.quotient_dim, "total_dim": self.total_dim,
                "projector_rank": self.projector_rank,
                "isotropic_rank": self.isotropic_rank}


def dimension_audit(space: SymplecticSpace) -> DimensionAudit:
    """Dimensions: sub = 1 + g(2g+1), quotient = C(2g,3) - 2g, plus both
    computed ranks of the primitive summand.  Nothing is checked here."""
    g = space.genus
    r1, r2 = primitive_rank_two_ways(space)
    quotient = comb(space.dim, 3) - space.dim
    sub = 1 + g * (2 * g + 1)
    return DimensionAudit(genus=g, sub_dim=sub, quotient_dim=quotient,
                          total_dim=sub + quotient,
                          projector_rank=r1, isotropic_rank=r2)
