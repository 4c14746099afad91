"""Exact exterior algebra over a standard symplectic rational vector space.

The space has dimension 2g with ordered basis a1..ag, b1..bg and the
standard pairing a_i . b_i = 1 = -(b_i . a_i).  Multivectors live in
degrees one to three only; degree four and up is refused rather than
half-supported.  A vector is a degree-one multivector; Vector(space,
coords) builds one from dense coordinates.  All coefficients are
Fraction, never float.

Sparse normal form: a multivector stores a map from strictly increasing
index tuples to nonzero coefficients, the sign of any slot permutation
absorbed into the coefficient, so equality is dict equality.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd

from .linalg import independent_row_indices, rank_of_rows

_LABEL_RE = re.compile(r"^([ab])([1-9][0-9]*)$")


def as_rational(x) -> Fraction:
    """Coerce int / str / Fraction to Fraction, refusing floats."""
    if isinstance(x, float):
        raise TypeError("float coefficients are not allowed; use Fraction, int or 'p/q'")
    return Fraction(x)


class SymplecticSpace:
    """Dimension-2g rational vector space with its standard symplectic basis.

    Index convention: slot i holds a_{i+1} for i < g, slot g+i holds b_{i+1}.
    This class is the one place that checks a basis index and that knows
    the pairing: `_duals[i]` is `dual(i)`, read directly by the kernels,
    whose keys come from already validated terms.
    """

    __slots__ = ("genus", "dim", "_duals")

    def __init__(self, genus: int):
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise TypeError("genus must be an int")
        if genus < 2:
            raise ValueError("genus must be at least 2")
        self.genus = genus
        self.dim = 2 * genus
        self._duals = (tuple((i + genus, 1) for i in range(genus))
                       + tuple((i, -1) for i in range(genus)))

    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and other.genus == self.genus

    def __hash__(self):
        return hash(("SymplecticSpace", self.genus))

    def __repr__(self):
        return f"SymplecticSpace(genus={self.genus})"

    def _check_index(self, i) -> None:
        """Refuse a basis index that is not an int, is a bool, or is out of range."""
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError(f"basis index must be an int, got {i!r}")
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for dimension {self.dim}")

    def label(self, i: int) -> str:
        self._check_index(i)
        return f"a{i + 1}" if i < self.genus else f"b{i - self.genus + 1}"

    def index(self, label: str) -> int:
        m = _LABEL_RE.match(label)
        if m is None:
            raise ValueError(f"not a basis label: {label!r}")
        handle = int(m.group(2))
        if handle > self.genus:
            raise ValueError(f"label {label!r} out of range for genus {self.genus}")
        return handle - 1 if m.group(1) == "a" else self.genus + handle - 1

    def dual(self, i: int) -> tuple[int, int]:
        """The one basis index j that pairs nonzero with i, and that pairing's sign.

        The pairing matrix is a signed permutation: a_k . b_k = 1 and
        b_k . a_k = -1, every other basis pair is 0.
        """
        self._check_index(i)
        return self._duals[i]

    def basis_pairing(self, i: int, j: int) -> int:
        """Intersection number of the i-th and j-th basis vectors."""
        k, sign = self.dual(i)
        self._check_index(j)
        return sign if j == k else 0

    def basis_vector(self, i: int) -> Multivector:
        self._check_index(i)
        return _multivector(self, 1, {(i,): Fraction(1)})

    def a(self, handle: int) -> Multivector:
        """The handle-th a-basis vector, 1-indexed."""
        if not 1 <= handle <= self.genus:
            raise ValueError(f"handle {handle} out of range for genus {self.genus}")
        return self.basis_vector(handle - 1)

    def b(self, handle: int) -> Multivector:
        """The handle-th b-basis vector, 1-indexed."""
        if not 1 <= handle <= self.genus:
            raise ValueError(f"handle {handle} out of range for genus {self.genus}")
        return self.basis_vector(self.genus + handle - 1)

    def basis_tuples(self, degree: int) -> list[tuple[int, ...]]:
        """All strictly increasing index tuples of the given degree, lexicographic."""
        return list(itertools.combinations(range(self.dim), degree))


class _Sparse:
    """Arithmetic shared by the sparse classes; `terms` is in normal form.

    A subclass supplies `_like(terms)`, which wraps a normal-form dict
    with the same space (and degree) without re-validating it.
    """

    __slots__ = ("space", "terms")

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        s = as_rational(scalar)
        if not s:
            return self._like({})
        return self._like({k: s * c for k, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms


class Multivector(_Sparse):
    """Sparse element of the degree-k exterior power, k in {1, 2, 3}."""

    __slots__ = ("degree",)

    def __init__(self, space: SymplecticSpace, degree: int, terms=None):
        if degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {degree}")
        self.space = space
        self.degree = degree
        self.terms = _add_into({}, _normal_wedge_terms(space, degree, terms or {}))

    @classmethod
    def zero(cls, space: SymplecticSpace, degree: int) -> Multivector:
        return cls(space, degree, {})

    @classmethod
    def basis(cls, space: SymplecticSpace, indices) -> Multivector:
        indices = tuple(indices)
        return cls(space, len(indices), {indices: Fraction(1)})

    def _like(self, terms) -> Multivector:
        return _multivector(self.space, self.degree, terms)

    def __eq__(self, other):
        return (isinstance(other, Multivector) and other.space == self.space
                and other.degree == self.degree and other.terms == self.terms)

    def __hash__(self):
        return hash((self.space, self.degree, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        _same_space(self, other, Multivector)
        if other.degree != self.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        return self._like(_add_into(dict(self.terms), other.terms.items()))

    def __repr__(self):
        if not self.terms:
            return f"Multivector(g={self.space.genus}, deg={self.degree}, 0)"
        body = " ".join(f"{c}*{'^'.join(self.space.label(i) for i in k)}"
                        for k, c in sorted(self.terms.items()))
        return f"Multivector(g={self.space.genus}, deg={self.degree}, {body})"

    def dense(self) -> list[Fraction]:
        """Coefficients over the lexicographic basis-tuple order of this degree.

        No caller in the package; kept as a benchmark tracing target.
        """
        return [self.terms.get(t, Fraction(0)) for t in self.space.basis_tuples(self.degree)]


def Vector(space: SymplecticSpace, coords) -> Multivector:
    """The degree-one element with dense coordinates over a1..ag, b1..bg.

    The one validated dense-coordinate constructor: every coordinate goes
    through as_rational, and there must be exactly space.dim of them.  It
    keeps the name of the dense class it replaced, which the benchmark's
    tracer (bench/tracing.py) counts as `exterior.Vector`.
    """
    coords = [as_rational(c) for c in coords]
    if len(coords) != space.dim:
        raise ValueError(f"expected {space.dim} coordinates, got {len(coords)}")
    return _multivector(space, 1, {(i,): c for i, c in enumerate(coords) if c})


class Sym2Element(_Sparse):
    """Sparse element of the symmetric square; keys are pairs (i, j) with i <= j."""

    __slots__ = ()

    def __init__(self, space: SymplecticSpace, terms=None):
        self.space = space
        self.terms = _add_into({}, _normal_sym2_terms(space, terms or {}))

    @classmethod
    def zero(cls, space: SymplecticSpace) -> Sym2Element:
        return cls(space, {})

    def _like(self, terms) -> Sym2Element:
        return _sym2(self.space, terms)

    def __eq__(self, other):
        return (isinstance(other, Sym2Element) and other.space == self.space
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        _same_space(self, other, Sym2Element)
        return self._like(_add_into(dict(self.terms), other.terms.items()))

    def __repr__(self):
        if not self.terms:
            return f"Sym2Element(g={self.space.genus}, 0)"
        body = " ".join(
            f"{c}*{self.space.label(i)}.{self.space.label(j)}"
            for (i, j), c in sorted(self.terms.items()))
        return f"Sym2Element(g={self.space.genus}, {body})"


def _add_into(out: dict, items) -> dict:
    """Add (key, coefficient) pairs with normalized keys into out, in place.

    A coefficient that cancels drops its key, so a dict in normal form
    stays in normal form.  This is the one Fraction merge loop of the sparse
    classes; wedge sums Python ints over a common denominator instead.
    """
    for key, c in items:
        old = out.get(key)
        if old is not None:
            c = old + c
        if c:
            out[key] = c
        elif old is not None:
            del out[key]
    return out


def _multivector(space: SymplecticSpace, degree: int, terms: dict) -> Multivector:
    """Wrap a dict already in normal form; no validation, no copy."""
    x = object.__new__(Multivector)
    x.space, x.degree, x.terms = space, degree, terms
    return x


def _sym2(space: SymplecticSpace, terms: dict) -> Sym2Element:
    """Wrap a dict already in normal form; no validation, no copy."""
    x = object.__new__(Sym2Element)
    x.space, x.terms = space, terms
    return x


def _normal_wedge_terms(space: SymplecticSpace, degree: int, terms):
    """Validate outside terms and yield them with sorted keys and signed coefficients."""
    for indices, coeff in terms.items():
        indices = tuple(indices)
        if len(indices) != degree:
            raise ValueError(f"term {indices} has wrong arity for degree {degree}")
        for i in indices:
            space._check_index(i)
        if len(set(indices)) < degree:
            continue  # repeated slot, the term is zero
        sign, key = _sort_with_sign(indices)
        yield key, sign * as_rational(coeff)


def _normal_sym2_terms(space: SymplecticSpace, terms):
    """Validate outside terms and yield them with keys (i, j), i <= j."""
    for key, coeff in terms.items():
        i, j = key
        try:
            space._check_index(i)
            space._check_index(j)
        except ValueError:
            raise ValueError(f"basis index pair {key} out of range") from None
        yield ((i, j) if i <= j else (j, i)), as_rational(coeff)


def _same_space(x, y, cls):
    if not isinstance(y, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(y).__name__}")
    if y.space != x.space:
        raise ValueError(f"space mismatch: genus {x.space.genus} vs {y.space.genus}")


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort an index tuple, returning the permutation sign and the sorted tuple."""
    order = sorted(indices)
    inversions = sum(1 for p, q in itertools.combinations(indices, 2) if p > q)
    return (-1) ** inversions, tuple(order)


def _check_vector(x, what: str) -> None:
    """Refuse anything but a degree-one multivector, naming it as `what`."""
    if not isinstance(x, Multivector) or x.degree != 1:
        raise TypeError(f"{what} must be a degree-1 Multivector")


def intersection(u: Multivector, v: Multivector) -> Fraction:
    """Intersection pairing u . v: the degree-one case of the determinant pairing."""
    _check_vector(u, "u")
    _check_vector(v, "v")
    _same_space(u, v, Multivector)
    return _pair_dual_keys(u, v)


def _dual_key(space: SymplecticSpace, key: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The one basis key that pairs nonzero with `key`, and the sign of that pairing.

    The slotwise pairing matrix of e_key against e_J is nonzero only when
    J is the sorted image of key under the dual map; it is then a signed
    permutation matrix, whose determinant is the product of the slot
    signs times the sign of the sort.
    """
    duals = space._duals
    sign = 1
    image = []
    for i in key:
        j, e = duals[i]
        image.append(j)
        sign *= e
    sort_sign, dual = _sort_with_sign(tuple(image))
    return sign * sort_sign, dual


def _pair_dual_keys(x: Multivector, y: Multivector) -> Fraction:
    """The determinant pairing of two same-degree forms: one lookup per term of x.

    Degree one is the intersection pairing, degree two q2, degree three omega3.
    """
    space = x.space
    get = y.terms.get
    total = Fraction(0)
    for key, c in x.terms.items():
        sign, dual = _dual_key(space, key)
        d = get(dual)
        if d is None:
            continue
        if sign > 0:
            total += c * d
        else:
            total -= c * d
    return total


def sym_product(u: Multivector, v: Multivector) -> Sym2Element:
    """Symmetric product uv in the symmetric square."""
    _check_vector(u, "u")
    _check_vector(v, "v")
    _same_space(u, v, Multivector)
    products = (((i, j) if i <= j else (j, i), x * y)
                for (i,), x in u.terms.items() for (j,), y in v.terms.items())
    return _sym2(u.space, _add_into({}, products))


def delta(space: SymplecticSpace) -> Multivector:
    """The pairing-representative 2-form sum of a_i ^ b_i."""
    g = space.genus
    return _multivector(space, 2, {(i, g + i): Fraction(1) for i in range(g)})


def wedge(x, y, *more) -> Multivector:
    """Wedge product of multivectors, total degree <= 3.

    Each factor is scaled to integers over the common denominator of its
    coefficients, products are summed as Python ints, and one Fraction is
    built per nonzero output key.
    """
    if more:
        out = wedge(x, y)
        for z in more:
            out = wedge(out, z)
        return out
    if not isinstance(x, Multivector):
        raise TypeError(f"expected Multivector, got {type(x).__name__}")
    _same_space(x, y, Multivector)
    degree = x.degree + y.degree
    if degree > 3:
        raise ValueError(f"degree overflow: {x.degree} + {y.degree} > 3")
    dx, nx = _over_common_denominator(x.terms.values())
    dy, ny = _over_common_denominator(y.terms.values())
    ys = list(zip(y.terms, ny))
    acc: dict = {}
    for s, c in zip(x.terms, nx):
        for t, d in ys:
            merged = _merge(s, t)
            if merged is None:
                continue
            key, sign = merged
            acc[key] = acc.get(key, 0) + (c * d if sign > 0 else -c * d)
    den = dx * dy
    if den == 1:
        return _multivector(x.space, degree, {k: Fraction(n) for k, n in acc.items() if n})
    return _multivector(x.space, degree, {k: Fraction(n, den) for k, n in acc.items() if n})


def _over_common_denominator(coeffs) -> tuple[int, list[int]]:
    """(D, [n, ...]) with each Fraction of the collection equal to n / D.

    D is the least common multiple of the denominators, so integral
    coefficients give D = 1 and their numerators unchanged.
    """
    den = 1
    for c in coeffs:
        q = c.denominator
        if den % q:
            den = den // gcd(den, q) * q
    if den == 1:
        return 1, [c.numerator for c in coeffs]
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _merge(s: tuple[int, ...], t: tuple[int, ...]):
    """The sorted key of s + t and its sort sign, or None when s and t meet.

    Both keys are sorted and the total degree is at most 3, so the only
    shapes are 1 x 1, 1 x 2 and 2 x 1; the sign counts the crossings.
    """
    if len(t) == 1:
        q = t[0]
        if len(s) == 1:
            p = s[0]
            if p < q:
                return (p, q), 1
            return ((q, p), -1) if p > q else None
        p, r = s
        if r < q:
            return (p, r, q), 1
        if p < q < r:
            return (p, q, r), -1
        return ((q, p, r), 1) if q < p else None
    p = s[0]
    q, r = t
    if p < q:
        return (p, q, r), 1
    if q < p < r:
        return (q, p, r), -1
    return ((q, r, p), 1) if r < p else None


def contraction3(x: Multivector) -> Multivector:
    """Cyclic contraction of a 3-form with the pairing.

    On a decomposable u0^u1^u2 this is the sum over i in Z/3 of
    (u_i . u_{i+1}) u_{i+2}, extended linearly.
    """
    if not isinstance(x, Multivector) or x.degree != 3:
        raise ValueError("contraction3 expects a degree-3 multivector")
    space = x.space
    coords = [Fraction(0)] * space.dim
    duals = space._duals
    for (i, j, k), c in x.terms.items():
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            dual, sign = duals[p]
            if dual == q:
                coords[r] += c if sign > 0 else -c
    return _multivector(space, 1, {(i,): c for i, c in enumerate(coords) if c})


def split_primitive(x: Multivector) -> tuple[Multivector, Multivector, Multivector]:
    """The splitting x = p + delta ^ w of a 3-form, as (p, w, delta ^ w).

    p is primitive and w = contraction3(x) / (g-1); the constant is forced
    by contraction3(delta ^ v) = (g-1) v.  One contraction, one wedge.
    """
    w = Fraction(1, x.space.genus - 1) * contraction3(x)
    if w.is_zero():
        return x, w, _multivector(x.space, 3, {})
    dw = wedge(delta(x.space), w)
    return x - dw, w, dw


def project_primitive(x: Multivector) -> Multivector:
    """Projection onto the primitive summand of the third exterior power.

    Kills delta ^ V and fixes the kernel of contraction3.
    """
    return split_primitive(x)[0]


def is_primitive(x: Multivector) -> bool:
    """True when the cyclic contraction of x vanishes."""
    return contraction3(x).is_zero()


def primitive_rank_two_ways(space: SymplecticSpace) -> tuple[int, int]:
    """Dimension of the primitive summand, computed two independent ways.

    First as the exact rank of the projector's image on all basis
    3-forms, then as the exact rank of the span of wedges of
    pairwise-isotropic triples built from basis vectors and two-term
    sums of them.  Neither computation assumes the other's answer.
    """
    projector_rank = len(primitive_basis(space))
    isotropic_rows = [w.terms for w in isotropic_spanning_wedges(space)]
    return projector_rank, rank_of_rows(isotropic_rows)


def isotropic_spanning_wedges(space: SymplecticSpace) -> list[Multivector]:
    """Wedges of pairwise-isotropic triples that span the primitive summand.

    Two families: basis triples containing no a_i, b_i pair, and
    (a_i + a_j) ^ (b_i - b_j) ^ e_k with the handles i, j distinct from
    e_k's handle.  Every member is isotropic, hence primitive.
    """
    g = space.genus
    out: list[Multivector] = []
    for t in space.basis_tuples(3):
        if any(space.basis_pairing(p, q) for p, q in itertools.combinations(t, 2)):
            continue
        out.append(Multivector.basis(space, t))
    for k in range(space.dim):
        handle = k % g
        others = [h for h in range(g) if h != handle]
        for i, j in itertools.combinations(others, 2):
            u = space.basis_vector(i) + space.basis_vector(j)
            v = space.basis_vector(g + i) - space.basis_vector(g + j)
            out.append(wedge(u, v, space.basis_vector(k)))
    return out


def primitive_basis(space: SymplecticSpace) -> list[Multivector]:
    """A basis of the primitive summand, extracted from projector images."""
    images = [project_primitive(Multivector.basis(space, t))
              for t in space.basis_tuples(3)]
    return [images[i] for i in independent_row_indices([x.terms for x in images])]
