"""Invariant pairings on exterior powers and the transvection action.

omega3 pairs two 3-forms to a rational, q2 pairs two 2-forms, and phi
pairs two 3-forms into the symmetric square.  All three are defined on
decomposables and extended bilinearly; transvections provide the
equivariance test machinery.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import (Multivector, Sym2Element, Vector, _add_into,
                       _multivector, _same_space, _sym2, _vector, intersection,
                       sym_product, wedge)


def _check_degree(x, degree: int, name: str):
    if not isinstance(x, Multivector) or x.degree != degree:
        raise ValueError(f"{name} expects degree-{degree} multivectors")


def omega3(s: Multivector, t: Multivector) -> Fraction:
    """Invariant pairing of two 3-forms.

    On decomposables this is the sum over permutations tau of S3 of
    sign(tau) times the product of u_i . v_{tau(i)}, i.e. the 3x3
    determinant of the slotwise pairings.
    """
    _check_degree(s, 3, "omega3")
    _check_degree(t, 3, "omega3")
    _same_space(s, t, Multivector)
    pairing = s.space.basis_pairing
    total = Fraction(0)
    for (i0, i1, i2), c in s.terms.items():
        for (j0, j1, j2), d in t.terms.items():
            m00, m01, m02 = pairing(i0, j0), pairing(i0, j1), pairing(i0, j2)
            m10, m11, m12 = pairing(i1, j0), pairing(i1, j1), pairing(i1, j2)
            m20, m21, m22 = pairing(i2, j0), pairing(i2, j1), pairing(i2, j2)
            det = (m00 * (m11 * m22 - m12 * m21)
                   - m01 * (m10 * m22 - m12 * m20)
                   + m02 * (m10 * m21 - m11 * m20))
            if det:
                total += c * d * det
    return total


def q2(x: Multivector, y: Multivector) -> Fraction:
    """Invariant pairing of two 2-forms: the 2x2 determinant of slot pairings."""
    _check_degree(x, 2, "q2")
    _check_degree(y, 2, "q2")
    _same_space(x, y, Multivector)
    pairing = x.space.basis_pairing
    total = Fraction(0)
    for (p, q), c in x.terms.items():
        for (r, s), d in y.terms.items():
            det = pairing(p, r) * pairing(q, s) - pairing(p, s) * pairing(q, r)
            if det:
                total += c * d * det
    return total


def phi(s: Multivector, t: Multivector) -> Sym2Element:
    """Pairing of two 3-forms into the symmetric square.

    On decomposables u0^u1^u2 and v0^v1^v2 it is the double cyclic sum
    over i, j in Z/3 of q2(u_i ^ u_{i+1}, v_j ^ v_{j+1}) u_{i+2} v_{j+2};
    the cyclic structure makes it well defined on exterior classes.
    """
    _check_degree(s, 3, "phi")
    _check_degree(t, 3, "phi")
    _same_space(s, t, Multivector)
    return _sym2(s.space, _add_into({}, _phi_terms(s, t)))


def _phi_terms(s: Multivector, t: Multivector):
    """The (key, coefficient) contributions of every pair of terms to phi(s, t)."""
    pairing = s.space.basis_pairing
    for u, c in s.terms.items():
        for v, d in t.terms.items():
            for i in range(3):
                ui, ui1, ui2 = u[i], u[(i + 1) % 3], u[(i + 2) % 3]
                for j in range(3):
                    vj, vj1, vj2 = v[j], v[(j + 1) % 3], v[(j + 2) % 3]
                    qf = (pairing(ui, vj) * pairing(ui1, vj1)
                          - pairing(ui, vj1) * pairing(ui1, vj))
                    if qf:
                        yield (ui2, vj2) if ui2 <= vj2 else (vj2, ui2), c * d * qf


class Transvection:
    """The symplectic transvection x -> x + (x . c) c along a direction c.

    Unipotent, preserves the pairing, and is the homological shadow of a
    twist along a simple closed curve in the class c.
    """

    __slots__ = ("space", "direction")

    def __init__(self, direction: Vector):
        if not isinstance(direction, Vector):
            raise TypeError("direction must be a Vector")
        if direction.is_zero():
            raise ValueError("transvection direction must be nonzero")
        self.space = direction.space
        self.direction = direction

    def __repr__(self):
        return f"Transvection({self.direction!r})"

    def apply_vector(self, v: Vector, inverse: bool = False) -> Vector:
        s = intersection(v, self.direction)
        if not s:
            return v
        if inverse:
            s = -s
        return _vector(self.space, tuple(x + s * d for x, d in
                                         zip(v.coords, self.direction.coords)))

    def _basis_images(self, inverse: bool) -> list[Vector]:
        return [self.apply_vector(self.space.basis_vector(i), inverse)
                for i in range(self.space.dim)]

    def apply(self, x, inverse: bool = False):
        """Functorial action on Vector, Multivector or Sym2Element inputs."""
        if isinstance(x, Vector):
            return self.apply_vector(x, inverse)
        if isinstance(x, Multivector):
            images = [v.to_multivector() for v in self._basis_images(inverse)]
            out: dict = {}
            for indices, c in x.terms.items():
                factor = images[indices[0]]
                for i in indices[1:]:
                    factor = wedge(factor, images[i])
                _add_into(out, ((k, c * v) for k, v in factor.terms.items()))
            return _multivector(x.space, x.degree, out)
        if isinstance(x, Sym2Element):
            vecs = self._basis_images(inverse)
            out = {}
            for (i, j), c in x.terms.items():
                product = sym_product(vecs[i], vecs[j])
                _add_into(out, ((k, c * v) for k, v in product.terms.items()))
            return _sym2(x.space, out)
        raise TypeError(f"cannot apply a transvection to {type(x).__name__}")

    def matrix(self, inverse: bool = False) -> list[list[Fraction]]:
        """Matrix of the action on the space; entry [i][j] is coord i of T(e_j)."""
        cols = self._basis_images(inverse)
        return [[cols[j].coords[i] for j in range(self.space.dim)]
                for i in range(self.space.dim)]

