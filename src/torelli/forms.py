"""Invariant pairings on exterior powers and the transvection action.

omega3 pairs two 3-forms to a rational, q2 pairs two 2-forms, and phi
pairs two 3-forms into the symmetric square.  All three are defined on
decomposables and extended bilinearly; transvections provide the
equivariance test machinery.

The basis pairing is a signed permutation (a_i <-> b_i, see
SymplecticSpace.dual), so no kernel scans pairs of terms.  omega3 and q2
cost one dict lookup per term of the left form: its key's dual
(exterior._pair_dual_keys, whose degree-one case is intersection).  phi
indexes the right form once by ordered slot pair and then costs
3·|s| lookups, one per cyclic slot pair of each term of the left form.

The transvection T(v) = v + (v . c) c acts in closed form, with no basis
images.  On a k-form, T(x) = x + c ^ i_c(x), where i_c is the derivation
with i_c(v) = v . c; the inverse is x - c ^ i_c(x).  On Sym^2, with
p_i = e_i . c, T(x) = x + c.w + s c^2 for the vector
w = sum a (p_i e_j + p_j e_i) and the scalar s = sum a p_i p_j over the
terms a e_i e_j of x; the inverse is x - c.w + s c^2.  So one apply costs
one contraction pass and one wedge (a scalar multiple of c on a 1-form),
or one pass and two symmetric products.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import (Multivector, Sym2Element, _add_into, _check_vector,
                       _dual_key, _multivector, _pair_dual_keys, _same_space,
                       _sym2, sym_product, wedge)


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
    return _pair_dual_keys(s, t)


def q2(x: Multivector, y: Multivector) -> Fraction:
    """Invariant pairing of two 2-forms: the 2x2 determinant of slot pairings."""
    _check_degree(x, 2, "q2")
    _check_degree(y, 2, "q2")
    _same_space(x, y, Multivector)
    return _pair_dual_keys(x, y)


def omega3_gram_rows(basis: list[Multivector]) -> list[dict[int, Fraction]]:
    """The Gram matrix omega3(x_i, x_j) of a list of 3-forms, as sparse rows {j: entry}.

    The list is indexed once by key, {key: [(j, coefficient)]}; row i then
    costs one lookup per term of x_i, at the dual key of that term.
    """
    for x in basis:
        _check_degree(x, 3, "omega3")
        _same_space(basis[0], x, Multivector)
    index: dict[tuple[int, ...], list] = {}
    for j, y in enumerate(basis):
        for key, d in y.terms.items():
            index.setdefault(key, []).append((j, d))
    rows = []
    for x in basis:
        row: dict[int, Fraction] = {}
        for key, c in x.terms.items():
            sign, dual = _dual_key(x.space, key)
            matches = index.get(dual, ())
            _add_into(row, ((j, c * d if sign > 0 else -c * d) for j, d in matches))
        rows.append(row)
    return rows


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
    """The (key, coefficient) contributions to phi(s, t), by dual slot pairs.

    On basis vectors, q2(u_i ^ u_{i+1}, v_j ^ v_{j+1}) is the sign product
    e_i e_{i+1} of the dual map when (v_j, v_{j+1}) = (u_i*, u_{i+1}*),
    its negative when (v_j, v_{j+1}) is that pair reversed, and 0
    otherwise.  So t is indexed once by ordered slot pair in both
    orientations, the reversed one with its coefficient negated, and
    each slot pair (u_i, u_{i+1}) of s costs one lookup.
    """
    pairs: dict[tuple[int, int], list] = {}
    for (v0, v1, v2), d in t.terms.items():
        minus_d = -d
        for p, q, r in ((v0, v1, v2), (v1, v2, v0), (v2, v0, v1)):
            pairs.setdefault((p, q), []).append((r, d))
            pairs.setdefault((q, p), []).append((r, minus_d))
    duals = s.space._duals
    for u, c in s.terms.items():
        for p, q, w in ((u[0], u[1], u[2]), (u[1], u[2], u[0]), (u[2], u[0], u[1])):
            dp, ep = duals[p]
            dq, eq = duals[q]
            matches = pairs.get((dp, dq))
            if matches is None:
                continue
            signed_c = c if ep == eq else -c
            for x, d in matches:
                yield (w, x) if w <= x else (x, w), signed_c * d


class Transvection:
    """The symplectic transvection T(v) = v + (v . c) c along a direction c.

    Unipotent, preserves the pairing, and is the homological shadow of a
    twist along a simple closed curve in the class c.  The inverse is
    v -> v - (v . c) c.  Write p_i = e_i . c.

    - On a k-form, T(x) = x + c ^ i_c(x), where i_c is the derivation
      with i_c(v) = v . c, so that on a basis term it drops slot n and
      multiplies by (-1)^n p_i, i the index in that slot.  Expanding
      T(v_0) ^ ... ^ T(v_{k-1}), every term with c twice vanishes.  The
      inverse is x - c ^ i_c(x).  On a 1-form i_c(x) is the scalar
      x . c, so T(x) = x + (x . c) c.
    - On Sym^2, T(x) = x + c.w + s c^2, where x = sum a e_i e_j gives
      w = sum a (p_i e_j + p_j e_i) and s = sum a p_i p_j.  The inverse
      flips the sign of the middle term only.

    Both inverses are the forward formulas with every p_i negated.
    """

    __slots__ = ("space", "direction")

    def __init__(self, direction: Multivector):
        _check_vector(direction, "direction")
        if direction.is_zero():
            raise ValueError("transvection direction must be nonzero")
        self.space = direction.space
        self.direction = direction

    def __repr__(self):
        return f"Transvection({self.direction!r})"

    def apply(self, x, inverse: bool = False):
        """Functorial action on Multivector or Sym2Element inputs."""
        if not isinstance(x, (Multivector, Sym2Element)):
            raise TypeError(f"cannot apply a transvection to {type(x).__name__}")
        c, sign = self.direction, -1 if inverse else 1
        _same_space(x, c, Multivector)
        # p_i = e_i . c is nonzero only at i = dual(j) for a term c_j e_j of c,
        # where it is -(e_j . e_i) c_j; the inverse negates it
        p = {}
        for (j,), cj in c.terms.items():
            i, e = self.space._duals[j]
            p[i] = cj if e * sign < 0 else -cj
        if isinstance(x, Multivector):
            contracted: dict = {}
            for key, a in x.terms.items():
                _add_into(contracted, ((key[:n] + key[n + 1:], -a * p[i] if n % 2 else a * p[i])
                                       for n, i in enumerate(key) if i in p))
            if x.degree == 1:  # i_c(x) is the scalar x . c, absent when it is 0
                return x + contracted[()] * c if contracted else x
            return x + wedge(c, _multivector(self.space, x.degree - 1, contracted))
        w: dict = {}
        s = Fraction(0)
        for (i, j), a in x.terms.items():
            pi, pj = p.get(i, 0), p.get(j, 0)
            _add_into(w, (((i,), a * pj), ((j,), a * pi)))
            s += a * pi * pj
        return x + sym_product(c, _multivector(self.space, 1, w)) + s * sym_product(c, c)

    def matrix(self, inverse: bool = False) -> list[list[Fraction]]:
        """Matrix of the action on the space; entry [i][j] is coord i of T(e_j).

        No caller in the package; kept as a benchmark tracing target.
        """
        cols = [self.apply(self.space.basis_vector(j), inverse).terms
                for j in range(self.space.dim)]
        return [[col.get((i,), Fraction(0)) for col in cols] for i in range(self.space.dim)]
