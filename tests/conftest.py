"""Shared reference implementations for the test suite.

These oracles deliberately recompute things by a different route than
the library (dense antisymmetric arrays, permutation sums, coordinate
determinants) so agreement actually means something.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from torelli import Multivector, Sym2Element, SymplecticSpace, Vector


def dense_pairing_matrix(space: SymplecticSpace) -> list[list[Fraction]]:
    g = space.genus
    j = [[Fraction(0)] * space.dim for _ in range(space.dim)]
    for i in range(g):
        j[i][g + i] = Fraction(1)
        j[g + i][i] = Fraction(-1)
    return j


def perm_sign(perm) -> int:
    inversions = sum(1 for x, y in itertools.combinations(perm, 2) if x > y)
    return (-1) ** inversions


def dense_three_form(x: Multivector) -> dict[tuple[int, int, int], Fraction]:
    """Fully antisymmetric array of a 3-form, every slot order populated."""
    dense: dict[tuple[int, int, int], Fraction] = {}
    for key, c in x.terms.items():
        for perm in itertools.permutations(key):
            dense[perm] = perm_sign(perm) * c
    return dense


def oracle_contraction3(x: Multivector) -> Vector:
    """Contraction via the dense array: c_r = (1/2) sum_pq J[p][q] A[p,q,r]."""
    j = dense_pairing_matrix(x.space)
    dense = dense_three_form(x)
    coords = [Fraction(0)] * x.space.dim
    for (p, q, r), a in dense.items():
        if j[p][q]:
            coords[r] += Fraction(1, 2) * j[p][q] * a
    return Vector(x.space, coords)


def oracle_vector_wedge(*vectors: Vector) -> Multivector:
    """Wedge of k vectors via coordinate determinants, k in {2, 3}."""
    space = vectors[0].space
    k = len(vectors)
    terms = {}
    for key in itertools.combinations(range(space.dim), k):
        mat = [[v.coords[i] for i in key] for v in vectors]
        if k == 2:
            det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        else:
            det = (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                   - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                   + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))
        if det:
            terms[key] = det
    return Multivector(space, k, terms)


def oracle_transvection(c: Vector, x, inverse: bool = False):
    """The image of a form or Sym^2 element under v -> v + (v . c) c, term by term.

    Each basis vector goes to e_i + (e_i . c) c, or e_i - (e_i . c) c for
    the inverse, with the pairing read off the dense matrix.  A k-form
    term is rebuilt from the images of its factors by coordinate
    determinants, a Sym^2 term by the coordinate product.
    """
    space = c.space
    j = dense_pairing_matrix(space)
    sign = -1 if inverse else 1
    images = []
    for i in range(space.dim):
        p = sign * sum((j[i][q] * c.coords[q] for q in range(space.dim)), Fraction(0))
        images.append([Fraction(int(r == i)) + p * cr for r, cr in enumerate(c.coords)])
    terms: dict = {}
    for key, a in x.terms.items():
        if isinstance(x, Sym2Element):
            u, v = images[key[0]], images[key[1]]
            image = {}
            for p, up in enumerate(u):
                for q, vq in enumerate(v):
                    pq = (p, q) if p <= q else (q, p)
                    image[pq] = image.get(pq, Fraction(0)) + up * vq
        elif x.degree == 1:
            image = {(r,): cr for r, cr in enumerate(images[key[0]])}
        else:
            image = oracle_vector_wedge(*(Vector(space, images[i]) for i in key)).terms
        for k, b in image.items():
            terms[k] = terms.get(k, Fraction(0)) + a * b
    if isinstance(x, Sym2Element):
        return Sym2Element(space, terms)
    return Multivector(space, x.degree, terms)


def oracle_transvection_matrix(c: Vector, inverse: bool = False) -> list[list[Fraction]]:
    """Dense matrix of v -> v + (v . c) c (or v - (v . c) c), column j the image of e_j.

    Entry [r][j] is delta_rj + p_j c_r with p_j = +-(e_j . c), the pairing
    read off the dense matrix.
    """
    space = c.space
    j = dense_pairing_matrix(space)
    sign = -1 if inverse else 1
    p = [sign * sum((j[i][q] * c.coords[q] for q in range(space.dim)), Fraction(0))
         for i in range(space.dim)]
    return [[Fraction(int(r == i)) + p[i] * cr for i in range(space.dim)]
            for r, cr in enumerate(c.coords)]


def dense_product(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Product of two square dense matrices of the same size."""
    n = len(a)
    return [[sum((a[r][k] * b[k][col] for k in range(n)), Fraction(0)) for col in range(n)]
            for r in range(n)]


def dense_identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(r == col)) for col in range(n)] for r in range(n)]


def oracle_omega3(s: Multivector, t: Multivector) -> Fraction:
    """Permutation-sum form of the 3-form pairing."""
    j = dense_pairing_matrix(s.space)
    total = Fraction(0)
    for u, c in s.terms.items():
        for v, d in t.terms.items():
            for tau in itertools.permutations(range(3)):
                prod = perm_sign(tau) * c * d
                for i in range(3):
                    prod *= j[u[i]][v[tau[i]]]
                total += prod
    return total


def oracle_q2_vectors(x1: Vector, x2: Vector, y1: Vector, y2: Vector) -> Fraction:
    def pair(u, v):
        j = dense_pairing_matrix(u.space)
        return sum((u.coords[p] * v.coords[q] * j[p][q]
                    for p in range(u.space.dim) for q in range(u.space.dim)),
                   Fraction(0))
    return pair(x1, y1) * pair(x2, y2) - pair(x1, y2) * pair(x2, y1)


def oracle_phi_decomposables(us: tuple[Vector, Vector, Vector],
                             vs: tuple[Vector, Vector, Vector]):
    """The literal double cyclic sum on two decomposables.

    Returns a dict over sorted index pairs, comparable with
    Sym2Element.terms after the same normalization.
    """
    space = us[0].space
    terms: dict[tuple[int, int], Fraction] = {}
    for i in range(3):
        for j in range(3):
            qf = oracle_q2_vectors(us[i], us[(i + 1) % 3],
                                   vs[j], vs[(j + 1) % 3])
            if not qf:
                continue
            left, right = us[(i + 2) % 3], vs[(j + 2) % 3]
            for p, xp in enumerate(left.coords):
                if not xp:
                    continue
                for q, yq in enumerate(right.coords):
                    if not yq:
                        continue
                    key = (p, q) if p <= q else (q, p)
                    val = terms.get(key, Fraction(0)) + qf * xp * yq
                    if val:
                        terms[key] = val
                    else:
                        terms.pop(key, None)
    return terms


def oracle_independent_rows(rows: list[list[Fraction]]) -> list[int]:
    """Greedy in-order independent rows of a dense matrix, by a separate route.

    Keeps a list of (pivot column, row) pairs.  Each kept row was reduced
    against every earlier pair on its pivot column, so it is zero on all
    earlier pivot columns; reducing a candidate against the pairs in
    insertion order therefore clears every pivot column.  A candidate
    that is left nonzero is independent and pivots on its largest
    nonzero column (the library pivots on the smallest).
    """
    basis: list[tuple[int, list[Fraction]]] = []
    kept = []
    for i, row in enumerate(rows):
        r = [Fraction(v) for v in row]
        for col, b in basis:
            if r[col]:
                f = r[col] / b[col]
                r = [x - f * y for x, y in zip(r, b)]
        nonzero = [j for j, x in enumerate(r) if x]
        if nonzero:
            basis.append((nonzero[-1], r))
            kept.append(i)
    return kept
