"""Exact polyhedral cones on integer rows.

A cone is handled either by generators (V-representation) or by a system
``{x : E x = 0, A x >= 0}`` (H-representation).  Conversion in both
directions goes through extreme-ray extraction in the double-description
spirit: the lineality space is split off first, then extreme rays of the
pointed quotient are enumerated from candidate zero-sets of the inequality
rows.  At the ambient dimensions this library targets (fans live in small
n) the candidate enumeration is cheap and, unlike any floating-point code
path, provably exact.

Inputs may have ``Fraction`` entries; each row is scaled by a positive
factor to integers on the way in, which changes no cone.  Everything
inside runs on plain ints, and every result is a primitive integer
vector.
"""

from itertools import combinations

from .errors import DependentBasis
from .rational import (
    _echelon,
    _integer_rows,
    dot,
    int_kernel_basis,
    matrix_rank,
    pivot_columns,
    primitive_ray,
)


def extreme_rays(equalities, inequalities, dim):
    """Extreme rays and lineality of {x in R^dim : E x = 0, A x >= 0}.

    Returns (lineality_basis, rays), both as sorted tuples of primitive
    integer vectors.  The rays are the extreme rays of the pointed part;
    together with +/- the lineality basis they generate the cone.

    A cone {0} (no subspace, d = 0) needs no case of its own: its empty
    lineality complement gives p = 0 and ((), ()).
    """
    subspace = int_kernel_basis(equalities, dim)
    d = len(subspace)
    # inequality system pulled back to subspace coordinates y, scaled to
    # primitive integer rows
    pulled = (tuple(dot(a, q) for q in subspace) for a in inequalities)
    b_rows = [primitive_ray(r) for r in pulled if any(r)]
    lin_y = int_kernel_basis(b_rows, d)
    lineality = tuple(sorted(primitive_ray(_combine(subspace, y)) for y in lin_y))
    # complement W of the lineality inside the subspace coordinates
    pivot_cols = set(pivot_columns(lin_y))
    free_cols = [j for j in range(d) if j not in pivot_cols]
    p = len(free_cols)
    if p == 0:
        return lineality, ()
    b2 = [tuple(row[j] for j in free_cols) for row in b_rows]
    rays = set()
    for z in _pointed_extreme_rays(b2, p):
        y = [0] * d
        for j, zj in zip(free_cols, z):
            y[j] = zj
        rays.add(primitive_ray(_combine(subspace, y)))
    return lineality, tuple(sorted(rays))


def _combine(basis, coeffs):
    out = [0] * len(basis[0])
    for c, b in zip(coeffs, basis):
        if c:
            out = [o + c * x for o, x in zip(out, b)]
    return tuple(out)


def _pointed_extreme_rays(rows, p):
    """Extreme rays of a pointed cone {z in R^p : B z >= 0}, B an integer matrix.

    A ray r is extreme iff B r >= 0 and the rows vanishing on r have rank
    p - 1, so candidates come from (p-1)-subsets of rows with a
    one-dimensional kernel.  For p = 1 the one subset is empty, with
    kernel basis ((1,),), so the candidates are +1 and -1.
    """
    found = set()
    for subset in combinations(rows, p - 1):
        ker = int_kernel_basis(subset, p)
        if len(ker) != 1:
            continue
        z = ker[0]
        for cand in (z, tuple(-x for x in z)):
            if all(dot(row, cand) >= 0 for row in rows):
                found.add(cand)
    return sorted(found)


def halfspaces(generators, dim):
    """H-representation (equalities, inequalities) of cone(generators).

    Uses cone duality: the facet normals of C are the extreme rays of the
    dual cone {y : <g, y> >= 0 for all generators g}, and the equalities
    are a basis of the dual's lineality, i.e. of span(C)^perp.
    """
    generators = list(generators)
    if not generators:
        return int_kernel_basis((), dim), ()
    return extreme_rays((), generators, dim)


def simplicial_facets(ray_vectors):
    """The facet functionals of a simplicial cone, one per generator, in order.

    Functional i is the primitive normal of the hyperplane through the
    other generators and span(G)^perp, oriented so that generator i is
    positive: a positive multiple of the dual-basis functional, row i of
    (G G^T)^{-1} G, which is 1 on generator i and 0 on the others.  This is
    the one elimination that derives facet functionals:
    ``simplicial_halfspaces`` reads its own off it, and ``Fan._facets`` its
    base cases, from which it derives every other cone's by integer updates.

    All of them come from one fraction-free elimination of [G G^T | G],
    with G the generators scaled to integers (a positive scale of a
    generator scales its dual functional by a positive factor).  The
    generators are independent iff G G^T is invertible, iff the pivots of
    the elimination are the k columns of G G^T; otherwise DependentBasis is
    raised.  Then the elimination ends in rows [c_i e_i | c_i ((G G^T)^{-1}
    G)_i] with c_i > 0 and entry-gcd 1.  The right-hand part of row i is
    functional i: its value on generator i is c_i > 0, and it is primitive,
    since a common divisor of its entries divides that value (generator i
    is an integer vector) and so the whole row.
    """
    rays = list(ray_vectors)
    gens = _integer_rows(rays)
    k = len(gens)
    reduced, pivots = _echelon([[dot(u, v) for v in gens] + u for u in gens])
    if pivots != list(range(k)):
        raise DependentBasis("generators of a simplicial cone are dependent",
                             witness=[[str(x) for x in r] for r in rays])
    return tuple(tuple(row[k:]) for row in reduced)


def simplicial_halfspaces(ray_vectors, dim):
    """H-representation of a simplicial cone from its independent generators.

    The equalities are a primitive basis of span(G)^perp, and inequality i
    is ``simplicial_facets`` functional i, whose nonnegativity says that
    barycentric coordinate i is nonnegative.  Raises DependentBasis when
    the generators are linearly dependent.
    """
    rays = list(ray_vectors)
    return int_kernel_basis(rays, dim), simplicial_facets(rays)


def intersect_generated_cones(rays_a, rays_b, dim):
    """(lineality, extreme rays) of cone(rays_a) & cone(rays_b).

    Both inputs must generate simplicial cones.
    """
    eqs_a, ineqs_a = simplicial_halfspaces(rays_a, dim)
    eqs_b, ineqs_b = simplicial_halfspaces(rays_b, dim)
    return extreme_rays(eqs_a + eqs_b, ineqs_a + ineqs_b, dim)


def fulldim_in_halfspaces(simplicial_rays, halfspace_rep, dim):
    """Whether a simplicial cone meets {E x = 0, A x >= 0} in full dimension.

    ``halfspace_rep`` is the pair (E, A), for instance the ``halfspaces``
    of a generated cone.
    """
    eqs_a, ineqs_a = simplicial_halfspaces(simplicial_rays, dim)
    eqs_b, ineqs_b = halfspace_rep
    lin, rays = extreme_rays(tuple(eqs_a) + tuple(eqs_b),
                             tuple(ineqs_a) + tuple(ineqs_b), dim)
    spanning = list(lin) + list(rays)
    return bool(spanning) and matrix_rank(spanning) == dim


def strict_sign_feasible(normals, signs, dim):
    """Whether a point exists with <n_i, x> of exactly the given sign per normal.

    ``signs`` entries are -1, 0, +1; zero means the point lies on the
    hyperplane, nonzero means strictly on that side.  Returns a witness
    point or None.  This is the exact feasibility test behind sign-vector
    enumeration of hyperplane arrangements.

    The witness is the sum of the extreme rays of {x : <n_i, x> = 0 where
    the sign is 0, s_i <n_i, x> >= 0 elsewhere}, which lies in the relative
    interior of its pointed part, or the origin when there is no ray.
    """
    eqs = [n for n, s in zip(normals, signs) if s == 0]
    ineqs = [tuple(s * x for x in n) for n, s in zip(normals, signs) if s]
    _, rays = extreme_rays(eqs, ineqs, dim)
    point = tuple(map(sum, zip(*rays))) if rays else (0,) * dim
    values = (dot(n, point) for n in normals)
    return point if all((v > 0) - (v < 0) == s for v, s in zip(values, signs)) else None
