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
    """
    subspace = int_kernel_basis(equalities, dim)
    d = len(subspace)
    if d == 0:
        return (), ()
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
    one-dimensional kernel.
    """
    if p == 1:
        rays = []
        for cand in ((1,), (-1,)):
            if all(dot(row, cand) >= 0 for row in rows):
                rays.append(cand)
        return rays
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


def simplicial_halfspaces(ray_vectors, dim):
    """H-representation of a simplicial cone from its independent generators.

    The equalities are a primitive basis of span(G)^perp.  Inequality i is
    the primitive normal of the hyperplane through the other generators
    and span(G)^perp, oriented so that generator i is positive: a positive
    multiple of the dual-basis functional, row i of (G G^T)^{-1} G, whose
    nonnegativity says that barycentric coordinate i is nonnegative.
    Raises DependentBasis when the generators are linearly dependent.
    """
    rays = list(ray_vectors)
    eqs = int_kernel_basis(rays, dim)
    if len(eqs) + len(rays) != dim:
        raise DependentBasis("generators of a simplicial cone are dependent",
                             witness=[[str(x) for x in r] for r in rays])
    ineqs = []
    for i, ray in enumerate(rays):
        (normal,) = int_kernel_basis(rays[:i] + rays[i + 1:] + list(eqs), dim)
        ineqs.append(normal if dot(normal, ray) > 0 else tuple(-x for x in normal))
    return eqs, tuple(ineqs)


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


def relative_interior_point(equalities, inequalities, dim):
    """A relative-interior point of {E x = 0, A x >= 0}, or None if it is {0}.

    The sum of all extreme rays lies in the relative interior of the
    pointed part; the lineality contributes nothing and is ignored.
    When the cone is a pure subspace the origin (its relative interior
    under no strict constraints) is returned as the zero vector.
    """
    lin, rays = extreme_rays(equalities, inequalities, dim)
    if not rays:
        return tuple(0 for _ in range(dim)) if lin else None
    total = [0] * dim
    for r in rays:
        total = [a + b for a, b in zip(total, r)]
    return tuple(total)


def strict_sign_feasible(normals, signs, dim):
    """Whether a point exists with <n_i, x> of exactly the given sign per normal.

    ``signs`` entries are -1, 0, +1; zero means the point lies on the
    hyperplane, nonzero means strictly on that side.  Returns a witness
    point or None.  This is the exact feasibility test behind sign-vector
    enumeration of hyperplane arrangements.
    """
    eqs = [normals[i] for i, s in enumerate(signs) if s == 0]
    ineqs = [vec_scale_int(normals[i], s) for i, s in enumerate(signs) if s != 0]
    point = relative_interior_point(eqs, ineqs, dim)
    if point is None:
        point = tuple(0 for _ in range(dim))
    for i, s in enumerate(signs):
        val = dot(normals[i], point)
        if s == 0 and val != 0:
            return None
        if s != 0 and s * val <= 0:
            return None
    return point


def vec_scale_int(v, s):
    return tuple(s * x for x in v)
