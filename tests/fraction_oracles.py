"""The former Fraction routines of ``partfan.rational`` and ``partfan.fan``, kept as oracles.

``partfan.rational`` now decides spans and projections on integers, by one
elimination, ``_echelon``.  These are the routines it replaced, copied
unchanged apart from their names for the rank test and the Gram inverse, so
that no test checks the integer core against something derived from it.
They import only the non-eliminating helpers of ``partfan.rational``.
``complement_projection`` (the reference for
``search_oracles.int_complement_projection``), ``span_equal`` (the
reference for ``span_key``), ``identity_matrix``, ``solve``,
``kernel_basis`` and ``gram_schmidt`` (with its vector helpers) have no
library counterpart left, so this is their only copy.  Nor have the matrix
helpers ``mat_vec``, ``mat_mul`` and ``transpose``, which left
``partfan.rational`` once projected rays became facet functionals.

The last routines are the Fraction plane frame that
``partfan.cw._attaching_word`` used before it moved to an integer frame:
``subspace_coordinates`` (an orthogonal basis of span(sigma)^perp by
Gram-Schmidt over the kernel basis above), ``_plane_coordinates`` and the
former ``_attaching_word`` itself.  ``projected_star_as_fan`` writes a
projected star in that frame as a Fan of its own.
"""

from fractions import Fraction
from functools import cmp_to_key

from partfan.cw import _angular_cmp
from partfan.errors import DependentBasis, DimensionMismatch
from partfan.fan import build_fan
from partfan.rational import _exact, dot, primitive_ray, vec


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0]))) if m else ()


def identity_matrix(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def rref(rows):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot columns)."""
    rows = [list(vec(r)) for r in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch("ragged matrix", witness=(ncols, len(r)))
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    reduced = tuple(tuple(r) for r in rows[:rank])
    return reduced, tuple(pivots)


def in_span(v, reduced_rows, pivots):
    """Membership of v in the row space given by an rref basis."""
    v = list(vec(v))
    for row, p in zip(reduced_rows, pivots):
        if v[p] != 0:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def span_equal(a_vectors, b_vectors):
    """Whether two generating sets span the same linear subspace."""
    a_vectors = [vec(v) for v in a_vectors]
    b_vectors = [vec(v) for v in b_vectors]
    lengths = {len(v) for v in a_vectors} | {len(v) for v in b_vectors}
    if len(lengths) > 1:
        raise DimensionMismatch("mixed vector lengths", witness=sorted(lengths))
    ra, pa = rref(a_vectors)
    rb, pb = rref(b_vectors)
    if len(ra) != len(rb):
        return False
    return all(in_span(v, rb, pb) for v in ra) and all(in_span(v, ra, pa) for v in rb)


def solve(a_rows, b):
    """One solution x of A x = b, or None if inconsistent.

    A is given by rows; free variables are set to zero.
    """
    aug = [list(vec(row)) + [_exact(bi)] for row, bi in zip(a_rows, b)]
    reduced, pivots = rref(aug)
    n = len(a_rows[0]) if a_rows else 0
    x = [Fraction(0)] * n
    for row, p in reversed(list(zip(reduced, pivots))):
        if p == n:
            return None
        x[p] = row[n] - sum(row[j] * x[j] for j in range(p + 1, n))
    return tuple(x)


def kernel_basis(rows, ncols):
    """Basis of the right kernel {x : A x = 0} as a tuple of vectors."""
    if not rows:
        return tuple(identity_matrix(ncols))
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        x = [Fraction(0)] * ncols
        x[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[j]
        basis.append(tuple(x))
    return tuple(basis)


def complement_projection(basis, dim=None):
    """Matrix of the orthogonal projection onto span(basis)^perp.

    The result P is idempotent and symmetric with kernel span(basis).
    An empty basis yields the identity (the ambient dimension must then be
    supplied via ``dim``).  Raises DependentBasis if the given vectors are
    linearly dependent.
    """
    basis = [vec(v) for v in basis]
    if not basis:
        if dim is None:
            raise DimensionMismatch("empty basis needs an explicit ambient dimension")
        return identity_matrix(dim)
    n = len(basis[0])
    if len(rref(basis)[0]) != len(basis):
        raise DependentBasis("projection basis is linearly dependent",
                             witness=[[str(x) for x in v] for v in basis])
    # P = I - B^T (B B^T)^{-1} B  with B the matrix whose rows are the basis.
    b = tuple(basis)
    gram = mat_mul(b, transpose(b))
    inv = gram_inverse(gram, len(b))
    coeff = mat_mul(mat_mul(transpose(b), inv), b)
    ident = identity_matrix(n)
    return tuple(tuple(ident[i][j] - coeff[i][j] for j in range(n)) for i in range(n))


def gram_inverse(m, n):
    """Inverse of the n x n matrix m by Gauss-Jordan on [m | I]."""
    aug = [list(m[i]) + list(identity_matrix(n)[i]) for i in range(n)]
    reduced, pivots = rref(aug)
    if list(pivots[:n]) != list(range(n)):
        raise DependentBasis("singular Gram matrix")
    return tuple(tuple(row[n:]) for row in reduced)


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    c = _exact(c)
    return tuple(c * x for x in a)


def is_zero(a):
    return all(x == 0 for x in a)


def gram_schmidt(basis):
    """Orthogonal (not normalized) rational basis with the same span."""
    out = []
    for v in basis:
        w = vec(v)
        for u in out:
            w = vec_sub(w, vec_scale(Fraction(dot(w, u), dot(u, u)), u))
        if not is_zero(w):
            out.append(w)
    return tuple(out)


# ---------------------------------------------------------------------------
# the Fraction plane frame of the CW attaching words

def subspace_coordinates(fan, cone):
    """An orthogonal rational basis of span(cone)^perp, for 2D frames."""
    comp = kernel_basis(fan.ray_vectors(cone), fan.dim)
    return gram_schmidt(comp)


def projected_star_as_fan(fan, cone):
    """Express pi_sigma(star sigma) as a Fan in coordinates of span(sigma)^perp.

    Fan validity and completeness are invariant under the linear
    identification, so the result can be fed to validate_fan and
    is_finite_complete.
    """
    cone = fan.check_cone(cone)
    basis = subspace_coordinates(fan, cone)
    d = len(basis)
    if d == 0:
        return build_fan(0, [], [])
    ps = sorted(fan.project_star(cone))
    ray_list = sorted({r for c in ps for r in c})
    coords = []
    for r in ray_list:
        sol = solve([[basis[j][i] for j in range(d)] for i in range(fan.dim)], r)
        coords.append(primitive_ray(sol))
    index = {r: i for i, r in enumerate(ray_list)}
    maximal = [c for c in ps if not any(set(c) < set(o) for o in ps)]
    max_cones = [tuple(sorted(index[r] for r in c)) for c in maximal if c]
    return build_fan(d, coords, max_cones)


def _attaching_word(fan, partition, edge_of_block, sigma):
    """Cyclic crossing word around a codimension-2 cone.

    The projected star of sigma is a complete fan in the plane
    span(sigma)^perp; its rays (projected walls) are sorted by exact
    angular order in an orthogonal rational frame, and each consecutive
    crossing contributes the oriented 1-cell of the wall's block.
    """
    basis = subspace_coordinates(fan, sigma)
    walls = [c for c in fan.star(sigma) if len(c) == len(sigma) + 1]
    chambers = fan._star_chambers(sigma)
    proj = {w: fan.projected_cone(sigma, w)[0] for w in walls}
    coords = {w: _plane_coordinates(basis, proj[w]) for w in walls}
    ordered = sorted(walls, key=cmp_to_key(lambda a, b: _angular_cmp(coords[a],
                                                                     coords[b])))
    chamber_between = {}
    for c in chambers:
        sig = frozenset(fan.projected_cone(sigma, c))
        chamber_between[sig] = c
    m = len(ordered)
    word = []
    for i in range(m):
        w_prev = ordered[i - 1]
        w_cur = ordered[i]
        before = chamber_between[frozenset((proj[w_prev], proj[w_cur]))]
        w_next = ordered[(i + 1) % m]
        after = chamber_between[frozenset((proj[w_cur], proj[w_next]))]
        edge = edge_of_block[partition.block_of[w_cur]]
        crossing_sig = fan.projected_cone(w_cur, before)
        sign = 1 if crossing_sig == edge.tail_signature else -1
        word.append((edge.index, sign))
    return word


def _plane_coordinates(basis, vector):
    b1, b2 = basis
    return (Fraction(dot(vector, b1), dot(b1, b1)),
            Fraction(dot(vector, b2), dot(b2, b2)))
