"""The former Fraction Gauss-Jordan routines of ``partfan.rational``, kept as oracles.

``partfan.rational`` now derives every Fraction result from one integer
elimination, ``_echelon``.  These are the routines it replaced, copied
unchanged apart from their names for the rank test and the Gram inverse, so
that no test checks the integer core against something derived from it.
They import only the non-eliminating helpers of ``partfan.rational``.
"""

from fractions import Fraction

from partfan.errors import DependentBasis, DimensionMismatch
from partfan.rational import _exact, identity_matrix, mat_mul, transpose, vec


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
