"""Exact linear algebra on integers; ``Fraction`` only parses input and forms ``rref``.

Vectors are tuples of ints or ``fractions.Fraction``, matrices are
row-major tuples of such tuples.  There is no floating point anywhere,
because the geometric predicates built on top (span equality,
projected-fan equality, cone membership) are exact set equalities.

There is one elimination, :func:`_echelon`: fraction-free Gauss-Jordan on
plain Python ints (rows are scaled to integers first, which changes neither
row space nor kernel).  :func:`matrix_rank`, :func:`span_key` and
:func:`int_kernel_basis` return its integer results,
``cones.simplicial_facets`` reads the facet functionals of one cone off
it, and :func:`dot` of integer vectors is an int.  ``fan.Fan._facets``
runs it only on the first chamber of each wall-adjacency component and on
each maximal cone that is no chamber.  Every other facet table is an exact
integer update of a known one: a wall-crossing pivot from a neighbouring
chamber or a projection from a parent cone (``Fan._cross_walls`` and
``Fan._facets`` prove both).  So all facet tables of a complete fan cost
one elimination.  A projected ray is a facet functional
(``fan.Fan._project_star_map`` proves it), so no projection matrix is
formed.  A ``Fraction`` is built in two places only: ``_exact`` parses
rational input (for :func:`vec`, and for a non-int argument of
:func:`sqrt_combination_sign`), and :func:`rref` divides each echelon row
by its pivot entry.  Spans are compared by their keys and functionals are
taken up to a positive scale, which is all the fan predicates need.
Python ints have arbitrary precision, so no coefficient can overflow.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, InexactNumber, ZeroVector


def vec(entries):
    """Coerce an iterable of numbers into an exact rational vector.

    Entries may be ints, Fractions or rational strings such as ``"1/3"``.
    A float (already rounded) or a bool (not a number) raises
    InexactNumber with the entry as witness.

    >>> vec((1, "1/3"))
    (Fraction(1, 1), Fraction(1, 3))
    """
    return tuple(map(_exact, entries))


# The largest decimal exponent a rational string may carry, as many as the
# digits Python allows in an integer string: ``Fraction("1e1000000000")``
# would build 10**exponent before anything could refuse it.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _exact(x):
    """``Fraction(x)``; a zero denominator or an exponent beyond
    ``_MAX_EXPONENT`` raises ValueError, as a malformed string does."""
    if isinstance(x, (float, bool)):
        raise InexactNumber("floats and booleans are not exact numbers", witness=x)
    exponent = _EXPONENT.search(x) if isinstance(x, str) else None
    if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
        raise ValueError("exponent beyond %d in %r" % (_MAX_EXPONENT, x))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


def dot(a, b):
    """Exact dot product; integer vectors give an int, never a float.

    >>> dot((1, -2, 3), (4, 5, 6))
    12
    >>> from fractions import Fraction
    >>> dot((Fraction(1, 2), 1), (1, 1))
    Fraction(3, 2)
    """
    if len(a) != len(b):
        raise DimensionMismatch("vectors of different length", witness=(len(a), len(b)))
    return sum(map(mul, a, b))


def primitive_ray(v):
    """Unique integer vector with entry-gcd 1 that is a positive multiple of v.

    >>> primitive_ray((2, -4))
    (1, -2)
    >>> from fractions import Fraction
    >>> primitive_ray((Fraction(1, 3), Fraction(1, 6)))
    (2, 1)

    Raises ZeroVector on the zero vector.
    """
    ints = _integer_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector",
                         witness=list(map(str, vec(v))))
    return tuple(x // g for x in ints)


def _integer_row(r):
    """A positive multiple of the row r with integer entries, as a list."""
    if all(type(x) is int for x in r):
        return list(r)
    r = vec(r)
    den = lcm(*(x.denominator for x in r))
    return [x.numerator * (den // x.denominator) for x in r]


def _integer_rows(rows):
    """Each row scaled by a positive factor to integers; a ragged matrix raises.

    Scaling a row by a positive factor changes neither the row space nor
    the kernel, nor the side of an inequality row.
    """
    out = [_integer_row(r) for r in rows]
    for r in out:
        if len(r) != len(out[0]):
            raise DimensionMismatch("ragged matrix", witness=(len(out[0]), len(r)))
    return out


def rref(rows):
    """Reduced row echelon form.  Returns (reduced nonzero rows, pivot columns).

    A row space has exactly one RREF, so it is the :func:`_echelon` rows
    divided by their pivot entries.

    >>> rref([(0, 2, 4), (0, 1, 3)])[1]
    (1, 2)
    >>> rref([(2, 1)])[0] == ((1, Fraction(1, 2)),)
    True
    """
    reduced, pivots = _echelon(_integer_rows(rows))
    return (tuple(tuple(Fraction(x, row[p]) for x in row)
                  for row, p in zip(reduced, pivots)), tuple(pivots))


def _echelon(rows):
    """Fraction-free Gauss-Jordan elimination of a list of integer row lists.

    Returns (nonzero rows, pivot columns), spanning the input's row space;
    ``rows`` is modified in place.  Each row has a positive entry at its
    own pivot column, zeros at the other pivot columns and entry-gcd 1,
    which keeps the entries small.
    """
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pick = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        pivot_row = rows[pick]
        rows[pick] = rows[rank]
        c = gcd(*pivot_row)
        if pivot_row[col] < 0:
            c = -c
        pivot_row = rows[rank] = [x // c for x in pivot_row]
        pv = pivot_row[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != rank:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(row, pivot_row)]
                c = gcd(*row)
                rows[i] = [x // c for x in row] if c > 1 else row
        pivots.append(col)
    return rows[:len(pivots)], pivots


def matrix_rank(rows):
    return len(pivot_columns(rows))


def pivot_columns(rows):
    """The pivot columns of the reduced row echelon form of ``rows``.

    They depend only on the row space: column j is a pivot iff it is
    independent of the columns before it.

    >>> pivot_columns([(0, 2, 4), (0, 1, 3)])
    (1, 2)
    """
    return tuple(_echelon(_integer_rows(rows))[1])


def span_key(vectors):
    """Canonical key of the linear span of ``vectors``: a tuple of int rows.

    The rows of :func:`_echelon` are the reduced row echelon rows, each
    scaled to the primitive integer vector with a positive pivot.  RREF is
    unique for a row space, so two sets span the same space iff their keys
    are equal.

    >>> span_key([(0, 2, 4), (0, 1, 3)])
    ((0, 1, 0), (0, 0, 1))
    >>> span_key([(2, 4)]) == span_key([(-1, -2), (3, 6)])
    True
    """
    return tuple(map(tuple, _echelon(_integer_rows(vectors))[0]))


def int_kernel_basis(rows, ncols):
    """Kernel basis normalized to primitive integer vectors.

    Found by fraction-free elimination: the vector of free column j is the
    primitive one that is positive at j and zero at the other free columns.
    A row whose length is not ``ncols`` raises DimensionMismatch with
    witness [ncols, row length].

    >>> int_kernel_basis([(2, 2, 0)], 3)
    ((-1, 1, 0), (0, 0, 1))
    >>> from fractions import Fraction
    >>> int_kernel_basis([(Fraction(1, 2), Fraction(1, 3))], 2)
    ((-2, 3),)
    """
    rows = _integer_rows(rows)
    if rows and len(rows[0]) != ncols:
        raise DimensionMismatch("row length differs from the column count",
                                witness=[ncols, len(rows[0])])
    reduced, pivots = _echelon(rows)
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = [0] * ncols
        x[j] = scale
        for row, p in zip(reduced, pivots):
            x[p] = -row[j] * (scale // row[p])
        g = gcd(*x)
        basis.append(tuple(v // g for v in x))
    return tuple(basis)


def sqrt_combination_sign(x, p, y, q):
    """Exact sign of x*sqrt(p) + y*sqrt(q) for integers p, q > 0 and rational x, y.

    An int x or y is used as it is; any other is parsed by ``_exact``.
    """
    x = x if type(x) is int else _exact(x)
    y = y if type(y) is int else _exact(y)
    if x >= 0 and y >= 0:
        return 0 if x == 0 and y == 0 else 1
    if x <= 0 and y <= 0:
        return 0 if x == 0 and y == 0 else -1
    lhs = x * x * p
    rhs = y * y * q
    s = 1 if x > 0 else -1
    if lhs > rhs:
        return s
    if lhs < rhs:
        return -s
    return 0
