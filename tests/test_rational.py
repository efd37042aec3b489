from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracles as oracle
from partfan import rational
from partfan.errors import (
    DependentBasis,
    DimensionMismatch,
    InexactNumber,
    PartFanError,
    ZeroVector,
)
from partfan.rational import (
    complement_projection,
    dot,
    identity_matrix,
    int_complement_projection,
    int_kernel_basis,
    mat_mul,
    mat_vec,
    matrix_rank,
    pivot_columns,
    primitive_ray,
    rref,
    span_equal,
    span_key,
    sqrt_combination_sign,
    transpose,
    vec,
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def clear_denominators_oracle(v):
    """Independent normalization: clear denominators, divide by the gcd."""
    denom = 1
    for x in v:
        denom = denom * Fraction(x).denominator // gcd(denom, Fraction(x).denominator)
    ints = [int(Fraction(x) * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def test_primitive_ray_examples():
    assert primitive_ray((2, -4)) == (1, -2)
    expected = clear_denominators_oracle((Fraction(1, 3), Fraction(1, 6)))
    assert expected == (2, 1)
    assert primitive_ray((Fraction(1, 3), Fraction(1, 6))) == expected
    assert primitive_ray((0, 0, 5)) == (0, 0, 1)


def test_primitive_ray_zero_vector():
    with pytest.raises(ZeroVector):
        primitive_ray((0, 0))


@given(st.lists(small_fractions, min_size=1, max_size=4),
       st.fractions(min_value=Fraction(1, 5), max_value=7, max_denominator=5))
def test_primitive_ray_scale_invariant(entries, scale):
    if all(x == 0 for x in entries):
        return
    v = tuple(entries)
    scaled = tuple(scale * x for x in v)
    assert primitive_ray(v) == primitive_ray(scaled)
    assert primitive_ray(primitive_ray(v)) == primitive_ray(v)


def test_vec_keeps_exact_entries_and_rejects_floats_and_booleans():
    assert vec((2, Fraction(1, 3), "-1/3")) == (2, Fraction(1, 3), Fraction(-1, 3))
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(InexactNumber) as err:
            vec((1, bad))
        assert err.value.witness is bad
        with pytest.raises(InexactNumber):
            primitive_ray((bad, 1))
        with pytest.raises(InexactNumber):
            sqrt_combination_sign(bad, 2, -1, 1)


def test_complement_projection_axis():
    p = complement_projection([(0, 1)])
    assert p == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    assert mat_vec(p, (-1, 1)) == (Fraction(-1), Fraction(0))


def test_complement_projection_empty_is_identity():
    assert complement_projection([], dim=3) == identity_matrix(3)


def test_complement_projection_dependent():
    with pytest.raises(DependentBasis):
        complement_projection([(1, 0), (2, 0)])


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=2))
def test_complement_projection_properties(rows):
    from partfan.rational import matrix_rank

    rows = [tuple(r) for r in rows if any(r)]
    if not rows or matrix_rank(rows) != len(rows):
        return
    p = complement_projection(rows)
    assert mat_mul(p, p) == p
    assert transpose(p) == p
    for b in rows:
        assert mat_vec(p, b) == (Fraction(0),) * 3


@st.composite
def bases(draw):
    """Integer and Fraction bases of up to ``dim`` vectors in dimensions 2-5."""
    dim = draw(st.integers(2, 5))
    entry = st.one_of(st.integers(-4, 4), small_fractions)
    row = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    return draw(st.lists(row, min_size=1, max_size=dim)), dim


@given(bases())
def test_int_complement_projection_is_positive_multiple(basis):
    """The former Gram-inverse projection is the oracle of the integer one."""
    rows, dim = basis
    if len(oracle.rref(rows)[0]) != len(rows):
        for fn in (complement_projection, lambda b: int_complement_projection(b, dim)):
            with pytest.raises(DependentBasis):
                fn(rows)
        return
    exact = oracle.complement_projection(rows)
    scaled = int_complement_projection(rows, dim)
    assert all(type(x) is int for row in scaled for x in row)
    nonzero = [(s, e) for srow, erow in zip(scaled, exact)
               for s, e in zip(srow, erow) if e]
    if not nonzero:                     # a full-rank basis projects to zero
        assert all(x == 0 for row in scaled for x in row)
        return
    factor = Fraction(nonzero[0][0]) / nonzero[0][1]
    assert factor > 0
    assert scaled == tuple(tuple(factor * x for x in row) for row in exact)


def test_int_complement_projection_empty_is_identity():
    assert int_complement_projection([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_span_equal_examples():
    assert span_equal([(0, 1)], [(0, -1)])
    assert not span_equal([(1, 0)], [(0, 1)])
    assert span_equal([(1, 0), (0, 1)], [(1, 1), (1, -1)])


def test_span_equal_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        span_equal([(1, 0)], [(1, 0, 0)])


vector3 = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple)
genset = st.lists(vector3, min_size=1, max_size=3)


@given(genset, genset, genset)
def test_span_equal_is_equivalence(a, b, c):
    assert span_equal(a, a)
    assert span_equal(a, b) == span_equal(b, a)
    if span_equal(a, b) and span_equal(b, c):
        assert span_equal(a, c)


@given(genset, genset)
def test_span_key_decides_span_equality(a, b):
    assert (span_key(a) == span_key(b)) == oracle.span_equal(a, b)
    assert span_key(a) == span_key([tuple(-2 * x for x in v) for v in reversed(a)])


def test_doctests():
    import doctest

    from partfan import rational

    failures, _ = doctest.testmod(rational)
    assert failures == 0


@pytest.mark.parametrize("x,p,y,q,expected", [
    (1, 2, 1, 3, 1),
    (-1, 2, -1, 3, -1),
    (0, 2, 0, 3, 0),
    (2, 2, -1, 8, 0),       # 2*sqrt2 = sqrt8
    (1, 2, -1, 3, -1),      # sqrt2 < sqrt3
    (3, 2, -2, 3, 1),       # 3*sqrt2 > 2*sqrt3 since 18 > 12
])
def test_sqrt_combination_sign(x, p, y, q, expected):
    assert sqrt_combination_sign(x, p, y, q) == expected


def int_kernel_basis_oracle(rows, ncols):
    """The Fraction path: rref kernel vectors, then primitive normalization."""
    return tuple(primitive_ray(v) for v in oracle.kernel_basis(rows, ncols))


@st.composite
def matrices(draw):
    """Integer and Fraction matrices with up to 4 columns, zero rows included."""
    ncols = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-4, 4), small_fractions)
    row = st.lists(entry, min_size=ncols, max_size=ncols).map(tuple)
    return draw(st.lists(row, max_size=4)), ncols


@given(matrices())
def test_fraction_free_elimination_matches_rref(matrix):
    rows, ncols = matrix
    assert int_kernel_basis(rows, ncols) == int_kernel_basis_oracle(rows, ncols)
    reduced, pivots = oracle.rref(rows)
    assert matrix_rank(rows) == len(reduced)
    assert pivot_columns(rows) == pivots


@st.composite
def flawed_matrices(draw):
    """(rows, other): int and Fraction rows with zero and dependent rows.

    Some draws carry one ragged row or one float or bool entry.  ``other``
    is a second generating set of the same width.
    """
    ncols = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(-4, 4), small_fractions)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=4))
    if len(rows) >= 2 and draw(st.booleans()):
        a, c = draw(small_fractions), draw(small_fractions)
        rows.insert(draw(st.integers(0, len(rows))),
                    [a * x + c * y for x, y in zip(rows[0], rows[1])])
    flaw = draw(st.sampled_from(["none"] * 4 + ["ragged", "inexact"]))
    if rows and flaw == "ragged":
        bad = draw(st.sampled_from(rows))
        if len(bad) == 1 or draw(st.booleans()):
            bad.append(1)
        else:
            bad.pop()
    if rows and flaw == "inexact":
        bad = draw(st.sampled_from(rows))
        bad[draw(st.integers(0, len(bad) - 1))] = draw(
            st.sampled_from([0.5, 1.0, True, False]))
    rows = [tuple(r) for r in rows]
    other = [tuple(r) for r in draw(st.lists(row, max_size=3))]
    return rows, other


def _typed_outcome(fn, *args):
    """The value with the type of every entry, or the error code and witness."""
    def typed(x):
        return tuple(map(typed, x)) if isinstance(x, tuple) else (type(x), x)

    try:
        return typed(fn(*args))
    except PartFanError as err:
        return err.code, repr(err.witness)


@settings(max_examples=400, deadline=None)
@given(flawed_matrices())
def test_fraction_routines_match_the_former_gauss_jordan(matrix):
    rows, other = matrix
    ncols = len(rows[0]) if rows else 2
    for name, args in (("rref", (rows,)),
                       ("complement_projection", (rows,)),
                       ("complement_projection", (rows, ncols)),
                       ("span_equal", (rows, rows[1:])),
                       ("span_equal", (rows, other))):
        assert (_typed_outcome(getattr(rational, name), *args)
                == _typed_outcome(getattr(oracle, name), *args)), name


def test_ragged_matrix_raises_dimension_mismatch():
    ragged = [(1, 0, 0), (0, 1)]
    for fn in (rref, matrix_rank, pivot_columns):
        with pytest.raises(DimensionMismatch):
            fn(ragged)
    with pytest.raises(DimensionMismatch):
        int_kernel_basis(ragged, 3)
    with pytest.raises(DimensionMismatch):
        dot((1, 2), (1, 2, 3))


def test_kernel_of_a_wider_row_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch) as err:
        int_kernel_basis([(1, 2, 3)], 2)
    assert err.value.witness == [2, 3]


def test_kernel_of_a_narrower_row_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch) as err:
        int_kernel_basis([(1, 2)], 3)
    assert err.value.witness == [3, 2]


def test_exact_results_on_integer_input():
    from partfan.catalog import hirzebruch
    from partfan.fan import build_fan

    def exact(values):
        return all(type(x) in (int, Fraction) for x in values)

    assert type(dot((1, 2), (3, 4))) is int
    assert all(exact(v) for v in oracle.gram_schmidt([(1, 1, 0), (1, 0, 1), (0, 1, 1)]))
    assert exact(oracle.solve([(1, 2), (3, 4)], (1, 1)))
    octant = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    for fan in (hirzebruch(1), octant):
        for cone in fan.cones:
            assert all(exact(v) for v in oracle.subspace_coordinates(fan, cone))
    coords = oracle._plane_coordinates(((1, 0, 0), (0, 2, 0)), (1, 1, 5))
    assert coords == (1, Fraction(1, 2)) and exact(coords)
