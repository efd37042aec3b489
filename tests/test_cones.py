import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracles as oracle
import search_oracles
from fraction_oracles import identity_matrix, mat_mul, transpose
from partfan import cones as conelib
from partfan.cones import (
    extreme_rays,
    fulldim_in_halfspaces,
    halfspaces,
    intersect_generated_cones,
    simplicial_halfspaces,
    strict_sign_feasible,
)
from partfan.errors import DependentBasis, DimensionMismatch, PartFanError
from partfan.fan import ValidationReport, build_fan, validate_fan
from partfan.rational import dot, primitive_ray, vec


def test_extreme_rays_quadrant():
    lin, rays = extreme_rays([], [(1, 0), (0, 1)], 2)
    assert lin == ()
    assert set(rays) == {(1, 0), (0, 1)}


def test_extreme_rays_halfplane_has_lineality():
    lin, rays = extreme_rays([], [(1, 0)], 2)
    assert set(lin) == {(0, 1)} or set(lin) == {(0, -1)}
    assert set(rays) == {(1, 0)}


def test_extreme_rays_with_equalities():
    lin, rays = extreme_rays([(0, 0, 1)], [(1, 0, 0), (0, 1, 0)], 3)
    assert lin == ()
    assert set(rays) == {(1, 0, 0), (0, 1, 0)}


def test_halfspaces_roundtrip():
    generators = [(2, 1, 0), (1, 2, 0), (0, 0, 1)]
    eqs, ineqs = halfspaces(generators, 3)
    assert eqs == ()
    lin, rays = extreme_rays(eqs, ineqs, 3)
    assert lin == ()
    assert set(rays) == {(2, 1, 0), (1, 2, 0), (0, 0, 1)}


def test_simplicial_halfspaces_lower_dimensional():
    eqs, ineqs = simplicial_halfspaces([(1, 0, 0)], 3)
    lin, rays = extreme_rays(eqs, ineqs, 3)
    assert lin == ()
    assert rays == ((1, 0, 0),)


def test_intersection_of_overlapping_cones():
    # cone{(1,0),(0,1)} & cone{(1,0),(1,1)} = cone{(1,0),(1,1)}
    lin, rays = intersect_generated_cones([(1, 0), (0, 1)], [(1, 0), (1, 1)], 2)
    assert lin == ()
    assert set(rays) == {(1, 0), (1, 1)}


def test_intersection_at_shared_face():
    lin, rays = intersect_generated_cones([(1, 0), (0, 1)], [(1, 0), (0, -1)], 2)
    assert lin == ()
    assert set(rays) == {(1, 0)}


def test_fulldim_in_halfspaces():
    def fulldim(simplicial_rays, generators):
        return fulldim_in_halfspaces(simplicial_rays, halfspaces(generators, 2), 2)

    assert fulldim([(1, 0), (0, 1)], [(1, 1), (1, -1)])
    assert not fulldim([(1, 0), (0, 1)], [(-1, 1), (-1, -1)])
    # touching along a ray only is not full-dimensional
    assert not fulldim([(1, 0), (0, 1)], [(0, 1), (-1, 0)])
    assert not fulldim([(1, 0), (0, 1)], [(0, 1), (-1, 1)])


def test_extreme_rays_satisfy_system_fuzz():
    import random

    from partfan.cones import extreme_rays
    from partfan.rational import dot

    rng = random.Random(3)
    for _ in range(60):
        n_eq = rng.randrange(0, 2)
        n_in = rng.randrange(1, 5)
        eqs = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(n_eq)]
        ineqs = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(n_in)]
        eqs = [e for e in eqs if any(e)]
        ineqs = [a for a in ineqs if any(a)]
        lin, rays = extreme_rays(eqs, ineqs, 3)
        for v in lin:
            assert all(dot(e, v) == 0 for e in eqs)
            assert all(dot(a, v) == 0 for a in ineqs)
        for r in rays:
            assert all(dot(e, r) == 0 for e in eqs)
            assert all(dot(a, r) >= 0 for a in ineqs)


def test_strict_sign_feasible():
    normals = [(1, 0), (0, 1), (1, 1)]
    point = strict_sign_feasible(normals, (1, 1, 1), 2)
    assert point is not None
    # sign (+, -, +) feasible: x > 0, y < 0, x + y > 0
    assert strict_sign_feasible(normals, (1, -1, 1), 2) is not None
    # sign (+, -, 0) feasible on the line x = -y
    assert strict_sign_feasible(normals, (1, -1, 0), 2) is not None
    # sign (+, +, -) impossible
    assert strict_sign_feasible(normals, (1, 1, -1), 2) is None
    # all zero: the origin
    assert strict_sign_feasible(normals, (0, 0, 0), 2) is not None


@pytest.mark.parametrize("equalities, inequalities, dim, expected", [
    ([(1, 2), (0, 1)], [(1, 1)], 2, ((), ())),
    ([(0, 0, 1)], [(1, 1, 0)], 3, (((-1, 1, 0),), ((0, 1, 0),))),
    ([], [(2, 0)], 2, (((0, 1),), ((1, 0),))),
    ([], [(1,), (-1,)], 1, ((), ())),
], ids=["no-subspace", "one-free-column", "half-plane", "opposed-rows"])
def test_extreme_rays_without_special_cases(equalities, inequalities, dim, expected):
    """The cone {0} (d = 0) and a pointed part of dimension p = 1 go the
    general way: p = 0 for the first, and the empty row subset, with kernel
    ((1,),), as the candidates +1 and -1 for the others."""
    assert extreme_rays(equalities, inequalities, dim) == expected


def test_strict_sign_feasible_matches_the_relative_interior_route():
    """The witness read straight off ``extreme_rays`` is the one the former
    ``relative_interior_point`` route gave, on random sign systems of
    dimensions 1 to 4 with up to six normals, zero normals included."""
    rng = random.Random(1)
    outcomes = set()
    for _ in range(2000):
        dim = rng.randint(1, 4)
        normals = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(rng.randint(0, 6))]
        signs = [rng.choice((-1, 0, 1)) for _ in normals]
        got = strict_sign_feasible(normals, signs, dim)
        assert got == search_oracles.strict_sign_feasible(normals, signs, dim), \
            (normals, signs)
        outcomes.add(got is None)
    assert outcomes == {False, True}


# Fraction-path oracles for extreme_rays and simplicial_halfspaces: the same
# algorithms over exact rationals, with a Gram-matrix inverse in place of the
# per-facet integer kernels, on the former Fraction Gauss-Jordan.

def extreme_rays_oracle(equalities, inequalities, dim):
    equalities = [vec(e) for e in equalities]
    inequalities = [vec(a) for a in inequalities]
    subspace = oracle.kernel_basis(equalities, dim) if equalities else identity_matrix(dim)
    d = len(subspace)
    if d == 0:
        return (), ()
    b_rows = [tuple(dot(a, q) for q in subspace) for a in inequalities]
    b_rows = [r for r in b_rows if any(x != 0 for x in r)]
    lin_y = oracle.kernel_basis(b_rows, d) if b_rows else identity_matrix(d)
    lineality = tuple(sorted(primitive_ray(_combine_oracle(subspace, y)) for y in lin_y))
    pivot_cols = set(oracle.rref(lin_y)[1]) if lin_y else set()
    free_cols = [j for j in range(d) if j not in pivot_cols]
    p = len(free_cols)
    if p == 0:
        return lineality, ()
    b2 = [tuple(row[j] for j in free_cols) for row in b_rows]
    rays = set()
    for z in _pointed_extreme_rays_oracle(b2, p):
        y = [Fraction(0)] * d
        for j, zj in zip(free_cols, z):
            y[j] = Fraction(zj)
        rays.add(primitive_ray(_combine_oracle(subspace, y)))
    return lineality, tuple(sorted(rays))


def _combine_oracle(basis, coeffs):
    out = [Fraction(0)] * len(basis[0])
    for c, b in zip(coeffs, basis):
        out = [o + Fraction(c) * x for o, x in zip(out, b)]
    return tuple(out)


def _pointed_extreme_rays_oracle(rows, p):
    if p == 1:
        return [c for c in ((1,), (-1,)) if all(dot(row, c) >= 0 for row in rows)]
    found = set()
    for subset in combinations(range(len(rows)), p - 1):
        ker = oracle.kernel_basis([rows[i] for i in subset], p)
        if len(ker) != 1:
            continue
        z = primitive_ray(ker[0])
        for cand in (z, tuple(-x for x in z)):
            if all(dot(row, cand) >= 0 for row in rows):
                found.add(cand)
    return sorted(found)


def simplicial_halfspaces_oracle(ray_vectors, dim):
    """Equalities span(G)^perp, inequalities the rows of (G G^T)^{-1} G."""
    rays = [vec(r) for r in ray_vectors]
    if not rays:
        return identity_matrix(dim), ()
    gram = mat_mul(rays, transpose(rays))
    inverse = oracle.gram_inverse(gram, len(rays))
    return oracle.kernel_basis(rays, dim), mat_mul(inverse, rays)


def intersect_generated_cones_oracle(rays_a, rays_b, dim):
    eqs_a, ineqs_a = simplicial_halfspaces_oracle(rays_a, dim)
    eqs_b, ineqs_b = simplicial_halfspaces_oracle(rays_b, dim)
    return extreme_rays_oracle(tuple(eqs_a) + tuple(eqs_b),
                               tuple(ineqs_a) + tuple(ineqs_b), dim)


entries = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def cone_systems(draw):
    """(equalities, inequalities, dim): empty, zero and Fraction rows included."""
    dim = draw(st.integers(2, 4))
    row = st.lists(entries, min_size=dim, max_size=dim).map(tuple)
    return draw(st.lists(row, max_size=2)), draw(st.lists(row, max_size=5)), dim


@st.composite
def generator_sets(draw, min_size=0):
    dim = draw(st.integers(2, 4))
    row = st.lists(entries, min_size=dim, max_size=dim).map(tuple)
    return draw(st.lists(row, min_size=min_size, max_size=dim)), dim


@settings(max_examples=300, deadline=None)
@given(cone_systems())
def test_extreme_rays_match_fraction_oracle(system):
    assert extreme_rays(*system) == extreme_rays_oracle(*system)


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_halfspaces_match_fraction_oracle(generators_dim):
    generators, dim = generators_dim
    expected = (identity_matrix(dim), ()) if not generators \
        else extreme_rays_oracle((), generators, dim)
    assert halfspaces(generators, dim) == expected


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DependentBasis:
        return DependentBasis


@settings(max_examples=300, deadline=None)
@given(generator_sets())
def test_simplicial_halfspaces_are_positive_multiples_of_the_oracle(generators_dim):
    generators, dim = generators_dim
    got = _outcome(simplicial_halfspaces, generators, dim)
    expected = _outcome(simplicial_halfspaces_oracle, generators, dim)
    if expected is DependentBasis:
        assert got is DependentBasis
        return
    eqs, ineqs = got
    assert eqs == tuple(primitive_ray(e) for e in expected[0])
    assert ineqs == tuple(primitive_ray(a) for a in expected[1])


def test_simplicial_halfspaces_match_the_per_facet_kernels():
    """One elimination of [G G^T | G] gives the per-facet kernels' rows,
    on random integer cones of dimensions 1 to 5, dependent sets included."""
    rng = random.Random(1)
    outcomes = set()
    for _ in range(3000):
        dim = rng.randint(1, 5)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, dim))]
        if len(rays) >= 2 and rng.random() < 0.2:
            rays.append(tuple(a - 2 * b for a, b in zip(rays[0], rays[1])))
        got = _outcome(simplicial_halfspaces, rays, dim)
        assert got == _outcome(search_oracles.simplicial_halfspaces, rays, dim), rays
        outcomes.add(got is DependentBasis)
    assert outcomes == {False, True}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda dim: st.tuples(
    st.just(dim),
    *(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple),
               min_size=1, max_size=dim) for _ in range(2)))))
def test_intersect_generated_cones_matches_fraction_oracle(case):
    dim, rays_a, rays_b = case
    got = _outcome(intersect_generated_cones, rays_a, rays_b, dim)
    assert got == _outcome(intersect_generated_cones_oracle, rays_a, rays_b, dim)


def test_ragged_systems_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        extreme_rays([(1, 0, 0), (0, 1)], [], 3)
    with pytest.raises(DimensionMismatch):
        extreme_rays([], [(1, 0, 0), (0, 1)], 3)
    with pytest.raises(DimensionMismatch):
        extreme_rays([], [(0, 0), (1, 0, 0)], 3)
    with pytest.raises(DimensionMismatch):
        simplicial_halfspaces([(1, 0, 0), (0, 1)], 3)


def validation_oracle(fan):
    """validate_fan's report, with every intersection taken by the oracles."""
    violations = []
    for a, b in combinations(fan.max_cones, 2):
        lin, rays = intersect_generated_cones_oracle(
            fan.ray_vectors(a), fan.ray_vectors(b), fan.dim)
        if lin:
            violations.append((a, b, tuple(lin) + tuple(rays)))
            continue
        expected = tuple(sorted(fan.rays[i] for i in set(a) & set(b)))
        if tuple(sorted(rays)) != expected:
            violations.append((a, b, rays))
    return ValidationReport(violations).to_json()


def test_validate_fan_reports_match_fraction_oracle():
    import json
    import random

    rng = random.Random(7)
    invalid = 0
    for _ in range(300):
        dim = rng.choice((2, 3, 4))
        rays = [tuple(rng.randrange(-3, 4) for _ in range(dim))
                for _ in range(rng.randrange(dim, dim + 4))]
        max_cones = [tuple(rng.sample(range(len(rays)), rng.randrange(dim - 1, dim + 1)))
                     for _ in range(rng.randrange(1, 5))]
        try:
            fan = build_fan(dim, rays, max_cones)
        except PartFanError:
            continue
        report = validate_fan(fan).to_json()
        assert json.dumps(report) == json.dumps(validation_oracle(fan))
        invalid += not report["valid"]
    assert invalid >= 40


def test_valid_pair_no_facet_separates_reaches_the_exact_intersection(monkeypatch):
    """The two cones meet only at the origin, but no facet functional of
    either one is <= 0 on all rays of the other, so the separation
    certificate cannot prove the pair and the exact intersection decides."""
    calls = []

    def counting(*args):
        calls.append(args)
        return intersect_generated_cones(*args)

    monkeypatch.setattr(conelib, "intersect_generated_cones", counting)
    fan = build_fan(3, [(1, 0, 1), (3, -3, 1), (-2, -1, -1),
                        (-1, 0, 3), (1, 1, -1), (1, 1, -3)],
                    [(0, 1, 2), (3, 4, 5)])
    report = validate_fan(fan)
    assert len(calls) == 1
    assert report.ok
    assert report.to_json() == validation_oracle(fan)
