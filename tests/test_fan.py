import json
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings

import fraction_oracles as oracle
from fraction_oracles import mat_mul, mat_vec
import search_oracles
from partfan import arrangement as arrlib
from partfan import catalog
from partfan import cones as conelib
from partfan import fan as fanlib
from partfan import partition as partlib
from partfan import rational
from partfan.errors import (
    BadIndex,
    DependentBasis,
    DuplicateRay,
    InexactNumber,
    NonSimplicialCone,
    NotAFace,
    UnknownCone,
)
from partfan.category import build_category
from partfan.cw import build_cw
from partfan.fan import (
    Fan,
    build_fan,
    fan_from_json,
    is_finite_complete,
    validate_fan,
)
from partfan.partition import potential_identifications
from partfan.poset import check_weak_fan_poset
from partfan.rational import dot, primitive_ray
from strategies import (
    A3_NORMALS,
    A4_ESSENTIAL,
    angular_order,
    b_normals,
    complete_planar_fans,
    random_cone_set,
    random_fan,
)


def test_build_fan_hirzebruch_faces(hzb_fan):
    # 1 zero cone + 4 rays + 4 two-dimensional cones
    assert len(hzb_fan.cones) == 9
    assert hzb_fan.rays == ((1, 0), (0, -1), (-1, 1), (0, 1))


def test_build_fan_square_faces(square_fan):
    assert len(square_fan.cones) == 9


def test_build_fan_dependent_rays_in_cone():
    with pytest.raises(NonSimplicialCone):
        build_fan(2, [(1, 0), (2, 0)], [(0, 1)])


def test_build_fan_duplicate_ray():
    with pytest.raises(DuplicateRay):
        build_fan(2, [(1, 0), (2, 0), (0, 1)], [(0, 2)])


@pytest.mark.parametrize("rays, witness", [
    ([(0.1, 0.3), (1, 3), (0, -1)], 0.1),
    ([(True, 0), (1, 3), (0, -1)], True),
])
def test_build_fan_rejects_floats_and_booleans(rays, witness):
    # 0.1 is not 1/10, and True is not 1: neither may become a ray entry
    with pytest.raises(InexactNumber) as err:
        build_fan(2, rays, [(0, 2), (1, 2)])
    assert err.value.witness is witness


@pytest.mark.parametrize("max_cones, witness", [
    ([(True, 0)], [True, 0]),
    ([(0.0, 1)], [0.0, 1]),
    ([(0, "1")], [0, "1"]),
])
def test_build_fan_refuses_a_ray_index_that_is_not_an_int(max_cones, witness):
    # True and 0.0 would index rays 1 and 0; 0.0 used to end in a TypeError
    with pytest.raises(BadIndex) as err:
        build_fan(2, [(1, 0), (0, 1)], max_cones)
    assert err.value.witness == witness


@pytest.mark.parametrize("cone", [[0.0], [True], [0, 3.0], [1, True]])
def test_check_cone_refuses_an_index_that_is_not_an_int(square_fan, cone):
    # (0.0,) == (0,), so the lookup alone would pass it on as the fan's cone
    with pytest.raises(UnknownCone):
        square_fan.check_cone(cone)


@pytest.mark.parametrize("cone", [5, None, [[0]]])
def test_check_cone_refuses_what_is_no_iterable_of_indices(square_fan, cone):
    # these ended in a bare TypeError: not iterable, or an unhashable index
    with pytest.raises(UnknownCone) as err:
        square_fan.check_cone(cone)
    assert err.value.witness == cone


def test_build_fan_renormalizes_rays():
    fan = build_fan(2, [(2, 0), (0, 3)], [(0, 1)])
    assert fan.rays == ((1, 0), (0, 1))


def test_validate_square(square_fan):
    assert validate_fan(square_fan).ok


def test_validate_overlapping_cones():
    # cone{(1,0),(0,1)} & cone{(1,0),(1,1)} = cone{(1,0),(1,1)}, not a face
    fan = build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    report = validate_fan(fan)
    assert not report.ok
    (a, b, rays) = report.violations[0]
    assert {a, b} == {(0, 1), (0, 2)}
    assert set(rays) == {(1, 0), (1, 1)}


def test_validate_single_cone():
    fan = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert validate_fan(fan).ok


def test_completeness(square_fan, hzb_fan):
    assert is_finite_complete(square_fan)
    assert is_finite_complete(hzb_fan)
    quadrant = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not is_finite_complete(quadrant)


# five rays going twice round the origin: every wall lies in two chambers
DOUBLE_WINDING = ([(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
                  [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_completeness_rejects_double_winding():
    fan = build_fan(2, *DOUBLE_WINDING)
    assert not validate_fan(fan).ok
    assert not is_finite_complete(fan)


def test_star_index_matches_scan(square_fan, hzb_fan, three_lines_fan, brauer):
    for fan in (square_fan, hzb_fan, three_lines_fan, brauer.fan):
        for cone in fan.cones:
            scan = tuple(c for c in fan.cones if set(cone) <= set(c))
            assert fan.star(cone) == scan
            assert fan.star_chambers(cone) == \
                tuple(c for c in scan if len(c) == fan.dim)
        for d in range(fan.dim + 1):
            assert fan.cones_of_dim(d) == tuple(c for c in fan.cones if len(c) == d)


def test_star(square_fan):
    assert square_fan.star((0,)) == ((0,), (0, 1), (0, 3))
    assert len(square_fan.star(())) == 9
    assert square_fan.star((0, 3)) == ((0, 3),)
    with pytest.raises(UnknownCone):
        square_fan.star((0, 2))


def test_project_star_hirzebruch(hzb_fan):
    # pi_{sigma2}(tau2) and pi_{sigma4}(tau1) are both the positive x ray
    assert hzb_fan.projected_cone((1,), (0, 1)) == ((1, 0),)
    assert hzb_fan.projected_cone((3,), (0, 3)) == ((1, 0),)
    # pi_{sigma2}(tau3): project (-1,1) onto the x-axis, normalize
    assert hzb_fan.projected_cone((1,), (1, 2)) == ((-1, 0),)
    assert hzb_fan.project_star((1,)) == hzb_fan.project_star((3,))


def test_project_star_map_computed_once(hzb_fan):
    star_map = hzb_fan.project_star_map((1,))
    assert hzb_fan.project_star_map([1]) is star_map
    assert set(star_map) == set(hzb_fan.star((1,)))
    assert hzb_fan.project_star((1,)) == frozenset(star_map.values())


def test_projected_cone_memo_matches_fresh_projection(square_fan, hzb_fan,
                                                      three_lines_fan, brauer):
    for fan in (square_fan, hzb_fan, three_lines_fan, brauer.fan):
        for tau in fan.cones:
            for k in range(len(tau) + 1):
                for sigma in combinations(tau, k):
                    p = oracle.complement_projection(fan.ray_vectors(sigma), dim=fan.dim)
                    fresh = tuple(sorted({primitive_ray(mat_vec(p, fan.rays[i]))
                                          for i in tau if i not in sigma}))
                    first = fan.projected_cone(sigma, tau)
                    assert first == fresh
                    assert fan.projected_cone(sigma, tau) is first


def test_projected_cone_checks_its_cones(square_fan):
    fan = build_fan(2, square_fan.rays, square_fan.max_cones)
    with pytest.raises(NotAFace) as err:
        fan.projected_cone((0,), (1,))
    assert err.value.witness == [[0], [1]]
    # (1, 2) is a cone of the square, but not in star((0,))
    with pytest.raises(NotAFace) as err:
        fan.projected_cone([0], (2, 1))
    assert err.value.witness == [[0], [1, 2]]
    with pytest.raises(UnknownCone):
        fan.projected_cone((0,), (0, 2))
    with pytest.raises(UnknownCone):
        fan.projected_cone((0, 2), (0, 1))
    assert fan.projected_cone((0,), (3, 0)) is fan.projected_cone((0,), (0, 3))
    assert fan.projected_cone((0,), (3, 0)) is fan.project_star_map((0,))[0, 3]
    assert set(fan._project_star_cache) == {(0,)}


def test_project_star_of_maximal_cone(square_fan):
    assert square_fan.project_star((0, 3)) == frozenset({()})


def test_link_complex_square_origin(square_fan):
    # the sphere complex of a cone is read off its star: one vertex per
    # cone one dimension up, one simplex per cone above it
    star = square_fan.star(())
    assert [sum(len(c) == k for c in star) for k in (1, 2)] == [4, 4]
    assert all(len(square_fan.star_chambers(r)) == 2 for r in square_fan.cones_of_dim(1))


def test_link_complex_square_ray(square_fan):
    assert sorted(map(len, square_fan.star((0,)))) == [1, 2, 2]


def test_link_complex_hzb_ray_block(hzb_fan):
    assert hzb_fan.project_star((1,)) == hzb_fan.project_star((3,))
    for ray in [(1,), (3,)]:
        assert sorted(map(len, hzb_fan.star(ray))) == [1, 2, 2]


def test_rank2_links_are_spheres(square_fan, hzb_fan):
    for fan in (square_fan, hzb_fan):
        for ray in fan.cones_of_dim(1):
            assert sorted(map(len, fan.star(ray))) == [1, 2, 2]
        assert len(fan.star_chambers(())) == len(fan.max_cones)


def test_projection_composition_identity(hzb_fan):
    # pi_tau o pi_sigma = pi_tau for sigma a face of tau
    for tau in hzb_fan.cones:
        for k in range(len(tau) + 1):
            from itertools import combinations

            for sigma in combinations(tau, k):
                p_tau = oracle.complement_projection(hzb_fan.ray_vectors(tau),
                                                     hzb_fan.dim)
                p_sigma = oracle.complement_projection(hzb_fan.ray_vectors(sigma),
                                                       hzb_fan.dim)
                assert mat_mul(p_tau, p_sigma) == p_tau


def test_projected_star_is_complete_fan(square_fan, hzb_fan):
    for fan in (square_fan, hzb_fan):
        for cone in fan.cones:
            if len(cone) == fan.dim:
                continue
            pf = oracle.projected_star_as_fan(fan, cone)
            assert validate_fan(pf).ok
            assert is_finite_complete(pf)


def test_fan_json_roundtrip(square_fan):
    again = fan_from_json(square_fan.to_json())
    assert again.to_json() == square_fan.to_json()


def arrangement_of(name):
    if name == "brauer":
        return catalog.brauer()
    normals = {"A3": A3_NORMALS, "B3": b_normals(3), "A4": A4_ESSENTIAL}[name]
    return arrlib.Arrangement(len(normals[0]), normals)


PROJECTION_FANS = {
    "square": catalog.square,
    "hirzebruch-a1": catalog.hirzebruch,
    "hirzebruch-a2": lambda: catalog.hirzebruch(2),
    "three-lines": catalog.three_lines,
    **{name: lambda name=name: arrlib.arrangement_fan(arrangement_of(name))
       for name in ("A3", "brauer", "B3", "A4")},
    **{"random-%d-%d" % (dim, seed): lambda dim=dim, seed=seed: random_fan(dim, seed)
       for dim in (2, 3, 4) for seed in range(3)},
}


@pytest.mark.parametrize("name", sorted(PROJECTION_FANS))
def test_projected_cones_match_the_per_cone_route(name):
    fan = PROJECTION_FANS[name]()
    former = search_oracles.PerConeProjection(fan)
    pairs = 0
    for sigma in fan.cones:
        for tau, projected in fan._project_star_map(sigma).items():
            assert projected == former._projected_cone(sigma, tau), (sigma, tau)
            pairs += 1
    assert pairs == sum(2 ** len(tau) for tau in fan.cones)


def _category_and_cw_documents(name):
    arrangement = arrangement_of(name)
    arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
    fan = arrfan.fan
    base = next(c for c in fan.max_cones
                if arrfan.sign_of(c) == (1,) * len(arrangement.normals))
    documents = []
    for partition in (arrlib.flat_partition(arrangement, fan),
                      arrlib.shard_partition(arrangement, arrfan, base)):
        documents.append(json.dumps(build_category(fan, partition).to_json()))
        documents.append(json.dumps(build_cw(fan, partition).to_json()))
    return documents, fan


@pytest.mark.parametrize("name", ["A3", "brauer", "B3"])
def test_category_and_cw_unchanged_under_the_per_cone_route(monkeypatch, name):
    documents, _ = _category_and_cw_documents(name)
    routes = {}

    def former_project_star_map(fan, cone):
        if fan not in routes:
            routes[fan] = search_oracles.PerConeProjection(fan), {}
        former, maps = routes[fan]
        if cone not in maps:
            maps[cone] = {tau: former._projected_cone(cone, tau)
                          for tau in fan._stars[cone]}
        return maps[cone]

    monkeypatch.setattr(Fan, "_project_star_map", former_project_star_map)
    former, fan = _category_and_cw_documents(name)
    # the fan's own route reads projections along a cone of codimension 2 or
    # more off the facets of cones that are no chambers
    assert all(len(c) == fan.dim for c in fan._facet_cache)
    assert former == documents


def _count_eliminations(monkeypatch):
    """Record the row count of every ``_echelon`` call; ``span_key`` fails."""
    rows = []
    original = rational._echelon

    def counting(matrix):
        rows.append(len(matrix))
        return original(matrix)

    def refuse(vectors):
        raise AssertionError("span_key called on %r" % (vectors,))

    monkeypatch.setattr(rational, "_echelon", counting)
    monkeypatch.setattr(conelib, "_echelon", counting)
    monkeypatch.setattr(partlib, "span_key", refuse)
    return rows


@pytest.mark.parametrize("name", ["A3", "A4", "square", "hirzebruch-a1", "three-lines"])
def test_one_elimination_per_chamber_component_and_no_span_key(monkeypatch, name):
    """On a complete fan every star holds a chamber, so the projected stars
    alone key the E-classes.  Its chambers form one wall-adjacency
    component, so one elimination of a chamber's [G G^T | G] gives every
    facet functional, by wall-crossing pivots and face projections."""
    fan = PROJECTION_FANS[name]()
    rows = _count_eliminations(monkeypatch)
    potential_identifications(fan)
    assert rows == [fan.dim]


FACET_FANS = {
    **PROJECTION_FANS,
    **{"random-3-%d-flat" % seed: lambda seed=seed: random_fan(3, seed, 0)
       for seed in range(4)},
    **{"cone-set-%d-%d" % (dim, seed): lambda dim=dim, seed=seed: random_cone_set(dim, seed)
       for dim in (2, 3, 4) for seed in range(8)},
    # five rays going twice round the origin: the chambers overlap, and the
    # pivots cross the walls of a fan that is not valid
    "double-winding": lambda: build_fan(
        2, [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    # chambers [0, 1] and [0, 2] lie on the same side of their wall, ray 0
    "same-side": lambda: build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)]),
}


def _chamber_components(fan):
    """The number of classes of chambers joined by shared walls."""
    root = {c: c for c in fan.chambers()}

    def find(c):
        while root[c] != c:
            c = root[c]
        return c

    for wall in fan.walls():
        incident = fan._star_chambers(wall)
        for c in incident[1:]:
            root[find(c)] = find(incident[0])
    return len({find(c) for c in root})


def _lower_maximal_cones(fan):
    """The cones in no larger cone of the fan that are no chambers."""
    return [c for c in fan.cones if len(c) < fan.dim and fan.star(c) == (c,)]


@pytest.mark.parametrize("name", sorted(FACET_FANS))
def test_derived_facets_equal_the_elimination_of_each_cone(monkeypatch, name):
    """Every cone's facet functionals, derived by pivots and projections,
    are those one elimination of the cone gives; the eliminations run once
    per chamber component and once per maximal cone that is no chamber."""
    fan = FACET_FANS[name]()
    calls = []
    original = conelib.simplicial_facets

    def counting(rays):
        calls.append(rays)
        return original(rays)

    monkeypatch.setattr(conelib, "simplicial_facets", counting)
    derived = {c: fan._facets(c) for c in fan.cones if c}
    monkeypatch.undo()
    for c, facets in derived.items():
        assert facets == dict(zip(c, original(fan.ray_vectors(c)))), c
    assert len(calls) == _chamber_components(fan) + len(_lower_maximal_cones(fan))


def test_the_facet_oracle_fans_have_lower_cones_and_several_components():
    fans = [f() for f in FACET_FANS.values()]
    assert any(_lower_maximal_cones(fan) for fan in fans)
    assert any(_chamber_components(fan) > 1 for fan in fans)


def test_a_dependent_chamber_is_not_crossed_into():
    """Pivoting into chamber (1, 2) would divide by zero, as ray 2 lies on
    the line of their wall; asking for its facets eliminates it, which
    refuses it."""
    fan = fanlib._fan_of_cones(2, [(1, 0), (0, 1), (0, -1)], [(0, 1), (1, 2)])
    assert fan._facets((0, 1)) == {0: (1, 0), 1: (0, 1)}
    assert (1, 2) not in fan._facet_cache
    with pytest.raises(DependentBasis):
        fan._facets((1, 2))


def test_no_check_cone_on_the_fans_own_cones(monkeypatch):
    arrangement = arrangement_of("A3")
    arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
    fan = arrfan.fan
    poset = arrlib.poset_of_regions(arrfan, fan.max_cones[0])
    calls = []
    original = Fan.check_cone

    def counting(self, cone):
        calls.append(cone)
        return original(self, cone)

    monkeypatch.setattr(Fan, "check_cone", counting)
    potential_identifications(fan)
    assert check_weak_fan_poset(fan, poset).ok
    assert calls == []


# ---------------------------------------------------------------------------
# the ridge certificate of is_finite_complete against the former search


def suspension(rays, max_cones):
    """The fan in R^(n+1) of each cone joined with each pole +/- e_(n+1)."""
    n = len(rays[0])
    poles = [(0,) * n + (1,), (0,) * n + (-1,)]
    return build_fan(n + 1, [tuple(r) + (0,) for r in rays] + poles,
                     [tuple(c) + (p,) for c in max_cones
                      for p in (len(rays), len(rays) + 1)])


# rays (1,0), (0,1) and (1,1) with every pair a chamber: each wall lies in
# two chambers, but the walls (1,0) and (0,1) have both on one side
FOLD = ([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 2)])


def opposite_sides(fan, wall):
    """Whether the wall's two chambers lie strictly on opposite sides of it."""
    t1, t2 = fan.star_chambers(wall)
    (j,) = set(t2) - set(wall)
    return dot(fan._wall_normal(wall, t1), fan.rays[j]) < 0


@pytest.mark.parametrize("fan", [build_fan(2, *DOUBLE_WINDING), suspension(*DOUBLE_WINDING)],
                         ids=["double-winding", "suspension"])
def test_a_double_cover_fails_only_the_point_count(fan):
    assert all(len(c) == fan.dim for c in fan.max_cones)
    assert all(len(fan.star_chambers(w)) == 2 and opposite_sides(fan, w)
               for w in fan.walls())
    assert not is_finite_complete(fan)
    assert not search_oracles.is_finite_complete(fan)


def test_the_fold_fails_the_side_test():
    fan = build_fan(2, *FOLD)
    assert all(len(fan.star_chambers(w)) == 2 for w in fan.walls())
    assert [opposite_sides(fan, w) for w in fan.walls()] == [False, False, True]
    assert not is_finite_complete(fan)
    assert not search_oracles.is_finite_complete(fan)


def test_a_wall_in_three_chambers_fails_the_count():
    # the square fan plus a second layer over the left half-plane: the walls
    # (0,1) and (0,-1) lie in three chambers, the point (1,1) in one
    fan = build_fan(2, [(1, 0), (0, -1), (-1, 0), (0, 1), (-1, 1), (-1, -1)],
                    [(0, 3), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert sorted(len(fan.star_chambers(w)) for w in fan.walls()) == [2, 2, 2, 2, 3, 3]
    assert not is_finite_complete(fan)
    assert not search_oracles.is_finite_complete(fan)


@pytest.mark.parametrize("name", sorted(PROJECTION_FANS))
def test_completeness_matches_the_search(name):
    fan = PROJECTION_FANS[name]()
    assert is_finite_complete(fan) is search_oracles.is_finite_complete(fan) is True
    # without one chamber, each of its walls lies in one chamber only
    partial = build_fan(fan.dim, fan.rays, fan.max_cones[1:])
    assert is_finite_complete(partial) is search_oracles.is_finite_complete(partial) is False


@given(complete_planar_fans())
@settings(max_examples=60, deadline=None)
def test_completeness_matches_the_search_on_planar_fans(fan):
    assert is_finite_complete(fan) is search_oracles.is_finite_complete(fan) is True


def star_polygon(rng):
    """Chambers joining every s-th of m planar rays in angular order.

    When every step turns by less than pi, each wall has its two chambers
    on opposite sides, and the chambers go s times round the origin.
    """
    pool = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if gcd(x, y) == 1]
    rays = angular_order(rng.sample(pool, rng.randint(3, 9)))
    m = len(rays)
    step = rng.choice([s for s in range(1, m) if gcd(s, m) == 1])
    return build_fan(2, rays, [(k * step % m, (k + 1) * step % m) for k in range(m)])


def test_completeness_matches_the_search_on_star_polygons():
    rng = random.Random(3)
    verdicts = []
    for _ in range(400):
        try:
            fan = star_polygon(rng)
        except NonSimplicialCone:
            continue
        if rng.random() < 0.3:
            fan = suspension(fan.rays, fan.max_cones)
        verdict = is_finite_complete(fan)
        assert verdict is search_oracles.is_finite_complete(fan), fan.to_json()
        verdicts.append((verdict, all(opposite_sides(fan, w) for w in fan.walls())))
    # complete fans, double covers, and folds
    assert min(verdicts.count(v) for v in [(True, True), (False, True), (False, False)]) >= 20


def test_a_certified_fan_validates_without_testing_pairs(monkeypatch):
    fan = arrlib.arrangement_fan(arrangement_of("B3"))

    def fail(fan):
        raise AssertionError("a pair was tested")

    monkeypatch.setattr(fanlib, "_pairwise_violations", fail)
    assert validate_fan(fan).to_json() == {"valid": True, "violations": []}


@pytest.mark.parametrize("name", sorted(PROJECTION_FANS))
def test_wall_normals_match_the_kernel(name):
    fan = PROJECTION_FANS[name]()
    for wall in fan.walls():
        for chamber in fan.star_chambers(wall):
            assert fan._wall_normal(wall, chamber) == \
                search_oracles.wall_normal(fan, wall, chamber), (wall, chamber)
