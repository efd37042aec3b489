import json
from itertools import combinations

import pytest

import fraction_oracles as oracle
import search_oracles
from partfan import arrangement as arrlib
from partfan import catalog
from partfan import fan as fanlib
from partfan.errors import (
    BadIndex,
    DuplicateRay,
    InexactNumber,
    MixedBlock,
    NonSimplicialCone,
    NotComplete,
    UnknownCone,
)
from partfan.category import build_category
from partfan.cw import build_cw
from partfan.fan import (
    Fan,
    build_fan,
    canonical_fan,
    fan_from_json,
    is_finite_complete,
    link_complex,
    validate_fan,
)
from partfan.partition import potential_identifications
from partfan.poset import check_weak_fan_poset
from partfan.rational import mat_mul, mat_vec, primitive_ray
from strategies import A3_NORMALS, A4_ESSENTIAL, b_normals, random_fan


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


def test_project_star_of_maximal_cone(square_fan):
    assert square_fan.project_star((0, 3)) == frozenset({()})


def test_link_complex_square_origin(square_fan):
    lc = link_complex(square_fan, [()])
    assert len(lc.vertices) == 4
    edges = [s for s in lc.simplices if len(s) == 2]
    assert len(edges) == 4
    assert lc.is_pure()
    assert all(d == 2 for d in lc.ridge_degrees().values())


def test_link_complex_square_ray(square_fan):
    lc = link_complex(square_fan, [(0,)])
    assert len(lc.vertices) == 2
    assert all(len(s) == 1 for s in lc.simplices)


def test_link_complex_hzb_ray_block(hzb_fan):
    lc = link_complex(hzb_fan, [(1,), (3,)])
    assert len(lc.vertices) == 2
    assert all(len(s) == 1 for s in lc.simplices)


def test_link_complex_mixed_block(hzb_fan):
    with pytest.raises(MixedBlock):
        link_complex(hzb_fan, [(0,), (2,)])


LINK_FANS = ("square", "hirzebruch-a1", "hirzebruch-a2", "three-lines",
             "brauer", "A3", "B3", "A4")


@pytest.mark.parametrize("name", LINK_FANS)
def test_link_complex_matches_the_subset_search(name):
    fan = PROJECTION_FANS[name]()
    for block in potential_identifications(fan).partition.blocks:
        got, former = link_complex(fan, block), search_oracles.link_complex(fan, block)
        assert (got.vertices, got.simplices) == (former.vertices, former.simplices), block


def test_link_complex_incomplete():
    quadrant = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(NotComplete) as err:
        link_complex(quadrant, [()])
    assert err.value.witness == quadrant.to_json()


def test_rank2_links_are_spheres(square_fan, hzb_fan):
    for fan in (square_fan, hzb_fan):
        for ray in fan.cones_of_dim(1):
            lc = link_complex(fan, [ray])
            assert len(lc.vertices) == 2 and lc.dimension() == 0
        lc0 = link_complex(fan, [()])
        assert len([s for s in lc0.simplices if len(s) == 2]) == len(fan.max_cones)


def test_projection_composition_identity(hzb_fan):
    # pi_tau o pi_sigma = pi_tau for sigma a face of tau
    for tau in hzb_fan.cones:
        for k in range(len(tau) + 1):
            from itertools import combinations

            for sigma in combinations(tau, k):
                p_tau = hzb_fan.projection(tau)
                p_sigma = hzb_fan.projection(sigma)
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


def test_canonical_fan_sorts_rays(hzb_fan):
    canon = canonical_fan(hzb_fan)
    assert list(canon.rays) == sorted(canon.rays)
    assert len(canon.cones) == len(hzb_fan.cones)


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
    for tau in fan.cones:
        for k in range(len(tau) + 1):
            for sigma in combinations(tau, k):
                assert fan._projected_cone(sigma, tau) == \
                    former._projected_cone(sigma, tau), (sigma, tau)


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

    def former_projected_cone(fan, base, cone):
        if fan not in routes:
            routes[fan] = search_oracles.PerConeProjection(fan)
        return routes[fan]._projected_cone(base, cone)

    monkeypatch.setattr(Fan, "_projected_cone", former_projected_cone)
    former, fan = _category_and_cw_documents(name)
    assert not fan._projected_ray_cache
    assert former == documents


def _count_projections(monkeypatch):
    """Record the basis of every ``int_complement_projection`` call of the fan."""
    bases = []
    original = fanlib.int_complement_projection

    def counting(basis, dim):
        bases.append(basis)
        return original(basis, dim)

    monkeypatch.setattr(fanlib, "int_complement_projection", counting)
    return bases


@pytest.mark.parametrize("name, calls", [("A3", 14), ("A4", 51)])
def test_one_projection_per_flat_below_the_top(monkeypatch, name, calls):
    arrangement = arrangement_of(name)
    fan = arrlib.arrangement_fan(arrangement)
    bases = _count_projections(monkeypatch)
    potential_identifications(fan)
    assert len(bases) == len(arrlib.flats(arrangement)) - 1 == calls


@pytest.mark.parametrize("name, calls", [
    ("square", 3), ("hirzebruch-a1", 4), ("three-lines", 4)])
def test_one_planar_projection_per_line_and_the_zero_cone(monkeypatch, name, calls):
    fan = PROJECTION_FANS[name]()
    bases = _count_projections(monkeypatch)
    potential_identifications(fan)
    lines = {max(r, tuple(-x for x in r)) for r in fan.rays}
    assert len(bases) == len(lines) + 1 == calls
    assert all(len(basis) < fan.dim for basis in bases)


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
