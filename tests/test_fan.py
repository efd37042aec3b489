from itertools import combinations

import pytest

import fraction_oracles as oracle
from partfan.errors import (
    DuplicateRay,
    InexactNumber,
    MixedBlock,
    NonSimplicialCone,
    NotComplete,
    UnknownCone,
)
from partfan.fan import (
    build_fan,
    canonical_fan,
    fan_from_json,
    is_finite_complete,
    link_complex,
    validate_fan,
)
from partfan.rational import mat_mul, mat_vec, primitive_ray


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
