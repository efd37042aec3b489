import pytest

from partfan.errors import (
    DegenerateFunctional,
    NotAnInterval,
    NotComplete,
    NotRank2,
    PosetInvalid,
)
from partfan.fan import build_fan
from partfan.partition import finest_partition
from partfan.poset import (
    FanPoset,
    check_nondegenerate,
    check_weak_fan_poset,
    facial_interval,
    poset_from_json,
    poset_from_linear_functional,
    rank2_bisector_poset,
    wall_normal,
)

TAU1, TAU2, TAU3, TAU4 = (0, 3), (0, 1), (1, 2), (2, 3)


def test_functional_poset_square(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    assert poset.minimum() == TAU3       # chamber containing (-1,-1)
    assert poset.maximum() == TAU1


def test_functional_poset_degenerate(square_fan):
    with pytest.raises(DegenerateFunctional):
        poset_from_linear_functional(square_fan, (1, 0))


def test_functional_poset_hzb_acyclic(hzb_fan):
    poset = poset_from_linear_functional(hzb_fan, (1, 2))
    assert len(poset.covers) == 4
    assert poset.minimum() is not None and poset.maximum() is not None


def test_functional_poset_incomplete():
    quadrant = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(NotComplete):
        poset_from_linear_functional(quadrant, (1, 1))


def test_wall_normal_orientation(square_fan):
    nu = wall_normal(square_fan, (0,), TAU1)
    assert nu == (0, 1)
    assert wall_normal(square_fan, (0,), TAU2) == (0, -1)


def test_bisector_square(square_fan):
    poset = rank2_bisector_poset(square_fan, TAU1)
    assert poset.minimum() == TAU1
    assert poset.maximum() == TAU3
    chains = poset.maximal_chains(TAU1, TAU3)
    assert len(chains) == 2 and all(len(c) == 2 for c in chains)


def test_bisector_hzb(hzb_fan):
    poset = rank2_bisector_poset(hzb_fan, TAU1)
    assert len(poset.elements) == 4
    assert poset.minimum() == TAU1 and poset.maximum() == TAU3


def test_bisector_tie_break():
    # opposite of the bisector of cone{(1,0),(0,1)} lands on the ray (-1,-1);
    # the tie-break picks the chamber counterclockwise from that ray
    fan = build_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)],
                    [(0, 1), (1, 2), (2, 4), (3, 4), (0, 3)])
    poset = rank2_bisector_poset(fan, (0, 1))
    assert poset.maximum() == (3, 4)


def test_bisector_refuses_maximum_adjacent_to_base():
    # -(1,1) lies inside cone{(1,0),(-2,-1)}, which shares the ray (1,0)
    # with the base
    fan = build_fan(2, [(1, 0), (0, 1), (-1, 0), (-2, -1)],
                    [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(PosetInvalid) as err:
        rank2_bisector_poset(fan, (0, 1))
    assert err.value.witness == [[0, 1], [0, 3]]


def test_bisector_requires_rank2():
    fan = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    with pytest.raises(NotRank2):
        rank2_bisector_poset(fan, (0, 1, 2))


def test_check_weak_fan_poset_passes(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    report = check_weak_fan_poset(square_fan, poset)
    assert report.ok
    assert report.weak_variant == "not checked"


def test_check_weak_fan_poset_bisector(square_fan, hzb_fan):
    for fan in (square_fan, hzb_fan):
        for base in fan.chambers():
            poset = rank2_bisector_poset(fan, base)
            report = check_weak_fan_poset(fan, poset)
            assert report.facial_ok


def test_check_weak_fan_poset_adversarial(square_fan):
    # one flipped cover: star(sigma2) is no longer an interval
    covers = [(TAU1, TAU2, (0,)), (TAU3, TAU2, (1,)),
              (TAU3, TAU4, (2,)), (TAU4, TAU1, (3,))]
    poset = FanPoset(square_fan, covers)
    report = check_weak_fan_poset(square_fan, poset)
    assert not report.facial_ok
    assert (1,) in report.facial_failures


def test_facial_interval_values(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    fi = facial_interval(square_fan, poset, (0,))
    assert fi.lower == TAU2 and fi.upper == TAU1
    assert set(fi.members) == {TAU1, TAU2}
    fi_max = facial_interval(square_fan, poset, TAU1)
    assert fi_max.lower == fi_max.upper == TAU1
    fi0 = facial_interval(square_fan, poset, ())
    assert fi0.lower == poset.minimum() and fi0.upper == poset.maximum()


def test_facial_interval_error(square_fan):
    covers = [(TAU1, TAU2, (0,)), (TAU3, TAU2, (1,)),
              (TAU3, TAU4, (2,)), (TAU4, TAU1, (3,))]
    poset = FanPoset(square_fan, covers)
    with pytest.raises(NotAnInterval):
        facial_interval(square_fan, poset, (1,))


def test_poset_validation():
    fan = build_fan(2, [(1, 0), (0, -1), (-1, 0), (0, 1)],
                    [(0, 3), (0, 1), (1, 2), (2, 3)])
    with pytest.raises(PosetInvalid):
        FanPoset(fan, [(TAU1, TAU3, ())])      # not wall-adjacent
    with pytest.raises(PosetInvalid):
        FanPoset(fan, [(TAU1, TAU2, (0,)), (TAU2, TAU1, (0,))])  # cycle


def test_poset_json_roundtrip(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    again = poset_from_json(square_fan, poset.to_json())
    assert again.covers == poset.covers


def test_nondegenerate_functional(square_fan, torus_partition):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    ok, witness = check_nondegenerate(square_fan, torus_partition, poset)
    assert ok and witness is None


def test_nondegenerate_all_admissible(square_fan, square_admissible,
                                      hzb_fan, hzb_admissible):
    po_sq = poset_from_linear_functional(square_fan, (1, 1))
    for p in square_admissible:
        assert check_nondegenerate(square_fan, p, po_sq)[0]
    po_h = poset_from_linear_functional(hzb_fan, (1, 2))
    for p in hzb_admissible:
        assert check_nondegenerate(hzb_fan, p, po_h)[0]


def test_degenerate_hand_built(square_fan, torus_partition):
    # sigma1-class walls crossed in opposite directions
    covers = [(TAU2, TAU1, (0,)), (TAU3, TAU2, (1,)),
              (TAU4, TAU3, (2,)), (TAU4, TAU1, (3,))]
    poset = FanPoset(square_fan, covers)
    ok, witness = check_nondegenerate(square_fan, torus_partition, poset)
    assert not ok
    assert witness["block"] in ([[0], [2]], [[1], [3]])


def test_nondegenerate_finest_trivially(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    ok, _ = check_nondegenerate(square_fan, finest_partition(square_fan), poset)
    assert ok
