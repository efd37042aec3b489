import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_oracles as oracle
from partfan import groups as G
from partfan.cw import (
    build_cw,
    compare_pi1_picture,
    euler_characteristic,
    pi1_presentation,
)
from partfan.errors import (
    DegenerateFunctional,
    NotComplete,
    PosetInvalid,
    PreconditionUnmet,
)
from partfan.fan import build_fan
from partfan.partition import (
    admissible_closure,
    enumerate_admissible,
    finest_partition,
)
from partfan.poset import poset_from_linear_functional, rank2_bisector_poset
from strategies import complete_planar_fans


def test_cells_torus(square_fan, torus_partition):
    cw = build_cw(square_fan, torus_partition)
    assert cw.cell_counts() == (1, 2, 1)
    assert euler_characteristic(cw) == 0


def test_cells_cylinder(hzb_fan, p1_partition):
    cw = build_cw(hzb_fan, p1_partition)
    assert cw.cell_counts() == (2, 3, 1)
    assert euler_characteristic(cw) == 0


def test_cells_disk(square_fan):
    cw = build_cw(square_fan, finest_partition(square_fan))
    assert cw.cell_counts() == (4, 4, 1)
    assert euler_characteristic(cw) == 1


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans())
def test_finest_partition_is_a_disk(fan):
    cw = build_cw(fan, finest_partition(fan))
    n = len(fan.rays)
    assert cw.cell_counts() == (n, n, 1)
    assert euler_characteristic(cw) == 1


def test_build_cw_requires_complete():
    quadrant = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(NotComplete) as err:
        build_cw(quadrant, finest_partition(quadrant))
    assert err.value.witness == quadrant.to_json()


def test_build_cw_rejects_double_winding():
    # walls in two chambers each, but the chambers wind twice around 0
    fan = build_fan(2, [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(NotComplete):
        build_cw(fan, finest_partition(fan))


def test_cell_counts_equal_block_counts(square_fan, square_admissible):
    n = square_fan.dim
    for partition in square_admissible:
        cw = build_cw(square_fan, partition)
        for d, blocks in cw.cells_by_dim.items():
            expected = [b for b in partition.blocks if n - len(b[0]) == d]
            assert len(blocks) == len(expected)


def test_pi1_torus(square_fan, torus_partition):
    cw = build_cw(square_fan, torus_partition)
    pres = pi1_presentation(cw)
    assert len(pres.generators) == 2
    assert len(pres.relators) == 1
    assert G.abelianization(pres) == (2, ())


def test_pi1_disk_trivial(square_fan):
    cw = build_cw(square_fan, finest_partition(square_fan))
    pres = pi1_presentation(cw)
    # the 4-cycle skeleton leaves one non-tree edge, killed by the 2-cell
    assert len(pres.generators) == 1
    assert G.abelianization(pres) == (0, ())


def test_pi1_cylinder(hzb_fan, p1_partition):
    cw = build_cw(hzb_fan, p1_partition)
    pres = pi1_presentation(cw)
    assert G.abelianization(pres) == (1, ())


def test_attaching_word_lengths(square_fan, torus_partition):
    cw = build_cw(square_fan, torus_partition)
    for block_id, word in cw.two_cells:
        rep = cw.partition.blocks[block_id][0]
        chambers = [c for c in square_fan.star(rep) if len(c) == square_fan.dim]
        assert len(word) == len(chambers)


def test_attaching_words_close_up(square_fan, hzb_fan, square_admissible):
    # every attaching word is a closed walk: its 0-chain boundary vanishes
    jobs = [(square_fan, p) for p in square_admissible]
    jobs.append((hzb_fan, finest_partition(hzb_fan)))
    for fan, partition in jobs:
        cw = build_cw(fan, partition)
        edges = {e.index: e for e in cw.edges}
        for _, word in cw.two_cells:
            boundary = {}
            for idx, sign in word:
                e = edges[idx]
                boundary[e.head] = boundary.get(e.head, 0) + sign
                boundary[e.tail] = boundary.get(e.tail, 0) - sign
            assert all(v == 0 for v in boundary.values())


def test_attaching_word_signs_balance_on_finest(square_fan, hzb_fan):
    # on the finest square/Hirzebruch fans the crossing signs cancel in total
    for fan in (square_fan, hzb_fan):
        cw = build_cw(fan, finest_partition(fan))
        for _, word in cw.two_cells:
            assert sum(sign for _, sign in word) == 0


def test_one_cell_degree_conservation(square_fan, square_admissible):
    for partition in square_admissible:
        cw = build_cw(square_fan, partition)
        unsigned = {}
        for _, word in cw.two_cells:
            for edge, _ in word:
                unsigned[edge] = unsigned.get(edge, 0) + 1
        # incidence count: walls of codim-2 representatives per wall block
        expected = {}
        for block_id, _ in cw.two_cells:
            rep = partition.blocks[block_id][0]
            for wall in square_fan.star(rep):
                if len(wall) != square_fan.dim - 1:
                    continue
                edge = next(e.index for e in cw.edges
                            if e.block == partition.block_of[wall])
                expected[edge] = expected.get(edge, 0) + 1
        assert unsigned == expected


def test_compare_pi1_picture_torus(square_fan, torus_partition):
    cw = build_cw(square_fan, torus_partition)
    poset = poset_from_linear_functional(square_fan, (1, 1))
    pic = G.picture_group(square_fan, torus_partition, poset, mode="codim2")
    report = compare_pi1_picture(cw, pic)
    assert report["generators_equal"]
    assert report["abelianizations_equal"]
    assert report["pi1_abelianization"] == {"free_rank": 2, "torsion": []}


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_pi1_and_picture_group_abelianize_alike(fan, b):
    chambers = fan.chambers()
    partition = admissible_closure(fan, [(chambers[0], c) for c in chambers[1:]])
    try:
        poset = poset_from_linear_functional(fan, b)
        pic = G.picture_group(fan, partition, poset, mode="codim2")
    except (DegenerateFunctional, PosetInvalid):
        assume(False)
    report = compare_pi1_picture(build_cw(fan, partition), pic)
    assert report["abelianizations_equal"]


def test_compare_pi1_picture_three_lines(three_lines_fan, three_lines_partition):
    cw = build_cw(three_lines_fan, three_lines_partition)
    pres = pi1_presentation(cw)
    assert len(pres.generators) == 3
    base = three_lines_fan.chambers()[0]
    poset = rank2_bisector_poset(three_lines_fan, base)
    pic = G.picture_group(three_lines_fan, three_lines_partition, poset,
                          mode="codim2")
    report = compare_pi1_picture(cw, pic)
    assert report["generators_equal"]
    assert report["abelianizations_equal"]


def test_compare_precondition(square_fan):
    cw = build_cw(square_fan, finest_partition(square_fan))
    dummy = G.Presentation([], [])
    with pytest.raises(PreconditionUnmet):
        compare_pi1_picture(cw, dummy)


def test_cw_json(square_fan, torus_partition):
    cw = build_cw(square_fan, torus_partition)
    data = cw.to_json()
    assert set(data) == {"cells", "one_skeleton", "two_cells",
                         "cube_decompositions"}
    assert len(data["one_skeleton"]) == 2


def test_cube_decomposition(square_fan, torus_partition):
    cw = build_cw(square_fan, torus_partition)
    zero_block = cw.partition.block_of[()]
    cubes = cw.cube_decomposition(zero_block)
    assert len(cubes) == 4  # one square per chamber over the origin
    assert all(sigma == () and len(tau) == 2 for sigma, tau in cubes)


def test_brauer_cw_structure(brauer):
    from partfan import groups as G
    from partfan.cw import compare_pi1_picture

    for partition in (brauer.flat, brauer.shard):
        cw = build_cw(brauer.fan, partition)
        counts = cw.cell_counts()
        assert len(counts) == 4 and counts[0] == 1 and counts[3] == 1
        for block_id, word in cw.two_cells:
            rep = partition.blocks[block_id][0]
            chambers = [c for c in brauer.fan.star(rep) if len(c) == 3]
            assert len(word) == len(chambers)
        pic = G.picture_group(brauer.fan, partition, brauer.poset,
                              mode="codim2")
        report = compare_pi1_picture(cw, pic)
        assert report["generators_equal"]
        assert report["abelianizations_equal"]


def assert_words_match_oracle(fan, partition):
    """Every 2-cell word equals the one ordered in the former Fraction frame."""
    complex_ = build_cw(fan, partition)
    edge_of_block = {e.block: e for e in complex_.edges}
    for block, word in complex_.two_cells:
        sigma = partition.blocks[block][0]
        assert list(word) == oracle._attaching_word(fan, partition, edge_of_block, sigma)


def test_catalogue_words_match_oracle(square_fan, torus_partition, hzb_fan,
                                      p1_partition, three_lines_fan,
                                      three_lines_partition, square_admissible,
                                      hzb_admissible):
    cases = [(square_fan, torus_partition), (hzb_fan, p1_partition),
             (three_lines_fan, three_lines_partition)]
    cases += [(square_fan, p) for p in square_admissible]
    cases += [(hzb_fan, p) for p in hzb_admissible]
    for fan, partition in cases:
        assert_words_match_oracle(fan, partition)


@pytest.mark.parametrize("which", ["flat", "shard", "finest"])
@pytest.mark.parametrize("name", ["A3", "brauer", "B3"])
def test_coxeter_words_match_oracle(name, which, coxeter_partitions):
    fan, partitions = coxeter_partitions[name]
    assert_words_match_oracle(fan, partitions[which])


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(max_rays=6))
def test_planar_words_match_oracle(fan):
    for partition in enumerate_admissible(fan)[::8]:
        assert_words_match_oracle(fan, partition)
