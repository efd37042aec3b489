import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracles as oracle
import search_oracles
from partfan import arrangement as arrlib
from partfan import catalog
from partfan.errors import (
    EnumerationLimitExceeded,
    FanMismatch,
    PossibleIdentViolation,
    SeedNotPossible,
)
from partfan.fan import build_fan
from partfan.partition import (
    Partition,
    _projects_injectively,
    _star_matching,
    admissible_closure,
    enumerate_admissible,
    from_blocks,
    group_by,
    is_admissible,
    join,
    meet,
    partition_from_json,
    potential_identifications,
    refines,
)
from partfan.rational import mat_vec, primitive_ray
from strategies import (
    A3_NORMALS,
    b_normals,
    complete_planar_fans,
    random_seeds,
    refining_partition,
)

HZB_P1_BLOCKS = (((),), ((0,),), ((1,), (3,)), ((2,),),
                 ((0, 1), (0, 3)), ((1, 2), (2, 3)))


def test_potentials_hirzebruch(hzb_fan):
    ident = potential_identifications(hzb_fan)
    assert ident.classes == (
        ((),), ((0,),), ((1,), (3,)), ((2,),),
        ((0, 1), (0, 3), (1, 2), (2, 3)),
    )


def test_potentials_square(square_fan):
    ident = potential_identifications(square_fan)
    assert ident.classes == (
        ((),), ((0,), (2,)), ((1,), (3,)),
        ((0, 1), (0, 3), (1, 2), (2, 3)),
    )


def test_potentials_quadrant_all_singletons():
    quadrant = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    ident = potential_identifications(quadrant)
    assert all(len(c) == 1 for c in ident.classes)


def test_is_admissible_p1(hzb_fan, p1_partition):
    assert p1_partition.blocks == HZB_P1_BLOCKS
    ok, witness = is_admissible(hzb_fan, p1_partition)
    assert ok and witness is None


def test_is_admissible_witness(hzb_fan):
    bad = from_blocks(hzb_fan, [[(1,), (3,)]])
    ok, witness = is_admissible(hzb_fan, bad)
    assert not ok
    # sigma2, sigma4, tau2, tau1 in the labelling of the pictures
    assert witness == ((1,), (3,), (0, 1), (0, 3))


def test_is_admissible_finest(square_fan):
    ok, witness = is_admissible(square_fan, from_blocks(square_fan, []))
    assert ok


def test_is_admissible_rejects_impossible(square_fan):
    bad = from_blocks(square_fan, [[(0,), (1,)]])
    with pytest.raises(PossibleIdentViolation):
        is_admissible(square_fan, bad)


def test_closure_p1(hzb_fan, p1_partition):
    assert admissible_closure(hzb_fan, [((1,), (3,))]) == p1_partition


def test_closure_torus(square_fan, torus_partition):
    chambers = set(square_fan.chambers())
    block = next(b for b in torus_partition.blocks if set(b) == chambers)
    assert len(block) == 4


def test_closure_empty_seed(square_fan):
    assert admissible_closure(square_fan, []) == from_blocks(square_fan, [])


def test_closure_bad_seed(square_fan):
    with pytest.raises(SeedNotPossible):
        admissible_closure(square_fan, [((0,), (1,))])


def test_lattice_bounds(hzb_fan, p1_partition):
    finest = from_blocks(hzb_fan, [])
    assert meet(p1_partition, finest) == finest
    assert join(p1_partition, finest) == p1_partition


def test_join_reaches_coarsest(hzb_fan):
    c1 = admissible_closure(hzb_fan, [((1,), (3,))])
    c2 = admissible_closure(hzb_fan, [((0, 3), (2, 3))])
    coarsest = potential_identifications(hzb_fan).partition
    assert join(c1, c2) == coarsest


def test_meet_blockwise(square_fan, torus_partition):
    c = admissible_closure(square_fan, [((0,), (2,))])
    coarsest = potential_identifications(square_fan).partition
    assert meet(coarsest, c) == c
    assert refines(c, torus_partition)


def test_refines_is_partial_order(square_admissible):
    finest = next(p for p in square_admissible
                  if all(len(b) == 1 for b in p.blocks))
    coarsest = max(square_admissible, key=lambda p: -len(p.blocks))
    for p in square_admissible:
        assert refines(finest, p)
        assert refines(p, coarsest)
        assert refines(p, p)
    for p in square_admissible:
        for q in square_admissible:
            if refines(p, q) and refines(q, p):
                assert p == q


def test_enumerate_counts(square_admissible, hzb_admissible):
    assert len(square_admissible) == 20
    assert len(hzb_admissible) == 17


def test_enumerate_limit(square_fan):
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_admissible(square_fan, limit=4)


def test_pruned_enumeration_matches_product_filter_on_catalog():
    for fan in [catalog.square(), catalog.three_lines()] + \
            [catalog.hirzebruch(a) for a in range(4)]:
        pruned = enumerate_admissible(fan)
        assert [p.blocks for p in pruned] == \
            [p.blocks for p in search_oracles.enumerate_admissible(fan)]
        assert all(p.fan is fan for p in pruned)


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(max_rays=7))
def test_pruned_enumeration_matches_product_filter_on_planar_fans(fan):
    assert len(fan.cones) <= 16
    assert [p.blocks for p in enumerate_admissible(fan)] == \
        [p.blocks for p in search_oracles.enumerate_admissible(fan)]


def test_coarsest_is_admissible_everywhere(square_fan, hzb_fan, three_lines_fan):
    for fan in (square_fan, hzb_fan, three_lines_fan):
        coarsest = potential_identifications(fan).partition
        ok, witness = is_admissible(fan, coarsest)
        assert ok, witness


def test_meet_join_closure(square_fan, square_admissible):
    for p in square_admissible:
        for q in square_admissible:
            for r in (meet(p, q), join(p, q)):
                ok, witness = is_admissible(square_fan, r)
                assert ok, witness
                assert refines(meet(p, q), p) and refines(meet(p, q), q)
                assert refines(p, join(p, q)) and refines(q, join(p, q))


def test_closure_minimality(hzb_fan, hzb_admissible):
    seed = ((1,), (3,))
    closure = admissible_closure(hzb_fan, [seed])
    for p in hzb_admissible:
        if p.same_block(*seed):
            assert refines(closure, p)


def test_partition_json_roundtrip(square_fan, torus_partition):
    data = torus_partition.to_json()
    again = partition_from_json(square_fan, data)
    assert again == torus_partition


def test_partition_json_defaults_singletons(square_fan):
    p = partition_from_json(square_fan, {"blocks": [[[0], [2]]]})
    assert p.same_block((0,), (2,))
    assert not p.same_block((0, 1), (0, 3))


def test_fan_mismatch(square_fan, hzb_fan):
    p = from_blocks(square_fan, [])
    q = from_blocks(hzb_fan, [])
    with pytest.raises(FanMismatch):
        meet(p, q)


def test_partition_blocks_are_canonical_and_checked(square_fan):
    p = Partition(square_fan, [[(2,), (0,)], [(0, 3), (0, 1)]] +
                  [[c] for c in square_fan.cones if c not in ((0,), (2,), (0, 1), (0, 3))])
    assert p.blocks == (((),), ((0,), (2,)), ((1,),), ((3,),),
                        ((0, 1), (0, 3)), ((1, 2),), ((2, 3),))
    with pytest.raises(FanMismatch) as err:
        Partition(square_fan, [[c] for c in square_fan.cones] + [[(1,), (3,)]])
    assert err.value.witness == [1]
    with pytest.raises(FanMismatch) as err:
        Partition(square_fan, [[(0,), (0,)]] + [[c] for c in square_fan.cones])
    assert err.value.witness == [0]
    with pytest.raises(FanMismatch) as err:
        Partition(square_fan, [[c] for c in square_fan.cones if c != (1,)] + [[(7,)]])
    assert err.value.witness == {"missing": [[1]], "unknown": [[7]]}


def _oracle_fans():
    a3 = arrlib.arrangement_fan(arrlib.Arrangement(3, A3_NORMALS), with_signs=True)
    brauer = arrlib.arrangement_fan(catalog.brauer(), with_signs=True)
    return ([catalog.square(), catalog.three_lines(), catalog.hirzebruch(1),
             catalog.hirzebruch(2), a3.fan, brauer.fan],
            [arrlib.shard_partition(arrfan.arrangement, arrfan, arrfan.fan.chambers()[k])
             for arrfan in (a3, brauer) for k in (0, 5)])


def test_block_checks_match_the_pairwise_oracles():
    """is_admissible and admissible_closure match each member of a block
    with its first member only; the former scans matched every pair."""
    rng = random.Random(9)
    fans, shard_partitions = _oracle_fans()
    failures = 0
    for fan in fans:
        partitions = [refining_partition(fan, rng) for _ in range(25)]
        for _ in range(8):
            seeds = random_seeds(fan, rng)
            closure = admissible_closure(fan, seeds)
            assert closure.blocks == search_oracles.admissible_closure(fan, seeds).blocks
            partitions.append(closure)
        partitions += [p for p in shard_partitions if p.fan is fan]
        for p in partitions:
            result = is_admissible(fan, p)
            assert result == search_oracles.is_admissible(fan, p)
            failures += not result[0]
    assert failures > 100


def test_block_fails_at_a_later_member(brauer):
    """Walls w0, w1, w2 of one hyperplane in one block, with the chambers of
    w0 and w1 identified side by side and those of w2 left alone: only the
    pairs with w2 fail, and the witness is the pair scan's first."""
    fan = brauer.fan
    w0, w1, w2 = next(b for b in brauer.flat.blocks if len(b[0]) == 2 and len(b) >= 3)[:3]
    sides = _star_matching(fan, w0, w1)
    partition = from_blocks(fan, [(w0, w1, w2)] +
                            [(c, sides[c]) for c in fan.star_chambers(w0)])
    ok, witness = is_admissible(fan, partition)
    assert not ok and witness[:2] == (w0, w2)
    assert (ok, witness) == search_oracles.is_admissible(fan, partition)


def test_closure_merges_along_every_member(brauer):
    fan = brauer.fan
    w0, w1, w2 = next(b for b in brauer.flat.blocks if len(b[0]) == 2 and len(b) >= 3)[:3]
    seeds = [(w1, w2), (w0, w2)]
    closure = admissible_closure(fan, seeds)
    assert closure.blocks == search_oracles.admissible_closure(fan, seeds).blocks
    sides = _star_matching(fan, w1, w2)
    assert all(closure.same_block(c, sides[c]) for c in fan.star_chambers(w1))


def test_overlapping_fan_is_checked_pair_by_pair():
    # cones (0, 1) and (0, 2) overlap: both project along ray 0 to one cone
    fan = build_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 0)], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert not _projects_injectively(fan, ((0,), (3,)))
    assert _projects_injectively(catalog.square(), ((0,), (2,)))
    partition = from_blocks(fan, [[(0,), (3,)]])
    assert is_admissible(fan, partition) == search_oracles.is_admissible(fan, partition)


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(), st.integers(0, 2 ** 32))
def test_block_checks_match_the_pairwise_oracles_on_planar_fans(fan, seed):
    rng = random.Random(seed)
    for _ in range(5):
        p = refining_partition(fan, rng)
        assert is_admissible(fan, p) == search_oracles.is_admissible(fan, p)
        seeds = random_seeds(fan, rng)
        assert admissible_closure(fan, seeds).blocks == \
            search_oracles.admissible_closure(fan, seeds).blocks


def _pairwise_identified(fan, a, b):
    """Reference predicate: equal length, equal span, equal projected star."""
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    return (oracle.span_equal(fan.ray_vectors(a), fan.ray_vectors(b))
            and fan.project_star(a) == fan.project_star(b))


def test_possible_identification_is_equivalence(square_fan, hzb_fan,
                                                three_lines_fan, brauer):
    for fan in (square_fan, hzb_fan, three_lines_fan):
        cones = fan.cones
        table = {(a, b): _pairwise_identified(fan, a, b)
                 for a in cones for b in cones}
        for a in cones:
            assert table[(a, a)]
            for b in cones:
                assert table[(a, b)] == table[(b, a)]
                for c in cones:
                    if table[(a, b)] and table[(b, c)]:
                        assert table[(a, c)]
    # the E-classes are exactly the classes of the pairwise predicate
    for fan in (square_fan, hzb_fan, three_lines_fan, brauer.fan):
        ident = potential_identifications(fan)
        for a in fan.cones:
            for b in fan.cones:
                assert ident.same_class(a, b) == _pairwise_identified(fan, a, b)


def fraction_projected_cone(fan, base, cone):
    """The former projected cone: the Gram-inverse projection, then primitive rays."""
    p = oracle.complement_projection(fan.ray_vectors(base), dim=fan.dim)
    return tuple(sorted({primitive_ray(mat_vec(p, fan.rays[i]))
                         for i in cone if i not in base}))


INTEGER_CORE_FANS = {
    **{name: make for name, make in catalog.EXAMPLES.items() if name != "brauer3"},
    "brauer": lambda: arrlib.arrangement_fan(catalog.brauer()),
    "A3": lambda: arrlib.arrangement_fan(arrlib.Arrangement(3, A3_NORMALS)),
    "B3": lambda: arrlib.arrangement_fan(arrlib.Arrangement(3, b_normals(3))),
    "B4": lambda: arrlib.arrangement_fan(arrlib.Arrangement(4, b_normals(4))),
}


@pytest.mark.parametrize("name", sorted(INTEGER_CORE_FANS))
def test_integer_core_matches_fraction_route(name):
    """Integer projections and span keys give the former cones and E-classes,
    whose key was the Fraction rref of the span and the Fraction projected star."""
    fan = INTEGER_CORE_FANS[name]()
    former = {c: {t: fraction_projected_cone(fan, c, t) for t in fan.star(c)}
              for c in fan.cones}
    for c in fan.cones:
        assert fan.project_star_map(c) == former[c]
    classes = group_by(fan, lambda c: (oracle.rref(fan.ray_vectors(c))[0],
                                       frozenset(former[c].values()))).blocks
    assert potential_identifications(fan).classes == classes


def test_potential_identifications_do_not_keep_the_fan_alive():
    from partfan.catalog import hirzebruch

    fan = hirzebruch(2)
    assert potential_identifications(fan) is potential_identifications(fan)
    ref = weakref.ref(fan)
    del fan
    gc.collect()
    assert ref() is None


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(), st.data())
def test_admissible_closure_is_idempotent(fan, data):
    classes = [c for c in potential_identifications(fan).classes if len(c) > 1]
    pair = st.sampled_from(classes).flatmap(
        lambda c: st.tuples(st.sampled_from(c), st.sampled_from(c)))
    seeds = data.draw(st.lists(pair, max_size=3))
    closure = admissible_closure(fan, seeds)
    again = admissible_closure(fan, [(b[0], c) for b in closure.blocks for c in b[1:]])
    assert again == closure
    assert is_admissible(fan, closure) == (True, None)


@settings(max_examples=15, deadline=None)
@given(complete_planar_fans(max_rays=6), st.data())
def test_meet_and_join_obey_the_lattice_laws(fan, data):
    admissible = st.sampled_from(enumerate_admissible(fan))
    for _ in range(10):
        p, q, r = (data.draw(admissible) for _ in range(3))
        assert meet(p, q) == meet(q, p)
        assert join(p, q) == join(q, p)
        assert meet(meet(p, q), r) == meet(p, meet(q, r))
        assert join(join(p, q), r) == join(p, join(q, r))
        assert meet(p, join(p, q)) == p
        assert join(p, meet(p, q)) == p
