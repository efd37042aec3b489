import gc
import random
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracles as oracle
from fraction_oracles import mat_vec
import search_oracles
from partfan import arrangement as arrlib
from partfan import catalog
from partfan import partition as partlib
from partfan.errors import (
    EnumerationLimitExceeded,
    FanMismatch,
    PossibleIdentViolation,
    PreconditionUnmet,
    SeedNotPossible,
    UnknownCone,
)
from partfan.fan import build_fan
from partfan.partition import (
    Partition,
    _coarser_partitions,
    _next_mates,
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
from partfan.rational import primitive_ray
from strategies import (
    A3_NORMALS,
    b_normals,
    complete_planar_fans,
    random_cone_set,
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


def assert_matches_product_filter(fan):
    """The same partitions in the same order as the product filter, whose
    candidates are built by ``Partition(fan, blocks)``, down to the order
    of ``block_of``."""
    pruned = enumerate_admissible(fan)
    assert [(p.blocks, list(p.block_of.items())) for p in pruned] == \
        [(p.blocks, list(p.block_of.items())) for p in search_oracles.enumerate_admissible(fan)]
    assert all(p.fan is fan for p in pruned)
    return pruned


def test_pruned_enumeration_matches_product_filter_on_catalog():
    for fan in [catalog.square(), catalog.three_lines()] + \
            [catalog.hirzebruch(a) for a in range(4)]:
        assert_matches_product_filter(fan)


def spanning_pairs(rng, equivalence):
    """Pairs that span ``equivalence``: each member joined to an earlier
    member of its block, a few pairs twice, in random orientation and
    order."""
    pairs = [(rng.choice(b[:i]), b[i]) for b in equivalence for i in range(1, len(b))]
    pairs += rng.sample(pairs, min(2, len(pairs)))
    pairs = [pair[::rng.choice((1, -1))] for pair in pairs]
    rng.shuffle(pairs)
    return pairs


def test_coarser_partitions_are_the_filtered_set_partitions():
    """For every equivalence on at most 5 positions, and a seeded sample
    on 6 and 7, ``_coarser_partitions`` yields the set partitions of the
    product filter's ``_set_partitions`` in which every spanning pair
    shares a block, in that order, and the one-block partition among
    them."""
    rng = random.Random(1)
    cases = [(n, e) for n in range(1, 6)
             for e in search_oracles._set_partitions(list(range(n)))]
    cases += [(n, e) for n in (6, 7)
              for e in rng.sample(list(search_oracles._set_partitions(list(range(n)))), 30)]
    for n, equivalence in cases:
        pairs = spanning_pairs(rng, equivalence)
        expected = [list(map(tuple, part))
                    for part in search_oracles._set_partitions(list(range(n)))
                    if all(any(p in b and q in b for b in part) for p, q in pairs)]
        chosen = list(_coarser_partitions(_next_mates(n, pairs)))
        assert chosen == expected, (n, pairs)
        assert [tuple(range(n))] in chosen


def test_leaves_are_sorted_without_block_keys_and_fill_block_of_on_first_read(monkeypatch):
    """Leaves sort their blocks by rank in ``fan.cones``, with no
    ``_block_key`` call, and leave ``block_of`` unfilled until it is read;
    then each equals ``Partition(fan, leaf.blocks)``, whose constructor
    still checks the blocks."""
    fans = [catalog.square(), catalog.three_lines()] + [catalog.hirzebruch(a) for a in range(4)]
    for fan in fans:
        potential_identifications(fan)  # its classes are a Partition built with keys
    with monkeypatch.context() as patch:
        patch.setattr(partlib, "_block_key", mock.Mock(side_effect=AssertionError))
        enumerated = [(fan, enumerate_admissible(fan)) for fan in fans]
    for fan, leaves in enumerated:
        assert leaves and not any("block_of" in p.__dict__ for p in leaves)
        for p in leaves:
            built = Partition(fan, p.blocks)
            assert list(p.block_of.items()) == list(built.block_of.items())
            assert p.blocks == built.blocks and p.__dict__.keys() == built.__dict__.keys()
        with pytest.raises(FanMismatch):
            Partition(fan, leaves[0].blocks[:-1])


@pytest.mark.parametrize("fan", [catalog.square(), catalog.three_lines(), catalog.hirzebruch(2)],
                         ids=["square", "three-lines", "hirzebruch2"])
def test_pruned_enumeration_matches_product_filter_without_a_chamber(fan):
    """Non-complete fans: their boundary rays form classes of their own."""
    for dropped in range(len(fan.max_cones)):
        cut = build_fan(2, fan.rays, fan.max_cones[:dropped] + fan.max_cones[dropped + 1:])
        assert_matches_product_filter(cut)


THREE_D_FANS = {
    # name: (rays, maximal cones, cone count)
    "one chamber": ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)], 8),
    "two chambers on a wall": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)],
                               [(0, 1, 2), (0, 1, 3)], 12),
    "two opposite chambers": ([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                               (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
                              [(0, 1, 2), (3, 4, 5)], 15),
    # the walls off the axis lie in one plane, so walls and chambers form
    # classes of 3, and identifying two walls forces a pair of chambers
    "three chambers around a ray": ([(0, 0, 1), (1, 0, 0), (0, 1, 0), (-1, -1, 0)],
                                    [(0, 1, 2), (0, 2, 3), (0, 1, 3)], 14),
}


@pytest.mark.parametrize("name", sorted(THREE_D_FANS))
def test_pruned_enumeration_matches_product_filter_in_three_dimensions(name):
    rays, max_cones, count = THREE_D_FANS[name]
    fan = build_fan(3, rays, max_cones)
    assert len(fan.cones) == count
    assert_matches_product_filter(fan)


def test_pruned_enumeration_matches_product_filter_across_classes():
    """An overlapping fan: two cones of star(-e3), (-e3, e1 + e3) and
    (-e3, e1 - e3), project to the ray e1, so matching e3 with -e3 would
    send the wall (e3, e1) into another E-class.  The fan is refused before
    any class is formed, and the refusal is not kept."""
    rays = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0), (1, 0, 1), (1, 0, -1)]
    fan = build_fan(3, rays, [(0, 2, 3), (1, 3, 4), (1, 5)])
    assert len(fan.cones) == 16
    for _ in range(2):
        with pytest.raises(PreconditionUnmet) as raised:
            enumerate_admissible(fan)
        assert raised.value.witness == [[1], [1, 4], [1, 5]]
    assert (potential_identifications,) not in fan._memo


def test_three_chambers_around_a_ray_forces_chamber_pairs():
    rays, max_cones, _ = THREE_D_FANS["three chambers around a ray"]
    fan = build_fan(3, rays, max_cones)
    classes = potential_identifications(fan).classes
    assert [c for c in classes if len(c) > 1] == [((1, 2), (1, 3), (2, 3)),
                                                  ((0, 1, 2), (0, 1, 3), (0, 2, 3))]
    assert _star_matching(fan, (1, 2), (1, 3)) == {(1, 2): (1, 3), (0, 1, 2): (0, 1, 3)}


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(max_rays=7))
def test_pruned_enumeration_matches_product_filter_on_planar_fans(fan):
    assert len(fan.cones) <= 16
    assert_matches_product_filter(fan)


def test_admissibility_verdicts_are_kept_per_fan():
    """The square keeps the verdict of each of its admissible partitions, and
    a memo hit, with the partition or an equal one, checks no E-class and
    matches no star.  The blocks that join rays 0 and 2 cross the E-classes
    of hirzebruch(1): there they raise on every call and leave no entry."""
    square, hzb = catalog.square(), catalog.hirzebruch(1)
    partitions = enumerate_admissible(square)
    for p in partitions:
        assert is_admissible(square, p) == (True, None)
        assert square._memo[is_admissible, p] == (True, None)

    def fail(*args):
        raise AssertionError("recomputed on a memo hit")

    with mock.patch.object(partlib, "_check_possible", fail), \
            mock.patch.object(partlib, "_star_matching", fail):
        for p in partitions:
            assert is_admissible(square, p) == (True, None)
            assert is_admissible(square, Partition(square, p.blocks)) == (True, None)
    crossing = [p.blocks for p in partitions if p.block_of[(0,)] == p.block_of[(2,)]]
    assert len(crossing) == 3
    checks = []
    real_check = partlib._check_possible

    def check(fan, partition):
        checks.append(partition)
        return real_check(fan, partition)

    with mock.patch.object(partlib, "_check_possible", check):
        for blocks in crossing:
            twin = Partition(hzb, blocks)
            for _ in range(2):
                with pytest.raises(PossibleIdentViolation):
                    is_admissible(hzb, twin)
    assert len(checks) == 2 * len(crossing)
    assert not any(k[0] is is_admissible for k in hzb._memo)


def test_admissibility_is_decided_once_per_partition():
    fan = catalog.hirzebruch(1)
    partitions = [catalog.hirzebruch_p1(fan), from_blocks(fan, [[(1,), (3,)]])]
    verdicts = [is_admissible(fan, p) for p in partitions]
    assert verdicts == [(True, None), (False, ((1,), (3,), (0, 1), (0, 3)))]

    def fail(*args):
        raise AssertionError("star matching recomputed")

    with mock.patch.object(partlib, "_star_matching", fail):
        assert [is_admissible(fan, Partition(fan, p.blocks)) for p in partitions] == verdicts
        with pytest.raises(PossibleIdentViolation):
            is_admissible(fan, from_blocks(fan, [[(0,), (2,)]]))


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
        if p.block_of[seed[0]] == p.block_of[seed[1]]:
            assert refines(closure, p)


def test_partition_json_roundtrip(square_fan, torus_partition):
    data = torus_partition.to_json()
    again = partition_from_json(square_fan, data)
    assert again == torus_partition


def test_partition_json_defaults_singletons(square_fan):
    p = partition_from_json(square_fan, {"blocks": [[[0], [2]]]})
    assert p.block_of[(0,)] == p.block_of[(2,)]
    assert p.block_of[(0, 1)] != p.block_of[(0, 3)]


def test_partition_checks_its_cone_arguments(torus_partition):
    p = torus_partition

    def block(cone):
        return p.blocks[p.block_of[p.fan.check_cone(cone)]]

    for bad in ((9,), (0, 2), (0.0,), "x"):
        with pytest.raises(UnknownCone):
            block(bad)
    assert block((1, 0)) == block((0, 1)) == block([0, 1])
    assert block((0,)) == block((2,)) != block((1,))


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


@pytest.mark.parametrize("at", [0, 2])
def test_an_empty_block_is_refused_with_its_position(square_fan, at):
    """An empty block has no least cone to be sorted by: it is refused, and
    the witness is its position among the blocks given."""
    singletons = [[c] for c in square_fan.cones]
    with pytest.raises(FanMismatch) as err:
        Partition(square_fan, singletons[:at] + [[]] + singletons[at:])
    assert err.value.witness == at


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
                            [(c, sides[c]) for c in fan._star_chambers(w0)])
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
    assert all(closure.block_of[c] == closure.block_of[sides[c]]
               for c in fan._star_chambers(w1))


def test_overlapping_fan_is_checked_pair_by_pair():
    # cones (0, 1) and (0, 2) overlap: both project along ray 0 to one cone
    fan = build_fan(2, [(1, 0), (0, 1), (1, 1), (-1, 0)], [(0, 1), (0, 2), (1, 3), (2, 3)])
    partition = from_blocks(fan, [[(0,), (3,)]])
    for refused in (lambda: potential_identifications(fan),
                    lambda: is_admissible(fan, partition),
                    lambda: search_oracles.is_admissible(fan, partition),
                    lambda: admissible_closure(fan, [((0,), (3,))])):
        with pytest.raises(PreconditionUnmet) as raised:
            refused()
        assert raised.value.witness == [[0], [0, 1], [0, 2]]
    assert potential_identifications(catalog.square()).same_class((0,), (2,))


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


def _fraction_route(fan):
    """(projected star maps, refused cone, E-classes) of the former Fraction
    route: the Gram-inverse projection of each cone, then primitive rays, and
    the classes keyed by the Fraction rref of the span and the projected star.

    The refused cone is the first whose star projects non-injectively,
    where ``potential_identifications`` raises PreconditionUnmet, and the
    classes are then None.
    """
    former = {}
    for c in fan.cones:
        p = oracle.complement_projection(fan.ray_vectors(c), dim=fan.dim)
        former[c] = {t: tuple(sorted({primitive_ray(mat_vec(p, fan.rays[i]))
                                      for i in t if i not in c}))
                     for t in fan.star(c)}
    refused = next((c for c in fan.cones
                    if len(set(former[c].values())) < len(former[c])), None)
    if refused is not None:
        return former, refused, None
    return former, None, group_by(fan, lambda c: (oracle.rref(fan.ray_vectors(c))[0],
                                                  frozenset(former[c].values()))).blocks


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
    former, refused, classes = _fraction_route(fan)
    for c in fan.cones:
        assert fan._project_star_map(c) == former[c]
    assert refused is None
    assert potential_identifications(fan).classes == classes


def test_cone_sets_match_the_fraction_route():
    """On incomplete cone sets, where a star without a chamber takes the
    span-keyed E-class key, the facet route gives the Fraction route's
    projected stars, E-classes and refusals."""
    outcomes = set()
    for dim in (2, 3):
        for seed in range(150):
            fan = random_cone_set(dim, seed)
            former, refused, classes = _fraction_route(fan)
            for c in fan.cones:
                assert fan._project_star_map(c) == former[c], (dim, seed, c)
            if refused is not None:
                with pytest.raises(PreconditionUnmet) as err:
                    potential_identifications(fan)
                assert err.value.witness[0] == list(refused), (dim, seed)
                outcomes.add("refused")
                continue
            assert potential_identifications(fan).classes == classes, (dim, seed)
            if any(len(b) > 1 and not fan._star_chambers(b[0]) for b in classes):
                outcomes.add("fallback")
    assert outcomes == {"refused", "fallback"}


@pytest.mark.parametrize("dim, seed, block", [
    (2, 9, ((2,), (3,))), (3, 186, ((0, 2), (2, 4)))])
def test_span_fallback_joins_cones_whose_stars_hold_no_chamber(dim, seed, block):
    """Two opposite rays, and two cones spanning one plane, whose stars
    hold no chamber: the span-keyed E-class key joins them, as the
    Fraction route does."""
    fan = random_cone_set(dim, seed)
    classes = potential_identifications(fan).classes
    assert block in classes
    assert classes == _fraction_route(fan)[2]
    assert not any(fan._star_chambers(c) for c in block)


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
