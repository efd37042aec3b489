"""The paper's rank-2 theorem over a seeded corpus of planar fans.

On the corpus, every admissible partition gives a cubical category, the
rank-2 certificate proves Psi faithful on every nondegenerate bisector
poset, and the last factors are pairwise compatible unless one
identification occurs: the fan is three lines through the origin and the
partition identifies all three pairs of opposite rays.
"""

from itertools import combinations

from hypothesis import given, settings

import search_oracles
from partfan import catalog
from partfan import groups as G
from partfan.category import (
    build_category,
    check_cubical,
    check_last_factor_compatibility,
)
from partfan.errors import PosetInvalid
from partfan.fan import build_fan
from partfan.partition import admissible_closure, enumerate_admissible
from partfan.poset import check_nondegenerate, rank2_bisector_poset
from strategies import angular_order, complete_planar_fans, seeded_planar_fan


def opposite_pairs(fan):
    """The pairs of opposite rays of a planar fan, as pairs of 1-cones."""
    return [((i,), (j,)) for i, r in enumerate(fan.rays)
            for j, s in enumerate(fan.rays) if i < j and s == (-r[0], -r[1])]


def last_factors_fail_expected(fan, partition):
    """Whether the fan is three lines with all opposite rays identified."""
    pairs = opposite_pairs(fan)
    return len(fan.rays) == 6 and len(pairs) == 3 and \
        all(partition.block_of[a] == partition.block_of[b] for a, b in pairs)


def bisector_posets(fan):
    """The bisector poset of each base ``rank2_bisector_poset`` accepts."""
    posets = []
    for base in fan.chambers():
        try:
            posets.append(rank2_bisector_poset(fan, base))
        except PosetInvalid:
            pass
    return posets


def assert_rank2_theorem(fan, partitions):
    """Asserts the theorem on each partition; returns the last-factor failures."""
    posets = bisector_posets(fan)
    failures = 0
    for partition in partitions:
        category = build_category(fan, partition)
        assert check_cubical(category).ok
        compatible, witness = check_last_factor_compatibility(category)
        assert compatible != last_factors_fail_expected(fan, partition), \
            (fan.rays, partition.blocks, witness)
        failures += not compatible
        for poset in posets:
            if check_nondegenerate(fan, partition, poset)[0]:
                ok, witness = G.rank2_faithfulness_certificate(category, poset)
                assert ok, (fan.rays, poset.extremes(poset.elements), partition.blocks, witness)
    return failures


# (name, fan, admissible partitions, those whose last factors fail)
CORPUS = [
    ("square", catalog.square, 20, 0),
    ("hirzebruch(1)", lambda: catalog.hirzebruch(1), 17, 0),
    ("hirzebruch(2)", lambda: catalog.hirzebruch(2), 17, 0),
    ("three_lines", catalog.three_lines, 256, 2),
    ("symmetric, 4 rays", lambda: seeded_planar_fan(1, 4, True), 20, 0),
    ("symmetric, 6 rays", lambda: seeded_planar_fan(1, 6, True), 256, 2),
    ("asymmetric, 5 rays", lambda: seeded_planar_fan(1, 5, False), 52, 0),
    ("asymmetric, 6 rays", lambda: seeded_planar_fan(1, 6, False), 203, 0),
]


def test_rank2_theorem_over_a_seeded_corpus():
    for name, make, count, failing in CORPUS:
        fan = make()
        partitions = enumerate_admissible(fan)
        assert (len(partitions), assert_rank2_theorem(fan, partitions)) == \
            (count, failing), name


def assert_separation_fails(category, poset, witness):
    """The certificate's (False, witness) names two parallel morphisms whose
    words have the same abelianized image modulo the relator lattice."""
    pres = G.picture_group(category.fan, category.partition, poset)
    a, b = witness["morphisms"]
    assert a != b and a in category.hom[tuple(witness["hom"])] \
        and b in category.hom[tuple(witness["hom"])]
    rows = [G._abelianized(G.psi(category.fan, category.partition, poset,
                                 category.morphisms[i]), pres.generators)
            for i in (a, b)]
    in_lattice = G.row_lattice_member(G._abelianized(w, pres.generators)
                                      for w in pres.relators)
    assert in_lattice([x - y for x, y in zip(*rows)])


@settings(max_examples=40, deadline=None)
@given(complete_planar_fans())
def test_rank2_theorem_on_the_closure_of_all_opposite_pairs(fan):
    """Beyond six rays the exception is wider, and the certificate can
    fail: with 7 to 10 rays, identifying exactly three opposite pairs can
    break the last factors, and with two identified pairs the abelianized
    separation can fail where the words differ in G.  So this case asserts
    what held on every fan tried: the category is cubical, the last factors fail
    only when exactly three opposite pairs are identified and always on
    three lines, and a failed certificate names an unseparated pair."""
    pairs = opposite_pairs(fan)
    partition = admissible_closure(fan, pairs)
    category = build_category(fan, partition)
    assert check_cubical(category).ok
    compatible, _ = check_last_factor_compatibility(category)
    if last_factors_fail_expected(fan, partition):
        assert not compatible
    assert compatible or len(pairs) == 3
    for poset in bisector_posets(fan):
        if check_nondegenerate(fan, partition, poset)[0]:
            ok, witness = G.rank2_faithfulness_certificate(category, poset)
            if not ok:
                assert_separation_fails(category, poset, witness)


def incompatible_last_factor_sets(category):
    """The sets that break last-factor compatibility, read off the definition.

    Every set of k >= 3 rank-1 morphisms into one object whose pairs are
    each the last-factor set of a rank-2 morphism into it must be the
    last-factor set of a rank-k morphism into it.  Each subset is tested,
    with no clique search; the last factors are those of
    ``search_oracles.last_factors``.
    """
    realized = {}
    for m in category.morphisms:
        if m.rank >= 2:
            realized.setdefault((m.target, m.rank), set()).add(
                tuple(x.index for x in search_oracles.last_factors(category, m)))
    failing = []
    for obj in category.objects:
        rank1 = [m.index for m in category.morphisms if m.target == obj and m.rank == 1]
        for k in range(3, len(rank1) + 1):
            for subset in combinations(rank1, k):
                if all(pair in realized.get((obj, 2), ())
                       for pair in combinations(subset, 2)) \
                        and subset not in realized.get((obj, k), ()):
                    failing.append(subset)
    return failing


def found_seven_ray_fan():
    """Three lines plus the ray (-4, -3): its last factors fail, beyond the
    six-ray exception."""
    rays = angular_order([(4, 1), (-4, 3), (-4, 1), (-4, -1), (-4, -3), (4, -3), (4, -1)])
    return build_fan(2, rays, [tuple(sorted((i, (i + 1) % 7))) for i in range(7)])


def test_last_factor_check_matches_its_definition():
    """On every admissible partition of the corpus and of the seven-ray fan,
    the clique search fails exactly where some set breaks the definition,
    and its witness is such a set."""
    partitions = failures = 0
    for _, make, _, _ in CORPUS + [("seven rays", found_seven_ray_fan, None, None)]:
        fan = make()
        for partition in enumerate_admissible(fan):
            category = build_category(fan, partition)
            compatible, witness = check_last_factor_compatibility(category)
            failing = incompatible_last_factor_sets(category)
            assert compatible == (not failing), (fan.rays, partition.blocks)
            assert compatible or witness in failing
            partitions += 1
            failures += not compatible
    assert (partitions, failures) == (1891, 6)
