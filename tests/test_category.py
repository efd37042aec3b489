import copy
import importlib.util
import json
import random
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings

import search_oracles as oracle
from partfan import arrangement as arrlib
from partfan import category as catlib
from partfan.category import (
    build_category,
    check_cubical,
    check_last_factor_compatibility,
    compose,
    export_category_dot,
    last_factors,
)
from partfan.errors import (
    NotAdmissible,
    NotAFace,
    NotComposable,
    PreconditionUnmet,
    RankZero,
)
from partfan.fan import Fan, build_fan, is_finite_complete, validate_fan
from partfan.partition import (
    admissible_closure,
    enumerate_admissible,
    from_blocks,
    is_admissible,
    potential_identifications,
)
from strategies import A3_NORMALS, A4_ESSENTIAL, complete_planar_fans, random_cone_set


def coordinate_fan_r3():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    octants = [tuple(sorted(t)) for t in product((0, 3), (1, 4), (2, 5))]
    return build_fan(3, rays, octants)


def test_build_category_hzb_p1(hzb_fan, p1_partition):
    cat = build_category(hzb_fan, p1_partition)
    assert len(cat.objects) == 6
    s24 = cat.partition.block_of[(1,)]
    t12 = cat.partition.block_of[(0, 1)]
    t34 = cat.partition.block_of[(1, 2)]
    # the morphisms a and b of the figure: one into each chamber block
    a = [cat.morphisms[i] for i in cat.hom[s24, t12]]
    b = [cat.morphisms[i] for i in cat.hom[s24, t34]]
    assert len(a) == 1 and len(b) == 1
    assert a[0].signature == ((1, 0),) and b[0].signature == ((-1, 0),)
    assert {(s, t) for s, t in a[0].reps} == {((1,), (0, 1)), ((3,), (0, 3))}


def test_cylinder_category_hom_table(hzb_fan, p1_partition):
    """Full hom-set size table of the cylinder category, node by node."""
    cat = build_category(hzb_fan, p1_partition)
    b = cat.partition.block_of
    zero, s1, s24, s3 = b[()], b[(0,)], b[(1,)], b[(2,)]
    t12, t34 = b[(0, 1)], b[(1, 2)]
    sizes = {k: len(v) for k, v in cat.hom.items()}
    assert sizes == {
        (zero, zero): 1, (s1, s1): 1, (s24, s24): 1, (s3, s3): 1,
        (t12, t12): 1, (t34, t34): 1,
        (zero, s1): 1, (zero, s24): 2, (zero, s3): 1,
        (zero, t12): 2, (zero, t34): 2,
        (s1, t12): 2, (s3, t34): 2,
        (s24, t12): 1, (s24, t34): 1,
    }
    assert len(cat.morphisms) == 20


def test_hirzebruch_family_parameter():
    from partfan.catalog import hirzebruch, hirzebruch_p1

    for a in (2, 3):
        fan = hirzebruch(a)
        assert fan.rays[2] == (-1, a)
        partition = hirzebruch_p1(fan)
        assert partition.block_of[(1,)] == partition.block_of[(3,)]
        assert partition.block_of[(0, 1)] == partition.block_of[(0, 3)]
        cat = build_category(fan, partition)
        assert check_cubical(cat).ok


def test_build_category_finest_is_poset(square_fan):
    cat = build_category(square_fan, from_blocks(square_fan, []))
    assert all(len(v) <= 1 for v in cat.hom.values())
    assert len(cat.objects) == 9


def test_build_category_torus_hom_count(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    zero = cat.partition.block_of[()]
    chamber = cat.partition.block_of[(0, 1)]
    assert len(cat.hom[zero, chamber]) == 4


def test_build_category_rejects_inadmissible(hzb_fan):
    with pytest.raises(NotAdmissible):
        build_category(hzb_fan, from_blocks(hzb_fan, [[(1,), (3,)]]))


def test_compose_identity(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    for m in cat.morphisms:
        ident_src = cat.morphisms[cat.hom[m.source, m.source][0]]
        ident_dst = cat.morphisms[cat.hom[m.target, m.target][0]]
        assert compose(cat, ident_src, m) is m
        assert compose(cat, m, ident_dst) is m


def test_compose_inclusion_chain(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((), (0,))
    g = cat.morphism_of_pair((0,), (0, 1))
    assert compose(cat, f, g) is cat.morphism_of_pair((), (0, 1))


def test_compose_hzb_through_identified_middle(hzb_fan, p1_partition):
    cat = build_category(hzb_fan, p1_partition)
    f = cat.morphism_of_pair((), (1,))
    a = cat.morphism_of_pair((1,), (0, 1))       # the class also holding (3,),(0,3)
    composite = compose(cat, f, a)
    assert composite is cat.morphism_of_pair((), (0, 1))
    assert composite.target == cat.partition.block_of[(0, 1)]


def test_morphism_of_pair_needs_a_face(square_fan, torus_partition, hzb_fan,
                                       p1_partition):
    for fan, partition in ((square_fan, torus_partition), (hzb_fan, p1_partition)):
        cat = build_category(fan, partition)
        with pytest.raises(NotAFace) as err:
            cat.morphism_of_pair((0,), (1, 2))
        assert err.value.witness == [[0], [1, 2]]


def test_compose_not_composable(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((), (0,))
    with pytest.raises(NotComposable):
        compose(cat, f, f)


def test_factorization_cube_rank0(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    ident = cat.morphisms[cat.hom[0, 0][0]]
    objects, _ = oracle.factorization_cube(cat, ident)
    assert objects == ((ident.index, ident.index),)


def test_factorization_cube_rank2_square(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((), (0, 1))
    objects, subset_of = oracle.factorization_cube(cat, f)
    assert len(set(objects)) == len(subset_of) == 4
    assert sorted(map(len, subset_of.values())) == [0, 1, 1, 2]


def test_check_cubical_builtins(square_fan, torus_partition, hzb_fan, p1_partition):
    for fan, partition in ((square_fan, torus_partition), (hzb_fan, p1_partition)):
        report = check_cubical(build_category(fan, partition))
        assert report.ok, report.to_json()


def test_check_cubical_detects_corruption(square_fan, torus_partition):
    built = build_category(square_fan, torus_partition)
    (f, g), _ = next(
        (k, v) for k, v in built.compose_table.items()
        if built.morphisms[k[0]].rank == 1 and built.morphisms[k[1]].rank == 1)
    source = built.morphisms[f].source
    identity = built.hom[source, source][0]
    with pytest.raises(TypeError):
        built.compose_table[(f, g)] = identity
    cat = corrupted(built)
    cat.compose_table[(f, g)] = identity
    report = refused_and_reported(cat)
    assert report.failures[1]
    assert report.failures[1][0]["f"] == f


def test_first_last_factors_rank1(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((0,), (0, 1))
    # the singleton object {0} of f's cube is (first factor, identity)
    objects, _ = oracle.factorization_cube(cat, f)
    assert objects[1][0] == f.index
    assert last_factors(cat, f) == (f,)


def test_last_factors_square(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((), (0, 3))
    lf = last_factors(cat, f)
    assert len(lf) == 2
    # one class per bounding ray of tau1 = cone{(1,0),(0,1)}
    reps_into_tau1 = {rep for m in lf for rep in m.reps if rep[1] == (0, 3)}
    assert reps_into_tau1 == {((0,), (0, 3)), ((3,), (0, 3))}


def test_factors_rank3():
    fan = coordinate_fan_r3()
    cat = build_category(fan, from_blocks(fan, []))
    f = cat.morphism_of_pair((), (0, 1, 2))
    objects, _ = oracle.factorization_cube(cat, f)
    assert len({g for g, _ in objects[1:4]}) == 3
    assert len(last_factors(cat, f)) == 3
    with pytest.raises(RankZero):
        last_factors(cat, cat.morphisms[cat.hom[0, 0][0]])


def test_last_factor_compatibility_three_lines(three_lines_fan,
                                               three_lines_partition):
    cat = build_category(three_lines_fan, three_lines_partition)
    ok, counterexample = check_last_factor_compatibility(cat)
    assert not ok
    assert len(counterexample) == 3
    assert all(cat.morphisms[i].rank == 1 for i in counterexample)
    # the three morphisms are pairwise last factors of rank-2 morphisms
    chamber_block = cat.partition.block_of[three_lines_fan.chambers()[0]]
    rank2_keys = {
        tuple(sorted(x.index for x in last_factors(cat, m)))
        for m in cat.morphisms if m.rank == 2 and m.target == chamber_block
    }
    for pair in combinations(sorted(counterexample), 2):
        assert pair in rank2_keys


def test_last_factor_compatibility_positive(square_fan, torus_partition,
                                            hzb_fan, p1_partition):
    for fan, partition in ((square_fan, torus_partition), (hzb_fan, p1_partition)):
        ok, _ = check_last_factor_compatibility(build_category(fan, partition))
        assert ok


def test_last_factor_compatibility_finest(three_lines_fan):
    cat = build_category(three_lines_fan, from_blocks(three_lines_fan, []))
    ok, _ = check_last_factor_compatibility(cat)
    assert ok


def test_export_dot(hzb_fan, p1_partition, square_fan, torus_partition):
    cat = build_category(hzb_fan, p1_partition)
    dot = export_category_dot(cat)
    assert dot.count("[label=") - dot.count("->") == 6  # 6 nodes
    # torus partition: one node per block (zero cone, two ray lines, chambers)
    cat2 = build_category(square_fan, torus_partition)
    dot2 = export_category_dot(cat2)
    nodes = [line for line in dot2.splitlines()
             if line.strip().startswith("n") and "->" not in line]
    assert len(nodes) == len(torus_partition.blocks) == 4


def test_composition_associative(square_fan, torus_partition, hzb_fan,
                                 p1_partition):
    for fan, partition in ((square_fan, torus_partition), (hzb_fan, p1_partition)):
        cat = build_category(fan, partition)
        for f in cat.morphisms:
            for g in cat.morphisms:
                if (f.index, g.index) not in cat.compose_table:
                    continue
                for h in cat.morphisms:
                    if (g.index, h.index) not in cat.compose_table:
                        continue
                    gf = compose(cat, f, g)
                    hg = compose(cat, g, h)
                    assert compose(cat, gf, h) is compose(cat, f, hg)


def test_identified_pairs_compose_identified(hzb_fan, p1_partition):
    # composites of identified representative chains land in one class
    cat = build_category(hzb_fan, p1_partition)
    for f in cat.morphisms:
        for g in cat.morphisms:
            results = set()
            for s1, k1 in f.reps:
                for k2, t2 in g.reps:
                    if k1 == k2:
                        results.add(cat.morphism_of_pair(s1, t2).index)
            assert len(results) <= 1


def test_hom_count_matches_bruteforce(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    fan, partition = square_fan, torus_partition
    for (src, dst), indices in cat.hom.items():
        signatures = set()
        for sigma in partition.blocks[src]:
            for tau in partition.blocks[dst]:
                if set(sigma) <= set(tau):
                    signatures.add(fan.projected_cone(sigma, tau))
        assert len(signatures) == len(indices)


def test_factorization_pairs_match_cube(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    for f in cat.morphisms:
        assert sorted(oracle.factorization_cube(cat, f)[0]) == \
            oracle._factorizations(cat).get(f.index, [])


def factorization_pairs_oracle(category, f):
    """The former per-morphism scan of the whole composition table."""
    out = []
    for (gi, hi), res in category.compose_table.items():
        if res == f.index:
            g = category.morphisms[gi]
            if g.source == f.source and category.morphisms[hi].target == f.target:
                out.append((gi, hi))
    return sorted(out)


@pytest.mark.parametrize("which", ["square", "hirzebruch", "brauer"])
def test_factorization_pairs_match_per_morphism_scan(which, square_fan, torus_partition,
                                                     hzb_fan, p1_partition, brauer):
    cat = {"square": lambda: build_category(square_fan, torus_partition),
           "hirzebruch": lambda: build_category(hzb_fan, p1_partition),
           "brauer": lambda: brauer.category("flat")}[which]()
    for f in cat.morphisms:
        assert oracle._factorizations(cat).get(f.index, []) == \
            factorization_pairs_oracle(cat, f)


def former_lookup(category):
    """The former morphism lookup by (source block, target block, projected cone)."""
    by_key = {(m.source, m.target, m.signature): m.index for m in category.morphisms}
    block_of = category.partition.block_of

    def lookup(sigma, tau):
        return by_key[(block_of[sigma], block_of[tau],
                       category.fan.projected_cone(sigma, tau))]
    return lookup


def former_compose_table(category):
    """The former composition loop: for each target kappa of f, every g with a
    rep starting at kappa, and every f rep against every g rep."""
    lookup = former_lookup(category)
    ms = category.morphisms
    by_source_rep = {}
    for m in ms:
        for sigma, _ in m.reps:
            by_source_rep.setdefault(sigma, []).append(m.index)
    table = {}
    for f in ms:
        for kappa in sorted({tau for _, tau in f.reps}):
            for g_idx in by_source_rep.get(kappa, ()):
                results = {lookup(sigma, tau2) for sigma, tau in f.reps
                           for sigma2, tau2 in ms[g_idx].reps if sigma2 == tau}
                assert len(results) == 1
                table.setdefault((f.index, g_idx), results.pop())
    return table


def assert_matches_former_routes(category):
    lookup = former_lookup(category)
    for m in category.morphisms:
        for sigma, tau in m.reps:
            assert category.morphism_of_pair(sigma, tau) is m
            assert lookup(sigma, tau) == m.index
    assert list(category.compose_table.items()) == \
        list(former_compose_table(category).items())


@pytest.mark.parametrize("which", ["flat", "shard", "finest"])
def test_pair_lookup_and_composition_match_former_routes(which, coxeter_partitions):
    for name in ("A3", "brauer"):
        fan, partitions = coxeter_partitions[name]
        assert_matches_former_routes(build_category(fan, partitions[which]))


def assert_first_representative_matches_the_union(category):
    """Each f's row of the table, in order, is the union over all chains."""
    reps_from = {}
    for g in category.morphisms:
        for kappa, tau2 in g.reps:
            reps_from.setdefault(kappa, {}).setdefault(g.index, []).append(tau2)
    rows = {}
    for (f, g), h in category.compose_table.items():
        rows.setdefault(f, {})[g] = h
    for f in category.morphisms:
        union = oracle._composites_by_union(f, reps_from, category.of_pair)
        assert list(rows[f.index].items()) == list(union.items())


@pytest.mark.parametrize("which", ["flat", "shard", "finest"])
def test_first_representative_composites_match_the_union(which, coxeter_partitions):
    for name in ("A3", "brauer"):
        fan, partitions = coxeter_partitions[name]
        assert_first_representative_matches_the_union(
            build_category(fan, partitions[which]))


def outcome(lookup, key):
    """What ``lookup(key)`` returns, or the type of what it raises."""
    try:
        return "returned", lookup(key)
    except (KeyError, TypeError) as exc:
        return "raised", type(exc)


@pytest.mark.parametrize("name", ["catalogue", "A3"])
def test_the_table_behaves_like_the_former_dict(
        name, coxeter_partitions, square_fan, torus_partition, hzb_fan, p1_partition,
        three_lines_fan, three_lines_partition):
    """``in``, ``get`` and ``[]`` agree with the former dict on every pair of
    indices from -1 to n, on numbers equal to indices and on malformed
    keys; so do the length, the walk in order and equality, and neither
    takes an assignment."""
    if name == "catalogue":
        cases = [(square_fan, torus_partition), (hzb_fan, p1_partition),
                 (three_lines_fan, three_lines_partition)]
    else:
        fan, partitions = coxeter_partitions["A3"]
        cases = [(fan, partitions["flat"]), (fan, partitions["shard"])]
    for fan, partition in cases:
        category = build_category(fan, partition)
        table = category.compose_table
        former = former_compose_table(category)
        n = len(category.morphisms)
        keys = list(product(range(-1, n + 1), repeat=2))
        keys += [(0.0, 0), (True, 1), (0,), (0, 1, 2), "ab", b"\0\0", None, [0, 1]]
        for key in keys:
            for lookup in (table.__contains__, table.get, table.__getitem__):
                former_lookup = getattr(former, lookup.__name__)
                assert outcome(lookup, key) == outcome(former_lookup, key), key
        assert len(table) == len(former)
        assert list(table.items()) == list(former.items())
        assert table == former and former == table
        key = next(iter(former))
        with pytest.raises(TypeError):
            table[key] = former[key]
        with pytest.raises(TypeError):
            del table[key]


@pytest.mark.parametrize("name", ["A3", "brauer", "B3"])
def test_the_table_derives_rows_only_when_read(name, coxeter_partitions):
    """Building, the cubical and last-factor checks and the length read no
    row; a full walk keeps at most one row entry per pair of ``of_pair``.
    Neither ``of_pair`` nor an edited representative changes the table."""
    fan, partitions = coxeter_partitions[name]
    for which in ("flat", "shard"):
        category = build_category(fan, partitions[which])
        table = category.compose_table
        check_cubical(category)
        check_last_factor_compatibility(category)
        for f in category.morphisms:
            if f.rank:
                last_factors(category, f)
        assert len(table) > 0
        assert table._rows == {}
        entries = dict(table.items())
        assert 0 < sum(map(len, table._rows.values())) <= len(category.of_pair)
        assert len(entries) == len(table)
        with pytest.raises(TypeError):
            category.of_pair[category.morphisms[0].reps[0]] = 0

        edited = build_category(fan, partitions[which])
        ms = edited.morphisms
        for m, other in zip(ms, ms[1:] + ms[:1]):
            m.reps = other.reps
        assert dict(edited.compose_table) == entries


def test_composition_not_single_valued_on_an_overlapping_fan():
    """Cones of this overlapping fan overlap, so two chains of one pair of
    morphisms would give different composites.  Cones (0, 1) and (0, 5)
    both project along ray 0 to one cone, so the partition layer refuses
    the fan before any category is built, each time it is asked."""
    rays = [(3, 0), (-3, -1), (0, 3), (3, -1), (0, -1), (1, -2)]
    fan = build_fan(2, rays, [tuple(sorted((i, (i + 1) % 6))) for i in range(6)])
    assert not validate_fan(fan).ok
    partition = from_blocks(fan, [[(0, 1), (0, 5)]])
    for refused in (lambda: admissible_closure(fan, [((0, 1), (0, 5))]),
                    lambda: is_admissible(fan, partition),
                    lambda: build_category(fan, partition)):
        with pytest.raises(PreconditionUnmet) as raised:
            refused()
        assert raised.value.witness == [[0], [0, 1], [0, 5]]


def test_reps_of_an_identity_start_different_morphisms_on_an_overlapping_fan():
    """Rays 0 and 2 of this overlapping fan share an E-class, but ray 2 lies
    in one more cone, so only the rep at ray 2 of their block's identity
    would compose with the fourth morphism out of the block.  Cones (1, 2)
    and (2, 3) both project along ray 2 to one cone, so the fan is
    refused."""
    rays = [(-1, -1), (-1, 1), (1, 1), (2, 3), (1, 0)]
    fan = build_fan(2, rays, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert not validate_fan(fan).ok
    assert (len(fan.star((0,))), len(fan.star((2,)))) == (3, 4)
    with pytest.raises(PreconditionUnmet) as raised:
        build_category(fan, from_blocks(fan, [[(0,), (2,)]]))
    assert raised.value.witness == [[2], [1, 2], [2, 3]]


@settings(max_examples=10, deadline=None)
@given(complete_planar_fans(max_rays=6))
def test_planar_pair_lookup_and_composition_match_former_routes(fan):
    for partition in enumerate_admissible(fan):
        category = build_category(fan, partition)
        assert_matches_former_routes(category)
        assert_first_representative_matches_the_union(category)


# The double-winding cone set: five rays going twice round the origin.  It
# is no fan, but projection is injective on every star.
DOUBLE_WINDING = (((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


def test_star_injectivity_is_all_the_composition_proofs_need():
    """Seeded cone sets, overlapping ones allowed: wherever
    ``potential_identifications`` accepts one, valid fan or not, the
    pruned enumeration is the product filter, and every admissible
    partition's category builds with the table of the union over all
    chains."""
    cone_sets = [build_fan(2, *DOUBLE_WINDING)] + [
        random_cone_set(dim, seed) for dim, count in ((2, 300), (3, 600))
        for seed in range(count)]
    accepted, invalid, categories = 0, 0, 0
    for fan in cone_sets:
        try:
            potential_identifications(fan)
        except PreconditionUnmet:
            continue
        accepted += 1
        invalid += not validate_fan(fan).ok
        partitions = enumerate_admissible(fan)
        assert [p.blocks for p in partitions] == \
            [p.blocks for p in oracle.enumerate_admissible(fan)]
        for partition in partitions:
            assert_first_representative_matches_the_union(build_category(fan, partition))
            categories += 1
    assert len(enumerate_admissible(cone_sets[0])) == 52
    assert (accepted, invalid, categories) == (501, 153, 1163)


def assert_cubical_matches_oracle(category):
    """The axiom report, the last-factor verdict and every last-factor set
    equal the former lookups through ``morphism_of_pair``; the oracle reads
    every entry of the table whose axioms 1-3 ``check_cubical`` proves, and
    scans the first factors of axiom 4, which it proves too."""
    assert check_cubical(category).to_json() == oracle.check_cubical(category).to_json()
    assert check_last_factor_compatibility(category) == \
        oracle.check_last_factor_compatibility(category)
    for f in category.morphisms:
        if f.rank:
            assert last_factors(category, f) == oracle.last_factors(category, f)


def test_catalogue_cubical_matches_oracle(square_fan, torus_partition, hzb_fan,
                                          p1_partition, three_lines_fan,
                                          three_lines_partition, square_admissible,
                                          hzb_admissible):
    cases = [(square_fan, torus_partition), (hzb_fan, p1_partition),
             (three_lines_fan, three_lines_partition)]
    cases += [(square_fan, p) for p in square_admissible]
    cases += [(hzb_fan, p) for p in hzb_admissible]
    for fan, partition in cases:
        assert_cubical_matches_oracle(build_category(fan, partition))


@pytest.mark.parametrize("which", ["flat", "shard", "finest"])
@pytest.mark.parametrize("name", ["A3", "brauer", "B3"])
def test_coxeter_cubical_matches_oracle(name, which, coxeter_partitions):
    fan, partitions = coxeter_partitions[name]
    assert_cubical_matches_oracle(build_category(fan, partitions[which]))


@settings(max_examples=25, deadline=None)
@given(complete_planar_fans(max_rays=6))
def test_planar_cubical_matches_oracle(fan):
    # every eighth admissible partition, the finest first: a six-ray fan has
    # about two hundred
    for partition in enumerate_admissible(fan)[::8]:
        assert_cubical_matches_oracle(build_category(fan, partition))


def corrupted(category):
    """A copy of the category with its own composition table to change.
    ``check_cubical`` refuses a replaced table, so only the oracle, which
    reads every entry, gives a report on it."""
    twin = copy.copy(category)
    twin.compose_table = dict(category.compose_table)
    return twin


def refused_and_reported(twin):
    """``check_cubical`` refuses the edited table; returns the oracle's
    report on it."""
    with pytest.raises(PreconditionUnmet) as raised:
        check_cubical(twin)
    assert raised.value.witness == {"built": True}
    return oracle.check_cubical(twin)


def test_a_replaced_or_hand_built_table_is_refused(square_fan, torus_partition):
    """No verdict on axioms 1-3 is given for a table ``build_category`` did
    not make: neither for a ``Category`` made from a dict nor for a built
    category whose table was replaced, even by an exact copy.  The oracle
    passes both copies, and the last-factor check, which reads no entry,
    takes them as it takes the built one."""
    built = build_category(square_fan, torus_partition)
    by_hand = catlib.Category(built.fan, built.partition, built.morphisms, built.hom,
                              dict(built.compose_table), built.of_pair)
    assert check_cubical(built).ok
    for twin, was_built in ((by_hand, False), (corrupted(built), True)):
        with pytest.raises(PreconditionUnmet) as raised:
            check_cubical(twin)
        assert raised.value.witness == {"built": was_built}
        assert oracle.check_cubical(twin).ok
        assert check_last_factor_compatibility(twin) == (True, None)
        assert_factor_keys_match_oracle(twin)


def retargeted_composite(category, rng):
    """Point one composite at another morphism between the same blocks.  The
    factorization pairs of both morphisms change, so axiom 2 fails."""
    ms = category.morphisms
    keys = [key for key, h in sorted(category.compose_table.items())
            if len(category.hom[ms[h].source, ms[h].target]) > 1]
    key = rng.choice(keys)
    h = ms[category.compose_table[key]]
    twin = corrupted(category)
    twin.compose_table[key] = rng.choice(
        [i for i in category.hom[h.source, h.target] if i != h.index])
    return twin


def doubled_faq_morphism(category, rng, between_middles=True):
    """Add a second Faq-morphism between two nested objects of one cube.

    For a rank-3 f, objects a and b with S_a < S_b have the one Faq-morphism
    phi from (g_a, h_a) to (g_b, h_b).  Another phi' between the same middle
    blocks is made one too, by setting phi' o g_a = g_b and h_b o phi' = h_a.
    Neither composite is f, so f's cube still passes axiom 2, and its count
    of 2 fails axiom 3.  With ``between_middles`` false, phi' shares just one
    end with the middle blocks: those two entries are then no Faq-morphism.
    """
    ms = category.morphisms
    table = category.compose_table
    shared_ends = 2 if between_middles else 1
    choices = []
    for f in ms:
        if f.rank != 3:
            continue
        objects, subset_of = oracle.factorization_cube(category, f)
        for a, b in combinations(objects, 2):
            if subset_of[a] < subset_of[b] and subset_of[a] and len(subset_of[b]) < 3:
                (ga, ha), (gb, hb) = a, b
                choices += [(ga, ha, gb, hb, m.index) for m in ms
                            if (m.source == ms[ga].target) + (m.target == ms[gb].target)
                            == shared_ends and table.get((ga, m.index)) != gb]
    ga, ha, gb, hb, phi = rng.choice(choices)
    twin = corrupted(category)
    twin.compose_table[ga, phi] = gb
    twin.compose_table[phi, hb] = ha
    return twin


@pytest.mark.parametrize("seed", range(5))
def test_axiom2_corruptions_match_oracle(seed, coxeter_partitions, square_fan,
                                         torus_partition):
    rng = random.Random(seed)
    fan, partitions = coxeter_partitions["A3"]
    for category in (build_category(fan, partitions["flat"]),
                     build_category(square_fan, torus_partition)):
        twin = retargeted_composite(category, rng)
        assert refused_and_reported(twin).failures[2]
        assert check_last_factor_compatibility(twin) == \
            oracle.check_last_factor_compatibility(twin)


@pytest.mark.parametrize("seed", range(5))
def test_axiom3_corruptions_match_oracle(seed, coxeter_partitions, brauer):
    rng = random.Random(seed)
    fan, partitions = coxeter_partitions["A3"]
    for category in (build_category(fan, partitions["flat"]), brauer.category("flat")):
        twin = doubled_faq_morphism(category, rng)
        assert any(w.get("count") == 2 for w in refused_and_reported(twin).failures[3])
        refused_and_reported(doubled_faq_morphism(category, rng, between_middles=False))


def deleted_entry(category, rng):
    """Drop one entry (f, g) -> h of the table: h loses a factorization pair,
    so axiom 2 fails."""
    twin = corrupted(category)
    del twin.compose_table[rng.choice(sorted(category.compose_table))]
    return twin


@pytest.mark.parametrize("seed", range(5))
def test_deleted_entry_corruptions_match_oracle(seed, coxeter_partitions, brauer,
                                                square_fan, torus_partition):
    rng = random.Random(seed)
    fan, partitions = coxeter_partitions["A3"]
    for category in (build_category(fan, partitions["flat"]), brauer.category("shard"),
                     build_category(square_fan, torus_partition)):
        assert refused_and_reported(deleted_entry(category, rng)).failures[2]


def mixed_edits(category, rng):
    """One to three edits of the table, each of one of four kinds: delete an
    entry, retarget it within its hom-set, point it at any morphism, or
    insert an entry (f, g) -> h for any f, g and h.  An inserted f and g
    need not be composable, so a phi o g1 = g2 can arise whose phi does not
    start at g1's target."""
    ms = category.morphisms
    twin = corrupted(category)
    table = twin.compose_table
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        key = rng.choice(sorted(table))
        if kind == 0:
            del table[key]
        elif kind == 1:
            h = ms[table[key]]
            table[key] = rng.choice(category.hom[h.source, h.target])
        elif kind == 2:
            table[key] = rng.randrange(len(ms))
        else:
            table[rng.randrange(len(ms)), rng.randrange(len(ms))] = rng.randrange(len(ms))
    return twin


def test_mixed_edit_corruptions_match_oracle(coxeter_partitions, brauer, square_fan,
                                             torus_partition):
    """Seeded mixes of the four edit kinds: each is refused and reported,
    and the witnesses include both shapes of axiom 2."""
    fan, partitions = coxeter_partitions["A3"]
    categories = (build_category(fan, partitions["flat"]), brauer.category("shard"),
                  build_category(square_fan, torus_partition))
    rng = random.Random(1)
    shapes = set()
    for _ in range(8):
        for category in categories:
            report = refused_and_reported(mixed_edits(category, rng))
            shapes.update(frozenset(w) for w in report.failures[2])
    assert {frozenset({"morphism", "expected", "pairs"}),
            frozenset({"morphism", "from", "to", "count", "expected"})} <= shapes


@pytest.fixture(scope="module")
def a4_categories():
    """The categories of the A4 flat and shard partitions, shards from the
    all-positive chamber."""
    arrangement = arrlib.Arrangement(4, A4_ESSENTIAL)
    arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
    fan = arrfan.fan
    base = next(c for c in fan.max_cones
                if arrfan.sign_of(c) == (1,) * len(A4_ESSENTIAL))
    return {"flat": build_category(fan, arrlib.flat_partition(arrangement, fan)),
            "shard": build_category(fan, arrlib.shard_partition(arrangement, arrfan, base))}


@pytest.mark.parametrize("which", ["flat", "shard"])
def test_a4_cubical_matches_oracle(which, a4_categories):
    """Rank-4 cubes of 16 objects, counted pair by pair by the oracle."""
    category = a4_categories[which]
    assert max(m.rank for m in category.morphisms) == 4
    assert check_cubical(category).to_json() == oracle.check_cubical(category).to_json()


def assert_cubes_agree_over_every_rep(category):
    """The lemma ``check_cubical``'s proof rests on: every representative of
    a morphism has the same set of cube objects.  Returns how many reps
    beyond the first were compared."""
    compared = 0
    for f in category.morphisms:
        first = set(oracle._cube_objects(category.of_pair, *f.reps[0]))
        assert len(first) == 2 ** f.rank
        for rep in f.reps[1:]:
            assert set(oracle._cube_objects(category.of_pair, *rep)) == first, \
                (f.index, rep)
            compared += 1
    return compared


@pytest.mark.parametrize("name", ["catalogue", "A3", "brauer", "B3", "A4"])
def test_cube_objects_do_not_depend_on_the_representative(
        name, coxeter_partitions, a4_categories, square_fan, torus_partition, hzb_fan,
        p1_partition, three_lines_fan, three_lines_partition, square_admissible,
        hzb_admissible):
    """The catalogue categories (with the closure of the coordinate fan of
    R^3 over its rays 0 and 3), the A3, Brauer and B3 flat, shard and
    finest categories, and the A4 flat and shard ones."""
    if name == "catalogue":
        coordinate = coordinate_fan_r3()
        cases = [(square_fan, torus_partition), (hzb_fan, p1_partition),
                 (three_lines_fan, three_lines_partition),
                 (coordinate, admissible_closure(coordinate, [((0,), (3,))]))]
        cases += [(square_fan, p) for p in square_admissible]
        cases += [(hzb_fan, p) for p in hzb_admissible]
        categories = [build_category(fan, partition) for fan, partition in cases]
    elif name == "A4":
        categories = list(a4_categories.values())
    else:
        fan, partitions = coxeter_partitions[name]
        categories = [build_category(fan, partitions[which])
                      for which in ("flat", "shard", "finest")]
    assert sum(map(assert_cubes_agree_over_every_rep, categories)) > 0


def test_cubical_matches_oracle_over_the_cone_set_sweep():
    """The seeded cone sets of the star-injectivity sweep: on every category
    the report equals the oracle's, and eight fail, each on axiom 5 (see
    the next test)."""
    cone_sets = [build_fan(2, *DOUBLE_WINDING)] + [
        random_cone_set(dim, seed) for dim, count in ((2, 300), (3, 600))
        for seed in range(count)]
    reports = []
    for fan in cone_sets:
        try:
            potential_identifications(fan)
        except PreconditionUnmet:
            continue
        for partition in enumerate_admissible(fan):
            category = build_category(fan, partition)
            report = check_cubical(category).to_json()
            assert report == oracle.check_cubical(category).to_json()
            reports.append(report)
    failing = [r for r in reports if not r["cubical"]]
    assert (len(reports), len(failing)) == (1163, 8)
    assert all(list(r["violations"]) == ["5"] for r in failing)


def test_axiom_5_fails_on_a_valid_incomplete_cone_set():
    """``random_cone_set(3, 91)``: a valid cone set that is not complete.
    On this admissible partition, morphisms 15 and 19 are rank-2 morphisms
    into one block from rays 0 and 1, which are opposite and not
    identified.  Their last factors are both {33, 35}, and both routes
    report it."""
    fan = build_fan(3, [(1, 1, 1), (-1, -1, -1), (2, -1, 1), (2, -1, 0)],
                    [(0, 2, 3), (1, 2), (1, 2, 3), (1, 3)])
    assert validate_fan(fan).ok and not is_finite_complete(fan)
    partition = from_blocks(fan, [[(0, 2), (1, 2)], [(0, 3), (1, 3)],
                                  [(0, 2, 3), (1, 2, 3)]])
    assert is_admissible(fan, partition) == (True, None)
    category = build_category(fan, partition)
    expected = {"cubical": False,
                "violations": {"5": [{"a": 15, "b": 19, "last": (33, 35)}]}}
    assert check_cubical(category).to_json() == expected
    assert oracle.check_cubical(category).to_json() == expected


def seeded_coordinate_closures():
    """The coordinate fan of R^3 and its closures over 400 draws of one to
    three seed pairs, each pair two cones of one E-class, kept once per
    distinct closure in the order first drawn."""
    fan = coordinate_fan_r3()
    classes = [c for c in potential_identifications(fan).classes if len(c) > 1]
    rng = random.Random(1)
    closures = {}
    for _ in range(400):
        seeds = [rng.sample(rng.choice(classes), 2) for _ in range(rng.randint(1, 3))]
        partition = admissible_closure(fan, seeds)
        closures.setdefault(partition.blocks, partition)
    return fan, list(closures.values())


@pytest.fixture(scope="module")
def coordinate_admissible():
    """The coordinate fan of R^3, its seeded closures, and its admissible
    partitions enumerated under a guard of its 27 cones."""
    fan, closures = seeded_coordinate_closures()
    return fan, closures, enumerate_admissible(fan, limit=27)


def test_the_coordinate_fan_has_17038_admissible_partitions(coordinate_admissible):
    """17 038 distinct partitions, each admissible, among them every
    seeded closure, the finest partition and the E-class partition."""
    fan, closures, partitions = coordinate_admissible
    assert len(fan.cones) == 27
    assert len(set(partitions)) == len(partitions) == 17038
    assert all(is_admissible(fan, p) == (True, None) for p in partitions)
    ends = [from_blocks(fan, []), potential_identifications(fan).partition]
    assert {*closures, *ends} <= set(partitions)


def test_seeded_closures_of_the_coordinate_fan_match_oracle():
    """The seeded closures of the coordinate fan of R^3: every report equals
    the oracle's, and the failures are all on axiom 5 (see the next
    test)."""
    fan, closures = seeded_coordinate_closures()
    failing = []
    for partition in closures:
        category = build_category(fan, partition)
        report = check_cubical(category).to_json()
        assert report == oracle.check_cubical(category).to_json()
        if not report["cubical"]:
            failing.append(list(report["violations"]))
    assert (len(closures), len(failing)) == (172, 11)
    assert all(axioms == ["5"] for axioms in failing)


AXIOM_5_WITNESSES = [
    ("coordinate", [((0, 4), (0, 5)), ((2, 4), (2, 5))],
     {"a": 68, "b": 77, "last": (88, 103)}),
    ("A3", [((5, 9), (1, 4)), ((0, 9), (2, 4))],
     {"a": 130, "b": 179, "last": (249, 255)}),
]


def axiom_5_witness_fan(name):
    if name == "coordinate":
        return build_fan(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                             (0, 0, 1), (0, 0, -1)],
                         [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
                          (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)])
    return arrlib.arrangement_fan(arrlib.Arrangement(3, A3_NORMALS))


@pytest.mark.parametrize("name, seeds, witness", AXIOM_5_WITNESSES)
def test_axiom_5_fails_on_complete_fans(name, seeds, witness):
    """Completeness does not save axiom 5.  On the coordinate fan of R^3,
    morphisms 68 and 77 are rank-2 morphisms from the opposite, unidentified
    rays 4 and 5 into the block [0,2,4]~[0,2,5], with last factors 88 and
    103 each; the A3 fan fails the same way.  Both routes report it."""
    fan = axiom_5_witness_fan(name)
    assert is_finite_complete(fan)
    partition = admissible_closure(fan, seeds)
    assert is_admissible(fan, partition) == (True, None)
    category = build_category(fan, partition)
    expected = {"cubical": False, "violations": {"5": [witness]}}
    assert check_cubical(category).to_json() == expected
    assert oracle.check_cubical(category).to_json() == expected


def assert_factor_keys_match_oracle(category):
    """``_factor_keys`` equals the last factors the oracle looks up through
    ``morphism_of_pair`` off each first rep, and is () at rank 0."""
    keys = catlib._factor_keys(category)
    for f in category.morphisms:
        expected = ()
        if f.rank:
            expected = tuple(m.index for m in oracle.last_factors(category, f))
        assert keys[f.index] == expected, f.index


def perfbench_inputs():
    """``perfbench/inputs.py``, which imports nothing from partfan."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def grouping_corpus(coxeter_partitions, a4_categories, square_fan, torus_partition,
                    hzb_fan, p1_partition, three_lines_fan, three_lines_partition,
                    square_admissible, hzb_admissible):
    """(fan, partition) pairs: the catalogue partitions and the admissible
    partitions of the square and Hirzebruch fans; the A3, Brauer, B3 and A4
    flat, shard and finest partitions; the seeded closures of the
    coordinate fan and the two axiom-5 witnesses; and every 7th admissible
    partition of each ``planar_batch`` fan of seeds 1-3 with at most 16
    cones."""
    cases = [(square_fan, torus_partition), (hzb_fan, p1_partition),
             (three_lines_fan, three_lines_partition)]
    cases += [(square_fan, p) for p in square_admissible]
    cases += [(hzb_fan, p) for p in hzb_admissible]
    for fan, partitions in coxeter_partitions.values():
        cases += [(fan, partitions[which]) for which in ("flat", "shard", "finest")]
    a4 = a4_categories["flat"].fan
    cases += [(a4, a4_categories[which].partition) for which in ("flat", "shard")]
    cases.append((a4, from_blocks(a4, [])))
    coordinate, closures = seeded_coordinate_closures()
    cases += [(coordinate, p) for p in closures]
    for name, seeds, _ in AXIOM_5_WITNESSES:
        fan = axiom_5_witness_fan(name)
        cases.append((fan, admissible_closure(fan, seeds)))
    inputs = perfbench_inputs()
    for seed in (1, 2, 3):
        for spec in inputs.planar_batch(seed):
            fan = build_fan(2, spec["rays"], spec["chambers"])
            if len(fan.cones) <= 16:
                cases += [(fan, p) for p in enumerate_admissible(fan)[::7]]
    return cases


def test_the_build_matches_the_former_grouping(grouping_corpus):
    """Every morphism field, ``of_pair``, ``hom``, the table's walk and the
    document equal the former grouping's, in order; ``reps[k]`` is the rep
    at member k of the source block, which ``hom_distinctness_certificate``
    reads; and the identity of block b, the grouping's one rank-0 morphism
    out of b, is ``hom[b, b][0]``."""
    assert len(grouping_corpus) == 844
    for fan, partition in grouping_corpus:
        category = build_category(fan, partition)
        former = oracle.build_category(fan, partition)
        for m in category.morphisms:
            assert [s for s, _ in m.reps] == list(partition.blocks[m.source])
        assert [[getattr(m, k) for k in catlib.MorphClass.__slots__]
                for m in category.morphisms] == \
            [[getattr(m, k) for k in catlib.MorphClass.__slots__] for m in former.morphisms]
        assert {b: category.hom[b, b][0] for b in category.objects} == \
            {m.source: m.index for m in former.morphisms if m.rank == 0}
        for name in ("of_pair", "hom"):
            assert list(getattr(category, name).items()) == \
                list(getattr(former, name).items())
        assert list(category.compose_table.items()) == list(former.compose_table.items())
        assert json.dumps(category.to_json()) == json.dumps(former.to_json())


def test_factor_keys_match_the_oracle(grouping_corpus):
    """The slice route to the last factors, on the grouping corpus; the two
    axiom-5 witnesses share their last-factor keys, and the oracle's first
    factors tell them apart."""
    for fan, partition in grouping_corpus:
        assert_factor_keys_match_oracle(build_category(fan, partition))
    for name, seeds, witness in AXIOM_5_WITNESSES:
        fan = axiom_5_witness_fan(name)
        category = build_category(fan, admissible_closure(fan, seeds))
        keys = catlib._factor_keys(category)
        assert keys[witness["a"]] == keys[witness["b"]] == witness["last"]
        a, b = (category.morphisms[witness[k]] for k in "ab")
        assert oracle.first_factors(category, a) != oracle.first_factors(category, b)


def test_first_factors_tell_morphisms_of_equal_rank_apart(grouping_corpus):
    """Axiom 4, which ``check_cubical`` proves: on every category of the
    grouping corpus (the catalogue, Coxeter and A4 partitions, the seeded
    closures of the coordinate fan and the planar-batch sample), the
    oracle's first-factor sets of the morphisms of rank >= 1 are distinct.
    Sets of different sizes differ, so this covers each rank."""
    for fan, partition in grouping_corpus:
        category = build_category(fan, partition)
        firsts = [tuple(m.index for m in oracle.first_factors(category, f))
                  for f in category.morphisms if f.rank]
        assert len(set(firsts)) == len(firsts)


def assert_no_chamber_holds_two_cones_of_a_block(fan, blocks):
    for block in blocks:
        chambers = [c for cone in block for c in fan._star_chambers(cone)]
        assert len(set(chambers)) == len(chambers), block


def test_no_chamber_holds_two_cones_of_one_block(square_admissible, hzb_admissible,
                                                 three_lines_fan, coxeter_partitions,
                                                 coordinate_admissible):
    """The lemma of ``hom_distinctness_certificate``: every admissible
    partition of the planar catalogue fans and of the coordinate fan of
    R^3, and every E-class of the coordinate fan and of the A3, Brauer and
    B3 fans.  Each block of an admissible partition lies in one E-class,
    so on the arrangement fans the E-classes cover every block of their
    admissible partitions, which are not enumerated."""
    coordinate, _, coordinate_partitions = coordinate_admissible
    partitions = [*square_admissible, *hzb_admissible,
                  *enumerate_admissible(three_lines_fan), *coordinate_partitions]
    assert len(partitions) == 20 + 17 + 256 + 17038
    for partition in partitions:
        assert_no_chamber_holds_two_cones_of_a_block(partition.fan, partition.blocks)
    fans = [coordinate] + [fan for fan, _ in coxeter_partitions.values()]
    for fan in fans:
        classes = potential_identifications(fan).classes
        assert any(len(c) > 1 for c in classes)
        assert_no_chamber_holds_two_cones_of_a_block(fan, classes)


@pytest.mark.parametrize("name", ["A3", "brauer", "B3"])
def test_each_inverse_star_map_is_computed_once(name, coxeter_partitions, monkeypatch):
    """On a fresh fan, ``is_admissible`` and ``build_category`` of the flat
    and shard partitions read each cone's inverse star map as one object:
    it is computed once and then shared."""
    fan, partitions = coxeter_partitions[name]
    fresh = build_fan(fan.dim, fan.rays, fan.max_cones)
    read = {}
    inverse = Fan._project_star_inverse

    def recorded(self, cone):
        result = inverse(self, cone)
        read.setdefault(cone, []).append(result)
        return result

    monkeypatch.setattr(Fan, "_project_star_inverse", recorded)
    blocks = {which: from_blocks(fresh, partitions[which].blocks)
              for which in ("flat", "shard")}
    for partition in blocks.values():
        assert is_admissible(fresh, partition) == (True, None)
    for partition in blocks.values():
        build_category(fresh, partition)
    assert read and sum(map(len, read.values())) > len(read)
    assert all(all(r is results[0] for r in results) for results in read.values())


def test_a_non_injective_star_is_refused_before_any_inverse_is_read(monkeypatch):
    """The overlapping fan whose cones (0, 1) and (0, 5) project along ray 0
    to one cone: every reader of star matchings raises PreconditionUnmet
    without reading an inverse star map."""
    rays = [(3, 0), (-3, -1), (0, 3), (3, -1), (0, -1), (1, -2)]
    fan = build_fan(2, rays, [tuple(sorted((i, (i + 1) % 6))) for i in range(6)])
    read = []
    monkeypatch.setattr(Fan, "_project_star_inverse",
                        lambda self, cone: read.append(cone))
    partition = from_blocks(fan, [[(0, 1), (0, 5)]])
    for refused in (lambda: admissible_closure(fan, [((0, 1), (0, 5))]),
                    lambda: is_admissible(fan, partition),
                    lambda: enumerate_admissible(fan),
                    lambda: build_category(fan, partition)):
        with pytest.raises(PreconditionUnmet) as raised:
            refused()
        assert raised.value.witness == [[0], [0, 1], [0, 5]]
    assert read == []
