import copy
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings

import search_oracles as oracle
from partfan.category import (
    _factorizations,
    build_category,
    check_cubical,
    check_last_factor_compatibility,
    compose,
    export_category_dot,
    factorization_cube,
    first_factors,
    last_factors,
)
from partfan.errors import NotAdmissible, NotAFace, NotComposable, RankZero
from partfan.fan import build_fan
from partfan.partition import (
    admissible_closure,
    enumerate_admissible,
    from_blocks,
)
from strategies import complete_planar_fans


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
    a = cat.hom_set(s24, t12)
    b = cat.hom_set(s24, t34)
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
        assert partition.same_block((1,), (3,))
        assert partition.same_block((0, 1), (0, 3))
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
    assert len(cat.hom_set(zero, chamber)) == 4


def test_build_category_rejects_inadmissible(hzb_fan):
    with pytest.raises(NotAdmissible):
        build_category(hzb_fan, from_blocks(hzb_fan, [[(1,), (3,)]]))


def test_compose_identity(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    for m in cat.morphisms:
        ident_src = cat.morphisms[cat.identities[m.source]]
        ident_dst = cat.morphisms[cat.identities[m.target]]
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
    ident = cat.morphisms[cat.identities[0]]
    cube = factorization_cube(cat, ident)
    assert len(cube.objects) == 1


def test_factorization_cube_rank2_square(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((), (0, 1))
    cube = factorization_cube(cat, f)
    assert len(cube.objects) == 4
    assert sorted(map(len, cube.subset_of.values())) == [0, 1, 1, 2]


def test_factorization_cubes_identified_r3():
    fan = coordinate_fan_r3()
    partition = admissible_closure(fan, [((0,), (3,))])
    cat = build_category(fan, partition)
    plus = factorization_cube(cat, cat.morphism_of_pair((0,), (0, 1, 2)))
    minus = factorization_cube(cat, cat.morphism_of_pair((3,), (1, 2, 3)))
    assert plus.objects == minus.objects


def test_check_cubical_builtins(square_fan, torus_partition, hzb_fan, p1_partition):
    for fan, partition in ((square_fan, torus_partition), (hzb_fan, p1_partition)):
        report = check_cubical(build_category(fan, partition))
        assert report.ok, report.to_json()


def test_check_cubical_detects_corruption(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    (f, g), _ = next(
        (k, v) for k, v in cat.compose_table.items()
        if cat.morphisms[k[0]].rank == 1 and cat.morphisms[k[1]].rank == 1)
    cat.compose_table[(f, g)] = cat.identities[cat.morphisms[f].source]
    report = check_cubical(cat)
    assert not report.ok
    assert report.failures[1]
    assert report.failures[1][0]["f"] == f


def test_first_last_factors_rank1(square_fan, torus_partition):
    cat = build_category(square_fan, torus_partition)
    f = cat.morphism_of_pair((0,), (0, 1))
    assert first_factors(cat, f) == (f,)
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
    assert len(first_factors(cat, f)) == 3
    assert len(last_factors(cat, f)) == 3
    with pytest.raises(RankZero):
        first_factors(cat, cat.morphisms[cat.identities[0]])


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
        assert sorted(factorization_cube(cat, f).objects) == \
            _factorizations(cat).get(f.index, [])


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
        assert _factorizations(cat).get(f.index, []) == factorization_pairs_oracle(cat, f)


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


@settings(max_examples=10, deadline=None)
@given(complete_planar_fans(max_rays=6))
def test_planar_pair_lookup_and_composition_match_former_routes(fan):
    for partition in enumerate_admissible(fan):
        assert_matches_former_routes(build_category(fan, partition))


def assert_cubical_matches_oracle(category):
    """The axiom report, the last-factor verdict, every factorization cube and
    every factor set equal the former lookups through ``morphism_of_pair``."""
    assert check_cubical(category).to_json() == oracle.check_cubical(category).to_json()
    assert check_last_factor_compatibility(category) == \
        oracle.check_last_factor_compatibility(category)
    for f in category.morphisms:
        cube, former = factorization_cube(category, f), oracle.factorization_cube(category, f)
        assert (cube.objects, cube.subset_of) == (former.objects, former.subset_of)
        if f.rank:
            assert first_factors(category, f) == oracle.first_factors(category, f)
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
    """A copy of the category with its own composition table to change."""
    twin = copy.copy(category)
    twin.compose_table = dict(category.compose_table)
    return twin


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
        cube = factorization_cube(category, f)
        for a, b in combinations(cube.objects, 2):
            if cube.subset_of[a] < cube.subset_of[b] and cube.subset_of[a] and \
                    len(cube.subset_of[b]) < 3:
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
        report = check_cubical(twin)
        assert report.failures[2]
        assert report.to_json() == oracle.check_cubical(twin).to_json()
        assert check_last_factor_compatibility(twin) == \
            oracle.check_last_factor_compatibility(twin)


@pytest.mark.parametrize("seed", range(5))
def test_axiom3_corruptions_match_oracle(seed, coxeter_partitions, brauer):
    rng = random.Random(seed)
    fan, partitions = coxeter_partitions["A3"]
    for category in (build_category(fan, partitions["flat"]), brauer.category("flat")):
        twin = doubled_faq_morphism(category, rng)
        report = check_cubical(twin)
        assert any(w.get("count") == 2 for w in report.failures[3])
        assert report.to_json() == oracle.check_cubical(twin).to_json()
        elsewhere = doubled_faq_morphism(category, rng, between_middles=False)
        assert check_cubical(elsewhere).to_json() == \
            oracle.check_cubical(elsewhere).to_json()
