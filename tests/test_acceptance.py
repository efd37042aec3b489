"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
All tolerances are exact (integer or structural equality); nothing is
approximate anywhere in the library.
"""

from partfan import arrangement as arrlib
from partfan import groups as G
from partfan.category import (
    build_category,
    check_cubical,
    check_last_factor_compatibility,
)
from partfan.cw import build_cw, compare_pi1_picture, euler_characteristic, \
    pi1_presentation
from partfan.partition import (
    admissible_closure,
    from_blocks,
    is_admissible,
    join,
    meet,
    potential_identifications,
    refines,
)
from partfan.poset import rank2_bisector_poset


def report(number, text):
    print("ACCEPTANCE %2d: PASS - %s" % (number, text))


def test_criterion_1_hirzebruch_e_classes(hzb_fan):
    ident = potential_identifications(hzb_fan)
    assert ident.classes == (
        ((),),                              # E_0
        ((0,),),                            # E_sigma1
        ((1,), (3,)),                       # E_sigma2 = {sigma2, sigma4}
        ((2,),),                            # E_sigma3
        ((0, 1), (0, 3), (1, 2), (2, 3)),   # E_tau = all four chambers
    )
    report(1, "Hirzebruch E-classes match the five listed classes exactly")


def test_criterion_2_closure_and_homsets(hzb_fan, p1_partition):
    closure = admissible_closure(hzb_fan, [((1,), (3,))])
    expected = (((),), ((0,),), ((1,), (3,)), ((2,),),
                ((0, 1), (0, 3)), ((1, 2), (2, 3)))
    assert closure.blocks == expected
    assert closure == p1_partition
    ok, witness = is_admissible(hzb_fan, closure)
    assert ok, witness
    category = build_category(hzb_fan, closure)
    src = category.partition.block_of[(1,)]
    chamber_blocks = {category.partition.block_of[c]
                      for c in hzb_fan.chambers()}
    arrows = [m for m in category.morphisms
              if m.source == src and m.target in chamber_blocks]
    assert len(arrows) == 2                      # the labels a and b
    assert {m.signature for m in arrows} == {((1, 0),), ((-1, 0),)}
    assert all(len(category.hom_set(src, b)) == 1 for b in chamber_blocks)
    report(2, "closure of sigma2~sigma4 is P1; [sigma2] has the two arrows a, b")


def test_criterion_3_cell_counts(square_fan, hzb_fan, torus_partition,
                                 p1_partition):
    disk = build_cw(square_fan, from_blocks(square_fan, []))
    assert disk.cell_counts() == (4, 4, 1)
    assert euler_characteristic(disk) == 1
    cylinder = build_cw(hzb_fan, p1_partition)
    assert cylinder.cell_counts() == (2, 3, 1)
    assert euler_characteristic(cylinder) == 0
    torus = build_cw(square_fan, torus_partition)
    assert torus.cell_counts() == (1, 2, 1)
    assert euler_characteristic(torus) == 0
    pres = pi1_presentation(torus)
    assert len(pres.generators) == 2
    assert len(pres.relators) == 1
    assert G.abelianization(pres) == (2, ())
    report(3, "cell counts (4,4,1)/(2,3,1)/(1,2,1), Euler 1/0/0, torus pi1 = Z^2")


def test_criterion_4_cubical_axioms(square_fan, hzb_fan, square_admissible,
                                    hzb_admissible, brauer):
    checked = 0
    for fan, partitions in ((square_fan, square_admissible),
                            (hzb_fan, hzb_admissible)):
        for partition in partitions:
            rep = check_cubical(build_category(fan, partition))
            assert rep.ok, rep.to_json()
            checked += 1
    for which in ("flat", "shard"):
        rep = check_cubical(brauer.category(which))
        assert rep.ok, rep.to_json()
        checked += 1
    report(4, "all five cubical axioms hold for %d categories" % checked)


def test_criterion_5_lattice_closure(square_fan, square_admissible):
    pairs = 0
    for p in square_admissible:
        for q in square_admissible:
            m = meet(p, q)
            j = join(p, q)
            assert is_admissible(square_fan, m)[0]
            assert is_admissible(square_fan, j)[0]
            assert refines(m, p) and refines(m, q)
            assert refines(p, j) and refines(q, j)
            pairs += 1
    report(5, "meet/join of %d admissible pairs stay admissible with bounds"
           % pairs)


def test_criterion_6_last_factor_compatibility(three_lines_fan,
                                               three_lines_partition,
                                               square_fan, torus_partition,
                                               hzb_fan, p1_partition):
    cat3 = build_category(three_lines_fan, three_lines_partition)
    ok, counterexample = check_last_factor_compatibility(cat3)
    assert not ok and len(counterexample) == 3
    for fan, partition in ((square_fan, torus_partition),
                           (hzb_fan, p1_partition)):
        ok, _ = check_last_factor_compatibility(build_category(fan, partition))
        assert ok
    report(6, "three-lines fails with a 3-element witness; square/Hirzebruch pass")


def test_criterion_7_rank2_faithfulness(square_fan, torus_partition, hzb_fan,
                                        p1_partition, three_lines_fan,
                                        three_lines_partition):
    cases = [(square_fan, torus_partition), (hzb_fan, p1_partition),
             (three_lines_fan, three_lines_partition)]
    bases_checked = 0
    for fan, partition in cases:
        category = build_category(fan, partition)
        for base in fan.chambers():
            poset = rank2_bisector_poset(fan, base)
            ok, witness = G.rank2_faithfulness_certificate(category, poset)
            assert ok, witness
            bases_checked += 1
    report(7, "rank-2 faithfulness certificate passes for %d bisector posets"
           % bases_checked)


def test_criterion_8_brauer_pipeline(brauer):
    from partfan.fan import is_finite_complete, validate_fan

    assert validate_fan(brauer.fan).ok
    assert is_finite_complete(brauer.fan)
    assert len(brauer.fan.max_cones) == 32
    assert is_admissible(brauer.fan, brauer.flat)[0]
    assert is_admissible(brauer.fan, brauer.shard)[0]
    assert refines(brauer.shard, brauer.flat)

    algebra = arrlib.WallAlgebra(brauer.arrangement)
    for a in algebra.basis:
        for b in algebra.basis:
            for c in algebra.basis:
                assert algebra.basis_mul(algebra.basis_mul(a, b), c) == \
                    algebra.basis_mul(a, algebra.basis_mul(b, c))

    flat_pres = G.picture_group(brauer.fan, brauer.flat, brauer.poset,
                                mode="codim2")
    assert arrlib.wa_certify(brauer.arrangement, flat_pres)

    for which in ("flat", "shard"):
        ok, witness = G.hom_distinctness_certificate(
            brauer.category(which), brauer.poset, True)
        assert ok, witness

    ok, _ = check_last_factor_compatibility(brauer.category("shard"))
    assert ok
    report(8, "Brauer: 32 chambers, admissible partitions, wall algebra, "
              "both faithfulness certificates, shard compatibility")


def test_criterion_9_picture_vs_pi1(square_fan, torus_partition, brauer):
    from partfan.poset import poset_from_linear_functional

    torus_cw = build_cw(square_fan, torus_partition)
    poset = poset_from_linear_functional(square_fan, (1, 1))
    torus_pic = G.picture_group(square_fan, torus_partition, poset,
                                mode="codim2")
    comparison = compare_pi1_picture(torus_cw, torus_pic)
    assert comparison["generators_equal"]
    assert comparison["abelianizations_equal"]

    shard_cw = build_cw(brauer.fan, brauer.shard)
    shard_pic = G.picture_group(brauer.fan, brauer.shard, brauer.poset,
                                mode="codim2")
    comparison = compare_pi1_picture(shard_cw, shard_pic)
    assert comparison["generators_equal"]
    assert comparison["abelianizations_equal"]
    report(9, "picture group and pi1 agree (generators and abelianizations) "
              "for the torus and the Brauer shard partition")


def test_criterion_10_quotient_chain(hzb_fan, p1_partition):
    poset = rank2_bisector_poset(hzb_fan, (0, 3))
    finest = from_blocks(hzb_fan, [])
    coarsest = potential_identifications(hzb_fan).partition
    base = G.picture_group(hzb_fan, finest, poset, mode="full")
    direct = G.quotient_presentation(base, hzb_fan, finest, coarsest)
    step1 = G.quotient_presentation(base, hzb_fan, finest, p1_partition)
    step2 = G.quotient_presentation(step1, hzb_fan, p1_partition, coarsest)
    assert step2.generators == direct.generators
    assert sorted(step2.relators) == sorted(direct.relators)
    report(10, "quotient chain finest -> P1 -> coarsest equals the direct "
               "quotient up to relator multiset")
