import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

import search_oracles
from partfan import arrangement as arrlib
from partfan import catalog
from partfan import cones as conelib
from partfan.errors import (
    DegenerateFunctional,
    InexactNumber,
    NotAnInterval,
    NotComplete,
    NotRank2,
    PosetInvalid,
    PossibleIdentViolation,
)
from partfan.fan import build_fan
from partfan.partition import admissible_closure, from_blocks
from partfan.poset import (
    FanPoset,
    check_nondegenerate,
    check_weak_fan_poset,
    facial_interval,
    poset_from_json,
    poset_from_linear_functional,
    rank2_bisector_poset,
)
from partfan.rational import dot, sqrt_combination_sign
from strategies import (
    A3_NORMALS,
    angular_order,
    b_normals,
    complete_planar_fans,
    random_seeds,
    refining_partition,
    seeded_planar_fan,
)

TAU1, TAU2, TAU3, TAU4 = (0, 3), (0, 1), (1, 2), (2, 3)


def union_failures_oracle(fan, poset):
    """The interval-union axiom by the former per-chamber search.

    For every interval, each chamber outside it is tested for a
    full-dimensional meeting with the cone generated by the interval's
    rays.  The intervals come from the oracle's own closure of the covers.
    """
    order = search_oracles.ClosureOrder(poset)
    failures = []
    for a in poset.elements:
        for b in poset.elements:
            if not order.leq(a, b):
                continue
            members = order.interval(a, b)
            generators = sorted({fan.rays[i] for c in members for i in c})
            halfspace_rep = conelib.halfspaces(generators, fan.dim)
            for c in poset.elements:
                if c not in members and conelib.fulldim_in_halfspaces(
                        fan.ray_vectors(c), halfspace_rep, fan.dim):
                    failures.append({"interval": [list(a), list(b)],
                                     "chamber": list(c)})
    return failures


def assert_matches_poset_oracles(fan, poset):
    """Compare the report, every facial triple, every interval and the
    extremes with the closure oracles; return the report and the number of
    exact fallback calls it made."""
    calls = []
    exact = conelib.fulldim_in_halfspaces

    def counted(*args):
        calls.append(args)
        return exact(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conelib, "fulldim_in_halfspaces", counted)
        report = check_weak_fan_poset(fan, poset)
    assert report.to_json() == search_oracles.check_weak_fan_poset(fan, poset).to_json()
    order = search_oracles.ClosureOrder(poset)
    assert [poset.facial(c) for c in fan.cones] == [order.facial(c) for c in fan.cones]
    for a in poset.elements:
        for b in poset.elements:
            assert poset.leq(a, b) == order.leq(a, b)
            assert poset.interval(a, b) == order.interval(a, b)
    assert poset.extremes(poset.elements) == order.extremes(poset.elements)
    return report, len(calls)


def chain_poset(fan, chambers):
    """The chain chambers[0] < chambers[1] < ... of wall-adjacent chambers."""
    return FanPoset(fan, [(lo, up, tuple(sorted(set(lo) & set(up))))
                          for lo, up in zip(chambers, chambers[1:])])


def test_functional_poset_square(square_fan):
    poset = poset_from_linear_functional(square_fan, (1, 1))
    assert poset.minimum() == TAU3       # chamber containing (-1,-1)
    assert poset.maximum() == TAU1


def test_functional_poset_degenerate(square_fan):
    with pytest.raises(DegenerateFunctional):
        poset_from_linear_functional(square_fan, (1, 0))


def test_functional_poset_takes_rational_functionals_and_refuses_inexact_ones(square_fan):
    """b is scaled to integers by a positive factor, so a rational b orders
    the walls as its integer multiple does; a float or bool is refused."""
    poset = poset_from_linear_functional(square_fan, (Fraction(1, 2), "1/2"))
    assert poset.covers == poset_from_linear_functional(square_fan, (1, 1)).covers
    for bad in (0.5, True):
        with pytest.raises(InexactNumber) as err:
            poset_from_linear_functional(square_fan, (bad, 1))
        assert err.value.witness is bad


def test_functional_poset_hzb_acyclic(hzb_fan):
    poset = poset_from_linear_functional(hzb_fan, (1, 2))
    assert len(poset.covers) == 4
    assert poset.minimum() is not None and poset.maximum() is not None


def test_functional_poset_incomplete():
    quadrant = build_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(NotComplete) as err:
        poset_from_linear_functional(quadrant, (1, 1))
    assert err.value.witness == quadrant.to_json()
    with pytest.raises(NotComplete) as err:
        rank2_bisector_poset(quadrant, (0, 1))
    assert err.value.witness == quadrant.to_json()


def test_wall_normal_orientation(square_fan):
    nu = square_fan._wall_normal((0,), TAU1)
    assert nu == (0, 1)
    assert square_fan._wall_normal((0,), TAU2) == (0, -1)


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


def seeded_planar_fans(seed, count, box):
    """``count`` complete planar fans on primitive rays in [-box, box]^2.

    Every other fan is centrally symmetric, whose rays lie on lines through
    the origin, so the opposite of a bisector often lands on a ray.
    """
    rng = random.Random(seed)
    pool = [(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
            if (x, y) != (0, 0) and math.gcd(x, y) == 1]
    half = [(x, y) for x, y in pool if y > 0 or (y == 0 and x > 0)]
    fans = []
    while len(fans) < count:
        if len(fans) % 2:
            rays = rng.sample(pool, rng.randint(3, min(10, len(pool))))
        else:
            picks = rng.sample(half, rng.randint(2, min(5, len(half))))
            rays = picks + [(-x, -y) for x, y in picks]
        rays = angular_order(rays)
        n = len(rays)
        if all(a[0] * b[1] - a[1] * b[0] > 0
               for a, b in zip(rays, rays[1:] + rays[:1])):
            fans.append(build_fan(2, rays, [tuple(sorted((i, (i + 1) % n)))
                                            for i in range(n)]))
    return fans


def bisector_outcome(construct, fan, base):
    """The covers ``construct`` gives for the base, or its refusal."""
    try:
        return construct(fan, base).covers
    except PosetInvalid as err:
        return "PosetInvalid", err.witness


def minus_bisector_on_a_ray(fan, base):
    """Whether -d, for d the bisector of the base, lies on a ray of the fan."""
    u, w = fan.ray_vectors(base)
    p, q = dot(w, w), dot(u, u)   # d = u*sqrt(p) + w*sqrt(q)

    def sign_at_d(form):
        return sqrt_combination_sign(form(u), p, form(w), q)

    # r lies on -d iff det(r, d) = 0 > r . d
    return any(sign_at_d(lambda v: r[0] * v[1] - r[1] * v[0]) == 0
               and sign_at_d(lambda v: dot(r, v)) < 0 for r in fan.rays)


def test_bisector_poset_matches_the_angular_walk():
    """Every base of the catalogue fans and of seeded planar fans, on a
    box of 4 and a box of 2: the wall-orientation loop gives the covers,
    or the refusal, of the former angular walk."""
    fans = [catalog.square(), catalog.hirzebruch(1), catalog.hirzebruch(2),
            catalog.three_lines()]
    fans += seeded_planar_fans(1, 150, 4) + seeded_planar_fans(2, 150, 2)
    ties = refusals = 0
    for fan in fans:
        for base in fan.chambers():
            got = bisector_outcome(rank2_bisector_poset, fan, base)
            assert got == bisector_outcome(search_oracles.rank2_bisector_poset,
                                           fan, base), (fan.to_json(), base)
            ties += minus_bisector_on_a_ray(fan, base)
            refusals += got[0] == "PosetInvalid"
    assert ties > 0 and refusals > 0


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
    with pytest.raises(PosetInvalid) as err:
        FanPoset(fan, [((0,), TAU2, (0,))])   # a ray is not a chamber
    assert err.value.witness == [[0], [0, 1]]


def test_cycle_witness_is_the_first_chamber_on_the_cycle(square_fan):
    """(1,2) and (2,3) cover each other; (0,3) and (0,1) lie above the
    cycle but not on it, and come first in chamber order."""
    covers = [(TAU3, TAU4, (2,)), (TAU4, TAU3, (2,)),
              (TAU4, TAU1, (3,)), (TAU1, TAU2, (0,))]
    with pytest.raises(PosetInvalid) as err:
        FanPoset(square_fan, covers)
    assert err.value.witness == [1, 2]


def test_a_cover_listed_twice_is_refused(square_fan):
    """The covers of (1, 1) on the square fan, with [1,2] < [0,1] listed
    twice: each maximal chain through that cover would be counted twice,
    so the poset is refused with the doubled cover as the witness."""
    covers = [[[1, 2], [0, 1]], [[1, 2], [0, 1]], [[1, 2], [2, 3]],
              [[0, 1], [0, 3]], [[2, 3], [0, 3]]]
    assert sorted((tuple(lower), tuple(upper)) for lower, upper in covers[1:]) == [
        cover[:2] for cover in poset_from_linear_functional(square_fan, (1, 1)).covers]
    with pytest.raises(PosetInvalid) as err:
        poset_from_json(square_fan, {"covers": covers})
    assert err.value.witness == [[1, 2], [0, 1]]


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


def test_nondegenerate_accepts_a_partial_cover_set(square_fan, torus_partition):
    # the torus block {s1, s3}: a check of s3's covers against s1's would
    # reject the first poset, whose covers skip the wall s1
    poset = poset_from_linear_functional(square_fan, (1, 1))
    skip_s1 = FanPoset(square_fan, [c for c in poset.covers if c[2] != (0,)])
    skip_s3 = FanPoset(square_fan, [c for c in poset.covers if c[2] != (2,)])
    assert check_nondegenerate(square_fan, torus_partition, skip_s1) == (True, None)
    assert check_nondegenerate(square_fan, torus_partition, skip_s3) == (False, {
        "block": [[0], [2]], "cover": [[0, 1], [0, 3]], "image": [[1, 2], [2, 3]]})
    for p in (skip_s1, skip_s3):
        assert check_nondegenerate(square_fan, torus_partition, p) == \
            search_oracles.check_nondegenerate(square_fan, torus_partition, p)


def test_nondegenerate_fails_between_later_members():
    """Walls w0, w1, w2 of one hyperplane in one block, with no cover across
    w0 and w2: w0 passes against both, and the cover across w1 has no image."""
    arrfan = arrlib.arrangement_fan(arrlib.Arrangement(3, A3_NORMALS), with_signs=True)
    fan = arrfan.fan
    regions = arrlib.poset_of_regions(arrfan, fan.chambers()[0])
    h = fan.walls()[0]
    w0, w1, w2 = [w for w in fan.walls()
                  if fan.project_star(w) == fan.project_star(h)][:3]
    poset = FanPoset(fan, [c for c in regions.covers if c[2] not in (w0, w2)])
    partition = from_blocks(fan, [(w0, w1, w2)])
    ok, witness = check_nondegenerate(fan, partition, poset)
    assert not ok
    assert witness["cover"] == [[list(lo), list(up)] for lo, up, w in regions.covers
                                if w == w1][0]
    assert (ok, witness) == search_oracles.check_nondegenerate(fan, partition, poset)


def test_nondegenerate_rejects_a_block_across_classes(square_fan):
    # the former pair scan ended in a raw KeyError from the star matching
    poset = poset_from_linear_functional(square_fan, (1, 2))
    partition = from_blocks(square_fan, [[(0,), (1,)]])
    with pytest.raises(PossibleIdentViolation) as err:
        check_nondegenerate(square_fan, partition, poset)
    assert err.value.witness == [[0], [1]]


def _poset_variants(fan, poset, rng):
    """The poset, three with covers left out, and the acyclic ones of three
    with covers flipped."""
    out = [poset]
    for _ in range(3):
        out.append(FanPoset(fan, [c for c in poset.covers if rng.random() < 0.7]))
    for _ in range(3):
        try:
            out.append(FanPoset(fan, [(up, lo, w) if rng.random() < 0.2 else (lo, up, w)
                                      for lo, up, w in poset.covers]))
        except PosetInvalid:
            pass
    return out


def test_nondegenerate_matches_the_pairwise_oracle():
    """check_nondegenerate tests inclusions of cover images along each
    block; the former scan matched every pair against every cover."""
    rng = random.Random(5)
    cases = [(catalog.square(), (1, 2)), (catalog.three_lines(), (2, 1)),
             (catalog.hirzebruch(2), (1, 3))]
    cases = [(fan, poset_from_linear_functional(fan, b)) for fan, b in cases]
    for normals in (A3_NORMALS, catalog.brauer().normals):
        arrfan = arrlib.arrangement_fan(arrlib.Arrangement(3, normals), with_signs=True)
        base = arrfan.fan.chambers()[3]
        cases.append((arrfan.fan, arrlib.poset_of_regions(arrfan, base)))
    verdicts = []
    for fan, poset in cases:
        partitions = [admissible_closure(fan, random_seeds(fan, rng)) for _ in range(6)]
        partitions += [refining_partition(fan, rng) for _ in range(6)]
        for variant in _poset_variants(fan, poset, rng):
            for p in partitions:
                result = check_nondegenerate(fan, p, variant)
                assert result == search_oracles.check_nondegenerate(fan, p, variant)
                verdicts.append(result[0])
    assert 50 < verdicts.count(False) < len(verdicts) - 50


@settings(max_examples=20, deadline=None)
@given(complete_planar_fans(), st.integers(0, 2 ** 32))
def test_nondegenerate_matches_the_pairwise_oracle_on_planar_fans(fan, seed):
    rng = random.Random(seed)
    b = (rng.randint(-9, 9), rng.randint(-9, 9))
    try:
        poset = poset_from_linear_functional(fan, b)
    except DegenerateFunctional:
        assume(False)
    for variant in _poset_variants(fan, poset, rng):
        for p in (admissible_closure(fan, random_seeds(fan, rng)),
                  refining_partition(fan, rng)):
            assert check_nondegenerate(fan, p, variant) == \
                search_oracles.check_nondegenerate(fan, p, variant)


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
    ok, _ = check_nondegenerate(square_fan, from_blocks(square_fan, []), poset)
    assert ok


def test_check_weak_fan_poset_requires_complete_fan():
    quadrant = build_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
    poset = FanPoset(quadrant, [((0, 1), (1, 2), (1,))])
    with pytest.raises(NotComplete) as err:
        check_weak_fan_poset(quadrant, poset)
    assert err.value.witness == quadrant.to_json()


def test_union_test_matches_oracle_on_planar_chain():
    # a chain of the first four of six chambers spans 225 degrees and is
    # not convex; the first three span a half-plane
    fan = build_fan(2, [(1, 0), (1, 1), (-1, 2), (-1, 0), (-1, -1), (1, -2)],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    poset = chain_poset(fan, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    report, fallbacks = assert_matches_poset_oracles(fan, poset)
    expected = union_failures_oracle(fan, poset)
    assert list(report.union_failures) == expected
    assert {"interval": [[0, 1], [3, 4]], "chamber": [4, 5]} in expected
    assert {"interval": [[0, 1], [2, 3]], "chamber": [4, 5]} not in expected
    assert fallbacks == 0


def test_union_test_matches_oracle_on_octant_chain():
    # the octants in Gray-code order: three consecutive octants make an L
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    octants = [tuple(sorted(t)) for t in product((0, 3), (1, 4), (2, 5))]
    fan = build_fan(3, rays, octants)
    gray = [0, 1, 3, 2, 6, 7, 5, 4]
    poset = chain_poset(fan, [octants[i] for i in gray])
    report, fallbacks = assert_matches_poset_oracles(fan, poset)
    expected = union_failures_oracle(fan, poset)
    assert list(report.union_failures) == expected
    assert expected
    assert fallbacks == 0


@settings(max_examples=15, deadline=None)
@given(complete_planar_fans(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.integers(0, 8))
def test_union_test_matches_oracle_on_functional_posets(fan, b, base):
    """Functional and bisector posets of random planar fans: the sign rules
    decide every chamber, since a non-convex planar union spans the plane."""
    try:
        poset = poset_from_linear_functional(fan, b)
    except DegenerateFunctional:
        assume(False)
    report, fallbacks = assert_matches_poset_oracles(fan, poset)
    assert list(report.union_failures) == union_failures_oracle(fan, poset)
    assert fallbacks == 0
    try:
        bisector = rank2_bisector_poset(fan, fan.chambers()[base % len(fan.chambers())])
    except PosetInvalid:
        return
    assert assert_matches_poset_oracles(fan, bisector)[1] == 0


def test_weak_fan_poset_matches_oracles_on_catalogue_fans():
    """Functional, bisector and angular chain posets of the catalogue fans;
    the chains have non-convex intervals."""
    failures = 0
    for fan in (catalog.square(), catalog.hirzebruch(1), catalog.hirzebruch(2),
                catalog.three_lines()):
        posets = []
        for base in fan.chambers():
            try:
                posets.append(rank2_bisector_poset(fan, base))
            except PosetInvalid:
                pass
        for b in ((1, 1), (1, 2), (2, 1), (-1, 3), (3, -2), (2, 5)):
            try:
                posets.append(poset_from_linear_functional(fan, b))
            except DegenerateFunctional:
                pass
        order = search_oracles._angular_chamber_order(fan, fan.chambers()[0])
        posets.append(chain_poset(fan, order))
        for poset in posets:
            report, fallbacks = assert_matches_poset_oracles(fan, poset)
            assert fallbacks == 0
            failures += len(report.union_failures)
    assert failures > 0


@pytest.mark.parametrize("name", ["A3", "B3", "brauer"])
def test_weak_fan_poset_matches_oracles_on_posets_of_regions(name):
    normals = {"A3": A3_NORMALS, "B3": b_normals(3),
               "brauer": catalog.brauer().normals}[name]
    arrfan = arrlib.arrangement_fan(arrlib.Arrangement(3, normals), with_signs=True)
    base = next(c for c in arrfan.fan.max_cones
                if arrfan.sign_of(c) == (1,) * len(normals))
    report, fallbacks = assert_matches_poset_oracles(
        arrfan.fan, arrlib.poset_of_regions(arrfan, base))
    assert report.ok and fallbacks == 0


def test_union_test_decides_a_straddling_chamber_exactly():
    """A gallery of four A3 chambers whose union is not convex.  Outside
    chambers that straddle a facet of the cone over its rays are decided by
    neither sign rule, so the exact test runs; the other outside chambers
    are decided by the signs."""
    fan = arrlib.arrangement_fan(arrlib.Arrangement(3, A3_NORMALS))
    ray = {r: i for i, r in enumerate(fan.rays)}
    gallery = [tuple(sorted(ray[r] for r in c)) for c in (
        ((1, -1, 1), (1, 0, 0), (1, 1, 1)),
        ((0, 0, 1), (1, -1, 1), (1, 1, 1)),
        ((-1, -1, 1), (0, 0, 1), (1, -1, 1)),
        ((-1, -1, 1), (0, -1, 0), (1, -1, 1)))]
    poset = chain_poset(fan, gallery)
    report, fallbacks = assert_matches_poset_oracles(fan, poset)
    assert list(report.union_failures) == union_failures_oracle(fan, poset)
    assert fallbacks == 2


def assert_first_chain_is_first_of_maximal_chains(poset):
    for a in poset.elements:
        for b in poset.elements:
            assert poset.first_chain(a, b) == (poset.maximal_chains(a, b) or [None])[0]


def test_first_chain_on_a3_poset_of_regions():
    arrfan = arrlib.arrangement_fan(arrlib.Arrangement(3, A3_NORMALS), with_signs=True)
    base = next(c for c in arrfan.fan.max_cones if arrfan.sign_of(c) == (1,) * 6)
    assert_first_chain_is_first_of_maximal_chains(arrlib.poset_of_regions(arrfan, base))


def test_first_chain_on_bisector_posets():
    checked = 0
    for fan in (catalog.square(), catalog.hirzebruch(1), catalog.hirzebruch(2)):
        for base in fan.chambers():
            try:
                poset = rank2_bisector_poset(fan, base)
            except PosetInvalid:
                continue
            assert_first_chain_is_first_of_maximal_chains(poset)
            checked += 1
    assert checked >= 6


@settings(max_examples=15, deadline=None)
@given(complete_planar_fans(), st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_first_chain_on_functional_posets(fan, b):
    try:
        poset = poset_from_linear_functional(fan, b)
    except DegenerateFunctional:
        assume(False)
    assert_first_chain_is_first_of_maximal_chains(poset)


def test_maximal_chains_match_the_recursive_walk():
    """Every comparable pair of the Brauer, A3 and B3 posets of regions and
    of the bisector posets of the catalogue's and of seeded planar fans."""
    posets, ends = [], []
    for arrangement in (arrlib.builtin_brauer(), arrlib.Arrangement(3, A3_NORMALS),
                        arrlib.Arrangement(3, b_normals(3))):
        arrfan = arrlib.arrangement_fan(arrangement, with_signs=True)
        base = next(c for c in arrfan.fan.max_cones
                    if arrfan.sign_of(c) == (1,) * len(arrangement.normals))
        posets.append(arrlib.poset_of_regions(arrfan, base))
        ends.append(len(posets[-1].maximal_chains(base, posets[-1].maximum())))
    fans = [catalog.square(), catalog.hirzebruch(1), catalog.hirzebruch(2), catalog.three_lines()]
    fans += [seeded_planar_fan(seed, n, n % 4 == 0) for seed in (1, 2, 3) for n in (5, 6, 8, 10)]
    for fan in fans:
        for base in fan.chambers():
            try:
                posets.append(rank2_bisector_poset(fan, base))
            except PosetInvalid:
                continue
    chains = 0
    for poset in posets:
        for a in poset.elements:
            for b in poset.elements:
                got = poset.maximal_chains(a, b)
                assert got == search_oracles.maximal_chains(poset, a, b), (a, b)
                chains += len(got)
    # reduced words of the longest element: 16 in type A3, 42 in type B3
    assert (ends, len(posets), chains) == ([24, 16, 42], 105, 4329)
