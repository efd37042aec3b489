import random
from itertools import combinations, product

import pytest

import fraction_oracles as oracle
import search_oracles
from partfan import arrangement as A
from partfan import cones as conelib
from partfan.errors import (
    DimensionMismatch,
    InexactNumber,
    NotAChamber,
    NotSimplicialArrangement,
    PartFanError,
    WrongArrangement,
    WrongBasis,
)
from partfan.fan import build_fan, is_finite_complete, validate_fan
from partfan.partition import is_admissible, potential_identifications, refines
from partfan.poset import poset_from_linear_functional
from partfan.rational import dot, int_kernel_basis, matrix_rank, primitive_ray
from strategies import A3_NORMALS, A4_ESSENTIAL, a_normals, b_normals


# ---------------------------------------------------------------------------
# independent oracles

def region_count_oracle(normals, dim):
    """Number of chambers via Zaslavsky's theorem.

    Independently enumerates the intersection lattice from subsets of
    hyperplanes, computes its Moebius function recursively, and sums the
    absolute values.
    """
    flats = {}
    for size in range(len(normals) + 1):
        for subset in combinations(range(len(normals)), size):
            rows = [normals[i] for i in subset]
            basis = oracle.kernel_basis(rows, dim)
            closed = frozenset(
                i for i, n in enumerate(normals)
                if all(dot(n, b) == 0 for b in basis))
            flats[closed] = dim - len(oracle.rref(rows)[0])
    order = sorted(flats, key=lambda f: (len(f), sorted(f)))
    mu = {}
    for x in order:
        if x == frozenset():
            mu[x] = 1
            continue
        mu[x] = -sum(mu[y] for y in order if y < x)
    return sum(abs(m) for m in mu.values())


def sign_enumeration_fan(arrangement):
    """The arrangement fan by the former brute-force search.

    Tests each of the 3^m sign vectors for an exact witness point, takes
    the one-dimensional cells as rays and matches every cell to the rays
    that conform to it.  Returns the fan and each cone's sign vector.
    Raises NotSimplicialArrangement when a cell's ray count differs from
    its dimension.
    """
    dim, normals = arrangement.dim, arrangement.normals
    cells = {}
    for signs in product((1, 0, -1), repeat=len(normals)):
        point = conelib.strict_sign_feasible(normals, signs, dim)
        if point is not None:
            cells[signs] = point

    def cell_dimension(signs):
        zero = [normals[i] for i, s in enumerate(signs) if s == 0]
        return dim - matrix_rank(zero) if zero else dim

    ray_cells = {signs: primitive_ray(point) for signs, point in cells.items()
                 if cell_dimension(signs) == 1}
    ray_index = {r: i for i, r in enumerate(sorted(ray_cells.values()))}
    face_signs, max_cones = {}, []
    for signs in cells:
        d = cell_dimension(signs)
        cone = tuple(sorted(ray_index[v] for s, v in ray_cells.items()
                            if all(f in (0, c) for f, c in zip(s, signs))))
        if len(cone) != d:
            raise NotSimplicialArrangement("cell has a non-simplicial ray count")
        face_signs[cone] = signs
        if d == dim:
            max_cones.append(cone)
    fan = build_fan(dim, sorted(ray_index), max_cones)
    assert set(fan.cones) == set(face_signs)
    return fan, face_signs


def join_irreducible_oracle(poset):
    """Shard count via join-irreducible regions: chambers covering exactly one."""
    covered_by = {c: 0 for c in poset.elements}
    for lower, upper, _ in poset.covers:
        covered_by[upper] += 1
    return sum(1 for c in poset.elements if covered_by[c] == 1)


# ---------------------------------------------------------------------------
# fans from arrangements

def test_brauer_constants(brauer):
    assert len(brauer.arrangement.normals) == 7
    assert all(set(n) <= {0, 1} and any(n) for n in brauer.arrangement.normals)


def test_brauer_fan(brauer):
    assert len(brauer.fan.max_cones) == 32
    assert validate_fan(brauer.fan).ok
    assert is_finite_complete(brauer.fan)


def test_chamber_counts_match_zaslavsky(brauer):
    cases = [
        (A.Arrangement(2, [(1, 0), (0, 1)]), 4),
        (A.Arrangement(2, [(1, 0), (0, 1), (1, 1)]), 6),
        (brauer.arrangement, 32),
    ]
    for arrangement, expected in cases:
        oracle = region_count_oracle(arrangement.normals, arrangement.dim)
        assert oracle == expected
        fan = A.arrangement_fan(arrangement)
        assert len(fan.max_cones) == expected


def test_coordinate_arrangement_is_square_fan():
    fan = A.arrangement_fan(A.Arrangement(2, [(1, 0), (0, 1)]))
    assert len(fan.max_cones) == 4
    assert len(fan.cones) == 9


def test_non_simplicial_arrangement_rejected():
    arrangement = A.Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    with pytest.raises(NotSimplicialArrangement):
        A.arrangement_fan(arrangement)


@pytest.mark.parametrize("dim, normals", [
    (1, [(1,)]),
    (2, [(1, 0), (0, 1)]),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)]),   # a rank-2 pencil
    (3, A3_NORMALS),
], ids=["coordinate-1", "coordinate-2", "coordinate-3", "pencil", "A3"])
def test_tope_search_matches_sign_enumeration(dim, normals):
    arrangement = A.Arrangement(dim, normals)
    new = A.arrangement_fan(arrangement, with_signs=True)
    old_fan, old_signs = sign_enumeration_fan(arrangement)
    assert new.fan.to_json() == old_fan.to_json()
    assert new.fan.cones == old_fan.cones
    assert {c: new.sign_of(c) for c in new.fan.cones} == old_signs


def test_tope_search_matches_sign_enumeration_brauer(brauer):
    old_fan, old_signs = sign_enumeration_fan(brauer.arrangement)
    assert brauer.fan.to_json() == old_fan.to_json()
    assert brauer.fan.cones == old_fan.cones
    assert {c: brauer.arrfan.sign_of(c) for c in brauer.fan.cones} == old_signs


def test_non_simplicial_arrangement_rejected_by_both_searches():
    arrangement = A.Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    with pytest.raises(NotSimplicialArrangement):
        A.arrangement_fan(arrangement)
    with pytest.raises(NotSimplicialArrangement):
        sign_enumeration_fan(arrangement)


ORACLE_ARRANGEMENTS = [
    (2, [(1, 0), (0, 1)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)]),
    (3, A3_NORMALS),
    (3, A.builtin_brauer().normals),
    (3, b_normals(3)),
    (4, b_normals(4)),
]
ORACLE_IDS = ["coordinate", "pencil", "A3", "brauer", "B3", "B4"]


@pytest.mark.parametrize("dim, normals", ORACLE_ARRANGEMENTS, ids=ORACLE_IDS)
def test_sign_mask_tope_search_matches_the_conformance_scan(dim, normals):
    arrangement = A.Arrangement(dim, normals)
    new = A.arrangement_fan(arrangement, with_signs=True)
    old = search_oracles.arrangement_fan(arrangement, with_signs=True)
    assert new.fan.to_json() == old.fan.to_json()
    assert new.fan.cones == old.fan.cones
    assert [new.sign_of(c) for c in new.fan.cones] == \
        [old.sign_of(c) for c in old.fan.cones]


@pytest.mark.parametrize("normals, witness", [
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
     {"signs": [-1, 1, 1, 1], "dim": 3, "rays": 4}),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], {"signs": [1, 1, 1], "dim": 3, "rays": 0}),
], ids=["four-planes", "non-essential"])
def test_refusal_witness_is_the_conformance_scans(normals, witness):
    arrangement = A.Arrangement(3, normals)
    for search in (A.arrangement_fan, search_oracles.arrangement_fan):
        with pytest.raises(NotSimplicialArrangement) as err:
            search(arrangement)
        assert err.value.witness == witness


def _per_cone_zero_sets(arrangement, vectors):
    """``arrangement._zero_sets`` through the per-cone dot-product oracle."""
    return lambda cone: search_oracles._zero_set(arrangement, [vectors[i] for i in cone])


@pytest.mark.parametrize("dim, normals", ORACLE_ARRANGEMENTS[2:], ids=ORACLE_IDS[2:])
def test_zero_sets_match_the_per_cone_scan(monkeypatch, dim, normals):
    arrangement = A.Arrangement(dim, normals)
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    fan, base = arrfan.fan, arrfan.fan.max_cones[0]
    zero_set = A._zero_sets(arrangement, fan.rays)
    for cone in fan.cones:
        assert zero_set(cone) == search_oracles._zero_set(arrangement, fan.ray_vectors(cone))

    def layer():
        return ([A.support(arrangement, fan, c).to_json() for c in fan.cones],
                A.flat_partition(arrangement, fan).blocks,
                A.shard_partition(arrangement, arrfan, base).blocks)

    new = layer()
    monkeypatch.setattr(A, "_zero_sets", _per_cone_zero_sets)
    assert layer() == new


@pytest.mark.parametrize("dim, normals", [
    (1, []),
    (2, [(1, 0)]),
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
])
def test_non_essential_arrangement_rejected(dim, normals):
    with pytest.raises(NotSimplicialArrangement):
        A.arrangement_fan(A.Arrangement(dim, normals))
    with pytest.raises(PartFanError):
        sign_enumeration_fan(A.Arrangement(dim, normals))


@pytest.mark.parametrize("dim, normals", [
    (3, A3_NORMALS),
    (3, A.builtin_brauer().normals),
    (3, b_normals(3)),
    (4, b_normals(4)),
], ids=["A3", "brauer", "B3", "B4"])
def test_arrangement_fans_validate_by_facet_separation(monkeypatch, dim, normals):
    """A wall of one chamber separates it from every other chamber, so no
    pair of an arrangement fan needs an exact cone intersection."""
    def refuse(*args):
        raise AssertionError("exact intersection on an arrangement fan")

    fan = A.arrangement_fan(A.Arrangement(dim, normals))
    monkeypatch.setattr(conelib, "intersect_generated_cones", refuse)
    assert validate_fan(fan).ok
    assert is_finite_complete(fan)


def test_b4_has_384_simplicial_chambers():
    fan = A.arrangement_fan(A.Arrangement(4, b_normals(4)))
    assert len(fan.max_cones) == 384
    assert all(len(c) == 4 for c in fan.max_cones)
    f = [len(fan.cones_of_dim(d)) for d in range(1, 5)]
    assert f[0] - f[1] + f[2] - f[3] == 0


def test_float_normal_rejected():
    # as a float, (0.1, 0.3) is not parallel to (1, 3)
    with pytest.raises(InexactNumber) as err:
        A.Arrangement(2, [(0.1, 0.3), (1, 3)])
    assert err.value.witness == 0.1


def test_normal_of_wrong_length_rejected():
    with pytest.raises(DimensionMismatch) as err:
        A.Arrangement(3, [(1, 0, 0), (0, 1)])
    assert err.value.witness == [1, 2, 3]


def test_parallel_normals_rejected():
    with pytest.raises(WrongArrangement):
        A.Arrangement(2, [(1, 0), (-2, 0)])


# ---------------------------------------------------------------------------
# flats and the flat partition

def test_support_examples(brauer):
    fan = brauer.fan
    arrangement = brauer.arrangement
    chamber = fan.max_cones[0]
    assert A.support(arrangement, fan, chamber).indices == frozenset()
    assert A.support(arrangement, fan, ()).indices == frozenset(range(7))
    # the x-axis ray lies on exactly the hyperplanes with normals
    # (0,1,0), (0,0,1), (0,1,1)
    x_axis = next(i for i, r in enumerate(fan.rays) if r == (1, 0, 0))
    flat = A.support(arrangement, fan, (x_axis,))
    normals = {arrangement.normals[i] for i in flat.indices}
    assert normals == {(0, 1, 0), (0, 0, 1), (0, 1, 1)}


def test_flats_count(brauer):
    # ambient + 7 planes + 9 lines + origin
    assert len(A.flats(brauer.arrangement)) == 18


BELL = (1, 1, 2, 5, 15, 52, 203)


@pytest.mark.parametrize("n", range(1, 6))
def test_braid_arrangement_flats_are_set_partitions(n):
    # the flats of A_n are the set partitions of n + 1 points
    assert len(A.flats(A.Arrangement(n + 1, a_normals(n)))) == BELL[n + 1]


@pytest.mark.parametrize("dim, normals", [
    (1, [(1,)]),
    (2, [(1, 0), (0, 1), (1, 1)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)]),
    (3, [(1, 0, 0), (0, 1, 0)]),                                 # not essential
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]),  # not simplicial
    (3, A3_NORMALS),
    (3, b_normals(3)),
    (4, A4_ESSENTIAL),
    (4, a_normals(3)),
])
def test_flats_by_closure_match_subset_closures(dim, normals):
    arrangement = A.Arrangement(dim, normals)
    assert [f.to_json() for f in A.flats(arrangement)] == \
        [f.to_json() for f in search_oracles.flats(arrangement)]


@pytest.mark.parametrize("dim, normals", [
    (1, [(1,)]),
    (2, [(1, 0), (0, 1)]),
    (2, [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)]),
    (3, A3_NORMALS),
    (3, A.builtin_brauer().normals),
    (3, b_normals(3)),
    (4, A4_ESSENTIAL),
])
def test_supports_and_shards_match_the_pairwise_oracles(dim, normals):
    arrangement = A.Arrangement(dim, normals)
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    fan = arrfan.fan
    for cone in fan.cones:
        assert A.support(arrangement, fan, cone).to_json() == \
            search_oracles.support(arrangement, fan, cone).to_json()
    assert A.flat_partition(arrangement, fan).blocks == \
        search_oracles.flat_partition(arrangement, fan).blocks
    chambers = fan.chambers()
    for base in chambers[::max(1, len(chambers) // 4)]:
        assert [s.to_json() for s in A.shards(arrangement, arrfan, base)] == \
            [s.to_json() for s in search_oracles.shards(arrangement, arrfan, base)]
        assert A.shard_partition(arrangement, arrfan, base).blocks == \
            search_oracles.shard_partition(arrangement, arrfan, base).blocks


BASICS_CASES = [
    (3, A3_NORMALS),
    (3, A.builtin_brauer().normals),
    (3, b_normals(3)),
    (4, A4_ESSENTIAL),
]
BASICS_IDS = ["A3", "brauer", "B3", "A4"]


@pytest.mark.parametrize("dim, normals", BASICS_CASES, ids=BASICS_IDS)
def test_basics_from_wall_normals_match_the_kernel_oracle(dim, normals):
    """Every base chamber and every (dim-2)-face of a flat with at least
    three hyperplanes: the hyperplanes of the face's basic walls are the
    kernel oracle's basics of that flat."""
    arrangement = A.Arrangement(dim, normals)
    fan = A.arrangement_fan(arrangement)
    faces = {}
    for f in fan.cones_of_dim(dim - 2):
        members = sorted(A.support(arrangement, fan, f).indices)
        if len(members) >= 3:
            faces[f] = members
    checks = 0
    for base in fan.chambers():
        point = A._ray_sum(fan, base)
        for f, members in faces.items():
            walls = A._basic_walls(fan, f, point)
            assert len(walls) == 2
            found = {h for w in walls for h in A.support(arrangement, fan, w).indices}
            assert found == search_oracles._rank2_basics(arrangement, members, point), \
                (base, f)
            checks += 1
    assert checks == len(fan.chambers()) * len(faces) > 0


@pytest.mark.parametrize("dim, normals", BASICS_CASES, ids=BASICS_IDS)
def test_shards_make_no_kernel_call(monkeypatch, dim, normals):
    """The completeness certificate computes the fan's facet functionals;
    after it, shards read the basics off them and compute no kernel."""
    from partfan import rational

    arrangement = A.Arrangement(dim, normals)
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    assert is_finite_complete(arrfan.fan)

    def refuse(*args):
        raise AssertionError("int_kernel_basis called by shards")

    for module in (A, conelib, rational):
        monkeypatch.setattr(module, "int_kernel_basis", refuse)
    for base in arrfan.fan.chambers():
        A.shards(arrangement, arrfan, base)


def test_shards_refuse_a_mismatched_arrangement(brauer):
    normals = list(brauer.arrangement.normals)
    normals[6] = (1, -1, 1)
    other = A.Arrangement(3, normals)
    for build in (A.shards, A.shard_partition):
        with pytest.raises(WrongArrangement) as err:
            build(other, brauer.arrfan, brauer.base)
        assert err.value.witness == [other.to_json(), brauer.arrangement.to_json()]
    # the mismatch is refused before the base is looked at
    with pytest.raises(WrongArrangement):
        A.shards(other, brauer.arrfan, (0,))


def test_support_unknown_face(brauer):
    from partfan.errors import UnknownFace

    with pytest.raises(UnknownFace):
        A.support(brauer.arrangement, brauer.fan, (0, 1, 2, 3))


def test_flat_partition_admissible(brauer):
    ok, witness = is_admissible(brauer.fan, brauer.flat)
    assert ok, witness
    assert len(brauer.flat.blocks) == 18


def test_flat_partition_coordinate_plane():
    arrangement = A.Arrangement(2, [(1, 0), (0, 1)])
    fan = A.arrangement_fan(arrangement)
    partition = A.flat_partition(arrangement, fan)
    chambers = set(fan.chambers())
    assert any(set(b) == chambers for b in partition.blocks)
    ok, _ = is_admissible(fan, partition)
    assert ok


def test_flat_partition_is_coarsest_on_builtins(brauer):
    coarsest = potential_identifications(brauer.fan).partition
    assert brauer.flat == coarsest


def test_single_hyperplane_line():
    arrangement = A.Arrangement(1, [(1,)])
    fan = A.arrangement_fan(arrangement)
    partition = A.flat_partition(arrangement, fan)
    assert len(partition.blocks) == 2  # {0} and the two chambers together


# ---------------------------------------------------------------------------
# poset of regions

def test_poset_of_regions_square():
    arrangement = A.Arrangement(2, [(1, 0), (0, 1)])
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    base = next(c for c in arrfan.fan.max_cones if arrfan.sign_of(c) == (1, 1))
    poset = A.poset_of_regions(arrfan, base)
    assert poset.extremes(poset.elements)[0] == base
    top = poset.maximum()
    assert arrfan.sign_of(top) == (-1, -1)
    sizes = sorted(len(search_oracles._separating(arrfan.sign_of(c), arrfan.sign_of(base)))
                   for c in arrfan.fan.max_cones)
    assert sizes == [0, 1, 1, 2]


def test_poset_of_regions_brauer(brauer):
    poset = brauer.poset
    assert poset.extremes(poset.elements)[0] == brauer.base
    assert brauer.arrfan.sign_of(poset.maximum()) == (-1,) * 7
    base_signs = brauer.arrfan.sign_of(brauer.base)
    assert search_oracles._separating(base_signs, base_signs) == frozenset()
    antipode = poset.maximum()
    assert search_oracles._separating(brauer.arrfan.sign_of(antipode), base_signs) == \
        frozenset(range(7))


def test_separating_set_single_flip(brauer):
    for lower, upper, wall in brauer.poset.covers:
        if lower == brauer.base:
            diff = search_oracles._separating(brauer.arrfan.sign_of(upper),
                                              brauer.arrfan.sign_of(brauer.base))
            assert len(diff) == 1


def test_poset_of_regions_matches_functional(brauer):
    # any functional whose sphere minimum lies in the base region
    b = (-1, -2, -4)
    functional = poset_from_linear_functional(brauer.fan, b)
    assert set(functional.covers) == set(brauer.poset.covers)


@pytest.mark.parametrize("name", ["A3", "brauer"])
def test_poset_of_regions_matches_the_separating_sets(name):
    arrangement = A.builtin_brauer() if name == "brauer" else A.Arrangement(3, A3_NORMALS)
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    for base in arrfan.fan.chambers():
        assert A.poset_of_regions(arrfan, base).covers == \
            search_oracles.poset_of_regions(arrfan, base).covers, base


def test_poset_of_regions_not_a_chamber(brauer):
    with pytest.raises(NotAChamber):
        A.poset_of_regions(brauer.arrfan, (0,))


def test_poset_of_regions_is_fan_poset(brauer):
    # the heaviest check in the suite: both fan-poset axioms on all
    # intervals of the 32-chamber poset of regions
    from partfan.poset import check_weak_fan_poset

    report = check_weak_fan_poset(brauer.fan, brauer.poset)
    assert report.facial_ok
    assert report.union_ok


# ---------------------------------------------------------------------------
# shards

def test_shards_coordinate_plane():
    arrangement = A.Arrangement(2, [(1, 0), (0, 1)])
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    base = next(c for c in arrfan.fan.max_cones if arrfan.sign_of(c) == (1, 1))
    assert len(A.shards(arrangement, arrfan, base)) == 2


def test_shards_three_lines():
    arrangement = A.Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    base = next(c for c in arrfan.fan.max_cones
                if arrfan.sign_of(c) == (1, 1, 1))
    shard_list = A.shards(arrangement, arrfan, base)
    assert len(shard_list) == 4
    per_hyperplane = {}
    for s in shard_list:
        per_hyperplane.setdefault(s.hyperplane, []).append(s)
    # the two basic hyperplanes stay whole, the third is cut at the origin
    sizes = sorted(len(v) for v in per_hyperplane.values())
    assert sizes == [1, 1, 2]


def test_shard_counts_match_join_irreducibles(brauer):
    cases = []
    for normals in ([(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]):
        arrangement = A.Arrangement(2, normals)
        arrfan = A.arrangement_fan(arrangement, with_signs=True)
        base = next(c for c in arrfan.fan.max_cones
                    if arrfan.sign_of(c) == (1,) * len(normals))
        cases.append((arrangement, arrfan, base))
    cases.append((brauer.arrangement, brauer.arrfan, brauer.base))
    for arrangement, arrfan, base in cases:
        shard_list = A.shards(arrangement, arrfan, base)
        poset = A.poset_of_regions(arrfan, base)
        assert len(shard_list) == join_irreducible_oracle(poset)


def test_brauer_shards(brauer):
    assert len(brauer.shards) == 15
    per_hyperplane = {}
    for s in brauer.shards:
        per_hyperplane.setdefault(s.hyperplane, []).append(s)
    basics = {i for i, n in enumerate(brauer.arrangement.normals)
              if n in {(1, 0, 0), (0, 1, 0), (0, 0, 1)}}
    for h in basics:
        assert len(per_hyperplane[h]) == 1
    # every shard sits in one hyperplane; shards of a hyperplane
    # partition its walls
    for h, members in per_hyperplane.items():
        walls = [w for s in members for w in s.walls]
        assert len(walls) == len(set(walls))
        expected = [w for w in brauer.fan.walls()
                    if A.support(brauer.arrangement, brauer.fan, w).indices
                    == frozenset({h})]
        assert sorted(walls) == sorted(expected)


def test_shard_partition_examples(brauer):
    arrangement = A.Arrangement(2, [(1, 0), (0, 1)])
    arrfan = A.arrangement_fan(arrangement, with_signs=True)
    base = next(c for c in arrfan.fan.max_cones if arrfan.sign_of(c) == (1, 1))
    assert A.shard_partition(arrangement, arrfan, base) == \
        A.flat_partition(arrangement, arrfan.fan)

    three = A.Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    arrfan3 = A.arrangement_fan(three, with_signs=True)
    base3 = next(c for c in arrfan3.fan.max_cones
                 if arrfan3.sign_of(c) == (1, 1, 1))
    shard3 = A.shard_partition(three, arrfan3, base3)
    flat3 = A.flat_partition(three, arrfan3.fan)
    assert refines(shard3, flat3) and shard3 != flat3

    assert refines(brauer.shard, brauer.flat)
    ok, witness = is_admissible(brauer.fan, brauer.shard)
    assert ok, witness


def test_shard_partition_chambers_one_block(brauer):
    chambers = set(brauer.fan.chambers())
    assert any(set(b) == chambers for b in brauer.shard.blocks)


def test_brauer_link_complexes_are_spheres(brauer):
    # the sphere complex of a cone is read off its star: one vertex per cone
    # one dimension up, one simplex per cone above it; it is pure when each
    # cone of the star lies in a chamber, and a sphere's ridges lie in two
    fan = brauer.fan
    # link of a ray block: a 1-sphere (cycle)
    ray = next(b for b in brauer.flat.blocks if len(b[0]) == 1)[0]
    assert all(fan._star_chambers(c) for c in fan.star(ray))
    assert all(len(fan._star_chambers(c)) == 2 for c in fan.star(ray) if len(c) == 2)
    # link of the origin block: a 2-sphere triangulation
    assert all(fan._star_chambers(c) for c in fan.star(()))
    assert all(len(fan._star_chambers(c)) == 2 for c in fan.walls())
    vertices, edges, triangles = (len(fan.cones_of_dim(k)) for k in (1, 2, 3))
    assert vertices - edges + triangles == 2  # Euler characteristic of S^2
    assert (vertices, edges, triangles) == (18, 48, 32)


# ---------------------------------------------------------------------------
# wall algebra

def test_wall_algebra_basis_rule(brauer):
    algebra = A.WallAlgebra(brauer.arrangement)
    assert algebra.basis_mul((1, 1, 0), (0, 0, 1)) == (1, 1, 1)
    assert algebra.basis_mul((1, 1, 0), (0, 1, 1)) == A.ZERO_SYMBOL
    assert algebra.basis_mul((0, 0, 0), (1, 0, 1)) == (1, 0, 1)
    assert algebra.basis_mul(A.ZERO_SYMBOL, (1, 0, 0)) == A.ZERO_SYMBOL


def test_wall_algebra_commutative_associative(brauer):
    algebra = A.WallAlgebra(brauer.arrangement)
    for a in algebra.basis:
        for b in algebra.basis:
            assert algebra.basis_mul(a, b) == algebra.basis_mul(b, a)
            for c in algebra.basis:
                assert algebra.basis_mul(algebra.basis_mul(a, b), c) == \
                    algebra.basis_mul(a, algebra.basis_mul(b, c))


def test_wall_algebra_rejects_other_arrangements():
    with pytest.raises(WrongArrangement):
        A.WallAlgebra(A.Arrangement(2, [(1, 0), (0, 1)]))


def test_wall_algebra_rejects_a_key_outside_its_basis():
    with pytest.raises(WrongBasis) as err:
        A.WallAlgebra(A.builtin_brauer()).basis_mul((9, 9, 9), (0, 0, 0))
    assert err.value.witness == (9, 9, 9)


def test_wa_mul_bilinear(brauer):
    algebra = A.WallAlgebra(brauer.arrangement)
    x = search_oracles.wa_element(algebra, [((1, 1, 0), 2), ((0, 0, 0), 1)])
    y = search_oracles.wa_element(algebra, [((0, 0, 1), 1)])
    product = search_oracles.wa_mul(algebra, x, y)
    assert product == {(1, 1, 1): 2, (0, 0, 1): 1}


def test_wa_certify_brauer(brauer):
    from partfan.groups import picture_group

    pres = picture_group(brauer.fan, brauer.flat, brauer.poset, mode="codim2")
    assert A.wa_certify(brauer.arrangement, pres)


def _wall_symbol(rays):
    return "X[%s]" % ";".join(",".join(map(str, r)) for r in rays)


def _wall_symbols(normal):
    """Two symbols naming the wall of ``normal``, by two pairs of its rays."""
    a, b = int_kernel_basis([normal], 3)
    return _wall_symbol((a, b)), _wall_symbol((tuple(x + y for x, y in zip(a, b)), a))


def _chain_presentations(rng, count):
    """Seeded presentations of chain-pair relators over Brauer wall symbols.

    Two further walls, normals (1, 2, 0) and (1, -1, 0), are not basis
    vectors of the wall algebra.  A generator list sometimes names one
    wall twice, a relator's right side is often a shuffle of its left, and
    a relator is sometimes not of the chain-pair shape.
    """
    from partfan.groups import Presentation

    brauer = A.builtin_brauer().normals
    for _ in range(count):
        chosen = rng.sample(brauer, rng.randint(1, 4))
        if rng.random() < 0.1:
            chosen.extend(rng.sample([(1, 2, 0), (1, -1, 0)], rng.randint(1, 2)))
        gens = [rng.choice(_wall_symbols(w)) for w in chosen]
        if rng.random() < 0.05:
            gens.append(next(s for s in _wall_symbols(chosen[0]) if s != gens[0]))
        relators = []
        for _ in range(rng.randint(1, 3)):
            w1 = [rng.choice(gens) for _ in range(rng.randint(0, 4))]
            w2 = rng.sample(w1, len(w1)) if rng.random() < 0.6 else \
                [rng.choice(gens) for _ in range(rng.randint(0, 4))]
            word = [(g, 1) for g in w1] + [(g, -1) for g in reversed(w2)]
            if rng.random() < 0.05:
                word.reverse()
            relators.append(word)
        yield Presentation(gens, relators)


def _outcome(certify, arrangement, presentation):
    try:
        return certify(arrangement, presentation)
    except PartFanError as err:
        return err.code, err.witness


def test_wa_certify_agrees_with_multiplying_out():
    """Letter counts decide each relator as the products of the former
    ``wa_certify`` do: the same verdict, or the same error and witness."""
    arrangement = A.builtin_brauer()
    outcomes = []
    for pres in _chain_presentations(random.Random(29), 2000):
        got = _outcome(A.wa_certify, arrangement, pres)
        assert got == _outcome(search_oracles.wa_certify, arrangement, pres), \
            pres.to_json()
        outcomes.append(got)
    assert {True, False} <= set(outcomes)
    assert {o for o in outcomes if isinstance(o, tuple)} == {
        ("WrongBasis", (1, 2, 0)), ("WrongBasis", (1, -1, 0))}


def test_wa_certify_rejects_bad_relator(brauer):
    from partfan.groups import Presentation, picture_group

    pres = picture_group(brauer.fan, brauer.flat, brauer.poset, mode="codim2")
    gen = pres.generators[0]
    bad = Presentation(pres.generators,
                       list(pres.relators) + [((gen, 1),)])
    assert not A.wa_certify(brauer.arrangement, bad)


@pytest.mark.parametrize("generator, witness", [("g", "g"), ("X[1,0,0]", "X[1,0,0]")],
                         ids=["no-wall-symbol", "one-ray"])
def test_wa_certify_refuses_a_generator_that_names_no_wall(generator, witness):
    """A generator must be an X-symbol whose rays span a wall: "g" is no
    X-symbol, and the one ray of "X[1,0,0]" leaves a plane of normals."""
    from partfan.groups import Presentation

    with pytest.raises(WrongArrangement) as err:
        A.wa_certify(A.builtin_brauer(), Presentation([generator], []))
    assert err.value.witness == witness
