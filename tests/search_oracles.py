"""Former exhaustive searches of partfan, kept as oracles for the pruned ones.

Each routine below is the one it replaced in partfan, copied unchanged
apart from imports:

- ``enumerate_admissible`` and ``_product``: the product filter that
  ``partition.enumerate_admissible``'s depth-first search replaced.  It
  builds every product of set partitions of the E-classes and keeps the
  candidates that ``is_admissible`` accepts.
- ``flats``, ``_flat_from_indices``, ``support`` and ``flat_partition``:
  the lattice of flats from the closures of all 2^m hyperplane subsets,
  and supports by a second closure.
- ``shards`` and ``shard_partition``: every pair of walls on a hyperplane
  tested for a shared codimension-2 face, and blocks keyed by the
  intersection of the shards' face sets.
- ``is_admissible``, ``admissible_closure`` and ``check_nondegenerate``:
  the star matching of every pair of cones in a block, and for
  non-degeneracy a scan of every cover for each such pair.
"""

from itertools import combinations

from partfan.arrangement import Flat, Shard, _chamber_check, _rank2_basics
from partfan.errors import (
    EnumerationLimitExceeded,
    SeedNotPossible,
    UnknownCone,
    UnknownFace,
)
from partfan.partition import (
    Partition,
    UnionFind,
    _check_possible,
    _set_partitions,
    _star_matching,
    group_by,
    potential_identifications,
)
from partfan.rational import dot, int_kernel_basis, matrix_rank


def enumerate_admissible(fan, limit=16):
    """All admissible partitions of a small fan, by exhaustive search.

    Candidates are products of set partitions of each E-class, filtered by
    is_admissible.  Guarded by a cone-count limit because partition counts
    explode.
    """
    if len(fan.cones) > limit:
        raise EnumerationLimitExceeded(
            "fan exceeds the enumeration guard", witness=len(fan.cones))
    ident = potential_identifications(fan)
    per_class = [list(_set_partitions(list(cls))) for cls in ident.classes]
    out = []
    for choice in _product(per_class):
        blocks = [tuple(b) for part in choice for b in part]
        partition = Partition(fan, blocks)
        if is_admissible(fan, partition)[0]:
            out.append(partition)
    return out


def _product(lists):
    if not lists:
        yield []
        return
    for head in lists[0]:
        for rest in _product(lists[1:]):
            yield [head] + rest


# ---------------------------------------------------------------------------
# flats and shards


def _flat_from_indices(arrangement, indices):
    normals = [arrangement.normals[i] for i in indices]
    basis = int_kernel_basis(normals, arrangement.dim) if indices \
        else int_kernel_basis([], arrangement.dim)
    closed = frozenset(
        i for i, n in enumerate(arrangement.normals)
        if all(dot(n, b) == 0 for b in basis)
    ) if basis else frozenset(range(len(arrangement.normals)))
    return Flat(closed, basis)


def flats(arrangement):
    """All flats, from closures of hyperplane subsets."""
    out = set()
    m = len(arrangement.normals)
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            out.add(_flat_from_indices(arrangement, subset))
    return sorted(out, key=lambda f: (len(f.indices), sorted(f.indices)))


def support(arrangement, fan, cone):
    """Smallest flat containing a face of the arrangement fan."""
    try:
        cone = fan.check_cone(cone)
    except UnknownCone as err:
        raise UnknownFace("face not in the arrangement fan",
                          witness=err.witness) from err
    if cone == ():
        return _flat_from_indices(arrangement, range(len(arrangement.normals)))
    vectors = fan.ray_vectors(cone)
    containing = [i for i, n in enumerate(arrangement.normals)
                  if all(dot(n, v) == 0 for v in vectors)]
    return _flat_from_indices(arrangement, containing)


def flat_partition(arrangement, fan):
    """Blocks are the cones with equal support flats; admissible by theory,
    and re-verified by the caller through partition.is_admissible."""
    return group_by(fan, lambda cone: support(arrangement, fan, cone).indices)


def shards(arrangement, arrfan, base):
    """Cut every hyperplane along the rank-2 subarrangement rule.

    For each codimension-2 flat X the subarrangement consists of the
    hyperplanes containing X; its two basic members are the facet
    hyperplanes of the region containing the base.  Every non-basic member
    is cut along X.  Shards are the components of each hyperplane's walls
    under adjacency through uncut codimension-2 faces.
    """
    fan = arrfan.fan
    base = _chamber_check(fan, base)
    base_point = arrfan.face_points[base]
    m = len(arrangement.normals)
    codim2 = [f for f in flats(arrangement)
              if matrix_rank([arrangement.normals[i] for i in f.indices]) == 2]
    cut_flats = {i: set() for i in range(m)}
    for flat in codim2:
        members = sorted(flat.indices)
        if len(members) < 3:
            continue
        basics = _rank2_basics(arrangement, members, base_point)
        for h in members:
            if h not in basics:
                cut_flats[h].add(flat.indices)
    wall_hyperplane = {}
    for wall in fan.walls():
        sup = support(arrangement, fan, wall)
        (h,) = sup.indices
        wall_hyperplane[wall] = h
    out = []
    for h in range(m):
        walls = sorted(w for w, hh in wall_hyperplane.items() if hh == h)
        sets = UnionFind(walls)
        for a, b in combinations(walls, 2):
            shared = tuple(sorted(set(a) & set(b)))
            if len(shared) != fan.dim - 2 or shared not in fan:
                continue
            flat_key = support(arrangement, fan, shared).indices
            if flat_key not in cut_flats[h]:
                sets.union(a, b)
        groups = {}
        for w in walls:
            groups.setdefault(sets.find(w), []).append(w)
        for members in sorted(groups.values()):
            out.append(Shard(len(out), h, members))
    return out


def shard_partition(arrangement, arrfan, base):
    """Blocks keyed by the smallest intersection of shards containing a cone.

    The intersection is taken over the shards' full face sets (all cones
    of the fan inside the shard), which represents the point-set
    intersection faithfully; chambers lie in no shard and share a
    distinguished ambient key.
    """
    fan = arrfan.fan
    shard_list = shards(arrangement, arrfan, base)
    face_sets = []
    for sh in shard_list:
        faces = set()
        for w in sh.walls:
            for k in range(len(w) + 1):
                faces.update(combinations(w, k))
        face_sets.append(frozenset(faces))

    def key(cone):
        containing = [faces for faces in face_sets if cone in faces]
        return frozenset.intersection(*containing) if containing else "ambient"

    return group_by(fan, key)


# ---------------------------------------------------------------------------
# identification layer


def is_admissible(fan, partition):
    """Whether identified cones force identification of matching star members.

    Returns (True, None) or (False, witness) with witness the offending
    quadruple (sigma1, sigma2, tau1, tau2).  Raises PossibleIdentViolation
    when a block is not even contained in one E-class.
    """
    _check_possible(fan, partition)
    for block in partition.blocks:
        for s1, s2 in combinations(block, 2):
            match = _star_matching(fan, s1, s2)
            for t1, t2 in match.items():
                if not partition.same_block(t1, t2):
                    return False, (s1, s2, t1, t2)
    return True, None


def admissible_closure(fan, seed_pairs):
    """Smallest admissible partition whose blocks contain all seed pairs.

    Union-find fixpoint: whenever sigma1 ~ sigma2, matching star members
    are merged; iterated until stable.  Merges strictly decrease the block
    count, so this terminates.
    """
    ident = potential_identifications(fan)
    sets = UnionFind(fan.cones)
    for a, b in seed_pairs:
        a = fan.check_cone(a)
        b = fan.check_cone(b)
        if not ident.same_class(a, b):
            raise SeedNotPossible("seed pair crosses E-classes",
                                  witness=[list(a), list(b)])
        sets.union(a, b)
    while True:
        closure = group_by(fan, sets.find)
        merged = False
        for block in closure.blocks:
            for s1, s2 in combinations(block, 2):
                for t1, t2 in _star_matching(fan, s1, s2).items():
                    merged |= sets.union(t1, t2)
        if not merged:
            return closure


def check_nondegenerate(fan, partition, poset):
    """Whether the poset is well-defined on identified stars.

    For every pair sigma1 ~ sigma2 the cover directions inside their stars
    must agree under the canonical matching of projected cones; a mismatch
    would force a picture-group generator to be trivial.  Returns
    (True, None) or (False, witness).
    """
    for block in partition.blocks:
        if len(block[0]) == fan.dim:
            continue
        for s1, s2 in combinations(block, 2):
            match = _star_matching(fan, s1, s2)
            for lower, upper, wall in poset.covers:
                if not (set(s1) <= set(wall)):
                    continue
                lo2, up2 = match.get(lower), match.get(upper)
                if lo2 is None or up2 is None:
                    continue
                direction = poset.cover_direction(lo2, up2)
                if direction != 1:
                    return False, {
                        "block": [list(c) for c in block],
                        "cover": [list(lower), list(upper)],
                        "image": [list(lo2), list(up2)],
                    }
    return True, None
