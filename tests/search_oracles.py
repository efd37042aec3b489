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
- ``check_cubical``, ``_faq_morphisms``, ``factorization_cube``,
  ``first_factors``, ``last_factors`` and
  ``check_last_factor_compatibility``: every (sigma, tau) pair looked up
  through the validating ``Category.morphism_of_pair``, each Faq count by a
  scan of a whole hom-set, and the factors of axioms 4 and 5 looked up again
  rather than read off the cube.
- ``ClosureOrder`` (with the former ``FanPoset`` closure and its
  ``leq``, ``interval``, ``extremes`` and ``facial``), ``_convex_union``
  and ``check_weak_fan_poset``: the order as frozensets of the chambers
  above each chamber, closed from the poset's cover list alone; every
  interval listed by a scan of all chambers; the boundary-wall test by one
  dot product per (boundary wall, ray); and every outside chamber of a
  non-convex interval decided by ``fulldim_in_halfspaces``.
- ``PerConeProjection``: ``Fan._scaled_projection`` and
  ``Fan._projected_cone`` as they were before projections were keyed by
  span, as methods of an object holding the fan and the two caches: one
  ``int_complement_projection`` of the base cone's rays per base cone,
  chambers and every wall of one hyperplane included.
- ``link_complex``: every subset of the next-dimension star cones tested
  for a projected cone of the star, layer by layer, where
  ``fan.link_complex`` now reads each simplex off one cone of the star.
"""

from itertools import combinations

from partfan import cones as conelib
from partfan.arrangement import Flat, Shard, _chamber_check, _rank2_basics
from partfan.category import (
    AxiomReport,
    FactorizationCube,
    _cliques_of_size_3_up,
    _factorizations,
)
from partfan.errors import (
    EnumerationLimitExceeded,
    MixedBlock,
    NotComplete,
    PosetInvalid,
    RankZero,
    SeedNotPossible,
    UnknownCone,
    UnknownFace,
)
from partfan.fan import LinkComplex, is_finite_complete
from partfan.partition import (
    Partition,
    UnionFind,
    _check_possible,
    _set_partitions,
    _star_matching,
    group_by,
    potential_identifications,
)
from partfan.poset import PosetReport, wall_normal
from partfan.rational import (
    dot,
    int_complement_projection,
    int_kernel_basis,
    mat_vec,
    matrix_rank,
    primitive_ray,
)


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


# ---------------------------------------------------------------------------
# cubical axioms

def first_factors(category, f):
    """The rank-1 first factors [f_{sigma, cone{sigma, v_i}}]."""
    if f.rank == 0:
        raise RankZero("identity morphisms have no factors", witness=f.index)
    sigma, tau = f.reps[0]
    extra = [i for i in tau if i not in sigma]
    out = set()
    for v in extra:
        middle = tuple(sorted(sigma + (v,)))
        out.add(category.morphism_of_pair(sigma, middle).index)
    return tuple(category.morphisms[i] for i in sorted(out))


def last_factors(category, f):
    """The rank-1 last factors [f_{lambda_i, tau}] with lambda_i dropping v_i."""
    if f.rank == 0:
        raise RankZero("identity morphisms have no factors", witness=f.index)
    sigma, tau = f.reps[0]
    extra = [i for i in tau if i not in sigma]
    out = set()
    for v in extra:
        lam = tuple(i for i in tau if i != v)
        out.add(category.morphism_of_pair(lam, tau).index)
    return tuple(category.morphisms[i] for i in sorted(out))


def factorization_cube(category, f):
    """All two-step factorizations of f, with the subset-poset indexing.

    The subset map comes from one representative (sigma, tau): S maps to
    sigma -> cone{sigma, {v_i : i in S}} -> tau.  The build verifies that
    this hits every factorization pair exactly once (Faq(f) ~ I^k).
    """
    sigma, tau = f.reps[0]
    extra = [i for i in tau if i not in sigma]
    objects = []
    subset_of = {}
    for size in range(len(extra) + 1):
        for S in combinations(range(len(extra)), size):
            middle = tuple(sorted(sigma + tuple(extra[i] for i in S)))
            g = category.morphism_of_pair(sigma, middle)
            h = category.morphism_of_pair(middle, tau)
            objects.append((g.index, h.index))
            subset_of[(g.index, h.index)] = frozenset(S)
    return FactorizationCube(f, tuple(objects), subset_of)


def check_cubical(category):
    """Verify the five cubical axioms on the materialized category.

    1. rank additivity over the composition table;
    2. Faq(f) is isomorphic to the subset poset of {1..rank f};
    3. the middle-object functor Faq(f) -> C is injective on objects and
       faithful (at most one morphism between factorization objects);
    4. morphisms of equal rank >= 1 are determined by their first factors;
    5. likewise by their last factors.
    """
    report = AxiomReport()
    ms = category.morphisms
    for (fi, gi), hi in sorted(category.compose_table.items()):
        if ms[fi].rank + ms[gi].rank != ms[hi].rank:
            report.record(1, {"f": fi, "g": gi, "composite": hi})

    factorizations = _factorizations(category)
    for f in ms:
        pairs = factorizations.get(f.index, [])
        cube = factorization_cube(category, f)
        if sorted(cube.objects) != pairs or len(set(cube.objects)) != 2 ** f.rank:
            report.record(2, {"morphism": f.index,
                              "expected": 2 ** f.rank,
                              "pairs": pairs})
            continue
        middles = [ms[g].target for g, _ in cube.objects]
        if len(set(middles)) != len(middles):
            report.record(3, {"morphism": f.index, "middles": middles})
        for (a, b) in combinations(cube.objects, 2):
            for src, dst in ((a, b), (b, a)):
                count = _faq_morphisms(category, src, dst)
                expected = 1 if cube.subset_of[src] <= cube.subset_of[dst] else 0
                if count != expected:
                    report.record(3 if count > 1 else 2,
                                  {"morphism": f.index, "from": src, "to": dst,
                                   "count": count, "expected": expected})

    by_first = {}
    by_last = {}
    for f in ms:
        if f.rank == 0:
            continue
        fkey = tuple(sorted(m.index for m in first_factors(category, f)))
        lkey = tuple(sorted(m.index for m in last_factors(category, f)))
        if fkey in by_first:
            report.record(4, {"a": by_first[fkey], "b": f.index, "first": fkey})
        else:
            by_first[fkey] = f.index
        if lkey in by_last:
            report.record(5, {"a": by_last[lkey], "b": f.index, "last": lkey})
        else:
            by_last[lkey] = f.index
    return report


def _faq_morphisms(category, src, dst):
    """Number of Faq-morphisms between two factorization objects of one f."""
    g1, h1 = src
    g2, h2 = dst
    ms = category.morphisms
    count = 0
    for phi_idx in category.hom.get((ms[g1].target, ms[g2].target), ()):
        if category.compose_table.get((g1, phi_idx)) == g2 and \
           category.compose_table.get((phi_idx, h2)) == h1:
            count += 1
    return count


def check_last_factor_compatibility(category):
    """Pairwise compatibility of last factors.

    For each object, any set of k >= 3 rank-1 morphisms into it that are
    pairwise the last factors of a rank-2 morphism must jointly be the
    last-factor set of a rank-k morphism.  Returns (True, None) or
    (False, offending set of morphism indices).  In ambient dimension 2
    this amounts to detecting any 3 pairwise-compatible rank-1 morphisms.
    """
    ms = category.morphisms
    for obj in category.objects:
        incoming = [m for m in ms if m.target == obj]
        rank1 = sorted(m.index for m in incoming if m.rank == 1)
        if len(rank1) < 3:
            continue
        edges = set()
        realized = {}
        for m in incoming:
            if m.rank < 2:
                continue
            key = tuple(sorted(x.index for x in last_factors(category, m)))
            realized.setdefault(len(key), set()).add(key)
            if m.rank == 2:
                edges.add(key)
        neighbors = {v: set() for v in rank1}
        for a, b in edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        for clique in _cliques_of_size_3_up(rank1, neighbors):
            if clique not in realized.get(len(clique), set()):
                return False, clique
    return True, None


# ---------------------------------------------------------------------------
# fan-poset axioms

class ClosureOrder:
    """The order of a FanPoset, closed again from its cover list alone."""

    def __init__(self, poset):
        self.fan = poset.fan
        self.elements = poset.elements
        self._up = {c: [] for c in self.elements}
        for lower, upper, wall in poset.covers:
            self._up[lower].append((upper, wall))
        self._above = {}
        for c in self.elements:
            seen = set()
            stack = [c]
            while stack:
                x = stack.pop()
                for y, _ in self._up[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if c in seen:
                raise PosetInvalid("cover relation has a cycle", witness=list(c))
            seen.add(c)
            self._above[c] = frozenset(seen)
        self._facial = {}

    def leq(self, a, b):
        return b in self._above[a]

    def interval(self, a, b):
        return tuple(sorted(c for c in self.elements
                            if self.leq(a, c) and self.leq(c, b)))

    def extremes(self, members):
        """(minimum, maximum) of the members, each None unless unique."""
        mins = [c for c in members
                if all(not self.leq(o, c) for o in members if o != c)]
        maxs = [c for c in members
                if all(not self.leq(c, o) for o in members if o != c)]
        return (mins[0] if len(mins) == 1 else None,
                maxs[0] if len(maxs) == 1 else None)

    def facial(self, cone):
        """The facial interval of ``cone`` as (members, lower, upper).

        Members are the chambers of star(cone); lower and upper are None
        unless the members form the order interval [lower, upper].
        Computed once per cone.
        """
        if cone not in self._facial:
            members = self.fan.star_chambers(cone)
            lo, hi = self.extremes(members)
            if lo is None or hi is None or \
                    set(self.interval(lo, hi)) != set(members):
                lo = hi = None
            self._facial[cone] = (members, lo, hi)
        return self._facial[cone]


def check_weak_fan_poset(fan, poset):
    """Report on the two fan-poset axioms, by the former interval scan."""
    if not is_finite_complete(fan):
        raise NotComplete("fan posets need a finite complete fan", witness=fan.to_json())
    poset = ClosureOrder(poset)
    facial_failures = [cone for cone in fan.cones if poset.facial(cone)[1] is None]
    inward = {}  # (wall, chamber) -> normal of the wall pointing into chamber
    for wall in fan.walls():
        t1, t2 = fan.adjacent_chambers(wall)
        nu = wall_normal(fan, wall, t1)
        inward[wall, t1] = nu
        inward[wall, t2] = tuple(-x for x in nu)
    union_failures = []
    for a in poset.elements:
        for b in poset.elements:
            if not poset.leq(a, b):
                continue
            members = poset.interval(a, b)
            if _convex_union(fan, members, inward):
                continue
            generators = sorted({fan.rays[i] for c in members for i in c})
            halfspace_rep = conelib.halfspaces(generators, fan.dim)
            member_set = set(members)
            outside = [c for c in poset.elements if c not in member_set]
            for c in outside:
                if conelib.fulldim_in_halfspaces(fan.ray_vectors(c),
                                                 halfspace_rep, fan.dim):
                    union_failures.append({
                        "interval": [list(a), list(b)],
                        "chamber": list(c),
                    })
    return PosetReport(facial_failures, union_failures)


def _convex_union(fan, members, inward):
    """Whether the members' rays all lie on the member side of each boundary wall."""
    member_set = set(members)
    rays = [fan.rays[i] for i in {i for c in members for i in c}]
    for c in members:
        for wall in combinations(c, fan.dim - 1):
            if all(t in member_set for t in fan.star_chambers(wall)):
                continue
            nu = inward[wall, c]
            if any(dot(nu, r) < 0 for r in rays):
                return False
    return True


class PerConeProjection:
    """The projected cones of a fan, from one projection matrix per base cone."""

    def __init__(self, fan):
        self.fan = fan
        self._scaled_projection_cache = {}
        self._projected_cone_cache = {}

    def _scaled_projection(self, base):
        if base not in self._scaled_projection_cache:
            self._scaled_projection_cache[base] = int_complement_projection(
                self.fan.ray_vectors(base), self.fan.dim)
        return self._scaled_projection_cache[base]

    def _projected_cone(self, base, cone):
        key = (base, cone)
        if key not in self._projected_cone_cache:
            p = self._scaled_projection(base)
            base_set = set(base)
            self._projected_cone_cache[key] = tuple(sorted({
                primitive_ray(mat_vec(p, self.fan.rays[i]))
                for i in cone if i not in base_set}))
        return self._projected_cone_cache[key]


def link_complex(fan, block):
    """The sphere complex of a block of cones sharing one projected star."""
    if not is_finite_complete(fan):
        raise NotComplete("link complexes need a finite complete fan",
                          witness=fan.to_json())
    block = sorted(fan.check_cone(c) for c in block)
    rep = block[0]
    ps = fan.project_star(rep)
    for other in block[1:]:
        if fan.project_star(other) != ps:
            raise MixedBlock("block members have different projected stars",
                             witness=[list(rep), list(other)])
    k = len(rep)
    vertices = tuple(c for c in fan._stars[rep] if len(c) == k + 1)
    proj = {v: fan._projected_cone(rep, v) for v in vertices}
    simplices = []
    for size in range(1, len(vertices) + 1):
        layer = []
        for combo in combinations(range(len(vertices)), size):
            generators = set()
            for i in combo:
                generators.update(proj[vertices[i]])
            if tuple(sorted(generators)) in ps:
                layer.append(combo)
        if not layer:
            break
        simplices.extend(layer)
    return LinkComplex(vertices, tuple(simplices))
