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
- ``_cover_direction``: the former ``FanPoset.cover_direction``, as a
  function of the poset, which the ``check_nondegenerate`` oracle calls,
  where ``poset._degenerate_pair`` now decides each cover by whether its
  projected pair lies in the D-set of the other member.
- ``_composites_by_union``: each morphism's composites as the union of
  the classes over all representative chains, where
  ``category.build_category`` now reads them off the first representative.
- ``check_cubical``, ``_faq_morphisms``, ``factorization_cube``,
  ``first_factors``, ``last_factors`` and
  ``check_last_factor_compatibility``: every (sigma, tau) pair looked up
  through the validating ``Category.morphism_of_pair``, each Faq count by a
  scan of a whole hom-set, and the factors of axioms 4 and 5 looked up again
  rather than read off the cube.  This ``check_cubical`` is the reference
  for ``category.check_cubical``: it still tests every cube for repeated
  middles (axiom 3's ``{"middles": ...}`` witness), which the category
  layer proves cannot happen, and it counts every Faq-morphism by the
  hom-set scan, where the category layer counts off the factorization
  pairs, and only in a category where some cube fails axiom 2.  This
  ``factorization_cube`` returns the pair (objects, subset_of), which
  ``category._cube_objects`` and ``_cube_subsets`` give in the same order.
- ``_factorizations``: each composite's factorization pairs from a sorted
  pass of their own over the composition table, where
  ``category.check_cubical`` now collects them in its one sorted pass.
- ``maximal_chains``: the former ``FanPoset.maximal_chains``, as a
  function of the poset, walking each chain by one recursive call per
  cover, where the method now keeps a stack of cover iterators and so
  walks a chain longer than Python's recursion limit.
- ``ClosureOrder`` (with the former ``FanPoset`` closure and its
  ``leq``, ``interval``, ``extremes`` and ``facial``), ``_convex_union``
  and ``check_weak_fan_poset``: the order as frozensets of the chambers
  above each chamber, closed from the poset's cover list alone; every
  interval listed by a scan of all chambers; the boundary-wall test by one
  dot product per (boundary wall, ray); and every outside chamber of a
  non-convex interval decided by ``fulldim_in_halfspaces``.
- ``int_complement_projection``: the integer multiple L * P of the
  projection onto a span's complement, from one elimination of
  [G | I] with G the Gram matrix, which ``Fan._scaled_projection`` formed
  once per span; ``Fan._projected_ray`` applied it to each ray.
  ``Fan._project_star_map`` now reads each projected ray i along sigma
  off the facet functionals of sigma + {i}, and computes no span key
  where the projected star fixes the span.
- ``PerConeProjection``: ``Fan._scaled_projection`` and
  ``Fan._projected_cone`` as they were before projections were keyed by
  span, as methods of an object holding the fan and the two caches: one
  ``int_complement_projection`` of the base cone's rays per base cone,
  chambers and every wall of one hyperplane included.  It and
  ``fraction_oracles.complement_projection`` cross-check the facet route:
  ``test_fan.test_projected_cones_match_the_per_cone_route`` and
  ``test_category_and_cw_unchanged_under_the_per_cone_route`` against this
  oracle, ``test_partition.test_integer_core_matches_fraction_route`` and
  ``test_cone_sets_match_the_fraction_route`` against the Fraction one.
- ``is_finite_complete``: every wall counted, the wall-crossing graph
  searched for connectivity, and every pair of maximal cones validated,
  where ``fan.is_finite_complete`` is now the ridge certificate.  The one
  change: pairs are validated by ``fan._pairwise_violations``, since
  ``validate_fan`` now trusts the certificate.
- ``wall_normal``: the kernel of the wall's rays, oriented by the sum of
  the chamber's rays, where the fan now reads its normals off the facet
  functionals of its chambers (``Fan._wall_normal``).
- ``poset_of_regions`` and ``_separating``: each wall's cover oriented by
  comparing the separating sets of its two chambers, where
  ``arrangement``'s is now the functional poset of minus the base's ray
  sum.  The poset-of-regions tests read separating sets off
  ``_separating`` too.
- ``_rank2_basics``: the basic hyperplanes of a rank-2 flat from the
  kernels of its normals, where ``arrangement.shards`` now reads them off
  the wall normals of one chamber of a face's star.
- ``arrangement_svg`` and ``_stereographic``: each sample's cos and sin
  computed per great circle, and its image through generator ``sum()``
  passes over coordinate lists, where ``render.arrangement_svg`` now shares
  one angle table across the circles and works on scalars.
- ``rank2_bisector_poset``, ``_angular_chamber_order``, ``_ccw_rays`` and
  ``_det2``: the maximum found by two exact sign tests per chamber and
  the two chains laid down by a counterclockwise walk with a search for
  each next chamber, where ``poset.rank2_bisector_poset`` now orients
  each wall by the sign of minus the bisector on its normal.
- ``words_equal``: the literal check and then the bounded rewriting
  search, which builds every rewrite rule of the relators first, where
  ``groups.words_equal`` now settles a target whose cyclic reduction is a
  rotation of a relator or of its inverse before building any rule.
- ``arrangement_fan`` and ``_conforms``: each chamber's rays by testing
  every ray's sign vector against the tope, and its walls by counting the
  zero signs of its rays on each hyperplane, where
  ``arrangement.arrangement_fan`` now ANDs one precomputed bit set of
  conforming rays per hyperplane.
- ``_zero_set``: a cone's zero set by dotting every ray of the cone with
  every normal, where ``arrangement._zero_sets`` now intersects the zero
  sets of the rays, each computed once.
- ``simplicial_halfspaces``: one integer kernel per facet, where
  ``cones.simplicial_halfspaces`` now reads every facet functional off one
  elimination of [G G^T | G].
- ``strict_sign_feasible``, ``relative_interior_point`` and
  ``vec_scale_int``: the witness point by a relative-interior helper that
  returned None for the cone {0} and the origin for a pure subspace, with
  a signed copy of each normal made by a helper, where
  ``cones.strict_sign_feasible`` now sums the extreme rays itself.
- ``wa_certify``, ``_wa_unit`` and ``_wa_add``: both sides of each
  relator multiplied out in the wall algebra and the products compared,
  where ``arrangement.wa_certify`` now compares the two sides' letters
  with multiplicity.  The two helpers are the former ``WallAlgebra.unit``
  and ``WallAlgebra.add``, as functions.

The oracles ``shards`` and ``poset_of_regions`` read the base's ray sum
and the sign vectors through ``arrangement._ray_sum`` and
``ArrangementFan.sign_of``, since the arrangement fan keeps no table of
face points or sign vectors.
"""

import math
from collections import deque
from itertools import combinations, count

from fraction_oracles import mat_mul, mat_vec
from partfan import cones as conelib
from partfan.arrangement import (
    ArrangementFan,
    Flat,
    Shard,
    WallAlgebra,
    _chamber_check,
    _generator_vector,
    _ray_sum,
    _sign,
    _split_chain_relator,
)
from partfan.category import AxiomReport, _cliques_of_size_3_up
from partfan.errors import (
    BadInput,
    ChainLimitExceeded,
    DependentBasis,
    DimensionMismatch,
    EnumerationLimitExceeded,
    NotAChamber,
    NotAdmissible,
    NotComplete,
    NotRank2,
    NotSimplicialArrangement,
    PosetInvalid,
    RankZero,
    SeedNotPossible,
    UnknownCone,
    UnknownFace,
)
from partfan import fan as fanlib
from partfan.fan import build_fan
from partfan.groups import _neighbors, _rewrite_rules, word_concat, word_inverse
from partfan.partition import (
    Partition,
    UnionFind,
    _check_possible,
    _set_partitions,
    _star_matching,
    group_by,
    potential_identifications,
)
from partfan.poset import CHAIN_CAP, FanPoset, PosetReport
from partfan.rational import (
    _echelon,
    _integer_rows,
    dot,
    int_kernel_basis,
    matrix_rank,
    primitive_ray,
    sqrt_combination_sign,
    vec,
)
from partfan.render import _cross, _dotf, _normalize, _polyline, _svg_header


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
# the arrangement fan, zero sets and facet functionals


def arrangement_fan(arrangement, with_signs=False):
    """The fan of a central simplicial arrangement, by a tope-graph search.

    The rays are +/- the primitive kernel vectors of the (n-1)-subsets of
    normals whose kernel is a line.  The search starts at the tope (sign
    vector of a chamber) of a moment-curve point (1, t, t^2, ...) on no
    hyperplane.  A chamber's rays are the rays whose sign vectors conform
    to its tope; its neighbours are the topes that differ in one
    hyperplane holding n-1 of those rays.  Raises NotSimplicialArrangement
    when a chamber does not have exactly n rays.
    """
    dim, normals = arrangement.dim, arrangement.normals
    lines = set()
    for subset in combinations(normals, max(dim - 1, 0)):
        kernel = int_kernel_basis(subset, dim)
        if len(kernel) == 1 and any(arrangement.sign_vector(kernel[0])):
            lines.add(kernel[0])
    rays = sorted(lines | {tuple(-x for x in r) for r in lines})
    ray_signs = [arrangement.sign_vector(r) for r in rays]
    for t in count(1):
        start = arrangement.sign_vector([t ** k for k in range(dim)])
        if all(start):
            break
    seen = {start}
    queue = deque([start])
    chambers = []
    while queue:
        tope = queue.popleft()
        chamber = tuple(i for i, signs in enumerate(ray_signs)
                        if _conforms(signs, tope))
        if len(chamber) != dim:
            raise NotSimplicialArrangement(
                "chamber does not have exactly dim rays",
                witness={"signs": list(tope), "dim": dim, "rays": len(chamber)})
        chambers.append(chamber)
        for h in range(len(normals)):
            if sum(ray_signs[i][h] == 0 for i in chamber) == dim - 1:
                flipped = tope[:h] + (-tope[h],) + tope[h + 1:]
                if flipped not in seen:
                    seen.add(flipped)
                    queue.append(flipped)
    fan = build_fan(dim, rays, chambers)
    return ArrangementFan(arrangement, fan) if with_signs else fan


def _conforms(face, cell):
    """Face order of covectors: zero where it must be, agreeing elsewhere."""
    return all(f == 0 or f == c for f, c in zip(face, cell))


def _zero_set(arrangement, vectors):
    """The hyperplanes that contain every one of the vectors."""
    return frozenset(i for i, n in enumerate(arrangement.normals)
                     if all(dot(n, v) == 0 for v in vectors))


def simplicial_halfspaces(ray_vectors, dim):
    """H-representation of a simplicial cone, one kernel per facet.

    Inequality i is the primitive normal of the hyperplane through the
    other generators and span(G)^perp, oriented so that generator i is
    positive.  Raises DependentBasis when the generators are dependent.
    """
    rays = list(ray_vectors)
    eqs = int_kernel_basis(rays, dim)
    if len(eqs) + len(rays) != dim:
        raise DependentBasis("generators of a simplicial cone are dependent",
                             witness=[[str(x) for x in r] for r in rays])
    ineqs = []
    for i, ray in enumerate(rays):
        (normal,) = int_kernel_basis(rays[:i] + rays[i + 1:] + list(eqs), dim)
        ineqs.append(normal if dot(normal, ray) > 0 else tuple(-x for x in normal))
    return eqs, tuple(ineqs)


def relative_interior_point(equalities, inequalities, dim):
    """A relative-interior point of {E x = 0, A x >= 0}, or None if it is {0}.

    The sum of all extreme rays lies in the relative interior of the
    pointed part; the lineality contributes nothing and is ignored.
    When the cone is a pure subspace the origin (its relative interior
    under no strict constraints) is returned as the zero vector.
    """
    lin, rays = conelib.extreme_rays(equalities, inequalities, dim)
    if not rays:
        return tuple(0 for _ in range(dim)) if lin else None
    total = [0] * dim
    for r in rays:
        total = [a + b for a, b in zip(total, r)]
    return tuple(total)


def strict_sign_feasible(normals, signs, dim):
    """Whether a point exists with <n_i, x> of exactly the given sign per normal.

    ``signs`` entries are -1, 0, +1; zero means the point lies on the
    hyperplane, nonzero means strictly on that side.  Returns a witness
    point or None.  This is the exact feasibility test behind sign-vector
    enumeration of hyperplane arrangements.
    """
    eqs = [normals[i] for i, s in enumerate(signs) if s == 0]
    ineqs = [vec_scale_int(normals[i], s) for i, s in enumerate(signs) if s != 0]
    point = relative_interior_point(eqs, ineqs, dim)
    if point is None:
        point = tuple(0 for _ in range(dim))
    for i, s in enumerate(signs):
        val = dot(normals[i], point)
        if s == 0 and val != 0:
            return None
        if s != 0 and s * val <= 0:
            return None
    return point


def vec_scale_int(v, s):
    return tuple(s * x for x in v)


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
    base_point = _ray_sum(fan, base)
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


def _rank2_basics(arrangement, members, base_point):
    """Facet hyperplanes of the rank-2 subarrangement region holding the base.

    All member normals live in the 2-plane orthogonal to the flat, so a
    member is basic iff the line it cuts in that plane supports a boundary
    ray of the sign-restricted sector.
    """
    normals = [arrangement.normals[i] for i in members]
    signs = [_sign(dot(n, base_point)) for n in normals]
    if any(s == 0 for s in signs):
        raise NotAChamber("base point lies on a subarrangement hyperplane")
    flat_basis = int_kernel_basis(normals, arrangement.dim)
    basics = set()
    for idx, h in enumerate(members):
        # boundary-ray candidates: the line of H_h inside the normal plane
        cand = int_kernel_basis([normals[idx]] + list(flat_basis), arrangement.dim)
        for base_vec in cand:
            for d in (base_vec, tuple(-x for x in base_vec)):
                if all(s * dot(n, d) >= 0 for n, s in zip(normals, signs)):
                    basics.add(h)
    if len(basics) != 2:
        raise NotSimplicialArrangement(
            "rank-2 subarrangement does not have exactly two facets",
            witness=sorted(members))
    return basics


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
                direction = _cover_direction(poset, lo2, up2)
                if direction != 1:
                    return False, {
                        "block": [list(c) for c in block],
                        "cover": [list(lower), list(upper)],
                        "image": [list(lo2), list(up2)],
                    }
    return True, None


def _cover_direction(poset, a, b):
    """+1 if a is covered by b, -1 if b covered by a, else None.

    Every cover (lower, upper, wall) is listed in ``_across[wall]``.
    """
    across = poset._across.get(tuple(sorted(set(a) & set(b))), ())
    if (a, b) in across:
        return 1
    if (b, a) in across:
        return -1
    return None


# ---------------------------------------------------------------------------
# composition


def _composites_by_union(f, reps_from, of_pair):
    """g index -> g o f, the union of [sigma, tau2] over all chains.

    Raises NotAdmissible, witness [f, g, the classes], for the first g
    whose chains give more than one class.
    """
    results = {}
    for sigma, kappa in f.reps:
        for g_idx, ends in reps_from[kappa].items():
            results.setdefault(g_idx, set()).update(
                of_pair[sigma, tau2] for tau2 in ends)
    for g_idx, composed in results.items():
        if len(composed) > 1:
            raise NotAdmissible("composition not single-valued",
                                witness=[f.index, g_idx, sorted(composed)])
    return {g_idx: composed.pop() for g_idx, composed in results.items()}


# ---------------------------------------------------------------------------
# cubical axioms

def _factorizations(category):
    """Map each composite f to its sorted (g, h) pairs, in one table pass.

    A pair counts only when g starts at f's source and h ends at f's
    target.  Built from the current table on every call, so an entry
    changed after the build is seen.
    """
    ms = category.morphisms
    out = {}
    for (gi, hi), res in sorted(category.compose_table.items()):
        if ms[gi].source == ms[res].source and ms[hi].target == ms[res].target:
            out.setdefault(res, []).append((gi, hi))
    return out


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
    """(objects, subset_of): all two-step factorizations of f, indexed by subsets.

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
    return tuple(objects), subset_of


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
        objects, subset_of = factorization_cube(category, f)
        if sorted(objects) != pairs or len(set(objects)) != 2 ** f.rank:
            report.record(2, {"morphism": f.index,
                              "expected": 2 ** f.rank,
                              "pairs": pairs})
            continue
        middles = [ms[g].target for g, _ in objects]
        if len(set(middles)) != len(middles):
            report.record(3, {"morphism": f.index, "middles": middles})
        for (a, b) in combinations(objects, 2):
            for src, dst in ((a, b), (b, a)):
                count = _faq_morphisms(category, src, dst)
                expected = 1 if subset_of[src] <= subset_of[dst] else 0
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


def maximal_chains(poset, a, b):
    """All maximal chains from a to b, each as a tuple of wall labels.

    Listed depth-first, taking the covers above each chamber in sorted
    order.  Raises ChainLimitExceeded past ``CHAIN_CAP`` chains.
    """
    chains = []

    def walk(node, labels):
        if node == b:
            chains.append(tuple(labels))
            if len(chains) > CHAIN_CAP:
                raise ChainLimitExceeded("too many maximal chains",
                                         witness=CHAIN_CAP)
            return
        for upper, wall in poset._up[node]:
            if poset.leq(upper, b):
                walk(upper, labels + [wall])

    if poset.leq(a, b):
        walk(a, [])
    return chains


def check_weak_fan_poset(fan, poset):
    """Report on the two fan-poset axioms, by the former interval scan."""
    if not fanlib.is_finite_complete(fan):
        raise NotComplete("fan posets need a finite complete fan", witness=fan.to_json())
    poset = ClosureOrder(poset)
    facial_failures = [cone for cone in fan.cones if poset.facial(cone)[1] is None]
    inward = {}  # (wall, chamber) -> normal of the wall pointing into chamber
    for wall in fan.walls():
        t1, t2 = fan.star_chambers(wall)
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


def int_complement_projection(basis, dim):
    """Integer matrix L * P, for some L > 0, with P the projection onto span(basis)^perp.

    P is the orthogonal projection: idempotent and symmetric with kernel
    span(basis).  L * P maps every vector to a positive multiple of its
    exact projection; an empty basis gives the identity.  Raises
    DependentBasis if the vectors are dependent.

    With B the basis rows (each scaled to integers, which keeps the span)
    and G = B B^T, fraction-free elimination of [G | I] ends in rows
    [c_i e_i | c_i (G^-1)_i] with c_i > 0, so L = lcm(c_i) makes L G^-1 an
    integer matrix and L P = L I - B^T (L G^-1) B.

    >>> int_complement_projection([(1, 1)], 2)
    ((1, -1), (-1, 1))
    """
    b = _integer_rows(basis)
    k = len(b)
    gram = [[dot(u, v) for v in b] + [int(i == j) for j in range(k)]
            for i, u in enumerate(b)]
    reduced, pivots = _echelon(gram)
    if pivots[:k] != list(range(k)):
        raise DependentBasis("projection basis is linearly dependent",
                             witness=[[str(x) for x in vec(v)] for v in basis])
    scale = math.lcm(*(row[i] for i, row in enumerate(reduced)))
    inv_b = mat_mul([[x * (scale // row[i]) for x in row[k:]]
                     for i, row in enumerate(reduced)], b)
    return tuple(tuple(scale * (i == j) - sum(u[i] * w[j] for u, w in zip(b, inv_b))
                       for j in range(dim)) for i in range(dim))


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


def is_finite_complete(fan):
    """Whether the fan is a valid fan whose support is the whole space.

    True iff all maximal cones are full-dimensional, every codimension-1
    cone lies in exactly two maximal cones, the wall-crossing graph is
    connected, and no pair of maximal cones is a violation.
    """
    if not fan.max_cones:
        return False
    if any(len(c) != fan.dim for c in fan.max_cones):
        return False
    adjacency = {c: set() for c in fan.max_cones}
    for wall in fan.walls():
        incident = fan._star_chambers(wall)
        if len(incident) != 2:
            return False
        adjacency[incident[0]].add(incident[1])
        adjacency[incident[1]].add(incident[0])
    seen = set()
    stack = [fan.max_cones[0]]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        stack.extend(adjacency[c] - seen)
    return len(seen) == len(fan.max_cones) and not fanlib._pairwise_violations(fan)


def wall_normal(fan, wall, toward):
    """Primitive normal of span(wall), oriented toward the chamber ``toward``."""
    normals = int_kernel_basis(fan.ray_vectors(wall), fan.dim)
    nu = normals[0]
    interior = [0] * fan.dim
    for i in toward:
        interior = [a + b for a, b in zip(interior, fan.rays[i])]
    side = dot(nu, interior)
    if side == 0:
        raise PosetInvalid("chamber does not determine a side", witness=list(wall))
    return nu if side > 0 else tuple(-x for x in nu)


def _separating(rs, bs):
    """The hyperplanes on which sign vectors rs and bs are strictly opposite."""
    return frozenset(i for i, (a, b) in enumerate(zip(rs, bs)) if a == -b and a != 0)


def poset_of_regions(arrfan, base):
    """Chambers ordered away from the base by separating-set inclusion."""
    fan = arrfan.fan
    base = _chamber_check(fan, base)
    base_signs = arrfan.sign_of(base)
    sep = {c: _separating(arrfan.sign_of(c), base_signs) for c in fan.chambers()}
    covers = []
    for wall in fan.walls():
        t1, t2 = fan._star_chambers(wall)
        s1, s2 = sep[t1], sep[t2]
        if s1 < s2:
            covers.append((t1, t2, wall))
        elif s2 < s1:
            covers.append((t2, t1, wall))
        else:
            raise NotAChamber("separating sets of adjacent chambers not nested",
                              witness=list(wall))
    return FanPoset(fan, covers)


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _ccw_rays(fan, chamber):
    a, b = fan.ray_vectors(chamber)
    return (a, b) if _det2(a, b) > 0 else (b, a)


def rank2_bisector_poset(fan, base):
    """The two-chain poset on a complete fan in the plane.

    The base chamber is the minimum; the maximum is the chamber containing
    the opposite of the base's angle bisector (if that direction lies on a
    ray, the chamber counterclockwise from the ray is chosen).  The two
    boundary paths around the circle are the covering chains.  Raises
    PosetInvalid when the maximum shares a wall with the base, since the
    result would break the facial-interval axiom.

    Signs of the bisector tests are decided exactly: with base rays u, w
    the bisector is u*|w| + w*|u| up to scale, and every comparison reduces
    to the sign of an integer combination x*sqrt(p) + y*sqrt(q).
    """
    if fan.dim != 2:
        raise NotRank2("bisector posets are defined for fans in the plane")
    if not fanlib.is_finite_complete(fan):
        raise NotComplete("fan posets need a finite complete fan", witness=fan.to_json())
    base = fan.check_cone(base)
    if len(base) != 2:
        raise NotRank2("base must be a maximal cone", witness=list(base))
    u, w = _ccw_rays(fan, base)
    p = int(dot(w, w))   # -d = -(u*sqrt(p) + w*sqrt(q))
    q = int(dot(u, u))

    def det_with_minus_d(a):
        # sign of det(a, -d) = -(det(a,u) sqrt(p) + det(a,w) sqrt(q))
        return sqrt_combination_sign(-_det2(a, u), p, -_det2(a, w), q)

    containing = []
    for chamber in fan.chambers():
        a, b = _ccw_rays(fan, chamber)
        s1 = det_with_minus_d(a)          # want det(a, -d) >= 0
        s2 = -det_with_minus_d(b)         # want det(-d, b) >= 0
        if s1 >= 0 and s2 >= 0:
            containing.append((chamber, a, b, s1, s2))

    # A maximum wall-adjacent to the minimum collapses the facial interval
    # of their shared wall to the whole poset, breaking the axiom.
    def wall_adjacent(c):
        return c != base and len(set(c) & set(base)) == fan.dim - 1

    if len(containing) == 1:
        tau_d = containing[0][0]
    else:
        # -d lies on a shared ray.  Prefer the chamber counterclockwise of
        # it (s1 == 0), unless only that one is wall-adjacent to the base.
        ccw_choice = next(c for c, _, _, s1, _ in containing if s1 == 0)
        cw_choice = next(c for c, _, _, _, s2 in containing if s2 == 0)
        if wall_adjacent(ccw_choice) and not wall_adjacent(cw_choice):
            tau_d = cw_choice
        else:
            tau_d = ccw_choice
    if wall_adjacent(tau_d):
        raise PosetInvalid("the maximum is wall-adjacent to the base",
                           witness=[list(base), list(tau_d)])

    order = _angular_chamber_order(fan, base)
    j = order.index(tau_d)
    covers = []
    for i in range(j):
        lo, up = order[i], order[i + 1]
        covers.append((lo, up, tuple(sorted(set(lo) & set(up)))))
    prev = base
    for i in range(len(order) - 1, j, -1):
        nxt = order[i]
        covers.append((prev, nxt, tuple(sorted(set(prev) & set(nxt)))))
        prev = nxt
    if prev != tau_d:
        covers.append((prev, tau_d, tuple(sorted(set(prev) & set(tau_d)))))
    return FanPoset(fan, covers)


def _angular_chamber_order(fan, start):
    """Chambers in counterclockwise order starting at ``start``."""
    chambers = list(fan.chambers())
    order = [start]
    current = start
    while len(order) < len(chambers):
        a, b = _ccw_rays(fan, current)
        nxt = next(c for c in chambers
                   if c != current and b in fan.ray_vectors(c))
        order.append(nxt)
        current = nxt
    return order


def _stereographic(point, pole, frame):
    u, v = frame
    dot_p = sum(a * b for a, b in zip(point, pole))
    denom = 1.0 - dot_p
    if abs(denom) < 1e-9:
        return None
    proj = [(a - dot_p * b) / denom for a, b in zip(point, pole)]
    return (sum(a * b for a, b in zip(proj, u)),
            sum(a * b for a, b in zip(proj, v)))


def arrangement_svg(arrangement, projection_point=(1, 1, 1), size=500,
                    samples=720, window=6.0):
    """Stereographic projection of the hyperplane great circles.

    A rank other than 3, or a projection point with other than three
    coordinates, raises DimensionMismatch with witness [3, that number]; the
    zero point raises BadInput.
    """
    if arrangement.dim != 3:
        raise DimensionMismatch("stereographic rendering needs a rank-3 arrangement",
                                witness=[3, arrangement.dim])
    if len(projection_point) != 3:
        raise DimensionMismatch("the projection point needs three coordinates",
                                witness=[3, len(projection_point)])
    if not any(projection_point):
        raise BadInput("the projection point must be nonzero",
                       witness=list(projection_point))
    pole = [float(x) for x in projection_point]
    norm = math.sqrt(sum(x * x for x in pole))
    pole = [x / norm for x in pole]
    # orthonormal frame of the plane orthogonal to the pole
    seed = [1.0, 0.0, 0.0] if abs(pole[0]) < 0.9 else [0.0, 1.0, 0.0]
    u = _normalize(_cross(pole, seed))
    v = _normalize(_cross(pole, u))
    center = size / 2.0
    scale = size / (2.0 * window)
    parts = [_svg_header(size)]
    for idx, normal in enumerate(arrangement.normals):
        n = _normalize([float(x) for x in normal])
        # a direction in the normal's plane: across the pole, or off an axis
        # the normal does not lie on when the pole is (nearly) the normal
        a = _cross(n, pole if abs(_dotf(n, pole)) < 0.99 else [1, 0, 0])
        if not any(a):
            a = _cross(n, [0, 1, 0])
        a = _normalize(a)
        b = _normalize(_cross(n, a))
        segment = []
        for k in range(samples + 1):
            t = 2.0 * math.pi * k / samples
            point = [math.cos(t) * a[i] + math.sin(t) * b[i] for i in range(3)]
            image = _stereographic(point, pole, (u, v))
            if image is None or abs(image[0]) > window or abs(image[1]) > window:
                if len(segment) > 1:
                    parts.append(_polyline(segment, center, scale))
                segment = []
                continue
            segment.append(image)
        if len(segment) > 1:
            parts.append(_polyline(segment, center, scale))
        label = ",".join(str(x) for x in normal)
        parts.append('<text x="8" y="%d" font-size="11">H%d: (%s)</text>'
                     % (16 + 14 * idx, idx, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def words_equal(word_a, word_b, relators):
    """Bounded search for equality of two words modulo the relators.

    Two routes, in this order.  Literal: equal words are equal, and True
    is returned before any rewrite rule is built.  Rewriting: a
    breadth-first search over free reduction plus replacing a subword s
    by t^-1 whenever s t is a cyclic rotation of a relator or its inverse.
    Words stay within the target's length plus the longest relator's plus
    2, and at most 20 000 words are expanded.  Returns True when a rewrite
    path to the empty word is found; False means no proof was found within
    these bounds, not a disproof.
    """
    if word_a == word_b:
        return True
    target = word_concat(word_a, word_inverse(word_b))
    if not target:
        return True
    rewrites = _rewrite_rules(relators)
    max_length = len(target) + max((len(r) for r in relators), default=0) + 2
    seen = {target}
    queue = deque([target])
    nodes = 0
    while queue and nodes < 20000:
        word = queue.popleft()
        nodes += 1
        for nxt in _neighbors(word, rewrites, max_length):
            if not nxt:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


# ---------------------------------------------------------------------------
# wall algebra

def _wa_unit():
    return {(0, 0, 0): 1}


def _wa_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def wa_certify(arrangement, presentation):
    """Generator-distinctness certificate via the wall algebra.

    The certificate maps every relator, necessarily of the chain-pair
    shape w1 * w2^-1 with positive chain words, to the equation
    phi(w1) = phi(w2) with phi(X_m) = 0vec (+) m, and verifies it holds
    by multiplying out both sides.  Additionally the images of distinct
    generators are pairwise distinct and different from the unit.
    Returns True iff everything holds.
    """
    algebra = WallAlgebra(arrangement)
    vectors = {gen: _generator_vector(gen) for gen in presentation.generators}
    if len(set(vectors.values())) != len(vectors):
        return False
    unit = _wa_unit()
    images = {gen: _wa_add(unit, {v: 1}) for gen, v in vectors.items()}
    for relator in presentation.relators:
        split = _split_chain_relator(relator)
        if split is None:
            return False
        w1, w2 = split
        lhs = unit
        for sym in w1:
            lhs = algebra.mul(lhs, images[sym])
        rhs = unit
        for sym in w2:
            rhs = algebra.mul(rhs, images[sym])
        if lhs != rhs:
            return False
    return True
