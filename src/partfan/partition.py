"""Potential identifications, admissible partitions, and their lattice.

Two cones are potentially identifiable when their linear spans agree and
their projected stars coincide as fans; these classes partition the fan.
A partition refining the classes is admissible when identified cones force
identification of the matching members of their stars.  The admissible
partitions of a fan form a complete lattice under refinement.
"""

from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .errors import (
    EnumerationLimitExceeded,
    FanMismatch,
    PossibleIdentViolation,
    PreconditionUnmet,
    SeedNotPossible,
)
from .fan import memo
from .rational import span_key


class Partition:
    """A partition of the cones of a fan into blocks.

    Blocks are sorted tuples of cones; the block list is sorted by least
    member so equality and block ids are deterministic.  ``block_of`` maps
    each cone to the index of its block.  The constructor fills and checks
    it; a partition built by ``_sorted_partition`` fills it on first read.
    """

    def __init__(self, fan, blocks):
        blocks = [tuple(b) if len(b) < 2 else tuple(sorted(b, key=_cone_key))
                  for b in blocks]
        blocks.sort(key=_block_key)
        self.fan = fan
        self.blocks = tuple(blocks)
        if len(self.block_of) != sum(map(len, blocks)):
            seen = set()
            for cone in (c for block in blocks for c in block):
                if cone in seen:
                    raise FanMismatch("cone appears in two blocks", witness=list(cone))
                seen.add(cone)
        # the keys of the fan's star index are its cones
        if self.block_of.keys() != fan._stars.keys():
            missing = sorted(set(fan.cones) - set(self.block_of), key=_cone_key)
            extra = sorted(set(self.block_of) - set(fan.cones), key=_cone_key)
            raise FanMismatch("blocks do not partition the fan",
                              witness={"missing": [list(c) for c in missing],
                                       "unknown": [list(c) for c in extra]})

    @cached_property
    def block_of(self):
        return {c: idx for idx, block in enumerate(self.blocks) for c in block}

    def same_block(self, a, b):
        """Whether two cones of the fan, each checked, share a block.

        partfan's own loops read ``block_of`` on the fan's cones instead.
        """
        check = self.fan.check_cone
        return self.block_of[check(a)] == self.block_of[check(b)]

    def block(self, cone):
        return self.blocks[self.block_of[self.fan.check_cone(cone)]]

    def __eq__(self, other):
        if not isinstance(other, Partition) or self.blocks != other.blocks:
            return False
        return self.fan is other.fan or self.fan.to_json() == other.fan.to_json()

    # the blocks never change, and every memo key that names a partition hashes it
    @cached_property
    def _hash(self):
        return hash(self.blocks)

    def __hash__(self):
        return self._hash

    def to_json(self):
        return {"blocks": [[list(c) for c in b] for b in self.blocks]}


def _cone_key(cone):
    return (len(cone), cone)


def _block_key(block):
    return _cone_key(block[0])


def _sorted_partition(fan, ranked_blocks):
    """The Partition of ``ranked_blocks``, pairs (rank, block) of sorted
    blocks that partition the fan, each ranked by the index of its first
    member in ``fan.cones``.

    ``fan.cones`` is sorted by ``_cone_key``, so the ranks are distinct and
    sorting the pairs sorts the blocks as ``Partition`` does, without a
    key call.  It trusts the caller for the rest: no member is re-sorted,
    the blocks are not checked against the fan's cones, and ``block_of`` is
    left to be filled on first read.
    """
    ranked_blocks.sort()
    partition = Partition.__new__(Partition)
    partition.fan = fan
    partition.blocks = tuple(map(itemgetter(1), ranked_blocks))
    return partition


def group_by(fan, key):
    """The partition of the fan's cones into classes of equal ``key(cone)``."""
    groups = {}
    for cone in fan.cones:
        groups.setdefault(key(cone), []).append(cone)
    return Partition(fan, groups.values())


class UnionFind:
    """Disjoint sets over a fixed collection of hashable items."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def from_blocks(fan, listed_blocks):
    """Partition from explicitly listed blocks; unlisted cones become singletons."""
    listed = [tuple(fan.check_cone(c) for c in b) for b in listed_blocks]
    covered = {c for b in listed for c in b}
    blocks = [b for b in listed if b]
    blocks.extend((c,) for c in fan.cones if c not in covered)
    return Partition(fan, blocks)


def partition_from_json(fan, data):
    return from_blocks(fan, [[tuple(c) for c in b] for b in data["blocks"]])


class IdentTable:
    """The equivalence classes of potential identifications E_sigma."""

    def __init__(self, partition):
        self.partition = partition

    @property
    def classes(self):
        return self.partition.blocks

    def same_class(self, a, b):
        block_of = self.partition.block_of
        return block_of[a] == block_of[b]


def potential_identifications(fan):
    """Group cones by (equal span, equal projected star); the coarsest partition.

    The classes are the groups of equal ``_ident_key`` keys: the projected
    star alone where it fixes the span, and otherwise the ``span_key`` of
    the cone's rays (their primitive integer echelon rows, a canonical key
    for the span) with the projected star.  The classes are computed once
    per fan (``fan.memo``, key ``(potential_identifications,)``), so each
    cone's key is computed once.

    Precondition: projection along each cone sigma is injective on
    star(sigma), so that the projected star is a fan whose cones match
    those of the star.  Every valid fan satisfies it.  Proof: the
    projection pi along span(sigma) is injective on the rays of
    star(sigma) outside sigma.  Let i != j be two of them with
    pi(r_i) = c pi(r_j), c > 0.  Then r_i = c r_j + sum_k b_k r_k over k
    in sigma, so x = r_i + sum_k a_k r_k, with every a_k > |b_k|, lies in
    the relative interiors of both cone(sigma + {i}) and
    cone(sigma + {j}).  On a valid fan their intersection is a common
    face, which then contains a relative interior point of each and so is
    both cones: i == j, a contradiction.  So tau in star(sigma) projects
    to the cone of the projected rays i in tau - sigma, and distinct cones
    of the star have distinct ray sets outside sigma and so distinct
    projections.  Raises PreconditionUnmet, witness
    [sigma, tau1, tau2], at the first cone in ``fan.cones`` order whose
    star has two cones with one projection, tau1 and tau2 the first such
    pair in ``fan._stars[sigma]`` order; the refusal is not kept.  Every
    consumer of star matchings (``is_admissible``, ``admissible_closure``,
    ``enumerate_admissible``, ``check_nondegenerate`` and through them
    ``build_category``, ``build_cw`` and ``picture_group``) calls this
    first, and relies on four consequences:

    1. ``_star_matching`` between members of one class is a face-preserving
       bijection, and matchings compose, so the pairs of ``_block_pairs``
       (first member with each other member) decide a block.
    2. A forced pair never crosses E-classes: if s1 ~ s2 and
       t2 = match(t1), then span(t1) = span(t2), and projection along t
       factors as pi_t = pi_{pi_s(t)} o pi_s, so t1 and t2 have one
       projected star.  ``enumerate_admissible`` needs no cross-class prune.
    3. A block that fails the chain test of ``poset.check_nondegenerate``
       has a pair of members and a cover whose matched image is not a
       cover, so its pair scan always finds a witness.
    4. Distinct cones of star(kappa) have distinct signatures, so each
       morphism has at most one representative starting at kappa, and
       composition is single-valued on an admissible partition (see
       ``category.build_category``).
    """
    return memo(fan, (potential_identifications,),
                lambda: IdentTable(group_by(fan, lambda c: _ident_key(fan, c))))


def _ident_key(fan, cone):
    """The E-class key of a cone; refuses a star that projects non-injectively.

    Where the star of the cone sigma holds a chamber, the key is the
    projected star P alone, and otherwise (span key, P).  Two cones have
    one key iff they have one span and one projected star.  A chamber in
    star(sigma) has d independent rays, so the d - |sigma| rays of its
    projection span span(sigma)^perp.  If sigma1 and sigma2 both hold a
    chamber and P1 = P2, each projected chamber lies in both complements,
    so span(sigma1)^perp = span(sigma2)^perp and the spans are equal.  If
    only sigma1 holds one, the cones do not share a class: with one span
    (so |sigma1| = |sigma2|) and P1 = P2, the projected chamber of sigma1
    has d - |sigma1| independent rays, so it is the projection of a cone
    of star(sigma2) with at least |sigma2| + d - |sigma1| = d rays, a
    chamber after all.  A frozenset and a tuple never compare equal, so
    neither do the two key forms, and the classes are those of the
    (span, projected star) key.  On a complete fan every cone lies in a
    chamber, so no span key is computed.
    """
    star = fan._project_star_map(cone)
    projected = frozenset(star.values())
    if len(projected) < len(star):
        pair = next((t1, t2) for t1, t2 in combinations(star, 2) if star[t1] == star[t2])
        raise PreconditionUnmet("projection is not injective on a star",
                                witness=[list(cone), *map(list, pair)])
    if fan._star_chambers(cone):
        return projected
    return span_key(fan.ray_vectors(cone)), projected


def _check_possible(fan, partition):
    ident = potential_identifications(fan)
    for block in partition.blocks:
        for cone in block[1:]:
            if not ident.same_class(block[0], cone):
                raise PossibleIdentViolation(
                    "block crosses potential-identification classes",
                    witness=[list(block[0]), list(cone)])


def is_admissible(fan, partition):
    """Whether identified cones force identification of matching star members.

    Returns (True, None) or (False, witness) with witness the offending
    quadruple (sigma1, sigma2, tau1, tau2).  Raises PossibleIdentViolation
    when a block is not even contained in one E-class.

    Each block is checked along the pairs of ``_block_pairs``: its first
    member with each other member.  The scan over all pairs of a block
    visits those pairs first, and a block fails only if one of them
    fails, so the witness is the one that scan returns.

    The verdict depends only on the fan and the blocks, so it is computed
    once per fan and blocks (``fan.memo``, key ``(is_admissible, blocks)``);
    a later call with the same blocks reads it.  ``_check_possible`` runs
    on every call, and its errors are never stored.
    """
    _check_possible(fan, partition)
    return memo(fan, (is_admissible, partition.blocks), _admissibility, fan, partition)


def _admissibility(fan, partition):
    """The verdict ``is_admissible`` returns, computed afresh."""
    for block in partition.blocks:
        for s1, s2 in _block_pairs(block):
            for t1, t2 in _star_matching(fan, s1, s2).items():
                if partition.block_of[t1] != partition.block_of[t2]:
                    return False, (s1, s2, t1, t2)
    return True, None


def _star_matching(fan, s1, s2):
    """tau1 in star(s1) -> the unique tau2 in star(s2) with equal projection."""
    m1 = fan._project_star_map(s1)
    m2 = fan._project_star_map(s2)
    inverse2 = {v: k for k, v in m2.items()}
    return {t1: inverse2[c] for t1, c in m1.items()}


def _block_pairs(block):
    """The pairs (s0, s) of the first member s0 with each other member s.

    They decide a block of one E-class: by the precondition of
    ``potential_identifications`` the matchings are bijections and
    compose, match(s -> s') = match(s0 -> s') o match(s0 -> s)^-1.  So if
    every t ~ match(s0 -> s)(t) for each s, then for t in star(s) and
    u = match(s0 -> s)^-1(t) both u ~ t and u ~ match(s0 -> s')(u) =
    match(s -> s')(t) hold, and every pair of the block is consistent.
    """
    return [(block[0], s) for s in block[1:]]


def admissible_closure(fan, seed_pairs):
    """Smallest admissible partition whose blocks contain all seed pairs.

    A worklist of merge edges over one union-find.  The seeds are checked
    first, in order.  Then each pair popped that ``UnionFind.union``
    merges pushes the pairs of its ``_star_matching``; a pair already in
    one set is dropped.  Every merge is forced: the seeds are, and when
    s1 ~ s2 in an admissible partition, so are t and match(s1 -> s2)(t).
    At the end each merge edge's matching holds, as its pairs were pushed
    and popped after it.  The merge edges span each block as a tree, and
    matchings compose along its paths (consequence 1 of
    ``potential_identifications``; a forced pair stays in one E-class, by
    consequence 2), so every pair of a block matches consistently, as in
    ``_block_pairs``.  The result is the least admissible partition
    containing the seeds.
    """
    ident = potential_identifications(fan)
    pending = []
    for a, b in seed_pairs:
        a = fan.check_cone(a)
        b = fan.check_cone(b)
        if not ident.same_class(a, b):
            raise SeedNotPossible("seed pair crosses E-classes",
                                  witness=[list(a), list(b)])
        pending.append((a, b))
    sets = UnionFind(fan.cones)
    while pending:
        s1, s2 = pending.pop()
        if sets.union(s1, s2):
            pending.extend(_star_matching(fan, s1, s2).items())
    return group_by(fan, sets.find)


def refines(p1, p2):
    """Whether every block of p1 is contained in a block of p2."""
    _require_same_fan(p1, p2)
    return all(p2.block_of[b[0]] == p2.block_of[c] for b in p1.blocks for c in b[1:])


def meet(p1, p2):
    """Common refinement: together iff together in both."""
    _require_same_fan(p1, p2)
    return group_by(p1.fan, lambda c: (p1.block_of[c], p2.block_of[c]))


def join(p1, p2):
    """Transitive closure of the union of the two block relations."""
    _require_same_fan(p1, p2)
    sets = UnionFind(p1.fan.cones)
    for p in (p1, p2):
        for block in p.blocks:
            for c in block[1:]:
                sets.union(block[0], c)
    return group_by(p1.fan, sets.find)


def _require_same_fan(p1, p2):
    if p1.fan is not p2.fan and p1.fan.to_json() != p2.fan.to_json():
        raise FanMismatch("partitions live on different fans")


def enumerate_admissible(fan, limit=16):
    """All admissible partitions of a small fan, by depth-first search.

    Candidates are the products of set partitions of the E-classes.  The
    search fixes one class at a time, in the classes' order, taking its
    set partitions in ``_set_partitions`` order, so leaves come in product
    order.  A candidate is admissible iff, for the first member s0 and
    each other member s of each of its blocks, it identifies every pair
    (t1, t2) that ``_star_matching(fan, s0, s)`` forces: the pairs
    ``is_admissible`` checks, which decide a block (``_block_pairs``).
    Each class is read once as positions 0..n-1 of its members: each set
    partition becomes position blocks and a label vector (the block of
    each position), and each pair of positions the forced pairs of its two
    members, as (class, position, position).  A set partition carries the
    forced pairs of (first position, other position) of each of its
    blocks only.  Three facts keep the result the list, in the same order,
    that filtering the whole product by ``is_admissible`` gives:

    - The matching sends s1 to s2, and that pair holds inside its own
      block, so it is dropped.  Every other t1 strictly contains s1, so on
      a simplicial fan it has more rays and lies in a later class, as the
      classes are sorted by ray count.
    - The two cones of a forced pair lie in one E-class (consequence 2 of
      ``potential_identifications``), so no set partition is pruned for
      forcing a pair across classes.
    - A forced pair is decided at its class, the first by which the
      blocks of t1 and t2 are fixed.  The pairs due at class k are tested
      against the label vector of its set partition before anything is
      propagated, and the last class propagates nothing.

    A Partition is built only at a leaf, by ``_sorted_partition``, which
    equals ``Partition(fan, blocks)`` there; each block comes ranked by its
    first member's index in ``fan.cones``, and the leaf's ``block_of`` is
    filled when first read.  The E-classes partition the
    fan's cones and each is sorted by ``_cone_key`` (they are blocks of a
    Partition); each leaf takes one set partition of every class, so its
    blocks partition the fan's cones.  ``_set_partitions`` of an
    increasing list yields increasing blocks: ``first`` is the least item
    and goes to the front of a block, and the rest is increasing by
    induction.  So each leaf block lists its positions in increasing
    order, and its members are sorted.  Guarded by a cone-count limit
    because partition counts explode.
    """
    if len(fan.cones) > limit:
        raise EnumerationLimitExceeded(
            "fan exceeds the enumeration guard", witness=len(fan.cones))
    classes = potential_identifications(fan).classes
    place = {c: (k, i) for k, cls in enumerate(classes) for i, c in enumerate(cls)}
    rank = {c: r for r, c in enumerate(fan.cones)}
    choices = [_class_choices(fan, k, cls, place, rank) for k, cls in enumerate(classes)]
    last = len(classes) - 1
    due = [[] for _ in classes]  # due[j]: position pairs forced so far at class j
    out = []

    def search(k, blocks):
        for part, label, pairs in choices[k]:
            if any(label[p] != label[q] for p, q in due[k]):
                continue
            if k == last:
                out.append(_sorted_partition(fan, blocks + part))
                continue
            for j, p, q in pairs:
                due[j].append((p, q))
            search(k + 1, blocks + part)
            for j, _, _ in pairs:
                due[j].pop()

    search(0, [])
    return out


def _class_choices(fan, k, cls, place, rank):
    """(blocks, label vector, forced pairs) of each set partition of class k,
    in ``_set_partitions`` order.

    Each block comes as (rank of its first member, block), for
    ``_sorted_partition``.  Forced pairs are (class, position, position)
    and lie in later classes; both cones of a pair lie in one class.  A
    block's positions increase, so its first position p pairs with each
    later q: the pairs of ``_block_pairs``.  If they hold, every pair of
    the block does, since the matchings compose, so the pairs of two
    later members add no test.
    """
    forced = {}
    for p, q in combinations(range(len(cls)), 2):
        pairs = forced[p, q] = []
        for t1, t2 in _star_matching(fan, cls[p], cls[q]).items():
            (j, a), (_, b) = place[t1], place[t2]
            if j != k:
                pairs.append((j, a, b))
    out = []
    for part in _set_partitions(list(range(len(cls)))):
        pairs = [forced[block[0], q] for block in part for q in block[1:]]
        label = [0] * len(cls)
        for i, block in enumerate(part):
            for p in block:
                label[p] = i
        out.append(([(rank[cls[block[0]]], tuple(cls[p] for p in block))
                     for block in part], label,
                    [pair for f in pairs for pair in f]))
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
