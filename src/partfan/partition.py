"""Potential identifications, admissible partitions, and their lattice.

Two cones are potentially identifiable when their linear spans agree and
their projected stars coincide as fans; these classes partition the fan.
A partition refining the classes is admissible when identified cones force
identification of the matching members of their stars.  The admissible
partitions of a fan form a complete lattice under refinement.
"""

from itertools import combinations

from .errors import (
    EnumerationLimitExceeded,
    FanMismatch,
    PossibleIdentViolation,
    SeedNotPossible,
    UnknownCone,
)
from .rational import span_key


class Partition:
    """A partition of the cones of a fan into blocks.

    Blocks are sorted tuples of cones; the block list is sorted by least
    member so equality and block ids are deterministic.
    """

    def __init__(self, fan, blocks):
        blocks = [tuple(b) if len(b) < 2 else tuple(sorted(b, key=_cone_key))
                  for b in blocks]
        blocks.sort(key=lambda b: (len(b[0]), b[0]))
        self.fan = fan
        self.blocks = tuple(blocks)
        self.block_of = {c: idx for idx, block in enumerate(blocks) for c in block}
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

    def same_block(self, a, b):
        return self.block_of[tuple(a)] == self.block_of[tuple(b)]

    def block(self, cone):
        cone = tuple(cone)
        if cone not in self.block_of:
            raise UnknownCone("cone not in fan", witness=list(cone))
        return self.blocks[self.block_of[cone]]

    def __eq__(self, other):
        if not isinstance(other, Partition) or self.blocks != other.blocks:
            return False
        return self.fan is other.fan or self.fan.to_json() == other.fan.to_json()

    def __hash__(self):
        return hash(self.blocks)

    def to_json(self):
        return {"blocks": [[list(c) for c in b] for b in self.blocks]}


def _cone_key(cone):
    return (len(cone), cone)


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
        return self.partition.same_block(a, b)


def potential_identifications(fan):
    """Group cones by (equal span, equal projected star); the coarsest partition.

    ``span_key`` (the primitive integer echelon rows of a cone's rays) is a
    canonical key for its span, so the classes are the groups of equal
    (span, projected star) keys.  The classes are computed once per fan
    and kept on it.
    """
    if fan._ident is None:
        fan._ident = IdentTable(group_by(
            fan, lambda c: (span_key(fan.ray_vectors(c)), fan.project_star(c))))
    return fan._ident


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
    """
    _check_possible(fan, partition)
    for block in partition.blocks:
        for s1, s2 in _block_pairs(fan, block):
            for t1, t2 in _star_matching(fan, s1, s2).items():
                if not partition.same_block(t1, t2):
                    return False, (s1, s2, t1, t2)
    return True, None


def _star_matching(fan, s1, s2):
    """tau1 in star(s1) -> the unique tau2 in star(s2) with equal projection."""
    m1 = fan._project_star_map(s1)
    m2 = fan._project_star_map(s2)
    inverse2 = {v: k for k, v in m2.items()}
    return {t1: inverse2[c] for t1, c in m1.items()}


def _block_pairs(fan, block):
    """The pairs of members whose star matchings decide a block of one E-class.

    These are (s0, s) for the first member s0 and each other member s.
    Members of one E-class have one span and one projected star, and
    ``_star_matching`` goes through the canonical projected cones of that
    span.  When projection is injective on each member's star, as on
    every valid fan (the projected star is then a fan whose cones match
    those of the star), the matchings are bijections and compose:
    match(s -> s') = match(s0 -> s') o match(s0 -> s)^-1.  So if every
    t ~ match(s0 -> s)(t) for each s, then for t in star(s) and
    u = match(s0 -> s)^-1(t) both u ~ t and u ~ match(s0 -> s')(u) =
    match(s -> s')(t) hold, and every pair of the block is consistent.
    Otherwise all pairs of the block are returned.
    """
    if len(block) > 1 and _projects_injectively(fan, block):
        return [(block[0], s) for s in block[1:]]
    return list(combinations(block, 2))


def _projects_injectively(fan, block):
    """Whether projection is injective on the star of every member.

    The members of a block of one E-class share their projected star, so
    this holds iff each star has as many cones as that projected star.
    """
    size = len(set(fan._project_star_map(block[0]).values()))
    return all(len(fan._project_star_map(s)) == size for s in block)


def admissible_closure(fan, seed_pairs):
    """Smallest admissible partition whose blocks contain all seed pairs.

    Union-find fixpoint: whenever sigma1 ~ sigma2, matching star members
    are merged; iterated until stable.  Merges strictly decrease the block
    count, so this terminates.  Each round merges along ``_block_pairs``
    only.  Every merge is forced, and a round without merges leaves a
    partition in which those pairs, and so all pairs of each block, match
    consistently: the least admissible partition containing the seeds.
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
            for s1, s2 in _block_pairs(fan, block):
                for t1, t2 in _star_matching(fan, s1, s2).items():
                    merged |= sets.union(t1, t2)
        if not merged:
            return closure


def refines(p1, p2):
    """Whether every block of p1 is contained in a block of p2."""
    _require_same_fan(p1, p2)
    return all(p2.same_block(b[0], c) for b in p1.blocks for c in b[1:])


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
    order.  A candidate is admissible iff, for each pair s1 ~ s2 it
    identifies, it identifies every pair (t1, t2), t1 != t2, that
    ``_star_matching(fan, s1, s2)`` forces: the pairs ``is_admissible``
    checks, less those that hold trivially.  The forced pairs of each pair
    in a class are computed once.  A forced pair is decided at the first
    class by which the blocks of t1, t2 and of s1, s2 are all fixed.  On a
    simplicial fan that is the class of t1, a later one: the matching
    sends s1 to s2, so t1 strictly contains s1 and has more rays, and the
    classes are sorted by ray count.  A choice that splits a pair decided
    at its class is skipped with all its completions, and a Partition is
    built only at a leaf.  So the result is the list, in the same order,
    that filtering the whole product by ``is_admissible`` gives.  Guarded
    by a cone-count limit because partition counts explode.
    """
    if len(fan.cones) > limit:
        raise EnumerationLimitExceeded(
            "fan exceeds the enumeration guard", witness=len(fan.cones))
    classes = potential_identifications(fan).classes
    class_of = {c: k for k, cls in enumerate(classes) for c in cls}
    forced = {(s1, s2): [(t1, t2) for t1, t2 in _star_matching(fan, s1, s2).items()
                         if t1 != t2]
              for cls in classes for s1, s2 in combinations(cls, 2)}
    choices = []  # per class: (blocks, forced pairs) of each set partition
    for cls in classes:
        choices.append([
            ([tuple(b) for b in part],
             [pair for b in part for s in combinations(b, 2) for pair in forced[s]])
            for part in _set_partitions(list(cls))])
    label = {}  # cone -> (class, block) under the choices of the current path
    out = []

    def search(k, blocks, due):
        # due[j]: the pairs forced so far that are decided at class j
        if k == len(classes):
            out.append(Partition(fan, blocks))
            return
        for part, pairs in choices[k]:
            for i, block in enumerate(part):
                for cone in block:
                    label[cone] = (k, i)
            later = list(due)
            for t1, t2 in pairs:
                j = max(k, class_of[t1], class_of[t2])
                later[j] = later[j] + ((t1, t2),)
            if all(label[t1] == label[t2] for t1, t2 in later[k]):
                search(k + 1, blocks + part, later)

    search(0, [], [()] * len(classes))
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
