"""Partial orders on the maximal cones of a complete fan.

Covers always connect wall-adjacent chambers and carry the shared
codimension-1 cone as a label.  Three constructions are provided: from a
generic linear functional (orient each wall so the functional increases),
the rank-2 angle-bisector order used for fans in the plane (the same wall
loop, with the functional minus the base's bisector), and user supplied
cover lists.  Facial intervals, the fan-poset axioms and
non-degeneracy with respect to a partition are checked exactly.
"""

from itertools import combinations

from . import cones as conelib
from .errors import (
    ChainLimitExceeded,
    DegenerateFunctional,
    NotAnInterval,
    NotComplete,
    NotRank2,
    PosetInvalid,
)
from .fan import is_finite_complete, memo
from .partition import _check_possible, _star_matching
from .rational import _integer_row, dot, sqrt_combination_sign

# ``FanPoset.maximal_chains`` raises ChainLimitExceeded past this many chains
CHAIN_CAP = 10 ** 6


class FanPoset:
    """Labelled cover relations on the maximal cones plus the derived order.

    The order is held as int bitmasks over the chamber indices: chamber i
    of ``elements`` (the fan's chambers in sorted order) is bit i.
    ``_up_mask[i]`` has the bits of the chambers >= chamber i and
    ``_down_mask[i]`` those <= it, so a <= b is one bit test and the
    interval [a, b] is ``_up_mask[a] & _down_mask[b]``.  Reading a mask
    from its lowest bit up lists its chambers in sorted order.  The masks
    are one fixpoint over the covers (``_closure``), with no topological
    order; a cycle among the covers is read off them and refused.  The
    covers are sorted, so a cover listed twice lies next to its copy and
    is refused there: each chain would be counted twice.
    """

    def __init__(self, fan, covers):
        self.fan = fan
        self.elements = tuple(fan.chambers())
        self._index = {c: i for i, c in enumerate(self.elements)}
        covers = tuple(sorted(covers))
        for previous, (lower, upper, wall) in zip((None,) + covers, covers):
            if lower not in self._index or upper not in self._index:
                raise PosetInvalid("cover does not join two chambers",
                                   witness=[list(lower), list(upper)])
            shared = tuple(sorted(set(lower) & set(upper)))
            if shared != wall or len(wall) != fan.dim - 1 or wall not in fan:
                raise PosetInvalid("cover does not cross a shared wall",
                                   witness=[list(lower), list(upper)])
            if previous == (lower, upper, wall):
                raise PosetInvalid("cover listed twice",
                                   witness=[list(lower), list(upper)])
        self.covers = covers
        # (upper, wall) of each cover above a chamber, in sorted order
        self._up = {c: [] for c in self.elements}
        self._across = {}  # wall -> (lower, upper) of each cover across it
        for lower, upper, wall in covers:
            self._up[lower].append((upper, wall))
            self._across.setdefault(wall, []).append((lower, upper))
        self._up_mask, self._down_mask = self._closure()
        self._facial = {}
        self._memo = {}  # see ``fan.memo``

    def _closure(self):
        """(up masks, down masks): the reflexive-transitive closure of the covers.

        One fixpoint: each sweep takes the covers lower < upper in order
        and ORs ``up[upper]`` into ``up[lower]`` and ``down[lower]`` into
        ``down[upper]``; the sweeps stop after one that changes nothing.
        The masks only grow, so they settle, and then up[i] holds every
        chamber that i reaches along zero or more covers: a path of k
        covers from i has reached up[i] once the sweeps have passed k
        times.  On a poset of regions a path crosses each hyperplane at
        most once, so at most one sweep more than the number of
        hyperplanes is run.

        A chamber lies on a cycle exactly when its own bit is in the up
        mask of a chamber that covers it.  Raises PosetInvalid with the
        first such chamber in ``elements`` order as the witness; the covers
        are sorted, so it lies in the first cover that shows a cycle.
        """
        pairs = [(self._index[lower], self._index[upper])
                 for lower, upper, _ in self.covers]
        up = [1 << i for i in range(len(self.elements))]
        down = list(up)
        changed = True
        while changed:
            changed = False
            for i, j in pairs:
                grown = up[i] | up[j], down[j] | down[i]
                if grown != (up[i], down[j]):
                    up[i], down[j] = grown
                    changed = True
        for i, j in pairs:
            if up[j] >> i & 1:
                raise PosetInvalid("cover relation has a cycle",
                                   witness=list(self.elements[i]))
        return up, down

    def leq(self, a, b):
        return bool(self._up_mask[self._index[a]] >> self._index[b] & 1)

    def interval_mask(self, a, b):
        return self._up_mask[self._index[a]] & self._down_mask[self._index[b]]

    def extremes(self, members):
        """(minimum, maximum) of the members, each None unless unique.

        c is minimal iff the only member <= c is c itself, one mask test.
        """
        members = [(c, self._index[c]) for c in members]
        mask = _bits(i for _, i in members)
        mins = [c for c, i in members if self._down_mask[i] & mask == 1 << i]
        maxs = [c for c, i in members if self._up_mask[i] & mask == 1 << i]
        return (mins[0] if len(mins) == 1 else None,
                maxs[0] if len(maxs) == 1 else None)

    def maximum(self):
        return self.extremes(self.elements)[1]

    def facial(self, cone):
        """The facial interval of ``cone`` as (lower, upper), or None
        unless the chambers of star(cone) form the order interval
        [lower, upper].

        Computed once per cone; ``cone`` is one of ``fan.cones``, unchecked
        (``facial_interval`` checks its input first).
        """
        if cone not in self._facial:
            members = self.fan._star_chambers(cone)
            lo, hi = self.extremes(members)
            is_interval = lo is not None and hi is not None and \
                self.interval_mask(lo, hi) == _bits(self._index[c] for c in members)
            self._facial[cone] = (lo, hi) if is_interval else None
        return self._facial[cone]

    def maximal_chains(self, a, b):
        """All maximal chains from a to b, each as a tuple of wall labels.

        Listed depth-first, taking the covers above each chamber in sorted
        order.  Raises ChainLimitExceeded past ``CHAIN_CAP`` chains.  The
        walk keeps one iterator of covers per chamber of the current path
        and one shared list of the labels of the covers taken, so a chain
        of any length needs no recursion.
        """
        chains, labels = ([()] if a == b else []), []
        stack = [iter(self._up[a])] if self.leq(a, b) else []
        while stack:
            for upper, wall in stack[-1]:
                if upper == b:
                    chains.append((*labels, wall))
                    if len(chains) > CHAIN_CAP:
                        raise ChainLimitExceeded("too many maximal chains",
                                                 witness=CHAIN_CAP)
                elif self.leq(upper, b):
                    labels.append(wall)
                    stack.append(iter(self._up[upper]))
                    break
            else:
                stack.pop()
                del labels[-1:]  # the cover into the chamber left; a has none
        return chains

    def first_chain(self, a, b):
        """The first maximal chain from a to b in sorted-cover order, or None.

        Walks upward from a, taking at each chamber the least cover
        (upper, wall) with upper <= b.  Returns None unless a <= b.  This is
        ``maximal_chains(a, b)[0]``, found without listing the others: that
        depth-first search tries the covers in the same sorted order, and
        its first branch never dead-ends.  For <= is the reflexive-transitive
        closure of the covers, so every u <= b with u != b has a cover
        u < v with v <= b, and a path of such covers reaches b because the
        order has no cycle.

        >>> from partfan import catalog
        >>> square = catalog.square()
        >>> poset = poset_from_linear_functional(square, (1, 1))
        >>> poset.extremes(poset.elements)
        ((1, 2), (0, 3))
        >>> poset.first_chain((1, 2), (0, 3))
        ((1,), (0,))
        >>> poset.maximal_chains((1, 2), (0, 3))
        [((1,), (0,)), ((2,), (3,))]
        >>> poset.first_chain((0, 3), (1, 2)) is None
        True
        """
        if not self.leq(a, b):
            return None
        labels = []
        while a != b:
            a, wall = next((u, w) for u, w in self._up[a] if self.leq(u, b))
            labels.append(wall)
        return tuple(labels)

    def to_json(self):
        return {"covers": [[list(lo), list(up)] for lo, up, _ in self.covers]}


def poset_from_json(fan, data):
    covers = []
    for lo, up in data["covers"]:
        lo = fan.check_cone(tuple(lo))
        up = fan.check_cone(tuple(up))
        covers.append((lo, up, tuple(sorted(set(lo) & set(up)))))
    return FanPoset(fan, covers)


def _orient_walls(fan, sign):
    """One cover per wall of ``fan`` on which ``sign`` is not 0, and the rest.

    For each wall with chambers (t1, t2), in ``fan.walls()`` order, let nu
    be its normal into t2 (``Fan._wall_normal``).  The cover goes upward
    toward t2 when sign(nu) > 0 and toward t1 when sign(nu) < 0.  A wall
    with sign(nu) == 0 gets no cover: it is returned as (wall, t1, t2, nu)
    in the list of ties, for the caller to orient or refuse.
    """
    covers, ties = [], []
    for wall in fan.walls():
        t1, t2 = fan._star_chambers(wall)
        nu = fan._wall_normal(wall, t2)
        s = sign(nu)
        if s > 0:
            covers.append((t1, t2, wall))
        elif s < 0:
            covers.append((t2, t1, wall))
        else:
            ties.append((wall, t1, t2, nu))
    return covers, ties


def poset_from_linear_functional(fan, b):
    """Order the chambers so the functional b increases across every wall.

    Each wall with adjacent chambers (t1, t2) contributes the cover
    t1 < t2 for which the normal nu pointing from t1 to t2 has
    b(nu) > 0 (``_orient_walls`` with the sign of b . nu).  Requires
    completeness and genericity of b: DegenerateFunctional names the first
    wall, in ``fan.walls()`` order, on which b(nu) == 0.  b is scaled to
    integers by a positive factor first, which keeps every sign.
    """
    if not is_finite_complete(fan):
        raise NotComplete("fan posets need a finite complete fan", witness=fan.to_json())
    b = _integer_row(b)
    covers, ties = _orient_walls(fan, lambda nu: dot(b, nu))
    if ties:
        raise DegenerateFunctional("functional vanishes on a wall normal",
                                   witness=list(ties[0][0]))
    return FanPoset(fan, covers)


def rank2_bisector_poset(fan, base):
    """The two-chain poset on a complete fan in the plane.

    The base chamber is the minimum; the maximum is the chamber containing
    the opposite of the base's angle bisector d, and the two boundary
    paths around the circle from the base to it are the covering chains.
    Raises PosetInvalid, with the witness [base, maximum], when the
    maximum shares a wall with the base, since the result would break the
    facial-interval axiom.

    This is the functional poset of -d.  With base rays u, w, p = w . w
    and q = u . u, the bisector is d = u*sqrt(p) + w*sqrt(q) up to scale,
    and each wall is oriented by the exact sign of
    -d . nu = -(nu . u)*sqrt(p) - (nu . w)*sqrt(q).  Why that gives the
    two chains: take a ray at angle theta and let nu be its normal that
    points counterclockwise.  Then -d . nu = |d||nu| sin(theta - theta_d),
    which is positive exactly on the open counterclockwise arc from d to
    -d.  So walls are climbed counterclockwise on that arc and clockwise
    on the other: these are the two chains from the base, which contains
    d, to the chamber of -d, whose two walls both point into it.

    At most one wall has sign 0: the ray through -d, which is then shared
    by two chambers.  Its cover goes into the chamber counterclockwise of
    the ray, unless only that chamber is wall-adjacent to the base.
    """
    if fan.dim != 2:
        raise NotRank2("bisector posets are defined for fans in the plane")
    if not is_finite_complete(fan):
        raise NotComplete("fan posets need a finite complete fan", witness=fan.to_json())
    base = fan.check_cone(base)
    if len(base) != 2:
        raise NotRank2("base must be a maximal cone", witness=list(base))
    u, w = fan.ray_vectors(base)
    p = int(dot(w, w))
    q = int(dot(u, u))
    covers, ties = _orient_walls(
        fan, lambda nu: sqrt_combination_sign(-dot(nu, u), p, -dot(nu, w), q))

    # A maximum wall-adjacent to the minimum collapses the facial interval
    # of their shared wall to the whole poset, breaking the axiom.
    def wall_adjacent(c):
        return c != base and len(set(c) & set(base)) == fan.dim - 1

    for wall, t1, t2, nu in ties:
        # nu points into t2, so t2 is counterclockwise of the ray iff
        # det(ray, nu) > 0
        ray = fan.rays[wall[0]]
        lower, upper = (t1, t2) if ray[0] * nu[1] - ray[1] * nu[0] > 0 else (t2, t1)
        if wall_adjacent(upper) and not wall_adjacent(lower):
            lower, upper = upper, lower
        covers.append((lower, upper, wall))
    poset = FanPoset(fan, covers)
    top = poset.maximum()
    if wall_adjacent(top):
        raise PosetInvalid("the maximum is wall-adjacent to the base",
                           witness=[list(base), list(top)])
    return poset


class PosetReport:
    def __init__(self, facial_failures, union_failures):
        self.facial_failures = tuple(facial_failures)
        self.union_failures = tuple(union_failures)
        self.weak_variant = "not checked"

    @property
    def facial_ok(self):
        return not self.facial_failures

    @property
    def union_ok(self):
        return not self.union_failures

    @property
    def ok(self):
        return self.facial_ok and self.union_ok

    def to_json(self):
        return {
            "facial_intervals": self.facial_ok,
            "facial_failures": [list(w) for w in self.facial_failures],
            "interval_unions": self.union_ok,
            "union_failures": list(self.union_failures),
            "weak_variant": self.weak_variant,
        }


def check_weak_fan_poset(fan, poset):
    """Report on the two fan-poset axioms.

    (a) every star(sigma)^n is an order interval; (b) the union U of the
    maximal cones of every interval is a polyhedral cone.  The
    simply-connected weak variant is reported as not checked.  Raises
    NotComplete unless the fan is finite, complete and valid, which (b)
    relies on.

    (b) is decided by boundary walls.  A boundary wall of U is a wall of
    a member chamber whose other chamber is not a member.  U is convex iff
    every ray of U lies on the member side of every boundary wall's
    hyperplane.  If U is convex, a boundary wall is a piece of the
    boundary of U inside a hyperplane, so that hyperplane supports U.
    Conversely, let P be the intersection of the member-side halfspaces.
    U is the cone over its rays, so U lies in P.  In a complete valid fan
    the boundary of U is covered by the boundary walls, each of which lies
    in the boundary of P.  So U meets the interior of P in a set that is
    closed and open there, and not empty, since the interior of U lies in
    it; the interior of P is connected, so U = P.

    The test runs on bitmasks.  Once per side (wall, chamber) of each
    wall it records the bit of the chamber across the wall and the mask
    of the rays strictly on the far side of the wall's hyperplane from the
    chamber.  With M the interval's chamber mask and R the OR of its
    members' ray masks, U is convex iff no side of a member whose chamber
    across is outside M has a far-side mask that meets R.

    A non-convex interval fails (b) once for each outside chamber C that
    meets K = cone(interval rays) in full dimension.  K contains a member
    chamber, so it is full-dimensional: ``halfspaces`` gives it no
    equalities, and K is the set where each of its facet functionals h is
    >= 0.  C is decided by the signs of the h on its rays first:

    - if h . r >= 0 for every h and every ray r of C, every ray of C lies
      in K, so C lies in K and C & K = C is full-dimensional: a failure;
    - if one h has h . r <= 0 on every ray of C, C lies in {h . x <= 0}
      and K in {h . x >= 0}, so C & K lies in the hyperplane h . x = 0
      (h is not zero): not a failure.

    Only a chamber that neither rule decides goes through the exact
    ``fulldim_in_halfspaces``.
    """
    if not is_finite_complete(fan):
        raise NotComplete("fan posets need a finite complete fan", witness=fan.to_json())
    facial_failures = [cone for cone in fan.cones if poset.facial(cone) is None]
    index = poset._index
    ray_masks = [_bits(c) for c in poset.elements]
    sides = [[] for _ in poset.elements]  # (bit across, far-side ray mask)
    for wall in fan.walls():
        t1, t2 = fan._star_chambers(wall)
        nu = fan._wall_normal(wall, t1)
        values = [dot(nu, r) for r in fan.rays]
        i, j = index[t1], index[t2]
        sides[i].append((1 << j, _bits(r for r, v in enumerate(values) if v < 0)))
        sides[j].append((1 << i, _bits(r for r, v in enumerate(values) if v > 0)))
    union_failures = []
    for a, above in enumerate(poset._up_mask):
        for b in _bit_indices(above):
            members = above & poset._down_mask[b]
            ids = _bit_indices(members)
            rays = 0
            for i in ids:
                rays |= ray_masks[i]
            if any(far & rays for i in ids for across, far in sides[i]
                   if not across & members):
                interval = [list(poset.elements[a]), list(poset.elements[b])]
                union_failures.extend(
                    {"interval": interval, "chamber": list(c)}
                    for c in _full_meets(fan, poset, members, rays, ray_masks))
    return PosetReport(facial_failures, union_failures)


def _full_meets(fan, poset, members, rays, ray_masks):
    """The chambers outside ``members`` meeting cone(rays) in full dimension.

    ``rays`` is a ray mask; the sign rules of ``check_weak_fan_poset``
    decide first, ``fulldim_in_halfspaces`` decides the rest.
    """
    halfspace_rep = conelib.halfspaces(
        sorted(fan.rays[r] for r in _bit_indices(rays)), fan.dim)
    inside = _bits(range(len(fan.rays)))  # rays where every h is >= 0
    nonpositive = []                       # per h, the rays where h <= 0
    for h in halfspace_rep[1]:
        values = [dot(h, r) for r in fan.rays]
        inside &= _bits(r for r, v in enumerate(values) if v >= 0)
        nonpositive.append(_bits(r for r, v in enumerate(values) if v <= 0))
    out = []
    for i, c in enumerate(poset.elements):
        mask = ray_masks[i]
        if members >> i & 1:
            continue
        if mask & inside == mask:
            out.append(c)
        elif any(mask & below == mask for below in nonpositive):
            continue
        elif conelib.fulldim_in_halfspaces(fan.ray_vectors(c), halfspace_rep, fan.dim):
            out.append(c)
    return out


def _bits(indices):
    """The bitmask with the given bit positions set."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _bit_indices(mask):
    """The set bit positions of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def facial_interval(fan, poset, cone):
    """The facial interval of ``cone`` as (lower, upper): the chambers of
    star(cone) are the order interval [lower, upper].  Raises
    NotAnInterval, witness the cone, when they are no interval."""
    return _facial_interval(poset, fan.check_cone(cone))


def _facial_interval(poset, cone):
    """``facial_interval`` of a sorted cone taken from the fan's tables."""
    interval = poset.facial(cone)
    if interval is None:
        raise NotAnInterval("star is not an order interval", witness=list(cone))
    return interval


def check_nondegenerate(fan, partition, poset):
    """Whether the poset is well-defined on identified stars.

    For every pair sigma1 ~ sigma2 the cover directions inside their stars
    must agree under the canonical matching of projected cones; a mismatch
    would force a picture-group generator to be trivial.  Returns
    (True, None) or (False, witness).  Raises PossibleIdentViolation when
    a block crosses potential-identification classes.

    A pair is decided by one set inclusion.  Let D(s) be the set of pairs
    (projected_cone(s, lower), projected_cone(s, upper)) over the covers
    across the walls of star(s).  The pair test of s1, s2 asks that
    (match(lower), match(upper)) be a cover for each such cover of s1.
    That pair lies in star(s2) and projects to the cover's own projected
    pair, and projection is injective on star(s2) (the precondition of
    ``potential_identifications``, which ``_check_possible`` reaches
    first), so it is a cover iff that projected pair lies in D(s2).  So
    the pair holds iff D(s1) <= D(s2), and a pair that fails has a cover
    whose projected pair is not in D(s2).  The covers need not cross
    every wall, so D(s1) = D(s2) is not required.  Over the block s_0,
    ..., s_k every pair i < j holds iff D(s_0) <= D(s_1) <= ... <= D(s_k),
    so ``_nondegeneracy`` decides a block by that chain of k inclusions.
    Only a failing block has its pairs scanned, in ``combinations`` order
    as the scan of every pair against every cover does, so the first pair
    with a failing cover is the first pair whose D is not included, and
    its least failing cover in sorted order is that scan's witness.

    The verdict is computed once per (fan, partition) on the poset
    (``fan.memo``, key ``(check_nondegenerate, fan, partition)``), so the
    picture group and the rank-2 certificate read the one a caller got.
    ``_check_possible`` runs inside the computation, so a partition that
    passes it is checked once, and one whose block crosses E-classes
    stores nothing and raises on every call.
    """
    return memo(poset, (check_nondegenerate, fan, partition),
                _nondegeneracy, fan, partition, poset)


def _nondegeneracy(fan, partition, poset):
    """The verdict ``check_nondegenerate`` keeps, computed afresh.

    The failing covers of a pair (s1, s2) are the covers across the walls
    of star(s1) whose projected pairs lie in D(s1) - D(s2).  Projection is
    injective on star(s1), so ``fan._project_star_inverse(s1)`` reads each
    back, and the least in sorted order is the witness cover.  A wall
    contains s1 exactly when it lies in star(s1), so it is also the first
    failing cover of s1 in the sorted ``poset.covers``.  Only the failing
    cover is matched, for the witness.
    """
    _check_possible(fan, partition)
    for block in partition.blocks:
        if len(block[0]) == fan.dim:
            continue
        images = [_cover_images(fan, poset, s) for s in block]
        if all(a <= b for a, b in zip(images, images[1:])):
            continue
        for (s1, d1), (s2, d2) in combinations(zip(block, images), 2):
            if d1 <= d2:
                continue
            inverse = fan._project_star_inverse(s1)
            lower, upper = min((inverse[a], inverse[b]) for a, b in d1 - d2)
            match = _star_matching(fan, s1, s2)
            return False, {
                "block": [list(c) for c in block],
                "cover": [list(lower), list(upper)],
                "image": [list(match[lower]), list(match[upper])],
            }
    return True, None


def _cover_images(fan, poset, cone):
    """D(cone): the covers across walls of star(cone), as projected pairs."""
    project = fan._project_star_map(cone)
    return {(project[lower], project[upper])
            for wall in fan._stars[cone] if len(wall) == fan.dim - 1
            for lower, upper in poset._across.get(wall, ())}
