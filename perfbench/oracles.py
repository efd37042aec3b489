"""Correctness oracles computed without partfan.

Everything here works on plain integer tuples with exact integer
arithmetic, so each check is made apart from the code it judges.
"""

import xml.etree.ElementTree as ET
from itertools import combinations

from inputs import angle_sorted, cross


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def int_rank(rows):
    """Rank of an integer matrix by fraction-free elimination."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def primitive(v):
    g = 0
    for x in v:
        g = _gcd(g, abs(x))
    return tuple(x // g for x in v)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


# ---------------------------------------------------------------------------
# rank-3 arrangements

class Rank3Lattice:
    """Intersection lattice of a central rank-3 arrangement.

    The rank-2 flats (lines) are the closures of normal pairs: the normals
    whose addition keeps the integer rank at 2.  Zaslavsky's theorem gives
    the chamber count as the sum of |mu(0, X)| over all flats X.
    """

    def __init__(self, normals):
        self.normals = tuple(normals)
        m = len(normals)
        lines = set()
        for i, j in combinations(range(m), 2):
            pair = [normals[i], normals[j]]
            lines.add(frozenset(k for k in range(m)
                                if int_rank(pair + [normals[k]]) == 2))
        self.lines = sorted(lines, key=sorted)
        mu_lines = [len(line) - 1 for line in self.lines]   # mu(V)=1, mu(H)=-1
        mu_origin = -(1 - m + sum(mu_lines))
        self.chambers = 1 + m + sum(abs(x) for x in mu_lines) + abs(mu_origin)
        self.rays = set()
        for line in self.lines:
            d = primitive(cross3(normals[min(line)], normals[max(line)]))
            self.rays.update((d, tuple(-x for x in d)))
        # each hyperplane H is cut by its lines into 2 * #lines planar sectors
        self.walls = sum(2 * len([ln for ln in self.lines if h in ln])
                         for h in range(m))
        self.flat_count = 1 + m + len(self.lines) + 1


def flat_key(normals, ray_vectors):
    """Hyperplanes containing a cone: the flat that is its support."""
    return frozenset(i for i, n in enumerate(normals)
                     if all(dot(n, r) == 0 for r in ray_vectors))


def all_faces(max_cones):
    faces = {()}
    for mc in max_cones:
        for k in range(1, len(mc) + 1):
            faces.update(combinations(tuple(sorted(mc)), k))
    return faces


def check_arrangement_fan(lattice, rays, max_cones, cones):
    """Rays, chambers and face counts of an arrangement fan against the lattice."""
    problems = []
    if set(map(tuple, rays)) != lattice.rays:
        problems.append("rays are not the +/- primitive directions of the lines")
    if len(rays) != 2 * len(lattice.lines):
        problems.append("ray count %d != 2 * %d lines" % (len(rays), len(lattice.lines)))
    if len(max_cones) != lattice.chambers:
        problems.append("chambers %d != Zaslavsky count %d"
                        % (len(max_cones), lattice.chambers))
    walls = [c for c in cones if len(c) == 2]
    if len(walls) != lattice.walls:
        problems.append("walls %d != %d" % (len(walls), lattice.walls))
    if len(rays) - len(walls) + len(max_cones) != 2:
        problems.append("rays - walls + chambers != 2")
    if set(cones) != all_faces(max_cones):
        problems.append("cone list is not the face set of the chambers")
    for mc in max_cones:
        vecs = [rays[i] for i in mc]
        for n in lattice.normals:
            signs = {(dot(n, v) > 0) - (dot(n, v) < 0) for v in vecs}
            if {1, -1} <= signs:
                problems.append("hyperplane cuts chamber %s" % (mc,))
    return problems


def check_arrangement_partition(normals, rays, cones, blocks, kind):
    """A flat partition has one block per flat; a shard partition covers
    every cone once, keeps blocks to one dimension and refines the flats."""
    problems = []
    seen = [c for b in blocks for c in b]
    if sorted(seen) != sorted(cones) or len(seen) != len(set(seen)):
        problems.append("%s partition does not cover every cone once" % kind)
    keys = [{flat_key(normals, [rays[i] for i in c]) for c in b} for b in blocks]
    if any(len(k) != 1 for k in keys):
        problems.append("%s block spans two flats" % kind)
    if any(len({len(c) for c in b}) != 1 for b in blocks):
        problems.append("%s block mixes dimensions" % kind)
    if kind == "flat":
        by_flat = {}
        for c in cones:
            by_flat.setdefault(flat_key(normals, [rays[i] for i in c]), set()).add(c)
        if sorted(map(sorted, by_flat.values())) != sorted(map(sorted, blocks)):
            problems.append("flat blocks are not the cones grouped by support flat")
    return problems


# ---------------------------------------------------------------------------
# planar fans

def sqrt_combination_sign(x, p, y, q):
    """Sign of x*sqrt(p) + y*sqrt(q) for integers x, y and p, q > 0."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    lhs, rhs = x * x * p, y * y * q
    return sx if lhs > rhs else sy if rhs > lhs else 0


def ccw_chambers(rays):
    """The chambers of a complete planar fan in counterclockwise order, each
    as (sorted ray-index pair, start ray index, end ray index)."""
    order = [list(rays).index(r) for r in angle_sorted(list(rays))]
    n = len(order)
    return [(tuple(sorted((order[i], order[(i + 1) % n]))), order[i], order[(i + 1) % n])
            for i in range(n)]


def bisector_base_allowed(rays, base):
    """Whether a chamber is an allowed base for the bisector poset.

    Allowed means the opposite -d of the base's angle bisector lies in no
    closed chamber that shares a ray with the base.  With d = u/|u| + w/|w|,
    cross(a, -d) has the sign of -(cross(a,u) |w| + cross(a,w) |u|), decided
    by comparing integer squared norms.
    """
    ring = ccw_chambers(rays)
    k = [c for c, _, _ in ring].index(tuple(sorted(base)))
    _, iu, iw = ring[k]
    u, w = rays[iu], rays[iw]
    p, q = dot(w, w), dot(u, u)

    def side(a):   # sign of cross(a, -d)
        return -sqrt_combination_sign(cross(a, u), p, cross(a, w), q)

    for j in (k - 1, (k + 1) % len(ring)):
        _, ia, ib = ring[j]
        if side(rays[ia]) >= 0 and -side(rays[ib]) >= 0:
            return False
    return True


def fan_poset_functional(rays, b):
    """Whether the functional's poset on a planar fan satisfies the
    facial-interval axiom: b and -b must lie in chambers sharing no ray,
    since a maximum adjacent to the minimum makes their shared ray's star
    a two-element set that is not the interval between them."""
    ring = ccw_chambers(rays)

    def position(v):
        return next(i for i, (_, s, e) in enumerate(ring)
                    if cross(rays[s], v) > 0 and cross(v, rays[e]) > 0)

    gap = (position(b) - position((-b[0], -b[1]))) % len(ring)
    return gap not in (1, len(ring) - 1)


def order_closure(chambers, covers):
    """leq as a set of pairs, from cover relations (lower, upper)."""
    up = {c: set() for c in chambers}
    for lo, hi in covers:
        up[lo].add(hi)
    above = {}
    for c in chambers:
        seen, stack = {c}, [c]
        while stack:
            for y in up[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        above[c] = seen
    return {(a, b) for a in chambers for b in above[a]}


def expected_union_failures(rays, covers):
    """(a, b, c) for every interval [a, b] whose chambers form an arc wider
    than a half-plane, and every chamber c outside it.  An arc from ray s to
    ray e (counterclockwise) is wider than a half-plane iff cross(s, e) < 0.

    Returns (failures, interval count); raises ValueError when an interval
    is not a contiguous arc of chambers.
    """
    ring = ccw_chambers(rays)
    chambers = [c for c, _, _ in ring]
    n = len(ring)
    leq = order_closure(chambers, covers)
    out = set()
    for a, b in leq:
        members = {i for i, c in enumerate(chambers) if (a, c) in leq and (c, b) in leq}
        if len(members) == n:
            continue
        starts = [i for i in members if (i - 1) % n not in members]
        ends = [i for i in members if (i + 1) % n not in members]
        if len(starts) != 1 or len(ends) != 1:
            raise ValueError("interval %s..%s is not an arc" % (a, b))
        if cross(rays[ring[starts[0]][1]], rays[ring[ends[0]][2]]) < 0:
            out.update((a, b, chambers[i]) for i in range(n) if i not in members)
    return out, len(leq)


# ---------------------------------------------------------------------------
# command-line outputs

HIRZEBRUCH_E_CLASSES = [[[]], [[0]], [[1], [3]], [[2]],
                        [[0, 1], [0, 3], [1, 2], [2, 3]]]


def well_formed_svg(text):
    if text.count("<svg") != 1:
        return False
    try:
        root = ET.fromstring(text)
    except ET.ParseError:
        return False
    return root.tag.rsplit("}", 1)[-1] == "svg"
