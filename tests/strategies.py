"""Hypothesis strategies, arrangements and random partitions shared by several
test modules."""

import random
from functools import cmp_to_key
from itertools import combinations, product
from math import gcd

from hypothesis import assume, strategies as st

from fraction_oracles import mat_vec
from partfan.fan import build_fan
from partfan.partition import Partition, potential_identifications
from partfan.rational import matrix_rank, primitive_ray


def _ccw(a, b):
    """Counterclockwise order from the positive x-axis, decided exactly."""
    ha = 0 if a[1] > 0 or (a[1] == 0 and a[0] > 0) else 1
    hb = 0 if b[1] > 0 or (b[1] == 0 and b[0] > 0) else 1
    if ha != hb:
        return ha - hb
    return -(a[0] * b[1] - a[1] * b[0])


def angular_order(rays):
    """Planar rays sorted counterclockwise from the positive x-axis."""
    return sorted(rays, key=cmp_to_key(_ccw))


# the primitive integer directions with entries in [-4, 4]
PLANAR_RAYS = [(x, y) for x in range(-4, 5) for y in range(-4, 5)
               if (x, y) != (0, 0) and gcd(x, y) == 1]


@st.composite
def complete_planar_fans(draw, max_rays=9):
    """Complete planar fans: rays sorted by angle, every gap below pi."""
    rays = angular_order(draw(st.lists(st.sampled_from(PLANAR_RAYS), min_size=3,
                                       max_size=max_rays, unique=True)))
    n = len(rays)
    assume(all(a[0] * b[1] - a[1] * b[0] > 0
               for a, b in zip(rays, rays[1:] + rays[:1])))
    return build_fan(2, rays, [tuple(sorted((i, (i + 1) % n))) for i in range(n)])


def seeded_planar_fan(seed, n, symmetric):
    """A seeded complete planar fan with n rays from ``PLANAR_RAYS``.  A
    symmetric fan is n / 2 lines through the origin; any other has no two
    opposite rays."""
    rng = random.Random(seed)
    upper = [v for v in PLANAR_RAYS if v[1] > 0 or (v[1] == 0 and v[0] > 0)]
    while True:
        if symmetric:
            picks = rng.sample(upper, n // 2)
            rays = picks + [(-x, -y) for x, y in picks]
        else:
            rays = rng.sample(PLANAR_RAYS, n)
            if any((-x, -y) in rays for x, y in rays):
                continue
        rays = angular_order(rays)
        if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in zip(rays, rays[1:] + rays[:1])):
            return build_fan(2, rays, [tuple(sorted((i, (i + 1) % n))) for i in range(n)])


A3_NORMALS = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]


def b_normals(n):
    """The type-B reflection arrangement: e_i and e_i +/- e_j."""
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return unit + [tuple(a + s * b for a, b in zip(unit[i], unit[j]))
                   for i, j in combinations(range(n), 2) for s in (1, -1)]


def a_normals(n):
    """The braid arrangement A_n: e_i - e_j in R^(n+1), not essential."""
    unit = [tuple(int(k == i) for k in range(n + 1)) for i in range(n + 1)]
    return [tuple(a - b for a, b in zip(unit[i], unit[j]))
            for i, j in combinations(range(n + 1), 2)]


# A_4 made essential: e_i - e_j and e_i in R^4 (the coordinate x_5 set to 0)
A4_ESSENTIAL = [n[:4] for n in a_normals(4)]


def random_fan(dim, seed, subdivisions=3):
    """A seeded complete simplicial fan in R^dim with skew rays.

    The fan of the coordinate orthants is subdivided at a few random faces
    of dimension at least 2 (stellar subdivision: the new ray is the sum
    of the face's rays), and its rays are then mapped by a random
    invertible integer matrix.  Both steps keep a complete simplicial fan.
    """
    rng = random.Random(seed)
    # ray 2i is e_i and ray 2i + 1 is -e_i
    rays = [tuple(s * int(k == i) for k in range(dim)) for i in range(dim) for s in (1, -1)]
    max_cones = [tuple(2 * i + b for i, b in enumerate(bits))
                 for bits in product((0, 1), repeat=dim)]
    for _ in range(subdivisions):
        face = set(rng.sample(rng.choice(max_cones), rng.randint(2, dim)))
        rays.append(tuple(map(sum, zip(*(rays[i] for i in face)))))
        max_cones = [c for c in max_cones if not face <= set(c)] + [
            tuple(sorted(set(c) - {j} | {len(rays) - 1}))
            for c in max_cones if face <= set(c) for j in face]
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        if matrix_rank(matrix) == dim:
            return build_fan(dim, [mat_vec(matrix, r) for r in rays], max_cones)


def random_cone_set(dim, seed, max_cones=16):
    """A seeded set of simplicial cones in R^dim that need not be a fan.

    Rays are distinct primitive vectors with entries in -2..2; maximal
    cones of dim - 1 or dim independent rays are drawn at random, overlaps
    allowed, and kept while the set has at most ``max_cones`` cones, the
    zero cone included.
    """
    rng = random.Random(seed)
    pool = sorted({primitive_ray(v) for v in product(range(-2, 3), repeat=dim) if any(v)})
    rays = rng.sample(pool, rng.randint(dim + 1, dim + 3))
    chosen, faces = [], {()}
    for _ in range(6):
        cone = tuple(sorted(rng.sample(range(len(rays)), rng.choice((dim - 1, dim)))))
        grown = faces.union(*(combinations(cone, k) for k in range(1, len(cone) + 1)))
        if len(grown) <= max_cones and matrix_rank([rays[i] for i in cone]) == len(cone):
            chosen.append(cone)
            faces = grown
    return build_fan(dim, rays, chosen)


def refining_partition(fan, rng):
    """A random partition that refines the E-classes; rarely admissible."""
    blocks = []
    for cls in potential_identifications(fan).classes:
        labels = [rng.randrange(len(cls)) for _ in cls]
        blocks += [[c for c, k in zip(cls, labels) if k == label] for label in set(labels)]
    return Partition(fan, blocks)


def random_seeds(fan, rng):
    """Random seed pairs for ``admissible_closure``, each inside one E-class."""
    classes = [c for c in potential_identifications(fan).classes if len(c) > 1]
    return [tuple(rng.sample(c, 2)) for c in classes if rng.random() < 0.4]
