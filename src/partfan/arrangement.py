"""Central simplicial hyperplane arrangements.

The induced fan is found combinatorially, in the language of oriented
matroids (Bjoerner, Las Vergnas, Sturmfels, White and Ziegler, *Oriented
Matroids*, ch. 4): rays are the lines of rank-(n-1) flats, a chamber is a
tope together with the rays that conform to it, and chambers are reached
by a breadth-first search of the tope graph.  Every sign test is an
integer dot product.  On top of the fan: flats and the flat-partition, the
poset of regions, shards with respect to a base region and the
shard-partition, and the wall algebra of the built-in rank-3 arrangement
together with its homomorphism certificate.
"""

from collections import deque
from itertools import combinations, count

from .errors import (
    DimensionMismatch,
    NotAChamber,
    NotSimplicialArrangement,
    UnknownCone,
    UnknownFace,
    WrongArrangement,
    WrongBasis,
)
from .fan import build_fan
from .partition import UnionFind, group_by
from .poset import FanPoset
from .rational import dot, int_kernel_basis, primitive_ray


class Arrangement:
    """Normals of a central arrangement; pairwise non-parallel and nonzero."""

    def __init__(self, dim, normals):
        for i, n in enumerate(normals):
            if len(n) != dim:
                raise DimensionMismatch("normal length differs from the dimension",
                                        witness=[i, len(n), dim])
        normals = tuple(primitive_ray(n) for n in normals)
        for a, b in combinations(range(len(normals)), 2):
            na, nb = normals[a], normals[b]
            if na == nb or na == tuple(-x for x in nb):
                raise WrongArrangement("parallel normals", witness=[a, b])
        self.dim = dim
        self.normals = normals

    def sign_vector(self, point):
        """Signs of <n_i, point>; the point has integer or Fraction entries."""
        return tuple(_sign(dot(n, point)) for n in self.normals)

    def to_json(self):
        return {"dim": self.dim, "normals": [list(n) for n in self.normals]}


def arrangement_from_json(data):
    return Arrangement(data["dim"], [tuple(n) for n in data["normals"]])


def _sign(x):
    return (x > 0) - (x < 0)


def builtin_brauer():
    """The rank-3 arrangement with the seven 0/1 normals."""
    return Arrangement(3, [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (0, 1, 1), (1, 0, 1),
        (1, 1, 1),
    ])


class ArrangementFan:
    """The fan of an arrangement plus the face/sign-vector dictionary."""

    def __init__(self, arrangement, fan, face_signs, face_points):
        self.arrangement = arrangement
        self.fan = fan
        self.face_signs = face_signs    # cone -> sign vector
        self.face_points = face_points  # cone -> interior witness point

    def sign_of(self, cone):
        cone = self.fan.check_cone(cone)
        return self.face_signs[cone]


def arrangement_fan(arrangement, with_signs=False):
    """The fan of a central simplicial arrangement, by a tope-graph search.

    The rays are +/- the primitive kernel vectors of the (n-1)-subsets of
    normals whose kernel is a line.  The search starts at the tope (sign
    vector of a chamber) of a moment-curve point (1, t, t^2, ...) on no
    hyperplane.  A chamber's rays are the rays whose sign vectors conform
    to its tope; its neighbours are the topes that differ in one
    hyperplane holding n-1 of those rays.  The faces are the subsets of
    chamber rays; a face's witness point is the sum of its primitive rays,
    which lies in its relative interior, and its sign vector is that
    point's.  Raises NotSimplicialArrangement when a chamber does not have
    exactly n rays, as happens for every chamber of a non-essential
    arrangement.  The work is C(m, n-1) small kernels plus one pass over
    the rays and the hyperplanes per chamber.
    """
    dim, normals = arrangement.dim, arrangement.normals
    lines = set()
    for subset in combinations(normals, max(dim - 1, 0)):
        kernel = int_kernel_basis(subset, dim)
        # a line on every hyperplane is the lineality of a non-essential
        # arrangement, not a ray
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
    face_points = {}
    for chamber in chambers:
        for k in range(dim + 1):
            for face in combinations(chamber, k):
                if face not in face_points:
                    face_points[face] = tuple(sum(rays[i][j] for i in face)
                                              for j in range(dim))
    face_signs = {face: arrangement.sign_vector(point)
                  for face, point in face_points.items()}
    fan = build_fan(dim, rays, chambers)
    result = ArrangementFan(arrangement, fan, face_signs, face_points)
    return result if with_signs else fan


def _conforms(face_signs, cell_signs):
    """Face order of covectors: zero where it must be, agreeing elsewhere."""
    return all(f == 0 or f == c for f, c in zip(face_signs, cell_signs))


class Flat:
    """A closed set of hyperplanes together with its subspace basis."""

    def __init__(self, indices, basis):
        self.indices = frozenset(indices)
        self.basis = tuple(sorted(basis))

    def __eq__(self, other):
        return isinstance(other, Flat) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "Flat(%s)" % sorted(self.indices)

    def to_json(self):
        return {"hyperplanes": sorted(self.indices),
                "basis": [list(b) for b in self.basis]}


def _flat_from_indices(arrangement, indices):
    normals = [arrangement.normals[i] for i in indices]
    basis = int_kernel_basis(normals, arrangement.dim)
    closed = frozenset(
        i for i, n in enumerate(arrangement.normals)
        if all(dot(n, b) == 0 for b in basis)
    ) if basis else frozenset(range(len(arrangement.normals)))
    return Flat(closed, basis)


def flats(arrangement):
    """All flats, built rank by rank by closure.

    The closure of a set S of hyperplanes is the set of hyperplanes that
    contain the intersection of S.  Every flat of rank r + 1 is the
    closure of F + {h} for a flat F of rank r and a hyperplane h not in F
    (Orlik and Terao, *Arrangements of Hyperplanes*, 2.1): take r + 1
    independent normals of it, let F be the closure of all but one and h
    the one left out.  Such a closure has rank r + 1, as the normal of h
    is not in the span of F's normals.  So starting from the closure of
    the empty set, the closures of F + {h} over the flats F of one rank
    give all flats of the next.  An h that already lies in a cover G of F
    found so far is skipped: closure(F + {h}) lies in G and has G's rank,
    so it is G.  This makes about one closure per cover relation of the
    lattice, not one per subset of hyperplanes.  A flat's basis is the
    primitive kernel basis of its normals, which depends only on their
    span, so it does not depend on which set was closed.

    >>> arrangement = Arrangement(2, [(1, 0), (0, 1), (1, 1)])
    >>> [sorted(f.indices) for f in flats(arrangement)]
    [[], [0], [1], [2], [0, 1, 2]]
    >>> flats(arrangement)[1].basis
    ((0, 1),)
    """
    level = [_flat_from_indices(arrangement, ())]
    out = set(level)
    while level:
        above = []
        for flat in level:
            covers = []
            for h in range(len(arrangement.normals)):
                if h in flat.indices or any(h in c.indices for c in covers):
                    continue
                covers.append(_flat_from_indices(arrangement, flat.indices | {h}))
            above.extend(c for c in covers if c not in out)
            out.update(covers)
        level = above
    return sorted(out, key=lambda f: (len(f.indices), sorted(f.indices)))


def _zero_set(arrangement, vectors):
    """The hyperplanes that contain every one of the vectors."""
    return frozenset(i for i, n in enumerate(arrangement.normals)
                     if all(dot(n, v) == 0 for v in vectors))


def support(arrangement, fan, cone):
    """Smallest flat containing a face of the arrangement fan.

    Its hyperplanes are the face's zero set Z, the hyperplanes that
    contain every ray of the face.  Z is closed: the intersection K of Z
    contains the span of the face, so a hyperplane that contains K
    contains every ray of the face and lies in Z.  So the flat is Z with
    the kernel basis of Z's normals, and no closure is taken.
    """
    try:
        cone = fan.check_cone(cone)
    except UnknownCone as err:
        raise UnknownFace("face not in the arrangement fan",
                          witness=err.witness) from err
    zero = _zero_set(arrangement, fan.ray_vectors(cone))
    return Flat(zero, int_kernel_basis(
        [arrangement.normals[i] for i in sorted(zero)], arrangement.dim))


def flat_partition(arrangement, fan):
    """Blocks are the cones with equal support flats; admissible by theory,
    and re-verified by the caller through partition.is_admissible.

    A support flat is determined by its hyperplanes, the cone's zero set
    (see ``support``), so the cones are grouped by zero set.
    """
    return group_by(fan, lambda cone: _zero_set(arrangement, fan.ray_vectors(cone)))


def _chamber_check(fan, base):
    base = fan.check_cone(base)
    if len(base) != fan.dim:
        raise NotAChamber("base region must be a maximal cone", witness=list(base))
    return base


def separating_set(arrfan, region, base):
    """Hyperplanes with strictly opposite signs on region and base."""
    region = _chamber_check(arrfan.fan, region)
    base = _chamber_check(arrfan.fan, base)
    return _separating(arrfan.sign_of(region), arrfan.sign_of(base))


def _separating(rs, bs):
    return frozenset(i for i, (a, b) in enumerate(zip(rs, bs)) if a == -b and a != 0)


def poset_of_regions(arrfan, base):
    """Chambers ordered away from the base by separating-set inclusion."""
    fan = arrfan.fan
    base = _chamber_check(fan, base)
    signs = arrfan.face_signs
    sep = {c: _separating(signs[c], signs[base]) for c in fan.chambers()}
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


class Shard:
    """A hyperplane piece: connected walls after cutting along flagged flats."""

    def __init__(self, index, hyperplane, walls):
        self.index = index
        self.hyperplane = hyperplane
        self.walls = tuple(sorted(walls))

    def to_json(self):
        return {"shard": self.index, "hyperplane": self.hyperplane,
                "walls": [list(w) for w in self.walls]}


def shards(arrangement, arrfan, base):
    """Cut every hyperplane along the rank-2 subarrangement rule.

    For each codimension-2 flat X the subarrangement consists of the
    hyperplanes containing X; its two basic members are the facet
    hyperplanes of the region containing the base.  Every non-basic member
    is cut along X.  Shards are the components of each hyperplane's walls
    under adjacency through uncut codimension-2 faces.

    Everything is read off the (dim-2)-faces f and their zero sets Z(f),
    the hyperplanes of f's support flat (see ``support``).  Every face of
    a simplicial arrangement fan spans its support flat, and every flat X
    of rank 2 is spanned by a (dim-2)-face, a region of the arrangement
    restricted to X.  So the codimension-2 flats are the distinct Z(f),
    and ``_rank2_basics`` runs once per flat, in the order of ``flats``.
    A wall's hyperplane is the one member of its zero set.  Two distinct
    walls that both contain f share exactly f, as the fan is simplicial,
    and walls that share a (dim-2)-face f both lie in star(f).  So
    joining, for each f, the walls of each hyperplane H in star(f),
    unless Z(f) is cut for H, gives the components of the adjacency.
    """
    fan = arrfan.fan
    base = _chamber_check(fan, base)
    base_point = arrfan.face_points[base]
    flat_of = {f: _zero_set(arrangement, fan.ray_vectors(f))
               for f in fan.cones_of_dim(fan.dim - 2)}
    cut = set()  # (hyperplane, flat) when the hyperplane is cut along the flat
    for flat in sorted(set(flat_of.values()), key=lambda z: (len(z), sorted(z))):
        if len(flat) < 3:
            continue
        members = sorted(flat)
        basics = _rank2_basics(arrangement, members, base_point)
        cut.update((h, flat) for h in members if h not in basics)
    walls_on = {h: [] for h in range(len(arrangement.normals))}
    hyperplane_of = {}
    for wall in fan.walls():
        (h,) = _zero_set(arrangement, fan.ray_vectors(wall))
        walls_on[h].append(wall)
        hyperplane_of[wall] = h
    sets = UnionFind(fan.walls())
    for face, flat in flat_of.items():
        first = {}  # hyperplane -> its first wall in star(face)
        for wall in fan._stars[face]:
            h = hyperplane_of.get(wall)
            if h is not None and (h, flat) not in cut:
                sets.union(first.setdefault(h, wall), wall)
    out = []
    for h, walls in walls_on.items():
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
    distinguished ambient key.  Two cones have the same intersection iff
    they lie in the same shards: a cone lies in the intersection of the
    shards that contain it, so if the intersections of two cones agree,
    each lies in every shard that holds the other.  So the cones are
    grouped by the set of shards that contain them, and the chambers, the
    only cones in no wall, by the empty set.
    """
    fan = arrfan.fan
    containing = {}  # cone -> indices of the shards holding it
    for sh in shards(arrangement, arrfan, base):
        for w in sh.walls:
            for k in range(len(w) + 1):
                for face in combinations(w, k):
                    containing.setdefault(face, set()).add(sh.index)
    return group_by(fan, lambda cone: frozenset(containing.get(cone, ())))


# ---------------------------------------------------------------------------
# wall algebra of the built-in rank-3 arrangement

ZERO_SYMBOL = "0"


class WallAlgebra:
    """Free Z-module on N union {0} with additive-when-defined multiplication.

    N is the Brauer normal set plus the zero vector (the unit); the extra
    symbol 0 is a distinguished basis element that absorbs products.
    Defined only for the built-in arrangement.
    """

    def __init__(self, arrangement):
        brauer = builtin_brauer()
        if arrangement.dim != brauer.dim or \
                set(arrangement.normals) != set(brauer.normals):
            raise WrongArrangement("wall algebra is defined for the built-in "
                                   "rank-3 arrangement only")
        self.vectors = tuple(sorted(brauer.normals)) + ((0, 0, 0),)
        self.basis = self.vectors + (ZERO_SYMBOL,)

    def element(self, items=()):
        out = {}
        for key, coeff in items:
            self._check_key(key)
            if coeff:
                out[key] = out.get(key, 0) + coeff
        return {k: v for k, v in out.items() if v}

    def unit(self):
        return {(0, 0, 0): 1}

    def _check_key(self, key):
        if key not in self.basis:
            raise WrongBasis("not a wall-algebra basis element", witness=key)

    def basis_mul(self, a, b):
        self._check_key(a)
        self._check_key(b)
        if a == ZERO_SYMBOL or b == ZERO_SYMBOL:
            return ZERO_SYMBOL
        total = tuple(x + y for x, y in zip(a, b))
        return total if total in self.vectors else ZERO_SYMBOL

    def mul(self, x, y):
        out = {}
        for ka, va in x.items():
            for kb, vb in y.items():
                k = self.basis_mul(ka, kb)
                out[k] = out.get(k, 0) + va * vb
        return {k: v for k, v in out.items() if v}

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}


def wa_mul(algebra, x, y):
    return algebra.mul(x, y)


def wa_certify(arrangement, presentation):
    """Generator-distinctness certificate via the wall algebra.

    (a) checks associativity and commutativity of * over all basis triples
    and pairs; (b) maps every relator, necessarily of the chain-pair shape
    w1 * w2^-1 with positive chain words, to the equation
    phi(w1) = phi(w2) with phi(X_m) = 0vec (+) m, and verifies it holds.
    Additionally the images of distinct generators are pairwise distinct
    and different from the unit.  Returns True iff everything holds.
    """
    algebra = WallAlgebra(arrangement)
    for a in algebra.basis:
        for b in algebra.basis:
            if algebra.basis_mul(a, b) != algebra.basis_mul(b, a):
                return False
            for c in algebra.basis:
                left = algebra.basis_mul(algebra.basis_mul(a, b), c)
                right = algebra.basis_mul(a, algebra.basis_mul(b, c))
                if left != right:
                    return False
    images = {}
    for gen in presentation.generators:
        vector = _generator_vector(gen)
        images[gen] = algebra.add(algebra.unit(), {vector: 1})
    seen = {}
    unit = algebra.unit()
    for gen, img in images.items():
        key = tuple(sorted(img.items()))
        if img == unit or key in seen:
            return False
        seen[key] = gen
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


def _generator_vector(symbol):
    # X-symbols of the flat partition name a codimension-1 cone by two rays;
    # the hyperplane normal is the primitive vector orthogonal to both.
    if not (symbol.startswith("X[") and symbol.endswith("]")):
        raise WrongArrangement("not a wall generator symbol", witness=symbol)
    rays = [tuple(int(t) for t in part.split(","))
            for part in symbol[2:-1].split(";")]
    normal = int_kernel_basis(rays, 3)
    if len(normal) != 1:
        raise WrongArrangement("generator does not name a wall", witness=symbol)
    n = normal[0]
    return n if sum(n) > 0 else tuple(-x for x in n)


def _split_chain_relator(word):
    """Interpret a relator w1 * w2^-1 as the equation w1 = w2."""
    shape = tuple(exp for _, exp in word)
    k = sum(1 for e in shape if e == 1)
    if shape != (1,) * k + (-1,) * (len(word) - k):
        return None
    return [sym for sym, _ in word[:k]], [sym for sym, _ in reversed(word[k:])]
