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
from .fan import _fan_of_cones, check_dim
from .partition import UnionFind, group_by
from .poset import poset_from_linear_functional
from .rational import dot, int_kernel_basis, primitive_ray


class Arrangement:
    """Normals of a central arrangement; pairwise non-parallel and nonzero.

    A ``dim`` that is not an integer >= 0 raises BadInput (``check_dim``).
    """

    def __init__(self, dim, normals):
        check_dim(dim)
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
    """The fan of an arrangement, with the sign vectors of its faces."""

    def __init__(self, arrangement, fan):
        self.arrangement = arrangement
        self.fan = fan

    def sign_of(self, cone):
        """The sign vector of a face: that of the sum of its primitive rays,
        which lies in the face's relative interior."""
        cone = self.fan.check_cone(cone)
        return self.arrangement.sign_vector(_ray_sum(self.fan, cone))


def _ray_sum(fan, cone):
    """The sum of the cone's primitive rays; the zero vector for the zero cone."""
    return tuple(sum(fan.rays[i][j] for i in cone) for j in range(fan.dim))


def arrangement_fan(arrangement, with_signs=False):
    """The fan of a central simplicial arrangement, by a tope-graph search.

    The rays are +/- the primitive kernel vectors of the (n-1)-subsets of
    normals whose kernel is a line.  The search starts at the tope (sign
    vector of a chamber) of a moment-curve point (1, t, t^2, ...) on no
    hyperplane.  A chamber's rays are the rays whose sign vectors conform
    to its tope (zero or the tope's sign on every hyperplane); its
    neighbours are the topes that differ in one hyperplane holding n-1 of
    those rays.  The faces are the subsets of chamber rays.  With
    ``with_signs`` the fan comes in an ArrangementFan, whose ``sign_of``
    computes a face's sign vector when asked.  Raises
    NotSimplicialArrangement when a chamber does not have exactly n rays,
    as happens for every chamber of a non-essential arrangement.

    The work is C(m, n-1) small kernels and one sign vector per ray.  From
    those, ``conform[h][s]`` is the bit set of the rays whose sign on
    hyperplane h is 0 or s, so ``conform[h][0]`` is the rays on h.  A
    chamber's rays are then the AND over h of ``conform[h][tope[h]]``, and
    h holds n-1 of them when the popcount of that set AND ``conform[h][0]``
    is n-1: two ANDs per hyperplane and chamber, and no sign test.

    The fan is assembled without ``build_fan``'s input checks, which hold
    by construction.  The rays are distinct primitive kernel vectors, and
    a chamber's ray indices are sorted.  They are independent: the closed
    chamber is a pointed full-dimensional cone, and its rays are exactly
    its 1-dimensional faces (a face lies on n-1 independent hyperplanes,
    and a ray on such a line cuts the chamber in that ray alone), so they
    generate it, and n rays that span R^n are independent.
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
    conform = [{s: sum(1 << i for i, signs in enumerate(ray_signs) if signs[h] in (0, s))
                for s in (-1, 0, 1)} for h in range(len(normals))]
    for t in count(1):
        start = arrangement.sign_vector([t ** k for k in range(dim)])
        if all(start):
            break
    seen = {start}
    queue = deque([start])
    chambers = []
    while queue:
        tope = queue.popleft()
        cell = (1 << len(rays)) - 1  # every ray
        for h, s in enumerate(tope):
            cell &= conform[h][s]
        if cell.bit_count() != dim:
            raise NotSimplicialArrangement(
                "chamber does not have exactly dim rays",
                witness={"signs": list(tope), "dim": dim, "rays": cell.bit_count()})
        chambers.append(tuple(i for i in range(len(rays)) if cell >> i & 1))
        for h in range(len(normals)):
            if (cell & conform[h][0]).bit_count() == dim - 1:
                flipped = tope[:h] + (-tope[h],) + tope[h + 1:]
                if flipped not in seen:
                    seen.add(flipped)
                    queue.append(flipped)
    fan = _fan_of_cones(dim, rays, chambers)
    return ArrangementFan(arrangement, fan) if with_signs else fan


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
    """The closure of the hyperplanes ``indices`` with its basis.

    The basis spans their intersection K, and the closure is the set of
    hyperplanes that contain every basis vector, the zero set of the basis
    (``_zero_sets``); with an empty basis it is every hyperplane.
    """
    basis = int_kernel_basis([arrangement.normals[i] for i in indices], arrangement.dim)
    return Flat(_zero_sets(arrangement, basis)(range(len(basis))), basis)


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


def _zero_sets(arrangement, vectors):
    """The zero set of each cone on ``vectors``, a cone given by its indices.

    A vector's zero set is the set of hyperplanes that contain it.  A
    hyperplane contains a cone exactly when it contains each of its rays,
    so a cone's zero set is the intersection of its rays' zero sets
    (Orlik and Terao, *Arrangements of Hyperplanes*, ch. 1), and the zero
    cone's is every hyperplane.  Each vector is dotted with each normal
    once, here; the returned function only intersects.
    """
    every = frozenset(range(len(arrangement.normals)))
    ray_zero = [frozenset(h for h, n in enumerate(arrangement.normals) if dot(n, v) == 0)
                for v in vectors]
    return lambda cone: every.intersection(*(ray_zero[i] for i in cone))


def support(arrangement, fan, cone):
    """Smallest flat containing a face of the arrangement fan.

    Its hyperplanes are the face's zero set Z, the hyperplanes that
    contain every ray of the face: the intersection of its rays' zero
    sets (``_zero_sets``).  Z is closed: the intersection K of Z contains
    the span of the face, so a hyperplane that contains K contains every
    ray of the face and lies in Z.  So the flat is the closure of Z, which
    is Z with the kernel basis of Z's normals.
    """
    try:
        cone = fan.check_cone(cone)
    except UnknownCone as err:
        raise UnknownFace("face not in the arrangement fan",
                          witness=err.witness) from err
    return _flat_from_indices(
        arrangement, _zero_sets(arrangement, fan.ray_vectors(cone))(range(len(cone))))


def flat_partition(arrangement, fan):
    """Blocks are the cones with equal support flats; admissible by theory,
    and re-verified by the caller through partition.is_admissible.

    A support flat is determined by its hyperplanes, the cone's zero set
    (see ``support``), so the cones are grouped by zero set.  Each ray's
    zero set is computed once, and a cone's is the intersection of its
    rays' (``_zero_sets``).
    """
    return group_by(fan, _zero_sets(arrangement, fan.rays))


def _chamber_check(fan, base):
    base = fan.check_cone(base)
    if len(base) != fan.dim:
        raise NotAChamber("base region must be a maximal cone", witness=list(base))
    return base


def poset_of_regions(arrfan, base):
    """Chambers ordered away from the base by separating-set inclusion.

    This is ``poset_from_linear_functional`` of -p, p the sum of the base's
    rays.  A wall spans one hyperplane H of the arrangement, and its two
    chambers lie on opposite sides of H and on the same side of every
    other hyperplane, so their separating sets differ by H alone: the
    larger is that of the chamber across H from the base, the upper one.
    p lies inside the base, so off H, and for the normal nu of the wall
    pointing from chamber t1 to chamber t2, -p . nu > 0 exactly when p is
    on t1's side: when H separates the base from t2.
    """
    fan = arrfan.fan
    base = _chamber_check(fan, base)
    return poset_from_linear_functional(fan, [-x for x in _ray_sum(fan, base)])


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
    under adjacency through uncut codimension-2 faces.  Raises
    WrongArrangement when ``arrangement`` is not the one of ``arrfan``.

    Everything is read off the (dim-2)-faces f and their zero sets Z(f),
    the hyperplanes of f's support flat (see ``support``), each the
    intersection of its rays' zero sets (``_zero_sets``).  Every face of
    a simplicial arrangement fan spans its support flat, and every flat X
    of rank 2 is spanned by a (dim-2)-face, a region of the arrangement
    restricted to X.  So the codimension-2 flats are the distinct Z(f),
    and the basics of each are read off the walls of one face spanning
    it (``_basic_walls``).  A wall's hyperplane is the one member of its
    zero set.  Two distinct walls that both contain f share exactly f, as
    the fan is simplicial, and walls that share a (dim-2)-face f both lie
    in star(f).  So joining, for each f, the walls of each hyperplane H in
    star(f), unless Z(f) is cut for H, gives the components of the
    adjacency.  Shards are numbered by hyperplane, then by their walls:
    a shard's walls are one component, so no two shards share a wall and
    sorting the (hyperplane, walls) pairs never ties.
    """
    if arrangement.to_json() != arrfan.arrangement.to_json():
        raise WrongArrangement("arrangement is not the arrangement fan's",
                               witness=[arrangement.to_json(),
                                        arrfan.arrangement.to_json()])
    fan = arrfan.fan
    base = _chamber_check(fan, base)
    point = _ray_sum(fan, base)
    zero_set = _zero_sets(arrangement, fan.rays)
    flat_of = {f: zero_set(f) for f in fan.cones_of_dim(fan.dim - 2)}
    hyperplane_of = {}
    for wall in fan.walls():
        (hyperplane_of[wall],) = zero_set(wall)
    face_of = {flat: f for f, flat in flat_of.items()}  # one face spanning each flat
    cut = set()  # (hyperplane, flat) when the hyperplane is cut along the flat
    for flat, f in face_of.items():
        if len(flat) >= 3:
            basics = {hyperplane_of[w] for w in _basic_walls(fan, f, point)}
            cut.update((h, flat) for h in flat if h not in basics)
    sets = UnionFind(fan.walls())
    for face, flat in flat_of.items():
        first = {}  # hyperplane -> its first wall in star(face)
        for wall in fan._stars[face]:
            h = hyperplane_of.get(wall)
            if h is not None and (h, flat) not in cut:
                sets.union(first.setdefault(h, wall), wall)
    groups = {}  # (hyperplane, root) -> its walls, in fan.walls() order
    for wall in fan.walls():
        groups.setdefault((hyperplane_of[wall], sets.find(wall)), []).append(wall)
    pieces = sorted((h, members) for (h, _), members in groups.items())
    return [Shard(k, h, members) for k, (h, members) in enumerate(pieces)]


def _basic_walls(fan, face, point):
    """The two walls through a (dim-2)-face that span its basic hyperplanes.

    ``point`` is the sum of the base chamber's rays.  The walls are those
    of the one chamber c of star(face) with ``point`` strictly on c's side
    of both of c's walls through the face.

    Proof.  Let X be the span of the face and A_X the hyperplanes that
    contain X.  Near a relative-interior point x of the face, the
    arrangement is its localization A_X (Orlik and Terao, *Arrangements of
    Hyperplanes*, ch. 1), so the chambers of star(face) match the regions
    of A_X one to one: a chamber near x lies in one region of A_X, each
    region contains the points near x on its side, and those lie in
    exactly one chamber of star(face).  A_X has rank 2, so each region R
    is the intersection of its two facet half-spaces.  The chamber c of R
    is simplicial and has exactly two walls through the face, c less one
    of its two rays off the face; near x, c and R agree, so these walls
    span R's two facet hyperplanes and their normals pointing into c
    (``Fan._wall_normal``) are the inward normals of those facets.  The
    point lies in the interior of the base chamber, so off every
    hyperplane and inside one region R_0 of A_X: the region holding the
    base.  Both normals of R_0's chamber are positive on the point.  If
    both normals of some chamber c are positive on it, the point lies in
    both facet half-spaces of c's region, so in that region, which is
    R_0.  So c is unique, and its two walls span the facets of R_0: the
    basics of X.
    """
    for c in fan._star_chambers(face):
        walls = [tuple(i for i in c if i != j) for j in c if j not in face]
        if all(dot(fan._wall_normal(w, c), point) > 0 for w in walls):
            return walls


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
    only cones in no wall, by the empty set.  A shard is a union of walls,
    so a cone lies in it exactly when one of its walls lies in star(cone):
    the set is read off ``fan._stars``.  Raises WrongArrangement as
    ``shards`` does, before any work.
    """
    fan = arrfan.fan
    shard_of = {w: sh.index for sh in shards(arrangement, arrfan, base) for w in sh.walls}
    return group_by(fan, lambda cone: frozenset(shard_of[w] for w in fan._stars[cone]
                                                if w in shard_of))


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


def wa_certify(arrangement, presentation):
    """Generator-distinctness certificate via the wall algebra.

    The certificate maps every relator, necessarily of the chain-pair
    shape w1 * w2^-1 with positive chain words, to the equation
    phi(w1) = phi(w2) with phi(X_m) = 0vec (+) m, and verifies it holds.
    Additionally the images of distinct generators are pairwise distinct
    and different from the unit.  Returns True iff everything holds.
    ``WallAlgebra`` accepts only the built-in arrangement, and a letter
    whose normal is not one of its basis vectors raises WrongBasis, the
    letters of w1 checked before those of w2, before the equation is
    decided.

    An image is unit + m with m a nonzero primitive normal, so it is never
    the unit, and two images are equal exactly when their normals are: the
    distinctness test compares the normals.

    The equation holds exactly when w1 and w2 have the same letters with
    multiplicity, so it is decided by comparing the sorted normals, with
    no product formed.  The basis vectors, the seven normals and the zero
    vector, are the subsets of {1,2,3}, and a * b is their union when
    they are disjoint and the symbol 0 otherwise; 0 absorbs.  So the
    algebra is commutative, and phi(w) = product of (unit + m) over the
    letters is the sum, over the sets P of w's positions, of x_U, U the
    union of P's normals, when those are pairwise disjoint, and of the
    symbol 0 otherwise.  Let c(m) count the letters with normal m.  Then
    the coefficient of e_i is c(e_i); that of e_i + e_j is
    c(e_i + e_j) + c(e_i) c(e_j); that of (1,1,1) is c(1,1,1) plus
    c(e_i + e_j) c(e_k) over the three pairs plus c(e_1) c(e_2) c(e_3);
    and that of the symbol 0 is fixed by |w| and the rest.  Solved in
    this order, the coefficients give every c(m), so equal images mean
    equal letter counts; equal counts give equal images, as the algebra
    is commutative.
    """
    algebra = WallAlgebra(arrangement)
    vectors = {gen: _generator_vector(gen) for gen in presentation.generators}
    if len(set(vectors.values())) != len(vectors):
        return False
    for relator in presentation.relators:
        split = _split_chain_relator(relator)
        if split is None:
            return False
        w1, w2 = ([vectors[sym] for sym in w] for w in split)
        for v in w1 + w2:
            algebra._check_key(v)
        if sorted(w1) != sorted(w2):
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
