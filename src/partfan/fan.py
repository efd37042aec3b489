"""Simplicial fans: construction, validation, stars and projected stars.

A cone of a fan is identified by the sorted tuple of its ray indices; the
empty tuple is the zero cone, which belongs to every fan.  Cone equality
across different fans (in particular between projected stars) is decided
through *canonical cones*: lexicographically sorted tuples of primitive
integer ray vectors in the ambient coordinates.
"""

from itertools import combinations, count

from . import cones as conelib
from .errors import (
    BadIndex,
    BadInput,
    DuplicateRay,
    NonSimplicialCone,
    NotAFace,
    UnknownCone,
)
from .rational import dot, matrix_rank, primitive_ray

ZERO_CONE = ()


class ValidationReport:
    """Outcome of the pairwise intersection check of Definition-style fans."""

    def __init__(self, violations):
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "valid": self.ok,
            "violations": [
                {
                    "cone_a": list(a),
                    "cone_b": list(b),
                    "intersection_rays": [list(r) for r in rays],
                }
                for a, b, rays in self.violations
            ],
        }


class Fan:
    """A finite simplicial fan given by primitive rays and maximal cones."""

    def __init__(self, dim, rays, max_cones, cones):
        self.dim = dim
        self.rays = rays
        self.max_cones = max_cones
        self.cones = cones
        # face -> star and dimension -> cones, each in the order of ``cones``
        stars = {c: [] for c in cones}
        by_dim = {}
        for tau in cones:
            by_dim.setdefault(len(tau), []).append(tau)
            for k in range(len(tau) + 1):
                for sigma in combinations(tau, k):
                    stars[sigma].append(tau)
        self._stars = {c: tuple(s) for c, s in stars.items()}
        self._by_dim = {d: tuple(cs) for d, cs in by_dim.items()}
        self._facet_cache = {}
        self._project_star_cache = {}
        self._project_star_inverse_cache = {}
        self._memo = {}  # see ``memo``

    def __contains__(self, cone):
        return tuple(cone) in self._stars

    def check_cone(self, cone):
        """The fan's own key for ``cone``: its ray indices as a sorted tuple.

        A float or bool index is refused like any cone not in the fan,
        although ``0.0 == 0`` and ``True == 1`` would find one.  So is
        anything that is not an iterable of hashable, comparable indices,
        such as ``5``, ``None`` or ``[[0]]``; its witness is the cone as
        given.
        """
        try:
            key = tuple(sorted(cone))
            known = key in self._stars
        except TypeError:
            raise UnknownCone("cone not in fan", witness=cone) from None
        if not known or any(type(i) is not int for i in key):
            raise UnknownCone("cone not in fan", witness=list(key))
        return key

    def cones_of_dim(self, d):
        return self._by_dim.get(d, ())

    def chambers(self):
        return self.cones_of_dim(self.dim)

    def walls(self):
        return self.cones_of_dim(self.dim - 1)

    def ray_vectors(self, cone):
        return tuple(self.rays[i] for i in cone)

    def star(self, cone):
        return self._stars[self.check_cone(cone)]

    def _star_chambers(self, cone):
        """The maximal cones of full dimension in star(cone).

        The underscore reads (this, ``_project_star_map``,
        ``_project_star_inverse`` and the ``_stars`` table) skip
        ``check_cone``: partfan calls them with sorted cones it took from
        the fan, and the public names check their input before calling
        them.
        """
        return tuple(c for c in self._stars[cone] if len(c) == self.dim)

    def _facets(self, cone):
        """{ray index i: facet functional h_i} of any cone, once per cone.

        h_i is ``conelib.simplicial_facets`` functional i: the primitive
        vector of span(cone) that is positive on ray i and zero on the
        cone's other rays.  For a chamber c and a wall w of c, the h_i with
        i in c - w is therefore the primitive normal of span(w) that points
        into c; ``_wall_normal`` reads it, and no other code derives a wall
        normal.  For a cone sigma + {i}, h_i is the projected ray i along
        sigma (``_project_star_map``).

        A maximal cone that no wall-crossing has reached is eliminated by
        ``simplicial_facets``; if it is a chamber, ``_cross_walls`` then
        derives every chamber of its wall-adjacency component from it, so a
        complete fan runs one elimination.  Any other cone rho has a parent
        tau = rho + {k} in the fan, the first in its star, and with
        n = h^tau_k,

            h^rho_i = primitive((n . n) h^tau_i - (h^tau_i . n) n).

        Proof.  n lies in span(tau) and vanishes on rho, so span(tau) is
        span(rho) plus the line of n, and the vector above, the projection
        of h^tau_i orthogonal to n scaled by n . n > 0, lies in span(rho).
        On a ray j of rho it is (n . n) h^tau_i . r_j, positive for j = i
        and zero otherwise, which defines h^rho_i up to a positive scale.
        """
        if cone not in self._facet_cache:
            parent = next((t for t in self._stars[cone] if len(t) == len(cone) + 1), None)
            if parent is None:
                self._facet_cache[cone] = dict(zip(cone, conelib.simplicial_facets(
                    self.ray_vectors(cone))))
                if len(cone) == self.dim:
                    self._cross_walls(cone)
            else:
                facets = self._facets(parent)
                (k,) = set(parent).difference(cone)
                n = facets[k]
                self._facet_cache[cone] = {
                    i: _combine(dot(n, n), facets[i], dot(facets[i], n), n) for i in cone}
        return self._facet_cache[cone]

    def _cross_walls(self, root):
        """Derive the facets of every chamber that walls join to ``root``.

        Breadth-first from the eliminated chamber ``root``: chamber c2 meets
        a known chamber c1 in the wall w = c1 - {k1} = c2 - {k2}, and with
        b = +/- h^c1_k1, the sign chosen so that beta = b . r_k2 > 0,

            h^c2_k2 = b,  h^c2_i = primitive(beta h^c1_i - (h^c1_i . r_k2) b)

        for i in w, the dual-basis pivot of the simplex method.  Proof.  Let
        e_i be the dual basis of c1 and a_i = e_i . r_k2 the coordinates of
        r_k2 in the rays of c1, so b = lambda e_k1 and beta = lambda a_k1.
        The dual basis of c2 is f_k2 = e_k1 / a_k1 and
        f_i = e_i - (a_i / a_k1) e_k1, which is 1 on r_i and zero on w - {i}
        and on r_k2.  So b = beta f_k2, primitive as h^c1_k1 is, and with
        h^c1_i = mu e_i, mu > 0, the vector above is beta mu f_i: both are
        positive multiples.  Nothing here assumes a valid fan.  beta = 0
        exactly when r_k2 lies in span(w), so c2 is dependent; it is left
        out, and eliminating it when it is asked for raises DependentBasis.
        """
        queue = [root]
        for c1 in queue:
            h1 = self._facet_cache[c1]
            for k1 in c1:
                wall = tuple(i for i in c1 if i != k1)
                for c2 in [c for c in self._star_chambers(wall) if c not in self._facet_cache]:
                    (k2,) = set(c2).difference(wall)
                    r = self.rays[k2]
                    beta = dot(h1[k1], r)
                    if beta:
                        b = h1[k1] if beta > 0 else tuple(-x for x in h1[k1])
                        self._facet_cache[c2] = {
                            i: b if i == k2 else _combine(abs(beta), h1[i], dot(h1[i], r), b)
                            for i in c2}
                        queue.append(c2)

    def _wall_normal(self, wall, chamber):
        """Primitive normal of span(wall) pointing into ``chamber``."""
        (i,) = set(chamber) - set(wall)
        return self._facets(chamber)[i]

    def projected_cone(self, base, cone):
        """Canonical form of the projection of ``cone`` along ``base``.

        ``base`` must be a face of ``cone``; the result is the sorted tuple
        of primitive projected generators (ambient coordinates), read off
        ``_project_star_map(base)``.  Raises NotAFace otherwise.
        """
        cone = self.check_cone(cone)
        base = self.check_cone(base)
        projected = self._project_star_map(base).get(cone)
        if projected is None:
            raise NotAFace("base is not a face of the cone",
                           witness=[list(base), list(cone)])
        return projected

    def project_star(self, cone):
        """The projected fan pi_sigma(star(sigma)) as a set of canonical cones."""
        return frozenset(self._project_star_map(self.check_cone(cone)).values())

    def _project_star_map(self, cone):
        """The bijection star(cone) -> canonical projected cones, for a cone
        read off this fan's own tables; callers must not modify the dict.

        The one memo of projected cones: tau in star(cone) maps to the
        sorted set of projected rays i of tau outside ``cone``, and
        projected ray i is ``_facets(cone + {i})[i]``, derived once per cone
        of the fan however many cones project it.  ``_facets`` derives it
        by the face projection from a parent, or, for a chamber, by a
        wall-crossing pivot, so a complete fan runs one elimination in all.

        Proof.  Let rho = sigma + {i} be a cone, G its rays, and P the
        orthogonal projection onto span(sigma)^perp.  Row i of
        (G G^T)^{-1} G lies in span(rho), vanishes on sigma and is 1 on r_i,
        so it spans the line span(rho) & span(sigma)^perp, which has
        dimension |rho| - |sigma| = 1 as rho is simplicial.  P r_i is
        r_i minus a vector of span(sigma), so it lies on the same line, and
        r_i . P r_i = |P r_i|^2 > 0, as r_i is not in span(sigma).  So both
        are positive on r_i, they point the same way, and their primitive
        vectors are equal: the facet functional h_i is the primitive
        projection of r_i.
        """
        if cone not in self._project_star_cache:
            star = self._stars[cone]
            base = set(cone)
            ray = {i: h for rho in star if len(rho) == len(cone) + 1
                   for i, h in self._facets(rho).items() if i not in base}
            self._project_star_cache[cone] = {
                tau: tuple(sorted({ray[i] for i in tau if i not in base}))
                for tau in star}
        return self._project_star_cache[cone]

    def _project_star_inverse(self, cone):
        """The inverse of ``_project_star_map(cone)``, projected cone -> tau,
        computed once per cone.

        It is the inverse only where projection is injective on the star,
        which ``partition.potential_identifications`` checks before any
        caller reads it (its precondition); every reader (the star
        matchings of ``partition``, ``category.build_category`` and the
        witness of ``poset.check_nondegenerate``) calls that first.
        """
        if cone not in self._project_star_inverse_cache:
            self._project_star_inverse_cache[cone] = {
                v: k for k, v in self._project_star_map(cone).items()}
        return self._project_star_inverse_cache[cone]

    def to_json(self):
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }


def _combine(s, h, t, v):
    """The primitive ray of s h - t v, the one exact update of ``Fan._facets``."""
    return primitive_ray([s * x - t * y for x, y in zip(h, v)])


def memo(holder, key, compute, *args):
    """``holder._memo[key]``, storing ``compute(*args)`` there on the first read.

    The holder is a ``Fan`` or a ``poset.FanPoset``, whose one ``_memo``
    dict keeps every result that is computed once per object and read many
    times.  Each module keys its own results by a tuple whose first entry
    is its public function, followed by what the result depends on beyond
    the holder, so two modules never share a key.  A ``compute`` that
    raises stores nothing: the next read computes again and raises again.
    Hot callers pass a module function and its arguments, not a lambda,
    so a read builds no closure.
    """
    try:
        return holder._memo[key]
    except KeyError:
        value = holder._memo[key] = compute(*args)
        return value


def check_dim(dim):
    """Refuse an ambient dimension that is not an integer >= 0 (a bool is
    not one), with BadInput whose witness is the value."""
    if type(dim) is not int or dim < 0:
        raise BadInput("dimension must be an integer >= 0", witness=dim)


def build_fan(dim, rays, max_cones):
    """Construct a simplicial fan, normalizing rays and deriving all faces.

    A ``dim`` that is not an integer >= 0 raises BadInput (``check_dim``).
    """
    check_dim(dim)
    prim = []
    for r in rays:
        if len(r) != dim:
            raise BadIndex("ray length does not match ambient dimension", witness=list(r))
        prim.append(primitive_ray(r))
    normalized = []
    for mc in max_cones:
        if any(type(i) is not int for i in mc):
            raise BadIndex("ray index is not an integer", witness=list(mc))
        idxs = tuple(sorted(set(mc)))
        if len(idxs) != len(tuple(mc)):
            raise BadIndex("repeated ray index in a maximal cone", witness=list(mc))
        for i in idxs:
            if not (0 <= i < len(prim)):
                raise BadIndex("ray index out of range", witness=list(mc))
        vectors = [prim[i] for i in idxs]
        if matrix_rank(vectors) != len(vectors):
            raise NonSimplicialCone("dependent generators in a maximal cone",
                                    witness=list(idxs))
        normalized.append(idxs)
    seen = {}
    for i, r in enumerate(prim):
        if r in seen:
            raise DuplicateRay("rays coincide after primitive normalization",
                               witness=[seen[r], i])
        seen[r] = i
    return _fan_of_cones(dim, prim, normalized)


def _fan_of_cones(dim, rays, max_cones):
    """The fan of distinct primitive ``rays`` whose ``max_cones`` are sorted
    tuples of independent ray indices, with every face derived; nothing is
    checked."""
    faces = {ZERO_CONE}
    for mc in max_cones:
        for k in range(1, len(mc) + 1):
            faces.update(combinations(mc, k))
    cones = tuple(sorted(faces, key=lambda c: (len(c), c)))
    return Fan(dim, tuple(rays), tuple(sorted(set(max_cones))), cones)


def validate_fan(fan):
    """Check that every pairwise intersection of maximal cones is a common face.

    For simplicial cones with distinct rays this is equivalent to
    cone(a) & cone(b) == cone(S), S the rays that a and b share.  A fan
    that ``is_finite_complete`` certifies is valid (its docstring proves
    it), so its report is empty and no pair is tested.  Otherwise most
    pairs are proved valid by facet separation, and the others are decided
    by exact extreme-ray extraction on the combined H-representations.

    Separation certificate.  Facet functional h_i of a maximal cone a (from
    ``Fan._facets``) is positive on ray i and zero on the other rays of a.
    Keep ray sets A and B with
    S <= A <= a, S <= B <= b and the invariant
    cone(a) & cone(b) <= cone(A) & cone(B); it holds for A = a, B = b.
    If i is in A - S and h_i <= 0 on every ray of B, replace A by A - {i}
    and B by {r in B : h_i . r = 0}.  The invariant survives: a point x in
    both cones has h_i . x >= 0 as a point of cone(A) and h_i . x <= 0 as a
    point of cone(B), so h_i . x = 0.  Then x has no ray-i coefficient in
    cone(A), and no coefficient on a ray r of B with h_i . r < 0, so x lies
    in cone(A - {i}) & cone({r in B : h_i . r = 0}).  S stays in both sets,
    since h_i vanishes on every ray of a other than i.  The same step runs
    with a and b swapped.  Once A == S or B == S, cone(a) & cone(b) lies in
    cone(S), which lies in both cones, so the intersection is cone(S) and
    the pair is no violation; the exact intersection would have returned
    no lineality and exactly the rays of S, so the report is unchanged.

    Fallback.  A pair where no functional applies before A or B reaches S
    is intersected exactly by ``intersect_generated_cones``, which is then
    the only decider and the only source of the violation's witness rays.
    Valid pairs can land here too, e.g. cone((1,0,1), (3,-3,1),
    (-2,-1,-1)) and cone((-1,0,3), (1,1,-1), (1,1,-3)), which share only
    the origin but are not separated by a facet of either.
    """
    return ValidationReport(() if is_finite_complete(fan) else _pairwise_violations(fan))


def _pairwise_violations(fan):
    """The violations of every pair of maximal cones, separated or intersected.

    The intersection has no lineality: a maximal cone is simplicial, so a
    point of it has one coefficient vector, and x and -x both in it force
    both vectors to be >= 0 and negatives of each other, so x = 0.  Each
    cone is pointed, and so is the intersection, which is then decided by
    its extreme rays alone.
    """
    violations = []
    for a, b in combinations(fan.max_cones, 2):
        shared = set(a) & set(b)
        if _separated(fan, a, b, shared):
            continue
        _, rays = conelib.intersect_generated_cones(
            fan.ray_vectors(a), fan.ray_vectors(b), fan.dim
        )
        expected = tuple(sorted(fan.rays[i] for i in shared))
        if tuple(sorted(rays)) != expected:
            violations.append((a, b, rays))
    return violations


def _separated(fan, a, b, shared):
    """Whether facet functionals prove cone(a) & cone(b) == cone(shared).

    The separation certificate of ``validate_fan``, on the rays of A and B
    outside S (every functional used vanishes on S).
    """
    extra = {a: set(a) - shared, b: set(b) - shared}
    while extra[a] and extra[b]:
        progress = False
        for cone, other in ((a, b), (b, a)):
            for i in sorted(extra[cone]):
                values = [(r, dot(fan._facets(cone)[i], fan.rays[r]))
                          for r in extra[other]]
                if all(v <= 0 for _, v in values):
                    extra[cone].discard(i)
                    extra[other] = {r for r, v in values if v == 0}
                    progress = True
        if not progress:
            return False
    return True


def is_finite_complete(fan):
    """Whether the fan is a valid fan whose support is the whole space.

    Decided once per fan by a certificate on the walls alone (De Loera,
    Rambau and Santos, *Triangulations*, section 4.5: a pure simplicial
    pseudomanifold with one point covered once is a triangulation).  With
    n the dimension, it holds iff

    (a) every maximal cone is full-dimensional, a chamber;
    (b) every wall lies in exactly two chambers, and the ray each chamber
        has off the wall lies strictly on its own side of the wall's
        hyperplane;
    (c) the moment-curve point x = (1, t, t^2, ..., t^(n-1)), for the least
        integer t >= 1 that puts it off every facet hyperplane of every
        chamber, lies in exactly one chamber.  Such a t exists: for a facet
        functional h, h . x is a nonzero polynomial in t of degree below
        n, so each h rules out fewer than n values of t.

    A valid complete fan passes.  A lower-dimensional maximal cone would
    meet some chamber in a relative-interior point, so be a face of it;
    near a relative-interior point of a wall, each side lies in exactly
    one chamber, which has the wall as a face; and a point off the facet
    hyperplanes lies in the interior of a chamber, so in no other.

    Conversely, let n = 1.  The only wall is the zero cone, so by (b) the
    fan has the two chambers cone(1) and cone(-1), the whole line.  Let
    n >= 2, and for y off every facet hyperplane let N(y) count the
    chambers that contain y.  Join two such points by a polygonal path
    that avoids the cones of dimension n - 2 or less and the intersections
    of two distinct facet hyperplanes (they lie in finitely many subspaces
    of codimension at least 2, which do not disconnect R^n), and crosses
    the hyperplanes at finitely many points.  At a crossing point p, only a
    chamber with p on its boundary can gain or lose the path.  Such a
    chamber has exactly one facet through p: a wall with p in its relative
    interior, inside the one hyperplane through p.  By (b) each such wall
    has one chamber on each side, so each loses one chamber of the count
    and gains the other: N does not change.  By (c), N = 1 wherever it is
    defined.  The union of the chambers is closed and contains that dense
    set, so it is R^n: the fan is complete.

    The same count near a point p proves validity.  Let G be a cone with p
    in its relative interior, and N_G(y), for y near p, count the chambers
    with face G that contain y.  A facet through p of such a chamber
    contains G, so it is a wall whose other chamber also has face G, and
    the crossing argument inside a small ball around p makes N_G constant
    there; it is at least 1, as every cone is a face of a chamber by (a).
    A chamber that contains p has exactly one face with p in its relative
    interior, and a chamber that misses p misses a small ball around it,
    so N is the sum of the N_G.  N = 1 leaves one G: every chamber through
    p has the same face through p.  So for chambers a and b, each point of
    a & b lies in a face of both, spanned by rays they share: a & b is
    cone(S), S their shared rays, and the fan is valid.

    Only maximal cones and their faces enter, so a ray that no maximal
    cone uses changes nothing: it is no cone of the fan, and validity
    (``validate_fan`` pairs maximal cones) does not see it either.
    """
    return memo(fan, (is_finite_complete,), _ridge_certificate, fan)


def _ridge_certificate(fan):
    """Conditions (a), (b) and (c) of ``is_finite_complete``."""
    if any(len(c) != fan.dim for c in fan.max_cones):
        return False
    for wall in fan.walls():
        incident = fan._star_chambers(wall)
        if len(incident) != 2:
            return False
        (j,) = set(incident[1]) - set(wall)
        if dot(fan._wall_normal(wall, incident[0]), fan.rays[j]) >= 0:
            return False
    facets = [h for c in fan.max_cones for h in fan._facets(c).values()]
    x = next(p for p in (tuple(t ** k for k in range(fan.dim)) for t in count(1))
             if all(dot(h, p) for h in facets))
    return sum(all(dot(h, x) > 0 for h in fan._facets(c).values())
               for c in fan.max_cones) == 1


def fan_from_json(data):
    return build_fan(data["dim"], [tuple(r) for r in data["rays"]],
                     [tuple(c) for c in data["max_cones"]])

