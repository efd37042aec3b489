"""Simplicial fans: construction, validation, stars and projected stars.

A cone of a fan is identified by the sorted tuple of its ray indices; the
empty tuple is the zero cone, which belongs to every fan.  Cone equality
across different fans (in particular between projected stars) is decided
through *canonical cones*: lexicographically sorted tuples of primitive
integer ray vectors in the ambient coordinates.
"""

from itertools import combinations

from . import cones as conelib
from .errors import (
    BadIndex,
    DuplicateRay,
    MixedBlock,
    NonSimplicialCone,
    NotComplete,
    UnknownCone,
)
from .rational import (
    complement_projection,
    dot,
    int_complement_projection,
    matrix_rank,
    mat_vec,
    primitive_ray,
    span_key,
)

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
        self._validation = None
        self._ident = None
        self._span_keys = {}
        self._scaled_projection_cache = {}
        self._projected_ray_cache = {}
        self._projected_cone_cache = {}
        self._project_star_cache = {}

    def __contains__(self, cone):
        return tuple(cone) in self._stars

    def check_cone(self, cone):
        """The fan's own key for ``cone``: its ray indices as a sorted tuple.

        A float or bool index is refused like any cone not in the fan,
        although ``0.0 == 0`` and ``True == 1`` would find one.
        """
        cone = tuple(sorted(cone))
        if cone not in self._stars or any(type(i) is not int for i in cone):
            raise UnknownCone("cone not in fan", witness=list(cone))
        return cone

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

    def star_chambers(self, cone):
        """The maximal cones of full dimension in star(cone)."""
        return self._star_chambers(self.check_cone(cone))

    def _star_chambers(self, cone):
        """``star_chambers`` of a cone read off this fan's own tables.

        The underscore reads (this, ``_project_star_map``,
        ``_projected_cone`` and the ``_stars`` table) skip ``check_cone``:
        partfan calls them with sorted cones it took from the fan, and the
        public names check their input before calling them.
        """
        return tuple(c for c in self._stars[cone] if len(c) == self.dim)

    def projection(self, cone):
        """Matrix of the orthogonal projection onto span(cone)^perp."""
        return complement_projection(self.ray_vectors(self.check_cone(cone)), self.dim)

    def _span_key(self, cone):
        """``span_key`` of the cone's rays, computed once per cone.

        The one owner of a cone's span: the E-class key and the projection
        caches below both read it.
        """
        if cone not in self._span_keys:
            self._span_keys[cone] = span_key(self.ray_vectors(cone))
        return self._span_keys[cone]

    def _scaled_projection(self, span):
        """A positive multiple of the projection onto span^perp, as integers.

        ``span`` is a ``span_key``; its rows are a basis of the span, so
        ``int_complement_projection`` of them is L * P for some L > 0, with
        P the orthogonal projection that ``projection`` returns for every
        cone of that span.  Another basis of the same span changes only L,
        and L * P maps every vector to a positive multiple of its exact
        projection, so primitive projected rays are the same.  Computed
        once per span, and only for a span that projects some ray: a
        chamber projects none.  The zero span gives the identity.
        """
        if span not in self._scaled_projection_cache:
            self._scaled_projection_cache[span] = int_complement_projection(
                span, self.dim)
        return self._scaled_projection_cache[span]

    def _projected_ray(self, span, i):
        """Primitive projection of ray i onto span^perp, once per (span, ray)."""
        key = (span, i)
        if key not in self._projected_ray_cache:
            self._projected_ray_cache[key] = primitive_ray(
                mat_vec(self._scaled_projection(span), self.rays[i]))
        return self._projected_ray_cache[key]

    def projected_cone(self, base, cone):
        """Canonical form of the projection of ``cone`` along ``base``.

        ``base`` must be a face of ``cone``; the result is the sorted tuple
        of primitive projected generators (ambient coordinates).  Computed
        once per (base, cone).
        """
        return self._projected_cone(self.check_cone(base), tuple(cone))

    def _projected_cone(self, base, cone):
        """``projected_cone`` of two cones read off this fan's own tables."""
        key = (base, cone)
        if key not in self._projected_cone_cache:
            span = self._span_key(base)
            base_set = set(base)
            self._projected_cone_cache[key] = tuple(sorted({
                self._projected_ray(span, i) for i in cone if i not in base_set}))
        return self._projected_cone_cache[key]

    def project_star(self, cone):
        """The projected fan pi_sigma(star(sigma)) as a set of canonical cones."""
        return frozenset(self.project_star_map(cone).values())

    def project_star_map(self, cone):
        """Bijection star(sigma) -> canonical projected cones.

        Computed once per cone; callers must not modify the returned dict.
        """
        return self._project_star_map(self.check_cone(cone))

    def _project_star_map(self, cone):
        """``project_star_map`` of a cone read off this fan's own tables."""
        if cone not in self._project_star_cache:
            self._project_star_cache[cone] = {
                tau: self._projected_cone(cone, tau) for tau in self._stars[cone]}
        return self._project_star_cache[cone]

    def adjacent_chambers(self, wall):
        wall = self.check_cone(wall)
        if len(wall) != self.dim - 1:
            raise UnknownCone("not a codimension-1 cone", witness=list(wall))
        return self._star_chambers(wall)

    def to_json(self):
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }


def build_fan(dim, rays, max_cones):
    """Construct a simplicial fan, normalizing rays and deriving all faces."""
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
    faces = {ZERO_CONE}
    for mc in normalized:
        for k in range(1, len(mc) + 1):
            faces.update(combinations(mc, k))
    cones = tuple(sorted(faces, key=lambda c: (len(c), c)))
    return Fan(dim, tuple(prim), tuple(sorted(set(normalized))), cones)


def validate_fan(fan):
    """Check that every pairwise intersection of maximal cones is a common face.

    For simplicial cones with distinct rays this is equivalent to
    cone(a) & cone(b) == cone(S), S the rays that a and b share.  Most
    pairs are proved valid by facet separation; the others are decided by
    exact extreme-ray extraction on the combined H-representations.  The
    report is computed once per fan.

    Separation certificate.  Facet functional h_i of a maximal cone a (from
    ``simplicial_halfspaces``, computed once per cone) is positive on ray i
    and zero on the other rays of a.  Keep ray sets A and B with
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
    In an arrangement fan every pair is proved this way: a wall of
    chamber a separates it from any other chamber b.

    Fallback.  A pair where no functional applies before A or B reaches S
    is intersected exactly by ``intersect_generated_cones``, which is then
    the only decider and the only source of the violation's witness rays.
    Valid pairs can land here too, e.g. cone((1,0,1), (3,-3,1),
    (-2,-1,-1)) and cone((-1,0,3), (1,1,-1), (1,1,-3)), which share only
    the origin but are not separated by a facet of either.
    """
    if fan._validation is None:
        fan._validation = _validation_report(fan)
    return fan._validation


def _validation_report(fan):
    facets = {c: dict(zip(c, conelib.simplicial_halfspaces(fan.ray_vectors(c),
                                                           fan.dim)[1]))
              for c in fan.max_cones}
    violations = []
    for a, b in combinations(fan.max_cones, 2):
        shared = set(a) & set(b)
        if _separated(fan, facets, a, b, shared):
            continue
        lin, rays = conelib.intersect_generated_cones(
            fan.ray_vectors(a), fan.ray_vectors(b), fan.dim
        )
        if lin:
            violations.append((a, b, tuple(lin) + tuple(rays)))
            continue
        expected = tuple(sorted(fan.rays[i] for i in shared))
        if tuple(sorted(rays)) != expected:
            violations.append((a, b, rays))
    return ValidationReport(violations)


def _separated(fan, facets, a, b, shared):
    """Whether facet functionals prove cone(a) & cone(b) == cone(shared).

    The separation certificate of ``validate_fan``, on the rays of A and B
    outside S (every functional used vanishes on S); ``facets`` maps each
    maximal cone to {ray index: facet functional}.
    """
    extra = {a: set(a) - shared, b: set(b) - shared}
    while extra[a] and extra[b]:
        progress = False
        for cone, other in ((a, b), (b, a)):
            for i in sorted(extra[cone]):
                values = [(r, dot(facets[cone][i], fan.rays[r])) for r in extra[other]]
                if all(v <= 0 for _, v in values):
                    extra[cone].discard(i)
                    extra[other] = {r for r, v in values if v == 0}
                    progress = True
        if not progress:
            return False
    return True


def is_finite_complete(fan):
    """Whether the fan is a valid fan whose support is the whole space.

    True iff all maximal cones are full-dimensional, every codimension-1
    cone lies in exactly two maximal cones, the wall-crossing graph is
    connected, and validate_fan finds no violation.  In a valid fan the
    ridge condition leaves no boundary wall, so the support is the whole
    space; without validity a cycle of chambers could wind twice around a
    codimension-2 cone.  True therefore implies that the fan is both valid
    and complete.  Validity is checked last, as it is the costly part.
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
    return len(seen) == len(fan.max_cones) and validate_fan(fan).ok


class LinkComplex:
    """Abstract simplicial complex S([sigma]) on the next-dimension star cones."""

    def __init__(self, vertices, simplices):
        self.vertices = vertices
        self.simplices = simplices  # tuples of vertex indices, downward closed

    def facets(self):
        maximal = []
        sset = set(self.simplices)
        for s in self.simplices:
            if not any(set(s) < set(t) for t in sset if len(t) == len(s) + 1):
                maximal.append(s)
        return tuple(maximal)

    def dimension(self):
        return max((len(s) - 1 for s in self.simplices), default=-1)

    def is_pure(self):
        facets = self.facets()
        return len({len(f) for f in facets}) <= 1

    def ridge_degrees(self):
        """Map from each codim-1 face of a facet to its facet count."""
        facets = self.facets()
        degrees = {}
        for f in facets:
            for ridge in combinations(f, len(f) - 1):
                degrees[ridge] = degrees.get(ridge, 0) + 1
        return degrees

    def to_json(self):
        return {
            "vertices": [list(v) for v in self.vertices],
            "simplices": [list(s) for s in self.simplices],
        }


def link_complex(fan, block):
    """The sphere complex of a block of cones sharing one projected star.

    Vertices are the cones of star(sigma) one dimension above a
    representative sigma; a set of vertices spans a simplex iff the cone of
    their projections is again a cone of the projected star.

    So each tau in star(sigma) other than sigma is the simplex
    {sigma + {i} : i in tau - sigma}, and these are all the simplices.
    Proof: the projection pi along span(sigma) is injective on the rays of
    star(sigma) outside sigma.  Let i != j be two of them with
    pi(r_i) = c pi(r_j), c > 0.  Then r_i = c r_j + sum_k b_k r_k over k in
    sigma, so x = r_i + sum_k a_k r_k, with every a_k > |b_k|, lies in the
    relative interiors of both cone(sigma + {i}) and cone(sigma + {j}).  On a
    valid fan (and a finite complete fan is valid) their intersection is a
    common face, which then contains a relative interior point of each and
    so is both cones: i == j, a contradiction.  Hence the projections of a
    vertex set S generate pi(tau) iff S is {sigma + {i} : i in tau - sigma},
    and every such sigma + {i} is a face of tau, so a vertex.  Simplices are
    listed by size, then by their sorted vertex indices.
    """
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
    index = {v: n for n, v in enumerate(vertices)}
    simplices = sorted(
        (tuple(sorted(index[tuple(sorted(rep + (i,)))] for i in tau if i not in rep))
         for tau in fan._stars[rep] if tau != rep),
        key=lambda s: (len(s), s))
    return LinkComplex(vertices, tuple(simplices))


def fan_from_json(data):
    return build_fan(data["dim"], [tuple(r) for r in data["rays"]],
                     [tuple(c) for c in data["max_cones"]])


def canonical_fan(fan):
    """Re-index with rays in lexicographic order; canonical output form."""
    order = sorted(range(len(fan.rays)), key=lambda i: fan.rays[i])
    relabel = {old: new for new, old in enumerate(order)}
    rays = [fan.rays[i] for i in order]
    max_cones = sorted(tuple(sorted(relabel[i] for i in c)) for c in fan.max_cones)
    return build_fan(fan.dim, rays, max_cones)

