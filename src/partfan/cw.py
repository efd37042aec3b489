"""CW structure of the classifying space of a partitioned fan.

One cell per partition block, of dimension n minus the cone dimension.
The 1-skeleton is a multigraph on the chamber blocks with one edge per
codimension-1 block; each codimension-2 block contributes a 2-cell whose
attaching word is read off by walking once around the projected star of a
representative, which is a complete fan in a plane, in exact angular
order.  The fundamental group then comes from a spanning tree in the
usual way.  Cells of dimension three and up are listed with their cube
decompositions but carry no attaching words; the fundamental group only
needs the 2-skeleton.
"""

from functools import cmp_to_key

from .errors import NotAdmissible, NotComplete, PreconditionUnmet
from .fan import is_finite_complete
from .groups import Presentation, abelianization, free_reduce, wall_generator
from .partition import is_admissible
from .rational import dot, int_kernel_basis


class CWComplex:
    def __init__(self, fan, partition, cells_by_dim, vertices, edges, two_cells):
        self.fan = fan
        self.partition = partition
        self.cells_by_dim = cells_by_dim  # dim -> tuple of block ids
        self.vertices = vertices          # chamber block ids (0-cells)
        self.edges = edges                # tuple of Edge
        self.two_cells = two_cells        # tuple of (block id, word over edges)

    def cell_counts(self):
        top = max(self.cells_by_dim) if self.cells_by_dim else -1
        return tuple(len(self.cells_by_dim.get(d, ())) for d in range(top + 1))

    def cube_decomposition(self, block_id):
        """Each cell is a union of cubes, one per chamber over a representative.

        Cells of dimension three and up carry no attaching word, only this
        decomposition; the fundamental group never needs them.
        """
        rep = self.partition.blocks[block_id][0]
        return tuple((rep, tau) for tau in self.fan._star_chambers(rep))

    def to_json(self):
        return {
            "cells": {str(d): [ [list(c) for c in self.partition.blocks[b]]
                                for b in blocks]
                      for d, blocks in sorted(self.cells_by_dim.items())},
            "one_skeleton": [
                {"edge": e.index, "block": e.block, "tail": e.tail, "head": e.head}
                for e in self.edges
            ],
            "two_cells": [
                {"block": b, "word": [[e, s] for e, s in word]}
                for b, word in self.two_cells
            ],
            "cube_decompositions": {
                str(b): [[list(s), list(t)] for s, t in self.cube_decomposition(b)]
                for blocks in self.cells_by_dim.values() for b in blocks
            },
        }


class Edge:
    """Oriented 1-cell: one codimension-1 block with endpoint 0-cells.

    Oriented from the lexicographically smaller endpoint block; loops fall
    back to the order of the two morphism signatures (the projections of
    the two sides of any representative wall).  Chamber blocks all have
    least members of one length, so their ids, which order blocks by least
    member, order them as the blocks themselves compare.
    """

    __slots__ = ("index", "block", "tail", "head", "tail_signature")

    def __init__(self, index, block, tail, head, tail_signature):
        self.index = index
        self.block = block
        self.tail = tail
        self.head = head
        self.tail_signature = tail_signature


def build_cw(fan, partition):
    """Assemble the cell structure; needs a finite complete fan."""
    if not is_finite_complete(fan):
        raise NotComplete("classifying-space cells need a complete fan",
                          witness=fan.to_json())
    ok, witness = is_admissible(fan, partition)
    if not ok:
        raise NotAdmissible("partition is not admissible",
                            witness=[list(c) for c in witness])
    n = fan.dim
    cells_by_dim = {}
    for b, block in enumerate(partition.blocks):
        d = n - len(block[0])
        cells_by_dim.setdefault(d, []).append(b)
    cells_by_dim = {d: tuple(v) for d, v in cells_by_dim.items()}
    vertices = cells_by_dim.get(0, ())

    edges = []
    for idx, b in enumerate(cells_by_dim.get(1, ())):
        wall = partition.blocks[b][0]
        side_a, side_b = fan._star_chambers(wall)
        project = fan._project_star_map(wall)
        sig_a, sig_b = project[side_a], project[side_b]
        block_a = partition.block_of[side_a]
        block_b = partition.block_of[side_b]
        if (block_a, sig_a) <= (block_b, sig_b):
            edges.append(Edge(idx, b, block_a, block_b, sig_a))
        else:
            edges.append(Edge(idx, b, block_b, block_a, sig_b))
    edge_of_block = {e.block: e for e in edges}

    two_cells = []
    for b in cells_by_dim.get(2, ()):
        rep = partition.blocks[b][0]
        word = _attaching_word(fan, partition, edge_of_block, rep)
        two_cells.append((b, tuple(word)))
    return CWComplex(fan, partition, cells_by_dim, vertices, tuple(edges),
                     tuple(two_cells))


def _attaching_word(fan, partition, edge_of_block, sigma):
    """Cyclic crossing word around a codimension-2 cone.

    The projected star of sigma is a complete fan in the plane
    span(sigma)^perp; its rays (projected walls) are sorted by exact
    angular order in an orthogonal integer frame, and each consecutive
    crossing contributes the oriented 1-cell of the wall's block.

    The frame is b1 and e2 = (b1.b1) b2 - (b2.b1) b1, for the primitive
    kernel basis b1, b2 of ``int_kernel_basis``, and a ray v has the
    coordinates (v.b1, v.e2).  This is the order of the orthogonal rational
    frame u1, u2 that Gram-Schmidt makes from the Fraction kernel basis,
    as ``subspace_coordinates`` in ``tests/fraction_oracles.py`` does.  That
    basis is b1 / c1, b2 / c2, each divided by its entry at its free
    column, which is positive.  So u1 = b1 / c1 and u2 = e2 / (c2 b1.b1),
    and the rational coordinates (v.u1 / u1.u1, v.u2 / u2.u2) are the
    integer ones, each axis scaled by a positive constant.  Such scaling
    keeps ``_half`` (the signs of both coordinates) and the sign of the
    cross product, so the angular order, the start of the cyclic word and
    every word are the same.

    The chamber crossed into each wall is read off the two walls.  On a
    complete simplicial fan the walls through sigma are sigma + {a}, and
    two walls consecutive in angular order bound the chamber
    sigma + {a, b}, the union of the two.
    """
    b1, b2 = int_kernel_basis(fan.ray_vectors(sigma), fan.dim)
    n11, n21 = dot(b1, b1), dot(b2, b1)
    e2 = tuple(n11 * y - n21 * x for x, y in zip(b1, b2))
    project = fan._project_star_map(sigma)
    walls = [c for c in fan._stars[sigma] if len(c) == len(sigma) + 1]
    proj = {w: project[w][0] for w in walls}
    coords = {w: (dot(proj[w], b1), dot(proj[w], e2)) for w in walls}
    ordered = sorted(walls, key=cmp_to_key(lambda a, b: _angular_cmp(coords[a],
                                                                     coords[b])))
    word = []
    for w_prev, w_cur in zip(ordered[-1:] + ordered[:-1], ordered):
        before = tuple(sorted(set(w_prev) | set(w_cur)))
        edge = edge_of_block[partition.block_of[w_cur]]
        sign = 1 if fan._project_star_map(w_cur)[before] == edge.tail_signature else -1
        word.append((edge.index, sign))
    return word


def _angular_cmp(u, v):
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    return 0


def _half(u):
    # 0 for angle in [0, pi), 1 for [pi, 2 pi); within a half the cross
    # product sign is a total order, so quadrants are not needed
    if u[1] > 0 or (u[1] == 0 and u[0] > 0):
        return 0
    return 1


def euler_characteristic(complex_):
    counts = complex_.cell_counts()
    return sum((-1) ** d * n for d, n in enumerate(counts))


def pi1_presentation(complex_):
    """Spanning-tree presentation of the fundamental group.

    Breadth-first tree from the lexicographically least 0-cell; one
    generator per non-tree edge; one relator per 2-cell with tree letters
    deleted.  Generators reuse the picture-group symbols of their blocks.

    The tree spans every 0-cell.  ``build_cw`` accepts only a finite
    complete fan, so there is a chamber.  A generic path between two
    chambers crosses walls at relative-interior points only (the crossing
    argument of ``is_finite_complete``; for n <= 1 the fan is the origin
    or the two half-lines through it), so chambers are joined through
    walls.  By admissibility, which ``build_cw`` checked too, the edge of
    a wall's block joins the blocks of that wall's two chambers.  So the
    1-skeleton is connected.
    """
    fan = complex_.fan
    partition = complex_.partition
    adjacency = {v: [] for v in complex_.vertices}
    for e in complex_.edges:
        adjacency[e.tail].append((e.head, e.index))
        adjacency[e.head].append((e.tail, e.index))
    root = min(complex_.vertices)
    tree_edges = set()
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for u, eidx in sorted(adjacency[v]):
                if u not in seen:
                    seen.add(u)
                    tree_edges.add(eidx)
                    nxt.append(u)
        frontier = nxt
    symbols = {}
    generators = []
    for e in complex_.edges:
        if e.index in tree_edges:
            continue
        wall = partition.blocks[e.block][0]
        sym = wall_generator(fan, partition, wall)
        symbols[e.index] = sym
        generators.append(sym)
    generators.sort()
    relators = []
    for _, word in complex_.two_cells:
        letters = [(symbols[e], s) for e, s in word if e in symbols]
        relators.append(free_reduce(tuple(letters)))
    relators = [w for w in relators if w]
    return Presentation(generators, relators)


def compare_pi1_picture(complex_, picture_presentation):
    """Separating-invariant comparison of pi_1 and the picture group.

    Requires all maximal cones identified (a unique 0-cell).  Reports
    whether generator sets and abelianizations agree; no stronger
    isomorphism claim is made.
    """
    if len(complex_.vertices) != 1:
        raise PreconditionUnmet("all maximal cones must be identified",
                                witness=len(complex_.vertices))
    pi1 = pi1_presentation(complex_)
    ab_pi1 = abelianization(pi1)
    ab_pic = abelianization(picture_presentation)
    return {
        "pi1_generators": list(pi1.generators),
        "picture_generators": list(picture_presentation.generators),
        "generators_equal": sorted(pi1.generators)
        == sorted(picture_presentation.generators),
        "pi1_abelianization": {"free_rank": ab_pi1[0], "torsion": list(ab_pi1[1])},
        "picture_abelianization": {"free_rank": ab_pic[0], "torsion": list(ab_pic[1])},
        "abelianizations_equal": ab_pi1 == ab_pic,
    }
