"""Seeded inputs for the benchmark workloads.

Everything here is plain Python data (integer tuples, JSON envelopes) made
without importing partfan, so partfan only ever sees generated inputs.
The same seed always gives the same inputs.
"""

import json
import random
from math import gcd

# Rank-3 reflection arrangements, normals written inline.
A3_NORMALS = ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1))
BRAUER_NORMALS = ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
B3_NORMALS = ((1, 0, 0), (0, 1, 0), (0, 0, 1)) + A3_NORMALS
ARRANGEMENTS = (("A3", A3_NORMALS), ("brauer", BRAUER_NORMALS), ("B3", B3_NORMALS))

BOX = 4               # ray coordinates lie in [-BOX, BOX]


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def half(v):
    """0 for angles in [0, pi), 1 for [pi, 2 pi)."""
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def angle_sorted(rays):
    """Counterclockwise order from the positive x-axis, decided exactly."""
    def before(a, b):
        ha, hb = half(a), half(b)
        return ha < hb if ha != hb else cross(a, b) > 0

    out = []
    for r in rays:
        i = 0
        while i < len(out) and before(out[i], r):
            i += 1
        out.insert(i, r)
    return out


def _primitive_directions():
    return [(x, y) for x in range(-BOX, BOX + 1) for y in range(-BOX, BOX + 1)
            if (x, y) != (0, 0) and gcd(x, y) == 1]


def planar_fan(rng, n, symmetric):
    """n rays in counterclockwise order with every consecutive cross product
    positive, so the consecutive pairs form a complete valid fan.  A
    symmetric fan is n/2 lines; any other fan has no two opposite rays."""
    pool = _primitive_directions()
    half_plane = [v for v in pool if half(v) == 0]
    while True:
        if symmetric:
            picks = rng.sample(half_plane, n // 2)
            rays = picks + [(-x, -y) for x, y in picks]
        else:
            rays = rng.sample(pool, n)
            if any((-x, -y) in rays for x, y in rays):
                continue
        rays = angle_sorted(rays)
        if all(cross(rays[i], rays[(i + 1) % n]) > 0 for i in range(n)):
            return tuple(rays)


def chambers_of(rays):
    n = len(rays)
    return tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n))


def functional_candidates(rng, rays):
    """Integer functionals parallel to no ray (so no wall normal is
    orthogonal to them), in seeded order."""
    out = [(x, y) for x in range(-5, 6) for y in range(-5, 6)
           if (x, y) != (0, 0) and all(cross((x, y), r) != 0 for r in rays)]
    rng.shuffle(out)
    return out


# (ray count, centrally symmetric) of the fans in one planar-batch round:
# a fixed size mix, so rounds of different seeds cost about the same.
PLANAR_SIZES = ((4, True), (4, False), (5, False), (6, True), (6, False), (7, False),
                (8, True), (8, False), (9, False), (10, True), (10, False))


def planar_batch(seed):
    """One fan per PLANAR_SIZES entry, with the seeded choices its job
    makes: closure seed picks and candidate functionals."""
    rng = random.Random(seed)
    fans = []
    for k, (n, symmetric) in enumerate(PLANAR_SIZES):
        rays = planar_fan(rng, n, symmetric)
        fans.append({"name": "fan%02d" % k, "rays": rays, "chambers": chambers_of(rays),
                     "functionals": functional_candidates(rng, rays),
                     "picks": rng.getrandbits(32)})
    return fans


# The catalogue fans, rays and chambers as partfan's catalogue lists them.
CATALOGUE = (
    ("square", ((1, 0), (0, -1), (-1, 0), (0, 1)), ((0, 3), (0, 1), (1, 2), (2, 3))),
    ("hirzebruch-a1", ((1, 0), (0, -1), (-1, 1), (0, 1)),
     ((0, 3), (0, 1), (1, 2), (2, 3))),
    ("three-lines", ((1, 0), (0, 1), (2, -3), (-1, 0), (0, -1), (-2, 3)),
     ((0, 1), (1, 5), (3, 5), (3, 4), (2, 4), (0, 2))),
)


def arrangement_envelope(normals):
    return json.dumps({"arrangement": {"dim": 3, "normals": [list(n) for n in normals]}})


def planar_envelope(rays):
    return json.dumps({"fan": {"dim": 2, "rays": [list(r) for r in rays],
                               "max_cones": [list(c) for c in chambers_of(rays)]}})


# The double-winding "fan": five rays going twice round the origin, with
# the finest partition (no listed blocks).
DOUBLE_WINDING = {"fan": {"dim": 2,
                          "rays": [[1, 0], [-4, 3], [1, -3], [1, 3], [-4, -3]],
                          "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
                  "partition": {"blocks": []}}

CLI_SIZES = (4, 5, 6, 7, 8, 9, 10)   # generated planar fans per cli-pipelines round


def cli_pipelines(seed):
    """The pipelines of one cli-pipelines round.

    Each pipeline is (name, stdin of the first stage, [argv per stage]).
    The error-path pipelines use fixed inputs; only the planar fans
    piped through ``partition potentials`` depend on the seed.
    """
    rng = random.Random(seed)
    pipelines = [
        ("shard-partition", None,
         [["examples", "brauer3"], ["arrangement", "shard-partition"]]),
        ("certify-brauer", None,
         [["examples", "brauer3"], ["group", "certify-brauer"]]),
        ("brauer-validate", None,
         [["examples", "brauer3"], ["fan", "from-arrangement"], ["fan", "validate"]]),
        ("A3-validate", arrangement_envelope(A3_NORMALS),
         [["fan", "from-arrangement"], ["fan", "validate"]]),
        ("torus-euler", None,
         [["examples", "square"], ["partition", "closure", "--seed", "s1~s3,s2~s4"],
          ["cw", "build"], ["cw", "euler"]]),
        ("hirzebruch-potentials", None,
         [["examples", "hirzebruch-a1"], ["partition", "potentials"]]),
        ("brauer-render", None, [["examples", "brauer3"], ["render"]]),
    ]
    for k, n in enumerate(CLI_SIZES):
        rays = planar_fan(rng, n, symmetric=(n % 2 == 0))
        pipelines.append(("planar%d-cubical" % k, planar_envelope(rays),
                          [["partition", "potentials"], ["category", "check-cubical"]]))
    pipelines += [
        ("error-missing-rays", json.dumps({"fan": {"dim": 2}}), [["fan", "validate"]]),
        ("error-nonnumeric-ray",
         json.dumps({"fan": {"dim": 2, "rays": [[1, 0], ["a", 1], [-1, 0], [0, -1]],
                             "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}}),
         [["fan", "validate"]]),
        ("error-missing-normals", json.dumps({"arrangement": {"dim": 3}}),
         [["fan", "from-arrangement"]]),
        ("error-double-winding", json.dumps(DOUBLE_WINDING),
         [["poset", "functional", "--b", "1,1"], ["cw", "build"]]),
    ]
    return pipelines
