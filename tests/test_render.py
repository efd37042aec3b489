import random
from collections import Counter
from itertools import product

import pytest

import search_oracles
from partfan.arrangement import Arrangement
from partfan.catalog import brauer
from partfan.errors import DimensionMismatch, WrongArrangement, ZeroVector
from partfan.fan import build_fan
from partfan.render import WINDOW, arrangement_svg, fan_svg
from strategies import A3_NORMALS, b_normals


def test_fan_svg(square_fan):
    svg = fan_svg(square_fan)
    assert svg.startswith("<svg")
    assert svg.count("<line") == 4


def test_fan_svg_needs_rank_2():
    octant = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    with pytest.raises(DimensionMismatch) as err:
        fan_svg(octant)
    assert err.value.witness == [2, 3]


def test_fan_svg_deterministic(square_fan):
    assert fan_svg(square_fan) == fan_svg(square_fan)


def test_arrangement_svg():
    svg = arrangement_svg(brauer())
    assert svg.count("<text") == 7
    assert "<polyline" in svg


def test_arrangement_svg_other_projection():
    svg = arrangement_svg(brauer(), projection_point=(1, 2, 5))
    assert "<polyline" in svg


def seeded_arrangements(seed, count):
    """Rank-3 arrangements of 2 to 6 normals drawn from [-3, 3]^3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        normals = [tuple(rng.randint(-3, 3) for _ in range(3))
                   for _ in range(rng.randint(2, 6))]
        try:
            out.append(Arrangement(3, normals))
        except (WrongArrangement, ZeroVector):
            pass
    return out


GRID = [p for p in product((-1, 0, 1), repeat=3) if any(p)]
NAMED = [Arrangement(3, A3_NORMALS), brauer(), Arrangement(3, b_normals(3))]


def test_arrangement_svg_matches_the_former_renderer(monkeypatch):
    # A3 from (1,1,1) meets the pole on three circles, Brauer from (1,0,0)
    # needs the [0, 1, 0] frame for its normal (1,0,0), and circles through
    # or near the pole leave the window: the counts show every branch ran
    branches = Counter()
    stereographic, cross = search_oracles._stereographic, search_oracles._cross

    def recording_stereographic(point, pole, frame):
        image = stereographic(point, pole, frame)
        branches["pole" if image is None else
                 "clipped" if max(map(abs, image)) > WINDOW else "drawn"] += 1
        return image

    def recording_cross(a, b):
        direction = cross(a, b)
        if not any(direction):  # the circle's first frame failed
            branches["fallback frame"] += 1
        return direction

    monkeypatch.setattr(search_oracles, "_stereographic", recording_stereographic)
    monkeypatch.setattr(search_oracles, "_cross", recording_cross)
    cases = [(arrangement, pole) for arrangement in NAMED for pole in GRID + [(1, 2, 5)]]
    cases += [(arrangement, pole) for arrangement in seeded_arrangements(18, 8)
              for pole in [(1, 1, 1), (0, 0, 1), (-2, 1, 3)]]
    for arrangement, pole in cases:
        assert arrangement_svg(arrangement, pole) == \
            search_oracles.arrangement_svg(arrangement, pole), (arrangement.normals, pole)
    assert set(branches) == {"pole", "clipped", "drawn", "fallback frame"}
