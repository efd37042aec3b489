import pytest

from partfan.catalog import brauer, torus_partition
from partfan.cw import build_cw
from partfan.errors import DimensionMismatch
from partfan.fan import build_fan
from partfan.render import arrangement_svg, fan_svg, skeleton_svg


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


def test_skeleton_svg(square_fan):
    cw = build_cw(square_fan, torus_partition(square_fan))
    svg = skeleton_svg(cw)
    # single 0-cell with two loop 1-cells
    assert svg.count("<circle") >= 3
