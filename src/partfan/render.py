"""Static SVG emitters.

Rank-2 fans are drawn directly.  Rank-3 arrangement fans are drawn as the
stereographic projection of the great circles cut by the hyperplanes on
the unit sphere, projected from a configurable point (default (1,1,1)).
Rendering is presentation only, so floating point is fine here; no
predicate depends on these numbers.
"""

import math

from .errors import BadInput, DimensionMismatch

FAN_SIZE = 400  # side of a rank-2 fan's picture, in pixels
SIZE = 500  # side of a stereographic picture, in pixels
SAMPLES = 720  # chords per great circle
WINDOW = 6.0  # the picture shows the square |x|, |y| <= WINDOW of the plane


def _svg_header(size):
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%d" height="%d" viewBox="0 0 %d %d">' % (size, size, size, size))


def fan_svg(fan):
    """Rays and chamber labels of a fan in the plane."""
    if fan.dim != 2:
        raise DimensionMismatch("fan_svg draws rank-2 fans", witness=[2, fan.dim])
    center = FAN_SIZE / 2.0
    scale = FAN_SIZE * 0.4
    parts = [_svg_header(FAN_SIZE)]
    parts.append('<circle cx="%g" cy="%g" r="%g" fill="none" stroke="#ccc"/>'
                 % (center, center, scale))
    for i, ray in enumerate(fan.rays):
        norm = math.hypot(*[float(x) for x in ray])
        x = center + scale * float(ray[0]) / norm
        y = center - scale * float(ray[1]) / norm
        parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                     'stroke="black" stroke-width="1.5"/>' % (center, center, x, y))
        parts.append('<text x="%g" y="%g" font-size="12">r%d=(%s)</text>'
                     % (x, y, i, ",".join(str(c) for c in ray)))
    for cone in fan.max_cones:
        vecs = [[float(x) for x in fan.rays[i]] for i in cone]
        sx = sum(v[0] / math.hypot(*v) for v in vecs)
        sy = sum(v[1] / math.hypot(*v) for v in vecs)
        norm = math.hypot(sx, sy) or 1.0
        parts.append('<text x="%g" y="%g" font-size="11" fill="#555">(%s)</text>'
                     % (center + 0.55 * scale * sx / norm,
                        center - 0.55 * scale * sy / norm,
                        ",".join(str(i) for i in cone)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def arrangement_svg(arrangement, projection_point=(1, 1, 1)):
    """Stereographic projection of the hyperplane great circles.

    A rank other than 3, or a projection point with other than three
    coordinates, raises DimensionMismatch with witness [3, that number]; the
    zero point raises BadInput.
    """
    if arrangement.dim != 3:
        raise DimensionMismatch("stereographic rendering needs a rank-3 arrangement",
                                witness=[3, arrangement.dim])
    if len(projection_point) != 3:
        raise DimensionMismatch("the projection point needs three coordinates",
                                witness=[3, len(projection_point)])
    if not any(projection_point):
        raise BadInput("the projection point must be nonzero",
                       witness=list(projection_point))
    pole = [float(x) for x in projection_point]
    norm = math.sqrt(sum(x * x for x in pole))
    pole = [x / norm for x in pole]
    # orthonormal frame of the plane orthogonal to the pole
    seed = [1.0, 0.0, 0.0] if abs(pole[0]) < 0.9 else [0.0, 1.0, 0.0]
    u = _normalize(_cross(pole, seed))
    v = _normalize(_cross(pole, u))
    p0, p1, p2 = pole
    u0, u1, u2 = u
    v0, v1, v2 = v
    # one (cos t, sin t) per sample, shared by every great circle.  Each dot
    # product is the left fold from 0.0 that sum() computes up to Python
    # 3.11 (3.12 compensates float sums), so the output bytes are those of
    # the reference renderer in tests/search_oracles.py
    angles = [2.0 * math.pi * k / SAMPLES for k in range(SAMPLES + 1)]
    trig = [(math.cos(t), math.sin(t)) for t in angles]
    center = SIZE / 2.0
    scale = SIZE / (2.0 * WINDOW)
    parts = [_svg_header(SIZE)]
    for idx, normal in enumerate(arrangement.normals):
        n = _normalize([float(x) for x in normal])
        # a direction in the normal's plane: across the pole, or off an axis
        # the normal does not lie on when the pole is (nearly) the normal
        a = _cross(n, pole if abs(_dotf(n, pole)) < 0.99 else [1, 0, 0])
        if not any(a):
            a = _cross(n, [0, 1, 0])
        a = _normalize(a)
        b = _normalize(_cross(n, a))
        a0, a1, a2 = a
        b0, b1, b2 = b
        segment = []
        for c, s in trig:
            x0 = c * a0 + s * b0
            x1 = c * a1 + s * b1
            x2 = c * a2 + s * b2
            dot_p = 0.0 + x0 * p0 + x1 * p1 + x2 * p2
            denom = 1.0 - dot_p
            if abs(denom) < 1e-9:
                x = y = math.inf  # the pole has no image: it breaks the segment
            else:
                q0 = (x0 - dot_p * p0) / denom
                q1 = (x1 - dot_p * p1) / denom
                q2 = (x2 - dot_p * p2) / denom
                x = 0.0 + q0 * u0 + q1 * u1 + q2 * u2
                y = 0.0 + q0 * v0 + q1 * v1 + q2 * v2
            if abs(x) > WINDOW or abs(y) > WINDOW:
                if len(segment) > 1:
                    parts.append(_polyline(segment, center, scale))
                segment = []
            else:
                segment.append((x, y))
        if len(segment) > 1:
            parts.append(_polyline(segment, center, scale))
        label = ",".join(str(x) for x in normal)
        parts.append('<text x="8" y="%d" font-size="11">H%d: (%s)</text>'
                     % (16 + 14 * idx, idx, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polyline(points, center, scale):
    coords = " ".join("%.2f,%.2f" % (center + scale * x, center - scale * y)
                      for x, y in points)
    return '<polyline points="%s" fill="none" stroke="black" stroke-width="1"/>' % coords


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _dotf(a, b):
    return sum(x * y for x, y in zip(a, b))


def _normalize(a):
    norm = math.sqrt(sum(x * x for x in a))
    return [x / norm for x in a]
