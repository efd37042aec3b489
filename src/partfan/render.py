"""Static SVG emitters.

Rank-2 fans are drawn directly.  Rank-3 arrangement fans are drawn as the
stereographic projection of the great circles cut by the hyperplanes on
the unit sphere, projected from a configurable point (default (1,1,1)).
Rendering is presentation only, so floating point is fine here; no
predicate depends on these numbers.
"""

import math

from .errors import BadInput, DimensionMismatch


def _svg_header(size):
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%d" height="%d" viewBox="0 0 %d %d">' % (size, size, size, size))


def fan_svg(fan, size=400):
    """Rays and chamber labels of a fan in the plane."""
    if fan.dim != 2:
        raise DimensionMismatch("fan_svg draws rank-2 fans", witness=[2, fan.dim])
    center = size / 2.0
    scale = size * 0.4
    parts = [_svg_header(size)]
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


def _stereographic(point, pole, frame):
    u, v = frame
    dot_p = sum(a * b for a, b in zip(point, pole))
    denom = 1.0 - dot_p
    if abs(denom) < 1e-9:
        return None
    proj = [(a - dot_p * b) / denom for a, b in zip(point, pole)]
    return (sum(a * b for a, b in zip(proj, u)),
            sum(a * b for a, b in zip(proj, v)))


def arrangement_svg(arrangement, projection_point=(1, 1, 1), size=500,
                    samples=720, window=6.0):
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
    center = size / 2.0
    scale = size / (2.0 * window)
    parts = [_svg_header(size)]
    for idx, normal in enumerate(arrangement.normals):
        n = _normalize([float(x) for x in normal])
        # a direction in the normal's plane: across the pole, or off an axis
        # the normal does not lie on when the pole is (nearly) the normal
        a = _cross(n, pole if abs(_dotf(n, pole)) < 0.99 else [1, 0, 0])
        if not any(a):
            a = _cross(n, [0, 1, 0])
        a = _normalize(a)
        b = _normalize(_cross(n, a))
        segment = []
        for k in range(samples + 1):
            t = 2.0 * math.pi * k / samples
            point = [math.cos(t) * a[i] + math.sin(t) * b[i] for i in range(3)]
            image = _stereographic(point, pole, (u, v))
            if image is None or abs(image[0]) > window or abs(image[1]) > window:
                if len(segment) > 1:
                    parts.append(_polyline(segment, center, scale))
                segment = []
                continue
            segment.append(image)
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


def skeleton_svg(complex_, size=400):
    """Circle layout of the CW 1-skeleton (rank-2 examples)."""
    vertices = list(complex_.vertices)
    center = size / 2.0
    radius = size * 0.35
    pos = {}
    for k, vtx in enumerate(vertices):
        angle = 2.0 * math.pi * k / max(len(vertices), 1)
        pos[vtx] = (center + radius * math.cos(angle),
                    center - radius * math.sin(angle))
    parts = [_svg_header(size)]
    loop_count = {}
    for e in complex_.edges:
        x1, y1 = pos[e.tail]
        x2, y2 = pos[e.head]
        if e.tail == e.head:
            k = loop_count.get(e.tail, 0)
            loop_count[e.tail] = k + 1
            r = 18 + 12 * k
            parts.append('<circle cx="%g" cy="%g" r="%d" fill="none" '
                         'stroke="black"/>' % (x1 + r, y1, r))
        else:
            parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                         'stroke="black"/>' % (x1, y1, x2, y2))
    for vtx, (x, y) in pos.items():
        parts.append('<circle cx="%g" cy="%g" r="4" fill="black"/>' % (x, y))
        parts.append('<text x="%g" y="%g" font-size="11">v%d</text>'
                     % (x + 6, y - 6, vtx))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]]


def _dotf(a, b):
    return sum(x * y for x, y in zip(a, b))


def _normalize(a):
    norm = math.sqrt(sum(x * x for x in a))
    return [x / norm for x in a]
