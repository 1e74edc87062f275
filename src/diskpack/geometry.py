"""Disk primitives and the metric relations between them.

Angles are radians everywhere in this package; conversion to degrees
happens only at the I/O and command-line surface.  An overlap angle is
the angle between the outward tangent rays of two meeting circles at a
boundary intersection point: 0 at external tangency, pi/2 when the
circles cross at right angles, approaching pi at the containment
boundary.  Valid labels live in [0, pi).

The pair and triple formulas live once, in the array kernels at the end of
this module, which take centers and radii as arrays and pairs or triangles as
index arrays.  The pair analyses run them on whole disk sets, and the public
pair and triple calls on their two or three disks: one code path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateTriangleError,
    InvalidConfigurationError,
    InvalidInputError,
    NoIntersectionError,
)

# Slack allowed on an arccos argument before the configuration is treated
# as genuinely invalid rather than roundoff on the boundary.
ACOS_SLACK = 1e-12

# The pair formulas square their lengths.  Radii in [_LO, _HI] keep those
# squares and products finite and normal for disks that can meet.  A pair with
# a radius outside runs on its lengths scaled by a power of two, which is
# exact; a pair inside is scaled by exactly 1.0, which changes no bit.
_LO, _HI = 2.0 ** -500, 2.0 ** 500
_MAX = sys.float_info.max


def _power_of_two(e: int) -> float:
    # 2**e, clamped to the normal floats so that it neither raises nor rounds.
    return math.ldexp(1.0, max(-1022, min(1023, e)))


@dataclass(frozen=True)
class Disk:
    """A closed disk with an opaque id, center (cx, cy) and radius r > 0.

    The center and radius are stored as floats, as the array kernels hold
    them, so that a pair of disks gets the same answer from pair_relation
    and from the pair analyses; an int beyond 2**53 is rounded here.
    """

    id: str
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        # Compared, not converted: float() raises OverflowError on an int
        # beyond the largest float.
        if not (-_MAX <= self.cx <= _MAX and -_MAX <= self.cy <= _MAX and -_MAX <= self.r <= _MAX):
            raise InvalidInputError(f"disk {self.id!r}: center and radius must be finite")
        if self.r <= 0:
            raise InvalidInputError(f"disk {self.id!r}: radius must be positive, got {self.r!r}")
        if type(self.cx) is not float or type(self.cy) is not float or type(self.r) is not float:
            object.__setattr__(self, "cx", float(self.cx))
            object.__setattr__(self, "cy", float(self.cy))
            object.__setattr__(self, "r", float(self.r))

    @property
    def center(self) -> complex:
        return complex(self.cx, self.cy)


class PairKind(Enum):
    DISJOINT = "disjoint"
    TANGENT = "tangent"
    OVERLAPPING = "overlapping"
    CONTAINED = "contained"


@dataclass(frozen=True)
class PairRelation:
    """How two disks sit relative to each other.

    `angle` is the overlap angle in radians and is present exactly when
    the disks meet (tangent or overlapping); tangency reports 0.0.
    """

    kind: PairKind
    distance: float
    angle: Optional[float]


# The kinds as codes: _KINDS[code] is the PairKind.
_DISJOINT, _TANGENT, _OVERLAPPING, _CONTAINED = range(4)
_KINDS = (PairKind.DISJOINT, PairKind.TANGENT, PairKind.OVERLAPPING, PairKind.CONTAINED)


def center_distance(a: Disk, b: Disk) -> float:
    return math.hypot(a.cx - b.cx, a.cy - b.cy)


def _coordinates(disks: Sequence[Disk]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centers' x and y and the radii, as arrays in disk order."""
    return np.array([d.cx for d in disks]), np.array([d.cy for d in disks]), np.array([d.r for d in disks])


def pair_relation(a: Disk, b: Disk, tol: float = 1e-9) -> PairRelation:
    """Classify a pair of disks as disjoint, tangent, overlapping or contained.

    The four kinds partition all inputs for a fixed tol.  Contained wins
    first and claims d <= |a.r - b.r| + tol, so internal tangency and
    coincident disks count as contained; tangency claims the band
    |d - (a.r + b.r)| <= tol, disjoint needs clearance beyond it, and
    everything else overlaps, with angles strictly inside (0, pi).  A
    negative or NaN tol raises InvalidInputError.
    """
    if not tol >= 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol!r}")
    with np.errstate(all="ignore"):
        kind, d, angle = _classify(*_coordinates((a, b)), np.array([0]), np.array([1]), tol)
    code = int(kind[0])
    return PairRelation(_KINDS[code], float(d[0]), float(angle[0]) if code in (_TANGENT, _OVERLAPPING) else None)


def overlap_angle(a: Disk, b: Disk) -> float:
    """Angle between the outward tangent rays where the two circles meet.

    The angle is the same at both intersection points.  Raises
    NoIntersectionError when the boundaries do not meet at all
    (beyond roundoff slack).
    """
    d = center_distance(a, b)
    with np.errstate(all="ignore"):
        u = float(_cos_overlap(np.array([a.r]), np.array([b.r]), np.array([d]))[0])
    if u > 1.0 + ACOS_SLACK or u < -1.0 - ACOS_SLACK:
        raise NoIntersectionError(
            f"circles {a.id!r} and {b.id!r} do not meet: center distance {d!r} "
            f"outside [{abs(a.r - b.r)!r}, {a.r + b.r!r}]"
        )
    return math.acos(max(-1.0, min(1.0, u)))


def edge_length(r_i: float, r_j: float, theta: float) -> float:
    """Center distance of two disks with radii r_i, r_j meeting at angle theta.

    Inverse of overlap_angle: theta 0 gives tangency at r_i + r_j, and the
    distance strictly decreases as theta grows on [0, pi).
    """
    if r_i <= 0 or r_j <= 0:
        raise InvalidInputError("radii must be positive")
    if not 0.0 <= theta < math.pi:
        raise InvalidInputError(f"overlap angle must lie in [0, pi), got {theta!r}")
    return math.sqrt(r_i * r_i + r_j * r_j + 2.0 * r_i * r_j * math.cos(theta))


def triangle_angle(l_opp: float, l_1: float, l_2: float) -> float:
    """Angle opposite l_opp in a triangle with side lengths (l_opp, l_1, l_2).

    Sides must satisfy the triangle inequality; violations beyond roundoff
    slack raise DegenerateTriangleError.
    """
    if l_opp <= 0 or l_1 <= 0 or l_2 <= 0:
        raise DegenerateTriangleError(f"side lengths must be positive: {(l_opp, l_1, l_2)!r}")
    u = (l_1 * l_1 + l_2 * l_2 - l_opp * l_opp) / (2.0 * l_1 * l_2)
    if u > 1.0 + ACOS_SLACK or u < -1.0 - ACOS_SLACK:
        raise DegenerateTriangleError(
            f"side lengths {(l_opp, l_1, l_2)!r} violate the triangle inequality"
        )
    return math.acos(max(-1.0, min(1.0, u)))


def boundary_meeting_points(a: Disk, b: Disk, tol: float = 1e-9) -> list[complex]:
    """Points where the two boundary circles meet, as complex numbers.

    Two points for crossing circles, one for (near-)tangency, none when the
    circles clear each other by more than tol.  Concentric circles yield none.
    A negative or NaN tol raises InvalidInputError.
    """
    if not tol >= 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol!r}")
    with np.errstate(all="ignore"):
        d = np.array([center_distance(a, b)])
        px, py, count = _boundary_points(*_coordinates((a, b)), np.array([0]), np.array([1]), d, tol)
    return [complex(px[k, 0], py[k, 0]) for k in range(count[0])]


def triple_intersects(a: Disk, b: Disk, c: Disk, tol: float = 1e-9) -> tuple[bool, Optional[complex]]:
    """Decide whether the three closed disks share a common point.

    Returns (True, witness) with a common point, or (False, None).  Assumes
    no disk of the triple contains another: this function checks the three
    pairs first and raises InvalidConfigurationError on a nested one (and
    InvalidInputError on a negative or NaN tol).  Under that assumption a
    nonempty triple intersection always contains a point where two of the
    boundary circles meet, so testing those meeting points against the third
    disk (inflated by tol) decides the question exactly.  analysis.is_thin
    runs the same kernels on every triangle, so the two agree bit for bit.
    """
    if not tol >= 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol!r}")
    trio = (a, b, c)
    x, y, r = _coordinates(trio)
    # Disk k is a, b or c; edge k is (a, b), (a, c) or (b, c).
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    one_each = tuple(np.arange(3)[:, None])
    with np.errstate(all="ignore"):
        kind, d, _ = _classify(x, y, r, i, j, tol)
        nested = kind == _CONTAINED
        if nested.any():
            k = int(nested.argmax())
            raise InvalidConfigurationError(
                f"disk {trio[i[k]].id!r} and disk {trio[j[k]].id!r} are nested; "
                "triple intersection is only defined for configurations"
            )
        px, py, _ = _boundary_points(x, y, r, i, j, d, tol)
        hit, wx, wy = _probe(x, y, r, px, py, one_each, one_each, tol)
    return (True, complex(wx[0], wy[0])) if hit[0] else (False, None)


# The array kernels.  They give the scalar formulas' bits, which the tests keep
# as frozen copies: math.hypot and math.acos are mapped over lists, since
# np.hypot and np.arccos round some inputs differently, and every other step is
# the same IEEE operation in the same order.  Callers silence numpy's warnings.


def _scale(ra: np.ndarray, rb: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The power-of-two rule, per pair: 2**e, clamped to the normal floats,
    where a radius lies outside [_LO, _HI], and exactly 1.0 elsewhere."""
    out = (np.minimum(ra, rb) < _LO) | (np.maximum(ra, rb) > _HI)
    return np.where(out, np.ldexp(1.0, np.clip(e, -1022, 1023)), 1.0)


def _cos_overlap(ra: np.ndarray, rb: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The law of cosines at a meeting point of circles with radii ra and rb,
    d apart, flipped to the tangent rays: the cosine of the overlap angle.

    A pair with a radius outside [_LO, _HI] runs on its radii scaled to a
    product near 1, so the denominator is never 0.
    """
    s = _scale(ra, rb, -((np.frexp(ra)[1] + np.frexp(rb)[1]) >> 1))
    ra, rb, d = ra * s, rb * s, d * s
    return (d * d - ra * ra - rb * rb) / (2.0 * ra * rb)


def _classify(
    x: np.ndarray, y: np.ndarray, r: np.ndarray, i: np.ndarray, j: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kind codes, center distances and overlap angles (0.0 unless the pair
    overlaps) of the pairs (i, j), by the rules that pair_relation states.

    tol is not checked here.
    """
    d = np.fromiter(map(math.hypot, (x[i] - x[j]).tolist(), (y[i] - y[j]).tolist()), float, len(i))
    ra, rb = r[i], r[j]
    total = ra + rb
    # Later codes win, so containment is decided first, then tangency.
    kind = np.full(len(d), _OVERLAPPING, np.int8)
    kind[d > total + tol] = _DISJOINT
    kind[np.abs(d - total) <= tol] = _TANGENT
    kind[d <= np.abs(ra - rb) + tol] = _CONTAINED
    over = kind == _OVERLAPPING
    u = _cos_overlap(ra[over], rb[over], d[over])
    # max(-1.0, min(1.0, u)), NaN included: min keeps 1.0 unless u < 1.0,
    # and max keeps -1.0 unless u > -1.0.
    u = np.where(u < 1.0, u, 1.0)
    u = np.where(u > -1.0, u, -1.0)
    angle = np.zeros(len(d))
    angle[over] = np.fromiter(map(math.acos, u.tolist()), float, len(u))
    return kind, d, angle


def _boundary_points(
    x: np.ndarray, y: np.ndarray, r: np.ndarray, i: np.ndarray, j: np.ndarray, d: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points where the boundaries of disks i[k] and j[k], d[k] apart,
    meet: arrays px and py of shape (2, len(i)), and how many points each
    pair has, 0, 1 or 2.  The slots past a pair's count hold NaN; a point
    within it can be NaN too, where its lengths overflow.

    The frozen copy runs on complex numbers.  CPython 3.10 to 3.13 promotes
    the float operand of complex / float and float * complex to complex(f,
    0.0) and runs _Py_c_quot or _Py_c_prod, so those steps are written out as
    their real operations, the products with 0.0 included: they can flip the
    sign of a zero.  This mirrors those versions only; 3.14 changed mixed
    real and complex arithmetic.  A pair with a radius outside [_LO, _HI]
    runs on its lengths scaled so that the largest lies in [0.5, 1), and the
    offsets along and across the center line are scaled back.
    """
    ra, rb = r[i], r[j]
    dx, dy = x[j] - x[i], y[j] - y[i]
    ex, ey = (dx + dy * 0.0) / d, (dy - dx * 0.0) / d
    s = _scale(ra, rb, -np.frexp(np.maximum(np.maximum(ra, rb), d))[1])
    sa, sb, sd = ra * s, rb * s, d * s
    along = (sd * sd + sa * sa - sb * sb) / (2.0 * sd)
    h2 = sa * sa - along * along
    along, h = along / s, np.sqrt(np.where(h2 > 0.0, h2, 0.0)) / s
    bx, by = x[i] + (along * ex - 0.0 * ey), y[i] + (along * ey + 0.0 * ex)
    ox, oy = -ey * h - ex * 0.0, -ey * 0.0 + ex * h
    # A pair whose h is 0.0 meets at the one point (bx, by).
    one = h == 0.0
    px = np.stack([np.where(one, bx, bx + ox), np.where(one, np.nan, bx - ox)])
    py = np.stack([np.where(one, by, by + oy), np.where(one, np.nan, by - oy)])
    none = (d == 0.0) | (d > ra + rb + tol) | (d < np.abs(ra - rb) - tol)
    px[:, none] = py[:, none] = np.nan
    return px, py, np.where(none, 0, np.where(one, 1, 2))


def _probe(
    x: np.ndarray, y: np.ndarray, r: np.ndarray, px: np.ndarray, py: np.ndarray,
    trio: tuple[np.ndarray, np.ndarray, np.ndarray], edges: tuple[np.ndarray, np.ndarray, np.ndarray], tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which of the triangles trio = (a, b, c), with edge numbers edges =
    (ab, ac, bc) into the boundary points px and py, share a point: a mask,
    and the x and y of a witness for each triangle that does.

    A triangle shares a point when the first of its six meeting points
    deepest in the third disk lies within tol of it.  The frozen copy's strict
    < and max(p, q, s) become chained np.where, so a NaN wins only where it
    would win there; complex abs is np.hypot, as both call the C library's
    hypot, but np.hypot gives inf where complex abs raises OverflowError.
    """
    a, b, c = trio
    ab, ac, bc = edges
    # The first of the six meeting points deepest in the third disk.
    best = np.full(len(a), np.inf)
    bx, by = np.zeros(len(a)), np.zeros(len(a))
    for edge, third in ((ab, c), (ac, b), (bc, a)):
        x3, y3, r3 = x[third], y[third], r[third]
        for slot in (0, 1):
            qx, qy = px[slot, edge], py[slot, edge]
            res = np.hypot(qx - x3, qy - y3) - r3
            deeper = res < best
            best = np.where(deeper, res, best)
            bx, by = np.where(deeper, qx, bx), np.where(deeper, qy, by)
    hit = (best < np.inf) & ~(best > tol)
    bx, by = bx[hit], by[hit]
    corners = [(x[v], y[v], r[v]) for v in (a[hit], b[hit], c[hit])]

    def residuals(qx, qy):
        return [np.hypot(qx - cx, qy - cy) - cr for cx, cy, cr in corners]

    def first_max(p, q, s):
        m = np.where(q > p, q, p)
        return np.where(s > m, s, m)

    # Walk toward the centroid, complex / 3.0 and t * complex written out as
    # in _boundary_points; a point replaces the witness when each of its three
    # residuals is below the witness's largest.
    (xa, ya, _), (xb, yb, _), (xc, yc, _) = corners
    sx, sy = xa + xb + xc, ya + yb + yc
    gx, gy = (sx + sy * 0.0) / 3.0, (sy - sx * 0.0) / 3.0
    wx, wy, w = bx, by, first_max(*residuals(bx, by))
    for t in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
        qx = bx + (t * (gx - bx) - 0.0 * (gy - by))
        qy = by + (t * (gy - by) + 0.0 * (gx - bx))
        res = residuals(qx, qy)
        deeper = (res[0] < w) & (res[1] < w) & (res[2] < w)
        w = np.where(deeper, first_max(*res), w)
        wx, wy = np.where(deeper, qx, wx), np.where(deeper, qy, wy)
    return hit, wx, wy
