"""Disk primitives and the metric relations between them.

Angles are radians everywhere in this package; conversion to degrees
happens only at the I/O and command-line surface.  An overlap angle is
the angle between the outward tangent rays of two meeting circles at a
boundary intersection point: 0 at external tangency, pi/2 when the
circles cross at right angles, approaching pi at the containment
boundary.  Valid labels live in [0, pi).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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
# exact, so the results for pairs inside stay as they are.
_LO, _HI = 2.0 ** -500, 2.0 ** 500
_MAX = sys.float_info.max


def _power_of_two(e: int) -> float:
    # 2**e, clamped to the normal floats so that it neither raises nor rounds.
    return math.ldexp(1.0, max(-1022, min(1023, e)))


@dataclass(frozen=True)
class Disk:
    """A closed disk with an opaque id, center (cx, cy) and radius r > 0.

    The center and radius are stored as floats, so that a pair of disks
    gets the same float arithmetic in pair_relation and in the vectorized
    pair analyses; an int beyond 2**53 is rounded here.
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


def center_distance(a: Disk, b: Disk) -> float:
    return math.hypot(a.cx - b.cx, a.cy - b.cy)


def _cos_overlap(a_r: float, b_r: float, d: float) -> float:
    # Law of cosines at an intersection point, flipped to the tangent rays.
    if not (_LO <= a_r <= _HI and _LO <= b_r <= _HI):
        # Radii scaled to a product near 1, so the denominator is never 0.
        s = _power_of_two(-((math.frexp(a_r)[1] + math.frexp(b_r)[1]) >> 1))
        a_r, b_r, d = a_r * s, b_r * s, d * s
    return (d * d - a_r * a_r - b_r * b_r) / (2.0 * a_r * b_r)


def _relate(dx: float, dy: float, ra: float, rb: float, tol: float) -> tuple[PairKind, float, Optional[float]]:
    """Kind, center distance and overlap angle of two disks with radii ra and
    rb whose centers differ by (dx, dy).

    The classification kernel behind pair_relation, on plain floats so the
    pair analyses need not build a PairRelation per pair.  tol is not
    checked here.
    """
    d = math.hypot(dx, dy)
    if d <= abs(ra - rb) + tol:
        return PairKind.CONTAINED, d, None
    if abs(d - (ra + rb)) <= tol:
        return PairKind.TANGENT, d, 0.0
    if d > ra + rb + tol:
        return PairKind.DISJOINT, d, None
    # The branch guards above already certify a meeting, so clamp freely.
    u = max(-1.0, min(1.0, _cos_overlap(ra, rb, d)))
    return PairKind.OVERLAPPING, d, math.acos(u)


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
    return PairRelation(*_relate(a.cx - b.cx, a.cy - b.cy, a.r, b.r, tol))


def overlap_angle(a: Disk, b: Disk) -> float:
    """Angle between the outward tangent rays where the two circles meet.

    The angle is the same at both intersection points.  Raises
    NoIntersectionError when the boundaries do not meet at all
    (beyond roundoff slack).
    """
    d = center_distance(a, b)
    u = _cos_overlap(a.r, b.r, d)
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
    return _meeting_points(a.center, a.r, b.center, b.r, tol)


def _meeting_points(za: complex, ra: float, zb: complex, rb: float, tol: float) -> list[complex]:
    delta = zb - za
    # math.hypot, as in pair_relation: complex abs may round differently.
    d = math.hypot(delta.real, delta.imag)
    if d == 0.0:
        return []
    if d > ra + rb + tol or d < abs(ra - rb) - tol:
        return []
    ex = delta / d
    s = 1.0
    if not (_LO <= ra <= _HI and _LO <= rb <= _HI):
        # The largest length scaled into [0.5, 1), so no square overflows.
        s = _power_of_two(-math.frexp(max(ra, rb, d))[1])
        ra, rb, d = ra * s, rb * s, d * s
    x = (d * d + ra * ra - rb * rb) / (2.0 * d)
    h2 = ra * ra - x * x
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    if s != 1.0:
        x, h = x / s, h / s
    base = za + x * ex
    if h == 0.0:
        return [base]
    off = complex(-ex.imag, ex.real) * h
    return [base + off, base - off]


def triple_intersects(a: Disk, b: Disk, c: Disk, tol: float = 1e-9) -> tuple[bool, Optional[complex]]:
    """Decide whether the three closed disks share a common point.

    Returns (True, witness) with a common point, or (False, None).  Assumes
    no disk of the triple contains another: this function checks the three
    pairs first and raises InvalidConfigurationError on a nested one (and
    InvalidInputError on a negative or NaN tol).  Under that assumption a
    nonempty triple intersection always contains a point where two of the
    boundary circles meet, so testing those meeting points against the third
    disk (inflated by tol) decides the question exactly.  analysis.is_thin
    takes the same steps on every triangle of a contact graph at once.
    """
    trio = (a, b, c)
    for i in range(3):
        for j in range(i + 1, 3):
            if pair_relation(trio[i], trio[j], tol).kind is PairKind.CONTAINED:
                raise InvalidConfigurationError(
                    f"disk {trio[i].id!r} and disk {trio[j].id!r} are nested; "
                    "triple intersection is only defined for configurations"
                )
    za, ra, zb, rb, zc, rc = a.center, a.r, b.center, b.r, c.center, c.r
    ab = _meeting_points(za, ra, zb, rb, tol)
    ac = _meeting_points(za, ra, zc, rc, tol)
    bc = _meeting_points(zb, rb, zc, rc, tol)
    best: Optional[complex] = None
    best_res = math.inf
    for points, z3, r3 in ((ab, zc, rc), (ac, zb, rb), (bc, za, ra)):
        for p in points:
            res = abs(p - z3) - r3
            if res < best_res:
                best_res = res
                best = p
    if best is None or best_res > tol:
        return False, None
    # The meeting point sits on two of the boundaries, so its residual is ~0.
    # When the common region has interior, walking toward the centroid finds a
    # strictly interior witness; keep whichever point sits deepest.  A point's
    # residual is the largest of its three, so a point is deeper only when
    # each of the three is below the best so far.
    centroid = (za + zb + zc) / 3.0
    witness = best
    witness_res = max(abs(best - za) - ra, abs(best - zb) - rb, abs(best - zc) - rc)
    for t in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
        q = best + t * (centroid - best)
        res_a = abs(q - za) - ra
        if not res_a < witness_res:
            continue
        res_b = abs(q - zb) - rb
        if not res_b < witness_res:
            continue
        res_c = abs(q - zc) - rc
        if res_c < witness_res:
            witness_res = max(res_a, res_b, res_c)
            witness = q
    return True, witness
