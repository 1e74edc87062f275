"""Realizing a labeled triangulated patch as an actual disk layout.

The radius step enforces the flat-angle condition: around every interior
vertex the incident triangle angles must sum to exactly 2*pi.  Radii are
solved by Gauss-Seidel sweeps with a monotone bisection per vertex, which
is slow but dependable at desk scale; centers are then placed by walking
the interior faces outward from a root edge.  Both steps read what a
LayoutProblem compiles once, when it is built: the faces from the one trace
that checks the triangulation, and each interior vertex's fan.  Every angle
sum comes from one kernel, _fan_angle_sum.  Both steps run in lengths scaled
by a power of two, so a patch lays out the same at any scale.

Labels above pi/2 leave the regime where the per-vertex angle sum is
guaranteed monotone in the radius, so the solver warns and degrades to
best effort there.
"""

from __future__ import annotations

import math
import sys
import warnings as _warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .analysis import DiskSet
from .errors import (
    DegenerateTriangleError,
    InconsistentLayoutError,
    InvalidInputError,
    NonConvergenceError,
    UnsupportedInputError,
)
from .geometry import ACOS_SLACK, Disk, _power_of_two, edge_length
from .graph import EmbeddedGraph, FaceDecomposition, LabeledContactGraph, edge_key, triangulation

_TWO_PI = 2.0 * math.pi

HIGH_LABEL_WARNING = (
    "overlap label above 90 degrees: the angle-sum equation may respond "
    "non-monotonically and convergence is not guaranteed"
)


@dataclass(frozen=True)
class LayoutProblem:
    """A triangulated embedding with boundary radii and edge labels.

    Every boundary vertex needs a positive radius; labels default to 0
    (tangency) on unlabeled edges.  tol is the angle-sum residual target in
    radians and max_iter caps the number of Gauss-Seidel sweeps.

    Construction compiles the rest: `faces` and `outer_face` from the face
    trace that checks the triangulation, the sorted `interior_vertices`, and
    their `fans`: each one's rotation and the cosines of the labels on its
    spokes (to rotation[i]) and rim (rotation[i] to rotation[i + 1]).
    """

    embedding: EmbeddedGraph
    boundary_radii: Mapping[str, float]
    labels: Mapping[tuple[str, str], float] = field(default_factory=dict)
    tol: float = 1e-10
    max_iter: int = 100_000
    faces: FaceDecomposition = field(init=False, repr=False, compare=False)
    outer_face: int = field(init=False, repr=False, compare=False)
    interior_vertices: tuple[str, ...] = field(init=False, repr=False, compare=False)
    fans: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.embedding.boundary:
            raise InvalidInputError("layout needs a nonempty boundary")
        faces, outer, triangulated = triangulation(self.embedding)
        if not triangulated:
            raise InvalidInputError("layout needs a triangulated embedding")
        if set(self.boundary_radii) != set(self.embedding.boundary):
            raise InvalidInputError("boundary_radii must cover exactly the boundary vertices")
        radii = {v: _positive(r, f"boundary radius at {v!r}") for v, r in self.boundary_radii.items()}
        object.__setattr__(self, "labels", LabeledContactGraph(self.embedding.graph, self.labels).labels)
        object.__setattr__(self, "boundary_radii", radii)
        _positive(self.tol, "tol")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        fans = {}
        for v in sorted(set(self.embedding.graph.vertices) - self.embedding.boundary):
            rot = self.embedding.rotation[v]
            spoke_cos = tuple(math.cos(self.labels[edge_key(v, u)]) for u in rot)
            rim_cos = tuple(math.cos(self.labels[edge_key(u, w)]) for u, w in zip(rot, rot[1:] + rot[:1]))
            fans[v] = rot, spoke_cos, rim_cos
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "outer_face", outer)
        object.__setattr__(self, "interior_vertices", tuple(fans))
        object.__setattr__(self, "fans", fans)


@dataclass(frozen=True)
class RadiiSolution:
    """Solved radii with the final angle-sum residual and sweep count."""

    radii: dict[str, float]
    residual: float
    iterations: int
    warnings: tuple[str, ...] = ()


def _positive(x, what: str) -> float:
    """x as a float, or InvalidInputError naming `what` when x is not a
    positive, finite number.  As in the document readers, a bool is not a
    number."""
    if isinstance(x, bool) or not (isinstance(x, (int, float)) and 0 < x <= sys.float_info.max):
        raise InvalidInputError(f"{what} must be a positive finite number, got {x!r}")
    return float(x)


def _check_radii(radii: Mapping[str, float], vertices: Iterable[str]) -> None:
    for v in vertices:
        _positive(radii.get(v), f"radius at {v!r}")


def _unit(problem: LayoutProblem) -> float:
    # The power of two that brings the largest boundary radius into [0.5, 1).
    # The solve and the placement run in lengths scaled by it, which is exact,
    # and angles do not change under scaling; so a patch of radius 1e-170 or
    # 1e170 is laid out as at radius 1, and other patches as before.
    return _power_of_two(-math.frexp(max(problem.boundary_radii.values()))[1])


def _check_fan(v: str, rot: tuple[str, ...], total: float, flat: Optional[int]) -> None:
    # Raise on a fan whose angle sum is NaN, because a side under- or
    # overflows, or whose face number flat, in rotation order, is flat.
    if math.isnan(total):
        raise DegenerateTriangleError(f"a side of a face at {v!r} under- or overflows at these radii")
    if flat is not None:
        raise DegenerateTriangleError(f"face ({v}, {rot[flat]}, {rot[(flat + 1) % len(rot)]}) is degenerate at these radii")


def angle_sum(v: str, radii: Mapping[str, float], problem: LayoutProblem) -> float:
    """Sum of the triangle angles at interior vertex v under these radii.

    Reads the radii of v and its neighbors; a missing, non-finite or
    nonpositive one raises InvalidInputError.  DegenerateTriangleError names
    the first face, in rotation order, flat beyond ACOS_SLACK, or reports a
    side that under- or overflows.
    """
    fan = problem.fans.get(v)
    if fan is None:
        if v in problem.embedding.boundary:
            raise InvalidInputError(f"angle sums are defined at interior vertices; {v!r} is boundary")
        raise InvalidInputError(f"unknown vertex {v!r}")
    rot, spoke_cos, rim_cos = fan
    _check_radii(radii, (v, *rot))
    ru, opp2 = _fan_radii(rot, rim_cos, radii)
    try:
        total, flat = _fan_angle_sum(radii[v], ru, spoke_cos, opp2)
    except ZeroDivisionError:
        total, flat = math.nan, None
    _check_fan(v, rot, total, flat)
    return total


def _fan_radii(rot: tuple[str, ...], rim_cos: tuple[float, ...], radii: Mapping[str, float]) -> tuple[list, list]:
    # The spoke radii of a fan and the squared lengths of its rim edges.
    ru = [radii[u] for u in rot]
    k = len(ru)
    opp2 = [0.0] * k
    for i in range(k):
        j = i + 1 if i + 1 < k else 0
        opp2[i] = ru[i] * ru[i] + ru[j] * ru[j] + 2.0 * ru[i] * ru[j] * rim_cos[i]
    return ru, opp2


def _fan_angle_sum(r: float, ru: list[float], spoke_cos: tuple[float, ...], opp2: list[float]) -> tuple[float, Optional[int]]:
    # The angle sum at a hub of radius r, and the index in rotation order of
    # the first face flat beyond ACOS_SLACK, or None.  A flat face saturates at
    # 0 or pi instead of raising, which keeps bisection brackets well defined.
    k = len(ru)
    a2 = [0.0] * k
    a = [0.0] * k
    for i in range(k):
        ri = ru[i]
        t = r * r + ri * ri + 2.0 * r * ri * spoke_cos[i]
        a2[i] = t
        a[i] = math.sqrt(t)
    total = 0.0
    flat = None
    for i in range(k):
        j = i + 1 if i + 1 < k else 0
        u = (a2[i] + a2[j] - opp2[i]) / (2.0 * a[i] * a[j])
        if u >= 1.0 or u <= -1.0:
            if flat is None and abs(u) > 1.0 + ACOS_SLACK:
                flat = i
            if u < 0.0:
                total += math.pi
        else:
            total += math.acos(u)
    return total, flat


def _solve_vertex(
    r: float,
    ru: list[float],
    spoke_cos: tuple[float, ...],
    opp2: list[float],
    angle_stop: float,
    span: float,
) -> float:
    # Bisection on the decreasing angle-sum equation.  `span` is a relative
    # half-width hint for the initial bracket (how far the root moved last
    # sweep); `angle_stop` is the angle spread at which the bracket is
    # considered solved.
    f = _fan_angle_sum(r, ru, spoke_cos, opp2)[0]
    if abs(f - _TWO_PI) <= 0.25 * angle_stop:
        return r
    if f > _TWO_PI:
        lo, flo = r, f
        step = 1.0 + span
        hi = r * step
        fhi = _fan_angle_sum(hi, ru, spoke_cos, opp2)[0]
        while fhi >= _TWO_PI:
            lo, flo = hi, fhi
            step = min(step * step, 1e16)
            hi *= step
            if not math.isfinite(hi):
                raise NonConvergenceError(
                    "angle-sum equation has no root: sum stays above 2*pi", flo - _TWO_PI, 0
                )
            fhi = _fan_angle_sum(hi, ru, spoke_cos, opp2)[0]
    else:
        hi, fhi = r, f
        step = 1.0 + span
        lo = r / step
        flo = _fan_angle_sum(lo, ru, spoke_cos, opp2)[0]
        while flo <= _TWO_PI:
            hi, fhi = lo, flo
            step = min(step * step, 1e16)
            lo /= step
            if lo == 0.0:
                raise NonConvergenceError(
                    "angle-sum equation has no root: sum stays below 2*pi", _TWO_PI - fhi, 0
                )
            flo = _fan_angle_sum(lo, ru, spoke_cos, opp2)[0]
    while flo - fhi > angle_stop:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = _fan_angle_sum(mid, ru, spoke_cos, opp2)[0]
        if fm > _TWO_PI:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def solve_radii(problem: LayoutProblem, initial: Optional[Mapping[str, float]] = None) -> RadiiSolution:
    """Solve for interior radii making every interior angle sum 2*pi.

    Boundary radii are held fixed.  Interior radii start at the mean
    boundary radius unless `initial` overrides them.  Stops when the largest
    angle-sum residual drops to problem.tol, raising NonConvergenceError
    (with the best residual seen) once max_iter sweeps are spent, or at once
    when a sweep changes nothing, since every later sweep would repeat it.
    DegenerateTriangleError names a face flat at the solution, or a fan whose
    sides under- or overflow, as angle_sum does.
    """
    unit = _unit(problem)
    radii = {v: r * unit for v, r in problem.boundary_radii.items()}
    warn_list: list[str] = []
    if any(theta > math.pi / 2 + 1e-12 for theta in problem.labels.values()):
        warn_list.append(HIGH_LABEL_WARNING)
        _warnings.warn(HIGH_LABEL_WARNING)
    interior = problem.interior_vertices
    mean_b = math.fsum(radii.values()) / len(radii)
    for v in interior:
        if initial is None or v not in initial:
            radii[v] = mean_b
        else:
            # A start that underflows in these units starts at the smallest
            # float instead of at 0, where the bisection could not move.
            radii[v] = max(_positive(initial[v], f"initial radius at {v!r}") * unit, math.ulp(0.0))
    if not interior:
        return RadiiSolution(dict(problem.boundary_radii), 0.0, 0, tuple(warn_list))

    floor_stop = max(problem.tol / 32.0, 1e-15)
    spans = dict.fromkeys(interior, 0.5)
    best = math.inf
    residual = math.inf
    try:
        for sweep in range(1, problem.max_iter + 1):
            angle_stop = max(residual * 1e-2, floor_stop) if math.isfinite(residual) else 1e-4
            # A sweep after the first that changes no radius and no span
            # leaves the residual, and so angle_stop, as they were: every
            # later sweep would repeat it exactly.
            repeats = sweep > 1
            for v, (rot, spoke_cos, rim_cos) in problem.fans.items():
                ru, opp2 = _fan_radii(rot, rim_cos, radii)
                old = radii[v]
                new = _solve_vertex(old, ru, spoke_cos, opp2, angle_stop, spans[v])
                radii[v] = new
                span = max(8.0 * abs(new - old) / new, 1e-12)
                repeats = repeats and new == old and span == spans[v]
                spans[v] = span
            residual = 0.0
            first_flat = None
            for v, (rot, spoke_cos, rim_cos) in problem.fans.items():
                ru, opp2 = _fan_radii(rot, rim_cos, radii)
                total, flat = _fan_angle_sum(radii[v], ru, spoke_cos, opp2)
                if math.isnan(total):
                    _check_fan(v, rot, total, flat)
                residual = max(residual, abs(total - _TWO_PI))
                if first_flat is None and flat is not None:
                    first_flat = v, rot, total, flat
            best = min(best, residual)
            if residual <= problem.tol:
                if first_flat is not None:
                    _check_fan(*first_flat)
                solved = {v: radii[v] / unit for v in interior}
                return RadiiSolution({**problem.boundary_radii, **solved}, residual, sweep, tuple(warn_list))
            if repeats:
                raise NonConvergenceError(
                    f"no convergence: sweep {sweep} left every radius unchanged (best residual {best:.3e})",
                    best,
                    sweep,
                )
    except ZeroDivisionError:
        # A side at fan v underflowed to 0; this raises.
        _check_fan(v, rot, math.nan, None)
    raise NonConvergenceError(
        f"no convergence after {problem.max_iter} sweeps (best residual {best:.3e})",
        best,
        problem.max_iter,
    )


def place_centers(problem: LayoutProblem, radii: Mapping[str, float]) -> tuple[DiskSet, float]:
    """Walk the interior faces from a root edge and intersect distances.

    The root edge lies along the positive x axis from the origin; every
    further vertex is cut in from two placed neighbors, on the left of the
    directed base edge so the drawing follows the rotation system.  Returns
    the disks and the closure residual, the worst disagreement when a face
    walk returns to an already placed vertex.
    """
    emb = problem.embedding
    _check_radii(radii, emb.graph.vertices)
    faces, face_of = problem.faces.faces, problem.faces.face_index()
    outer = problem.outer_face
    unit = _unit(problem)
    lengths = {k: edge_length(radii[k[0]] * unit, radii[k[1]] * unit, theta) for k, theta in problem.labels.items()}
    interior_edges = [de for de, f in face_of.items() if f != outer]
    # Without an interior face, as for a lone edge, only the root edge is placed.
    u0, v0 = min(interior_edges or face_of)
    pos = {u0: 0j, v0: complex(lengths[edge_key(u0, v0)], 0.0)}

    closure = 0.0
    seen = {outer}
    queue: deque[tuple[int, tuple[str, str]]] = deque([(face_of[(u0, v0)], (u0, v0))])
    while queue:
        fidx, (u, v) = queue.popleft()
        if fidx in seen:
            continue
        seen.add(fidx)
        face = faces[fidx]
        w = next(x for x, _ in face if x != u and x != v)
        base = pos[v] - pos[u]
        d = abs(base)
        a = lengths[edge_key(u, w)]
        b = lengths[edge_key(v, w)]
        x = (d * d + a * a - b * b) / (2.0 * d)
        h2 = a * a - x * x
        h = math.sqrt(h2) if h2 > 0.0 else 0.0
        cand = pos[u] + complex(x, h) * base / d
        if w in pos:
            closure = max(closure, abs(pos[w] - cand))
        else:
            pos[w] = cand
        for p, q in face:
            tf = face_of[(q, p)]
            if tf not in seen:
                queue.append((tf, (q, p)))

    if len(pos) != len(emb.graph.vertices):
        raise UnsupportedInputError(
            "interior faces do not connect all vertices; the patch cannot be placed by a face walk"
        )
    closure /= unit
    if closure > 100.0 * problem.tol:
        raise InconsistentLayoutError(
            f"face walk closed with residual {closure:.3e}, beyond 100*tol = {100.0 * problem.tol:.3e}"
        )
    disks = DiskSet(tuple(
        Disk(v, pos[v].real / unit, pos[v].imag / unit, float(radii[v])) for v in emb.graph.vertices
    ))
    return disks, closure


def pack(problem: LayoutProblem) -> DiskSet:
    """Solve radii, then place centers: a labeled patch realized as disks."""
    solution = solve_radii(problem)
    disks, _ = place_centers(problem, solution.radii)
    return disks
