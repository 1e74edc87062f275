"""Realizing a labeled triangulated patch as an actual disk layout.

The radius step enforces the flat-angle condition: around every interior
vertex the incident triangle angles must sum to exactly 2*pi.  Radii are
solved by Gauss-Seidel sweeps with a monotone bisection per vertex, which
is slow but dependable at desk scale; centers are then placed by walking
the interior faces outward from a root edge.

Labels above pi/2 leave the regime where the per-vertex angle sum is
guaranteed monotone in the radius, so the solver warns and degrades to
best effort there.
"""

from __future__ import annotations

import math
import warnings as _warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .analysis import DiskSet
from .errors import (
    DegenerateTriangleError,
    InconsistentLayoutError,
    InvalidInputError,
    NonConvergenceError,
    UnsupportedInputError,
)
from .geometry import Disk, edge_length, triangle_angle
from .graph import (
    EmbeddedGraph,
    LabeledContactGraph,
    edge_key,
    faces_from_rotation,
    is_triangulated,
    outer_face_index,
)

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
    """

    embedding: EmbeddedGraph
    boundary_radii: Mapping[str, float]
    labels: Mapping[tuple[str, str], float] = field(default_factory=dict)
    tol: float = 1e-10
    max_iter: int = 100_000

    def __post_init__(self):
        if not self.embedding.boundary:
            raise InvalidInputError("layout needs a nonempty boundary")
        if not is_triangulated(self.embedding):
            raise InvalidInputError("layout needs a triangulated embedding")
        if set(self.boundary_radii) != set(self.embedding.boundary):
            raise InvalidInputError("boundary_radii must cover exactly the boundary vertices")
        for v, r in self.boundary_radii.items():
            if not (isinstance(r, (int, float)) and math.isfinite(r) and r > 0):
                raise InvalidInputError(f"boundary radius at {v!r} must be positive, got {r!r}")
        object.__setattr__(self, "labels", LabeledContactGraph(self.embedding.graph, self.labels).labels)
        object.__setattr__(self, "boundary_radii", dict(self.boundary_radii))
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise InvalidInputError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise InvalidInputError(f"max_iter must be at least 1, got {self.max_iter!r}")

    @property
    def interior_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in sorted(self.embedding.graph.vertices) if v not in self.embedding.boundary)


@dataclass(frozen=True)
class RadiiSolution:
    """Solved radii with the final angle-sum residual and sweep count."""

    radii: dict[str, float]
    residual: float
    iterations: int
    warnings: tuple[str, ...] = ()


def angle_sum(v: str, radii: Mapping[str, float], problem: LayoutProblem) -> float:
    """Sum of the triangle angles at interior vertex v under these radii."""
    if v in problem.embedding.boundary:
        raise InvalidInputError(f"angle sums are defined at interior vertices; {v!r} is boundary")
    if v not in problem.embedding.rotation:
        raise InvalidInputError(f"unknown vertex {v!r}")
    rot = problem.embedding.rotation[v]
    labels = problem.labels
    r_v = radii[v]
    total = 0.0
    k = len(rot)
    for i in range(k):
        u, w = rot[i], rot[(i + 1) % k]
        a = edge_length(r_v, radii[u], labels[edge_key(v, u)])
        b = edge_length(r_v, radii[w], labels[edge_key(v, w)])
        opp = edge_length(radii[u], radii[w], labels[edge_key(u, w)])
        try:
            total += triangle_angle(opp, a, b)
        except DegenerateTriangleError as exc:
            raise DegenerateTriangleError(f"face ({v}, {u}, {w}) is degenerate at these radii") from exc
    return total


def _fan_angle_sum(r: float, ru: list[float], spoke_cos: list[float], opp2: list[float]) -> float:
    # Clamped variant for the solver: a flat triangle saturates at 0 or pi
    # instead of raising, which keeps bisection brackets well defined.
    k = len(ru)
    a2 = [0.0] * k
    a = [0.0] * k
    for i in range(k):
        ri = ru[i]
        t = r * r + ri * ri + 2.0 * r * ri * spoke_cos[i]
        a2[i] = t
        a[i] = math.sqrt(t)
    total = 0.0
    for i in range(k):
        j = i + 1 if i + 1 < k else 0
        u = (a2[i] + a2[j] - opp2[i]) / (2.0 * a[i] * a[j])
        if u >= 1.0:
            continue
        if u <= -1.0:
            total += math.pi
        else:
            total += math.acos(u)
    return total


def _solve_vertex(
    r: float,
    ru: list[float],
    spoke_cos: list[float],
    opp2: list[float],
    angle_stop: float,
    span: float,
) -> float:
    # Bisection on the decreasing angle-sum equation.  `span` is a relative
    # half-width hint for the initial bracket (how far the root moved last
    # sweep); `angle_stop` is the angle spread at which the bracket is
    # considered solved.
    f = _fan_angle_sum(r, ru, spoke_cos, opp2)
    if abs(f - _TWO_PI) <= 0.25 * angle_stop:
        return r
    if f > _TWO_PI:
        lo, flo = r, f
        step = 1.0 + span
        hi = r * step
        fhi = _fan_angle_sum(hi, ru, spoke_cos, opp2)
        while fhi >= _TWO_PI:
            lo, flo = hi, fhi
            step = min(step * step, 1e16)
            hi *= step
            if not math.isfinite(hi):
                raise NonConvergenceError(
                    "angle-sum equation has no root: sum stays above 2*pi", flo - _TWO_PI, 0
                )
            fhi = _fan_angle_sum(hi, ru, spoke_cos, opp2)
    else:
        hi, fhi = r, f
        step = 1.0 + span
        lo = r / step
        flo = _fan_angle_sum(lo, ru, spoke_cos, opp2)
        while flo <= _TWO_PI:
            hi, fhi = lo, flo
            step = min(step * step, 1e16)
            lo /= step
            if lo == 0.0:
                raise NonConvergenceError(
                    "angle-sum equation has no root: sum stays below 2*pi", _TWO_PI - fhi, 0
                )
            flo = _fan_angle_sum(lo, ru, spoke_cos, opp2)
    while flo - fhi > angle_stop:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = _fan_angle_sum(mid, ru, spoke_cos, opp2)
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
    (with the best residual seen) once max_iter sweeps are spent.
    """
    emb = problem.embedding
    labels = problem.labels
    radii = {v: float(problem.boundary_radii[v]) for v in emb.boundary}
    warn_list: list[str] = []
    if any(theta > math.pi / 2 + 1e-12 for theta in labels.values()):
        warn_list.append(HIGH_LABEL_WARNING)
        _warnings.warn(HIGH_LABEL_WARNING)
    interior = problem.interior_vertices
    mean_b = math.fsum(radii.values()) / len(radii)
    for v in interior:
        r0 = mean_b if initial is None else float(initial.get(v, mean_b))
        if not (math.isfinite(r0) and r0 > 0):
            raise InvalidInputError(f"initial radius at {v!r} must be positive, got {r0!r}")
        radii[v] = r0
    if not interior:
        return RadiiSolution(radii, 0.0, 0, tuple(warn_list))

    fans = []
    for v in interior:
        rot = emb.rotation[v]
        k = len(rot)
        spoke_cos = [math.cos(labels[edge_key(v, u)]) for u in rot]
        rim_cos = [math.cos(labels[edge_key(rot[i], rot[(i + 1) % k])]) for i in range(k)]
        fans.append((v, rot, spoke_cos, rim_cos))

    floor_stop = max(problem.tol / 32.0, 1e-15)
    spans = {v: 0.5 for v, *_ in fans}
    best = math.inf
    residual = math.inf
    for sweep in range(1, problem.max_iter + 1):
        angle_stop = max(residual * 1e-2, floor_stop) if math.isfinite(residual) else 1e-4
        for v, rot, spoke_cos, rim_cos in fans:
            ru = [radii[u] for u in rot]
            k = len(ru)
            opp2 = [0.0] * k
            for i in range(k):
                j = i + 1 if i + 1 < k else 0
                opp2[i] = ru[i] * ru[i] + ru[j] * ru[j] + 2.0 * ru[i] * ru[j] * rim_cos[i]
            old = radii[v]
            new = _solve_vertex(old, ru, spoke_cos, opp2, angle_stop, spans[v])
            radii[v] = new
            spans[v] = max(8.0 * abs(new - old) / new, 1e-12)
        residual = 0.0
        for v, rot, spoke_cos, rim_cos in fans:
            ru = [radii[u] for u in rot]
            k = len(ru)
            opp2 = [0.0] * k
            for i in range(k):
                j = i + 1 if i + 1 < k else 0
                opp2[i] = ru[i] * ru[i] + ru[j] * ru[j] + 2.0 * ru[i] * ru[j] * rim_cos[i]
            residual = max(residual, abs(_fan_angle_sum(radii[v], ru, spoke_cos, opp2) - _TWO_PI))
        best = min(best, residual)
        if residual <= problem.tol:
            for v in interior:
                angle_sum(v, radii, problem)  # raises if a face is flat at the solution
            return RadiiSolution(dict(radii), residual, sweep, tuple(warn_list))
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
    decomp = faces_from_rotation(emb)
    outer = outer_face_index(emb, decomp)
    face_of = decomp.face_index()
    labels = problem.labels

    lengths = {k: edge_length(radii[k[0]], radii[k[1]], theta) for k, theta in labels.items()}

    interior_edges = sorted(de for de, f in face_of.items() if f != outer)
    pos: dict[str, complex] = {}
    if not interior_edges:
        if len(emb.graph.vertices) == 2:
            u0, v0 = sorted(emb.graph.vertices)
            pos[u0] = 0j
            pos[v0] = complex(lengths[edge_key(u0, v0)], 0.0)
            disks = DiskSet(tuple(Disk(v, pos[v].real, pos[v].imag, float(radii[v])) for v in emb.graph.vertices))
            return disks, 0.0
        raise UnsupportedInputError("no interior face to start the walk from")
    u0, v0 = interior_edges[0]
    pos[u0] = 0j
    pos[v0] = complex(lengths[edge_key(u0, v0)], 0.0)

    closure = 0.0
    seen = {outer}
    queue: deque[tuple[int, tuple[str, str]]] = deque([(face_of[(u0, v0)], (u0, v0))])
    while queue:
        fidx, (u, v) = queue.popleft()
        if fidx in seen:
            continue
        seen.add(fidx)
        face = decomp.faces[fidx]
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
    if closure > 100.0 * problem.tol:
        raise InconsistentLayoutError(
            f"face walk closed with residual {closure:.3e}, beyond 100*tol = {100.0 * problem.tol:.3e}"
        )
    disks = DiskSet(tuple(Disk(v, pos[v].real, pos[v].imag, float(radii[v])) for v in emb.graph.vertices))
    return disks, closure


def pack(problem: LayoutProblem, initial: Optional[Mapping[str, float]] = None) -> DiskSet:
    """Solve radii, then place centers: a labeled patch realized as disks."""
    solution = solve_radii(problem, initial)
    disks, _ = place_centers(problem, solution.radii)
    return disks
