"""Contact graphs, rotation systems and the combinatorial feasibility gates.

A rotation system records the counterclockwise cyclic order of neighbors
around each vertex.  Faces are traced with the convention that the edge
following u->v is v->w where w immediately precedes u in the rotation at v;
with rotations taken from an actual drawing this walks every interior face
counterclockwise and the outer face once along the hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Optional

from .errors import (
    InconsistentBoundaryError,
    InvalidInputError,
    UnsupportedInputError,
)

# Comparisons of label sums against the closed-chain bound absorb this much
# accumulated roundoff.
ANGLE_SUM_SLACK = 1e-12


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical undirected edge key: endpoint ids in sorted order."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An undirected graph as a vertex list plus an edge list.

    Loops and repeated edges are representable on purpose so that
    validate_simple can report them; every other operation assumes a
    simple graph.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            first = set()
            for v in self.vertices:
                if v in first:
                    raise InvalidInputError(f"duplicate vertex id {v!r}")
                first.add(v)
        if not seen.issuperset(chain.from_iterable(self.edges)):
            for u, v in self.edges:
                if u not in seen or v not in seen:
                    raise InvalidInputError(f"edge ({u!r}, {v!r}) names an unknown vertex")

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def edge_keys(self) -> set[tuple[str, str]]:
        # edge_key, inlined: this runs once per edge of every labeled graph.
        return {(u, v) if u <= v else (v, u) for u, v in self.edges}


@dataclass(frozen=True)
class SimplicityReport:
    ok: bool
    loops: tuple[str, ...]
    repeated: tuple[tuple[str, str], ...]


def validate_simple(g: Graph) -> SimplicityReport:
    """Report loops and repeated edges; violations are data, not errors."""
    loops = sorted({u for u, v in g.edges if u == v})
    counts: dict[tuple[str, str], int] = {}
    for u, v in g.edges:
        if u != v:
            k = edge_key(u, v)
            counts[k] = counts.get(k, 0) + 1
    repeated = sorted(k for k, n in counts.items() if n > 1)
    return SimplicityReport(not loops and not repeated, tuple(loops), tuple(repeated))


@dataclass(frozen=True)
class EdgeBoundReport:
    """Edge-count gate |E| <= 3|V| - 6.

    Passing is necessary for planarity, not a certificate of it.
    """

    ok: bool
    vertex_count: int
    edge_count: int
    bound: Optional[int]


def planarity_necessary(g: Graph) -> EdgeBoundReport:
    """Check the planar edge-count bound for a simple graph."""
    if not validate_simple(g).ok:
        raise InvalidInputError("edge-count bound applies to simple graphs only")
    n = len(g.vertices)
    m = len(g.edge_keys())
    if n < 3:
        return EdgeBoundReport(True, n, m, None)
    bound = 3 * n - 6
    return EdgeBoundReport(m <= bound, n, m, bound)


@dataclass(frozen=True)
class EmbeddedGraph:
    """A simple graph with a rotation system and an optional boundary.

    rotation[v] lists the neighbors of v exactly once, in counterclockwise
    order.  boundary names the vertices intended to lie on the outer face;
    it may be empty for closed-up embeddings.
    """

    graph: Graph
    rotation: Mapping[str, tuple[str, ...]]
    boundary: frozenset = frozenset()

    def __post_init__(self):
        simple = validate_simple(self.graph)
        if not simple.ok:
            raise InvalidInputError(
                f"rotation systems need a simple graph (loops {simple.loops!r}, "
                f"repeated {simple.repeated!r})"
            )
        adj = self.graph.adjacency()
        if set(self.rotation) != set(self.graph.vertices):
            raise InvalidInputError("rotation must cover every vertex exactly")
        for v, order in self.rotation.items():
            if sorted(order) != sorted(adj[v]):
                raise InvalidInputError(
                    f"rotation at {v!r} must list the neighbors of {v!r} exactly once"
                )
        for v in self.boundary:
            if v not in adj:
                raise InvalidInputError(f"boundary vertex {v!r} is not in the graph")

    def directed_edges(self) -> list[tuple[str, str]]:
        return sorted((v, u) for v, order in self.rotation.items() for u in order)


@dataclass(frozen=True)
class FaceDecomposition:
    """Faces of an embedded graph plus its Euler count.

    Each face is a tuple of directed edges; ok means the Euler
    characteristic V - E + F equals 2 (a sphere/plane embedding).
    """

    faces: tuple[tuple[tuple[str, str], ...], ...]
    vertex_count: int
    edge_count: int
    face_count: int
    characteristic: int

    @property
    def ok(self) -> bool:
        return self.characteristic == 2

    def face_index(self) -> dict[tuple[str, str], int]:
        return {de: i for i, face in enumerate(self.faces) for de in face}

    def face_vertices(self, i: int) -> tuple[str, ...]:
        return tuple(u for u, _ in self.faces[i])


def _check_connected(g: Graph) -> None:
    if not g.vertices:
        raise UnsupportedInputError("face traversal needs a nonempty graph")
    adj = g.adjacency()
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(g.vertices):
        raise UnsupportedInputError("face traversal is only supported for connected graphs")


def faces_from_rotation(eg: EmbeddedGraph) -> FaceDecomposition:
    """Trace all faces of the rotation system and report the Euler count."""
    _check_connected(eg.graph)
    prev: dict[str, dict[str, str]] = {}
    for v, order in eg.rotation.items():
        k = len(order)
        prev[v] = {order[i]: order[i - 1] for i in range(k)}
    visited: set[tuple[str, str]] = set()
    faces: list[tuple[tuple[str, str], ...]] = []
    for start in eg.directed_edges():
        if start in visited:
            continue
        cycle = []
        cur = start
        while cur not in visited:
            visited.add(cur)
            cycle.append(cur)
            u, v = cur
            cur = (v, prev[v][u])
        # start each face at its smallest directed edge so output is stable
        pivot = cycle.index(min(cycle))
        faces.append(tuple(cycle[pivot:] + cycle[:pivot]))
    faces.sort()
    n = len(eg.graph.vertices)
    m = len(eg.graph.edge_keys())
    f = len(faces)
    return FaceDecomposition(tuple(faces), n, m, f, n - m + f)


def outer_face_index(
    eg: EmbeddedGraph,
    decomp: FaceDecomposition,
    outer_edge: Optional[tuple[str, str]] = None,
) -> int:
    """Pick the face playing the role of the outer (unbounded) one.

    An explicit directed edge wins; otherwise the boundary vertex set must
    match the vertex set of some face (the longest such face on ties).
    """
    if outer_edge is not None:
        idx = decomp.face_index().get(tuple(outer_edge))
        if idx is None:
            raise InvalidInputError(f"directed edge {outer_edge!r} is not in the embedding")
        return idx
    if not eg.boundary:
        raise InvalidInputError("no boundary given and no outer edge designated")
    target = set(eg.boundary)
    candidates = [i for i in range(len(decomp.faces)) if set(decomp.face_vertices(i)) == target]
    if not candidates:
        raise InconsistentBoundaryError(
            f"boundary vertices {sorted(target)!r} do not bound a common face"
        )
    return max(candidates, key=lambda i: (len(decomp.faces[i]), -i))


def is_triangulated(eg: EmbeddedGraph) -> bool:
    """True when every face except the outer one is a triangle.

    The outer face is the one the declared boundary bounds.  Without a
    boundary, any single face may play the outer role, so the embedding
    passes iff at most one face is not a triangle.
    """
    return triangulation(eg)[2]


def triangulation(eg: EmbeddedGraph) -> tuple[FaceDecomposition, Optional[int], bool]:
    """is_triangulated with its one face trace kept: the faces, the outer face's
    index (None without a boundary) and the verdict."""
    decomp = faces_from_rotation(eg)
    if not decomp.ok:
        raise InvalidInputError(
            f"rotation system is not planar (Euler characteristic {decomp.characteristic})"
        )
    if not eg.boundary:
        return decomp, None, sum(1 for f in decomp.faces if len(f) != 3) <= 1
    outer = outer_face_index(eg, decomp)
    return decomp, outer, all(len(f) == 3 for i, f in enumerate(decomp.faces) if i != outer)


@dataclass(frozen=True)
class LabeledContactGraph:
    """A simple graph with an overlap-angle label in [0, pi) per edge.

    Edges without an explicit label get 0 (tangency).
    """

    graph: Graph
    labels: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        keys = self.graph.edge_keys()
        labels = self.labels
        # Labels already keyed by edge keys, with float values in range, are
        # taken as they are; a float in [0, pi) is finite.
        if keys.issuperset(labels) and all(type(t) is float and 0.0 <= t < math.pi for t in labels.values()):
            normalized = dict(labels)
        else:
            normalized = {}
            for (u, v), theta in labels.items():
                k = edge_key(u, v)
                if k not in keys:
                    raise InvalidInputError(f"label on {k!r}, which is not an edge")
                # Compared, not converted: exact on a huge int, false on NaN.
                if not 0.0 <= theta < math.pi:
                    raise InvalidInputError(f"label on {k!r} must lie in [0, pi), got {theta!r}")
                normalized[k] = float(theta)
        if len(normalized) < len(keys):
            for k in keys:
                normalized.setdefault(k, 0.0)
        object.__setattr__(self, "labels", normalized)

    def label(self, u: str, v: str) -> float:
        return self.labels[edge_key(u, v)]


def _require_simple(g: Graph, what: str) -> None:
    if not validate_simple(g).ok:
        raise InvalidInputError(f"{what} is defined for simple graphs only")


def chordless_4cycles(lg: LabeledContactGraph) -> tuple[tuple[str, str, str, str], ...]:
    """All 4-cycles of the graph in which neither diagonal is an edge.

    Each cycle appears once, as (a, b, c, d) in cycle order starting at its
    smallest vertex and heading toward its smaller neighbor.
    """
    g = lg.graph
    _require_simple(g, "chordless 4-cycle enumeration")
    adj = g.adjacency()
    verts = sorted(adj)
    found: dict[frozenset, tuple[str, str, str, str]] = {}
    for i, u in enumerate(verts):
        for w in verts[i + 1:]:
            if w in adj[u]:
                continue
            common = sorted(adj[u] & adj[w])
            for j, v in enumerate(common):
                for x in common[j + 1:]:
                    if x in adj[v]:
                        continue
                    cyc = _canonical_cycle(u, v, w, x)
                    found[frozenset((edge_key(u, v), edge_key(v, w), edge_key(w, x), edge_key(x, u)))] = cyc
    return tuple(sorted(found.values()))


def _canonical_cycle(u: str, v: str, w: str, x: str) -> tuple[str, str, str, str]:
    # cycle order u-v-w-x; rotate/reflect so the smallest vertex leads and
    # its smaller cycle-neighbor follows
    ring = [u, v, w, x]
    k = ring.index(min(ring))
    a = ring[k]
    left, right = ring[k - 1], ring[(k + 1) % 4]
    if right <= left:
        return (a, right, ring[(k + 2) % 4], left)
    return (a, left, ring[(k + 2) % 4], right)


@dataclass(frozen=True)
class QuadFeasibilityReport:
    """Chordless 4-cycles whose label sum reaches the closed-chain bound 2*pi.

    An empty `infeasible` passes the gate; like the edge-count bound this is
    necessary, never a certificate of realizability.
    """

    ok: bool
    infeasible: tuple[tuple[tuple[str, str, str, str], float], ...]


def quad_feasibility(lg: LabeledContactGraph) -> QuadFeasibilityReport:
    """Flag every chordless 4-cycle whose four labels sum to 2*pi or more."""
    bad = []
    for cyc in chordless_4cycles(lg):
        a, b, c, d = cyc
        total = lg.label(a, b) + lg.label(b, c) + lg.label(c, d) + lg.label(d, a)
        if total >= 2.0 * math.pi - ANGLE_SUM_SLACK:
            bad.append((cyc, total))
    return QuadFeasibilityReport(not bad, tuple(bad))


def rotation_from_positions(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str]],
    pos: Mapping[str, complex],
) -> dict[str, tuple[str, ...]]:
    """Counterclockwise rotation system induced by vertex coordinates."""
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    rot = {}
    for v, nbrs in adj.items():
        rot[v] = tuple(sorted(nbrs, key=lambda u: (math.atan2((pos[u] - pos[v]).imag, (pos[u] - pos[v]).real), u)))
    return rot
