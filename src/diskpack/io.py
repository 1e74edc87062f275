"""Reading and writing the two document formats, plus SVG rendering.

Graph documents are JSON objects with exactly the fields `vertices`,
`rotation`, `boundary`, `boundary_radii` and `angles_deg`; angle keys are
"i:j" with the endpoint ids in sorted order and values in degrees within
[0, 180).  Disk documents are JSON arrays of records with exactly the
fields id, x, y, r.  Angles become radians the moment a document turns
into a library object; documents themselves keep the wire unit so a
read/write cycle is bit exact.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

from .analysis import DiskSet
from .errors import ParseError
from .geometry import Disk
from .graph import EmbeddedGraph, Graph, LabeledContactGraph
from .layout import LayoutProblem

GRAPH_FIELDS = ("vertices", "rotation", "boundary", "boundary_radii", "angles_deg")
DISK_FIELDS = ("id", "x", "y", "r")
_DISK_KEYS = frozenset(DISK_FIELDS)


def _require_number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, f"expected a number, got {value!r}")
    # Compared before converting: float() raises OverflowError on an int
    # beyond the largest float.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ParseError(path, f"expected a finite number, got {value!r}")
    x = float(value)
    if positive and x <= 0:
        raise ParseError(path, f"expected a positive number, got {value!r}")
    return x


def _check_known(ids: list, known: set, path: str) -> None:
    """Raise the error of the first entry of ids that is not a known id.

    known holds strings only, so when it is a superset of ids every entry is
    a known id and a string, and no entry needs a look of its own.
    """
    try:
        if known.issuperset(ids):
            return
    except TypeError:  # an unhashable entry: a JSON array or object
        pass
    for i, u in enumerate(ids):
        if not isinstance(u, str):
            raise ParseError(f"{path}[{i}]", f"expected a string, got {u!r}")
        if u not in known:
            raise ParseError(f"{path}[{i}]", f"unknown vertex id {u!r}")


def _parse_json(text: Union[str, bytes], what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"not valid JSON for a {what}: {exc}") from exc


@dataclass(frozen=True)
class GraphDocument:
    """In-memory form of a graph document; angles stay in degrees here."""

    vertices: tuple[str, ...]
    rotation: dict[str, tuple[str, ...]]
    boundary: tuple[str, ...] = ()
    boundary_radii: dict[str, float] = field(default_factory=dict)
    angles_deg: dict[str, float] = field(default_factory=dict)

    def edge_list(self) -> tuple[tuple[str, str], ...]:
        # Multiset of edges implied by the rotation: each u > v listing is one
        # edge (the u < v mirror is skipped), each self listing one loop.
        edges = [(v, u) for v in self.vertices for u in self.rotation[v] if u >= v]
        edges.sort()
        return tuple(edges)

    def to_graph(self) -> Graph:
        return Graph(self.vertices, self.edge_list())

    def to_embedded_graph(self) -> EmbeddedGraph:
        return EmbeddedGraph(self.to_graph(), dict(self.rotation), frozenset(self.boundary))

    def labels_radians(self) -> dict[tuple[str, str], float]:
        out = {}
        for key, deg in self.angles_deg.items():
            u, _, v = key.partition(":")
            out[(u, v)] = math.radians(deg)
        return out

    def to_labeled_graph(self) -> LabeledContactGraph:
        return LabeledContactGraph(self.to_graph(), self.labels_radians())

    def to_layout_problem(self, tol: float = 1e-10, max_iter: int = 100_000) -> LayoutProblem:
        return LayoutProblem(
            self.to_embedded_graph(),
            dict(self.boundary_radii),
            self.labels_radians(),
            tol=tol,
            max_iter=max_iter,
        )


def read_graph(text: Union[str, bytes]) -> GraphDocument:
    """Parse and validate a graph document; errors carry the JSON path."""
    data = _parse_json(text, "graph document")
    if not isinstance(data, dict):
        raise ParseError("$", "graph document must be a JSON object")
    for k in data:
        if k not in GRAPH_FIELDS:
            raise ParseError(str(k), "unknown field")
    for k in GRAPH_FIELDS:
        if k not in data:
            raise ParseError(k, "missing field")

    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices", "expected a list of vertex ids")
    seen = set()
    for i, v in enumerate(raw_vertices):
        if not isinstance(v, str):
            raise ParseError(f"vertices[{i}]", f"expected a string, got {v!r}")
        if v in seen:
            raise ParseError(f"vertices[{i}]", f"duplicate vertex id {v!r}")
        seen.add(v)
    vertices = tuple(raw_vertices)

    raw_rotation = data["rotation"]
    if not isinstance(raw_rotation, dict):
        raise ParseError("rotation", "expected an object mapping vertex id to neighbor list")
    for v in raw_rotation:
        if v not in seen:
            raise ParseError(f"rotation.{v}", "unknown vertex id")
    rotation: dict[str, tuple[str, ...]] = {}
    for v in vertices:
        if v not in raw_rotation:
            raise ParseError("rotation", f"missing entry for vertex {v!r}")
        order = raw_rotation[v]
        if not isinstance(order, list):
            raise ParseError(f"rotation.{v}", "expected a list of neighbor ids")
        _check_known(order, seen, f"rotation.{v}")
        rotation[v] = tuple(order)
    # An edge must be listed as often from either end.  When no rotation
    # lists a neighbor twice, that holds when every listing has its mirror;
    # otherwise the listings are counted.
    neighbors = {v: set(order) for v, order in rotation.items()}
    if not (
        all(len(neighbors[v]) == len(order) for v, order in rotation.items())
        and all(v in neighbors[u] for v, order in rotation.items() for u in order)
    ):
        for v, order in rotation.items():
            for u in dict.fromkeys(order):
                here, there = order.count(u), rotation[u].count(v)
                if u != v and here != there:
                    raise ParseError(
                        f"rotation.{v}",
                        f"edge to {u!r} is not mirrored: {here} listing(s) here, {there} there",
                    )

    raw_boundary = data["boundary"]
    if not isinstance(raw_boundary, list):
        raise ParseError("boundary", "expected a list of vertex ids")
    bset = set()
    for i, v in enumerate(raw_boundary):
        if not isinstance(v, str):
            raise ParseError(f"boundary[{i}]", f"expected a string, got {v!r}")
        if v not in seen:
            raise ParseError(f"boundary[{i}]", f"unknown vertex id {v!r}")
        if v in bset:
            raise ParseError(f"boundary[{i}]", f"duplicate boundary id {v!r}")
        bset.add(v)
    boundary = tuple(raw_boundary)

    raw_radii = data["boundary_radii"]
    if not isinstance(raw_radii, dict):
        raise ParseError("boundary_radii", "expected an object mapping vertex id to radius")
    radii = {}
    for v, r in raw_radii.items():
        if v not in seen:
            raise ParseError(f"boundary_radii.{v}", "unknown vertex id")
        radii[v] = _require_number(r, f"boundary_radii.{v}", positive=True)

    raw_angles = data["angles_deg"]
    if not isinstance(raw_angles, dict):
        raise ParseError("angles_deg", "expected an object mapping 'i:j' to degrees")
    angles = {}
    for key, value in raw_angles.items():
        u, sep, v = key.partition(":")
        if not sep or not u or not v:
            raise ParseError(f"angles_deg.{key}", "key must look like 'i:j'")
        if u > v:
            raise ParseError(f"angles_deg.{key}", "endpoint ids must be in sorted order")
        if u not in seen or v not in seen:
            raise ParseError(f"angles_deg.{key}", "names an unknown vertex")
        # The listings are mirrored, so u lists v exactly when u-v is an edge.
        if v not in neighbors[u]:
            raise ParseError(f"angles_deg.{key}", "names a pair that is not an edge of the rotation")
        # A float in [0, 180) is finite and passes as it is.
        deg = value
        if type(deg) is not float or not 0.0 <= deg < 180.0:
            deg = _require_number(value, f"angles_deg.{key}")
            if not 0.0 <= deg < 180.0:
                raise ParseError(f"angles_deg.{key}", f"angle must lie in [0, 180) degrees, got {value!r}")
        angles[key] = deg

    return GraphDocument(vertices, rotation, boundary, radii, angles)


def write_graph(doc: GraphDocument) -> str:
    """Serialize a graph document; numbers keep their shortest exact form."""
    payload = {
        "vertices": list(doc.vertices),
        "rotation": {v: list(doc.rotation[v]) for v in doc.vertices},
        "boundary": list(doc.boundary),
        "boundary_radii": {v: doc.boundary_radii[v] for v in sorted(doc.boundary_radii)},
        "angles_deg": {k: doc.angles_deg[k] for k in sorted(doc.angles_deg)},
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_document_from_layout(problem: LayoutProblem) -> GraphDocument:
    emb = problem.embedding
    angles = {
        f"{u}:{v}": math.degrees(theta)
        for (u, v), theta in sorted(problem.labels.items())
        if theta != 0.0
    }
    return GraphDocument(
        emb.graph.vertices,
        dict(emb.rotation),
        tuple(sorted(emb.boundary)),
        dict(problem.boundary_radii),
        angles,
    )


def graph_document_from_labeled(
    lg: LabeledContactGraph,
    rotation: dict[str, tuple[str, ...]],
    boundary: tuple[str, ...] = (),
    boundary_radii: Optional[dict[str, float]] = None,
) -> GraphDocument:
    angles = {f"{u}:{v}": math.degrees(theta) for (u, v), theta in sorted(lg.labels.items())}
    return GraphDocument(
        lg.graph.vertices,
        rotation,
        boundary,
        dict(boundary_radii or {}),
        angles,
    )


def read_disks(text: Union[str, bytes]) -> DiskSet:
    """Parse and validate a disk document; errors carry the JSON path."""
    data = _parse_json(text, "disk document")
    if not isinstance(data, list):
        raise ParseError("$", "disk document must be a JSON array of records")
    disks = []
    seen = set()
    isfinite = math.isfinite
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise ParseError(f"[{i}]", "expected an object with fields id, x, y, r")
        if rec.keys() != _DISK_KEYS:
            for k in rec:
                if k not in DISK_FIELDS:
                    raise ParseError(f"[{i}].{k}", "unknown field")
            for k in DISK_FIELDS:
                if k not in rec:
                    raise ParseError(f"[{i}]", f"missing field {k!r}")
        disk_id, x, y, r = rec["id"], rec["x"], rec["y"], rec["r"]
        if not isinstance(disk_id, str):
            raise ParseError(f"[{i}].id", f"expected a string, got {disk_id!r}")
        if disk_id in seen:
            raise ParseError(f"[{i}].id", f"duplicate disk id {disk_id!r}")
        seen.add(disk_id)
        # JSON floats that are finite, and a positive radius, pass as they
        # are; anything else goes through the full check.
        if type(x) is not float or not isfinite(x):
            x = _require_number(x, f"[{i}].x")
        if type(y) is not float or not isfinite(y):
            y = _require_number(y, f"[{i}].y")
        if type(r) is not float or not isfinite(r) or r <= 0:
            r = _require_number(r, f"[{i}].r", positive=True)
        disks.append(Disk(disk_id, x, y, r))
    return DiskSet(tuple(disks))


def write_disks(ds: DiskSet) -> str:
    """Serialize disks; repr-exact floats survive a round trip bit for bit."""
    payload = [{"id": d.id, "x": d.cx, "y": d.cy, "r": d.r} for d in ds]
    return json.dumps(payload, indent=2) + "\n"


_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w:.6g}" height="{h:.6g}" '
    'viewBox="{vx:.6g} {vy:.6g} {vw:.6g} {vh:.6g}">\n'
)


def render_svg(
    ds: DiskSet,
    overlay: Union[Graph, LabeledContactGraph, None] = None,
    *,
    width: float = 640.0,
) -> str:
    """Draw the disks as stroked circles, optionally with the contact graph.

    The overlay adds a dashed segment per edge between disk centers and a
    small dot per center.  The viewport fits the drawing with a 5% margin;
    the y axis is flipped so the picture matches plane coordinates.
    """
    if len(ds) == 0:
        return _SVG_HEAD.format(w=width, h=width, vx=0, vy=0, vw=1, vh=1) + "</svg>\n"
    xs_min = min(d.cx - d.r for d in ds)
    xs_max = max(d.cx + d.r for d in ds)
    ys_min = min(-(d.cy + d.r) for d in ds)
    ys_max = max(-(d.cy - d.r) for d in ds)
    span = max(xs_max - xs_min, ys_max - ys_min)
    m = 0.05 * span
    vw = xs_max - xs_min + 2 * m
    vh = ys_max - ys_min + 2 * m
    parts = [
        _SVG_HEAD.format(w=width, h=width * vh / vw, vx=xs_min - m, vy=ys_min - m, vw=vw, vh=vh)
    ]
    sw = 0.006 * span
    stroke = "#1a1a1a"
    for d in ds:
        parts.append(
            f'  <circle class="disk" cx="{d.cx:.6g}" cy="{-d.cy:.6g}" r="{d.r:.6g}" '
            f'fill="none" stroke="{stroke}" stroke-width="{sw:.6g}"/>\n'
        )
    if overlay is not None:
        g = overlay.graph if isinstance(overlay, LabeledContactGraph) else overlay
        dash = f"{0.03 * span:.6g} {0.02 * span:.6g}"
        for u, v in sorted(g.edge_keys()):
            du, dv = ds.by_id(u), ds.by_id(v)
            parts.append(
                f'  <line class="edge" x1="{du.cx:.6g}" y1="{-du.cy:.6g}" '
                f'x2="{dv.cx:.6g}" y2="{-dv.cy:.6g}" '
                f'stroke="{stroke}" stroke-width="{sw:.6g}" stroke-dasharray="{dash}"/>\n'
            )
        dot = 0.015 * span
        for d in ds:
            parts.append(
                f'  <circle class="dot" cx="{d.cx:.6g}" cy="{-d.cy:.6g}" r="{dot:.6g}" '
                f'fill="{stroke}" stroke="none"/>\n'
            )
    parts.append("</svg>\n")
    return "".join(parts)
