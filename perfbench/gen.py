"""Seeded input generators for the benchmark.

Everything here produces document text (the two JSON formats diskpack
reads) plus the facts a check needs to judge the output.  Nothing imports
the library or the test suite: the library only ever sees the text.

Overlap labels are drawn as exactly 0 or from [5, 45] degrees.  Every
separating triangle of a patch then sums below 180 degrees, so the layout
problem is realizable, and no label falls inside the verifier's tangency
band, where a tiny positive label would read back as a tangency.

Every boundary vertex of a patch gets the same radius, and no interior edge
joins two boundary vertices.  Radii drawn apart per boundary vertex put
small disks between large ones, and the large ones then overlap each other
across the boundary.  A boundary vertex joined to other boundary vertices
through the interior gets a wide fan of large neighbors, and its two
boundary neighbors can meet around its outside.  Either way the layout is
not univalent, so the input has no packing at all.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

LABEL_MIN_DEG = 5.0
LABEL_MAX_DEG = 45.0


def _text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _ccw_rotation(ids, pos, adj):
    # Neighbors of each vertex sorted by direction: the rotation system of
    # the straight-line drawing.
    rot = {}
    for v in ids:
        x, y = pos[v]
        rot[v] = sorted(adj[v], key=lambda u: (math.atan2(pos[u][1] - y, pos[u][0] - x), u))
    return rot


def _edge_key(u: str, v: str) -> str:
    return f"{u}:{v}" if u <= v else f"{v}:{u}"


@dataclass(frozen=True)
class Patch:
    """A triangulated patch as a graph document plus its input properties."""

    text: str
    vertices: int
    interior: int
    contacts: int
    labeled_edges: int
    labels: str  # "tangency" or "mixed"


def _has_chord(tri) -> bool:
    # An edge between two hull points that is not itself a hull edge.
    hull = set(np.unique(tri.convex_hull).tolist())
    hull_edges = {frozenset(e) for e in tri.convex_hull.tolist()}
    return any(
        {a, b} <= hull and frozenset((a, b)) not in hull_edges
        for s in tri.simplices.tolist()
        for a, b in ((s[0], s[1]), (s[1], s[2]), (s[0], s[2]))
    )


def delaunay_patch(rng: random.Random, n: int, labels: str) -> Patch:
    """Delaunay triangulation of n points scattered uniformly in a square,
    with the hull as the boundary.  Points are drawn again while an
    interior edge joins two hull points.

    The boundary radius is one value for the whole boundary, uniform in
    [0.5, 2].  With labels == "mixed" each edge is, with equal odds,
    exactly 0 or uniform in [5, 45] degrees; with "tangency" every edge
    is 0.
    """
    if labels not in ("tangency", "mixed"):
        raise ValueError(f"unknown label mix {labels!r}")
    while True:
        pts = np.array([(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(n)])
        tri = Delaunay(pts)
        if not _has_chord(tri):
            break
    width = len(str(n - 1))
    ids = [f"v{i:0{width}d}" for i in range(n)]
    adj = {v: set() for v in ids}
    for simplex in tri.simplices:
        a, b, c = (ids[int(x)] for x in simplex)
        adj[a] |= {b, c}
        adj[b] |= {a, c}
        adj[c] |= {a, b}
    pos = {ids[i]: (float(pts[i][0]), float(pts[i][1])) for i in range(n)}
    hull = sorted(ids[int(i)] for i in np.unique(tri.convex_hull))
    edges = sorted({_edge_key(u, v) for u in ids for v in adj[u]})
    boundary_radius = rng.uniform(0.5, 2.0)
    angles = {}
    if labels == "mixed":
        for key in edges:
            if rng.random() < 0.5:
                angles[key] = rng.uniform(LABEL_MIN_DEG, LABEL_MAX_DEG)
    doc = {
        "vertices": ids,
        "rotation": _ccw_rotation(ids, pos, adj),
        "boundary": hull,
        "boundary_radii": {v: boundary_radius for v in hull},
        "angles_deg": angles,
    }
    return Patch(_text(doc), n, n - len(hull), len(edges), len(angles), labels)


# Radius cases of the hex lattice.  Unit lattice spacing 2 and equal radii
# r meet their six neighbors at overlap angle theta where r = 1/cos(theta/2).
# A lattice triangle's circumradius is 2/sqrt(3), which r exceeds exactly
# when theta > 60 degrees: below that the packing is thin, above it every
# lattice triangle holds a triple point.  Second neighbors sit 2*sqrt(3)
# apart and stay clear while theta < 109 degrees.
LATTICE_CASES = {
    "tangent": (0.0, 0.0),
    "thin-overlap": (20.0, 45.0),
    "thick-overlap": (70.0, 85.0),
}


@dataclass(frozen=True)
class Lattice:
    """A hex lattice disk document, its known graph document and the verdicts."""

    disks_text: str
    graph_text: str
    edges: frozenset  # of "i:j" keys
    case: str
    disks: int
    contacts: int
    triangles: int
    thin: bool


def hex_lattice(rng: random.Random, n: int, case: str) -> Lattice:
    """About n disks on a hex lattice under a seeded similarity, ids shuffled.

    The overlap angle, the similarity and the ids come from the seed; the
    disk count comes from n alone, so every seed does the same pair work.
    """
    lo, hi = LATTICE_CASES[case]
    theta_deg = rng.uniform(lo, hi) if hi > 0 else 0.0
    rows = max(2, round(math.sqrt(n)))
    cols = max(2, round(n / rows))
    cells = [(i, j) for j in range(rows) for i in range(cols)]
    count = len(cells)
    names = [f"d{k:05d}" for k in range(count)]
    rng.shuffle(names)
    cell_id = dict(zip(cells, names))

    scale = rng.uniform(0.5, 2.0)
    phi = rng.uniform(-math.pi, math.pi)
    turn = complex(math.cos(phi), math.sin(phi))
    reflect = rng.random() < 0.5
    shift = complex(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
    radius = scale / math.cos(math.radians(theta_deg) / 2.0)

    pos = {}
    for (i, j), name in cell_id.items():
        p = complex(2.0 * i + j, math.sqrt(3.0) * j)
        if reflect:
            p = p.conjugate()
        p = scale * turn * p + shift
        pos[name] = (p.real, p.imag)

    adj = {name: set() for name in names}
    triangles = 0
    for (i, j), name in cell_id.items():
        for di, dj in ((1, 0), (0, 1), (-1, 1)):
            other = cell_id.get((i + di, j + dj))
            if other is not None:
                adj[name].add(other)
                adj[other].add(name)
        # the two lattice triangles with (i, j) as lowest-left corner
        if (i + 1, j) in cell_id and (i, j + 1) in cell_id:
            triangles += 1
        if (i + 1, j) in cell_id and (i + 1, j - 1) in cell_id:
            triangles += 1
    edges = frozenset(_edge_key(u, v) for u in names for v in adj[u])
    order = list(names)
    rng.shuffle(order)
    disks = [{"id": v, "x": pos[v][0], "y": pos[v][1], "r": radius} for v in order]
    graph = {
        "vertices": sorted(names),
        "rotation": _ccw_rotation(names, pos, adj),
        "boundary": [],
        "boundary_radii": {},
        "angles_deg": {k: theta_deg for k in sorted(edges)} if theta_deg > 0 else {},
    }
    return Lattice(
        _text(disks),
        _text(graph),
        edges,
        case,
        count,
        len(edges),
        triangles,
        thin=theta_deg < 60.0,
    )
