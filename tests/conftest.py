"""Shared builders and independent measurement oracles for the test suite.

The oracles here deliberately avoid the library's own formulas: overlap
angles are re-measured from explicit tangent rays, triple intersections by
dense sampling along lens boundaries, so agreement is evidence rather than
tautology.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import settings
from scipy.spatial import Delaunay

from diskpack import (
    Disk,
    DiskSet,
    EmbeddedGraph,
    Graph,
    LayoutProblem,
    SimilarityTransform,
    edge_key,
    rotation_from_positions,
)

# The "ci" profile draws the same examples on every run, so that a failure
# in CI replays locally: HYPOTHESIS_PROFILE=ci python -m pytest ...
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# ------------------------------------------------------------------ graphs


def wheel_embedding(n):
    """Hub joined to an n-cycle rim; the rim is the boundary."""
    rim = [f"b{i}" for i in range(n)]
    edges = [("hub", b) for b in rim]
    edges += [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    rotation = {"hub": tuple(rim)}
    for i in range(n):
        rotation[rim[i]] = (rim[(i + 1) % n], "hub", rim[(i - 1) % n])
    return EmbeddedGraph(Graph(("hub", *rim), tuple(edges)), rotation, frozenset(rim))


def wheel_problem(n, labels=None, radius=1.0, tol=1e-10):
    emb = wheel_embedding(n)
    radii = {v: radius for v in emb.boundary}
    return LayoutProblem(emb, radii, labels or {}, tol=tol)


def random_patch(rng, n, tol=1e-10):
    """Random triangulated patch: Delaunay on scattered points, hull boundary."""
    pts = np.array([(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(n)])
    tri = Delaunay(pts)
    ids = [f"v{i:02d}" for i in range(n)]
    edges = set()
    for s in tri.simplices:
        a, b, c = (int(x) for x in s)
        edges.add(edge_key(ids[a], ids[b]))
        edges.add(edge_key(ids[b], ids[c]))
        edges.add(edge_key(ids[a], ids[c]))
    hull = {ids[int(i)] for i in np.unique(tri.convex_hull)}
    pos = {ids[i]: complex(pts[i][0], pts[i][1]) for i in range(n)}
    rotation = rotation_from_positions(ids, edges, pos)
    emb = EmbeddedGraph(Graph(tuple(ids), tuple(sorted(edges))), rotation, frozenset(hull))
    radii = {v: rng.uniform(0.5, 2.0) for v in sorted(hull)}
    return LayoutProblem(emb, radii, {}, tol=tol)


def cyclic_equal(a, b):
    """Whether two sequences are equal up to rotation."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = tuple(a) + tuple(a)
    return any(doubled[i:i + len(b)] == tuple(b) for i in range(len(a)))


# ------------------------------------------------------------- disk sets


def penny_star():
    """Unit hub with six unit disks tangent to it and to each other."""
    disks = [Disk("hub", 0.0, 0.0, 1.0)]
    for k in range(6):
        disks.append(Disk(f"b{k}", 2.0 * math.cos(k * math.pi / 3), 2.0 * math.sin(k * math.pi / 3), 1.0))
    return DiskSet(tuple(disks))


def hex_penny_patch():
    """Nineteen unit disks on the hexagonal lattice, rings 0 through 2."""
    cells = sorted(
        (i, j)
        for i in range(-2, 3)
        for j in range(-2, 3)
        if abs(i + j) <= 2
    )
    disks = []
    for k, (i, j) in enumerate(cells):
        disks.append(Disk(f"p{k:02d}", 2.0 * i + j, math.sqrt(3.0) * j, 1.0))
    return DiskSet(tuple(disks))


def square_lattice(n):
    """n-by-n unit disks at spacing 2: tangent along rows and columns."""
    disks = [
        Disk(f"g{i}{j}", 2.0 * i, 2.0 * j, 1.0)
        for i in range(n)
        for j in range(n)
    ]
    return DiskSet(tuple(disks))


def sheared_lattice(n):
    """Same contact graph as square_lattice(n), different shape.

    Columns in the right half slide up by 0.2 and the gap between the two
    blocks narrows to sqrt(4 - 0.04), so every cross contact stays an exact
    tangency while diagonal distances change.
    """
    lift = 0.2
    gap = math.sqrt(4.0 - lift * lift)
    half = n // 2
    disks = []
    for i in range(n):
        for j in range(n):
            if i < half:
                x, y = 2.0 * i, 2.0 * j
            else:
                x = 2.0 * (half - 1) + gap + 2.0 * (i - half)
                y = 2.0 * j + lift
            disks.append(Disk(f"g{i}{j}", x, y, 1.0))
    return DiskSet(tuple(disks))


def random_config(rng, n):
    """Disk set with no nested pair; overlaps are allowed and common."""
    while True:
        disks = [
            Disk(f"d{k:02d}", rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.5, 1.5))
            for k in range(n)
        ]
        clear = all(
            math.hypot(p.cx - q.cx, p.cy - q.cy) > abs(p.r - q.r) + 1e-3
            for i, p in enumerate(disks)
            for q in disks[i + 1:]
        )
        if clear:
            return DiskSet(tuple(disks))


def random_transform(rng):
    return SimilarityTransform(
        scale=rng.uniform(0.1, 10.0),
        rotation=rng.uniform(-math.pi, math.pi),
        reflect=rng.random() < 0.5,
        translation=complex(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0)),
    )


# ------------------------------------------------------------- documents


def doc_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def wheel_doc(n=6, radius=1.0, angles=None):
    emb = wheel_embedding(n)
    return {
        "vertices": list(emb.graph.vertices),
        "rotation": {v: list(emb.rotation[v]) for v in emb.graph.vertices},
        "boundary": sorted(emb.boundary),
        "boundary_radii": {v: radius for v in sorted(emb.boundary)},
        "angles_deg": dict(angles or {}),
    }


def quad_doc(angle_deg=100.0):
    """Plain 4-cycle with the same label on every edge."""
    return {
        "vertices": ["a", "b", "c", "d"],
        "rotation": {"a": ["d", "b"], "b": ["c", "a"], "c": ["b", "d"], "d": ["c", "a"]},
        "boundary": [],
        "boundary_radii": {},
        "angles_deg": {"a:b": angle_deg, "b:c": angle_deg, "c:d": angle_deg, "a:d": angle_deg},
    }


def chorded_quad_doc(side_deg=100.0, chord_deg=130.0):
    """4-cycle plus the b-d diagonal; no chordless 4-cycle survives."""
    return {
        "vertices": ["a", "b", "c", "d"],
        "rotation": {"a": ["d", "b"], "b": ["d", "c", "a"], "c": ["b", "d"], "d": ["c", "b", "a"]},
        "boundary": [],
        "boundary_radii": {},
        "angles_deg": {
            "a:b": side_deg,
            "a:d": side_deg,
            "b:c": side_deg,
            "b:d": chord_deg,
            "c:d": side_deg,
        },
    }


def k5_doc():
    ids = [f"v{i}" for i in range(5)]
    return {
        "vertices": ids,
        "rotation": {v: [u for u in ids if u != v] for v in ids},
        "boundary": [],
        "boundary_radii": {},
        "angles_deg": {},
    }


def loop_doc():
    return {
        "vertices": ["a", "b"],
        "rotation": {"a": ["a", "b"], "b": ["a"]},
        "boundary": [],
        "boundary_radii": {},
        "angles_deg": {},
    }


def repeated_edge_doc():
    return {
        "vertices": ["a", "b"],
        "rotation": {"a": ["b", "b"], "b": ["a", "a"]},
        "boundary": [],
        "boundary_radii": {},
        "angles_deg": {},
    }


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diskpack", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


# --------------------------------------------------------------- oracles


def _unit_perp_toward(radial, target):
    # unit perpendicular of radial whose direction has nonnegative dot with target
    t = complex(-radial.imag, radial.real)
    t /= abs(t)
    if t.real * target.real + t.imag * target.imag < 0.0:
        t = -t
    return t


def tangent_ray_angles(a, b):
    """Overlap angle measured directly at each of the two meeting points.

    Builds the intersection points explicitly, takes the outward tangent ray
    of each circle (the perpendicular of the radius pointing away from the
    other center) and reads the angle off a dot product.  Shares no code
    path with the library's law-of-cosines route.
    """
    d = abs(b.center - a.center)
    ex = (b.center - a.center) / d
    x = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d)
    h = math.sqrt(a.r * a.r - x * x)
    angles = []
    for sign in (1.0, -1.0):
        p = a.center + complex(x, sign * h) * ex
        ta = _unit_perp_toward(p - a.center, p - b.center)
        tb = _unit_perp_toward(p - b.center, p - a.center)
        u = ta.real * tb.real + ta.imag * tb.imag
        angles.append(math.acos(max(-1.0, min(1.0, u))))
    return angles


def lens_boundary_points(a, b, n_per_arc):
    """Points along the two circular arcs bounding the lens of two crossing disks."""
    off = b.center - a.center
    d = abs(off)
    psi = math.atan2(off.imag, off.real)
    wa = math.acos(max(-1.0, min(1.0, (d * d + a.r * a.r - b.r * b.r) / (2.0 * d * a.r))))
    wb = math.acos(max(-1.0, min(1.0, (d * d + b.r * b.r - a.r * a.r) / (2.0 * d * b.r))))
    t = np.linspace(-1.0, 1.0, n_per_arc)
    arc_a = complex(a.cx, a.cy) + a.r * np.exp(1j * (psi + wa * t))
    arc_b = complex(b.cx, b.cy) + b.r * np.exp(1j * (psi + math.pi + wb * t))
    return np.concatenate([arc_a, arc_b])


def sampled_triple_hit(a, b, c, n_per_arc=5000):
    """Sampling stand-in for the triple intersection decision.

    Any nonempty common region of three disks (none nested) must reach the
    boundary of the a/b lens, so membership of densely sampled lens-boundary
    points in disk c decides the question.  Returns (hit, margin) where
    margin is the signed depth of the best sample.
    """
    pts = lens_boundary_points(a, b, n_per_arc)
    res = np.abs(pts - complex(c.cx, c.cy)) - c.r
    margin = float(res.min())
    return margin <= 0.0, margin


def random_overlapping_triple(rng):
    """Three pairwise crossing disks, clear of tangency, containment and
    knife-edge triple decisions (the sampled margin must exceed 1e-3)."""
    while True:
        disks = [
            Disk(f"t{k}", rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.6, 1.8))
            for k in range(3)
        ]
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                p, q = disks[i], disks[j]
                d = math.hypot(p.cx - q.cx, p.cy - q.cy)
                if not abs(p.r - q.r) + 1e-2 < d < p.r + q.r - 1e-2:
                    ok = False
        if not ok:
            continue
        _, margin = sampled_triple_hit(*disks, n_per_arc=400)
        if abs(margin) < 1e-3:
            continue
        return tuple(disks)


# ------------------------------------------------- acceptance reporting

ACCEPTANCE_LINES = []


def record_criterion(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
