"""The benchmark's workloads: seeded inputs, the timed op and its check.

Each op makes the public calls the matching CLI commands make, in the same
order, and passes every one through the tracer.  It stores what each call
returns on `out`, so that the check, which runs after the op and outside its
timed span, can judge what was produced even when a later call raised.  The
check names the first thing wrong as a failure class; when it finds nothing
wrong and the op raised, the op is classed by the call and exception type.
Any failure makes the run incorrect.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Optional

from diskpack import analysis, graph as graphmod, io, layout

import gen

# The CLI's default tolerance for extract, verify and thin.
CLI_TOL = 1e-9
# The tolerance a packed layout must verify at, the one rigidity_index asks
# for.  A solver that stops short or returns inaccurate radii fails here.
LOOSE_TOL = 1e-6
# Verify defects in the order they are named as an op's failure class.
DEFECT_PRIORITY = ("nested-pair", "angle-mismatch", "spurious-contact")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Every unit of ops is the same list of (size, variant) inputs, each
    # generated afresh; a run stops only at the end of a unit, so every run
    # measures the same mix whatever its speed.
    unit: tuple
    tiny_unit: tuple  # the same variants at sizes small enough for the self-test
    make: Callable[[random.Random, int, str], object]  # (rng, size, variant) -> input
    warmup: Callable[[random.Random], object]
    op: Callable  # (input, tracer, out) -> None, timed; stores each call's result on out
    # (input, out) -> failure class or None, untimed.  A patch check also
    # sets out.cli_tol_ok to the layout's verdict at CLI_TOL.
    check: Callable
    reference: str  # the run.REFERENCES loop whose speed follows the op's: "solve" or "pairs"

    def units(self, rng: random.Random, tiny: bool = False):
        """Endless units of fresh inputs, each a list, generated from rng."""
        while True:
            yield [self.make(rng, n, variant) for n, variant in (self.tiny_unit if tiny else self.unit)]


def properties(item) -> dict:
    """Input properties of one generated input: its counts and label mix."""
    props = {f.name: getattr(item, f.name) for f in fields(item)}
    props = {k: v for k, v in props.items() if isinstance(v, (int, str)) and not k.endswith("text")}
    n = props.get("vertices", props.get("disks"))
    props["pairs"] = n * (n - 1) // 2
    return props


def summarize(props: list) -> dict:
    """The inputs a run used: sizes, label or case mix, and count totals."""
    out = {"inputs": len(props), "sizes": sorted({p.get("vertices", p.get("disks")) for p in props})}
    for key in props[0]:
        values = [p[key] for p in props]
        if isinstance(values[0], (str, bool)):
            out[key] = dict(sorted(Counter(map(str, values)).items()))
        else:
            out[f"{key}_total"] = sum(values)
    return out


def _defect_class(report, name: str) -> Optional[str]:
    kinds = {d.kind for d in report.defects}
    return next((f"{name}.{k}" for k in DEFECT_PRIORITY if k in kinds), None)


# ------------------------------------------------------------------ pack

# The patches of a unit, for both patch workloads.  They stop at 30
# vertices because a benchmark op must not fail, and the baseline's
# place_centers raises InconsistentLayoutError (its face walk closes beyond
# 100 * tol = 1e-8) on about 1 in 800 patches of 40 vertices, 1 in 300 of
# 50 and half of those of 130 to 150.  On 1000 patches of 30 vertices the
# closure reached at most 4.7e-9; layout.place_centers.closure_max shows
# how near the bound a run comes.
PATCH_UNIT = ((30, "tangency"), (25, "tangency"), (30, "mixed"), (25, "mixed"))
TINY_PATCH_UNIT = ((20, "tangency"), (16, "tangency"), (20, "mixed"), (16, "mixed"))


def _pack(text: str, tr, out) -> None:
    # diskpack pack GRAPH: read, build the problem, solve, place, write.
    out.doc = tr.call("io.read_graph", io.read_graph, text)
    out.problem = tr.call("io.to_layout_problem", out.doc.to_layout_problem)
    sol = out.solution = tr.call("layout.solve_radii", layout.solve_radii, out.problem)
    tr.add("layout.solve_radii.iterations", sol.iterations)
    tr.peak("layout.solve_radii.iterations_max", sol.iterations)
    tr.peak("layout.solve_radii.residual_max", sol.residual)
    disks, closure = tr.call("layout.place_centers", layout.place_centers, out.problem, sol.radii)
    tr.peak("layout.place_centers.closure_max", closure)
    out.disks_text = tr.call("io.write_disks", io.write_disks, disks)
    tr.add("io.bytes", len(text) + len(out.disks_text))


def _pack_check(patch, out) -> Optional[str]:
    # A layout that passes at LOOSE_TOL but not at CLI_TOL is not a failure:
    # the baseline solver stops at an angle residual of 1e-10, and the error
    # left in the radii, carried along the face walk, exceeds 1e-9 on most
    # patches.  The run counts those layouts instead (out.cli_tol_ok).
    if not hasattr(out, "solution"):
        return None  # solve_radii raised: its class stands
    # Angle sums recomputed apart from the solver, so that radii a
    # place_centers failure hides are judged too.
    problem, radii = out.problem, out.solution.radii
    worst = max(abs(layout.angle_sum(v, radii, problem) - 2.0 * math.pi) for v in problem.interior_vertices)
    if worst > LOOSE_TOL:
        return "solve.angle-sum"
    if not hasattr(out, "disks_text"):
        return None  # place_centers raised on accurate radii: its class stands
    ds, lg = io.read_disks(out.disks_text), out.doc.to_labeled_graph()
    out.cli_tol_ok = analysis.verify_realization(ds, lg, CLI_TOL).ok
    return _defect_class(analysis.verify_realization(ds, lg, LOOSE_TOL), "verify-1e-6")


PACK_DELAUNAY = Workload(
    name="pack_delaunay",
    why="pack then verify on 25-30 vertex Delaunay patches: the radius solve is nearly all of the op",
    unit=PATCH_UNIT,
    tiny_unit=TINY_PATCH_UNIT,
    make=gen.delaunay_patch,
    warmup=lambda rng: gen.delaunay_patch(rng, 30, "mixed"),
    op=lambda patch, tr, out: _pack(patch.text, tr, out),
    check=_pack_check,
    reference="solve",
)


# --------------------------------------------------------------- lattice


def _analyze(lattice, tr, out) -> None:
    # diskpack extract DISKS; diskpack verify DISKS GRAPH; diskpack thin DISKS
    ds = tr.call("io.read_disks", io.read_disks, lattice.disks_text)
    lg = out.lg = tr.call("analysis.extract_contact_graph", analysis.extract_contact_graph, ds, CLI_TOL)
    doc = tr.call("io.read_graph", io.read_graph, lattice.graph_text)
    known = tr.call("io.to_labeled_graph", doc.to_labeled_graph)
    report = out.report = tr.call("analysis.verify_realization", analysis.verify_realization, ds, known, CLI_TOL)
    thin = out.thin = tr.call("analysis.is_thin", analysis.is_thin, ds, CLI_TOL)
    tr.add("io.bytes", len(lattice.disks_text) + len(lattice.graph_text))
    tr.add("analysis.contacts", len(lg.graph.edges))
    tr.add("analysis.defects", len(report.defects))
    tr.add("analysis.thin_violations", len(thin.violations))


def _analyze_check(lattice, out) -> Optional[str]:
    if not hasattr(out, "thin"):
        return None  # the op raised: its class stands
    if {f"{u}:{v}" for u, v in out.lg.graph.edge_keys()} != lattice.edges:
        return "extract.edges-differ"
    if not out.report.ok:
        return _defect_class(out.report, "verify-1e-9")
    if out.thin.thin != lattice.thin:
        return "thin.wrong-verdict"
    if len(out.thin.violations) != (0 if lattice.thin else lattice.triangles):
        return "thin.wrong-violations"
    return None


ANALYZE_LATTICE = Workload(
    name="analyze_lattice",
    why="extract, verify and thin on 500-1200 hex-lattice disks: the O(n^2) pair analyses, no layout",
    unit=((800, "tangent"), (500, "thin-overlap"), (1200, "thick-overlap")),
    tiny_unit=((60, "tangent"), (40, "thin-overlap"), (80, "thick-overlap")),
    make=gen.hex_lattice,
    warmup=lambda rng: gen.hex_lattice(rng, 100, "thick-overlap"),
    op=_analyze,
    check=_analyze_check,
    reference="pairs",
)


# ------------------------------------------------------------- roundtrip


def _roundtrip(patch, tr, out) -> None:
    _pack(patch.text, tr, out)
    # diskpack verify DISKS GRAPH against the input labels
    ds = tr.call("io.read_disks", io.read_disks, out.disks_text)
    labeled = tr.call("io.to_labeled_graph", out.doc.to_labeled_graph)
    report = out.report = tr.call("analysis.verify_realization", analysis.verify_realization, ds, labeled, CLI_TOL)
    # diskpack extract DISKS
    lg = out.lg = tr.call("analysis.extract_contact_graph", analysis.extract_contact_graph, ds, CLI_TOL)
    pos = {d.id: d.center for d in ds}
    rotation = tr.call(
        "graph.rotation_from_positions", graphmod.rotation_from_positions, lg.graph.vertices, lg.graph.edges, pos
    )
    extracted = tr.call("io.graph_document_from_labeled", io.graph_document_from_labeled, lg, rotation)
    graph_text = tr.call("io.write_graph", io.write_graph, extracted)
    # diskpack thin DISKS
    thin = out.thin = tr.call("analysis.is_thin", analysis.is_thin, ds, CLI_TOL)
    # diskpack feasible GRAPH on the extracted graph
    out.quads = tr.call("graph.quad_feasibility", graphmod.quad_feasibility, lg)
    embedding = tr.call("io.to_embedded_graph", extracted.to_embedded_graph)
    out.faces = tr.call("graph.faces_from_rotation", graphmod.faces_from_rotation, embedding)
    # diskpack compare DISKS normalized(DISKS)
    normalized, _ = tr.call("analysis.normalize", analysis.normalize, ds)
    out.similar = tr.call("analysis.are_similar", analysis.are_similar, ds, normalized, {i: i for i in ds.ids})
    # diskpack rigidity DISKS GRAPH
    out.rigidity = tr.call("analysis.rigidity_index", analysis.rigidity_index, ds, labeled)
    tr.add("io.bytes", len(out.disks_text) + len(graph_text))
    tr.add("analysis.contacts", len(lg.graph.edges))
    tr.add("analysis.defects", len(report.defects))
    tr.add("analysis.thin_violations", len(thin.violations))


def _roundtrip_check(patch, out) -> Optional[str]:
    failure = _pack_check(patch, out)
    if failure or not hasattr(out, "rigidity"):
        return failure  # when a call raised, its class stands
    if not out.thin.thin:
        # labels stay at or below 45 degrees, so no three disks share a point
        return "thin.wrong-verdict"
    if out.similar is None:
        return "compare.not-similar"
    if out.rigidity.rank != out.rigidity.constraint_count:
        return "rigidity.dependent-constraints"
    if not out.cli_tol_ok:
        return None
    # Extraction at 1e-9 reproduces the input graph only from a layout
    # that verifies at 1e-9.
    if out.lg.graph.edge_keys() != out.doc.to_graph().edge_keys():
        return "extract.edges-differ"
    if not (out.quads.ok and out.faces.ok):
        return "feasible.wrong-verdict"
    return None


ROUNDTRIP_OVERLAP = Workload(
    name="roundtrip_overlap",
    why="pack, write/read, verify, extract, thin, feasible, compare, rigidity on 25-30 vertex patches: every layer",
    unit=PATCH_UNIT,
    tiny_unit=TINY_PATCH_UNIT,
    make=gen.delaunay_patch,
    warmup=lambda rng: gen.delaunay_patch(rng, 30, "mixed"),
    op=_roundtrip,
    check=_roundtrip_check,
    reference="solve",
)


WORKLOADS = {w.name: w for w in (PACK_DELAUNAY, ANALYZE_LATTICE, ROUNDTRIP_OVERLAP)}
