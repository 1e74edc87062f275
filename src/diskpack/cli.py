"""Command line front end.

Exit codes: 0 for success or a passing check, 1 when a check comes back
false (defects, not thin, not similar, infeasible), 2 for usage or parse
errors, 3 for numerical failures (non-convergence, degeneracy).  Angles
are degrees on this surface.  Commands that produce a document (pack,
extract, render) write it to --out when given, else to standard output;
check reports always go to standard output.  Output is deterministic
unless --stamp asks for a timestamp line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from pathlib import Path

from . import analysis, graph as graphmod, io as docio, layout
from .errors import (
    DegenerateNormalizationError,
    DegenerateTriangleError,
    DiskPackError,
    InconsistentLayoutError,
    NonConvergenceError,
    ParseError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _stamp_line(args) -> list[str]:
    if getattr(args, "stamp", False):
        return [f"generated: {datetime.datetime.now(datetime.timezone.utc).isoformat()}"]
    return []


def _read_graph_doc(path: str) -> docio.GraphDocument:
    return docio.read_graph(Path(path).read_text())


def _read_disks(path: str) -> analysis.DiskSet:
    return docio.read_disks(Path(path).read_text())


def _emit_document(text: str, args, report: list[str]) -> None:
    # with --out the report owns stdout; without it the document does and
    # the report moves to stderr
    if args.out:
        Path(args.out).write_text(text)
        report.append(f"wrote {args.out}")
        print("\n".join(report))
    else:
        sys.stdout.write(text)
        if report:
            print("\n".join(report), file=sys.stderr)


def _cmd_pack(args) -> int:
    doc = _read_graph_doc(args.graph)
    problem = doc.to_layout_problem(tol=args.tol, max_iter=args.max_iter)
    solution = layout.solve_radii(problem)
    disks, closure = layout.place_centers(problem, solution.radii)
    report = _stamp_line(args)
    report.extend(f"warning: {w}" for w in solution.warnings)
    report.append(
        f"radii solved: residual {solution.residual:.3e} rad after {solution.iterations} sweep(s), "
        f"closure {closure:.3e}"
    )
    _emit_document(docio.write_disks(disks), args, report)
    return EXIT_OK


def _cmd_extract(args) -> int:
    ds = _read_disks(args.disks)
    lg = analysis.extract_contact_graph(ds, tol=args.tol)
    pos = {d.id: d.center for d in ds}
    rotation = graphmod.rotation_from_positions(lg.graph.vertices, lg.graph.edges, pos)
    doc = docio.graph_document_from_labeled(lg, rotation)
    report = _stamp_line(args)
    report.append(f"extracted {len(lg.graph.edge_keys())} contact(s) among {len(ds)} disk(s)")
    _emit_document(docio.write_graph(doc), args, report)
    return EXIT_OK


def _cmd_verify(args) -> int:
    ds = _read_disks(args.disks)
    lg = _read_graph_doc(args.graph).to_labeled_graph()
    result = analysis.verify_realization(ds, lg, tol=args.tol)
    lines = _stamp_line(args)
    for d in result.defects:
        lines.append(f"defect {d.kind} {d.ids[0]}:{d.ids[1]} ({d.detail})")
    lines.append("realization: pass" if result.ok else f"realization: fail ({len(result.defects)} defect(s))")
    print("\n".join(lines))
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def _cmd_thin(args) -> int:
    ds = _read_disks(args.disks)
    result = analysis.is_thin(ds, tol=args.tol)
    lines = _stamp_line(args)
    for v in result.violations:
        w = v.witness
        lines.append(f"violation {v.ids[0]},{v.ids[1]},{v.ids[2]} witness ({w.real:.12g}, {w.imag:.12g})")
    lines.append("thin: yes" if result.thin else f"thin: no ({len(result.violations)} violating triple(s))")
    print("\n".join(lines))
    return EXIT_OK if result.thin else EXIT_CHECK_FAILED


def _cmd_feasible(args) -> int:
    doc = _read_graph_doc(args.graph)
    g = doc.to_graph()
    lines = _stamp_line(args)
    ok = True

    simple = graphmod.validate_simple(g)
    if simple.ok:
        lines.append("simplicity: ok")
    else:
        ok = False
        bits = []
        if simple.loops:
            bits.append("loops at " + ", ".join(simple.loops))
        if simple.repeated:
            bits.append("repeated edges " + ", ".join(f"{u}:{v}" for u, v in simple.repeated))
        lines.append(f"simplicity: violation ({'; '.join(bits)})")

    if not simple.ok:
        lines.append("edge-bound: skipped (graph not simple)")
        lines.append("euler: skipped (graph not simple)")
        lines.append("quad-labels: skipped (graph not simple)")
    else:
        bound = graphmod.planarity_necessary(g)
        if bound.ok:
            if bound.bound is None:
                lines.append(f"edge-bound: ok (fewer than 3 vertices)")
            else:
                lines.append(
                    f"edge-bound: ok (|E| = {bound.edge_count} <= 3|V| - 6 = {bound.bound})"
                )
        else:
            ok = False
            lines.append(
                f"edge-bound: violation (|E| = {bound.edge_count} > 3|V| - 6 = {bound.bound}); "
                "no planar contact graph has that many edges"
            )
        try:
            decomp = graphmod.faces_from_rotation(doc.to_embedded_graph())
        except DiskPackError:
            lines.append("euler: skipped (graph disconnected)")
        else:
            if decomp.ok:
                lines.append(
                    f"euler: ok (V - E + F = {decomp.vertex_count} - {decomp.edge_count} "
                    f"+ {decomp.face_count} = 2)"
                )
            else:
                ok = False
                lines.append(
                    f"euler: violation (V - E + F = {decomp.characteristic}, expected 2); "
                    "the rotation system is not a plane embedding"
                )
        quads = graphmod.quad_feasibility(doc.to_labeled_graph())
        if quads.ok:
            lines.append("quad-labels: ok (every chordless 4-cycle sums below 360 deg)")
        else:
            ok = False
            for cyc, total in quads.infeasible:
                lines.append(
                    f"quad-labels: violation (chordless cycle {'-'.join(cyc)} sums to "
                    f"{math.degrees(total):.6g} deg >= 360 deg)"
                )
    lines.append(
        "feasible: yes (necessary conditions hold; existence is not certified)"
        if ok
        else "feasible: no"
    )
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_compare(args) -> int:
    a = _read_disks(args.disks_a)
    b = _read_disks(args.disks_b)
    if args.map:
        raw = json.loads(Path(args.map).read_text())
        if not isinstance(raw, dict):
            raise ParseError("$", "correspondence must be a JSON object of id pairs")
        mapping = {str(k): str(v) for k, v in raw.items()}
    else:
        mapping = {i: i for i in a.ids}
    t = analysis.are_similar(a, b, mapping, tol=args.tol)
    lines = _stamp_line(args)
    if t is None:
        lines.append("similar: no")
        print("\n".join(lines))
        return EXIT_CHECK_FAILED
    lines.append("similar: yes")
    lines.append(f"scale: {t.scale:.12g}")
    lines.append(f"rotation: {math.degrees(t.rotation):.12g} deg")
    lines.append(f"reflect: {'yes' if t.reflect else 'no'}")
    lines.append(f"translation: ({t.translation.real:.12g}, {t.translation.imag:.12g})")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_rigidity(args) -> int:
    ds = _read_disks(args.disks)
    lg = _read_graph_doc(args.graph).to_labeled_graph()
    pins = []
    for chunk in args.pin or []:
        pins.extend(p for p in chunk.split(",") if p)
    report = analysis.rigidity_index(ds, lg, pins, rank_tol=args.rank_tol)
    lines = _stamp_line(args)
    lines.append(f"pinned: {', '.join(report.pinned) if report.pinned else '(none)'}")
    lines.append(f"unknowns: {report.unknown_count}")
    lines.append(f"constraints: {report.constraint_count}")
    lines.append(f"rank: {report.rank}")
    lines.append(f"flex-dimension: {report.flex_dimension}")
    lines.append(
        "singular-values: " + (" ".join(f"{s:.6e}" for s in report.singular_values) or "(none)")
    )
    lines.append("note: first-order probe at rank-tol; evidence, not a proof of rigidity")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_render(args) -> int:
    ds = _read_disks(args.disks)
    overlay = _read_graph_doc(args.graph).to_labeled_graph() if args.graph else None
    svg = docio.render_svg(ds, overlay, width=args.width)
    report = _stamp_line(args)
    _emit_document(svg, args, report)
    return EXIT_OK


def _tolerance(text: str) -> float:
    """Parse --tol and --rank-tol: a number >= 0.  NaN fails the comparison
    and is rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskpack",
        description="Realize contact graphs as disk layouts and analyze disk configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol_default=None, tol_help=None):
        if tol_default is not None:
            p.add_argument("--tol", type=_tolerance, default=tol_default, help=tol_help)
        p.add_argument("--stamp", action="store_true", help="include a generation timestamp line")

    p = sub.add_parser("pack", help="solve a layout problem and emit the disks")
    p.add_argument("graph", help="graph document (vertices, rotation, boundary, boundary_radii, angles_deg)")
    p.add_argument("--out", help="write the disk document here instead of stdout")
    p.add_argument(
        "--max-iter", type=int, default=100_000, help="sweep budget for the radius solver (default 100000)"
    )
    add_common(p, 1e-10, "angle-sum residual target in radians (default 1e-10)")
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("extract", help="read the labeled contact graph off a disk set")
    p.add_argument("disks", help="disk document (JSON array of {id, x, y, r})")
    p.add_argument("--out", help="write the graph document here instead of stdout")
    add_common(p, 1e-9, "length tolerance for contact classification (default 1e-9)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="check that disks realize a labeled graph")
    p.add_argument("disks")
    p.add_argument("graph")
    add_common(p, 1e-9, "length and angle tolerance (default 1e-9)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("thin", help="check that no three disks share a point")
    p.add_argument("disks")
    add_common(p, 1e-9, "length tolerance (default 1e-9)")
    p.set_defaults(func=_cmd_thin)

    p = sub.add_parser(
        "feasible",
        help="run the necessary packability gates on a graph (simplicity, edge bound, Euler, quad labels)",
    )
    p.add_argument("graph")
    add_common(p)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("compare", help="decide whether two disk sets are similar")
    p.add_argument("disks_a")
    p.add_argument("disks_b")
    p.add_argument("--map", help="JSON object mapping ids of A to ids of B (default: identity)")
    add_common(p, 1e-9, "matching tolerance on centers and radii (default 1e-9)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rigidity", help="first-order flexibility probe of a realization")
    p.add_argument("disks")
    p.add_argument("graph")
    p.add_argument("--pin", action="append", help="comma-separated disk ids to hold fixed (repeatable)")
    p.add_argument(
        "--rank-tol",
        type=_tolerance,
        default=1e-8,
        help="relative singular-value threshold for rank decisions (default 1e-8)",
    )
    add_common(p)
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("render", help="render disks (and optional contact graph) as SVG")
    p.add_argument("disks")
    p.add_argument("--graph", help="graph document to overlay as dashed segments and center dots")
    p.add_argument("--out", help="write the SVG here instead of stdout")
    p.add_argument("--width", type=float, default=640.0, help="image width in pixels (default 640)")
    add_common(p)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        NonConvergenceError,
        DegenerateTriangleError,
        InconsistentLayoutError,
        DegenerateNormalizationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DiskPackError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
