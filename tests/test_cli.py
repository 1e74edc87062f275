"""End-to-end command line checks; every run is a fresh subprocess."""

import json
import math
import random
import xml.etree.ElementTree as ET

from conftest import (
    chorded_quad_doc,
    doc_text,
    k5_doc,
    loop_doc,
    penny_star,
    quad_doc,
    random_patch,
    repeated_edge_doc,
    run_cli,
    sheared_lattice,
    square_lattice,
    wheel_doc,
)
from diskpack import (
    Disk,
    DiskSet,
    SimilarityTransform,
    graph_document_from_layout,
    read_disks,
    read_graph,
    write_disks,
    write_graph,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def trio_disks():
    side = 1.5
    return DiskSet((
        Disk("a", 0.0, 0.0, 1.0),
        Disk("b", side, 0.0, 1.0),
        Disk("c", side / 2.0, side * math.sqrt(3.0) / 2.0, 1.0),
    ))


class TestPack:
    def test_pack_to_file_then_verify(self, tmp_path):
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        out = tmp_path / "disks.json"
        r = run_cli("pack", graph, "--out", out)
        assert r.returncode == 0
        assert "radii solved: residual" in r.stdout
        assert f"wrote {out}" in r.stdout
        assert r.stderr == ""

        disks = read_disks(out.read_text())
        assert abs(disks.by_id("hub").r - 1.0) < 1e-8

        v = run_cli("verify", out, graph)
        assert v.returncode == 0
        assert "realization: pass" in v.stdout

    def test_pack_to_stdout_moves_report_to_stderr(self, tmp_path):
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        r = run_cli("pack", graph)
        assert r.returncode == 0
        assert r.stdout.startswith("[")
        read_disks(r.stdout)
        assert "radii solved" in r.stderr

    def test_pack_output_is_deterministic(self, tmp_path):
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(7, radius=1.25)))
        first = run_cli("pack", graph)
        second = run_cli("pack", graph)
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr

    def test_stamp_adds_a_timestamp_line(self, tmp_path):
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        out = tmp_path / "disks.json"
        r = run_cli("pack", graph, "--out", out, "--stamp")
        assert r.returncode == 0
        assert "generated: " in r.stdout

    def test_high_label_warning_reaches_the_report(self, tmp_path):
        graph = _write(
            tmp_path / "wheel.json", doc_text(wheel_doc(6, angles={"b0:b1": 100.0}))
        )
        out = tmp_path / "disks.json"
        r = run_cli("pack", graph, "--out", out)
        assert r.returncode == 0
        assert "warning: overlap label above 90 degrees" in r.stdout

    def test_budget_exhaustion_exits_3(self, tmp_path):
        problem = random_patch(random.Random(5), 18)
        assert problem.interior_vertices
        graph = _write(tmp_path / "patch.json", write_graph(graph_document_from_layout(problem)))
        r = run_cli("pack", graph, "--tol", "1e-12", "--max-iter", "1")
        assert r.returncode == 3
        assert r.stderr.startswith("error:")


class TestExtract:
    def test_penny_star_report(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        out = tmp_path / "graph.json"
        r = run_cli("extract", disks, "--out", out)
        assert r.returncode == 0
        assert "extracted 12 contact(s) among 7 disk(s)" in r.stdout
        doc = read_graph(out.read_text())
        assert len(doc.vertices) == 7
        assert len(doc.edge_list()) == 12

    def test_extracted_document_feeds_verify(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        out = tmp_path / "graph.json"
        run_cli("extract", disks, "--out", out)
        v = run_cli("verify", disks, out)
        assert v.returncode == 0
        assert "realization: pass" in v.stdout


class TestVerify:
    def test_mismatched_label_fails_with_a_defect_line(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        graph = _write(
            tmp_path / "wheel.json", doc_text(wheel_doc(6, angles={"b0:hub": 10.0}))
        )
        r = run_cli("verify", disks, graph)
        assert r.returncode == 1
        assert "defect angle-mismatch b0:hub" in r.stdout
        assert "realization: fail (1 defect(s))" in r.stdout


class TestThin:
    def test_thin_set_passes(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        r = run_cli("thin", disks)
        assert r.returncode == 0
        assert "thin: yes" in r.stdout

    def test_triple_point_fails_with_a_witness(self, tmp_path):
        disks = _write(tmp_path / "trio.json", write_disks(trio_disks()))
        r = run_cli("thin", disks)
        assert r.returncode == 1
        assert "violation a,b,c witness (" in r.stdout
        assert "thin: no (1 violating triple(s))" in r.stdout


class TestFeasible:
    def test_k5_breaks_the_edge_bound(self, tmp_path):
        graph = _write(tmp_path / "k5.json", doc_text(k5_doc()))
        r = run_cli("feasible", graph)
        assert r.returncode == 1
        assert "edge-bound: violation (|E| = 10 > 3|V| - 6 = 9)" in r.stdout
        assert "feasible: no" in r.stdout

    def test_loops_fail_simplicity(self, tmp_path):
        graph = _write(tmp_path / "loop.json", doc_text(loop_doc()))
        r = run_cli("feasible", graph)
        assert r.returncode == 1
        assert "simplicity: violation (loops at a)" in r.stdout
        assert "edge-bound: skipped" in r.stdout

    def test_repeated_edges_fail_simplicity(self, tmp_path):
        graph = _write(tmp_path / "multi.json", doc_text(repeated_edge_doc()))
        r = run_cli("feasible", graph)
        assert r.returncode == 1
        assert "repeated edges a:b" in r.stdout

    def test_heavy_quad_fails_the_label_gate(self, tmp_path):
        graph = _write(tmp_path / "quad.json", doc_text(quad_doc(100.0)))
        r = run_cli("feasible", graph)
        assert r.returncode == 1
        assert "quad-labels: violation (chordless cycle a-b-c-d sums to 400 deg >= 360 deg)" in r.stdout

    def test_right_angle_quad_is_already_too_heavy(self, tmp_path):
        graph = _write(tmp_path / "quad90.json", doc_text(quad_doc(90.0)))
        r = run_cli("feasible", graph)
        assert r.returncode == 1
        assert "sums to 360 deg >= 360 deg" in r.stdout

    def test_chord_rescues_the_heavy_quad(self, tmp_path):
        graph = _write(tmp_path / "chorded.json", doc_text(chorded_quad_doc()))
        r = run_cli("feasible", graph)
        assert r.returncode == 0
        assert "quad-labels: ok" in r.stdout
        assert "feasible: yes (necessary conditions hold; existence is not certified)" in r.stdout

    def test_wheel_passes_every_gate(self, tmp_path):
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        r = run_cli("feasible", graph)
        assert r.returncode == 0
        assert "simplicity: ok" in r.stdout
        assert "edge-bound: ok" in r.stdout
        assert "euler: ok" in r.stdout


class TestCompare:
    def test_identical_sets_are_similar(self, tmp_path):
        a = _write(tmp_path / "a.json", write_disks(penny_star()))
        r = run_cli("compare", a, a)
        assert r.returncode == 0
        assert "similar: yes" in r.stdout
        assert "scale: 1" in r.stdout
        assert "reflect: no" in r.stdout

    def test_transformed_copy_reports_the_transform(self, tmp_path):
        ds = penny_star()
        t = SimilarityTransform(2.0, math.pi / 2.0, False, complex(3.0, -1.0))
        a = _write(tmp_path / "a.json", write_disks(ds))
        b = _write(tmp_path / "b.json", write_disks(t.apply(ds)))
        r = run_cli("compare", a, b)
        assert r.returncode == 0
        assert "scale: 2" in r.stdout
        assert "rotation: 90 deg" in r.stdout
        assert "translation: (3, -1)" in r.stdout

    def test_sheared_lattice_is_not_similar(self, tmp_path):
        a = _write(tmp_path / "a.json", write_disks(square_lattice(4)))
        b = _write(tmp_path / "b.json", write_disks(sheared_lattice(4)))
        r = run_cli("compare", a, b)
        assert r.returncode == 1
        assert "similar: no" in r.stdout

    def test_map_file_renames_ids(self, tmp_path):
        ds = penny_star()
        renamed = DiskSet(tuple(Disk(d.id.upper(), d.cx, d.cy, d.r) for d in ds))
        a = _write(tmp_path / "a.json", write_disks(ds))
        b = _write(tmp_path / "b.json", write_disks(renamed))
        mapping = _write(tmp_path / "map.json", json.dumps({i: i.upper() for i in ds.ids}))
        r = run_cli("compare", a, b, "--map", mapping)
        assert r.returncode == 0
        assert "similar: yes" in r.stdout


class TestRigidity:
    def test_pinned_star_is_rigid(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        r = run_cli(
            "rigidity", disks, graph, "--pin", "b0,b1", "--pin", "b2", "--pin", "b3,b4,b5"
        )
        assert r.returncode == 0
        assert "pinned: b0, b1, b2, b3, b4, b5" in r.stdout
        assert "unknowns: 3" in r.stdout
        assert "constraints: 12" in r.stdout
        assert "flex-dimension: 0" in r.stdout
        assert "note: first-order probe" in r.stdout

    def test_free_star_keeps_the_similarity_motions_out(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        r = run_cli("rigidity", disks, graph)
        assert r.returncode == 0
        assert "pinned: (none)" in r.stdout
        assert "unknowns: 21" in r.stdout


class TestRender:
    def test_overlayed_render_to_file(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        out = tmp_path / "star.svg"
        r = run_cli("render", disks, "--graph", graph, "--out", out)
        assert r.returncode == 0
        svg = out.read_text()
        assert svg.count('class="disk"') == 7
        assert svg.count('class="edge"') == 12
        assert svg.count('class="dot"') == 7
        ET.fromstring(svg.encode())

    def test_render_to_stdout(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        r = run_cli("render", disks)
        assert r.returncode == 0
        assert r.stdout.startswith("<?xml")
        assert r.stdout.count('class="disk"') == 7


class TestFailureModes:
    def test_missing_file_exits_2(self):
        r = run_cli("pack", "/no/such/file.json")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    def test_malformed_json_exits_2(self, tmp_path):
        bad = _write(tmp_path / "bad.json", "{nope")
        r = run_cli("pack", bad)
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_no_arguments_exits_2(self):
        r = run_cli()
        assert r.returncode == 2

    def test_unknown_command_exits_2(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    def test_integer_beyond_the_largest_float_exits_2(self, tmp_path):
        disks = _write(tmp_path / "huge.json", '[{"id": "a", "x": 1' + "0" * 400 + ', "y": 0.0, "r": 1.0}]')
        r = run_cli("thin", disks)
        assert r.returncode == 2
        assert r.stderr.startswith("error: [0].x: expected a finite number")

    def test_nan_or_negative_tol_exits_2(self, tmp_path):
        disks = _write(tmp_path / "a.json", write_disks(penny_star()))
        for tol in ("nan", "-1e-9", "tiny"):
            r = run_cli("compare", disks, disks, f"--tol={tol}")
            assert r.returncode == 2
            assert "argument --tol: must be a number >= 0" in r.stderr

    def test_bad_rank_tol_exits_2(self, tmp_path):
        disks = _write(tmp_path / "star.json", write_disks(penny_star()))
        graph = _write(tmp_path / "wheel.json", doc_text(wheel_doc(6)))
        for rank_tol in ("nan", "-1e-8", "tiny"):
            r = run_cli("rigidity", disks, graph, f"--rank-tol={rank_tol}")
            assert r.returncode == 2
            assert "argument --rank-tol: must be a number >= 0" in r.stderr
        r = run_cli("rigidity", disks, graph, "--rank-tol=inf")
        assert r.returncode == 2
        assert "rank_tol must be a finite number >= 0, got inf" in r.stderr
