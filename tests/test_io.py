"""Document parsing, serialization, and SVG output."""

import copy
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskpack
from conftest import chorded_quad_doc, doc_text, penny_star, wheel_doc
from diskpack import (
    Disk,
    DiskSet,
    GraphDocument,
    ParseError,
    edge_key,
    extract_contact_graph,
    graph_document_from_labeled,
    graph_document_from_layout,
    read_disks,
    read_graph,
    render_svg,
    write_disks,
    write_graph,
)


def parse_error(text):
    with pytest.raises(ParseError) as info:
        read_graph(text)
    return info.value


def disk_error(text):
    with pytest.raises(ParseError) as info:
        read_disks(text)
    return info.value


class TestGraphRoundTrip:
    @pytest.mark.parametrize("doc", [wheel_doc(6), wheel_doc(4, radius=2.5), chorded_quad_doc()])
    def test_write_read_write_is_identity_on_bytes(self, doc):
        first = write_graph(read_graph(doc_text(doc)))
        second = write_graph(read_graph(first))
        assert first == second

    def test_read_write_read_is_identity_on_documents(self):
        doc = read_graph(doc_text(wheel_doc(6, angles={"b0:hub": 30.0})))
        again = read_graph(write_graph(doc))
        assert doc == again

    def test_wheel_edge_list(self):
        doc = read_graph(doc_text(wheel_doc(6)))
        assert len(doc.edge_list()) == 12
        assert set(doc.to_graph().edge_keys()) == set(doc.edge_list())

    def test_angles_become_radians(self):
        doc = read_graph(doc_text(wheel_doc(6, angles={"b0:hub": 45.0})))
        labels = doc.labels_radians()
        assert labels[("b0", "hub")] == pytest.approx(math.radians(45.0), abs=1e-15)
        lg = doc.to_labeled_graph()
        assert lg.label("hub", "b0") == pytest.approx(math.radians(45.0), abs=1e-15)
        assert lg.label("b0", "b1") == 0.0

    def test_layout_problem_carries_the_boundary(self):
        doc = read_graph(doc_text(wheel_doc(5, radius=2.0)))
        problem = doc.to_layout_problem(tol=1e-11)
        assert problem.interior_vertices == ("hub",)
        assert problem.boundary_radii["b3"] == 2.0
        assert problem.tol == 1e-11


class TestReadGraphErrors:
    def test_invalid_json(self):
        assert parse_error("{nope").path == "$"

    def test_not_an_object(self):
        assert parse_error("[]").path == "$"

    def test_unknown_field(self):
        doc = wheel_doc(4)
        doc["extra"] = 1
        err = parse_error(doc_text(doc))
        assert err.path == "extra"
        assert "unknown field" in str(err)

    def test_missing_field(self):
        doc = wheel_doc(4)
        del doc["boundary"]
        assert parse_error(doc_text(doc)).path == "boundary"

    def test_vertices_must_be_a_list(self):
        doc = wheel_doc(4)
        doc["vertices"] = {"a": 1}
        assert parse_error(doc_text(doc)).path == "vertices"

    def test_duplicate_vertex(self):
        doc = wheel_doc(4)
        doc["vertices"] = ["a", "a"]
        doc["rotation"] = {"a": []}
        assert parse_error(doc_text(doc)).path == "vertices[1]"

    def test_rotation_key_must_be_a_vertex(self):
        doc = wheel_doc(4)
        doc["rotation"]["zz"] = []
        assert parse_error(doc_text(doc)).path == "rotation.zz"

    def test_rotation_entry_required_for_every_vertex(self):
        doc = wheel_doc(4)
        del doc["rotation"]["b2"]
        err = parse_error(doc_text(doc))
        assert err.path == "rotation"
        assert "b2" in str(err)

    def test_rotation_neighbor_must_be_a_vertex(self):
        doc = wheel_doc(4)
        doc["rotation"]["hub"] = ["zz", "b1", "b2", "b3"]
        assert parse_error(doc_text(doc)).path == "rotation.hub[0]"

    def test_unmirrored_edge(self):
        doc = {
            "vertices": ["a", "b"],
            "rotation": {"a": ["b"], "b": []},
            "boundary": [],
            "boundary_radii": {},
            "angles_deg": {},
        }
        err = parse_error(doc_text(doc))
        assert err.path == "rotation.a"
        assert "not mirrored" in str(err)

    def test_unmirrored_edge_names_the_first_offender_whatever_the_hash_seed(self):
        # a lists b, c and d, and none of them lists a.  The neighbor named
        # once depended on set order, which string hashing changes per process.
        doc = {
            "vertices": ["a", "b", "c", "d"],
            "rotation": {"a": ["b", "c", "d"], "b": [], "c": [], "d": []},
            "boundary": [],
            "boundary_radii": {},
            "angles_deg": {},
        }
        script = (
            "import sys\n"
            "from diskpack import ParseError, read_graph\n"
            "try:\n"
            "    read_graph(sys.stdin.read())\n"
            "except ParseError as err:\n"
            "    print(err)\n"
        )
        src = str(Path(diskpack.__file__).resolve().parent.parent)
        messages = set()
        for seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", script], input=doc_text(doc), capture_output=True, text=True, env=env
            )
            assert run.returncode == 0, run.stderr
            messages.add(run.stdout.strip())
        assert messages == {"rotation.a: edge to 'b' is not mirrored: 1 listing(s) here, 0 there"}

    def test_duplicate_boundary(self):
        doc = wheel_doc(4)
        doc["boundary"] = ["b0", "b1", "b0"]
        assert parse_error(doc_text(doc)).path == "boundary[2]"

    def test_boundary_must_name_vertices(self):
        doc = wheel_doc(4)
        doc["boundary"] = ["zz"]
        assert parse_error(doc_text(doc)).path == "boundary[0]"

    def test_radius_for_unknown_vertex(self):
        doc = wheel_doc(4)
        doc["boundary_radii"]["zz"] = 1.0
        assert parse_error(doc_text(doc)).path == "boundary_radii.zz"

    def test_radius_must_be_positive(self):
        doc = wheel_doc(4)
        doc["boundary_radii"]["b0"] = 0
        err = parse_error(doc_text(doc))
        assert err.path == "boundary_radii.b0"
        assert "positive" in str(err)

    def test_radius_beyond_the_largest_float(self):
        doc = wheel_doc(4)
        doc["boundary_radii"]["b0"] = 10**400
        err = parse_error(doc_text(doc))
        assert err.path == "boundary_radii.b0"
        assert "expected a finite number" in str(err)

    def test_radius_must_be_a_number_not_a_bool(self):
        doc = wheel_doc(4)
        doc["boundary_radii"]["b0"] = True
        err = parse_error(doc_text(doc))
        assert err.path == "boundary_radii.b0"
        assert "expected a number" in str(err)

    def test_angle_key_needs_a_colon(self):
        doc = wheel_doc(4, angles={"hub": 10.0})
        err = parse_error(doc_text(doc))
        assert err.path == "angles_deg.hub"
        assert "i:j" in str(err)

    def test_angle_key_must_be_sorted(self):
        doc = wheel_doc(4, angles={"hub:b0": 10.0})
        err = parse_error(doc_text(doc))
        assert err.path == "angles_deg.hub:b0"
        assert "sorted" in str(err)

    def test_angle_on_unknown_vertex(self):
        doc = wheel_doc(4, angles={"b0:zz": 10.0})
        assert parse_error(doc_text(doc)).path == "angles_deg.b0:zz"

    def test_angle_on_a_non_edge(self):
        doc = wheel_doc(6, angles={"b0:b3": 10.0})
        err = parse_error(doc_text(doc))
        assert err.path == "angles_deg.b0:b3"
        assert "not an edge" in str(err)

    @pytest.mark.parametrize("bad", [180.0, 180, -1.0, 359.0])
    def test_angle_out_of_range(self, bad):
        doc = wheel_doc(4, angles={"b0:hub": bad})
        err = parse_error(doc_text(doc))
        assert err.path == "angles_deg.b0:hub"
        assert "[0, 180)" in str(err)

    def test_angle_just_inside_the_range_is_fine(self):
        doc = read_graph(doc_text(wheel_doc(4, angles={"b0:hub": 179.999})))
        assert doc.angles_deg["b0:hub"] == 179.999


class TestDiskDocuments:
    def test_round_trip_is_bit_exact_for_messy_floats(self):
        ds = DiskSet((
            Disk("a", 0.1 + 0.2, 1.0 / 3.0, math.sqrt(2.0)),
            Disk("b", -1e-17, 2.5, 0.1),
        ))
        text = write_disks(ds)
        back = read_disks(text)
        assert write_disks(back) == text
        assert back.by_id("a").cx == 0.1 + 0.2
        assert back.by_id("a").r == math.sqrt(2.0)
        assert back.by_id("b").cx == -1e-17

    def test_order_preserved(self):
        ds = penny_star()
        assert read_disks(write_disks(ds)).ids == ds.ids

    def test_must_be_an_array(self):
        assert disk_error("{}").path == "$"

    def test_records_must_be_objects(self):
        assert disk_error("[42]").path == "[0]"

    def test_duplicate_id(self):
        text = json.dumps([
            {"id": "a", "x": 0, "y": 0, "r": 1},
            {"id": "a", "x": 3, "y": 0, "r": 1},
        ])
        assert disk_error(text).path == "[1].id"

    def test_missing_field(self):
        err = disk_error(json.dumps([{"id": "a", "x": 0, "y": 0}]))
        assert err.path == "[0]"
        assert "'r'" in str(err)

    def test_unknown_field(self):
        err = disk_error(json.dumps([{"id": "a", "x": 0, "y": 0, "r": 1, "q": 2}]))
        assert err.path == "[0].q"

    def test_radius_must_be_positive(self):
        assert disk_error(json.dumps([{"id": "a", "x": 0, "y": 0, "r": 0}])).path == "[0].r"
        assert disk_error(json.dumps([{"id": "a", "x": 0, "y": 0, "r": -2}])).path == "[0].r"

    def test_bool_coordinates_rejected(self):
        err = disk_error(json.dumps([{"id": "a", "x": True, "y": 0, "r": 1}]))
        assert err.path == "[0].x"
        assert "expected a number" in str(err)

    def test_nan_rejected(self):
        err = disk_error('[{"id": "a", "x": NaN, "y": 0, "r": 1}]')
        assert err.path == "[0].x"
        assert "finite" in str(err)

    def test_id_must_be_a_string(self):
        assert disk_error(json.dumps([{"id": 7, "x": 0, "y": 0, "r": 1}])).path == "[0].id"

    @pytest.mark.parametrize("field", ["x", "y", "r"])
    def test_integer_beyond_the_largest_float_rejected(self, field):
        record = {"id": "a", "x": 0.0, "y": 0.0, "r": 1.0}
        record[field] = 10**400
        err = disk_error(json.dumps([record]))
        assert err.path == f"[0].{field}"
        assert "expected a finite number" in str(err)


class TestDocumentBuilders:
    def test_from_layout_omits_tangencies(self):
        doc = read_graph(doc_text(wheel_doc(6, angles={"b0:hub": 30.0})))
        problem = doc.to_layout_problem()
        out = graph_document_from_layout(problem)
        assert set(out.angles_deg) == {"b0:hub"}
        assert out.angles_deg["b0:hub"] == pytest.approx(30.0, abs=1e-12)
        assert out.boundary == tuple(sorted(doc.boundary))
        assert out.boundary_radii == doc.boundary_radii

    def test_from_labeled_keeps_every_edge(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        rotation = {v: tuple() for v in lg.graph.vertices}
        # rotation here is a placeholder; only the label handling is under test
        doc = graph_document_from_labeled(lg, rotation)
        assert set(doc.angles_deg) == {f"{u}:{v}" for u, v in lg.graph.edge_keys()}
        assert all(v == 0.0 for v in doc.angles_deg.values())


class TestRenderSvg:
    def test_star_with_overlay(self):
        ds = penny_star()
        svg = render_svg(ds, extract_contact_graph(ds))
        assert svg.count('class="disk"') == 7
        assert svg.count('class="edge"') == 12
        assert svg.count('class="dot"') == 7
        root = ET.fromstring(svg.encode())
        assert root.tag.endswith("svg")

    def test_no_overlay_means_no_edges_or_dots(self):
        svg = render_svg(penny_star())
        assert svg.count('class="disk"') == 7
        assert 'class="edge"' not in svg
        assert 'class="dot"' not in svg

    def test_y_axis_is_flipped(self):
        svg = render_svg(DiskSet((Disk("a", 0.0, 3.0, 1.0),)))
        assert 'cy="-3"' in svg

    def test_empty_set_is_still_a_document(self):
        svg = render_svg(DiskSet(()))
        assert 'viewBox="0 0 1 1"' in svg
        assert "circle" not in svg
        ET.fromstring(svg.encode())

    def test_dashed_edges(self):
        ds = penny_star()
        svg = render_svg(ds, extract_contact_graph(ds))
        assert svg.count("stroke-dasharray") == 12


# Frozen copies of read_graph and read_disks as they stood before the
# readers were made to check each element once.  One change: the mirror
# check walks a rotation's neighbors in document order (dict.fromkeys), not
# in set order, so the unmirrored neighbor it names no longer depends on the
# hash seed.  The library must agree with them on every document: an equal
# document, or the same first error.

FROZEN_GRAPH_FIELDS = ("vertices", "rotation", "boundary", "boundary_radii", "angles_deg")
FROZEN_DISK_FIELDS = ("id", "x", "y", "r")


def frozen_require_number(value, path, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ParseError(path, f"expected a finite number, got {value!r}")
    if positive and x <= 0:
        raise ParseError(path, f"expected a positive number, got {value!r}")
    return x


def frozen_require_string(value, path):
    if not isinstance(value, str):
        raise ParseError(path, f"expected a string, got {value!r}")
    return value


def frozen_parse_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"not valid JSON for a {what}: {exc}") from exc


def frozen_read_graph(text: Union[str, bytes]) -> GraphDocument:
    data = frozen_parse_json(text, "graph document")
    if not isinstance(data, dict):
        raise ParseError("$", "graph document must be a JSON object")
    for k in data:
        if k not in FROZEN_GRAPH_FIELDS:
            raise ParseError(str(k), "unknown field")
    for k in FROZEN_GRAPH_FIELDS:
        if k not in data:
            raise ParseError(k, "missing field")

    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices", "expected a list of vertex ids")
    vertices = []
    seen = set()
    for i, v in enumerate(raw_vertices):
        vid = frozen_require_string(v, f"vertices[{i}]")
        if vid in seen:
            raise ParseError(f"vertices[{i}]", f"duplicate vertex id {vid!r}")
        seen.add(vid)
        vertices.append(vid)

    raw_rotation = data["rotation"]
    if not isinstance(raw_rotation, dict):
        raise ParseError("rotation", "expected an object mapping vertex id to neighbor list")
    for v in raw_rotation:
        if v not in seen:
            raise ParseError(f"rotation.{v}", "unknown vertex id")
    rotation = {}
    for v in vertices:
        if v not in raw_rotation:
            raise ParseError("rotation", f"missing entry for vertex {v!r}")
        order = raw_rotation[v]
        if not isinstance(order, list):
            raise ParseError(f"rotation.{v}", "expected a list of neighbor ids")
        entries = []
        for i, u in enumerate(order):
            uid = frozen_require_string(u, f"rotation.{v}[{i}]")
            if uid not in seen:
                raise ParseError(f"rotation.{v}[{i}]", f"unknown vertex id {uid!r}")
            entries.append(uid)
        rotation[v] = tuple(entries)
    for v in vertices:
        for u in dict.fromkeys(rotation[v]):
            if u != v and rotation[v].count(u) != rotation[u].count(v):
                raise ParseError(
                    f"rotation.{v}",
                    f"edge to {u!r} is not mirrored: {rotation[v].count(u)} listing(s) here, "
                    f"{rotation[u].count(v)} there",
                )

    raw_boundary = data["boundary"]
    if not isinstance(raw_boundary, list):
        raise ParseError("boundary", "expected a list of vertex ids")
    boundary = []
    bset = set()
    for i, v in enumerate(raw_boundary):
        vid = frozen_require_string(v, f"boundary[{i}]")
        if vid not in seen:
            raise ParseError(f"boundary[{i}]", f"unknown vertex id {vid!r}")
        if vid in bset:
            raise ParseError(f"boundary[{i}]", f"duplicate boundary id {vid!r}")
        bset.add(vid)
        boundary.append(vid)

    raw_radii = data["boundary_radii"]
    if not isinstance(raw_radii, dict):
        raise ParseError("boundary_radii", "expected an object mapping vertex id to radius")
    radii = {}
    for v, r in raw_radii.items():
        if v not in seen:
            raise ParseError(f"boundary_radii.{v}", "unknown vertex id")
        radii[v] = frozen_require_number(r, f"boundary_radii.{v}", positive=True)

    raw_angles = data["angles_deg"]
    if not isinstance(raw_angles, dict):
        raise ParseError("angles_deg", "expected an object mapping 'i:j' to degrees")
    edge_set = set()
    for v in vertices:
        for u in rotation[v]:
            edge_set.add(edge_key(u, v))
    angles = {}
    for key, value in raw_angles.items():
        path = f"angles_deg.{key}"
        u, sep, v = key.partition(":")
        if not sep or not u or not v:
            raise ParseError(path, "key must look like 'i:j'")
        if (u, v) != edge_key(u, v):
            raise ParseError(path, "endpoint ids must be in sorted order")
        if u not in seen or v not in seen:
            raise ParseError(path, "names an unknown vertex")
        if (u, v) not in edge_set:
            raise ParseError(path, "names a pair that is not an edge of the rotation")
        deg = frozen_require_number(value, path)
        if not 0.0 <= deg < 180.0:
            raise ParseError(path, f"angle must lie in [0, 180) degrees, got {value!r}")
        angles[key] = deg

    return GraphDocument(tuple(vertices), rotation, tuple(boundary), radii, angles)


def frozen_read_disks(text: Union[str, bytes]) -> DiskSet:
    data = frozen_parse_json(text, "disk document")
    if not isinstance(data, list):
        raise ParseError("$", "disk document must be a JSON array of records")
    disks = []
    seen = set()
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise ParseError(f"[{i}]", "expected an object with fields id, x, y, r")
        for k in rec:
            if k not in FROZEN_DISK_FIELDS:
                raise ParseError(f"[{i}].{k}", "unknown field")
        for k in FROZEN_DISK_FIELDS:
            if k not in rec:
                raise ParseError(f"[{i}]", f"missing field {k!r}")
        disk_id = frozen_require_string(rec["id"], f"[{i}].id")
        if disk_id in seen:
            raise ParseError(f"[{i}].id", f"duplicate disk id {disk_id!r}")
        seen.add(disk_id)
        x = frozen_require_number(rec["x"], f"[{i}].x")
        y = frozen_require_number(rec["y"], f"[{i}].y")
        r = frozen_require_number(rec["r"], f"[{i}].r", positive=True)
        disks.append(Disk(disk_id, x, y, r))
    return DiskSet(tuple(disks))


def multi_listing_doc():
    """a and b list each other twice, which the mirror check counts; c lists itself."""
    return {
        "vertices": ["a", "b", "c"],
        "rotation": {"a": ["b", "c", "b"], "b": ["a", "c", "a"], "c": ["a", "b", "c"]},
        "boundary": ["c"],
        "boundary_radii": {"c": 2},
        "angles_deg": {"a:b": 30, "a:c": 0.0, "c:c": 45.5},
    }


GRAPH_BASES = (
    wheel_doc(6, angles={"b0:hub": 30.0, "b1:b2": 89.5, "b3:hub": 0.0}),
    chorded_quad_doc(),
    multi_listing_doc(),
)
DISK_BASES = (
    json.loads(write_disks(penny_star())),
    [{"id": "a", "x": 0, "y": -0.0, "r": 1}, {"id": "b", "x": 2.5, "y": 1e-300, "r": 0.5}],
)
# Values a mutation may put anywhere: wrong types, bools and ints where
# floats go, NaN and infinities (written as NaN/Infinity literals), ids that
# exist, one that does not, and angles just inside and outside the range.
ODD_VALUES = (
    None, True, False, 0, 1, -1, 30, 2.5, 0.0, -0.0, -1.0, 179.99, 180.0, 200,
    math.nan, math.inf, -math.inf, "", "zz", "a", "b", "c", "hub", "b0", "b1",
    "a:b", [], {}, ["b0"], {"x": 1},
)
# Keys a mutation may add to an object: unknown and known ids, unsorted,
# malformed and non-edge angle keys, unknown fields.
ODD_KEYS = (
    "zz", "a", "b", "c", "hub", "b0", "b:a", "c:a", "hub:b0", "b0:b3", "b0:hub", "a:c",
    ":", "a:", ":b", "a:b:c", "id", "x", "r", "q", "vertices", "angles_deg",
)


def _slots(node, out):
    """Every (container, key or index) in a JSON value, each container also
    as (container, None)."""
    if isinstance(node, (dict, list)):
        out.append((node, None))
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            out.append((node, k))
            _slots(v, out)
    return out


@st.composite
def mutated(draw, bases):
    """A base document with up to three edits: a value replaced, an entry
    deleted, duplicated or added, or an object key renamed.  One edit in
    eight is made at the top level; the rest go into one field or record,
    drawn first so that short fields get their share."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(0, 3))):
        children = [c for c in (doc.values() if isinstance(doc, dict) else doc) if isinstance(c, (dict, list))]
        if children and draw(st.integers(0, 7)) > 0:
            node, key = draw(st.sampled_from(_slots(draw(st.sampled_from(children)), [])))
        else:
            node, key = draw(st.sampled_from(_slots(doc, [])[:1 + len(doc)]))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        edit = draw(st.sampled_from(("replace", "replace", "delete", "duplicate", "add", "rename")))
        if key is None:  # an entry added to the container
            if isinstance(node, dict):
                node[draw(st.sampled_from(ODD_KEYS))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
        elif edit == "replace":
            node[key] = value
        elif edit == "delete":
            del node[key]
        elif edit == "duplicate" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), copy.deepcopy(node[key]))
        elif isinstance(node, dict):
            new_key = draw(st.sampled_from(ODD_KEYS))
            if edit == "rename":
                node[new_key] = node.pop(key)
            else:
                node[new_key] = copy.deepcopy(node[key])
    return json.dumps(doc)


def parsed(read, text):
    """What a reader returns, by repr, or the type, path and message it raises."""
    try:
        return repr(read(text))
    except ParseError as err:
        return "ParseError", err.path, str(err)
    except Exception as err:  # any other failure must match too
        return type(err).__name__, str(err)


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# One edit per check of the readers, so each check is compared at least once
# whatever the random edits reach.
GRAPH_EDITS = {
    "vertex-not-a-string": _set(("vertices", 0), 7),
    "vertex-duplicate": _set(("vertices", 1), "hub"),
    "rotation-unknown-key": _set(("rotation", "zz"), []),
    "rotation-not-a-list": _set(("rotation", "hub"), "b0"),
    "rotation-entry-unhashable": _set(("rotation", "hub", 2), ["b0"]),
    "rotation-entry-unknown": _set(("rotation", "hub", 3), "zz"),
    "rotation-unmirrored": _set(("rotation", "b0"), ["b1", "b5"]),
    "rotation-listed-twice": _set(("rotation", "hub"), ["b0", "b1", "b2", "b3", "b4", "b5", "b0"]),
    "boundary-not-a-string": _set(("boundary", 2), None),
    "boundary-unknown": _set(("boundary", 2), "zz"),
    "boundary-duplicate": _set(("boundary", 2), "b0"),
    "radius-unknown": _set(("boundary_radii", "zz"), 1.0),
    "radius-bool": _set(("boundary_radii", "b0"), True),
    "radius-zero": _set(("boundary_radii", "b0"), 0),
    "radius-int": _set(("boundary_radii", "b0"), 2),
    "angle-key-malformed": _set(("angles_deg", ":b0"), 1.0),
    "angle-key-unsorted": _set(("angles_deg", "hub:b1"), 1.0),
    "angle-key-unknown": _set(("angles_deg", "b0:zz"), 1.0),
    "angle-key-non-edge": _set(("angles_deg", "b0:b3"), 1.0),
    "angle-int": _set(("angles_deg", "b0:hub"), 30),
    "angle-bool": _set(("angles_deg", "b0:hub"), False),
    "angle-negative-zero": _set(("angles_deg", "b0:hub"), -0.0),
    "angle-nan": _set(("angles_deg", "b0:hub"), math.nan),
    "angle-180": _set(("angles_deg", "b0:hub"), 180.0),
    "angle-negative": _set(("angles_deg", "b0:hub"), -1),
    "angle-a-string": _set(("angles_deg", "b0:hub"), "30"),
}
DISK_EDITS = {
    "record-not-an-object": _set((1,), ["b0"]),
    "unknown-field": _set((1, "q"), 2),
    "missing-field": lambda doc: doc[1].pop("y"),
    "id-not-a-string": _set((1, "id"), 7),
    "id-duplicate": _set((2, "id"), "hub"),
    "x-nan": _set((1, "x"), math.nan),
    "y-infinite": _set((1, "y"), -math.inf),
    "x-bool": _set((1, "x"), True),
    "y-string": _set((1, "y"), "0"),
    "ints": lambda doc: doc[1].update(x=3, y=-4, r=2),
    "r-zero": _set((1, "r"), 0.0),
    "r-negative-int": _set((1, "r"), -2),
    "r-infinite": _set((1, "r"), math.inf),
}


def edited(base, edit):
    doc = copy.deepcopy(base)
    edit(doc)
    return json.dumps(doc)


class TestAgainstFrozenReaders:
    @pytest.mark.parametrize("name", sorted(GRAPH_EDITS))
    def test_each_graph_check(self, name):
        text = edited(GRAPH_BASES[0], GRAPH_EDITS[name])
        assert parsed(read_graph, text) == parsed(frozen_read_graph, text)

    @pytest.mark.parametrize("name", sorted(DISK_EDITS))
    def test_each_disk_check(self, name):
        text = edited(DISK_BASES[0], DISK_EDITS[name])
        assert parsed(read_disks, text) == parsed(frozen_read_disks, text)

    @settings(max_examples=400, deadline=None)
    @given(mutated(GRAPH_BASES))
    def test_graph_documents(self, text):
        assert parsed(read_graph, text) == parsed(frozen_read_graph, text)

    @settings(max_examples=300, deadline=None)
    @given(mutated(DISK_BASES))
    def test_disk_documents(self, text):
        assert parsed(read_disks, text) == parsed(frozen_read_disks, text)

    @pytest.mark.parametrize("base", GRAPH_BASES, ids=["wheel", "chorded-quad", "multi-listing"])
    def test_unmutated_graph_bases_parse(self, base):
        doc = read_graph(doc_text(base))
        assert repr(doc) == repr(frozen_read_graph(doc_text(base)))
        assert write_graph(doc) == write_graph(frozen_read_graph(doc_text(base)))
