"""Graph layer: simplicity, faces, triangulation, 4-cycle label gates."""

import math
import random

import numpy as np
import pytest

from conftest import cyclic_equal, penny_star, random_patch, wheel_embedding
from diskpack import (
    EmbeddedGraph,
    Graph,
    InconsistentBoundaryError,
    InvalidInputError,
    LabeledContactGraph,
    UnsupportedInputError,
    chordless_4cycles,
    edge_key,
    faces_from_rotation,
    is_triangulated,
    outer_face_index,
    planarity_necessary,
    quad_feasibility,
    rotation_from_positions,
    validate_simple,
)


def k_complete(n):
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    return Graph(tuple(ids), tuple(edges))


def square_cycle():
    g = Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
    rotation = {"a": ("d", "b"), "b": ("c", "a"), "c": ("b", "d"), "d": ("c", "a")}
    return EmbeddedGraph(g, rotation)


def grid_embedding(n):
    """n-by-n grid graph embedded by its integer coordinates."""
    ids = [f"g{i}{j}" for i in range(n) for j in range(n)]
    pos = {f"g{i}{j}": complex(i, j) for i in range(n) for j in range(n)}
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append((f"g{i}{j}", f"g{i+1}{j}"))
            if j + 1 < n:
                edges.append((f"g{i}{j}", f"g{i}{j+1}"))
    rotation = rotation_from_positions(ids, edges, pos)
    boundary = frozenset(v for v in ids if v[1] in ("0", str(n - 1)) or v[2] in ("0", str(n - 1)))
    return EmbeddedGraph(Graph(tuple(ids), tuple(edges)), rotation, boundary)


class TestGraphBasics:
    def test_edge_key_sorts_endpoints(self):
        assert edge_key("b", "a") == ("a", "b")
        assert edge_key("a", "b") == ("a", "b")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InvalidInputError):
            Graph(("a", "a"), ())

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            Graph(("a",), (("a", "b"),))

    def test_adjacency_ignores_loops(self):
        g = Graph(("a", "b"), (("a", "a"), ("a", "b")))
        assert g.adjacency() == {"a": {"b"}, "b": {"a"}}


class TestSimplicity:
    def test_clean_graph(self):
        rep = validate_simple(k_complete(4))
        assert rep.ok and rep.loops == () and rep.repeated == ()

    def test_loop_reported(self):
        rep = validate_simple(Graph(("a", "b"), (("a", "a"), ("a", "b"))))
        assert not rep.ok
        assert rep.loops == ("a",)

    def test_repeated_edge_reported(self):
        rep = validate_simple(Graph(("a", "b"), (("a", "b"), ("b", "a"))))
        assert not rep.ok
        assert rep.repeated == (("a", "b"),)


class TestEdgeBound:
    def test_k4_passes(self):
        rep = planarity_necessary(k_complete(4))
        assert rep.ok and rep.edge_count == 6 and rep.bound == 6

    def test_k5_fails(self):
        rep = planarity_necessary(k_complete(5))
        assert not rep.ok
        assert rep.edge_count == 10 and rep.bound == 9

    def test_tiny_graphs_trivially_pass(self):
        rep = planarity_necessary(Graph(("a", "b"), (("a", "b"),)))
        assert rep.ok and rep.bound is None

    def test_requires_simple(self):
        with pytest.raises(InvalidInputError):
            planarity_necessary(Graph(("a",), (("a", "a"),)))


class TestEmbeddedGraph:
    def test_rotation_must_cover_vertices(self):
        g = Graph(("a", "b"), (("a", "b"),))
        with pytest.raises(InvalidInputError):
            EmbeddedGraph(g, {"a": ("b",)})

    def test_rotation_must_match_neighbors(self):
        g = Graph(("a", "b", "c"), (("a", "b"),))
        with pytest.raises(InvalidInputError):
            EmbeddedGraph(g, {"a": ("b", "c"), "b": ("a",), "c": ()})

    def test_boundary_must_name_vertices(self):
        g = Graph(("a", "b"), (("a", "b"),))
        with pytest.raises(InvalidInputError):
            EmbeddedGraph(g, {"a": ("b",), "b": ("a",)}, frozenset({"z"}))

    def test_loops_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddedGraph(Graph(("a",), (("a", "a"),)), {"a": ("a",)})


class TestFaces:
    def test_triangle_has_two_faces(self):
        g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        rotation = {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}
        decomp = faces_from_rotation(EmbeddedGraph(g, rotation))
        assert decomp.face_count == 2
        assert decomp.ok

    def test_hexagonal_wheel_has_seven_faces(self):
        decomp = faces_from_rotation(wheel_embedding(6))
        assert decomp.face_count == 7
        assert decomp.characteristic == 2
        lengths = sorted(len(f) for f in decomp.faces)
        assert lengths == [3, 3, 3, 3, 3, 3, 6]

    def test_every_directed_edge_in_exactly_one_face(self):
        rng = random.Random(12)
        for n in (10, 16, 24):
            emb = random_patch(rng, n).embedding
            decomp = faces_from_rotation(emb)
            directed = emb.directed_edges()
            assert sum(len(f) for f in decomp.faces) == len(directed)
            assert sorted(decomp.face_index()) == directed

    def test_twisted_rotation_is_not_planar(self):
        g = k_complete(4)
        ids = ("v0", "v1", "v2", "v3")
        pos = {"v0": 0j, "v1": 4 + 0j, "v2": 2 + 3j, "v3": 2 + 1j}
        rotation = rotation_from_positions(ids, g.edges, pos)
        planar = faces_from_rotation(EmbeddedGraph(g, rotation))
        assert planar.ok and planar.face_count == 4

        twisted = dict(rotation)
        twisted["v3"] = tuple(reversed(rotation["v3"]))
        decomp = faces_from_rotation(EmbeddedGraph(g, twisted))
        assert not decomp.ok
        assert decomp.characteristic != 2

    def test_disconnected_rejected(self):
        g = Graph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        rotation = {"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)}
        with pytest.raises(UnsupportedInputError):
            faces_from_rotation(EmbeddedGraph(g, rotation))

    def test_empty_rejected(self):
        with pytest.raises(UnsupportedInputError):
            faces_from_rotation(EmbeddedGraph(Graph((), ()), {}))


class TestOuterFace:
    def test_boundary_picks_the_rim_face(self):
        emb = wheel_embedding(6)
        decomp = faces_from_rotation(emb)
        outer = outer_face_index(emb, decomp)
        assert len(decomp.faces[outer]) == 6
        assert set(decomp.face_vertices(outer)) == set(emb.boundary)

    def test_explicit_edge_wins(self):
        emb = wheel_embedding(6)
        decomp = faces_from_rotation(emb)
        for de, idx in decomp.face_index().items():
            assert outer_face_index(emb, decomp, de) == idx

    def test_unknown_edge_rejected(self):
        emb = wheel_embedding(6)
        decomp = faces_from_rotation(emb)
        with pytest.raises(InvalidInputError):
            outer_face_index(emb, decomp, ("hub", "nope"))

    def test_boundary_not_a_face_rejected(self):
        emb = wheel_embedding(6)
        bad = EmbeddedGraph(emb.graph, emb.rotation, frozenset({"b0", "b1"}))
        decomp = faces_from_rotation(bad)
        with pytest.raises(InconsistentBoundaryError):
            outer_face_index(bad, decomp)

    def test_no_boundary_and_no_edge_rejected(self):
        emb = square_cycle()
        decomp = faces_from_rotation(emb)
        with pytest.raises(InvalidInputError):
            outer_face_index(emb, decomp)


class TestIsTriangulated:
    def test_wheels_are_triangulated(self):
        for n in (3, 4, 6, 9):
            assert is_triangulated(wheel_embedding(n))

    def test_square_cycle_is_not(self):
        emb = square_cycle()
        assert not is_triangulated(emb)

    def test_grid_is_not(self):
        assert not is_triangulated(grid_embedding(3))

    def test_bare_triangle_passes_without_boundary(self):
        g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        rotation = {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}
        assert is_triangulated(EmbeddedGraph(g, rotation))

    def test_nonplanar_rotation_rejected(self):
        g = k_complete(4)
        ids = ("v0", "v1", "v2", "v3")
        pos = {"v0": 0j, "v1": 4 + 0j, "v2": 2 + 3j, "v3": 2 + 1j}
        rotation = rotation_from_positions(ids, g.edges, pos)
        rotation["v3"] = tuple(reversed(rotation["v3"]))
        with pytest.raises(InvalidInputError):
            is_triangulated(EmbeddedGraph(g, rotation))


class TestChordless4Cycles:
    def test_square_has_one(self):
        lg = LabeledContactGraph(square_cycle().graph)
        assert chordless_4cycles(lg) == (("a", "b", "c", "d"),)

    def test_chord_kills_it(self):
        g = Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")))
        assert chordless_4cycles(LabeledContactGraph(g)) == ()

    def test_grid_unit_squares(self):
        lg = LabeledContactGraph(grid_embedding(3).graph)
        cycles = chordless_4cycles(lg)
        assert len(cycles) == 4
        for cyc in cycles:
            assert cyc[0] == min(cyc)

    def test_triangle_free_of_them(self):
        g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
        assert chordless_4cycles(LabeledContactGraph(g)) == ()


class TestQuadFeasibility:
    def test_uniform_100_degrees_flagged(self):
        lg = LabeledContactGraph(
            square_cycle().graph,
            {k: math.radians(100.0) for k in square_cycle().graph.edge_keys()},
        )
        rep = quad_feasibility(lg)
        assert not rep.ok
        (cyc, total), = rep.infeasible
        assert cyc == ("a", "b", "c", "d")
        assert total == pytest.approx(math.radians(400.0), abs=1e-12)

    def test_exactly_360_flagged(self):
        lg = LabeledContactGraph(
            square_cycle().graph,
            {k: math.radians(90.0) for k in square_cycle().graph.edge_keys()},
        )
        assert not quad_feasibility(lg).ok

    def test_just_below_360_passes(self):
        lg = LabeledContactGraph(
            square_cycle().graph,
            {k: math.radians(89.9) for k in square_cycle().graph.edge_keys()},
        )
        assert quad_feasibility(lg).ok

    def test_chorded_quad_passes_with_large_labels(self):
        g = Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")))
        labels = {k: math.radians(100.0) for k in g.edge_keys() if k != ("b", "d")}
        labels[("b", "d")] = math.radians(130.0)
        assert quad_feasibility(LabeledContactGraph(g, labels)).ok


class TestLabeledContactGraph:
    def test_defaults_to_tangency(self):
        lg = LabeledContactGraph(Graph(("a", "b"), (("a", "b"),)))
        assert lg.label("a", "b") == 0.0
        assert lg.label("b", "a") == 0.0

    def test_label_on_non_edge_rejected(self):
        with pytest.raises(InvalidInputError):
            LabeledContactGraph(Graph(("a", "b", "c"), (("a", "b"),)), {("a", "c"): 0.5})

    def test_label_out_of_range_rejected(self):
        g = Graph(("a", "b"), (("a", "b"),))
        with pytest.raises(InvalidInputError):
            LabeledContactGraph(g, {("a", "b"): math.pi})
        with pytest.raises(InvalidInputError):
            LabeledContactGraph(g, {("a", "b"): -0.1})

    def test_keys_normalize_to_sorted_order(self):
        lg = LabeledContactGraph(Graph(("a", "b"), (("b", "a"),)), {("b", "a"): 0.25})
        assert lg.labels == {("a", "b"): 0.25}

    def test_labels_become_floats_in_label_order(self):
        g = Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")))
        lg = LabeledContactGraph(g, {("b", "c"): 1, ("a", "c"): np.float64(0.5), ("a", "b"): 0.25})
        assert list(lg.labels.items())[:3] == [(("b", "c"), 1.0), (("a", "c"), 0.5), (("a", "b"), 0.25)]
        assert lg.labels[("c", "d")] == 0.0
        assert all(type(theta) is float for theta in lg.labels.values())

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -0.0 - 1e-300])
    def test_label_nan_or_infinite_rejected(self, theta):
        with pytest.raises(InvalidInputError, match="must lie in"):
            LabeledContactGraph(Graph(("a", "b"), (("a", "b"),)), {("a", "b"): theta})

    @pytest.mark.parametrize("theta", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_integer_beyond_the_largest_float_rejected(self, theta):
        # Converting such an int to float raises OverflowError; the label is
        # compared instead, and the error names the edge.
        with pytest.raises(InvalidInputError, match=r"label on \('a', 'b'\) must lie in"):
            LabeledContactGraph(Graph(("a", "b"), (("b", "a"),)), {("b", "a"): theta})


class TestRotationFromPositions:
    def test_recovers_wheel_rotation(self):
        emb = wheel_embedding(6)
        pos = {d.id: d.center for d in penny_star()}
        rot = rotation_from_positions(emb.graph.vertices, emb.graph.edges, pos)
        for v in emb.graph.vertices:
            assert cyclic_equal(rot[v], emb.rotation[v])
