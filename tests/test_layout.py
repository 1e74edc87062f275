"""Radius solving and center placement on triangulated patches."""

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import doc_text, random_patch, wheel_doc, wheel_embedding, wheel_problem
from diskpack import graph as graphmod
from diskpack import layout as layoutmod
from diskpack import (
    DegenerateTriangleError,
    Disk,
    EmbeddedGraph,
    Graph,
    InconsistentLayoutError,
    InvalidInputError,
    LayoutProblem,
    NonConvergenceError,
    UnsupportedInputError,
    angle_sum,
    extract_contact_graph,
    pack,
    place_centers,
    read_graph,
    rotation_from_positions,
    solve_radii,
    verify_realization,
)
from diskpack.layout import HIGH_LABEL_WARNING


def wheel_radius_closed_form(n):
    # uniform tangency wheel: each hub angle is 2*asin(1/(1+rho)) = 2*pi/n
    return 1.0 / math.sin(math.pi / n) - 1.0


def triangle_problem(radii):
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    rotation = {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")}
    emb = EmbeddedGraph(g, rotation, frozenset({"a", "b", "c"}))
    return LayoutProblem(emb, dict(zip(("a", "b", "c"), radii)))


class TestLayoutProblem:
    def test_requires_boundary(self):
        emb = wheel_embedding(6)
        bare = EmbeddedGraph(emb.graph, emb.rotation, frozenset())
        with pytest.raises(InvalidInputError):
            LayoutProblem(bare, {})

    def test_requires_triangulated(self):
        g = Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")))
        rotation = {"a": ("d", "b"), "b": ("c", "a"), "c": ("b", "d"), "d": ("c", "a")}
        emb = EmbeddedGraph(g, rotation, frozenset("abcd"))
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, {v: 1.0 for v in "abcd"})

    def test_radii_must_cover_boundary_exactly(self):
        emb = wheel_embedding(6)
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, {"b0": 1.0})
        radii = {v: 1.0 for v in emb.boundary}
        radii["hub"] = 1.0
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, radii)

    def test_radii_must_be_positive(self):
        emb = wheel_embedding(6)
        radii = {v: 1.0 for v in emb.boundary}
        radii["b3"] = 0.0
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, radii)

    def test_label_on_non_edge_rejected(self):
        emb = wheel_embedding(6)
        radii = {v: 1.0 for v in emb.boundary}
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, radii, {("b0", "b3"): 0.5})

    def test_tol_and_budget_validated(self):
        emb = wheel_embedding(6)
        radii = {v: 1.0 for v in emb.boundary}
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, radii, tol=0.0)
        with pytest.raises(InvalidInputError):
            LayoutProblem(emb, radii, max_iter=0)

    @pytest.mark.parametrize("field, value", [
        ("tol", "1e-10"), ("tol", True), ("max_iter", "3"), ("max_iter", 2.5), ("max_iter", True),
    ])
    def test_non_numeric_tol_and_budget_name_the_field(self, field, value):
        emb = wheel_embedding(6)
        with pytest.raises(InvalidInputError, match=field):
            LayoutProblem(emb, {v: 1.0 for v in emb.boundary}, **{field: value})

    @pytest.mark.parametrize("bad", ["1", True, None, pytest.param(10**400, id="10**400")])
    def test_non_numeric_boundary_radius_names_the_vertex(self, bad):
        emb = wheel_embedding(6)
        radii = {v: 1.0 for v in emb.boundary}
        radii["b2"] = bad
        with pytest.raises(InvalidInputError, match="'b2'"):
            LayoutProblem(emb, radii)

    def test_interior_vertices(self):
        assert wheel_problem(6).interior_vertices == ("hub",)
        assert triangle_problem((1.0, 1.0, 1.0)).interior_vertices == ()


class TestAngleSum:
    def test_hexagonal_wheel_at_unit_radii_closes(self):
        problem = wheel_problem(6)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        assert angle_sum("hub", radii, problem) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_square_wheel_at_unit_radii_is_240_degrees(self):
        problem = wheel_problem(4)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        got = angle_sum("hub", radii, problem)
        assert got == pytest.approx(math.radians(240.0), abs=1e-12)

    def test_boundary_vertex_rejected(self):
        problem = wheel_problem(6)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        with pytest.raises(InvalidInputError):
            angle_sum("b0", radii, problem)

    def test_unknown_vertex_rejected(self):
        problem = wheel_problem(6)
        with pytest.raises(InvalidInputError):
            angle_sum("zz", {}, problem)

    def test_flat_face_reports_the_face(self):
        # two spokes at 170 degrees shrink their sides below the rim length
        theta = math.radians(170.0)
        problem = wheel_problem(6, labels={("hub", "b0"): theta, ("hub", "b1"): theta})
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        with pytest.raises(DegenerateTriangleError, match="face"):
            angle_sum("hub", radii, problem)

    def test_first_flat_face_in_rotation_order_is_named(self):
        theta = math.radians(170.0)
        labels = {("hub", b): theta for b in ("b0", "b1", "b3", "b4")}
        problem = wheel_problem(6, labels=labels)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        with pytest.raises(DegenerateTriangleError, match=r"face \(hub, b0, b1\)"):
            angle_sum("hub", radii, problem)

    def test_missing_radius_names_the_vertex(self):
        problem = wheel_problem(6)
        with pytest.raises(InvalidInputError, match="'hub'"):
            angle_sum("hub", {}, problem)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        del radii["b4"]
        with pytest.raises(InvalidInputError, match="'b4'"):
            angle_sum("hub", radii, problem)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_radius_names_the_vertex(self, bad):
        problem = wheel_problem(6)
        vertices = problem.embedding.graph.vertices
        with pytest.raises(InvalidInputError, match="'hub'"):
            angle_sum("hub", {v: bad for v in vertices}, problem)
        radii = {v: 1.0 for v in vertices}
        radii["b2"] = bad
        with pytest.raises(InvalidInputError, match="'b2'"):
            angle_sum("hub", radii, problem)

    @pytest.mark.parametrize("bad", ["1", True])
    def test_non_numeric_radius_names_the_vertex(self, bad):
        problem = wheel_problem(6)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        radii["b2"] = bad
        with pytest.raises(InvalidInputError, match="'b2'"):
            angle_sum("hub", radii, problem)

    @pytest.mark.parametrize("r", [1e-170, 1e170])
    def test_sides_out_of_float_range_raise(self, r):
        # The squared sides under- or overflow, so no angle can be read.
        problem = wheel_problem(6)
        with pytest.raises(DegenerateTriangleError, match="'hub'"):
            angle_sum("hub", {v: r for v in problem.embedding.graph.vertices}, problem)

    def test_reads_only_its_own_fan(self):
        problem = random_patch(random.Random(12), 24)
        radii = solve_radii(problem).radii
        for v in problem.interior_vertices:
            fan = {v, *problem.embedding.rotation[v]}
            assert len(fan) < len(radii)
            own = {u: r for u, r in radii.items() if u in fan}
            own["elsewhere"] = math.nan
            assert angle_sum(v, own, problem) == angle_sum(v, radii, problem)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(6, 24))
    @example(0, 8)
    def test_residual_is_the_worst_angle_sum_exactly(self, seed, n):
        # One kernel computes both, so they agree bit for bit.
        problem = random_patch(random.Random(seed), n)
        solution = solve_radii(problem)
        worst = max(
            (abs(angle_sum(v, solution.radii, problem) - 2.0 * math.pi) for v in problem.interior_vertices),
            default=0.0,
        )
        assert worst == solution.residual


class TestSolveRadii:
    def test_hexagonal_wheel_gives_unit_hub(self):
        solution = solve_radii(wheel_problem(6))
        assert solution.radii["hub"] == pytest.approx(1.0, abs=1e-10)
        assert solution.residual <= 1e-10

    def test_square_wheel_matches_closed_form(self):
        solution = solve_radii(wheel_problem(4))
        assert solution.radii["hub"] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-10)

    def test_wheels_match_closed_form(self):
        for n in (3, 4, 5, 6, 7, 9):
            solution = solve_radii(wheel_problem(n))
            assert solution.radii["hub"] == pytest.approx(wheel_radius_closed_form(n), abs=1e-9)

    def test_boundary_radii_pass_through(self):
        solution = solve_radii(wheel_problem(6, radius=2.5))
        for v in wheel_embedding(6).boundary:
            assert solution.radii[v] == 2.5

    def test_solution_scales_with_boundary(self):
        a = solve_radii(wheel_problem(5, radius=1.0)).radii["hub"]
        b = solve_radii(wheel_problem(5, radius=3.0)).radii["hub"]
        assert b == pytest.approx(3.0 * a, rel=1e-9)

    def test_uniform_30_degree_wheel_still_unit(self):
        emb = wheel_embedding(6)
        labels = {k: math.radians(30.0) for k in emb.graph.edge_keys()}
        solution = solve_radii(wheel_problem(6, labels=labels))
        assert solution.radii["hub"] == pytest.approx(1.0, abs=1e-10)
        assert solution.warnings == ()

    def test_initial_guess_is_only_a_start(self):
        problem = wheel_problem(6)
        for start in (0.01, 1.0, 50.0):
            solution = solve_radii(problem, {"hub": start})
            assert solution.radii["hub"] == pytest.approx(1.0, abs=1e-9)

    def test_bad_initial_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_radii(wheel_problem(6), {"hub": -1.0})

    @pytest.mark.parametrize("bad", ["abc", "2.0", True])
    def test_non_numeric_initial_names_the_vertex(self, bad):
        with pytest.raises(InvalidInputError, match="'hub'"):
            solve_radii(wheel_problem(6), {"hub": bad})

    def test_start_below_the_smallest_float_in_solver_units(self):
        # The solve runs at boundary radius 0.5, where this start underflows.
        solution = solve_radii(wheel_problem(6), {"hub": 5e-324})
        assert solution.radii["hub"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**600])
    def test_extreme_scales_solve_exactly_as_at_scale_one(self, scale):
        # Angle sums do not change under scaling, and scaling by a power of
        # two is exact, so the solve is the same at every scale.
        problems = [wheel_problem(n) for n in (3, 5, 6)] + [random_patch(random.Random(s), 14) for s in (1, 2)]
        for problem in problems:
            scaled = LayoutProblem(
                problem.embedding, {v: r * scale for v, r in problem.boundary_radii.items()}, problem.labels
            )
            want, got = solve_radii(problem), solve_radii(scaled)
            assert got.radii == {v: r * scale for v, r in want.radii.items()}
            assert (got.iterations, got.residual) == (want.iterations, want.residual)

    def test_mixed_scales_raise_a_typed_error(self):
        # A boundary disk of radius 1e-170 beside disks of radius 1: a side at
        # the hub under- or overflows as the hub shrinks toward it.
        emb = wheel_embedding(3)
        problem = LayoutProblem(emb, {v: 1e-170 if v == "b0" else 1.0 for v in emb.boundary})
        with pytest.raises(DegenerateTriangleError, match="'hub'"):
            solve_radii(problem)

    def test_a_sweep_that_changes_nothing_stops_the_solve(self):
        # Rim radii alternate 1e-170 and 1: from the second sweep on, the hub
        # radius no longer moves and the residual stays at pi, so the default
        # budget of 100,000 sweeps would only repeat one sweep.
        emb = wheel_embedding(6)
        problem = LayoutProblem(emb, {f"b{k}": (1e-170, 1.0)[k % 2] for k in range(6)})
        assert problem.max_iter == 100_000
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="left every radius unchanged") as err:
            solve_radii(problem)
        assert time.perf_counter() - start < 0.5
        assert err.value.iterations == 3
        assert err.value.best_residual == pytest.approx(math.pi)

    def test_two_starts_agree_on_random_patches(self):
        rng = random.Random(2024)
        for _ in range(6):
            problem = random_patch(rng, rng.randint(10, 20))
            ones = {v: 1.0 for v in problem.interior_vertices}
            wild = {v: rng.uniform(0.2, 5.0) for v in problem.interior_vertices}
            a = solve_radii(problem, ones)
            b = solve_radii(problem, wild)
            for v in problem.interior_vertices:
                assert a.radii[v] == pytest.approx(b.radii[v], abs=1e-8)
            assert a.residual <= problem.tol
            assert b.residual <= problem.tol

    def test_high_label_warns_and_degrades_gracefully(self):
        emb = wheel_embedding(6)
        labels = {("b0", "b1"): math.radians(100.0)}
        problem = wheel_problem(6, labels=labels)
        with pytest.warns(UserWarning, match="not guaranteed"):
            solution = solve_radii(problem)
        assert HIGH_LABEL_WARNING in solution.warnings
        assert solution.residual <= problem.tol

    def test_no_warning_at_90_degrees(self):
        labels = {("b0", "b1"): math.radians(90.0)}
        solution = solve_radii(wheel_problem(6, labels=labels))
        assert solution.warnings == ()

    def test_budget_exhaustion_reports_best_residual(self):
        rng = random.Random(5)
        problem = random_patch(rng, 18)
        assert problem.interior_vertices
        tight = LayoutProblem(
            problem.embedding, problem.boundary_radii, problem.labels, tol=1e-12, max_iter=1
        )
        with pytest.raises(NonConvergenceError) as info:
            solve_radii(tight)
        assert info.value.iterations == 1
        assert info.value.best_residual > 0.0

    def test_no_interior_is_trivial(self):
        solution = solve_radii(triangle_problem((1.0, 2.0, 3.0)))
        assert solution.iterations == 0
        assert solution.residual == 0.0


class TestPlaceCenters:
    def test_tangent_triangle_has_pythagorean_distances(self):
        problem = triangle_problem((1.0, 2.0, 3.0))
        disks, closure = place_centers(problem, solve_radii(problem).radii)
        assert closure == 0.0
        pos = {d.id: d.center for d in disks}
        assert abs(pos["a"] - pos["b"]) == pytest.approx(3.0, abs=1e-12)
        assert abs(pos["b"] - pos["c"]) == pytest.approx(5.0, abs=1e-12)
        assert abs(pos["a"] - pos["c"]) == pytest.approx(4.0, abs=1e-12)

    def test_two_disk_chain(self):
        g = Graph(("a", "b"), (("a", "b"),))
        emb = EmbeddedGraph(g, {"a": ("b",), "b": ("a",)}, frozenset({"a", "b"}))
        problem = LayoutProblem(emb, {"a": 1.0, "b": 2.0})
        disks, closure = place_centers(problem, {"a": 1.0, "b": 2.0})
        assert closure == 0.0
        assert abs(disks.by_id("a").center - disks.by_id("b").center) == pytest.approx(3.0, abs=1e-12)

    def test_hexagonal_wheel_layout(self):
        problem = wheel_problem(6)
        disks, closure = place_centers(problem, solve_radii(problem).radii)
        assert closure <= 1e-10
        hub = disks.by_id("hub").center
        for i in range(6):
            assert abs(disks.by_id(f"b{i}").center - hub) == pytest.approx(2.0, abs=1e-9)

    def test_orientation_follows_the_rotation_system(self):
        problem = wheel_problem(6)
        disks = pack(problem)
        pos = {d.id: d.center for d in disks}
        emb = problem.embedding
        rot = rotation_from_positions(emb.graph.vertices, emb.graph.edges, pos)
        for v in emb.graph.vertices:
            doubled = rot[v] + rot[v]
            k = len(emb.rotation[v])
            assert any(doubled[i:i + k] == emb.rotation[v] for i in range(k))

    def test_edge_lengths_respect_labels(self):
        rng = random.Random(77)
        problem = random_patch(rng, 16)
        solution = solve_radii(problem)
        disks, closure = place_centers(problem, solution.radii)
        assert closure <= 100.0 * problem.tol
        pos = {d.id: d.center for d in disks}
        for u, v in problem.embedding.graph.edge_keys():
            want = solution.radii[u] + solution.radii[v]
            assert abs(pos[u] - pos[v]) == pytest.approx(want, abs=1e-8)

    def test_inconsistent_radii_rejected(self):
        problem = wheel_problem(6)
        radii = {v: 1.0 for v in problem.embedding.graph.vertices}
        radii["hub"] = 2.0
        with pytest.raises(InconsistentLayoutError):
            place_centers(problem, radii)

    def test_vertex_joined_patches_unsupported(self):
        # two triangles sharing only a vertex: no face walk reaches both
        g = Graph(
            ("a", "b", "c", "d", "w"),
            (("w", "a"), ("w", "b"), ("a", "b"), ("w", "c"), ("w", "d"), ("c", "d")),
        )
        pos = {"w": 0j, "a": 2 + 1j, "b": 2 - 1j, "c": -2 - 1j, "d": -2 + 1j}
        rotation = rotation_from_positions(g.vertices, g.edges, pos)
        emb = EmbeddedGraph(g, rotation, frozenset(g.vertices))
        problem = LayoutProblem(emb, {v: 1.0 for v in g.vertices})
        with pytest.raises(UnsupportedInputError):
            place_centers(problem, {v: 1.0 for v in g.vertices})

    def test_path_of_three_unsupported(self):
        # Its one face is the outer face, so no face walk reaches c.
        g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
        emb = EmbeddedGraph(g, {"a": ("b",), "b": ("a", "c"), "c": ("b",)}, frozenset("abc"))
        problem = LayoutProblem(emb, {v: 1.0 for v in "abc"})
        with pytest.raises(UnsupportedInputError, match="do not connect all vertices"):
            place_centers(problem, {v: 1.0 for v in "abc"})

    def test_missing_radius_names_the_vertex(self):
        problem = wheel_problem(6)
        with pytest.raises(InvalidInputError, match="'hub'"):
            place_centers(problem, {})
        radii = solve_radii(problem).radii
        del radii["b3"]
        with pytest.raises(InvalidInputError, match="'b3'"):
            place_centers(problem, radii)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
    def test_bad_radius_names_the_vertex(self, bad):
        problem = wheel_problem(6)
        radii = solve_radii(problem).radii
        radii["b5"] = bad
        with pytest.raises(InvalidInputError, match="'b5'"):
            place_centers(problem, radii)

    @pytest.mark.parametrize("bad", ["1", True])
    def test_non_numeric_radius_names_the_vertex(self, bad):
        problem = wheel_problem(6)
        radii = solve_radii(problem).radii
        radii["b5"] = bad
        with pytest.raises(InvalidInputError, match="'b5'"):
            place_centers(problem, radii)

    def test_tiny_wheel_places_as_at_scale_one(self):
        # The wheel at radius 1e-170, placed at its solved radii: the sides'
        # squares underflow unless the placement runs scaled.
        problem = wheel_problem(6, radius=1e-170)
        disks, closure = place_centers(problem, {v: 1e-170 for v in problem.embedding.graph.vertices})
        hub = disks.by_id("hub").center
        for i in range(6):
            assert abs(disks.by_id(f"b{i}").center - hub) == pytest.approx(2e-170, rel=1e-12)
        assert closure <= 1e-180


class TestCompiledProblem:
    def test_one_face_trace_from_document_to_disks(self, monkeypatch):
        calls = []
        trace = graphmod.faces_from_rotation

        def counted(eg):
            calls.append(eg)
            return trace(eg)

        # Every module that could reach the trace, under the name it would use.
        monkeypatch.setattr(graphmod, "faces_from_rotation", counted)
        monkeypatch.setattr(layoutmod, "faces_from_rotation", counted, raising=False)
        problem = read_graph(doc_text(wheel_doc(6))).to_layout_problem()
        disks, closure = place_centers(problem, solve_radii(problem).radii)
        assert len(disks) == 7
        assert len(calls) == 1

    def test_fans_follow_the_rotation_and_labels(self):
        theta = math.radians(30.0)
        problem = wheel_problem(5, labels={("hub", "b1"): theta, ("b1", "b2"): theta})
        rotation, spoke_cos, rim_cos = problem.fans["hub"]
        assert rotation == problem.embedding.rotation["hub"] == ("b0", "b1", "b2", "b3", "b4")
        assert spoke_cos == (1.0, math.cos(theta), 1.0, 1.0, 1.0)
        assert rim_cos == (1.0, math.cos(theta), 1.0, 1.0, 1.0)
        assert list(problem.fans) == list(problem.interior_vertices) == ["hub"]


class TestPack:
    def test_pack_realizes_its_own_contact_graph(self):
        rng = random.Random(31415)
        for n in (10, 14, 22):
            problem = random_patch(rng, n)
            disks = pack(problem)
            lg = extract_contact_graph(disks)
            assert lg.graph.edge_keys() == problem.embedding.graph.edge_keys()
            report = verify_realization(disks, lg, tol=1e-7)
            assert report.ok, report.defects

    @pytest.mark.parametrize("labels", [None, {("hub", "b1"): math.radians(30.0)}])
    def test_pack_at_2_to_the_minus_600_scales_exactly(self, labels):
        scale = 2.0**-600
        want = pack(wheel_problem(6, labels=labels))
        got = pack(wheel_problem(6, labels=labels, radius=scale))
        assert got.disks == tuple(Disk(d.id, d.cx * scale, d.cy * scale, d.r * scale) for d in want)

    def test_labeled_pack_round_trip(self):
        emb = wheel_embedding(6)
        labels = {k: math.radians(30.0) for k in emb.graph.edge_keys()}
        disks = pack(wheel_problem(6, labels=labels))
        lg = extract_contact_graph(disks)
        for k, theta in lg.labels.items():
            assert theta == pytest.approx(math.radians(30.0), abs=1e-8)
