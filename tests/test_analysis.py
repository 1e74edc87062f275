"""Disk set analysis: extraction, verification, thinness, similarity, rigidity."""

import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    hex_penny_patch,
    penny_star,
    random_config,
    random_patch,
    random_transform,
    sheared_lattice,
    square_lattice,
)
from diskpack import (
    DegenerateNormalizationError,
    Disk,
    DiskSet,
    Graph,
    InvalidConfigurationError,
    InvalidInputError,
    LabeledContactGraph,
    PairKind,
    PairRelation,
    SimilarityTransform,
    are_similar,
    boundary_meeting_points,
    edge_key,
    extract_contact_graph,
    is_thin,
    normalize,
    pack,
    pair_relation,
    rigidity_index,
    rigidity_jacobian,
    similarity_velocity_fields,
    triple_intersects,
    verify_realization,
)
from diskpack import analysis, geometry
from diskpack.analysis import Defect, RealizationReport, ThinnessReport, ThinnessViolation


def degrees_of(lg):
    deg = {v: 0 for v in lg.graph.vertices}
    for u, v in lg.graph.edge_keys():
        deg[u] += 1
        deg[v] += 1
    return deg


def exact_rank(centers, radii, edges, pinned=()):
    """Rank of the contact Jacobian in exact arithmetic.

    centers/radii map ids to sympy expressions; edges are (u, v, cos_label)
    triples.  Column layout mirrors rigidity_jacobian: sorted unpinned ids,
    three columns each.
    """
    unknown = [i for i in sorted(centers) if i not in set(pinned)]
    col = {i: 3 * k for k, i in enumerate(unknown)}
    rows = []
    for u, v, ct in sorted(edges):
        row = [sympy.Integer(0)] * (3 * len(unknown))
        dx = centers[u][0] - centers[v][0]
        dy = centers[u][1] - centers[v][1]
        if u in col:
            row[col[u]] = 2 * dx
            row[col[u] + 1] = 2 * dy
            row[col[u] + 2] = -2 * (radii[u] + radii[v] * ct)
        if v in col:
            row[col[v]] = -2 * dx
            row[col[v] + 1] = -2 * dy
            row[col[v] + 2] = -2 * (radii[v] + radii[u] * ct)
        rows.append(row)
    return sympy.Matrix(rows).rank()


def penny_star_exact():
    s3 = sympy.sqrt(3)
    centers = {"hub": (sympy.Integer(0), sympy.Integer(0))}
    ring = [(2, 0), (1, s3), (-1, s3), (-2, 0), (-1, -s3), (1, -s3)]
    for k, (x, y) in enumerate(ring):
        centers[f"b{k}"] = (sympy.sympify(x), sympy.sympify(y))
    radii = {v: sympy.Integer(1) for v in centers}
    return centers, radii


class TestDiskSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            DiskSet((Disk("a", 0, 0, 1), Disk("a", 3, 0, 1)))

    def test_lookup(self):
        ds = penny_star()
        assert ds.by_id("b3").cx == pytest.approx(-2.0)
        with pytest.raises(InvalidInputError):
            ds.by_id("zz")

    def test_order_preserved(self):
        ds = penny_star()
        assert ds.ids[0] == "hub"
        assert len(ds) == 7

    def test_index_is_not_part_of_the_value(self):
        ds = penny_star()
        twin = DiskSet(ds.disks)
        assert ds == twin and hash(ds) == hash(twin)
        assert repr(ds) == f"DiskSet(disks={ds.disks!r})"


class TestExtractContactGraph:
    def test_penny_star_contacts(self):
        lg = extract_contact_graph(penny_star())
        assert len(lg.graph.edge_keys()) == 12
        assert degrees_of(lg)["hub"] == 6
        assert all(theta == 0.0 for theta in lg.labels.values())

    def test_penny_patch_interior_degree_six(self):
        ds = hex_penny_patch()
        lg = extract_contact_graph(ds)
        deg = degrees_of(lg)
        interior = [d.id for d in ds if abs(d.center) < 3.0]
        assert len(interior) == 7
        for v in interior:
            assert deg[v] == 6

    def test_overlap_labels_match_pair_angles(self):
        a = Disk("a", 0.0, 0.0, 1.0)
        b = Disk("b", 1.0, 0.0, 1.0)
        c = Disk("c", 10.0, 0.0, 1.0)
        lg = extract_contact_graph(DiskSet((a, b, c)))
        assert set(lg.graph.edge_keys()) == {("a", "b")}
        assert lg.labels[("a", "b")] == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)

    def test_tolerance_band(self):
        a = Disk("a", 0.0, 0.0, 1.0)
        near = Disk("b", 2.0 + 5e-10, 0.0, 1.0)
        far = Disk("b", 2.0 + 1e-7, 0.0, 1.0)
        assert extract_contact_graph(DiskSet((a, near))).graph.edge_keys() == {("a", "b")}
        assert extract_contact_graph(DiskSet((a, far))).graph.edge_keys() == set()

    def test_nested_pair_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            extract_contact_graph(DiskSet((Disk("a", 0, 0, 3), Disk("b", 0.5, 0, 1))))


class TestVerifyRealization:
    def test_clean_star_verifies(self):
        ds = penny_star()
        report = verify_realization(ds, extract_contact_graph(ds))
        assert report.ok and report.defects == ()

    def test_inflated_hub_mismatches_every_spoke(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        bumped = DiskSet(tuple(
            Disk(d.id, d.cx, d.cy, d.r + 2e-6) if d.id == "hub" else d for d in ds
        ))
        report = verify_realization(bumped, lg)
        assert not report.ok
        kinds = [d.kind for d in report.defects]
        assert kinds.count("angle-mismatch") == 6
        assert all("hub" in d.ids for d in report.defects)

    def test_missing_edge_is_a_spurious_contact(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        keys = sorted(lg.graph.edge_keys() - {("b0", "b1")})
        trimmed = LabeledContactGraph(
            Graph(lg.graph.vertices, tuple(keys)),
            {k: lg.labels[k] for k in keys},
        )
        report = verify_realization(ds, trimmed)
        assert [d.kind for d in report.defects] == ["spurious-contact"]
        assert report.defects[0].ids == ("b0", "b1")

    def test_shrunk_disk_stops_meeting_its_neighbors(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        shrunk = DiskSet(tuple(
            Disk(d.id, d.cx, d.cy, 0.9) if d.id == "b2" else d for d in ds
        ))
        report = verify_realization(shrunk, lg)
        mismatches = [d for d in report.defects if d.kind == "angle-mismatch"]
        assert len(mismatches) == 3
        assert all("do not meet" in d.detail for d in mismatches)

    def test_nested_pair_defect(self):
        ds = DiskSet((Disk("a", 0, 0, 3), Disk("b", 0.5, 0, 1)))
        lg = LabeledContactGraph(Graph(("a", "b"), ()))
        report = verify_realization(ds, lg)
        assert [d.kind for d in report.defects] == ["nested-pair"]

    def test_id_mismatch_rejected(self):
        ds = penny_star()
        lg = extract_contact_graph(DiskSet(ds.disks[:6]))
        with pytest.raises(InvalidInputError):
            verify_realization(ds, lg)

    def test_angle_tolerance_is_radians(self):
        a = Disk("a", 0.0, 0.0, 1.0)
        b = Disk("b", 1.0, 0.0, 1.0)
        ds = DiskSet((a, b))
        lg = extract_contact_graph(ds)
        want = lg.labels[("a", "b")]
        off = LabeledContactGraph(lg.graph, {("a", "b"): want + 1e-6})
        assert not verify_realization(ds, off).ok
        assert verify_realization(ds, off, tol=1e-5).ok


class TestIsThin:
    def test_penny_star_is_thin(self):
        report = is_thin(penny_star())
        assert report.thin and report.violations == ()

    def test_penny_patch_is_thin(self):
        assert is_thin(hex_penny_patch()).thin

    def test_tight_trio_is_not_thin(self):
        side = 1.5
        ds = DiskSet((
            Disk("a", 0.0, 0.0, 1.0),
            Disk("b", side, 0.0, 1.0),
            Disk("c", side / 2.0, side * math.sqrt(3.0) / 2.0, 1.0),
            Disk("far", 10.0, 0.0, 1.0),
        ))
        report = is_thin(ds)
        assert not report.thin
        (violation,) = report.violations
        assert violation.ids == ("a", "b", "c")
        w = violation.witness
        for disk_id in violation.ids:
            d = ds.by_id(disk_id)
            assert abs(w - d.center) - d.r <= 0.0

    def test_nested_pair_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            is_thin(DiskSet((Disk("a", 0, 0, 3), Disk("b", 0.5, 0, 1))))


# The pair and triple tests of geometry, frozen as they stood before the
# analyses classified pairs with a flat-float kernel.  The library must agree
# with them bit for bit.


def frozen_pair_relation(a, b, tol=1e-9):
    if tol < 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol!r}")
    d = math.hypot(a.cx - b.cx, a.cy - b.cy)
    if d <= abs(a.r - b.r) + tol:
        return PairRelation(PairKind.CONTAINED, d, None)
    if abs(d - (a.r + b.r)) <= tol:
        return PairRelation(PairKind.TANGENT, d, 0.0)
    if d > a.r + b.r + tol:
        return PairRelation(PairKind.DISJOINT, d, None)
    u = max(-1.0, min(1.0, (d * d - a.r * a.r - b.r * b.r) / (2.0 * a.r * b.r)))
    return PairRelation(PairKind.OVERLAPPING, d, math.acos(u))


def frozen_boundary_meeting_points(a, b, tol=1e-9):
    d = math.hypot(a.cx - b.cx, a.cy - b.cy)
    if d == 0.0:
        return []
    if d > a.r + b.r + tol or d < abs(a.r - b.r) - tol:
        return []
    ex = (b.center - a.center) / d
    x = (d * d + a.r * a.r - b.r * b.r) / (2.0 * d)
    h2 = a.r * a.r - x * x
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    base = a.center + x * ex
    if h == 0.0:
        return [base]
    off = complex(-ex.imag, ex.real) * h
    return [base + off, base - off]


def frozen_membership_residual(p, disks):
    return max(abs(p - d.center) - d.r for d in disks)


def frozen_triple_intersects(a, b, c, tol=1e-9):
    trio = (a, b, c)
    for i in range(3):
        for j in range(i + 1, 3):
            if frozen_pair_relation(trio[i], trio[j], tol).kind is PairKind.CONTAINED:
                raise InvalidConfigurationError(
                    f"disk {trio[i].id!r} and disk {trio[j].id!r} are nested; "
                    "triple intersection is only defined for configurations"
                )
    best = None
    best_res = math.inf
    for x, y, other in ((a, b, c), (a, c, b), (b, c, a)):
        for p in frozen_boundary_meeting_points(x, y, tol):
            res = abs(p - other.center) - other.r
            if res < best_res:
                best_res = res
                best = p
    if best is None or best_res > tol:
        return False, None
    centroid = (a.center + b.center + c.center) / 3.0
    witness = best
    witness_res = frozen_membership_residual(best, trio)
    for t in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
        q = best + t * (centroid - best)
        q_res = frozen_membership_residual(q, trio)
        if q_res < witness_res:
            witness_res = q_res
            witness = q
    return True, witness


# All-pairs reference versions of the three pair analyses, as they stood
# before the broad phase, on the frozen pair and triple tests.  The library
# must agree with them exactly.


def nested_message(a, b):
    return f"disk {a.id!r} and disk {b.id!r} are nested; not a configuration"


def reference_extract(ds, tol):
    disks = ds.disks
    edges = []
    labels = {}
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            rel = frozen_pair_relation(disks[i], disks[j], tol)
            if rel.kind is PairKind.CONTAINED:
                raise InvalidConfigurationError(nested_message(disks[i], disks[j]))
            if rel.kind in (PairKind.TANGENT, PairKind.OVERLAPPING):
                k = edge_key(disks[i].id, disks[j].id)
                edges.append(k)
                labels[k] = rel.angle if rel.kind is PairKind.OVERLAPPING else 0.0
    edges.sort()
    return LabeledContactGraph(Graph(ds.ids, tuple(edges)), labels)


def reference_verify(ds, lg, tol):
    if set(ds.ids) != set(lg.graph.vertices):
        raise InvalidInputError("disk ids and graph vertices must coincide")
    keys = lg.graph.edge_keys()
    disks = sorted(ds.disks, key=lambda d: d.id)
    defects = []
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            a, b = disks[i], disks[j]
            k = edge_key(a.id, b.id)
            rel = frozen_pair_relation(a, b, tol)
            if rel.kind is PairKind.CONTAINED:
                defects.append(Defect("nested-pair", k, f"center distance {rel.distance!r}"))
            elif k in keys:
                want = lg.labels[k]
                if rel.angle is None:
                    defects.append(
                        Defect("angle-mismatch", k, f"edge labeled {want!r} rad but the disks do not meet")
                    )
                elif abs(rel.angle - want) > tol:
                    defects.append(
                        Defect("angle-mismatch", k, f"labeled {want!r} rad, realized {rel.angle!r} rad")
                    )
            elif rel.kind in (PairKind.TANGENT, PairKind.OVERLAPPING):
                defects.append(
                    Defect("spurious-contact", k, f"unlabeled pair meets ({rel.kind.value}, distance {rel.distance!r})")
                )
    return RealizationReport(not defects, tuple(defects))


def reference_thin(ds, tol):
    disks = ds.disks
    n = len(disks)
    meets = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            kind = frozen_pair_relation(disks[i], disks[j], tol).kind
            if kind is PairKind.CONTAINED:
                raise InvalidConfigurationError(nested_message(disks[i], disks[j]))
            meets[i][j] = kind in (PairKind.TANGENT, PairKind.OVERLAPPING)
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if not meets[i][j]:
                continue
            for k in range(j + 1, n):
                if meets[i][k] and meets[j][k]:
                    hit, witness = frozen_triple_intersects(disks[i], disks[j], disks[k], tol)
                    if hit:
                        violations.append(ThinnessViolation((disks[i].id, disks[j].id, disks[k].id), witness))
    return ThinnessReport(not violations, tuple(violations))


def outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (InvalidConfigurationError, InvalidInputError) as err:
        return type(err), str(err)


def assert_matches_all_pairs(ds, lg, tol):
    got, want = outcome(extract_contact_graph, ds, tol), outcome(reference_extract, ds, tol)
    assert got == want
    if isinstance(want, LabeledContactGraph):
        assert list(got.labels.items()) == list(want.labels.items())
    assert outcome(verify_realization, ds, lg, tol) == outcome(reference_verify, ds, lg, tol)
    assert outcome(is_thin, ds, tol) == outcome(reference_thin, ds, tol)


def labeled_pairs(ds, pairs, angles):
    """A labeled graph on the ids of ds with the given index pairs as edges."""
    ids = ds.ids
    keys = sorted({edge_key(ids[i], ids[j]) for i, j in pairs if i != j})
    return LabeledContactGraph(Graph(ids, tuple(keys)), dict(zip(keys, angles)))


# Center distances, as functions of (r_a, r_b, tol), on the edges of the
# tangent band and of the containment band.
BOUNDARY_DISTANCES = (
    lambda a, b, tol: a + b + tol,
    lambda a, b, tol: a + b - tol,
    lambda a, b, tol: a + b,
    lambda a, b, tol: abs(a - b) + tol,
    lambda a, b, tol: 0.0,
)


@st.composite
def boundary_configurations(draw):
    """Disk sets in which many pairs sit on a band edge, with a labeled graph
    that mixes real contacts and far-apart pairs."""
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    n = draw(st.integers(0, 9))
    names = draw(st.permutations(range(n)))
    disks = []
    for k in range(n):
        r = draw(st.floats(0.05, 5.0))
        if disks and draw(st.booleans()):
            base = draw(st.sampled_from(disks))
            if draw(st.booleans()):
                r = base.r
            dist = draw(st.sampled_from(BOUNDARY_DISTANCES))(base.r, r, tol)
            turn = draw(st.sampled_from([0.0, math.pi / 2, math.pi / 3, 1.0, -2.5]))
            cx, cy = base.cx + dist * math.cos(turn), base.cy + dist * math.sin(turn)
        else:
            cx, cy = draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0))
        disks.append(Disk(f"d{names[k]}", cx, cy, r))
    ds = DiskSet(tuple(disks))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    pairs = draw(st.lists(pair, max_size=2 * n))
    angles = draw(st.lists(st.floats(0.0, 3.1), min_size=len(pairs), max_size=len(pairs)))
    return ds, labeled_pairs(ds, pairs, angles), tol


class TestAgainstAllPairs:
    """The broad phase only drops disjoint pairs: every analysis returns
    exactly what the all-pairs loops return, in the same order.  Here every
    set takes the dense box test; the subclass below runs the same tests on
    the cell grid."""

    @pytest.fixture(autouse=True)
    def broad_phase(self, monkeypatch):
        monkeypatch.setattr(analysis, "_DENSE_MAX", 10**9)

    @settings(max_examples=300, deadline=None)
    @given(boundary_configurations())
    def test_boundary_configurations(self, case):
        assert_matches_all_pairs(*case)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
    def test_seeded_configurations(self, seed, tol):
        rng = random.Random(seed)
        n = rng.randrange(20, 70)
        spread = DiskSet(tuple(
            Disk(f"s{k:03d}", rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(0.05, 5.0))
            for k in range(n)
        ))
        # no nested pair; radii spread over 100x; the same, sparse
        ds = (
            random_config(rng, n),
            spread,
            DiskSet(tuple(Disk(d.id, d.cx, d.cy, d.r / 10.0) for d in spread)),
        )[seed % 3]
        contacts = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if frozen_pair_relation(ds.disks[i], ds.disks[j], tol).kind is not PairKind.DISJOINT
        ]
        kept = [p for p in contacts if rng.random() < 0.8]
        far = [(rng.randrange(n), rng.randrange(n)) for _ in range(5)]
        lg = labeled_pairs(ds, kept + far, [rng.uniform(0.0, 3.0) for _ in range(len(kept) + len(far))])
        assert_matches_all_pairs(ds, lg, tol)

    def test_extracted_graph_verifies_on_lattices(self):
        for ds in (hex_penny_patch(), square_lattice(6), sheared_lattice(6)):
            lg = extract_contact_graph(ds)
            assert_matches_all_pairs(ds, lg, 1e-9)
            assert verify_realization(ds, lg).ok

    def test_far_apart_labeled_edge_is_reported(self):
        ds = DiskSet((Disk("a", 0.0, 0.0, 1.0), Disk("b", 1e6, 0.0, 1.0), Disk("c", 2.0, 0.0, 1.0)))
        lg = LabeledContactGraph(Graph(ds.ids, (("a", "b"), ("a", "c"))))
        report = verify_realization(ds, lg)
        assert report == reference_verify(ds, lg, 1e-9)
        assert [(d.kind, d.ids) for d in report.defects] == [("angle-mismatch", ("a", "b"))]

    def test_coincident_disks(self):
        ds = DiskSet((Disk("b", 1.0, 1.0, 1.0), Disk("a", 5.0, 1.0, 2.0), Disk("c", 1.0, 1.0, 1.0)))
        lg = LabeledContactGraph(Graph(ds.ids, (("b", "c"),)))
        for tol in (0.0, 1e-9):
            assert_matches_all_pairs(ds, lg, tol)
        with pytest.raises(InvalidConfigurationError, match="'b' and disk 'c'"):
            is_thin(ds)

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, -1.0])
    def test_tiny_sets(self, n, tol):
        ds = DiskSet(tuple(Disk(f"t{k}", 2.0 * k, 0.0, 1.0) for k in range(n)))
        lg = labeled_pairs(ds, [(0, 1)] if n == 2 else [], [0.0])
        assert_matches_all_pairs(ds, lg, tol)

    def test_integer_coordinates(self):
        # A disk stores floats, so 2**60 + 1 becomes 2**60 and the first two
        # disks are nested, for the pair analyses and the all-pairs loops alike.
        ds = DiskSet((Disk("a", 2**60 + 1, 0, 1), Disk("b", 2**60, 0, 1), Disk("c", 2**60, 2, 1)))
        lg = labeled_pairs(ds, [(0, 1), (1, 2)], [0.0, 0.0])
        for tol in (0.0, 1e-9):
            assert_matches_all_pairs(ds, lg, tol)
        with pytest.raises(InvalidConfigurationError, match="'a' and disk 'b'"):
            extract_contact_graph(ds)

    @pytest.mark.parametrize("seed", range(3))
    def test_large_seeded_configurations(self, seed):
        rng = random.Random(100 + seed)
        tol = (0.0, 1e-9, 0.05)[seed]
        n = rng.randrange(200, 401)
        names = rng.sample(range(n), n)
        # Radii spread over 100x, no nested pair, ids not in disk order.
        disks = []
        while len(disks) < n:
            d = Disk(f"L{names[len(disks)]:03d}", rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(0.05, 5.0))
            if all(frozen_pair_relation(d, e, tol).kind is not PairKind.CONTAINED for e in disks):
                disks.append(d)
        ds = DiskSet(tuple(disks))
        contacts = [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if frozen_pair_relation(disks[i], disks[j], tol).kind is not PairKind.DISJOINT
        ]
        kept = [p for p in contacts if rng.random() < 0.8]
        far = [(rng.randrange(n), rng.randrange(n)) for _ in range(5)]
        lg = labeled_pairs(ds, kept + far, [rng.uniform(0.0, 3.0) for _ in range(len(kept) + len(far))])
        assert_matches_all_pairs(ds, lg, tol)
        # One disk nested in another.
        inner = disks[0]
        nested = DiskSet(ds.disks + (Disk("nested", inner.cx, inner.cy, inner.r / 2.0),))
        assert_matches_all_pairs(nested, labeled_pairs(nested, kept, [0.0] * len(kept)), tol)

    @pytest.mark.parametrize("disks", [
        # Centers 2e308 apart: their differences overflow to inf.
        (("a", -1e308, 0.0, 1.0), ("b", 1e308, 0.0, 1.0), ("c", 1e308, 5e307, 1e307),
         ("d", 1e308, 7e307, 1e307), ("e", -1e308, 3.0, 1.0)),
        # Radii near the largest float: the classification overflows too.
        (("f", -1e308, -1.5e308, 1e308), ("g", 1e308, -1.5e308, 1e308), ("h", 0.0, 1e308, 1.0)),
    ])
    def test_centers_further_apart_than_the_largest_float(self, disks):
        ds = DiskSet(tuple(Disk(*d) for d in disks))
        n = len(ds)
        lg = labeled_pairs(ds, [(0, 1), (n - 2, n - 3), (0, n - 1)], [0.0, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tol in (0.0, 1e-9):
                assert_matches_all_pairs(ds, lg, tol)


class TestAgainstAllPairsOnTheGrid(TestAgainstAllPairs):
    """The same tests, with every set of two or more disks on the cell grid."""

    @pytest.fixture(autouse=True)
    def broad_phase(self, monkeypatch):
        monkeypatch.setattr(analysis, "_DENSE_MAX", 1)

    # hypothesis runs each test function from one class only.
    @settings(max_examples=300, deadline=None)
    @given(boundary_configurations())
    def test_boundary_configurations(self, case):
        assert_matches_all_pairs(*case)


@st.composite
def partners(draw, base, tol, name):
    """A disk tangent, internally tangent, coincident, crossing or apart
    from base, or on the edge of a tol band."""
    r = base.r if draw(st.booleans()) else draw(st.floats(0.05, 5.0))
    lo, hi = abs(base.r - r), base.r + r
    dist = draw(st.one_of(
        st.sampled_from([hi, hi - tol, hi + tol, lo, lo + tol, max(lo - tol, 0.0), 0.0]),
        st.floats(lo, hi),
        st.floats(hi, hi + 10.0),
    ))
    turn = draw(st.floats(-math.pi, math.pi))
    return Disk(name, base.cx + dist * math.cos(turn), base.cy + dist * math.sin(turn), r)


@st.composite
def triples(draw):
    """Three disks and a tol.  The third disk relates to the first two as a
    partner does, or its center or its boundary sits on a point where their
    boundaries meet."""
    tol = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.25]))
    a = Disk("a", draw(st.floats(-12.0, 12.0)), draw(st.floats(-12.0, 12.0)), draw(st.floats(0.05, 5.0)))
    b = draw(partners(a, tol, "b"))
    meets = frozen_boundary_meeting_points(a, b, tol)
    if meets and draw(st.booleans()):
        p = draw(st.sampled_from(meets))
        r = draw(st.floats(0.05, 5.0))
        offset = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0 + tol, 1.5])) * r
        turn = draw(st.floats(-math.pi, math.pi))
        c = Disk("c", p.real + offset * math.cos(turn), p.imag + offset * math.sin(turn), r)
    else:
        c = draw(partners(draw(st.sampled_from([a, b])), tol, "c"))
    return a, b, c, tol


def same(got, want):
    # repr round-trips floats exactly and tells -0.0 from 0.0.
    return repr(got) == repr(want)


class TestAgainstFrozenGeometry:
    """pair_relation, boundary_meeting_points and triple_intersects agree bit
    for bit with their frozen copies, errors included."""

    @settings(max_examples=500, deadline=None)
    @given(triples())
    # Three tangent pennies share no point; a tighter trio shares a region.
    @example((Disk("a", 0.0, 0.0, 1.0), Disk("b", 2.0, 0.0, 1.0), Disk("c", 1.0, math.sqrt(3.0), 1.0), 1e-9))
    @example((Disk("a", 0.0, 0.0, 1.0), Disk("b", 1.5, 0.0, 1.0), Disk("c", 0.75, 0.75 * math.sqrt(3.0), 1.0), 1e-9))
    @example((Disk("a", 0.0, 0.0, 1.0), Disk("b", 1.0, 0.0, 1.0), Disk("c", 9.0, 0.0, 1.0), 0.0))
    @example((Disk("a", 0.0, 0.0, 1.0), Disk("b", 0.0, 0.0, 1.0), Disk("c", 1.5, 0.0, 1.0), 1e-9))
    @example((Disk("a", 0.0, 0.0, 2.0), Disk("b", 1.0, 0.0, 1.0), Disk("c", 2.5, 0.0, 1.0), 0.0))
    def test_triples(self, case):
        a, b, c, tol = case
        trio = (a, b, c)
        for x, y in itertools.permutations(trio, 2):
            assert same(pair_relation(x, y, tol), frozen_pair_relation(x, y, tol))
            assert same(boundary_meeting_points(x, y, tol), frozen_boundary_meeting_points(x, y, tol))
        for perm in itertools.permutations(trio):
            assert same(outcome(triple_intersects, *perm, tol), outcome(frozen_triple_intersects, *perm, tol))
        if any(
            frozen_pair_relation(x, y, tol).kind is PairKind.CONTAINED
            for x, y in itertools.combinations(trio, 2)
        ):
            with pytest.raises(InvalidConfigurationError, match="are nested"):
                triple_intersects(a, b, c, tol)


def hex_lattice(rows, cols):
    """Unit disks on the hexagonal lattice, each tangent to up to six others."""
    return DiskSet(tuple(
        Disk(f"h{i:03d}_{j:03d}", 2.0 * j + (i % 2), math.sqrt(3.0) * i, 1.0)
        for i in range(rows)
        for j in range(cols)
    ))


class TestPairWorkScales:
    def test_pair_tests_grow_linearly(self, monkeypatch):
        ds = hex_lattice(55, 55)
        n = len(ds)
        classified = []
        relates = []
        probes = []
        meets = []
        classify, relate, triple, meeting_points = (
            analysis._classify, geometry._relate, analysis._triple_intersects, geometry._meeting_points
        )

        def counted_classify(x, y, r, i, j, tol):
            classified.append(len(i))
            return classify(x, y, r, i, j, tol)

        def counted_relate(*args):
            relates.append(1)
            return relate(*args)

        def counted_triple(*args):
            probes.append(1)
            return triple(*args)

        def counted_meeting_points(*args):
            meets.append(args[:4])
            return meeting_points(*args)

        # The analyses classify pairs in the pair stage only; a scalar
        # classification, in the triple test or elsewhere, would reach the
        # kernel through geometry.
        monkeypatch.setattr(analysis, "_classify", counted_classify)
        monkeypatch.setattr(geometry, "_relate", counted_relate)
        monkeypatch.setattr(analysis, "_triple_intersects", counted_triple)
        monkeypatch.setattr(analysis, "_meeting_points", counted_meeting_points)
        monkeypatch.setattr(geometry, "_meeting_points", counted_meeting_points)
        lg = extract_contact_graph(ds)
        assert len(lg.graph.edges) == 3 * 55 * 55 - 4 * 55 + 1
        assert len(classified) == 1 and classified[0] <= 4 * n
        classified.clear()
        assert verify_realization(ds, lg).ok
        assert len(classified) == 1 and classified[0] <= 4 * n
        classified.clear()
        assert is_thin(ds).thin
        # Each candidate pair is classified once, and the triangle loop, which
        # probes every triangle of the lattice, classifies none again.
        x, y, r = (np.array(c) for c in analysis._coordinates(ds.disks))
        assert classified == [len(analysis._candidates(x, y, r, 1e-9)[0])]
        assert classified[0] <= 4 * n
        assert relates == []
        assert len(probes) == 2 * 54 * 54
        # The points where two boundaries meet are computed at most once per
        # contact pair, though each inner edge lies in two probed triangles.
        assert len(meets) <= len(lg.graph.edges)
        assert len(set(meets)) == len(meets)

    def test_crowded_cell_costs_no_memory(self):
        # One disk of radius 200 makes cells 400 wide, so the whole lattice
        # shares one or two cells and their pairs number about 4.25 million.
        ds = DiskSet(hex_lattice(54, 54).disks + (Disk("big", -300.0, 0.0, 200.0),))
        lg = extract_contact_graph(ds)
        for analyze in (
            lambda: extract_contact_graph(ds),
            lambda: verify_realization(ds, lg),
            lambda: is_thin(ds),
        ):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                analyze()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before < 16 * 2**20


class TestSimilarityTransform:
    def test_apply_is_scale_rotate_translate(self):
        t = SimilarityTransform(2.0, math.pi / 2.0, False, complex(1.0, 0.0))
        got = t.apply_point(complex(3.0, 0.0))
        assert got == pytest.approx(complex(1.0, 6.0), abs=1e-12)

    def test_reflection_conjugates_first(self):
        t = SimilarityTransform(1.0, 0.0, True, 0j)
        assert t.apply_point(complex(1.0, 2.0)) == pytest.approx(complex(1.0, -2.0), abs=1e-15)

    def test_radii_scale(self):
        t = SimilarityTransform(3.0, 0.3, False, complex(5.0, -2.0))
        d = t.apply_disk(Disk("a", 1.0, 1.0, 0.5))
        assert d.r == pytest.approx(1.5, abs=1e-12)

    def test_inverse_round_trips_points(self):
        rng = random.Random(8)
        for _ in range(50):
            t = random_transform(rng)
            inv = t.inverse()
            p = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert abs(inv.apply_point(t.apply_point(p)) - p) <= 1e-9 * max(1.0, abs(p))
            assert abs(t.apply_point(inv.apply_point(p)) - p) <= 1e-9 * max(1.0, abs(p))

    def test_scale_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            SimilarityTransform(0.0, 0.0, False, 0j)


class TestNormalize:
    def test_first_disk_lands_at_origin_with_unit_radius(self):
        ds, t = normalize(penny_star())
        first = ds.by_id("b0")
        assert abs(first.center) <= 1e-12
        assert first.r == pytest.approx(1.0, abs=1e-12)
        second = ds.by_id("b1")
        assert second.center.imag == pytest.approx(0.0, abs=1e-12)
        assert second.center.real > 0.0
        third = ds.by_id("b2")
        assert third.center.imag >= -1e-12

    def test_normalization_is_idempotent(self):
        once, _ = normalize(penny_star())
        twice, t = normalize(once)
        for a, b in zip(once, twice):
            assert abs(a.center - b.center) <= 1e-12
            assert abs(a.r - b.r) <= 1e-12
        assert t.scale == pytest.approx(1.0, abs=1e-12)
        assert not t.reflect

    def test_reflection_restores_third_disk_above_axis(self):
        ds = DiskSet((Disk("a", 0, 0, 1), Disk("b", 2, 0, 1), Disk("c", 1.0, -1.0, 1.0)))
        out, t = normalize(ds)
        assert t.reflect
        assert out.by_id("c").center.imag == pytest.approx(1.0, abs=1e-12)

    def test_collapses_random_similarities(self):
        rng = random.Random(606)
        for _ in range(40):
            ds = random_config(rng, rng.randint(3, 8))
            t = random_transform(rng)
            a, _ = normalize(ds)
            b, _ = normalize(t.apply(ds))
            for da, db in zip(a, b):
                assert abs(da.center - db.center) <= 1e-8
                assert abs(da.r - db.r) <= 1e-8

    def test_concentric_leaders_rejected(self):
        ds = DiskSet((Disk("a", 0, 0, 1), Disk("b", 0, 0, 2), Disk("c", 5, 0, 1)))
        with pytest.raises(DegenerateNormalizationError):
            normalize(ds)

    def test_needs_two_disks(self):
        with pytest.raises(InvalidInputError):
            normalize(DiskSet((Disk("a", 0, 0, 1),)))


class TestAreSimilar:
    def test_recovers_random_transforms(self):
        rng = random.Random(2718)
        for _ in range(30):
            ds = random_config(rng, rng.randint(3, 9))
            t = random_transform(rng)
            target = t.apply(ds)
            got = are_similar(ds, target, {i: i for i in ds.ids})
            assert got is not None
            assert got.reflect == t.reflect
            assert got.scale == pytest.approx(t.scale, rel=1e-9)
            spin = complex(math.cos(got.rotation - t.rotation), math.sin(got.rotation - t.rotation))
            assert abs(spin - 1.0) <= 1e-9

    def test_transform_actually_maps_the_disks(self):
        rng = random.Random(99)
        ds = random_config(rng, 6)
        t = random_transform(rng)
        target = t.apply(ds)
        got = are_similar(ds, target, {i: i for i in ds.ids})
        for d in ds:
            assert abs(got.apply_point(d.center) - target.by_id(d.id).center) <= 1e-9

    def test_scaled_triangles_with_relabeling(self):
        a = DiskSet((Disk("p", 0, 0, 1), Disk("q", 3, 0, 2), Disk("s", 0, 4, 1.5)))
        b = DiskSet(tuple(
            Disk(i.upper(), 2 * d.cx + 1, 2 * d.cy - 5, 2 * d.r)
            for i, d in zip(("p", "q", "s"), a)
        ))
        got = are_similar(a, b, {"p": "P", "q": "Q", "s": "S"})
        assert got is not None
        assert got.scale == pytest.approx(2.0, abs=1e-12)

    def test_sheared_lattice_is_not_similar(self):
        square = square_lattice(4)
        sheared = sheared_lattice(4)
        assert extract_contact_graph(square).graph.edge_keys() == extract_contact_graph(sheared).graph.edge_keys()
        assert are_similar(square, sheared, {i: i for i in square.ids}) is None

    def test_radius_mismatch_fails(self):
        a = DiskSet((Disk("a", 0, 0, 1), Disk("b", 3, 0, 1)))
        b = DiskSet((Disk("a", 0, 0, 1), Disk("b", 3, 0, 1.5)))
        assert are_similar(a, b, {"a": "a", "b": "b"}) is None

    def test_correspondence_must_be_a_bijection(self):
        a = DiskSet((Disk("a", 0, 0, 1), Disk("b", 3, 0, 1)))
        with pytest.raises(InvalidInputError):
            are_similar(a, a, {"a": "a"})
        with pytest.raises(InvalidInputError):
            are_similar(a, a, {"a": "a", "b": "a"})


class TestRigidity:
    def test_three_tangent_disks_have_two_flexes(self):
        ds = DiskSet((Disk("a", 0, 0, 1), Disk("b", 2, 0, 1), Disk("c", 1.0, math.sqrt(3.0), 1.0)))
        lg = extract_contact_graph(ds)
        report = rigidity_index(ds, lg)
        assert report.unknown_count == 9
        assert report.constraint_count == 3
        assert report.flex_dimension == 2

        s3 = sympy.sqrt(3)
        centers = {"a": (0, 0), "b": (2, 0), "c": (1, s3)}
        radii = {k: sympy.Integer(1) for k in centers}
        edges = [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)]
        assert report.rank == exact_rank(centers, radii, edges)

    def test_pinned_penny_star_is_rigid(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        pins = [f"b{k}" for k in range(6)]
        report = rigidity_index(ds, lg, pinned=pins)
        assert report.flex_dimension == 0
        assert report.pinned == tuple(sorted(pins))

        centers, radii = penny_star_exact()
        edges = [(u, v, 1) for u, v in lg.graph.edge_keys()]
        assert report.rank == exact_rank(centers, radii, edges, pinned=pins)

    def test_free_penny_star_rank_matches_exact_arithmetic(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        report = rigidity_index(ds, lg)
        centers, radii = penny_star_exact()
        edges = [(u, v, 1) for u, v in lg.graph.edge_keys()]
        rank = exact_rank(centers, radii, edges)
        assert report.rank == rank
        assert report.flex_dimension == report.unknown_count - rank - 4

    def test_corner_pinned_lattice_keeps_a_flex(self):
        ds = square_lattice(3)
        lg = extract_contact_graph(ds)
        pins = ["g00", "g02", "g20", "g22"]
        report = rigidity_index(ds, lg, pinned=pins)
        assert report.flex_dimension >= 1

        centers = {d.id: (sympy.Integer(int(d.cx)), sympy.Integer(int(d.cy))) for d in ds}
        radii = {d.id: sympy.Integer(1) for d in ds}
        edges = [(u, v, 1) for u, v in lg.graph.edge_keys()]
        rank = exact_rank(centers, radii, edges, pinned=pins)
        assert report.rank == rank
        assert report.flex_dimension == report.unknown_count - rank

    def test_unrealized_graph_rejected(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        moved = DiskSet(tuple(
            Disk(d.id, d.cx + (1e-3 if d.id == "b0" else 0.0), d.cy, d.r) for d in ds
        ))
        with pytest.raises(InvalidInputError):
            rigidity_index(moved, lg)

    def test_unknown_pin_rejected(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        with pytest.raises(InvalidInputError):
            rigidity_index(ds, lg, pinned=["zz"])

    @pytest.mark.parametrize("rank_tol", [math.nan, -1e-8, math.inf])
    def test_bad_rank_tol_rejected(self, rank_tol):
        # A NaN rank_tol once counted every singular value as null.
        ds = penny_star()
        lg = extract_contact_graph(ds)
        with pytest.raises(InvalidInputError, match=f"rank_tol must be a finite number >= 0, got {rank_tol!r}"):
            rigidity_index(ds, lg, rank_tol=rank_tol)
        assert rigidity_index(ds, lg, rank_tol=0.0).rank == rigidity_index(ds, lg).rank

    def test_jacobian_row_for_a_tangent_pair(self):
        ds = DiskSet((Disk("a", 0, 0, 1), Disk("b", 3, 0, 2)))
        lg = extract_contact_graph(ds)
        jac, ids = rigidity_jacobian(ds, lg)
        assert ids == ("a", "b")
        np.testing.assert_allclose(jac, [[-6.0, 0.0, -6.0, 6.0, 0.0, -6.0]])

    def test_similarity_fields_span_the_expected_null_directions(self):
        ds = penny_star()
        lg = extract_contact_graph(ds)
        jac, ids = rigidity_jacobian(ds, lg)
        fields = similarity_velocity_fields(ds, ids)
        assert fields.shape == (21, 4)
        residual = np.linalg.norm(jac @ fields)
        assert residual <= 1e-8 * np.linalg.norm(jac) * np.linalg.norm(fields)

    def test_similarity_fields_on_a_packed_patch(self):
        rng = random.Random(424242)
        problem = random_patch(rng, 18)
        disks = pack(problem)
        lg = extract_contact_graph(disks)
        jac, ids = rigidity_jacobian(disks, lg)
        fields = similarity_velocity_fields(disks, ids)
        for col in range(4):
            v = fields[:, col]
            assert np.linalg.norm(jac @ v) <= 1e-8 * np.linalg.norm(jac) * np.linalg.norm(v)
