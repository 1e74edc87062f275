"""Disk primitives: pair classification, overlap angles, triple intersections."""

import math
import random

import numpy as np
import pytest

from conftest import random_overlapping_triple, sampled_triple_hit, tangent_ray_angles
from diskpack import (
    DegenerateTriangleError,
    Disk,
    InvalidConfigurationError,
    InvalidInputError,
    NoIntersectionError,
    PairKind,
    boundary_meeting_points,
    edge_length,
    overlap_angle,
    pair_relation,
    triangle_angle,
    triple_intersects,
)


def unit(id_, x, y=0.0, r=1.0):
    return Disk(id_, x, y, r)


class TestDisk:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InvalidInputError):
            Disk("a", 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            Disk("a", 0.0, 0.0, -1.0)

    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(InvalidInputError):
            Disk("a", math.nan, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            Disk("a", 0.0, math.inf, 1.0)

    def test_rejects_ints_beyond_the_largest_float(self):
        for fields in ((10**400, 0.0, 1.0), (0.0, -(10**400), 1.0), (0.0, 0.0, 10**400)):
            with pytest.raises(InvalidInputError, match="'a': center and radius must be finite"):
                Disk("a", *fields)

    def test_fields_are_floats(self):
        d = Disk("a", 2**60 + 1, True, np.float64(2.5))
        assert [type(v) for v in (d.cx, d.cy, d.r)] == [float, float, float]
        assert (d.cx, d.cy, d.r) == (2.0**60, 1.0, 2.5)

    def test_center_is_complex(self):
        assert Disk("a", 3.0, -4.0, 1.0).center == complex(3.0, -4.0)


class TestPairRelation:
    def test_canonical_examples(self):
        a = unit("a", 0.0)
        assert pair_relation(a, unit("b", 3.0)).kind is PairKind.DISJOINT
        assert pair_relation(a, unit("b", 2.0)).kind is PairKind.TANGENT
        assert pair_relation(a, unit("b", 2.0)).angle == 0.0
        assert pair_relation(a, unit("b", 1.0)).kind is PairKind.OVERLAPPING
        assert pair_relation(a, unit("b", 0.2, r=0.1)).kind is PairKind.CONTAINED

    def test_unit_disks_at_distance_one_cross_at_120_degrees(self):
        rel = pair_relation(unit("a", 0.0), unit("b", 1.0))
        assert rel.angle == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)

    def test_orthogonal_circles(self):
        rel = pair_relation(unit("a", 0.0), unit("b", math.sqrt(2.0)))
        assert rel.angle == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_tangency_band_absorbs_roundoff(self):
        rel = pair_relation(unit("a", 0.0), unit("b", 2.0 + 5e-10))
        assert rel.kind is PairKind.TANGENT
        assert pair_relation(unit("a", 0.0), unit("b", 2.0 + 5e-10), tol=1e-12).kind is PairKind.DISJOINT

    def test_internal_tangency_counts_as_contained(self):
        assert pair_relation(Disk("a", 0.0, 0.0, 2.0), unit("b", 1.0)).kind is PairKind.CONTAINED

    def test_coincident_disks_count_as_contained(self):
        assert pair_relation(unit("a", 0.0), unit("b", 0.0)).kind is PairKind.CONTAINED

    def test_negative_tol_rejected(self):
        with pytest.raises(InvalidInputError):
            pair_relation(unit("a", 0.0), unit("b", 1.0), tol=-1.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(InvalidInputError, match="tol must be >= 0, got nan"):
            pair_relation(unit("a", 0.0), unit("b", 100.0), tol=math.nan)

    def test_partition_on_random_pairs(self):
        # exactly one kind per pair, and the kind matches the raw inequalities
        rng = random.Random(20817)
        tol = 1e-9
        for _ in range(500):
            ra, rb = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            d = rng.uniform(0.0, ra + rb + 1.0)
            a, b = Disk("a", 0.0, 0.0, ra), Disk("b", d, 0.0, rb)
            rel = pair_relation(a, b)
            if d <= abs(ra - rb) + tol:
                assert rel.kind is PairKind.CONTAINED
                assert rel.angle is None
            elif abs(d - (ra + rb)) <= tol:
                assert rel.kind is PairKind.TANGENT
                assert rel.angle == 0.0
            elif d > ra + rb + tol:
                assert rel.kind is PairKind.DISJOINT
                assert rel.angle is None
            else:
                assert rel.kind is PairKind.OVERLAPPING
                assert 0.0 < rel.angle < math.pi
            assert rel.distance == pytest.approx(d, abs=1e-15)


class TestExtremeScales:
    """Lengths near 1e-170 or 1e170 square out of the float range; the pair
    formulas then run on lengths scaled by a power of two."""

    def test_tiny_crossing_pair_has_its_angle(self):
        a, b = Disk("a", 0.0, 0.0, 1e-170), Disk("b", 1.5e-170, 0.0, 1e-170)
        rel = pair_relation(a, b, 0.0)
        assert rel.kind is PairKind.OVERLAPPING
        assert rel.angle == pytest.approx(math.acos(0.125), rel=1e-15)
        assert overlap_angle(a, b) == rel.angle

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**-520, 2.0**520, 2.0**600])
    def test_power_of_two_scale_changes_nothing(self, scale):
        rng = random.Random(61)
        for _ in range(200):
            ra, rb = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            a = Disk("a", rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), ra)
            b = Disk("b", rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rb)
            sa, sb = (Disk(d.id, d.cx * scale, d.cy * scale, d.r * scale) for d in (a, b))
            rel, scaled = pair_relation(a, b, 0.0), pair_relation(sa, sb, 0.0)
            assert scaled.kind is rel.kind
            assert scaled.angle == rel.angle
            assert boundary_meeting_points(sa, sb, 0.0) == [p * scale for p in boundary_meeting_points(a, b, 0.0)]

    def test_tiny_meeting_points(self):
        pts = boundary_meeting_points(Disk("a", 0.0, 0.0, 1e-170), Disk("b", 1.5e-170, 0.0, 1e-170), 0.0)
        assert len(pts) == 2
        for p, want in zip(pts, (complex(0.75, math.sqrt(0.4375)), complex(0.75, -math.sqrt(0.4375)))):
            assert abs(p / 1e-170 - want) <= 1e-15

    def test_huge_crossing_pair_has_its_angle(self):
        # The squared distance overflows while the product of the radii does not.
        a, b = Disk("a", 0.0, 0.0, 1.5e154), Disk("b", 1.8e154, 0.0, 5e153)
        want = math.acos((1.8**2 - 1.5**2 - 0.5**2) / (2.0 * 1.5 * 0.5))
        assert pair_relation(a, b, 0.0).angle == pytest.approx(want, rel=1e-14)


class TestOverlapAngle:
    def test_matches_tangent_ray_measurement(self):
        # independent construction: intersection points plus outward rays
        rng = random.Random(4127)
        for _ in range(300):
            ra, rb = rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0)
            theta = rng.uniform(0.1, 3.0)
            d = edge_length(ra, rb, theta)
            a = Disk("a", rng.uniform(-3, 3), rng.uniform(-3, 3), ra)
            ang = math.atan2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = Disk("b", a.cx + d * math.cos(ang), a.cy + d * math.sin(ang), rb)
            got = overlap_angle(a, b)
            for measured in tangent_ray_angles(a, b):
                assert abs(measured - got) <= 1e-9
            assert abs(got - theta) <= 1e-9

    def test_tangent_circles_give_zero(self):
        assert overlap_angle(unit("a", 0.0), unit("b", 2.0)) == pytest.approx(0.0, abs=3e-8)

    def test_raises_when_circles_clear(self):
        with pytest.raises(NoIntersectionError):
            overlap_angle(unit("a", 0.0), unit("b", 2.1))
        with pytest.raises(NoIntersectionError):
            overlap_angle(Disk("a", 0.0, 0.0, 3.0), unit("b", 0.5))


class TestEdgeLength:
    def test_right_angle_triangle(self):
        assert edge_length(3.0, 4.0, math.pi / 2.0) == pytest.approx(5.0, abs=1e-12)

    def test_tangency_gives_radius_sum(self):
        assert edge_length(1.2, 3.4, 0.0) == pytest.approx(4.6, abs=1e-12)

    def test_strictly_decreasing_in_angle(self):
        rng = random.Random(99)
        for _ in range(50):
            ra, rb = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            thetas = sorted(rng.uniform(0.0, 3.14) for _ in range(8))
            lengths = [edge_length(ra, rb, t) for t in thetas]
            for lo, hi in zip(lengths, lengths[1:]):
                assert hi < lo

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError):
            edge_length(1.0, 1.0, math.pi)
        with pytest.raises(InvalidInputError):
            edge_length(1.0, 1.0, -0.1)
        with pytest.raises(InvalidInputError):
            edge_length(0.0, 1.0, 0.5)

    def test_round_trip_with_overlap_angle(self):
        rng = random.Random(5150)
        for _ in range(500):
            ra, rb = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
            theta = rng.uniform(0.001, 3.12)
            d = edge_length(ra, rb, theta)
            got = overlap_angle(Disk("a", 0.0, 0.0, ra), Disk("b", d, 0.0, rb))
            assert abs(got - theta) <= 1e-9


class TestTriangleAngle:
    def test_equilateral(self):
        assert triangle_angle(1.0, 1.0, 1.0) == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_right_triangle(self):
        assert triangle_angle(5.0, 3.0, 4.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_isoceles_example(self):
        # cos = (1 + 3.61 - 1) / (2 * 1.9) = 0.95
        got = triangle_angle(1.0, 1.0, 1.9)
        assert got == pytest.approx(math.acos(0.95), abs=1e-15)
        assert got == pytest.approx(0.31756042929152184, abs=1e-15)

    def test_angles_sum_to_pi(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0)
            c = rng.uniform(abs(a - b) + 0.05, a + b - 0.05)
            total = triangle_angle(a, b, c) + triangle_angle(b, c, a) + triangle_angle(c, a, b)
            assert total == pytest.approx(math.pi, abs=1e-12)

    def test_violations_raise(self):
        with pytest.raises(DegenerateTriangleError):
            triangle_angle(3.0, 1.0, 1.0)
        with pytest.raises(DegenerateTriangleError):
            triangle_angle(1.0, 0.0, 1.0)


class TestBoundaryMeetingPoints:
    def test_crossing_circles_give_two_points_on_both(self):
        a, b = unit("a", 0.0), unit("b", 1.0)
        pts = boundary_meeting_points(a, b)
        assert len(pts) == 2
        for p in pts:
            assert abs(abs(p - a.center) - a.r) <= 1e-12
            assert abs(abs(p - b.center) - b.r) <= 1e-12
        assert pts[0].imag > 0 > pts[1].imag

    def test_tangency_gives_single_point(self):
        pts = boundary_meeting_points(unit("a", 0.0), unit("b", 2.0))
        assert pts == [complex(1.0, 0.0)]

    def test_internal_tangency_gives_single_point(self):
        pts = boundary_meeting_points(Disk("a", 0.0, 0.0, 2.0), unit("b", 1.0))
        assert pts == [complex(2.0, 0.0)]

    def test_clear_or_concentric_gives_none(self):
        assert boundary_meeting_points(unit("a", 0.0), unit("b", 2.5)) == []
        assert boundary_meeting_points(unit("a", 0.0), Disk("b", 0.0, 0.0, 3.0)) == []
        assert boundary_meeting_points(Disk("a", 0.0, 0.0, 3.0), unit("b", 0.5)) == []

    @pytest.mark.parametrize("tol", [math.nan, -1e-9])
    def test_nan_or_negative_tol_rejected(self, tol):
        # A NaN tol once made circles 98 apart meet at (50, 0).
        with pytest.raises(InvalidInputError, match=f"tol must be >= 0, got {tol!r}"):
            boundary_meeting_points(unit("a", 0.0), unit("b", 100.0), tol)


class TestTripleIntersects:
    def test_three_tangent_pennies_share_nothing(self):
        a, b = unit("a", 0.0), unit("b", 2.0)
        c = Disk("c", 1.0, math.sqrt(3.0), 1.0)
        assert triple_intersects(a, b, c) == (False, None)

    def test_tight_equilateral_trio_shares_a_region(self):
        side = 1.5
        a, b = unit("a", 0.0), unit("b", side)
        c = Disk("c", side / 2.0, side * math.sqrt(3.0) / 2.0, 1.0)
        hit, witness = triple_intersects(a, b, c)
        assert hit
        # the witness sits strictly inside all three disks
        assert max(abs(witness - d.center) - d.r for d in (a, b, c)) < 0.0

    def test_witness_at_single_common_point(self):
        a, b = unit("a", -1.0), unit("b", 1.0)
        c = Disk("c", 0.0, 1.0, 1.0)
        hit, witness = triple_intersects(a, b, c)
        assert hit
        assert abs(witness) <= 1e-12

    def test_nested_pair_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            triple_intersects(Disk("a", 0.0, 0.0, 5.0), unit("b", 1.0), unit("c", 9.0))

    def test_nan_tol_rejected(self):
        with pytest.raises(InvalidInputError, match="tol must be >= 0, got nan"):
            triple_intersects(unit("a", 0.0), unit("b", 50.0), unit("c", 100.0), tol=math.nan)

    def test_decision_is_order_independent(self):
        import itertools

        rng = random.Random(7)
        for _ in range(20):
            trio = random_overlapping_triple(rng)
            want = triple_intersects(*trio)[0]
            for perm in itertools.permutations(trio):
                hit, witness = triple_intersects(*perm)
                assert hit == want
                if hit:
                    assert max(abs(witness - d.center) - d.r for d in perm) <= 1e-9

    def test_agrees_with_lens_sampling(self):
        rng = random.Random(1009)
        for _ in range(150):
            trio = random_overlapping_triple(rng)
            hit, _ = triple_intersects(*trio)
            sampled, _ = sampled_triple_hit(*trio, n_per_arc=2000)
            assert hit == sampled
