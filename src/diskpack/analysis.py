"""Analysis of disk sets: contact structure, thinness, similarity, rigidity.

A disk set qualifies as a configuration when no disk is contained in
another; operations that need that property check it and raise
InvalidConfigurationError when it fails.  The rigidity probe is numerical
evidence (a first-order Jacobian rank computation), never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateNormalizationError,
    InvalidConfigurationError,
    InvalidInputError,
)
from .geometry import Disk, PairKind, _meeting_points, _relate, _triple_intersects
from .graph import Graph, LabeledContactGraph, edge_key


@dataclass(frozen=True)
class DiskSet:
    """An ordered collection of disks with unique ids."""

    disks: tuple[Disk, ...]
    _index: dict[str, Disk] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for d in self.disks:
            if d.id in index:
                raise InvalidInputError(f"duplicate disk id {d.id!r}")
            index[d.id] = d
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.disks)

    def __iter__(self):
        return iter(self.disks)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.disks)

    def by_id(self, disk_id: str) -> Disk:
        try:
            return self._index[disk_id]
        except KeyError:
            raise InvalidInputError(f"no disk with id {disk_id!r}") from None


# Relative widening of the candidate boxes and grid cells.  It only adds
# candidates, and it dwarfs the roundoff in the cell arithmetic, so a pair that
# the classification kernel would not call disjoint is never dropped.
_SLACK = 1e-6
# Cells per axis at most, which keeps that roundoff small however far apart
# the disks lie.
_MAX_CELLS = 1 << 20


def _coordinates(disks: Sequence[Disk]) -> tuple[list[float], list[float], list[float]]:
    """The centers' x and y and the radii, as flat lists in disk order."""
    return [d.cx for d in disks], [d.cy for d in disks], [d.r for d in disks]


def _candidate_pairs(xs: list[float], ys: list[float], rs: list[float], tol: float) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in sorted order, whose bounding boxes
    inflated by tol overlap.

    A pair that is not disjoint at tol has center distance at most
    r_i + r_j + tol, so |dx| and |dy| are within that too and the pair is
    returned.  The search is a uniform grid with cells wider than the largest
    diameter plus tol: such a pair sits in the same or in neighbouring cells,
    and each cell is compared only with itself and four of its neighbours.
    When a cell holds O(1) disks, as in a packing with a bounded ratio of
    radii, the work is near-linear.  Only pairs are filtered here; the
    classification kernel decides kinds.
    """
    n = len(xs)
    if n < 2:
        return []
    if not tol >= 0:
        raise InvalidInputError(f"tol must be >= 0, got {tol!r}")
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0)
    grow = 1.0 + _SLACK
    side = max(2.0 * max(rs) + tol, span / _MAX_CELLS) * grow
    floor = math.floor
    # A cell (cx, cy) has the key cx * stride + cy.  The stride leaves a row
    # of keys above the highest cy, so no neighbour offset wraps into a cell
    # of the next or previous column.
    stride = floor((max(ys) - y0) / side) + 2
    cells: dict[int, list[tuple[float, float, float, int]]] = {}
    for i in range(n):
        x, y = xs[i], ys[i]
        key = floor((x - x0) / side) * stride + floor((y - y0) / side)
        cells.setdefault(key, []).append((x, y, rs[i], i))
    pairs = []
    append = pairs.append
    for key, members in cells.items():
        # The cells above, right-below, right and right-above.
        near = [cells[key + offset] for offset in (1, stride - 1, stride, stride + 1) if key + offset in cells]
        for a, (xi, yi, ri, i) in enumerate(members):
            # Later members of the same cell: their index is larger.
            for xj, yj, rj, j in members[a + 1:]:
                reach = (ri + rj + tol) * grow
                if abs(xi - xj) <= reach and abs(yi - yj) <= reach:
                    append((i, j))
            for other in near:
                for xj, yj, rj, j in other:
                    reach = (ri + rj + tol) * grow
                    if abs(xi - xj) <= reach and abs(yi - yj) <= reach:
                        append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def _nested(a: Disk, b: Disk) -> InvalidConfigurationError:
    return InvalidConfigurationError(f"disk {a.id!r} and disk {b.id!r} are nested; not a configuration")


def extract_contact_graph(ds: DiskSet, tol: float = 1e-9) -> LabeledContactGraph:
    """Read the contact graph off a configuration.

    Tangent pairs become edges labeled 0, overlapping pairs edges labeled
    with their overlap angle; disjoint pairs contribute nothing.  A nested
    pair raises InvalidConfigurationError.
    """
    disks = ds.disks
    xs, ys, rs = _coordinates(disks)
    edges = []
    labels = {}
    for i, j in _candidate_pairs(xs, ys, rs, tol):
        kind, _, angle = _relate(xs[i] - xs[j], ys[i] - ys[j], rs[i], rs[j], tol)
        if kind is PairKind.CONTAINED:
            raise _nested(disks[i], disks[j])
        if kind is not PairKind.DISJOINT:
            # A tangent pair's angle is 0.0.
            k = edge_key(disks[i].id, disks[j].id)
            edges.append(k)
            labels[k] = angle
    edges.sort()
    return LabeledContactGraph(Graph(ds.ids, tuple(edges)), labels)


@dataclass(frozen=True)
class Defect:
    """One way a disk set fails to realize a labeled graph.

    kind 'angle-mismatch': a labeled edge realized at the wrong angle or not
    realized as a contact at all; 'spurious-contact': a non-adjacent pair
    that touches or overlaps; 'nested-pair': one disk inside another.
    """

    kind: str
    ids: tuple[str, str]
    detail: str


@dataclass(frozen=True)
class RealizationReport:
    ok: bool
    defects: tuple[Defect, ...]


def verify_realization(ds: DiskSet, lg: LabeledContactGraph, tol: float = 1e-9) -> RealizationReport:
    """Check that the disks realize the labeled graph, defect by defect.

    tol bounds both the length slack used to classify contacts and the
    allowed angle deviation in radians on labeled edges.
    """
    if set(ds.ids) != set(lg.graph.vertices):
        raise InvalidInputError("disk ids and graph vertices must coincide")
    keys = lg.graph.edge_keys()
    disks = sorted(ds.disks, key=lambda d: d.id)
    coordinates = _coordinates(disks)
    pairs = _candidate_pairs(*coordinates, tol)
    defects, labeled = _pair_defects(disks, coordinates, pairs, lg.labels, tol)
    if labeled < sum(1 for u, v in keys if u != v):
        # A labeled pair whose disks lie far apart is no candidate; merge the
        # labeled pairs in and check again.
        index = {d.id: i for i, d in enumerate(disks)}
        merged = set(pairs)
        merged.update((index[u], index[v]) for u, v in keys if u != v)
        defects, _ = _pair_defects(disks, coordinates, sorted(merged), lg.labels, tol)
    return RealizationReport(not defects, tuple(defects))


def _pair_defects(
    disks: Sequence[Disk],
    coordinates: tuple[list[float], list[float], list[float]],
    pairs: Iterable[tuple[int, int]],
    labels: Mapping[tuple[str, str], float],
    tol: float,
) -> tuple[list[Defect], int]:
    """The defects of the index pairs, in their order, and how many of the
    pairs are labeled edges.  disks are sorted by id, so pair (i, j), i < j,
    has the edge key (disks[i].id, disks[j].id)."""
    xs, ys, rs = coordinates
    defects = []
    labeled = 0
    for i, j in pairs:
        kind, distance, angle = _relate(xs[i] - xs[j], ys[i] - ys[j], rs[i], rs[j], tol)
        k = (disks[i].id, disks[j].id)
        want = labels.get(k)
        if want is not None:
            labeled += 1
        if kind is PairKind.CONTAINED:
            defects.append(Defect("nested-pair", k, f"center distance {distance!r}"))
        elif want is not None:
            if angle is None:
                defects.append(
                    Defect("angle-mismatch", k, f"edge labeled {want!r} rad but the disks do not meet")
                )
            elif abs(angle - want) > tol:
                defects.append(
                    Defect("angle-mismatch", k, f"labeled {want!r} rad, realized {angle!r} rad")
                )
        elif kind is not PairKind.DISJOINT:
            defects.append(
                Defect("spurious-contact", k, f"unlabeled pair meets ({kind.value}, distance {distance!r})")
            )
    return defects, labeled


@dataclass(frozen=True)
class ThinnessViolation:
    ids: tuple[str, str, str]
    witness: complex


@dataclass(frozen=True)
class ThinnessReport:
    thin: bool
    violations: tuple[ThinnessViolation, ...]


def is_thin(ds: DiskSet, tol: float = 1e-9) -> ThinnessReport:
    """Decide whether no three disks share a common point.

    Only triples whose pairs all meet can share a point, so only the
    triangles of the contact graph are probed.  Each pair is classified
    once: a nested pair raises InvalidConfigurationError before any triple
    is probed, so the triple test skips triple_intersects' own nested check.
    Violations come back with a witness point.
    """
    disks = ds.disks
    xs, ys, rs = _coordinates(disks)
    zs = [complex(x, y) for x, y in zip(xs, ys)]
    # later[i] maps each disk j after i in ds that meets disk i to the points
    # where their boundaries meet.  A pair lies in up to two triangles of a
    # planar contact graph, so its points are computed once, here.
    later = [{} for _ in disks]
    for i, j in _candidate_pairs(xs, ys, rs, tol):
        kind = _relate(xs[i] - xs[j], ys[i] - ys[j], rs[i], rs[j], tol)[0]
        if kind is PairKind.CONTAINED:
            raise _nested(disks[i], disks[j])
        if kind is not PairKind.DISJOINT:
            later[i][j] = _meeting_points(zs[i], rs[i], zs[j], rs[j], tol)
    violations = []
    for i, above in enumerate(later):
        zi, ri = zs[i], rs[i]
        for j in sorted(above):
            after_j = later[j]
            for k in sorted(above.keys() & after_j.keys()):
                hit, witness = _triple_intersects(
                    zi, ri, zs[j], rs[j], zs[k], rs[k], above[j], above[k], after_j[k], tol
                )
                if hit:
                    violations.append(
                        ThinnessViolation((disks[i].id, disks[j].id, disks[k].id), witness)
                    )
    return ThinnessReport(not violations, tuple(violations))


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> scale * rot(rotation) * (mirror p across the x axis if reflect) + translation.

    scale is positive, rotation is radians, translation a complex offset.
    Radii map to scale * r.
    """

    scale: float
    rotation: float
    reflect: bool
    translation: complex

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InvalidInputError(f"scale must be positive, got {self.scale!r}")

    def apply_point(self, p: complex) -> complex:
        q = p.conjugate() if self.reflect else p
        return self.scale * complex(math.cos(self.rotation), math.sin(self.rotation)) * q + self.translation

    def apply_disk(self, d: Disk) -> Disk:
        c = self.apply_point(d.center)
        return Disk(d.id, c.real, c.imag, self.scale * d.r)

    def apply(self, ds: DiskSet) -> DiskSet:
        return DiskSet(tuple(self.apply_disk(d) for d in ds))

    def inverse(self) -> "SimilarityTransform":
        rot = complex(math.cos(self.rotation), math.sin(self.rotation))
        if self.reflect:
            # q = s*rot*conj(p) + t  =>  p = conj(q - t) * rot / s ... rotation stays put
            t = -(self.translation.conjugate()) * rot / self.scale
            return SimilarityTransform(1.0 / self.scale, self.rotation, True, t)
        t = -self.translation / (self.scale * rot)
        return SimilarityTransform(1.0 / self.scale, -self.rotation, False, t)


def normalize(ds: DiskSet) -> tuple[DiskSet, SimilarityTransform]:
    """Canonical placement: lowest id at the origin with radius 1, second
    lowest on the positive x axis, third lowest (if any) at y >= 0.

    Returns the normalized set and the transform that achieved it.  Raises
    DegenerateNormalizationError when the first two disks are concentric.
    """
    if len(ds) < 2:
        raise InvalidInputError("normalization needs at least two disks")
    order = sorted(ds.disks, key=lambda d: d.id)
    first, second = order[0], order[1]
    offset = second.center - first.center
    if offset == 0:
        raise DegenerateNormalizationError(
            f"disks {first.id!r} and {second.id!r} are concentric; no canonical direction"
        )
    scale = 1.0 / first.r
    rotation = -math.atan2(offset.imag, offset.real)
    candidate = SimilarityTransform(scale, rotation, False, 0j)
    # translation: send the first center to the origin after scale+rotation
    shift = -candidate.apply_point(first.center)
    candidate = SimilarityTransform(scale, rotation, False, shift)
    if len(order) > 2 and candidate.apply_point(order[2].center).imag < 0.0:
        #  conj first, then rotate by -rotation, lands the second disk on +x too
        reflected = SimilarityTransform(scale, -rotation, True, 0j)
        shift = -reflected.apply_point(first.center)
        candidate = SimilarityTransform(scale, -rotation, True, shift)
    return candidate.apply(ds), candidate


def are_similar(
    a: DiskSet,
    b: DiskSet,
    correspondence: Mapping[str, str],
    tol: float = 1e-9,
) -> Optional[SimilarityTransform]:
    """Fit a similarity sending a onto b along the given id bijection.

    Returns the transform when every mapped center and radius lands within
    tol, else None.  Both reflections are tried.
    """
    if sorted(correspondence) != sorted(a.ids) or sorted(correspondence.values()) != sorted(b.ids):
        raise InvalidInputError("correspondence must be a bijection between the two id sets")
    src = [a.by_id(i) for i in sorted(a.ids)]
    dst = [b.by_id(correspondence[d.id]) for d in src]
    ra = np.array([d.r for d in src])
    rb = np.array([d.r for d in dst])
    scale = float(np.dot(ra, rb) / np.dot(ra, ra))
    if scale <= 0:
        return None
    za = np.array([complex(d.cx, d.cy) for d in src])
    zb = np.array([complex(d.cx, d.cy) for d in dst])
    for reflect in (False, True):
        z = za.conj() if reflect else za
        zm = z.mean()
        wm = zb.mean()
        corr = np.sum((zb - wm) * np.conj(z - zm))
        rotation = float(np.angle(corr)) if corr != 0 else 0.0
        rot = complex(math.cos(rotation), math.sin(rotation))
        translation = complex(wm - scale * rot * zm)
        t = SimilarityTransform(scale, rotation, reflect, translation)
        center_err = max(abs(t.apply_point(complex(d.cx, d.cy)) - complex(e.cx, e.cy)) for d, e in zip(src, dst))
        radius_err = float(np.max(np.abs(scale * ra - rb)))
        if center_err <= tol and radius_err <= tol:
            return t
    return None


@dataclass(frozen=True)
class RigidityReport:
    """First-order flexibility probe of a realization.

    flex_dimension counts null directions beyond the 4 similarity motions
    when nothing is pinned, or all null directions otherwise.  Evidence,
    not proof: rank decisions live on the rank_tol threshold.
    """

    flex_dimension: int
    rank: int
    unknown_count: int
    constraint_count: int
    singular_values: tuple[float, ...]
    pinned: tuple[str, ...]


def rigidity_jacobian(ds: DiskSet, lg: LabeledContactGraph, pinned: Iterable[str] = ()) -> tuple[np.ndarray, tuple[str, ...]]:
    """Jacobian of the edge constraints |ci-cj|^2 = ri^2 + rj^2 + 2 ri rj cos(theta)
    over the (cx, cy, r) coordinates of every unpinned disk.

    Returns (matrix, free ids); rows follow sorted edge keys.
    """
    pinned = frozenset(pinned)
    unknown_ids = tuple(i for i in sorted(ds.ids) if i not in pinned)
    for p in pinned:
        if p not in set(ds.ids):
            raise InvalidInputError(f"pinned id {p!r} is not in the disk set")
    col = {i: 3 * k for k, i in enumerate(unknown_ids)}
    edges = sorted(lg.graph.edge_keys())
    jac = np.zeros((len(edges), 3 * len(unknown_ids)))
    for row, (u, v) in enumerate(edges):
        du, dv = ds.by_id(u), ds.by_id(v)
        ct = math.cos(lg.labels[(u, v)])
        dx, dy = du.cx - dv.cx, du.cy - dv.cy
        if u in col:
            jac[row, col[u]] = 2.0 * dx
            jac[row, col[u] + 1] = 2.0 * dy
            jac[row, col[u] + 2] = -2.0 * (du.r + dv.r * ct)
        if v in col:
            jac[row, col[v]] = -2.0 * dx
            jac[row, col[v] + 1] = -2.0 * dy
            jac[row, col[v] + 2] = -2.0 * (dv.r + du.r * ct)
    return jac, unknown_ids


def rigidity_index(
    ds: DiskSet,
    lg: LabeledContactGraph,
    pinned: Iterable[str] = (),
    rank_tol: float = 1e-8,
) -> RigidityReport:
    """Count first-order flexes of the realization, beyond similarities.

    The realization must actually verify against lg (within 1e-6); the
    Jacobian null space is measured by SVD with a relative rank threshold,
    rank_tol, which must be finite and >= 0.
    """
    if not 0 <= rank_tol < math.inf:
        raise InvalidInputError(f"rank_tol must be a finite number >= 0, got {rank_tol!r}")
    pinned = frozenset(pinned)
    check = verify_realization(ds, lg, 1e-6)
    if not check.ok:
        raise InvalidInputError(
            f"disks do not realize the labeled graph ({len(check.defects)} defects); rigidity undefined"
        )
    jac, unknown_ids = rigidity_jacobian(ds, lg, pinned)
    n_unknowns = jac.shape[1]
    n_constraints = jac.shape[0]
    if n_constraints == 0 or n_unknowns == 0:
        sv: tuple[float, ...] = ()
        rank = 0
    else:
        s = np.linalg.svd(jac, compute_uv=False)
        sv = tuple(float(x) for x in s)
        rank = int(np.sum(s > rank_tol * s[0])) if s[0] > 0 else 0
    null_dim = n_unknowns - rank
    flex = null_dim - (4 if not pinned else 0)
    return RigidityReport(flex, rank, n_unknowns, n_constraints, sv, tuple(sorted(pinned)))


def similarity_velocity_fields(ds: DiskSet, unknown_ids: Sequence[str]) -> np.ndarray:
    """The four infinitesimal similarity motions as vectors over (cx, cy, r).

    Columns: x translation, y translation, rotation about the origin,
    scaling about the origin.  These span the tangent space of the
    similarity group acting on the configuration.
    """
    n = len(unknown_ids)
    fields = np.zeros((3 * n, 4))
    for k, i in enumerate(unknown_ids):
        d = ds.by_id(i)
        fields[3 * k, 0] = 1.0
        fields[3 * k + 1, 1] = 1.0
        fields[3 * k, 2] = -d.cy
        fields[3 * k + 1, 2] = d.cx
        fields[3 * k, 3] = d.cx
        fields[3 * k + 1, 3] = d.cy
        fields[3 * k + 2, 3] = d.r
    return fields
