"""Scene evaluation: collision metrics on oriented boxes, instruction
recall, and exact-match attribute accuracies for infill tasks.

The analytic intersection volume clips the two yaw-rotated footprints
against each other (Sutherland-Hodgman) and multiplies the polygon area by
the vertical overlap; a Monte-Carlo estimator serves as its independent
cross-check. ``_footprint`` builds a box's corners, clip edges, bounds and
reach, and ``_box`` adds its z range and volume. Footprints that only touch
clip to a rounding-noise sliver whose size depends on the argument order, so
an overlap area at or below ``_TOUCH_AREA`` (1e-13) times (1 + the
footprints' largest coordinate magnitude)^2 counts as 0.

One pair loop, ``_overlaps``, serves ``collision_metrics`` and
``obb_intersection_volume``. It builds each box's ``_box`` record once, not
once per pair, and skips the clip for pairs whose footprint bounds or z
ranges lie apart. The clip scores such footprints at most a rounding sliver,
which the touch floor counts as 0: that floor is the one tolerance, and the
volumes equal those of clipping every pair. ``monte_carlo_volume`` samples in
the overlap of the same records' bounds.

``irecall`` counts instead of matching: an ordered object pair holds one
relation, so the injective matching of an instruction's triplets to pairs
gives each distinct triplet min(times instructed, realizing pairs).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .instructions import Instruction
from .relations import GeometryFrame, box_corners, box_table, predicate_id, relation_matrix
from .scene import ATTRIBUTE_COLUMNS, GRID_COLUMNS, LAYOUT_ATTRIBUTES, SceneLayout, TokenizedScene


def _footprint(x: float, y: float, hx: float, hy: float, yaw: float) -> tuple:
    """A box's footprint as the clip reads it: (corners, edges, x_lo, x_hi, y_lo, y_hi, reach).

    ``edges`` holds each counter-clockwise edge as (x, y, dx, dy), from corner i - 1 to corner i;
    reach is 1 plus the largest coordinate magnitude of the corners.
    """
    corners = box_corners(x, y, hx, hy, yaw)
    edges = [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(corners[-1:] + corners[:-1], corners)]
    xs, ys = zip(*corners)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    return corners, edges, x_lo, x_hi, y_lo, y_hi, 1.0 + max(-x_lo, x_hi, -y_lo, y_hi)


def _clip_polygon(subject: list[tuple[float, float]], edges: list) -> list[tuple[float, float]]:
    """Sutherland-Hodgman: clip a convex polygon against a convex window given by its ``_footprint`` edges.

    Both polygons counter-clockwise; returns the (possibly empty) result.
    """
    output = subject
    for ex, ey, dx, dy in edges:
        if not output:
            return []
        result = []
        px, py = output[-1]
        d_prev = dx * (py - ey) - dy * (px - ex)  # >= 0 on the inner (left) side of the edge
        for point in output:
            x, y = point
            d = dx * (y - ey) - dy * (x - ex)
            if (d >= 0.0) != (d_prev >= 0.0):
                # the distances straddle 0, so the denominator is never 0
                t = d_prev / (d_prev - d)
                result.append((px + t * (x - px), py + t * (y - py)))
            if d >= 0.0:
                result.append(point)
            px, py, d_prev = x, y, d
        output = result
    return output


def _polygon_area(points: list[tuple[float, float]]) -> float:
    if len(points) < 3:
        return 0.0
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


# The shoelace sum over coordinates of magnitude M rounds by about 1e-16 * (1 + M)^2, so footprints
# that only touch clip to a sliver of that area, whose size depends on which footprint clips which.
# Overlaps at or below _TOUCH_AREA * (1 + M)^2 count as 0: over 100 times the largest sliver seen in
# probes of touching and ulps-apart footprints, while a 1e-5 m corner poke (area 1e-10) still counts.
_TOUCH_AREA = 1e-13


def _clipped_area(subject: list[tuple[float, float]], edges: list, reach: float) -> float:
    """Area of the overlap of two footprints: the one narrow phase of the collision metrics.

    subject is one footprint's corners and edges the other's ``_footprint`` edges; reach is the
    larger of their reaches. An overlap at or below the touch floor ``_TOUCH_AREA * reach**2``
    counts as 0.
    """
    area = _polygon_area(_clip_polygon(subject, edges))
    return 0.0 if area <= _TOUCH_AREA * reach * reach else area


def _box(x: float, y: float, z: float, hx: float, hy: float, hz: float, yaw: float) -> tuple:
    """A box as the pair loop reads it: the ``_footprint`` fields, then z_lo, z_hi and the volume."""
    return (*_footprint(x, y, hx, hy, yaw), z - hz, z + hz, 8.0 * hx * hy * hz)


def _overlaps(rows: list) -> Iterator[tuple[float, float]]:
    """(intersection volume, smaller box volume) of each colliding pair i < j of ``box_table`` rows.

    Pairs whose footprint bounds or z ranges lie apart skip the clip (module docstring).
    """
    boxes = [_box(*row) for row in rows]
    # Conditional expressions cost less than max/min calls in this loop and pick the same operand on ties.
    for i, (corners_a, _, ax_lo, ax_hi, ay_lo, ay_hi, reach_a, az_lo, az_hi, volume_a) in enumerate(boxes):
        for _, edges_b, bx_lo, bx_hi, by_lo, by_hi, reach_b, bz_lo, bz_hi, volume_b in boxes[i + 1 :]:
            if bx_lo > ax_hi or ax_lo > bx_hi or by_lo > ay_hi or ay_lo > by_hi:
                continue
            z_lo = bz_lo if bz_lo > az_lo else az_lo
            z_hi = bz_hi if bz_hi < az_hi else az_hi
            if z_hi <= z_lo:
                continue
            v = _clipped_area(corners_a, edges_b, reach_b if reach_b > reach_a else reach_a) * (z_hi - z_lo)
            if v > 0.0:
                yield v, (volume_b if volume_b < volume_a else volume_a)


def obb_intersection_volume(a: GeometryFrame, b: GeometryFrame) -> float:
    """Exact intersection volume of two yaw-only oriented boxes."""
    return next((v for v, _ in _overlaps([(*f.center, *f.half_extents, f.yaw) for f in (a, b)])), 0.0)


def _points_inside(points: np.ndarray, f: GeometryFrame) -> np.ndarray:
    rel = points - np.asarray(f.center)
    c, s = np.cos(f.yaw), np.sin(f.yaw)
    local_x = rel[:, 0] * c + rel[:, 1] * s
    local_y = -rel[:, 0] * s + rel[:, 1] * c
    hx, hy, hz = f.half_extents
    return (np.abs(local_x) <= hx) & (np.abs(local_y) <= hy) & (np.abs(rel[:, 2]) <= hz)


def monte_carlo_volume(
    a: GeometryFrame, b: GeometryFrame, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Rejection-sampling volume estimate with its standard error.

    Samples uniformly in the intersection of the two axis-aligned bounding
    regions (a superset of the true intersection).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    boxes = [_box(*f.center, *f.half_extents, f.yaw) for f in (a, b)]
    bounds = np.array([box[2:6] + box[7:9] for box in boxes])  # per box: x_lo, x_hi, y_lo, y_hi, z_lo, z_hi
    lo = np.maximum(*bounds[:, 0::2])
    hi = np.minimum(*bounds[:, 1::2])
    if (hi <= lo).any():
        return 0.0, 0.0
    region = float(np.prod(hi - lo))
    points = rng.uniform(lo, hi, size=(samples, 3))
    hits = _points_inside(points, a) & _points_inside(points, b)
    p = hits.mean()
    stderr = region * float(np.sqrt(p * (1 - p) / samples))
    return region * float(p), stderr


@dataclass
class CollisionReport:
    v_sum: float
    v_avg: float
    io_min: float
    colliding_pairs: int

    def to_json(self) -> dict:
        return asdict(self)


def collision_metrics(scene: SceneLayout) -> CollisionReport:
    """Intersection-volume metrics over unordered object pairs.

    v_avg and io_min average over colliding pairs only; a collision-free
    scene reports zeros.
    """
    v_sum = 0.0
    volumes = []
    ratios = []
    for v, smaller in _overlaps(box_table(scene.objects).tolist()):
        v_sum += v
        volumes.append(v)
        ratios.append(v / smaller)
    pairs = len(volumes)
    return CollisionReport(
        v_sum=v_sum,
        v_avg=float(np.mean(volumes)) if pairs else 0.0,
        io_min=float(np.mean(ratios)) if pairs else 0.0,
        colliding_pairs=pairs,
    )


def _realized(instr: Instruction, scene: SceneLayout) -> int:
    """The most triplets of one instruction that distinct ordered object pairs of the scene realize.

    Pair (i, j) holds the one relation rel[i, j], so it is a candidate only for triplets keyed
    (category i, rel[i, j], category j): equal keys share their candidates, different keys share
    none, and m equal triplets with c candidate pairs match min(m, c). The relation matrix holds
    only the objects of keys whose two categories both occur in the scene: rows of its box table.
    """
    wanted = Counter((t.subject, predicate_id(t.predicate), t.object) for t in instr.triplets)
    present = {o.category for o in scene.objects}
    used = {c for s, _, o in wanted if s in present and o in present for c in (s, o)}
    if not used:
        return 0
    keep = [i for i, o in enumerate(scene.objects) if o.category in used]
    rel = relation_matrix(box_table(scene.objects)[keep])
    rows_of: dict[str, list[int]] = {}
    for row, i in enumerate(keep):
        rows_of.setdefault(scene.objects[i].category, []).append(row)
    realized = 0
    for (subject, p, obj), m in wanted.items():
        rows, cols = rows_of.get(subject, []), rows_of.get(obj, [])
        realized += min(m, int(np.count_nonzero(rel[np.array(rows, dtype=np.intp)[:, None], cols] == p)))
    return realized


def irecall(instructions: list[Instruction], scenes: list[SceneLayout]) -> tuple[float, dict[int, float]]:
    """Percentage of instructed triplets realized in the paired scenes.

    A triplet is realized when distinct generated objects of the right
    categories stand in the stated relation, each triplet with its own
    object pair: an injective matching, counted without a matcher (module
    docstring). Also returns the recall split by relation count k. An
    instruction with no triplets raises ValueError.
    """
    if len(instructions) != len(scenes):
        raise ValueError("instruction/scene lists differ in length")
    for i, instr in enumerate(instructions):
        if not instr.triplets:
            raise ValueError(f"instruction {i} has no triplets")
    by_k: dict[int, list[int]] = {}
    for instr, scene in zip(instructions, scenes):
        by_k.setdefault(len(instr.triplets), []).append(_realized(instr, scene))
    per_k = {k: 100.0 * sum(counts) / (k * len(counts)) for k, counts in sorted(by_k.items())}
    count_total = sum(k * len(counts) for k, counts in by_k.items())
    overall = 100.0 * sum(map(sum, by_k.values())) / count_total if count_total else 0.0
    return overall, per_k


def attribute_accuracy(
    target_grids: list[TokenizedScene],
    generated_grids: list[TokenizedScene],
    scored_positions: list[np.ndarray],
    codec,
) -> dict[str, dict[str, float]]:
    """Exact-match rates at the scored (model-filled) grid positions.

    Frozen positions are excluded by construction; positions whose target
    is a PAD token (empty rows) are skipped since heads cannot emit PAD.
    Layout columns also report a within-one-bin rate. Lists of unequal
    length raise ValueError.
    """
    if not len(target_grids) == len(generated_grids) == len(scored_positions):
        raise ValueError("target/generated/scored lists differ in length")
    pads = np.array([-1 if c.pad_id is None else c.pad_id for c in codec.columns])
    target = np.array([g.tokens for g in target_grids], dtype=np.int64).reshape(-1, GRID_COLUMNS)
    generated = np.array([g.tokens for g in generated_grids], dtype=np.int64).reshape(-1, GRID_COLUMNS)
    scored = np.array(scored_positions, dtype=bool).reshape(-1, GRID_COLUMNS) & (target != pads)
    distance = np.abs(generated - target)
    out: dict[str, dict[str, float]] = {}
    for name, (lo, hi) in ATTRIBUTE_COLUMNS.items():
        d = distance[:, lo:hi][scored[:, lo:hi]]
        total = d.size
        entry = {"exact": np.count_nonzero(d == 0) / total if total else 0.0, "count": total}
        if name in LAYOUT_ATTRIBUTES:
            entry["within_one_bin"] = np.count_nonzero(d <= 1) / total if total else 0.0
        out[name] = entry
    return out
