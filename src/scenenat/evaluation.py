"""Scene evaluation: collision metrics on oriented boxes, instruction
recall, and exact-match attribute accuracies for infill tasks.

The analytic intersection volume clips the two yaw-rotated footprints
against each other (Sutherland-Hodgman) and multiplies the polygon area by
the vertical overlap; a Monte-Carlo estimator serves as its independent
cross-check. ``_box`` is the one box builder: a box's footprint corners,
clip edges, bounds and reach, then its z range and volume. Footprints that
only touch clip to a rounding-noise sliver whose size depends on the argument
order, so an overlap area at or below ``_TOUCH_AREA`` (1e-13) times (1 + the
footprints' largest coordinate magnitude)^2 counts as 0.

One pair loop, ``_overlaps``, serves ``collision_metrics`` and
``obb_intersection_volume``; ``collision_metrics`` hands it a layout's
``box_table`` rows as Python floats. The loop builds each box's ``_box``
record once, not once per pair, and skips the clip for pairs whose footprint
bounds or z ranges lie apart. The clip scores such footprints at most a
rounding sliver, which the touch floor counts as 0: that floor is the one
tolerance, and the volumes equal those of clipping every pair.
``monte_carlo_volume`` samples in the overlap of the same records' bounds.

``irecall`` counts instead of matching: an ordered object pair holds one
relation, so the injective matching of an instruction's triplets to pairs
gives each distinct triplet min(times instructed, realizing pairs). The
instruction's ``RelationTable`` rows key it by (category, predicate id, category).
One pass scores a whole call: one ``box_table`` over every scene's objects,
which checks every size; ``pair_relations`` on the candidate pairs only, the
ordered pairs of one scene whose two categories some triplet of its
instruction names; and a count per distinct (scene, category, predicate id,
category) key.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import chain, repeat

import numpy as np

from .instructions import Instruction
from .relations import RELATION_SET, GeometryFrame, _inside, box_corners, box_table, pair_relations
from .scene import ATTRIBUTE_COLUMNS, GRID_COLUMNS, LAYOUT_ATTRIBUTES, SceneLayout, TokenizedScene


def _clip_polygon(subject: list[tuple[float, float]], edges: list) -> list[tuple[float, float]]:
    """Sutherland-Hodgman: clip a convex polygon against a convex window given by its ``_box`` edges.

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


# The shoelace sum over coordinates of magnitude M rounds by about 1e-16 * (1 + M)^2, so footprints
# that only touch clip to a sliver of that area, whose size depends on which footprint clips which.
# Overlaps at or below _TOUCH_AREA * (1 + M)^2 count as 0: over 100 times the largest sliver seen in
# probes of touching and ulps-apart footprints, while a 1e-5 m corner poke (area 1e-10) still counts.
_TOUCH_AREA = 1e-13


def _clipped_area(subject: list[tuple[float, float]], edges: list, reach: float) -> float:
    """Area of the overlap of two footprints: the one narrow phase of the collision metrics.

    subject is one footprint's corners and edges the other's ``_box`` edges; reach is the
    larger of their reaches. An overlap at or below the touch floor ``_TOUCH_AREA * reach**2``
    counts as 0.
    """
    points = _clip_polygon(subject, edges)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):  # shoelace; exactly 0.0 under 3 points
        area += x0 * y1 - x1 * y0
    area = abs(area) / 2.0
    return 0.0 if area <= _TOUCH_AREA * reach * reach else area


def _box(x: float, y: float, z: float, hx: float, hy: float, hz: float, yaw: float) -> tuple:
    """A box as the pair loop reads it: (corners, edges, x_lo, x_hi, y_lo, y_hi, reach, z_lo, z_hi, volume).

    Each counter-clockwise footprint edge is (x, y, dx, dy), from corner i - 1 to corner i; reach is 1 plus the
    corners' largest coordinate magnitude. Each bound is the float ``min``/``max`` would pick, the first of equals.
    """
    corners = box_corners(x, y, hx, hy, yaw)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
    edges = [
        (x3, y3, x0 - x3, y0 - y3),
        (x0, y0, x1 - x0, y1 - y0),
        (x1, y1, x2 - x1, y2 - y1),
        (x2, y2, x3 - x2, y3 - y2),
    ]
    x_lo = x1 if x1 < x0 else x0
    x_lo = x2 if x2 < x_lo else x_lo
    x_lo = x3 if x3 < x_lo else x_lo
    x_hi = x1 if x1 > x0 else x0
    x_hi = x2 if x2 > x_hi else x_hi
    x_hi = x3 if x3 > x_hi else x_hi
    y_lo = y1 if y1 < y0 else y0
    y_lo = y2 if y2 < y_lo else y_lo
    y_lo = y3 if y3 < y_lo else y_lo
    y_hi = y1 if y1 > y0 else y0
    y_hi = y2 if y2 > y_hi else y_hi
    y_hi = y3 if y3 > y_hi else y_hi
    reach = -x_lo
    reach = x_hi if x_hi > reach else reach
    reach = -y_lo if -y_lo > reach else reach
    reach = y_hi if y_hi > reach else reach
    return corners, edges, x_lo, x_hi, y_lo, y_hi, 1.0 + reach, z - hz, z + hz, 8.0 * hx * hy * hz


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
    """Whether each point lies in the box: the relation rule's footprint test, then the z test."""
    rel = points - np.asarray(f.center)
    return _inside(rel[:, 0], rel[:, 1], (*f.center, *f.half_extents, f.yaw)) & (np.abs(rel[:, 2]) <= f.half_extents[2])


def monte_carlo_volume(
    a: GeometryFrame, b: GeometryFrame, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Rejection-sampling volume estimate with its standard error.

    Samples uniformly in the intersection of the two axis-aligned bounding
    regions (a superset of the true intersection).
    """
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")
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

    v_avg and io_min average over colliding pairs only, each a running sum in
    pair order divided by the pair count; a collision-free scene reports zeros.
    """
    v_sum, ratio_sum, pairs = 0.0, 0.0, 0
    for pairs, (v, smaller) in enumerate(_overlaps(box_table(scene).tolist()), 1):
        v_sum += v
        ratio_sum += v / smaller
    v_avg, io_min = (v_sum / pairs, ratio_sum / pairs) if pairs else (0.0, 0.0)
    return CollisionReport(v_sum=v_sum, v_avg=v_avg, io_min=io_min, colliding_pairs=pairs)


def irecall(instructions: list[Instruction], scenes: list[SceneLayout]) -> tuple[float, dict[int, float]]:
    """Percentage of instructed triplets realized in the paired scenes.

    A triplet is realized when distinct generated objects of the right
    categories stand in the stated relation, each triplet with its own
    object pair: an injective matching, counted without a matcher (module
    docstring). Also returns the recall split by relation count k. An
    instruction with no triplets, or an object of any scene whose size is not
    positive, raises ValueError.
    """
    if len(instructions) != len(scenes):
        raise ValueError("instruction/scene lists differ in length")
    ks = [len(instr.triplets) for instr in instructions]
    if 0 in ks:
        raise ValueError(f"instruction {ks.index(0)} has no triplets")
    if not scenes:
        return 0.0, {}
    boxes = box_table(*scenes)
    b_n, p_n = len(scenes), len(RELATION_SET)
    # The categories a triplet names get ids 0..c_n - 2; every other category, and the padding of the
    # [scene, slot] grid below, gets c_n - 1, which no triplet names.
    rows = np.concatenate([instr.triplets.rows for instr in instructions])
    owner = np.repeat(np.arange(b_n), ks)
    named = list(chain.from_iterable(instr.triplets.categories for instr in instructions))
    offset = np.cumsum([0] + [len(instr.triplets.categories) for instr in instructions])[owner, None]
    ids: dict[str, int] = {}
    ends = np.array([ids.setdefault(named[e], len(ids)) for e in (rows[:, 0::2] + offset).ravel().tolist()])
    c_n = len(ids) + 1
    # A pair code is (scene, subject category, object category) in base c_n; a key appends the predicate id.
    codes = (owner * c_n + ends[0::2]) * c_n + ends[1::2]
    keys, instructed = np.unique(codes * p_n + rows[:, 1], return_counts=True)
    wanted = np.zeros(b_n * c_n * c_n, dtype=bool)
    wanted[codes] = True
    n = np.array([len(scene.categories) for scene in scenes])
    slot = np.arange(n.max())
    live = slot < n[:, None]
    cats = np.full(live.shape, c_n - 1)
    cats[live] = np.fromiter(map(ids.get, chain.from_iterable(s.categories for s in scenes), repeat(c_n - 1)), int)
    grid = (np.arange(b_n)[:, None, None] * c_n + cats[:, :, None]) * c_n + cats[:, None, :]
    # Only candidate pairs are classified: ordered pairs (i != j) of one scene's objects whose code a triplet
    # of its instruction holds.
    candidate = wanted[grid]
    candidate[:, slot, slot] = False
    b, i, j = np.nonzero(candidate)
    start = np.cumsum(n) - n
    rel = pair_relations(boxes[start[b] + i], boxes[start[b] + j])
    pair_keys = (grid[b, i, j] * p_n + rel)[rel >= 0]
    # Pair (i, j) holds one relation, so it realizes only the triplet of its key: m equal triplets with
    # c realizing pairs match min(m, c).
    at = np.minimum(np.searchsorted(keys, pair_keys), len(keys) - 1)
    realized = np.minimum(instructed, np.bincount(at[keys[at] == pair_keys], minlength=len(keys)))
    realized_k = np.bincount(np.array(ks)[keys // (c_n * c_n * p_n)], weights=realized)
    count_k = np.bincount(ks)
    per_k = {k: 100.0 * int(realized_k[k]) / (k * int(count_k[k])) for k in np.flatnonzero(count_k).tolist()}
    return 100.0 * int(realized.sum()) / sum(ks), per_k


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
