"""Geometric relation rules between oriented boxes on the ground plane.

Ten directional/vertical predicates plus ``none``. The XY plane is the
ground, Z is up, yaw rotates about Z. All distances are in absolute scene
units; the close and medium bands end at CLOSE_DISTANCE (1) and
MEDIUM_DISTANCE (3). ``box_table`` packs a scene's objects into one float64
[n, 7] array of ``GeometryFrame`` fields, which ``relation_matrix`` classifies
in one array pass and the collision metric reads row by row. ``GeometryFrame``
stays the scalar reference of the volume functions and the test oracles.

``extract_triplets`` returns a scene's relations as a ``RelationTable``: the
per-instance categories plus one int row (subject index, predicate id,
object index) per related ordered pair. The table reads as a sequence of
``RelationTriplet``s but builds one only when a row is read, so a scene's
~1000 relations cost one array and no objects until something asks for
text.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scene import SceneLayout, SceneObject

CLOSE_DISTANCE = 1.0
MEDIUM_DISTANCE = 3.0


class RelationPredicate(str, Enum):
    RIGHT_OF = "right_of"
    IN_FRONT_OF = "in_front_of"
    LEFT_OF = "left_of"
    BEHIND = "behind"
    CLOSELY_RIGHT_OF = "closely_right_of"
    CLOSELY_IN_FRONT_OF = "closely_in_front_of"
    CLOSELY_LEFT_OF = "closely_left_of"
    CLOSELY_BEHIND = "closely_behind"
    ABOVE = "above"
    BELOW = "below"
    NONE = "none"


#: The 10 predicates that may appear in stored triplets (everything but none).
RELATION_SET = tuple(p for p in RelationPredicate if p is not RelationPredicate.NONE)

_PREDICATE_IDS = {p: i for i, p in enumerate(RELATION_SET)}


def predicate_id(p: RelationPredicate) -> int:
    """Stable class index of a non-none predicate."""
    return _PREDICATE_IDS[p]

_MIRROR = {
    RelationPredicate.RIGHT_OF: RelationPredicate.LEFT_OF,
    RelationPredicate.LEFT_OF: RelationPredicate.RIGHT_OF,
    RelationPredicate.IN_FRONT_OF: RelationPredicate.BEHIND,
    RelationPredicate.BEHIND: RelationPredicate.IN_FRONT_OF,
    RelationPredicate.CLOSELY_RIGHT_OF: RelationPredicate.CLOSELY_LEFT_OF,
    RelationPredicate.CLOSELY_LEFT_OF: RelationPredicate.CLOSELY_RIGHT_OF,
    RelationPredicate.CLOSELY_IN_FRONT_OF: RelationPredicate.CLOSELY_BEHIND,
    RelationPredicate.CLOSELY_BEHIND: RelationPredicate.CLOSELY_IN_FRONT_OF,
    RelationPredicate.ABOVE: RelationPredicate.BELOW,
    RelationPredicate.BELOW: RelationPredicate.ABOVE,
    RelationPredicate.NONE: RelationPredicate.NONE,
}


def mirror_predicate(p: RelationPredicate) -> RelationPredicate:
    """Predicate seen from the swapped pair: right_of <-> left_of etc."""
    return _MIRROR[p]


@dataclass(frozen=True)
class GeometryFrame:
    """Oriented box: center, half extents, yaw (radians, about Z)."""

    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]
    yaw: float

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center, *self.half_extents, self.yaw))) or min(self.half_extents) <= 0:
            raise ValueError(f"frame needs finite values and positive half extents, got {self}")


def frame_of(obj: SceneObject) -> GeometryFrame:
    return GeometryFrame(obj.position, tuple(s / 2.0 for s in obj.size), math.radians(obj.yaw_deg))


def box_table(objects: Sequence[SceneObject]) -> np.ndarray:
    """``frame_of``'s fields of each object as a float64 [n, 7] array: x y z, hx hy hz, yaw in radians.

    An object whose half size is not positive raises ValueError naming its index.
    """
    table = np.array([(*o.position, *o.size, o.yaw_deg) for o in objects], dtype=np.float64).reshape(-1, 7)
    table[:, 3:6] /= 2.0
    if (table[:, 3:6] <= 0).any():
        i = int(np.argmax((table[:, 3:6] <= 0).any(axis=1)))
        raise ValueError(f"object {i} has non-positive size {objects[i].size}")
    table[:, 6] = np.radians(table[:, 6])
    return table


def box_corners(x: float, y: float, hx: float, hy: float, yaw: float) -> list[tuple[float, float]]:
    """Ground-plane corners of a yaw-rotated box, counter-clockwise; footprint_corners and the collision clip's
    ``evaluation._footprint`` call it."""
    c, s = math.cos(yaw), math.sin(yaw)
    return [(x + dx * c - dy * s, y + dx * s + dy * c) for dx, dy in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))]


def footprint_corners(f: GeometryFrame) -> list[tuple[float, float]]:
    """``box_corners`` of a frame; the benchmark's collision gate and the tests read it."""
    return box_corners(f.center[0], f.center[1], f.half_extents[0], f.half_extents[1], f.yaw)


# np.searchsorted(_BEARING_EDGES, theta, side="right") counts the edges at or below theta, so the
# sectors are right_of on [-pi/4, pi/4), in_front_of on [pi/4, 3pi/4), behind on [-3pi/4, -pi/4).
_BEARING_EDGES = np.array([-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4])
# [closely][bearing bin] -> predicate id; the last bin wraps round to left_of.
_BEARINGS = ("left_of", "behind", "right_of", "in_front_of", "left_of")
_SECTOR_IDS = np.array([[_PREDICATE_IDS[RelationPredicate(pre + b)] for b in _BEARINGS] for pre in ("", "closely_")])
_ABOVE_ID = _PREDICATE_IDS[RelationPredicate.ABOVE]
_BELOW_ID = _PREDICATE_IDS[RelationPredicate.BELOW]


def relation_matrix(boxes: np.ndarray) -> np.ndarray:
    """Relation of every ordered pair of boxes, as an int [N, N] matrix.

    ``boxes`` is a float [N, 7] ``box_table``. Entry [i, j] is the
    ``RELATION_SET`` index of box i (subject) relative to box j (object); -1
    is none and fills the diagonal. In order: above or below when either
    centre lies in the other's footprint and the z gap exceeds the mean
    height; none beyond MEDIUM_DISTANCE on the ground; else the sector of the
    bearing atan2(dy, dx), closely_* within CLOSE_DISTANCE.
    Coincident ground centres with no vertical relation keep atan2(0, 0) = 0:
    each box is closely_right_of the other, the one pair whose two orders
    are not mirror predicates.
    """
    x, y, z, hx, hy, hz, yaw = boxes.T
    # Offsets of subject i (rows) from object j (columns); per-object values broadcast along the columns.
    dx, dy, dz = x[:, None] - x, y[:, None] - y, z[:, None] - z
    c, s = np.cos(yaw), np.sin(yaw)
    inside = (np.abs(dx * c + dy * s) <= hx) & (np.abs(dy * c - dx * s) <= hy)
    overlap = inside | inside.T
    gap = hz[:, None] + hz  # the mean of the two heights
    d = np.sqrt(dx * dx + dy * dy)
    bearing = np.searchsorted(_BEARING_EDGES, np.arctan2(dy, dx), side="right")
    rel = _SECTOR_IDS[(d <= CLOSE_DISTANCE).astype(np.intp), bearing]
    rel[d > MEDIUM_DISTANCE] = -1
    rel[overlap & (dz > gap)] = _ABOVE_ID
    rel[overlap & (-dz > gap)] = _BELOW_ID
    np.fill_diagonal(rel, -1)
    return rel


@dataclass(frozen=True)
class RelationTriplet:
    """Symbolic (subject category, predicate, object category) constraint."""

    subject: str
    predicate: RelationPredicate
    object: str
    subject_instance: int | None = None
    object_instance: int | None = None

    def __post_init__(self):
        if self.predicate is RelationPredicate.NONE:
            raise ValueError("stored triplets must have a real predicate")


class RelationTable(Sequence[RelationTriplet]):
    """A scene's relations as an int [T, 3] table of (subject index, predicate id, object index).

    ``categories`` holds each instance's category and ``rows`` the
    ``RELATION_SET`` ids; both are read-only. Reading row i builds its
    ``RelationTriplet``, with the instance ids filled in. A row that is not
    an int triple, points outside ``categories`` or ``RELATION_SET``, or
    relates an instance to itself raises ValueError.
    """

    def __init__(self, categories: Sequence[str], rows: np.ndarray):
        rows = np.array(rows)
        if rows.dtype.kind not in "iu" or rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"rows must be an int [T, 3] array, got {rows.dtype} {rows.shape}")
        if rows.size:
            if rows[:, 0::2].min() < 0 or rows[:, 0::2].max() >= len(categories):
                raise ValueError(f"instance index outside the {len(categories)} categories")
            if rows[:, 1].min() < 0 or rows[:, 1].max() >= len(RELATION_SET):
                raise ValueError("predicate id outside RELATION_SET")
            if (rows[:, 0] == rows[:, 2]).any():
                raise ValueError("a row relates an instance to itself")
        rows.flags.writeable = False
        self.categories = tuple(categories)
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def _triplet(self, s: int, p: int, o: int) -> RelationTriplet:
        return RelationTriplet(self.categories[s], RELATION_SET[p], self.categories[o], s, o)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._triplet(*row) for row in self.rows[i].tolist()]
        return self._triplet(*self.rows[i].tolist())

    def __iter__(self) -> Iterator[RelationTriplet]:
        return (self._triplet(*row) for row in self.rows.tolist())


def extract_triplets(scene: SceneLayout) -> RelationTable:
    """Every ordered object pair whose relation is not none.

    Rows are in (subject index, object index) order, the row-major
    ``np.nonzero`` of ``relation_matrix``; deterministic.
    """
    rel = relation_matrix(box_table(scene.objects))
    subjects, objects = np.nonzero(rel >= 0)
    rows = np.stack([subjects, rel[subjects, objects], objects], axis=1)
    return RelationTable([obj.category for obj in scene.objects], rows)
