"""Geometric relation rules between oriented boxes on the ground plane.

Ten directional/vertical predicates plus ``none``. The XY plane is the
ground, Z is up, yaw rotates about Z. All distances are in absolute scene
units; the close and medium bands end at CLOSE_DISTANCE (1) and
MEDIUM_DISTANCE (3). ``box_table`` states the box rule once: the geometry
columns of one or more layouts as a float64 [n, 7] table of ``GeometryFrame``
fields (centre, half sizes, yaw in radians) with positive half sizes.
One planar kernel, ``_sectors``, gives a ground offset's relation (bearing
sector, closely_* or none by distance); each entry point adds its own vertical
step. ``pair_relations`` takes C gathered (subject, object) pairs as two [C, 7]
tables, iRecall's candidate pairs, and always runs both footprint tests and
both vertical comparisons. ``relation_matrix`` classifies every ordered pair of
one table for extraction: its offsets are exactly antisymmetric and its gaps
symmetric, so it runs one test and one comparison, reads the others as
transposes, and skips the test when no pair is above another.
The collision pair loop reads the table's rows as Python floats.
``GeometryFrame`` stays the scalar reference of the volume functions and the
test oracles.

``extract_triplets`` returns a scene's relations as a ``RelationTable``: the
layout's categories column plus one int row (subject index, predicate id,
object index) per related ordered pair, a predicate id being its
``RELATION_SET`` index. Instructions, the matched loss and iRecall read its
``.rows``, so a scene's ~1000 relations cost one array and no objects;
iterating a table builds the ``RelationTriplet`` row view the bench census
reads. Only the public ``RelationTable`` constructor checks rows.
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

# Each mirror pair is stated once and mapped both ways.
_MIRROR_PAIRS = (
    ("right_of", "left_of"), ("in_front_of", "behind"), ("closely_right_of", "closely_left_of"),
    ("closely_in_front_of", "closely_behind"), ("above", "below"), ("none", "none"),
)
_MIRROR = {RelationPredicate(x): RelationPredicate(y) for a, b in _MIRROR_PAIRS for x, y in ((a, b), (b, a))}


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


_BOX_SCALE = np.array([1.0, 1.0, 1.0, 0.5, 0.5, 0.5, math.pi / 180.0])  # np.radians is x * (pi / 180) too


def box_table(*scenes: SceneLayout) -> np.ndarray:
    """``frame_of``'s fields of each object of one or more scenes, in order, as a float64 [n, 7] array: x y z,
    hx hy hz, yaw in radians.

    An object whose half size is not positive raises ValueError naming its index in its scene, and the scene's
    index when there are several. One scene's geometry column is multiplied without a concatenate: the product is
    already a new array.
    """
    g = scenes[0].geometry if len(scenes) == 1 else np.concatenate([s.geometry for s in scenes])
    table = g * _BOX_SCALE
    bad = table[:, 3:6] <= 0.0
    if bad.any():  # one flat reduction: a per-row any would start numpy's inner loop once per 3-wide row
        row, k = int(np.flatnonzero(bad)[0]) // 3, 0
        while row >= len(scenes[k].categories):
            row, k = row - len(scenes[k].categories), k + 1
        where = f"scene {k}: " if len(scenes) > 1 else ""
        raise ValueError(f"{where}object {row} has non-positive size {tuple(scenes[k].geometry[row, 3:6].tolist())}")
    return table


def box_corners(x: float, y: float, hx: float, hy: float, yaw: float) -> list[tuple[float, float]]:
    """Ground-plane corners of a yaw-rotated box, counter-clockwise from (-hx, -hy) in the box's frame.

    Each corner is (x + dx * c - dy * s, y + dx * s + dy * c) for its half-extent signs (dx, dy), written out
    straight-line; ``footprint_corners`` and the collision clip's ``evaluation._box`` call it.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    return [
        (x + -hx * c - -hy * s, y + -hx * s + -hy * c),
        (x + hx * c - -hy * s, y + hx * s + -hy * c),
        (x + hx * c - hy * s, y + hx * s + hy * c),
        (x + -hx * c - hy * s, y + -hx * s + hy * c),
    ]


def footprint_corners(f: GeometryFrame) -> list[tuple[float, float]]:
    """``box_corners`` of a frame; the benchmark's collision gate and the tests read it."""
    return box_corners(f.center[0], f.center[1], f.half_extents[0], f.half_extents[1], f.yaw)


# A bearing's bin is the count of the edges at or below theta, summed over the [4, ...] bool array
# np.less_equal.outer(_BEARING_EDGES, theta): the sectors are right_of on [-pi/4, pi/4), in_front_of on
# [pi/4, 3pi/4), behind on [-3pi/4, -pi/4). It is np.searchsorted(_BEARING_EDGES, theta, side="right") without
# a per-angle branch; a NaN angle counts no edge, bin 0, where the search gives bin 4, and both bins are left_of.
_BEARING_EDGES = np.array([-3 * np.pi / 4, -np.pi / 4, np.pi / 4, 3 * np.pi / 4])
# [closely][bearing bin] -> predicate id; the last bin wraps round to left_of.
_BEARINGS = ("left_of", "behind", "right_of", "in_front_of", "left_of")
_SECTOR_IDS = np.array([[RELATION_SET.index(pre + b) for b in _BEARINGS] for pre in ("", "closely_")])
_ABOVE_ID = RELATION_SET.index(RelationPredicate.ABOVE)
_BELOW_ID = RELATION_SET.index(RelationPredicate.BELOW)


def _inside(dx: np.ndarray, dy: np.ndarray, box) -> np.ndarray:
    """Whether the ground offset (dx, dy) from each box's centre lies in its footprint; box[k] is field k."""
    c, s = np.cos(box[6]), np.sin(box[6])
    return (np.abs(dx * c + dy * s) <= box[3]) & (np.abs(dy * c - dx * s) <= box[4])


def _sectors(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Planar relation id of each ground offset (dx, dy) of a subject from its object: the bearing's sector,
    closely_* within CLOSE_DISTANCE, and -1 beyond MEDIUM_DISTANCE."""
    d = np.sqrt(dx * dx + dy * dy)
    bearing = np.add.reduce(np.less_equal.outer(_BEARING_EDGES, np.arctan2(dy, dx)), axis=0)
    rel = _SECTOR_IDS[(d <= CLOSE_DISTANCE).astype(np.intp), bearing]
    rel[d > MEDIUM_DISTANCE] = -1
    return rel


def pair_relations(subjects: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """Relation of each subject box to its object box, for C gathered pairs.

    ``subjects`` and ``objects`` are float [C, 7] ``box_table`` rows of one shape, row k of each making pair k;
    each result is a ``RELATION_SET`` index, or -1 for none. In order: above or below when either centre lies in
    the other's footprint and the z gap exceeds the mean height; none beyond MEDIUM_DISTANCE on the ground; else
    the sector of the bearing atan2(dy, dx) of the subject from the object, closely_* within CLOSE_DISTANCE.
    Coincident ground centres with no vertical relation keep atan2(0, 0) = 0: each box is closely_right_of the
    other, the one pair whose two orders are not mirror predicates. The sector is a count of the bearing edges at
    or below θ: bin 0 and the wrapped bin 4 are left_of. Gathered pairs have no transpose, so both footprint
    tests and both vertical comparisons always run; the subject's test reads the offset (dx, dy), whose negation
    is exact, so it sees the same |u| and |v| as at (-dx, -dy). Any other shapes raise ValueError naming both.
    """
    if subjects.ndim != 2 or subjects.shape[1] != 7 or subjects.shape != objects.shape:
        raise ValueError(
            f"subjects and objects must be [C, 7] tables of one shape, got {subjects.shape} and {objects.shape}"
        )
    s, o = subjects.T, objects.T
    dx, dy, dz, gap = s[0] - o[0], s[1] - o[1], s[2] - o[2], s[5] + o[5]
    rel = _sectors(dx, dy)
    overlap = _inside(dx, dy, o) | _inside(dx, dy, s)
    rel[overlap & (dz > gap)] = _ABOVE_ID
    rel[overlap & (-dz > gap)] = _BELOW_ID
    return rel


def relation_matrix(boxes: np.ndarray) -> np.ndarray:
    """``pair_relations`` of every ordered pair of a float [N, 7] ``box_table``, as an int [N, N] matrix.

    Entry [i, j] is the relation of box i (subject) to box j (object); -1 is none and fills the diagonal. The
    square owns two transposes that gathered pairs cannot use: IEEE subtraction gives x_j - x_i == -(x_i - x_j)
    and the gap h_i + h_j is symmetric, so ``below`` is ``above`` transposed, and the subject's footprint test,
    which sees the negated offset with the same |u| and |v|, is the object's test transposed. So the matrix runs
    one vertical comparison and one footprint test, and only when some pair is above another: with none, the
    test could change no result bit. A table that is not [N, 7] raises ValueError.
    """
    if boxes.ndim != 2 or boxes.shape[1] != 7:
        raise ValueError(f"boxes must be a [N, 7] box_table, got shape {boxes.shape}")
    fields = boxes.T
    s, o = fields[:, :, None], fields[:, None]
    dx, dy, dz, gap = s[0] - o[0], s[1] - o[1], s[2] - o[2], s[5] + o[5]
    rel = _sectors(dx, dy)
    above = dz > gap
    if above.any():
        hit = _inside(dx, dy, o)
        stacked = (hit | hit.T) & above
        rel[stacked] = _ABOVE_ID
        rel[stacked.T] = _BELOW_ID
    rel.reshape(-1)[:: len(boxes) + 1] = -1  # the diagonal, in one strided write
    return rel


@dataclass(frozen=True)
class RelationTriplet:
    """One ``RelationTable`` row read as (subject category, predicate, object category) plus its instances."""

    subject: str
    predicate: RelationPredicate
    object: str
    subject_instance: int
    object_instance: int

    def __post_init__(self):
        if self.predicate is RelationPredicate.NONE:
            raise ValueError("stored triplets must have a real predicate")


class RelationTable:
    """A scene's relations as an int [T, 3] table of (subject index, predicate id, object index).

    Its relations are read through ``rows`` and the instances' categories
    through ``categories``; both are read-only, and equal ones make equal
    tables. Iterating builds each row's ``RelationTriplet`` for the bench
    census. The constructor copies and checks ``rows``: one that is not an int
    triple, points outside ``categories`` or ``RELATION_SET``, or relates an
    instance to itself raises ValueError. Tables of rows the package derived
    skip both (``_derived`` freezes them in place); property tests pin them.
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
        self.categories, self.rows = tuple(categories), rows

    @classmethod
    def _derived(cls, categories: Sequence[str], rows: np.ndarray) -> RelationTable:
        rows.flags.writeable = False
        table = cls.__new__(cls)
        table.categories, table.rows = tuple(categories), rows
        return table

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        same = isinstance(other, RelationTable) and self.categories == other.categories
        return same and np.array_equal(self.rows, other.rows)

    def _triplet(self, s: int, p: int, o: int) -> RelationTriplet:
        return RelationTriplet(self.categories[s], RELATION_SET[p], self.categories[o], s, o)

    def __iter__(self) -> Iterator[RelationTriplet]:
        return (self._triplet(*row) for row in self.rows.tolist())


def extract_triplets(scene: SceneLayout) -> RelationTable:
    """Every ordered object pair whose relation is not none.

    Rows are in (subject index, object index) order, the row-major
    ``np.nonzero`` of ``relation_matrix``; deterministic.
    """
    rel = relation_matrix(box_table(scene))
    cells = np.flatnonzero(rel >= 0)
    rows = np.empty((len(cells), 3), dtype=np.intp)
    np.divmod(cells, len(rel), out=(rows[:, 0], rows[:, 2]))
    rows[:, 1] = rel.ravel()[cells]
    return RelationTable._derived(scene.categories, rows)
