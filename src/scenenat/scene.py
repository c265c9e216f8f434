"""Discrete scene representation: uniform quantization between continuous
object layouts and fixed-size token grids.

A scene holds up to ``max_objects`` objects; each object occupies one row of
a 12-column token grid laid out as

    [category, v1, v2, v3, v4, tx, ty, tz, lx, ly, lz, rot]

Unused rows carry the EMPTY category and PAD tokens in every other column.
Every column vocabulary is extended by one reserved MASK id (the largest id).

A ``SceneLayout`` holds its objects as read-only columns: ``categories``, int64
[n, 4] ``appearance`` and float64 [n, 7] ``geometry`` (x y z lx ly lz yaw_deg,
in the order of ``DiscretizationSpec.axes``). A ``SceneObject`` is the view of
one row, built only when ``SceneLayout.objects`` is read, and the one check on
hand-built objects; ``detokenize`` checks its rows against the head widths.

``ATTRIBUTE_COLUMNS`` says where each attribute sits in the grid. Each codec
builds one geometry table from ``DiscretizationSpec.axes``: the bounds and bin
count of the seven geometry columns (tx ty tz lx ly lz rot). Those columns are
one slice of the column table, from the start of the first
``LAYOUT_ATTRIBUTES`` entry to the end of the last, so the codec writes and
reads them as a view. ``tokenize`` floors a layout's geometry column against
the table at once, and clamps it only when a value lies outside the bounds.
``detokenize`` selects the live rows once, range-checks only them, and maps
their bins back to the centres in one expression. The layout it returns
copies its columns, so it shares no memory with the grid."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Attribute -> half-open column range of the grid; the one column table.
ATTRIBUTE_COLUMNS = {
    "category": (0, 1),
    "appearance": (1, 5),
    "position": (5, 8),
    "size": (8, 11),
    "rotation": (11, 12),
}
GRID_COLUMNS = max(hi for _, hi in ATTRIBUTE_COLUMNS.values())
APPEARANCE_CODES = len(range(*ATTRIBUTE_COLUMNS["appearance"]))
APPEARANCE_VOCAB = 64  # each appearance code lies in [0, APPEARANCE_VOCAB)
_APPEARANCE_IDS = frozenset(range(APPEARANCE_VOCAB))
_BOOLS = (bool, np.bool_)
# Ordinal layout attributes in grid order: the geometry columns, scored within one bin as well as exactly.
LAYOUT_ATTRIBUTES = ("position", "size", "rotation")

_clamp_events = 0


def clamp_event_count() -> int:
    """Number of out-of-bounds continuous values clamped since import; callers read deltas."""
    return _clamp_events


class ConfigurationError(ValueError):
    """Invalid discretization or vocabulary configuration."""


class IncompleteSceneError(ValueError):
    """Raised when a grid still containing MASK tokens is detokenized."""


@dataclass(frozen=True)
class DiscretizationSpec:
    """Quantization grid for positions, sizes and yaw rotation."""

    position_bounds: tuple[tuple[float, float], ...] = ((-4.0, 4.0),) * 3
    size_bounds: tuple[tuple[float, float], ...] = ((0.0, 4.0),) * 3
    position_bins: int = 64
    size_bins: int = 64
    rotation_bin_degrees: int = 10

    def __post_init__(self):
        for name in ("position_bounds", "size_bounds"):
            b = np.asarray(getattr(self, name), dtype=object)  # object dtype takes ragged bounds without raising
            numbers = all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in b.flat)
            if b.shape != (3, 2) or not numbers:
                raise ConfigurationError(f"{name} must be 3 (lo, hi) pairs of numbers, got {getattr(self, name)!r}")
            try:  # the codec reads the bounds as float64, which an int past the float range does not fit
                b.astype(np.float64)
            except OverflowError:
                raise ConfigurationError(f"{name} must be 3 (lo, hi) pairs of numbers within the float range") from None
        for name in ("position_bins", "size_bins", "rotation_bin_degrees"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if self.rotation_bin_degrees == 0 or 360 % self.rotation_bin_degrees != 0:
            raise ConfigurationError(f"360 must be a multiple of rotation_bin_degrees={self.rotation_bin_degrees}")
        for lo, hi, bins in self.axes:
            if not (lo < hi and math.isfinite(float(hi) - float(lo))):
                raise ConfigurationError(f"axis bounds [{lo}, {hi}] need a finite, positive width")
            if bins < 2:
                raise ConfigurationError(f"axis needs at least 2 bins, got {bins}")

    @property
    def axes(self) -> tuple[tuple[float, float, int], ...]:
        """``(lo, hi, bins)`` of the seven geometry axes, in grid order tx ty tz lx ly lz rot."""
        return (
            *((lo, hi, self.position_bins) for lo, hi in self.position_bounds),
            *((lo, hi, self.size_bins) for lo, hi in self.size_bounds),
            (0.0, 360.0, 360 // self.rotation_bin_degrees),
        )


@dataclass(frozen=True)
class SceneObject:
    """One object with continuous geometry and discrete appearance codes; a bad field raises ValueError."""

    category: str
    appearance: tuple[int, int, int, int]
    position: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw_deg: float

    def __post_init__(self):
        if not isinstance(self.category, str):  # str subclasses pass
            raise ValueError(f"category must be a str, got {self.category}")
        a, p, s = self.appearance, self.position, self.size
        for name, values, length in (("appearance", a, APPEARANCE_CODES), ("position", p, 3), ("size", s, 3)):
            if len(values) != length:
                raise ValueError(f"{name} needs {length} values, got {values}")
        for v in a:  # the set test alone would take True as 1 and 3.0 as 3
            if v.__class__ is bool or not isinstance(v, (int, np.integer)):
                raise ValueError(f"appearance codes must be ints, got {a}")
        if not _APPEARANCE_IDS.issuperset(a):
            raise ValueError(f"appearance codes must lie in [0, {APPEARANCE_VOCAB}), got {a}")
        for name, values in (("position", p), ("size", s), ("yaw_deg", (self.yaw_deg,))):
            for v in values:  # a plain loop runs faster than all(map(...)) over 3 values
                if isinstance(v, _BOOLS):  # math.isfinite would pass True as 1.0
                    raise ValueError(f"{name} must hold numbers, not bools, got {getattr(self, name)}")
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


class SceneLayout:
    """A room's objects as read-only columns (module docstring), set only by ``_hold`` and compared column by column."""

    def __init__(self, room_type: str, objects: Sequence[SceneObject] = ()):
        geometry = [(*o.position, *o.size, o.yaw_deg) for o in objects]
        self._hold(room_type, [o.category for o in objects], [o.appearance for o in objects], geometry)

    def _hold(self, room_type: str, categories, appearance, geometry) -> SceneLayout:
        self.room_type, self.categories = room_type, tuple(categories)
        self.appearance = np.array(appearance, dtype=np.int64).reshape(-1, APPEARANCE_CODES)
        self.geometry = np.array(geometry, dtype=np.float64).reshape(-1, 7)
        self.appearance.flags.writeable = self.geometry.flags.writeable = False
        return self

    @property
    def objects(self) -> list[SceneObject]:
        """The ``SceneObject`` view of each row, built on each read."""
        rows = zip(self.categories, self.appearance.tolist(), self.geometry.tolist())
        return [SceneObject(c, tuple(a), tuple(g[:3]), tuple(g[3:6]), g[6]) for c, a, g in rows]

    def __eq__(self, other) -> bool:
        same = isinstance(other, SceneLayout) and (self.room_type, self.categories) == (other.room_type, other.categories)
        return same and np.array_equal(self.appearance, other.appearance) and np.array_equal(self.geometry, other.geometry)

    def __repr__(self) -> str:
        return f"SceneLayout({self.room_type!r}, {self.objects!r})"


@dataclass(frozen=True)
class ColumnSpec:
    """Vocabulary layout of one grid column.

    ``head_width`` counts the classes the model may emit; ``pad_id`` (when
    present) and the MASK id sit above it and are input-only.
    """

    name: str
    head_width: int
    pad_id: int | None
    mask_id: int

    @property
    def table_rows(self) -> int:
        return self.mask_id + 1


@dataclass
class TokenizedScene:
    """Fixed-size token grid plus mask flags, the unit the model consumes."""

    tokens: np.ndarray  # int64 [N, 12]
    mask_flags: np.ndarray  # bool [N, 12]

    def copy(self) -> "TokenizedScene":
        return TokenizedScene(self.tokens.copy(), self.mask_flags.copy())


class SceneCodec:
    """Bidirectional mapping between SceneLayout and TokenizedScene.

    Owns the category vocabulary (real categories, then EMPTY) and the
    per-column token layout. Category column: ids 0..R-1 real, R = EMPTY,
    R+1 = MASK. Other columns: real ids, then PAD, then MASK.
    """

    def __init__(self, categories: list[str], spec: DiscretizationSpec, max_objects: int = 8):
        if len(set(categories)) != len(categories):
            raise ConfigurationError("duplicate category names")
        if isinstance(max_objects, bool) or not isinstance(max_objects, int) or max_objects < 1:
            raise ConfigurationError(f"max_objects must be an int of at least 1, got {max_objects!r}")
        self.categories = list(categories)
        self.spec = spec
        self.max_objects = max_objects
        self.empty_id = len(categories)
        cols = [ColumnSpec("category", self.empty_id + 1, None, self.empty_id + 1)]  # real categories + EMPTY
        for i in range(APPEARANCE_CODES):
            cols.append(ColumnSpec(f"appearance{i}", APPEARANCE_VOCAB, APPEARANCE_VOCAB, APPEARANCE_VOCAB + 1))
        for name, (_, _, bins) in zip(("tx", "ty", "tz", "lx", "ly", "lz", "rotation"), spec.axes):
            cols.append(ColumnSpec(name, bins, bins, bins + 1))
        self.columns: tuple[ColumnSpec, ...] = tuple(cols)
        self._head_widths = np.array([c.head_width for c in cols], dtype=np.int64)
        self._cat_to_id = {c: i for i, c in enumerate(categories)}
        self.mask_ids = np.array([c.mask_id for c in cols], dtype=np.int64)
        self.mask_ids.flags.writeable = False
        empty_row = [self.empty_id if c.pad_id is None else c.pad_id for c in cols]
        self._empty_tokens = np.tile(np.array(empty_row, dtype=np.int64), (max_objects, 1))
        # Geometry table: the grid columns (one slice), bounds and bin widths of
        # the seven geometry axes, in the order of ``spec.axes``.
        self._appearance = slice(*ATTRIBUTE_COLUMNS["appearance"])
        self._geometry = slice(ATTRIBUTE_COLUMNS[LAYOUT_ATTRIBUTES[0]][0], ATTRIBUTE_COLUMNS[LAYOUT_ATTRIBUTES[-1]][1])
        self._lo, self._hi, self._bins = np.array(spec.axes, dtype=np.float64).T
        self._span = self._hi - self._lo
        self._bin_width = self._span / self._bins

    def category_id(self, name: str) -> int:
        """Class id of a category; an unknown one raises ValueError."""
        if name not in self._cat_to_id:
            raise ValueError(f"unknown category {name!r}")
        return self._cat_to_id[name]

    def tokenize(self, scene: SceneLayout) -> TokenizedScene:
        """Quantize a scene into the N x 12 grid; spare rows become EMPTY; clamps are counted.

        More than ``max_objects`` objects or an unknown category raise ValueError.
        """
        global _clamp_events
        n = len(scene.categories)
        if n > self.max_objects:
            raise ValueError(f"scene has {n} objects, max is {self.max_objects}")
        ids = [self._cat_to_id.get(c, -1) for c in scene.categories]
        if -1 in ids:
            i = ids.index(-1)
            raise ValueError(f"object {i} has unknown category {scene.categories[i]!r}")
        geometry = scene.geometry.copy()
        geometry[:, -1] %= 360.0
        outside = (geometry < self._lo) | (geometry > self._hi)
        if outside.any():  # clamping in-range values (NaN included) changes nothing, so in-range scenes skip it
            _clamp_events += int(np.count_nonzero(outside))
            np.minimum(np.maximum(geometry, self._lo, out=geometry), self._hi, out=geometry)  # np.clip at C cost
        tokens = self._empty_tokens.copy()
        tokens[:n, 0] = ids
        tokens[:n, self._appearance] = scene.appearance
        tokens[:n, self._geometry] = np.minimum(np.floor((geometry - self._lo) / self._span * self._bins), self._bins - 1)
        return TokenizedScene(tokens=tokens, mask_flags=np.zeros((self.max_objects, GRID_COLUMNS), dtype=bool))

    def detokenize(self, grid: TokenizedScene, room_type: str = "bedroom") -> SceneLayout:
        """Rebuild the continuous scene at bin centers; EMPTY rows are dropped.

        A grid not of shape ``(max_objects, 12)`` or not of an integer dtype, or a live row holding a PAD,
        a negative id or an id past a column's head width, raises ValueError.
        """
        if grid.tokens.shape != (self.max_objects, GRID_COLUMNS):
            raise ValueError(f"grid has shape {grid.tokens.shape}, expected {(self.max_objects, GRID_COLUMNS)}")
        if grid.tokens.dtype.kind not in "iu":
            raise ValueError(f"grid tokens must be integers, got {grid.tokens.dtype}")
        mask_hits = grid.tokens == self.mask_ids
        if mask_hits.any():
            n = int(mask_hits.sum())
            raise IncompleteSceneError(f"grid still has {n} MASK tokens")
        rows = grid.tokens[:, 0] != self.empty_id
        live = grid.tokens[rows]
        outside = (live < 0) | (live >= self._head_widths)
        if outside.any():
            i, c = (int(v) for v in np.argwhere(outside)[0])
            col = self.columns[c]
            r = int(np.flatnonzero(rows)[i])
            raise ValueError(f"row {r} column {col.name}: token {live[i, c]} outside [0, {col.head_width})")
        categories = [self.categories[c] for c in live[:, 0].tolist()]
        centres = self._lo + (live[:, self._geometry] + 0.5) * self._bin_width
        return SceneLayout.__new__(SceneLayout)._hold(room_type, categories, live[:, self._appearance], centres)

    def snap(self, scene: SceneLayout) -> SceneLayout:
        """Round continuous attributes to their bin centers (idempotent)."""
        return self.detokenize(self.tokenize(scene), room_type=scene.room_type)
