"""Discrete scene representation: uniform quantization between continuous
object layouts and fixed-size token grids.

A scene holds up to ``max_objects`` objects; each object occupies one row of
a 12-column token grid laid out as

    [category, v1, v2, v3, v4, tx, ty, tz, lx, ly, lz, rot]

Unused rows carry the EMPTY category and PAD tokens in every other column.
Every column vocabulary is extended by one reserved MASK id (the largest id).

A ``SceneObject`` is checked once, when built: 4 appearance codes in [0, 64)
and a finite 3-value position, 3-value size and yaw. No path checks them
again; the codec checks only the object count and the category vocabulary.

``ATTRIBUTE_COLUMNS`` says where each attribute sits in the grid. Each codec
builds one geometry table from ``DiscretizationSpec.axes``: the bounds and bin
count of the seven geometry columns (tx ty tz lx ly lz rot). ``tokenize``
clamps and floors all of a scene's geometry against it at once, and
``detokenize`` maps the bins back to their centres in one expression."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

APPEARANCE_CODES = 4
APPEARANCE_VOCAB = 64  # each appearance code lies in [0, APPEARANCE_VOCAB)
_APPEARANCE_IDS = frozenset(range(APPEARANCE_VOCAB))
GRID_COLUMNS = 12

# Attribute -> half-open column range of the grid; the one column table.
ATTRIBUTE_COLUMNS = {
    "category": (0, 1),
    "appearance": (1, 5),
    "position": (5, 8),
    "size": (8, 11),
    "rotation": (11, 12),
}
# Ordinal layout attributes, scored within one bin as well as exactly.
LAYOUT_ATTRIBUTES = frozenset({"position", "size", "rotation"})

_clamp_events = 0


def clamp_event_count() -> int:
    """Number of out-of-bounds continuous values clamped since last reset."""
    return _clamp_events


def reset_clamp_events() -> None:
    global _clamp_events
    _clamp_events = 0


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
        if len(self.position_bounds) != 3 or len(self.size_bounds) != 3:
            raise ConfigurationError("bounds must cover exactly 3 axes")
        for name in ("position_bins", "size_bins", "rotation_bin_degrees"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        if self.rotation_bin_degrees == 0 or 360 % self.rotation_bin_degrees != 0:
            raise ConfigurationError(f"360 must be a multiple of rotation_bin_degrees={self.rotation_bin_degrees}")
        for lo, hi, bins in self.axes:
            if not (lo < hi and np.isfinite(hi - lo)):
                raise ConfigurationError(f"axis bounds [{lo}, {hi}] need a finite, positive width")
            if bins < 2:
                raise ConfigurationError(f"axis needs at least 2 bins, got {bins}")

    @property
    def rotation_bins(self) -> int:
        return 360 // self.rotation_bin_degrees

    @property
    def axes(self) -> tuple[tuple[float, float, int], ...]:
        """``(lo, hi, bins)`` of the seven geometry axes, in grid order tx ty tz lx ly lz rot."""
        return (
            *((lo, hi, self.position_bins) for lo, hi in self.position_bounds),
            *((lo, hi, self.size_bins) for lo, hi in self.size_bounds),
            (0.0, 360.0, self.rotation_bins),
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
        a, p, s, yaw = self.appearance, self.position, self.size, self.yaw_deg
        if len(a) == APPEARANCE_CODES and len(p) == len(s) == 3 and _APPEARANCE_IDS.issuperset(a):
            if all(map(math.isfinite, (*p, *s, yaw))):
                return  # one pass over a valid object; the checks below name the bad field
        for name, values, length in (("appearance", a, APPEARANCE_CODES), ("position", p, 3), ("size", s, 3)):
            if len(values) != length:
                raise ValueError(f"{name} needs {length} values, got {values}")
        if not _APPEARANCE_IDS.issuperset(a):
            raise ValueError(f"appearance codes must lie in [0, {APPEARANCE_VOCAB}), got {a}")
        name = next(n for n, v in (("position", p), ("size", s), ("yaw_deg", (yaw,))) if not all(map(math.isfinite, v)))
        raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class SceneLayout:
    """An ordered list of objects in a room, at most ``max_objects`` long."""

    room_type: str
    objects: list[SceneObject] = field(default_factory=list)


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
        self.num_classes = len(categories) + 1  # real categories + EMPTY
        cols = [ColumnSpec("category", self.num_classes, None, self.num_classes)]
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
        # Geometry table: the grid columns, bounds and bin widths of the seven
        # geometry axes, in the order of ``spec.axes``.
        self._appearance = slice(*ATTRIBUTE_COLUMNS["appearance"])
        self._geometry = np.concatenate([np.arange(*ATTRIBUTE_COLUMNS[a]) for a in ("position", "size", "rotation")])
        self._lo, self._hi, self._bins = np.array(spec.axes, dtype=np.float64).T
        self._span = self._hi - self._lo
        self._bin_width = self._span / self._bins

    def category_id(self, name: str) -> int:
        return self._cat_to_id[name]

    def tokenize(self, scene: SceneLayout) -> TokenizedScene:
        """Quantize a scene into the N x 12 grid; spare rows become EMPTY; clamps are counted.

        More than ``max_objects`` objects or an unknown category raise ValueError.
        """
        global _clamp_events
        objects = scene.objects
        n = len(objects)
        if n > self.max_objects:
            raise ValueError(f"scene has {n} objects, max is {self.max_objects}")
        ids = [self._cat_to_id.get(o.category, -1) for o in objects]
        if -1 in ids:
            i = ids.index(-1)
            raise ValueError(f"object {i} has unknown category {objects[i].category!r}")
        geometry = np.array([(*o.position, *o.size, o.yaw_deg) for o in objects], dtype=np.float64).reshape(n, 7)
        appearance = np.array([o.appearance for o in objects], dtype=np.int64).reshape(n, APPEARANCE_CODES)
        geometry[:, -1] %= 360.0
        _clamp_events += int(np.count_nonzero((geometry < self._lo) | (geometry > self._hi)))
        clamped = np.clip(geometry, self._lo, self._hi)
        tokens = self._empty_tokens.copy()
        tokens[:n, 0] = ids
        tokens[:n, self._appearance] = appearance
        tokens[:n, self._geometry] = np.minimum(np.floor((clamped - self._lo) / self._span * self._bins), self._bins - 1)
        return TokenizedScene(tokens=tokens, mask_flags=np.zeros((self.max_objects, GRID_COLUMNS), dtype=bool))

    def detokenize(self, grid: TokenizedScene, room_type: str = "bedroom") -> SceneLayout:
        """Rebuild the continuous scene at bin centers; EMPTY rows are dropped.

        A grid not of shape ``(max_objects, 12)``, or a live row holding a PAD,
        a negative id or an id past a column's head width, raises ValueError.
        """
        if grid.tokens.shape != (self.max_objects, GRID_COLUMNS):
            raise ValueError(f"grid has shape {grid.tokens.shape}, expected {(self.max_objects, GRID_COLUMNS)}")
        mask_hits = grid.tokens == self.mask_ids[None, :]
        if mask_hits.any():
            n = int(mask_hits.sum())
            raise IncompleteSceneError(f"grid still has {n} MASK tokens")
        outside = (grid.tokens[:, :1] != self.empty_id) & ((grid.tokens < 0) | (grid.tokens >= self._head_widths))
        if outside.any():
            r, c = (int(v) for v in np.argwhere(outside)[0])
            col = self.columns[c]
            raise ValueError(f"row {r} column {col.name}: token {grid.tokens[r, c]} outside [0, {col.head_width})")
        live = grid.tokens[grid.tokens[:, 0] != self.empty_id]
        centres = (self._lo + (live[:, self._geometry] + 0.5) * self._bin_width).tolist()
        objects = [
            SceneObject(self.categories[c], tuple(a), tuple(g[:3]), tuple(g[3:6]), g[6])
            for c, a, g in zip(live[:, 0].tolist(), live[:, self._appearance].tolist(), centres)
        ]
        return SceneLayout(room_type=room_type, objects=objects)

    def snap(self, scene: SceneLayout) -> SceneLayout:
        """Round continuous attributes to their bin centers (idempotent)."""
        return self.detokenize(self.tokenize(scene), room_type=scene.room_type)
