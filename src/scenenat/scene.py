"""Discrete scene representation: uniform quantization between continuous
object layouts and fixed-size token grids.

A scene holds up to ``max_objects`` objects; each object occupies one row of
a 12-column token grid laid out as

    [category, v1, v2, v3, v4, tx, ty, tz, lx, ly, lz, rot]

Unused rows carry the EMPTY category and PAD tokens in every other column.
Every column vocabulary is extended by one reserved MASK id (the largest id).

``ATTRIBUTE_COLUMNS`` says where each attribute sits in the grid. Each codec
builds one geometry table from ``DiscretizationSpec.axes``: the bounds and bin
count of the seven geometry columns (tx ty tz lx ly lz rot). ``tokenize``
clamps and floors all of a scene's geometry against it at once, and
``detokenize`` maps the bins back to their centres in one expression."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

APPEARANCE_CODES = 4
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
        if self.rotation_bin_degrees == 0 or 360 % self.rotation_bin_degrees != 0:
            raise ConfigurationError(f"360 must be a multiple of rotation_bin_degrees={self.rotation_bin_degrees}")
        for lo, hi, bins in self.axes:
            if hi <= lo:
                raise ConfigurationError(f"axis bounds [{lo}, {hi}] have non-positive width")
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


@dataclass
class SceneObject:
    """One object with continuous geometry and discrete appearance codes."""

    category: str
    appearance: tuple[int, int, int, int]
    position: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw_deg: float

    def to_json(self) -> dict:
        return {
            "category": self.category,
            "appearance": list(self.appearance),
            "position": list(self.position),
            "size": list(self.size),
            "yaw_deg": self.yaw_deg,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SceneObject":
        return cls(
            category=doc["category"],
            appearance=tuple(doc["appearance"]),
            position=tuple(doc["position"]),
            size=tuple(doc["size"]),
            yaw_deg=float(doc["yaw_deg"]),
        )


@dataclass
class SceneLayout:
    """An ordered list of objects in a room, at most ``max_objects`` long."""

    room_type: str
    objects: list[SceneObject] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"room_type": self.room_type, "objects": [o.to_json() for o in self.objects]}

    @classmethod
    def from_json(cls, doc: dict) -> "SceneLayout":
        return cls(room_type=doc["room_type"], objects=[SceneObject.from_json(o) for o in doc["objects"]])


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
        self.categories = list(categories)
        self.spec = spec
        self.max_objects = max_objects
        self.empty_id = len(categories)
        self.num_classes = len(categories) + 1  # real categories + EMPTY
        cols = [ColumnSpec("category", self.num_classes, None, self.num_classes)]
        for i in range(APPEARANCE_CODES):
            cols.append(ColumnSpec(f"appearance{i}", 64, 64, 65))
        for name, (_, _, bins) in zip(("tx", "ty", "tz", "lx", "ly", "lz", "rotation"), spec.axes):
            cols.append(ColumnSpec(name, bins, bins, bins + 1))
        self.columns: tuple[ColumnSpec, ...] = tuple(cols)
        self._head_widths = np.array([c.head_width for c in cols], dtype=np.int64)
        self._cat_to_id = {c: i for i, c in enumerate(categories)}
        self.mask_ids = np.array([c.mask_id for c in cols], dtype=np.int64)
        self.mask_ids.flags.writeable = False
        self._empty_row = np.array([self.empty_id if c.pad_id is None else c.pad_id for c in cols], dtype=np.int64)
        self._empty_row.flags.writeable = False
        self._empty_tokens = np.tile(self._empty_row, (max_objects, 1))
        # Geometry table: the grid columns, bounds and bin widths of the seven
        # geometry axes, in the order of ``spec.axes``.
        self._appearance = slice(*ATTRIBUTE_COLUMNS["appearance"])
        self._geometry = np.concatenate([np.arange(*ATTRIBUTE_COLUMNS[a]) for a in ("position", "size", "rotation")])
        self._lo, self._hi, self._bins = np.array(spec.axes, dtype=np.float64).T
        self._span = self._hi - self._lo
        self._bin_width = self._span / self._bins

    def category_id(self, name: str) -> int:
        return self._cat_to_id[name]

    def empty_row(self) -> np.ndarray:
        """The read-only row of an EMPTY slot: EMPTY category, PAD elsewhere."""
        return self._empty_row

    def tokenize(self, scene: SceneLayout) -> TokenizedScene:
        """Quantize a scene into the N x 12 grid; spare rows become EMPTY; clamps are counted.

        Malformed objects (unknown category, wrong field lengths, NaN or inf
        geometry, appearance codes outside [0, 64)) raise ValueError.
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
        lengths = [(len(o.appearance), len(o.position), len(o.size)) for o in objects]
        expected = (APPEARANCE_CODES, 3, 3)
        if lengths.count(expected) != n:
            i = [shape == expected for shape in lengths].index(False)
            raise ValueError(f"object {i} has {lengths[i]} appearance, position and size values, expected {expected}")
        geometry = np.array([(*o.position, *o.size, o.yaw_deg) for o in objects], dtype=np.float64).reshape(n, 7)
        finite = np.isfinite(geometry)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            k = j // 3  # position, size or yaw
            name = ("position", "size", "yaw_deg")[k]
            raise ValueError(f"object {i} has non-finite {name} {tuple(geometry[i, 3 * k : 3 * k + 3].tolist())}")
        appearance = np.array([o.appearance for o in objects], dtype=np.int64).reshape(n, APPEARANCE_CODES)
        bad_codes = appearance[(appearance < 0) | (appearance >= 64)]
        if bad_codes.size:
            raise ValueError(f"appearance code {bad_codes[0]} outside [0, 64)")
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

        Live rows must hold output-vocabulary ids only: a PAD, a negative id
        or an id past a column's head width raises ValueError.
        """
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


def write_scenes_jsonl(path: Path, scenes: list[SceneLayout], scene_ids: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, scene in zip(scene_ids, scenes):
            doc = {"scene_id": sid, **scene.to_json()}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def read_scenes_jsonl(path: Path) -> tuple[list[str], list[SceneLayout]]:
    ids, scenes = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            ids.append(doc["scene_id"])
            scenes.append(SceneLayout.from_json(doc))
    return ids, scenes
