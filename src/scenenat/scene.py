"""Discrete scene representation: uniform quantization between continuous
object layouts and fixed-size token grids.

A scene holds up to ``max_objects`` objects; each object occupies one row of
a 12-column token grid laid out as

    [category, v1, v2, v3, v4, tx, ty, tz, lx, ly, lz, rot]

Unused rows carry the EMPTY category and PAD tokens in every other column.
Every column vocabulary is extended by one reserved MASK id (the largest id).
"""

from __future__ import annotations

import json
import math
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
class AxisSpec:
    """Bounds and bin count of one uniformly quantized axis."""

    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ConfigurationError(f"axis bounds [{self.lo}, {self.hi}] have non-positive width")
        if self.bins < 2:
            raise ConfigurationError(f"axis needs at least 2 bins, got {self.bins}")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins


def quantize(value: float, axis: AxisSpec) -> int:
    """Map a continuous value to its uniform bin index, clamping to bounds."""
    global _clamp_events
    clamped = value
    if value < axis.lo or value > axis.hi:
        clamped = min(max(value, axis.lo), axis.hi)
        _clamp_events += 1
    idx = math.floor((clamped - axis.lo) / (axis.hi - axis.lo) * axis.bins)
    return min(idx, axis.bins - 1)


def dequantize(bin_index: int, axis: AxisSpec) -> float:
    """Return the center of a bin."""
    if not 0 <= bin_index < axis.bins:
        raise ValueError(f"bin {bin_index} out of range [0, {axis.bins})")
    return axis.lo + (bin_index + 0.5) * axis.bin_width


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
        if 360 % self.rotation_bin_degrees != 0:
            raise ConfigurationError(f"360 must be a multiple of rotation_bin_degrees={self.rotation_bin_degrees}")
        for axis in list(self.position_axes()) + list(self.size_axes()):
            _ = axis  # AxisSpec validates bounds/bins on construction

    @property
    def rotation_bins(self) -> int:
        return 360 // self.rotation_bin_degrees

    def position_axes(self) -> tuple[AxisSpec, ...]:
        return tuple(AxisSpec(lo, hi, self.position_bins) for lo, hi in self.position_bounds)

    def size_axes(self) -> tuple[AxisSpec, ...]:
        return tuple(AxisSpec(lo, hi, self.size_bins) for lo, hi in self.size_bounds)

    def rotation_axis(self) -> AxisSpec:
        return AxisSpec(0.0, 360.0, self.rotation_bins)

    def to_json(self) -> dict:
        return {
            "position_bounds": [list(b) for b in self.position_bounds],
            "size_bounds": [list(b) for b in self.size_bounds],
            "position_bins": self.position_bins,
            "size_bins": self.size_bins,
            "rotation_bin_degrees": self.rotation_bin_degrees,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DiscretizationSpec":
        return cls(
            position_bounds=tuple(tuple(b) for b in doc["position_bounds"]),
            size_bounds=tuple(tuple(b) for b in doc["size_bounds"]),
            position_bins=int(doc["position_bins"]),
            size_bins=int(doc["size_bins"]),
            rotation_bin_degrees=int(doc["rotation_bin_degrees"]),
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
        for name in ("tx", "ty", "tz"):
            cols.append(ColumnSpec(name, spec.position_bins, spec.position_bins, spec.position_bins + 1))
        for name in ("lx", "ly", "lz"):
            cols.append(ColumnSpec(name, spec.size_bins, spec.size_bins, spec.size_bins + 1))
        cols.append(ColumnSpec("rotation", spec.rotation_bins, spec.rotation_bins, spec.rotation_bins + 1))
        self.columns: tuple[ColumnSpec, ...] = tuple(cols)
        self._head_widths = np.array([c.head_width for c in cols], dtype=np.int64)
        self._cat_to_id = {c: i for i, c in enumerate(categories)}

    def category_id(self, name: str) -> int:
        return self._cat_to_id[name]

    def category_name(self, cid: int) -> str:
        return self.categories[cid]

    @property
    def mask_ids(self) -> np.ndarray:
        return np.array([c.mask_id for c in self.columns], dtype=np.int64)

    def empty_row(self) -> np.ndarray:
        row = np.array([c.pad_id if c.pad_id is not None else 0 for c in self.columns], dtype=np.int64)
        row[0] = self.empty_id
        return row

    def tokenize(self, scene: SceneLayout) -> TokenizedScene:
        """Quantize a scene into the N x 12 grid; spare rows become EMPTY; NaN or inf geometry raises."""
        if len(scene.objects) > self.max_objects:
            raise ValueError(f"scene has {len(scene.objects)} objects, max is {self.max_objects}")
        tokens = np.tile(self.empty_row(), (self.max_objects, 1))
        pos_axes = self.spec.position_axes()
        size_axes = self.spec.size_axes()
        rot_axis = self.spec.rotation_axis()
        for i, obj in enumerate(scene.objects):
            for name, values in (("position", obj.position), ("size", obj.size), ("yaw_deg", (obj.yaw_deg,))):
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"object {i} has non-finite {name} {tuple(values)}")
            row = tokens[i]
            row[0] = self._cat_to_id[obj.category]
            for j, code in enumerate(obj.appearance):
                if not 0 <= code < 64:
                    raise ValueError(f"appearance code {code} outside [0, 64)")
                row[1 + j] = code
            for j in range(3):
                row[5 + j] = quantize(obj.position[j], pos_axes[j])
            for j in range(3):
                row[8 + j] = quantize(obj.size[j], size_axes[j])
            row[11] = quantize(obj.yaw_deg % 360.0, rot_axis)
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
        pos_axes = self.spec.position_axes()
        size_axes = self.spec.size_axes()
        rot_axis = self.spec.rotation_axis()
        objects = []
        for row in grid.tokens:
            if row[0] == self.empty_id:
                continue
            objects.append(
                SceneObject(
                    category=self.categories[int(row[0])],
                    appearance=tuple(int(v) for v in row[1:5]),
                    position=tuple(dequantize(int(row[5 + j]), pos_axes[j]) for j in range(3)),
                    size=tuple(dequantize(int(row[8 + j]), size_axes[j]) for j in range(3)),
                    yaw_deg=dequantize(int(row[11]), rot_axis),
                )
            )
        return SceneLayout(room_type=room_type, objects=objects)

    def canonicalize(self, grid: TokenizedScene) -> TokenizedScene:
        """Force PAD tokens onto every non-category slot of EMPTY rows."""
        out = grid.copy()
        empty = out.tokens[:, 0] == self.empty_id
        out.tokens[empty] = self.empty_row()
        out.mask_flags[empty] = False
        return out

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
