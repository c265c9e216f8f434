import dataclasses
import math
import re
import sys
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenenat import scene as sc
from scenenat.scene import (
    ConfigurationError,
    DiscretizationSpec,
    IncompleteSceneError,
    SceneCodec,
    SceneLayout,
    SceneObject,
)

from support import make_codec

CATEGORIES = make_codec().categories  # the oracle reads category ids from this list


class AxisSpec(NamedTuple):
    """Bounds and bin count of one uniformly quantized axis (oracle)."""

    lo: float
    hi: float
    bins: int

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins


def quantize(value: float, axis: AxisSpec) -> int:
    """Scalar oracle: the uniform bin index of a value, clamped to the bounds."""
    clamped = min(max(value, axis.lo), axis.hi)
    idx = math.floor((clamped - axis.lo) / (axis.hi - axis.lo) * axis.bins)
    return min(idx, axis.bins - 1)


def dequantize(bin_index: int, axis: AxisSpec) -> float:
    """Scalar oracle: the center of a bin."""
    if not 0 <= bin_index < axis.bins:
        raise ValueError(f"bin {bin_index} out of range [0, {axis.bins})")
    return axis.lo + (bin_index + 0.5) * axis.bin_width


def oracle_axes(spec: DiscretizationSpec) -> list[AxisSpec]:
    """The axes of grid columns tx ty tz lx ly lz rot, built from the spec's fields."""
    return (
        [AxisSpec(lo, hi, spec.position_bins) for lo, hi in spec.position_bounds]
        + [AxisSpec(lo, hi, spec.size_bins) for lo, hi in spec.size_bounds]
        + [AxisSpec(0.0, 360.0, 360 // spec.rotation_bin_degrees)]
    )


def oracle_tokenize(codec: SceneCodec, scene: SceneLayout) -> tuple[np.ndarray, int]:
    """Scalar reference tokenizer: one quantize call per value at literal column
    offsets. Returns the tokens and the number of out-of-bounds values."""
    spec = codec.spec
    axes = oracle_axes(spec)
    empty = [len(CATEGORIES)] + [64] * 4 + [spec.position_bins] * 3 + [spec.size_bins] * 3 + [axes[-1].bins]
    tokens = np.array([empty] * codec.max_objects, dtype=np.int64)
    clamps = 0
    for i, obj in enumerate(scene.objects):
        values = (*obj.position, *obj.size, obj.yaw_deg % 360.0)
        tokens[i, 0] = CATEGORIES.index(obj.category)
        tokens[i, 1:5] = obj.appearance
        tokens[i, 5:12] = [quantize(v, a) for v, a in zip(values, axes)]
        clamps += sum(not a.lo <= v <= a.hi for v, a in zip(values, axes))
    return tokens, clamps


def random_scene(rng, codec, n_objects=None):
    n = int(rng.integers(1, codec.max_objects + 1)) if n_objects is None else n_objects
    objects = []
    for _ in range(n):
        objects.append(
            SceneObject(
                category=CATEGORIES[int(rng.integers(len(CATEGORIES)))],
                appearance=tuple(int(v) for v in rng.integers(0, 64, size=4)),
                position=tuple(rng.uniform(-4, 4, size=3)),
                size=tuple(rng.uniform(0.05, 4, size=3)),
                yaw_deg=float(rng.uniform(0, 360)),
            )
        )
    return SceneLayout(room_type="bedroom", objects=objects)


def scene_of(geometry):
    """A scene with one object per row of (x, y, z, lx, ly, lz, yaw) values."""
    objects = [SceneObject("bed", (0, 0, 0, 0), tuple(g[:3]), tuple(g[3:6]), g[6]) for g in np.asarray(geometry).tolist()]
    return SceneLayout(room_type="bedroom", objects=objects)


def one_object_grid(codec):
    obj = SceneObject("bed", (1, 2, 3, 4), (0.0, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    return codec.tokenize(SceneLayout(room_type="bedroom", objects=[obj]))


def test_grid_layout_is_read_off_the_one_column_table():
    ranges = list(sc.ATTRIBUTE_COLUMNS.values())
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]  # contiguous, in grid order
    assert (sc.GRID_COLUMNS, sc.APPEARANCE_CODES) == (12, 4)
    assert sc.LAYOUT_ATTRIBUTES == tuple(sc.ATTRIBUTE_COLUMNS)[-3:] == ("position", "size", "rotation")
    geometry = [c for name in sc.LAYOUT_ATTRIBUTES for c in range(*sc.ATTRIBUTE_COLUMNS[name])]
    assert geometry == list(range(5, 12)) and len(geometry) == len(DiscretizationSpec().axes)


def test_the_codec_geometry_slice_is_the_column_tables():
    geometry = np.concatenate([np.arange(*sc.ATTRIBUTE_COLUMNS[a]) for a in sc.LAYOUT_ATTRIBUTES])
    np.testing.assert_array_equal(np.arange(sc.GRID_COLUMNS)[make_codec()._geometry], geometry)


def test_quantize_lower_bound_is_bin_zero():
    assert quantize(-4.0, AxisSpec(-4.0, 4.0, 64)) == 0
    codec = make_codec()
    before = sc.clamp_event_count()
    grid = codec.tokenize(scene_of([[-4.0, -4.0, -4.0, 0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(grid.tokens[0, 5:], 0)
    assert sc.clamp_event_count() - before == 0


def test_quantize_yaw_floor():
    assert quantize(95.0, AxisSpec(0.0, 360.0, 36)) == 9
    codec = make_codec()
    grid = codec.tokenize(scene_of([[0, 0, 0, 1, 1, 1, yaw] for yaw in (95.0, 95.0 - 360.0, 95.0 + 720.0)]))
    np.testing.assert_array_equal(grid.tokens[:3, 11], 9)


def test_quantize_roundtrip_error_within_half_bin():
    rng = np.random.default_rng(0)
    spec = DiscretizationSpec()
    axes = oracle_axes(spec)
    values = rng.uniform([a.lo for a in axes], [a.hi for a in axes], size=(2_000, 7))
    codec = SceneCodec(CATEGORIES, spec, max_objects=len(values))
    snapped = codec.snap(scene_of(values))
    centres = np.array([(*o.position, *o.size, o.yaw_deg) for o in snapped.objects])
    widths = np.array([a.bin_width for a in axes])
    assert (np.abs(values - centres) <= widths / 2 + 1e-12).all()


def test_quantize_monotone():
    values = np.linspace(-1.5, 1.5, 400)
    codec = make_codec(max_objects=len(values), position_bounds=((-1.0, 1.0),) * 3, position_bins=16)
    grid = codec.tokenize(scene_of([[v, v, v, 1, 1, 1, 0] for v in values]))
    assert (np.diff(grid.tokens[:, 5:8], axis=0) >= 0).all()
    assert grid.tokens[0, 5] == 0 and grid.tokens[-1, 5] == 15


def test_dequantize_bin_center():
    assert dequantize(0, AxisSpec(0.0, 1.0, 2)) == pytest.approx(0.25)
    codec = make_codec(size_bounds=((0.0, 1.0),) * 3, size_bins=2)
    snapped = codec.snap(scene_of([[0, 0, 0, 0.1, 0.4, 0.0, 0]]))
    assert snapped.objects[0].size == pytest.approx((0.25, 0.25, 0.25))


def test_dequantize_symmetric_bins():
    axis = AxisSpec(-4.0, 4.0, 64)
    assert dequantize(31, axis) == pytest.approx(-dequantize(32, axis))
    codec = make_codec()
    grid = one_object_grid(codec)
    grid.tokens[0, 5:7] = (31, 32)
    x, y, _ = codec.detokenize(grid).objects[0].position
    assert x == pytest.approx(-y)


def test_quantize_of_dequantize_is_identity():
    axis = AxisSpec(-2.0, 3.0, 37)
    assert [quantize(dequantize(b, axis), axis) for b in range(axis.bins)] == list(range(axis.bins))
    codec = make_codec(max_objects=axis.bins, position_bounds=((axis.lo, axis.hi),) * 3, position_bins=axis.bins)
    grid = codec.tokenize(scene_of([[0, 0, 0, 1, 1, 1, 0]] * axis.bins))
    grid.tokens[:, 5:8] = np.arange(axis.bins)[:, None]
    np.testing.assert_array_equal(codec.tokenize(codec.detokenize(grid)).tokens, grid.tokens)


def test_dequantize_out_of_range_raises():
    for b in (-1, 64):
        with pytest.raises(ValueError):
            dequantize(b, AxisSpec(0.0, 1.0, 64))
    codec = make_codec()
    for c in range(5, 12):
        grid = one_object_grid(codec)
        grid.tokens[0, c] = codec.columns[c].head_width
        with pytest.raises(ValueError, match=f"column {codec.columns[c].name}"):
            codec.detokenize(grid)


def test_invalid_axis_raises_configuration_error():
    bad_specs = [
        {"position_bounds": ((1.0, 1.0),) * 3},
        {"size_bounds": ((0.0, 4.0), (2.0, 1.0), (0.0, 4.0))},
        {"position_bounds": ((math.nan, 4.0),) * 3},
        {"size_bounds": ((0.0, math.inf),) * 3},
        {"position_bounds": ((-1e308, 1e308),) * 3},
        {"position_bins": 1},
        {"size_bins": 0},
        {"rotation_bin_degrees": 7},
        {"rotation_bin_degrees": 0},
        {"rotation_bin_degrees": 360},
        {"rotation_bin_degrees": -10},
        {"position_bins": 64.5},
        {"size_bins": 64.0},
        {"position_bins": True},
        {"rotation_bin_degrees": 7.5},
        {"rotation_bin_degrees": 10.0},
    ]
    for kwargs in bad_specs:
        with pytest.raises(ConfigurationError):
            DiscretizationSpec(**kwargs)
    # a bound that is not a (lo, hi) pair of numbers names its field, not a bare unpacking or comparison error
    for name, bounds in (
        ("position_bounds", ((0, 1, 2),) * 3),
        ("size_bounds", (("a", "b"),) * 3),
        ("position_bounds", (1.0, 2.0, 3.0)),
        ("size_bounds", (((0, 1), 2),) * 3),
        ("position_bounds", ((0, 10**400),) * 3),
        ("size_bounds", ((-(10**400), 1),) * 3),
        ("position_bounds", ((False, True),) * 3),
    ):
        with pytest.raises(ConfigurationError, match=f"{name} must be 3 \\(lo, hi\\) pairs of numbers"):
            DiscretizationSpec(**{name: bounds})
    # an int bound that a float holds behaves like that float
    for name in ("position_bounds", "size_bounds"):
        big, wide = DiscretizationSpec(**{name: ((0, 10**30),) * 3}), DiscretizationSpec(**{name: ((0, 1e30),) * 3})
        assert np.array_equal(np.array(big.axes, dtype=np.float64), np.array(wide.axes, dtype=np.float64))


def test_empty_scene_tokenizes_to_empty_rows():
    codec = make_codec()
    grid = codec.tokenize(SceneLayout(room_type="bedroom", objects=[]))
    assert (grid.tokens[:, 0] == codec.empty_id).all()
    assert not grid.mask_flags.any()


def test_tokenize_preserves_object_count():
    codec = make_codec()
    rng = np.random.default_rng(5)
    for _ in range(20):
        scene = random_scene(rng, codec)
        grid = codec.tokenize(scene)
        assert int((grid.tokens[:, 0] != codec.empty_id).sum()) == len(scene.objects)


def test_token_roundtrip_over_random_scenes():
    codec = make_codec()
    rng = np.random.default_rng(7)
    for _ in range(200):
        grid = codec.tokenize(random_scene(rng, codec))
        back = codec.tokenize(codec.detokenize(grid))
        np.testing.assert_array_equal(grid.tokens, back.tokens)


def test_detokenize_restores_snapped_scene_exactly():
    codec = make_codec()
    rng = np.random.default_rng(11)
    scene = codec.snap(random_scene(rng, codec, n_objects=3))
    restored = codec.detokenize(codec.tokenize(scene))
    for a, b in zip(scene.objects, restored.objects):
        assert a == b


def test_detokenize_rejects_mask_tokens():
    codec = make_codec()
    grid = codec.tokenize(SceneLayout(room_type="bedroom", objects=[]))
    grid.tokens[0, 5] = codec.columns[5].mask_id
    with pytest.raises(IncompleteSceneError):
        codec.detokenize(grid)


@pytest.mark.parametrize(
    "column, value, name",
    [
        (0, -1, "category"),
        (0, len(CATEGORIES) + 2, "category"),
        (1, 64, "appearance0"),
        (7, 64, "tz"),
        (11, -3, "rotation"),
    ],
)
def test_detokenize_rejects_out_of_vocabulary_tokens_in_live_rows(column, value, name):
    codec = make_codec()
    grid = one_object_grid(codec)
    grid.tokens[0, column] = value
    with pytest.raises(ValueError, match=f"row 0 column {name}: token {value} outside"):
        codec.detokenize(grid)


def test_detokenize_names_the_grid_row_of_a_bad_token_after_empty_rows():
    codec = make_codec()
    grid = one_object_grid(codec)
    grid.tokens[[0, 2]] = grid.tokens[[2, 0]]  # rows 0-1 EMPTY, row 2 live
    grid.tokens[2, 7] = 64
    with pytest.raises(ValueError, match="row 2 column tz: token 64 outside"):
        codec.detokenize(grid)


def test_detokenize_layout_owns_its_columns():
    codec = make_codec()
    grid = codec.tokenize(random_scene(np.random.default_rng(5), codec, n_objects=3))
    layout = codec.detokenize(grid)
    appearance, geometry = layout.appearance.copy(), layout.geometry.copy()
    assert not np.shares_memory(layout.appearance, grid.tokens)
    assert not (layout.appearance.flags.writeable or layout.geometry.flags.writeable)
    grid.tokens[:] = 0
    np.testing.assert_array_equal(layout.appearance, appearance)
    np.testing.assert_array_equal(layout.geometry, geometry)


def test_detokenize_leaves_empty_rows_unchecked():
    codec = make_codec()
    grid = one_object_grid(codec)
    grid.tokens[2, 1:] = -7
    assert len(codec.detokenize(grid).objects) == 1


GOOD_FIELDS = {
    "category": "bed",
    "appearance": (0, 0, 0, 0),
    "position": (0.0, 0.0, 0.5),
    "size": (1.0, 1.0, 1.0),
    "yaw_deg": 0.0,
}


@pytest.mark.parametrize(
    "name, value, problem",
    [
        *(
            pytest.param(name, bad if name == "yaw_deg" else (0.5, bad, 0.5), "must be finite", id=f"{name}-{bad}")
            for name in ("position", "size", "yaw_deg")
            for bad in (math.nan, math.inf, -math.inf)
        ),
        pytest.param("appearance", (1, 2, 3), "needs 4 values", id="appearance-3"),
        pytest.param("appearance", (1, 2, 3, 4, 5), "needs 4 values", id="appearance-5"),
        # unchecked, a lamp with a 2-value position and a 4-value size related to a bed by shifted
        # values (its z read from its first size value) and made collision_metrics raise IndexError
        pytest.param("position", (0.5, 0.5), "needs 3 values", id="position-2"),
        pytest.param("size", (0.4, 0.4, 0.6, 0.6), "needs 3 values", id="size-4"),
        pytest.param("appearance", (0, 0, -1, 0), "codes must lie in [0, 64)", id="code--1"),
        pytest.param("appearance", (0, 64, 0, 0), "codes must lie in [0, 64)", id="code-64"),
        # a bool is an int and 3.0 hashes as 3, so the range test alone would store (True, 3.0, 2, 1) as [1, 3, 2, 1]
        pytest.param("appearance", (True, 3, 2, 1), "codes must be ints", id="code-True"),
        pytest.param("appearance", (1, 3.0, 2, 1), "codes must be ints", id="code-3.0"),
        pytest.param("appearance", (1, 3, np.float64(2.0), 1), "codes must be ints", id="code-np.float64"),
        pytest.param("appearance", (1, 3, 2, np.bool_(True)), "codes must be ints", id="code-np.bool_"),
        # math.isfinite takes a bool as a number, so (True, False, 0.5) was stored as [1.0, 0.0, 0.5]
        pytest.param("position", (True, False, 0.5), "must hold numbers, not bools", id="position-bool"),
        pytest.param("size", (1.0, np.bool_(True), 1.0), "must hold numbers, not bools", id="size-np.bool_"),
        pytest.param("yaw_deg", True, "must hold numbers, not bools", id="yaw_deg-bool"),
        pytest.param("yaw_deg", np.bool_(False), "must hold numbers, not bools", id="yaw_deg-np.bool_"),
        # a layout stored any category, so an int gave categories (3,)
        pytest.param("category", 3, "must be a str", id="category-int"),
        pytest.param("category", None, "must be a str", id="category-None"),
        pytest.param("category", b"bed", "must be a str", id="category-bytes"),
    ],
)
def test_scene_object_rejects_bad_fields(name, value, problem):
    with pytest.raises(ValueError, match=re.escape(f"{name} {problem}, got {value}")):
        SceneObject(**{**GOOD_FIELDS, name: value})


# One fault per field check, in the order SceneObject runs the checks.
FAULTS_IN_CHECK_ORDER = [
    ("category", 3, "category must be a str"),
    ("appearance", (1, 2, 3), "appearance needs 4 values"),
    ("position", (0.5, 0.5), "position needs 3 values"),
    ("size", (0.4, 0.4, 0.6, 0.6), "size needs 3 values"),
    ("appearance", (0, 1.0, 0, 0), "appearance codes must be ints"),
    ("appearance", (0, 64, 0, 0), "appearance codes must lie in [0, 64)"),
    ("position", (0.5, True, 0.5), "position must hold numbers, not bools"),
    ("position", (0.5, math.nan, 0.5), "position must be finite"),
    ("size", (1.0, np.bool_(False), 1.0), "size must hold numbers, not bools"),
    ("size", (1.0, math.inf, 1.0), "size must be finite"),
    ("yaw_deg", True, "yaw_deg must hold numbers, not bools"),
    ("yaw_deg", math.nan, "yaw_deg must be finite"),
]


@pytest.mark.parametrize("first", range(len(FAULTS_IN_CHECK_ORDER)), ids=[m for _, _, m in FAULTS_IN_CHECK_ORDER])
def test_scene_object_reports_its_first_fault_in_check_order(first):
    fields = dict(GOOD_FIELDS)
    for name, value, _ in reversed(FAULTS_IN_CHECK_ORDER[first:]):  # an earlier fault of a field replaces a later one
        fields[name] = value
    with pytest.raises(ValueError, match=re.escape(FAULTS_IN_CHECK_ORDER[first][2])):
        SceneObject(**fields)


def test_scene_object_is_frozen_and_accepts_the_code_range_ends():
    obj = SceneObject(**GOOD_FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.position = (0.0, 0.0, 0.0)
    assert SceneObject(**{**GOOD_FIELDS, "appearance": (0, 63, 0, 63)}).appearance == (0, 63, 0, 63)


def test_scene_object_keeps_a_str_subclass_category_and_numpy_number_geometry():
    fields = {"category": np.str_("bed"), "position": (np.float64(0.5), np.int64(1), 0.5), "yaw_deg": np.float32(90.0)}
    layout = SceneLayout("bedroom", [SceneObject(**{**GOOD_FIELDS, **fields})])
    assert layout.categories == ("bed",) and layout.geometry[0].tolist() == [0.5, 1.0, 0.5, 1.0, 1.0, 1.0, 90.0]


@pytest.mark.parametrize(
    "extra, message",
    [
        ([SceneObject(**{**GOOD_FIELDS, "category": "sofa"})], "object 1 has unknown category 'sofa'"),
        ([SceneObject(**GOOD_FIELDS)] * 4, "scene has 5 objects, max is 4"),
    ],
    ids=["unknown-category", "too-many-objects"],
)
def test_tokenize_rejects_malformed_objects(extra, message):
    codec = make_codec()
    clamped = SceneObject("bed", (0, 0, 0, 0), (99.0, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    before = sc.clamp_event_count()
    with pytest.raises(ValueError, match=message):
        codec.tokenize(SceneLayout(room_type="bedroom", objects=[clamped, *extra]))
    assert sc.clamp_event_count() - before == 0


@pytest.mark.parametrize("max_objects", [0, -1, 2.5, True, 8.0])
def test_codec_rejects_bad_max_objects(max_objects):
    with pytest.raises(ConfigurationError, match="max_objects"):
        SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=max_objects)


@pytest.mark.parametrize("shape", [(3, 12), (1, 12), (2, 11), (2, 13)], ids=["3x12", "1x12", "2x11", "2x13"])
def test_detokenize_rejects_a_grid_of_the_wrong_shape(shape):
    codec = make_codec(max_objects=2)
    grid = sc.TokenizedScene(np.full(shape, codec.empty_id), np.zeros(shape, dtype=bool))
    with pytest.raises(ValueError, match=re.escape(f"grid has shape {shape}, expected (2, 12)")):
        codec.detokenize(grid)


@pytest.mark.parametrize("dtype", [np.float64, bool])
def test_detokenize_rejects_a_grid_that_is_not_integer(dtype):
    # unchecked, a float grid of valid ids fails deep in the object loop with a TypeError
    codec = make_codec()
    tokens = one_object_grid(codec).tokens
    grid = sc.TokenizedScene(tokens.astype(dtype), np.zeros_like(tokens, dtype=bool))
    with pytest.raises(ValueError, match=f"grid tokens must be integers, got {np.dtype(dtype)}"):
        codec.detokenize(grid)


def test_mask_ids_are_shared_and_read_only():
    codec = make_codec()
    assert codec.mask_ids is codec.mask_ids
    with pytest.raises(ValueError):
        codec.mask_ids[0] = 0
    np.testing.assert_array_equal(codec.mask_ids, [c.mask_id for c in codec.columns])


def test_detokenize_all_empty_gives_zero_objects():
    codec = make_codec()
    grid = codec.tokenize(SceneLayout(room_type="bedroom", objects=[]))
    assert codec.detokenize(grid).objects == []


def test_vocabulary_closure():
    codec = make_codec()
    rng = np.random.default_rng(3)
    grid = codec.tokenize(random_scene(rng, codec))
    for c, col in enumerate(codec.columns):
        assert grid.tokens[:, c].max() <= col.mask_id


def test_out_of_bounds_values_clamp_and_count():
    codec = make_codec()
    before = sc.clamp_event_count()
    obj = SceneObject("bed", (0, 0, 0, 0), (99.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    grid = codec.tokenize(SceneLayout(room_type="bedroom", objects=[obj]))
    assert grid.tokens[0, 5] == codec.spec.position_bins - 1
    assert sc.clamp_event_count() - before == 1


# Arbitrary valid specs, and finite geometry reaching far outside the bounds.
bounds = st.tuples(st.floats(-8, 8), st.floats(0.25, 8)).map(lambda lo_width: (lo_width[0], sum(lo_width)))
specs = st.builds(
    DiscretizationSpec,
    position_bounds=st.tuples(bounds, bounds, bounds),
    size_bounds=st.tuples(bounds, bounds, bounds),
    position_bins=st.integers(2, 128),
    size_bins=st.integers(2, 128),
    rotation_bin_degrees=st.sampled_from([d for d in range(1, 181) if 360 % d == 0]),
)
# The continuous draws are bounded so that a failing property shrinks in seconds; the extreme
# finite values come in as sampled members.
extremes = [-0.0, -1e-20, 5e-324, 1e300, -1e300, sys.float_info.max, -sys.float_info.max]
coordinates = st.one_of(st.floats(-12, 12), st.floats(-1e6, 1e6), st.sampled_from([4.0, -4.0, *extremes]))
yaws = st.one_of(
    st.floats(-720, 720),
    st.floats(-1e6, 1e6),
    st.sampled_from([360.0, 359.99999999999994, -720.0, 1080.5, -1e17, *extremes]),
)
objects = st.builds(
    SceneObject,
    category=st.sampled_from(CATEGORIES),
    appearance=st.tuples(*[st.integers(0, 63)] * 4),
    position=st.tuples(coordinates, coordinates, coordinates),
    size=st.tuples(coordinates, coordinates, coordinates),
    yaw_deg=yaws,
)
scenes = st.lists(objects, max_size=6).map(lambda objs: SceneLayout(room_type="bedroom", objects=objs))


@given(spec=specs, scene=scenes)
def test_tokenize_matches_scalar_oracle_and_counts_its_clamps(spec, scene):
    codec = SceneCodec(CATEGORIES, spec, max_objects=6)
    expected, clamps = oracle_tokenize(codec, scene)
    before = sc.clamp_event_count()
    np.testing.assert_array_equal(codec.tokenize(scene).tokens, expected)
    assert sc.clamp_event_count() - before == clamps


@given(spec=specs, data=st.data())
def test_tokenize_inverts_detokenize_on_live_grids(spec, data):
    codec = SceneCodec(CATEGORIES, spec, max_objects=6)
    heads = [codec.empty_id] + [c.head_width for c in codec.columns[1:]]
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, h - 1) for h in heads)), max_size=codec.max_objects))
    grid = codec.tokenize(SceneLayout(room_type="bedroom", objects=[]))
    grid.tokens[: len(rows)] = np.array(rows, dtype=np.int64).reshape(-1, 12)
    scene = codec.detokenize(grid)
    axes = oracle_axes(spec)
    for row, obj in zip(rows, scene.objects):
        assert (*obj.position, *obj.size, obj.yaw_deg) == tuple(dequantize(b, a) for b, a in zip(row[5:], axes))
    before = sc.clamp_event_count()
    np.testing.assert_array_equal(codec.tokenize(scene).tokens, grid.tokens)
    assert sc.clamp_event_count() - before == 0


@given(spec=specs, scene=scenes)
def test_snap_is_idempotent(spec, scene):
    codec = SceneCodec(CATEGORIES, spec, max_objects=6)
    once = codec.snap(scene)
    assert codec.snap(once) == once


def test_the_codec_carries_the_room_type_it_is_given():
    # every other test sends "bedroom", the default, through the codec
    codec = make_codec()
    bedroom = random_scene(np.random.default_rng(5), codec, n_objects=3)
    library = SceneLayout("library", bedroom.objects)
    snapped = codec.snap(library)
    assert snapped.room_type == "library" and snapped.objects == codec.snap(bedroom).objects
    grid = codec.tokenize(library)
    assert codec.detokenize(grid, room_type="library").room_type == "library"
    assert codec.detokenize(grid).room_type == "bedroom"


@given(objs=st.lists(objects, max_size=6), room=st.sampled_from(["bedroom", "library"]))
def test_layout_columns_hold_its_objects(objs, room):
    layout = SceneLayout(room, objs)
    assert layout.objects == objs
    assert SceneLayout(room, layout.objects) == layout
    assert layout.categories == tuple(o.category for o in objs) and len(layout.geometry) == len(objs)
    assert layout != SceneLayout("dining", objs)
    if objs:
        o = objs[0]
        for changed in (
            [o, *objs],
            [dataclasses.replace(o, yaw_deg=1.0 if o.yaw_deg == 0 else 0.0), *objs[1:]],
            [dataclasses.replace(o, appearance=((o.appearance[0] + 1) % 64, *o.appearance[1:])), *objs[1:]],
        ):
            assert SceneLayout(room, changed) != layout


def test_layout_columns_are_read_only():
    codec = make_codec()
    layout = random_scene(np.random.default_rng(3), codec, n_objects=3)
    decoded = codec.detokenize(codec.tokenize(layout))
    for scene in (layout, decoded):
        assert scene.appearance.dtype == np.int64 and scene.appearance.shape == (3, 4)
        assert scene.geometry.dtype == np.float64 and scene.geometry.shape == (3, 7)
        for column in (scene.appearance, scene.geometry):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 1
