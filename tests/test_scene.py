import dataclasses
import math

import numpy as np
import pytest

from scenenat import scene as sc
from scenenat.scene import (
    AxisSpec,
    ConfigurationError,
    DiscretizationSpec,
    IncompleteSceneError,
    SceneCodec,
    SceneLayout,
    SceneObject,
    dequantize,
    quantize,
)

CATEGORIES = ["bed", "chair", "desk", "lamp"]


def make_codec(max_objects=4):
    return SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=max_objects)


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


def test_quantize_lower_bound_is_bin_zero():
    axis = AxisSpec(-4.0, 4.0, 64)
    assert quantize(-4.0, axis) == 0


def test_quantize_yaw_floor():
    axis = AxisSpec(0.0, 360.0, 36)
    assert quantize(95.0, axis) == 9


def test_quantize_roundtrip_error_within_half_bin():
    rng = np.random.default_rng(0)
    axis = AxisSpec(-4.0, 4.0, 64)
    values = rng.uniform(-4, 4, size=10_000)
    for v in values:
        err = abs(v - dequantize(quantize(float(v), axis), axis))
        assert err <= axis.bin_width / 2 + 1e-12


def test_quantize_monotone():
    axis = AxisSpec(-1.0, 1.0, 16)
    values = np.linspace(-1.5, 1.5, 400)
    bins = [quantize(float(v), axis) for v in values]
    assert all(b1 <= b2 for b1, b2 in zip(bins, bins[1:]))


def test_dequantize_bin_center():
    assert dequantize(0, AxisSpec(0.0, 1.0, 2)) == pytest.approx(0.25)


def test_dequantize_symmetric_bins():
    axis = AxisSpec(-4.0, 4.0, 64)
    assert dequantize(31, axis) == pytest.approx(-dequantize(32, axis))


def test_quantize_of_dequantize_is_identity():
    axis = AxisSpec(-2.0, 3.0, 37)
    for b in range(axis.bins):
        assert quantize(dequantize(b, axis), axis) == b


def test_dequantize_out_of_range_raises():
    with pytest.raises(ValueError):
        dequantize(64, AxisSpec(0.0, 1.0, 64))


def test_invalid_axis_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        AxisSpec(1.0, 1.0, 4)
    with pytest.raises(ConfigurationError):
        DiscretizationSpec(rotation_bin_degrees=7)


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


def one_object_grid(codec):
    obj = SceneObject("bed", (1, 2, 3, 4), (0.0, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    return codec.tokenize(SceneLayout(room_type="bedroom", objects=[obj]))


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


def test_detokenize_leaves_empty_rows_unchecked():
    codec = make_codec()
    grid = one_object_grid(codec)
    grid.tokens[2, 1:] = -7
    assert len(codec.detokenize(grid).objects) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("attribute", ["position", "size", "yaw_deg"])
def test_tokenize_rejects_non_finite_geometry(attribute, value):
    codec = make_codec()
    good = SceneObject("bed", (0, 0, 0, 0), (0.0, 0.0, 0.5), (1.0, 1.0, 1.0), 0.0)
    bad = dataclasses.replace(good, **{attribute: value if attribute == "yaw_deg" else (0.5, value, 0.5)})
    sc.reset_clamp_events()
    with pytest.raises(ValueError, match=f"object 1 has non-finite {attribute}"):
        codec.tokenize(SceneLayout(room_type="bedroom", objects=[good, bad]))
    assert sc.clamp_event_count() == 0


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
    sc.reset_clamp_events()
    obj = SceneObject("bed", (0, 0, 0, 0), (99.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
    grid = codec.tokenize(SceneLayout(room_type="bedroom", objects=[obj]))
    assert grid.tokens[0, 5] == codec.spec.position_bins - 1
    assert sc.clamp_event_count() == 1
    sc.reset_clamp_events()


def test_scene_jsonl_roundtrip(tmp_path):
    codec = make_codec()
    rng = np.random.default_rng(13)
    scenes = [random_scene(rng, codec) for _ in range(5)]
    ids = [f"scene-{i:06d}" for i in range(5)]
    path = tmp_path / "scenes.jsonl"
    sc.write_scenes_jsonl(path, scenes, ids)
    back_ids, back = sc.read_scenes_jsonl(path)
    assert back_ids == ids
    assert [s.to_json() for s in back] == [s.to_json() for s in scenes]
