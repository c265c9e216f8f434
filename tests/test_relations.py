import collections.abc
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from scenenat import relations
from scenenat.relations import (
    RELATION_SET,
    GeometryFrame,
    RelationPredicate,
    RelationTable,
    RelationTriplet,
    box_table,
    extract_triplets,
    footprint_corners,
    frame_of,
    mirror_predicate,
    pair_relations,
    relation_matrix,
)
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject

from support import count_calls, frame, obj, resting_layouts, snapped_layouts


def pack(frames):
    """The frames' fields as the float64 [N, 7] rows that ``relation_matrix`` takes."""
    return np.array([(*f.center, *f.half_extents, f.yaw) for f in frames], dtype=np.float64).reshape(-1, 7)


def oracle_classify(s: GeometryFrame, o: GeometryFrame) -> RelationPredicate:
    """Straight-line transcription of the published rule inequalities.

    Kept deliberately separate from the production code path: recomputes
    every metric from scratch and checks the rules one by one.
    """
    h_s = s.half_extents[2] * 2
    h_o = o.half_extents[2] * 2
    # overlap predicate via explicit corner-free rotation
    def center_inside(a, b):
        rel_x = a.center[0] - b.center[0]
        rel_y = a.center[1] - b.center[1]
        cos_t, sin_t = math.cos(-b.yaw), math.sin(-b.yaw)
        u = rel_x * cos_t - rel_y * sin_t
        v = rel_x * sin_t + rel_y * cos_t
        return abs(u) <= b.half_extents[0] and abs(v) <= b.half_extents[1]

    overlap = center_inside(s, o) or center_inside(o, s)
    if overlap and (s.center[2] - o.center[2]) > (h_s + h_o) / 2:
        return RelationPredicate.ABOVE
    if overlap and (o.center[2] - s.center[2]) > (h_s + h_o) / 2:
        return RelationPredicate.BELOW
    d = math.sqrt((s.center[0] - o.center[0]) ** 2 + (s.center[1] - o.center[1]) ** 2)
    if d > 3:
        return RelationPredicate.NONE
    theta = math.atan2(s.center[1] - o.center[1], s.center[0] - o.center[0])
    close = d <= 1
    if -math.pi / 4 <= theta < math.pi / 4:
        name = "right_of"
    elif math.pi / 4 <= theta < 3 * math.pi / 4:
        name = "in_front_of"
    elif theta >= 3 * math.pi / 4 or theta < -3 * math.pi / 4:
        name = "left_of"
    else:
        name = "behind"
    return RelationPredicate(("closely_" if close else "") + name)


def predicate_of(index) -> RelationPredicate:
    return RelationPredicate.NONE if index < 0 else RELATION_SET[index]


def classify(s: GeometryFrame, o: GeometryFrame) -> RelationPredicate:
    """The subject's relation to the object: ``relation_matrix`` on the pair."""
    return predicate_of(relation_matrix(pack([s, o]))[0, 1])


def random_scattered_frame(rng):
    """A frame centred anywhere in 6 m x 6 m around (0, 0), with half extents of 0.05 to 1.2 m, so pairs of them
    meet every relation and none."""
    return GeometryFrame(
        center=tuple(rng.uniform(-3, 3, size=2)) + (float(rng.uniform(0, 2)),),
        half_extents=tuple(rng.uniform(0.05, 1.2, size=3)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


def test_relative_orientation_cardinal_cases():
    o = frame(0, 0)
    assert classify(frame(1, 0), o) is RelationPredicate.CLOSELY_RIGHT_OF
    assert classify(frame(0, 1), o) is RelationPredicate.CLOSELY_IN_FRONT_OF
    assert classify(frame(-1, 0), o) is RelationPredicate.CLOSELY_LEFT_OF
    assert classify(frame(0, -1), o) is RelationPredicate.CLOSELY_BEHIND


def test_coincident_centres_classify_closely_right_of_both_orders():
    """Same ground centre, no vertical relation: the atan2(0, 0) = 0 convention, not mirrored."""
    a = frame(0, 0, z=0.5)
    b = frame(0, 0, z=0.9, w=0.5, d=2.0, yaw=0.3)
    assert classify(a, b) is RelationPredicate.CLOSELY_RIGHT_OF
    assert classify(b, a) is RelationPredicate.CLOSELY_RIGHT_OF
    right = RELATION_SET.index(RelationPredicate.CLOSELY_RIGHT_OF)
    assert relation_matrix(pack([a, b])).tolist() == [[-1, right], [right, -1]]


def test_ground_distance():
    """Bands are measured on the ground plane (z does not count) and closed at d = 1 and d = 3."""
    o = frame(0, 0, z=0.5)
    assert classify(frame(1, 0, z=2.5), o) is RelationPredicate.CLOSELY_RIGHT_OF
    assert classify(frame(1 + 2**-40, 0, z=2.5), o) is RelationPredicate.RIGHT_OF
    assert classify(frame(0, 3, z=0.1), o) is RelationPredicate.IN_FRONT_OF
    assert classify(frame(0, 3 + 2**-40, z=0.1), o) is RelationPredicate.NONE
    rng = np.random.default_rng(0)
    none = RelationPredicate.NONE
    for _ in range(50):
        a, b = random_scattered_frame(rng), random_scattered_frame(rng)
        assert (classify(a, b) is none) == (classify(b, a) is none)


def test_inside_concentric():
    """A small box centred over a large one stacks: its centre lies inside the footprint."""
    small = frame(0, 0, z=2.0, w=0.5, d=0.5)
    big = frame(0, 0, z=0.5, w=2, d=2)
    assert classify(small, big) is RelationPredicate.ABOVE


def test_inside_rotated_square():
    """The 45 degree unit square reaches sqrt(2)/2 along x: 0.69 stacks, 0.72 does not."""
    o = frame(0, 0, yaw=math.radians(45))
    assert classify(frame(0.69, 0, z=2.0), o) is RelationPredicate.ABOVE
    assert classify(frame(0.72, 0, z=2.0), o) is RelationPredicate.CLOSELY_RIGHT_OF


def test_inside_not_symmetric_in_general():
    """Only the small box's centre lies in the other's footprint; one centre suffices, in both orders."""
    small = frame(0.8, 0, z=1.6, w=0.2, d=0.2)
    big = frame(0, 0, z=0.5, w=2.0, d=2.0)
    assert classify(small, big) is RelationPredicate.ABOVE
    assert classify(big, small) is RelationPredicate.BELOW


@pytest.mark.parametrize("edge_yaw", [0.0, math.radians(30)], ids=["axis_aligned_edge", "yawed_edge"])
@pytest.mark.parametrize("edge_box_below", [True, False], ids=["edge_box_below", "edge_box_above"])
def test_a_centre_on_the_footprint_edge_stacks_in_both_orders(edge_yaw, edge_box_below):
    """A small box's centre lies exactly on a big box's footprint edge (|u| == hx), the pair stacked clear of
    each other: above in one order, below in the other, as the test of either order meets the same edge."""
    dx, dy = 0.7, 0.4
    hx = float(abs(dx * np.cos(edge_yaw) + dy * np.sin(edge_yaw)))  # the rule's u, so the centre is on the edge
    big = GeometryFrame((0.0, 0.0, 0.5 if edge_box_below else 2.5), (hx, 2.0, 0.5), edge_yaw)
    small = GeometryFrame((dx, dy, 1.5), (0.1, 0.1, 0.1), 0.0 if edge_yaw else 0.5)  # one box yawed, one axis-aligned
    top, bottom = (small, big) if edge_box_below else (big, small)
    assert classify(top, bottom) is RelationPredicate.ABOVE
    assert classify(bottom, top) is RelationPredicate.BELOW
    nudged = GeometryFrame(big.center, (math.nextafter(hx, 0.0), 2.0, 0.5), edge_yaw)  # the edge is inclusive
    assert classify(small, nudged) not in (RelationPredicate.ABOVE, RelationPredicate.BELOW)


def test_bearing_sectors_match_oracle_on_every_grid_offset():
    """np.arctan2 may differ from math.atan2 by an ulp; on the 0.125 position grid no sector or band changes."""
    origin = frame(0, 0, w=0.01, d=0.01)
    steps = np.arange(-26, 27) * 0.125
    for dy in steps:
        others = [frame(float(dx), float(dy), w=0.01, d=0.01) for dx in steps]
        rel = relation_matrix(pack([origin] + others))
        for k, other in enumerate(others, start=1):
            assert predicate_of(rel[k, 0]) is oracle_classify(other, origin)
            assert predicate_of(rel[0, k]) is oracle_classify(origin, other)


def test_classify_right_of():
    s = frame(2, 0, z=0.5)
    o = frame(0, 0, z=0.5)
    assert classify(s, o) is RelationPredicate.RIGHT_OF


def test_classify_closely_in_front_of():
    s = frame(0, 0.5, z=0.5)
    o = frame(0, 0, z=0.5)
    assert classify(s, o) is RelationPredicate.CLOSELY_IN_FRONT_OF


def test_classify_lamp_above_table():
    lamp = frame(0, 0, z=1.2, w=0.2, d=0.2, h=0.2)
    table = frame(0, 0, z=0.5, w=1.0, d=1.0, h=1.0)
    assert classify(lamp, table) is RelationPredicate.ABOVE
    assert classify(table, lamp) is RelationPredicate.BELOW


def test_classify_far_pair_is_none():
    assert classify(frame(5, 0), frame(0, 0)) is RelationPredicate.NONE


def test_sector_totality():
    rng = np.random.default_rng(1)
    o = frame(0, 0)
    horizontals = {
        RelationPredicate.RIGHT_OF,
        RelationPredicate.IN_FRONT_OF,
        RelationPredicate.LEFT_OF,
        RelationPredicate.BEHIND,
    }
    for _ in range(500):
        theta = float(rng.uniform(-math.pi, math.pi))
        s = frame(2 * math.cos(theta), 2 * math.sin(theta))
        assert classify(s, o) in horizontals


def test_oracle_agreement_and_antisymmetry():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        s, o = random_scattered_frame(rng), random_scattered_frame(rng)
        got = classify(s, o)
        assert got is oracle_classify(s, o)
        flipped = classify(o, s)
        if got is not RelationPredicate.NONE and flipped is not RelationPredicate.NONE:
            # vertical pairs mirror exactly; horizontal pairs mirror unless
            # the flip itself is vertical (possible only when neither gap
            # condition held for got, so not here)
            assert flipped is mirror_predicate(got)


def scene_with(objects):
    return SceneLayout(room_type="bedroom", objects=objects)


def test_extract_single_object_scene_is_empty():
    assert len(extract_triplets(scene_with([obj("bed", 0, 0)]))) == 0


def float64_table(objects):
    """The objects' fields read into one float64 array, sizes halved and yaws turned to radians there."""
    table = np.array([(*o.position, *o.size, o.yaw_deg) for o in objects], dtype=np.float64).reshape(-1, 7)
    table[:, 3:6] /= 2.0
    table[:, 6] = np.radians(table[:, 6])
    return table


def test_box_table_holds_the_fields_of_frame_of_bitwise():
    rng = np.random.default_rng(31)
    objects = [
        SceneObject(
            "bed",
            (0, 0, 0, 0),
            tuple(rng.uniform(-5, 5, size=3)),
            tuple(rng.uniform(1e-3, 4, size=3)),
            float(rng.choice([rng.uniform(-1e4, 1e4), 90.0 * rng.integers(-8, 8)])),
        )
        for _ in range(500)
    ]
    table = box_table(scene_with(objects))
    assert table.dtype == np.float64 and table.shape == (500, 7)
    assert table.tolist() == pack([frame_of(o) for o in objects]).tolist()
    assert box_table(scene_with([])).shape == (0, 7)
    # float32 and int fields are read into the float64 geometry column, so the footprint arithmetic stays float64
    narrow = [
        SceneObject("bed", (0, 0, 0, 0), tuple(np.float32(o.position)), tuple(np.float32(o.size)), np.float32(o.yaw_deg))
        for o in objects[:100]
    ]
    narrow.append(SceneObject("bed", (0, 0, 0, 0), (1, -2, np.int64(0)), (np.int32(3), 1, 2), 270))
    table = box_table(scene_with(narrow))
    assert table.dtype == np.float64 and all(type(v) is float for row in table.tolist() for v in row)
    assert table.tolist() == float64_table(narrow).tolist()


# Yaws past 1e4 degrees in both signs, where the radian products are largest, and exact quarter turns.
YAWS = st.one_of(
    st.floats(-1e7, -1e4), st.floats(-360.0, 360.0), st.floats(1e4, 1e7), st.integers(-40, 40).map(lambda q: 90.0 * q)
)


@st.composite
def box_scenes(draw):
    """Two to four scenes of up to 5 unsnapped objects each."""
    coordinate, size = st.floats(-5.0, 5.0), st.floats(1e-3, 4.0)
    return [
        scene_with(
            [
                SceneObject(
                    "bed",
                    (0, 0, 0, 0),
                    tuple(draw(coordinate) for _ in range(3)),
                    tuple(draw(size) for _ in range(3)),
                    draw(YAWS),
                )
                for _ in range(draw(st.integers(0, 5)))
            ]
        )
        for _ in range(draw(st.integers(2, 4)))
    ]


def concatenated_box_table(*scenes):
    """The table as three pieces: the centres, the sizes halved and the yaws through np.radians."""
    g = np.concatenate([s.geometry for s in scenes])
    return np.concatenate([g[:, :3], g[:, 3:6] / 2.0, np.radians(g[:, 6:])], axis=1)


@given(box_scenes())
def test_box_table_of_several_scenes_is_bitwise_the_concatenated_pieces(scenes):
    table = box_table(*scenes)
    assert table.dtype == np.float64 and table.shape == (sum(len(s.categories) for s in scenes), 7)
    assert table.tobytes() == concatenated_box_table(*scenes).tobytes()


@given(box_scenes())
def test_box_table_of_one_scene_is_a_new_array(scenes):
    scene, geometry = scenes[0], scenes[0].geometry.copy()
    table = box_table(scene)
    assert not np.shares_memory(table, scene.geometry)
    assert table.tobytes() == box_table(*scenes)[: len(scene.categories)].tobytes()
    table[:] = 1.0
    np.testing.assert_array_equal(scene.geometry, geometry)


@given(box_scenes(), st.data())
def test_box_table_names_the_scene_and_object_of_a_bad_size(scenes, data):
    assume(any(s.categories for s in scenes))
    k = data.draw(st.sampled_from([k for k, s in enumerate(scenes) if s.categories]))
    objects = scenes[k].objects
    i = data.draw(st.integers(0, len(objects) - 1))
    axis = data.draw(st.integers(0, 2))
    bad = data.draw(st.sampled_from([0.0, -0.0, -1e-3, -4.0, 5e-324]))  # the last halves to zero
    size = tuple(bad if a == axis else v for a, v in enumerate(objects[i].size))
    o = objects[i]
    objects[i] = SceneObject(o.category, o.appearance, o.position, size, o.yaw_deg)
    scenes[k] = scene_with(objects)
    message = f"scene {k}: object {i} has non-positive size {size}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        box_table(*scenes)


def test_extract_mirrored_pair():
    scene = scene_with([obj("chair", 2, 0), obj("desk", 0, 0)])
    triplets = extract_triplets(scene)
    keys = {(t.subject, t.predicate, t.object) for t in triplets}
    assert keys == {
        ("chair", RelationPredicate.RIGHT_OF, "desk"),
        ("desk", RelationPredicate.LEFT_OF, "chair"),
    }


def test_extract_pair_count_bound():
    rng = np.random.default_rng(9)
    objects = [obj(f"c{i}", float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))) for i in range(5)]
    triplets = extract_triplets(scene_with(objects))
    assert len(triplets) <= 5 * 4


def test_extract_permutation_invariance():
    objects = [obj("chair", 2, 0), obj("desk", 0, 0), obj("lamp", 0, 1.5)]
    fwd = extract_triplets(scene_with(objects))
    rev = extract_triplets(scene_with(objects[::-1]))
    remap = {0: 2, 1: 1, 2: 0}
    fwd_keys = {(t.subject, t.predicate, t.object, t.subject_instance, t.object_instance) for t in fwd}
    rev_keys = {(t.subject, t.predicate, t.object, remap[t.subject_instance], remap[t.object_instance]) for t in rev}
    assert fwd_keys == rev_keys


def test_footprint_corners_rotate():
    f = frame(1, 1, w=2, d=1, yaw=math.pi / 2)
    corners = footprint_corners(f)
    expected = [(1.5, 0.0), (1.5, 2.0), (0.5, 2.0), (0.5, 0.0)]
    for (cx, cy), (ex, ey) in zip(corners, expected):
        assert cx == pytest.approx(ex)
        assert cy == pytest.approx(ey)


CODEC = SceneCodec(["bed", "chair", "desk"], DiscretizationSpec(), max_objects=8)


@given(snapped_layouts(CODEC))
def test_relation_matrix_and_extract_triplets_match_oracle(scene):
    frames = [frame_of(o) for o in scene.objects]
    boxes = pack(frames)
    rel = relation_matrix(boxes)
    # the pairwise rule gives each ordered pair i != j the matrix entry, as gathered rows and as broadcast ones
    i, j = np.nonzero(~np.eye(len(frames), dtype=bool))
    assert np.array_equal(pair_relations(boxes[i], boxes[j]), rel[i, j])
    assert np.array_equal(pair_relations(boxes[:, None], boxes[None])[i, j], rel[i, j])
    want = []
    for i, (s, a) in enumerate(zip(frames, scene.objects)):
        for j, (o, b) in enumerate(zip(frames, scene.objects)):
            pred = oracle_classify(s, o) if i != j else RelationPredicate.NONE
            assert predicate_of(rel[i, j]) is pred
            if pred is not RelationPredicate.NONE:
                want.append(RelationTriplet(a.category, pred, b.category, i, j))
    assert list(extract_triplets(scene)) == want


@given(resting_layouts(CODEC))
def test_relation_matrix_matches_oracle_on_resting_layouts(scene):
    # resting pairs sit on the dz == gap boundary, where the rule says planar, and towers are above or below
    for layout in (scene, CODEC.snap(scene)):
        frames, boxes = [frame_of(o) for o in layout.objects], box_table(layout)
        rel = relation_matrix(boxes)
        # unsnapped floats, any yaw and stacked towers: the matrix's transposed footprint test and transposed below
        # must give bitwise what the rule gives on gathered rows, which run both tests
        i, j = np.nonzero(~np.eye(len(frames), dtype=bool))
        assert pair_relations(boxes[i], boxes[j]).tobytes() == rel[i, j].tobytes()
        for i, s in enumerate(frames):
            for j, o in enumerate(frames):
                assert predicate_of(rel[i, j]) is (oracle_classify(s, o) if i != j else RelationPredicate.NONE)


def desk_and_lamp(lift):
    """The box table of a desk on the floor and a lamp lift metres above its top, off its centre but over its
    footprint. Every value is dyadic, so at lift 0 the lamp's z gap to the desk equals their mean height exactly."""
    desk = SceneObject("desk", (0, 0, 0, 0), (0.0, 0.0, 0.375), (1.2, 0.6, 0.75), 0.0)
    lamp = SceneObject("lamp", (0, 0, 0, 0), (0.25, 0.0, 1.0 + lift), (0.3, 0.3, 0.5), 0.0)
    return box_table(scene_with([desk, lamp]))


# Both call shapes: extraction's [N, N] broadcast, which runs one footprint test and reads the other as its
# transpose, and irecall's 1-D rows of candidate pairs, which run both and where one stacked row alone is only
# above or only below.
@pytest.mark.parametrize(
    "lift, lamp_to_desk, stacked",
    [(0.0, RelationPredicate.CLOSELY_RIGHT_OF, False), (0.125, RelationPredicate.ABOVE, True)],
    ids=["resting", "stacked"],
)
@pytest.mark.parametrize(
    "shape, subjects, tests_when_stacked",
    [("matrix", [1, 0], 1), ("rows", [1], 2), ("rows", [0], 2)],
    ids=["matrix", "lamp row", "desk row"],
)
def test_the_footprint_test_runs_only_when_a_pair_is_vertically_separated(
    monkeypatch, lift, lamp_to_desk, stacked, shape, subjects, tests_when_stacked
):
    boxes, objects = desk_and_lamp(lift), [1 - s for s in subjects]
    calls = count_calls(monkeypatch, relations, "_inside")
    if shape == "matrix":
        rel = relation_matrix(boxes)[subjects, objects]
    else:
        rel = pair_relations(boxes[subjects], boxes[objects])
    assert [predicate_of(r) for r in rel] == [lamp_to_desk if s else mirror_predicate(lamp_to_desk) for s in subjects]
    assert len(calls) == (tests_when_stacked if stacked else 0)


def nonzero_rows(scene):
    """Extraction's rows as np.nonzero of the relation matrix, a 2-D gather and a stack: the oracle of its flat
    pass."""
    rel = relation_matrix(box_table(scene))
    subjects, objects = np.nonzero(rel >= 0)
    return np.stack([subjects, rel[subjects, objects], objects], axis=1)


def assert_extraction_rows_match_the_oracle(scene):
    rows, want = extract_triplets(scene).rows, nonzero_rows(scene)
    assert rows.dtype == want.dtype == np.intp and rows.shape == want.shape == (len(want), 3)
    assert rows.tobytes() == want.tobytes()
    assert rows.flags.c_contiguous and not rows.flags.writeable


@given(snapped_layouts(CODEC))
def test_extraction_rows_are_the_nonzero_formulation_bitwise(scene):
    assert_extraction_rows_match_the_oracle(scene)


@pytest.mark.parametrize(
    "objects",
    [[], [obj("bed", 0, 0)], [obj("bed", 0, 0), obj("chair", 3.5, 0), obj("desk", 0, -3.5), obj("lamp", 3.5, 3.5)]],
    ids=["empty", "one object", "all over 3 m apart"],
)
def test_extraction_of_a_scene_with_no_relation_keeps_the_row_contract(objects):
    scene = scene_with(objects)
    assert len(extract_triplets(scene)) == 0
    assert_extraction_rows_match_the_oracle(scene)


@given(snapped_layouts(CODEC))
def test_mirror_symmetry_outside_coincident_centres(scene):
    frames = [frame_of(o) for o in scene.objects]
    rel = relation_matrix(pack(frames))
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            fwd, back = predicate_of(rel[i, j]), predicate_of(rel[j, i])
            coincident = frames[i].center[:2] == frames[j].center[:2]
            if coincident and fwd not in (RelationPredicate.ABOVE, RelationPredicate.BELOW):
                assert fwd is back is RelationPredicate.CLOSELY_RIGHT_OF
            else:
                assert back is mirror_predicate(fwd)


def test_table_reads_rows_as_triplets():
    scene = scene_with([obj("chair", 2, 0), obj("desk", 0, 0), obj("lamp", 9, 0)])
    table = extract_triplets(scene)
    assert table.categories == ("chair", "desk", "lamp")
    right, left = RELATION_SET.index(RelationPredicate.RIGHT_OF), RELATION_SET.index(RelationPredicate.LEFT_OF)
    assert table.rows.tolist() == [[0, right, 1], [1, left, 0]]
    first = RelationTriplet("chair", RelationPredicate.RIGHT_OF, "desk", 0, 1)
    second = RelationTriplet("desk", RelationPredicate.LEFT_OF, "chair", 1, 0)
    assert len(table) == 2 and list(table) == [first, second]
    assert second in table and RelationTriplet("chair", RelationPredicate.RIGHT_OF, "desk", 1, 0) not in table
    with pytest.raises(ValueError):
        table.rows[0, 0] = 1


@given(snapped_layouts(CODEC))
def test_the_table_row_view_is_its_rows(scene):
    # the one way to read a relation is rows; iterating builds the census view of those rows, in row order
    table = extract_triplets(scene)
    cats = scene.categories
    want = [RelationTriplet(cats[s], RELATION_SET[p], cats[o], s, o) for s, p, o in table.rows.tolist()]
    assert list(table) == want and bool(table) == bool(want) and all(t in table for t in want)
    assert not isinstance(table, collections.abc.Sequence)
    with pytest.raises(TypeError):
        table[0]


def test_tables_are_equal_when_their_categories_and_rows_are():
    table = RelationTable(["bed", "chair"], [[0, 1, 1]])
    assert table == RelationTable(("bed", "chair"), np.array([[0, 1, 1]], dtype=np.int32))
    assert table != RelationTable(["bed", "desk"], [[0, 1, 1]])
    assert table != RelationTable(["bed", "chair"], [[0, 2, 1]])
    assert table != RelationTable(["bed", "chair"], [[0, 1, 1], [1, 3, 0]])
    assert table != list(table)


def test_empty_table_has_an_int_rows_array():
    table = extract_triplets(scene_with([obj("bed", 0, 0), obj("desk", 9, 0)]))
    assert len(table) == 0 and not table and list(table) == []
    assert table.rows.shape == (0, 3) and table.rows.dtype.kind == "i"


@pytest.mark.parametrize(
    "rows, match",
    [
        ([[0.0, 1.0, 1.0]], "int"),
        ([], "int"),
        ([[0, 1]], "int"),
        ([[0, 1, 3]], "outside the 3 categories"),
        ([[-1, 1, 2]], "outside the 3 categories"),
        ([[0, len(RELATION_SET), 1]], "predicate id"),
        ([[0, -1, 1]], "predicate id"),
        ([[0, 1, 1], [2, 0, 2]], "relates an instance to itself"),
    ],
)
def test_table_rejects_bad_rows(rows, match):
    with pytest.raises(ValueError, match=match):
        RelationTable(["bed", "chair", "desk"], rows)


def test_table_keeps_its_own_rows():
    rows = np.array([[0, 1, 1]])
    table = RelationTable(["bed", "chair"], rows)
    rows[0, 0] = 1
    assert table.rows.tolist() == [[0, 1, 1]] and rows.flags.writeable
