import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from scenenat import evaluation, relations
from scenenat.evaluation import (
    CollisionReport,
    attribute_accuracy,
    collision_metrics,
    irecall,
    monte_carlo_volume,
    obb_intersection_volume,
)
from scenenat.instructions import Instruction
from scenenat.relations import (
    RELATION_SET,
    GeometryFrame,
    RelationPredicate,
    RelationTable,
    box_corners,
    box_table,
    extract_triplets,
    footprint_corners,
    frame_of,
    relation_matrix,
)
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject

from support import count_calls, frame, make_codec, obj


def footprint_args(f: GeometryFrame):
    """A frame's (x, y, hx, hy, yaw): the footprint arguments of ``evaluation._box``."""
    return f.center[0], f.center[1], f.half_extents[0], f.half_extents[1], f.yaw


def footprint(x, y, hx, hy, yaw):
    """The footprint fields of ``evaluation._box``, its first seven, for a box of footprint (x, y, hx, hy, yaw)."""
    return evaluation._box(x, y, 0.5, hx, hy, 0.5, yaw)[:7]


def box_corners_oracle(x, y, hx, hy, yaw):
    """``box_corners`` as the comprehension it was written as: counter-clockwise from (-hx, -hy)."""
    c, s = math.cos(yaw), math.sin(yaw)
    return [(x + dx * c - dy * s, y + dx * s + dy * c) for dx, dy in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))]


def footprint_oracle(x, y, hx, hy, yaw):
    """The footprint fields of ``evaluation._box`` as the zip/min/max record they were written as, over the corner
    oracle."""
    corners = box_corners_oracle(x, y, hx, hy, yaw)
    edges = [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(corners[-1:] + corners[:-1], corners)]
    xs, ys = zip(*corners)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    return corners, edges, x_lo, x_hi, y_lo, y_hi, 1.0 + max(-x_lo, x_hi, -y_lo, y_hi)


def box_volume(f: GeometryFrame) -> float:
    hx, hy, hz = f.half_extents
    return 8.0 * hx * hy * hz


def random_clustered_frame(rng):
    """A frame centred within 0.6 m of (0, 0) with half extents of 0.15 to 0.8 m, so two of them mostly overlap."""
    return GeometryFrame(
        center=(float(rng.uniform(-0.6, 0.6)), float(rng.uniform(-0.6, 0.6)), float(rng.uniform(0.2, 1.0))),
        half_extents=tuple(rng.uniform(0.15, 0.8, size=3)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


def test_identical_unit_cubes():
    assert obb_intersection_volume(frame(), frame()) == pytest.approx(1.0, abs=1e-12)


def test_rotated_unit_square_octagon():
    rotated = frame(yaw=math.radians(45))
    expected = 2 * math.sqrt(2) - 2
    assert obb_intersection_volume(frame(), rotated) == pytest.approx(expected, abs=1e-9)


def test_disjoint_boxes():
    assert obb_intersection_volume(frame(), frame(x=5.0)) == 0.0
    assert obb_intersection_volume(frame(), frame(z=5.0)) == 0.0


def test_axis_aligned_exact():
    a = frame(0, 0, 0.5, w=2, d=2, h=1)  # x,y in [-1,1], z in [0,1]
    b = frame(0.5, 0.5, 1.0, w=1, d=1, h=1.5)  # x,y in [0,1], z in [0.25,1.75]
    expected = 1.0 * 1.0 * 0.75
    assert obb_intersection_volume(a, b) == pytest.approx(expected, abs=1e-9)


def test_symmetry_and_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = random_clustered_frame(rng), random_clustered_frame(rng)
        v_ab = obb_intersection_volume(a, b)
        v_ba = obb_intersection_volume(b, a)
        assert v_ab == pytest.approx(v_ba, abs=1e-12)
        assert 0.0 <= v_ab <= min(box_volume(a), box_volume(b)) + 1e-12


def test_rigid_motion_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = random_clustered_frame(rng), random_clustered_frame(rng)
        base = obb_intersection_volume(a, b)
        dx, dy, dz = rng.uniform(-2, 2, size=3)
        phi = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(phi), math.sin(phi)

        def moved(f):
            x, y, z = f.center
            return GeometryFrame(
                center=(c * x - s * y + dx, s * x + c * y + dy, z + dz),
                half_extents=f.half_extents,
                yaw=f.yaw + phi,
            )

        assert obb_intersection_volume(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_collinear_footprint_edges_clip_without_division_by_zero():
    # snapped objects at yaw 225 degrees whose footprints share collinear edges
    a = SceneObject("bed", (0, 0, 0, 0), (-0.5625, 0.4375, 0.5), (1.6875, 1.5625, 1.0), 225.0)
    b = SceneObject("desk", (0, 0, 0, 0), (-0.6875, 0.5625, 0.5), (1.6875, 0.9375, 1.0), 225.0)
    fa, fb = frame_of(a), frame_of(b)
    # a 40,000-point Monte-Carlo estimate gives 1.5788 +- 0.0027
    assert obb_intersection_volume(fa, fb) == pytest.approx(1.58203125, abs=1e-12)
    assert obb_intersection_volume(fb, fa) == pytest.approx(1.58203125, abs=1e-12)
    report = collision_metrics(SceneLayout("bedroom", [a, b]))
    assert report.colliding_pairs == 1


def test_monte_carlo_identical_cubes():
    rng = np.random.default_rng(7)
    est, stderr = monte_carlo_volume(frame(), frame(), 1_000_000, rng)
    assert est == pytest.approx(1.0, abs=0.005)
    assert stderr == 0.0  # every sample inside both


def test_monte_carlo_disjoint():
    rng = np.random.default_rng(8)
    est, _ = monte_carlo_volume(frame(), frame(x=9.0), 1000, rng)
    assert est == 0.0


@pytest.mark.parametrize("samples", [0, -5, True, 2.5, 1.0])
def test_monte_carlo_rejects_samples_that_are_not_a_positive_int(samples):
    # True and 2.5 would pass a bare samples < 1 check and fail inside rng.uniform with numpy's TypeError
    with pytest.raises(ValueError, match="samples must be an int >= 1"):
        monte_carlo_volume(frame(), frame(x=0.5), samples, np.random.default_rng(0))


def test_monte_carlo_agrees_with_analytic():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = random_clustered_frame(rng), random_clustered_frame(rng)
        exact = obb_intersection_volume(a, b)
        est, stderr = monte_carlo_volume(a, b, 20_000, rng)
        tol = max(0.02 * exact, 3 * stderr, 1e-3)
        assert abs(exact - est) <= tol


def test_collision_single_object():
    report = collision_metrics(SceneLayout("bedroom", [obj("bed", 0, 0)]))
    assert report.v_sum == 0.0 and report.colliding_pairs == 0


def test_collision_containment_iomin():
    big = SceneObject("bed", (0, 0, 0, 0), (0, 0, 0.5), (2, 2, 1), 0.0)
    small = SceneObject("lamp", (0, 0, 0, 0), (0, 0, 0.5), (0.2, 0.2, 0.2), 0.0)
    report = collision_metrics(SceneLayout("bedroom", [big, small]))
    assert report.io_min == pytest.approx(1.0)
    assert report.colliding_pairs == 1


def test_collision_sum_additivity():
    # three boxes: 0-1 overlap and 2-3 overlap are disjoint events
    a = obj("a", 0.0, 0.0)
    b = obj("b", 0.25, 0.0)
    c = obj("c", 3.0, 0.0)
    d = obj("d", 3.25, 0.0)
    pair_ab = collision_metrics(SceneLayout("r", [a, b])).v_sum
    pair_cd = collision_metrics(SceneLayout("r", [c, d])).v_sum
    both = collision_metrics(SceneLayout("r", [a, b, c, d])).v_sum
    assert both == pytest.approx(pair_ab + pair_cd, abs=1e-12)
    report = collision_metrics(SceneLayout("r", [a, b, c, d]))
    assert report.v_sum >= report.v_avg * report.colliding_pairs - 1e-9


def clip_polygon_oracle(subject, clip):
    """Sutherland-Hodgman as the closure-per-edge loop it was written as: clip a convex polygon
    against a convex window given by its corners, both counter-clockwise."""
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        cp1 = clip[i - 1]
        cp2 = clip[i]
        edge_x, edge_y = cp2[0] - cp1[0], cp2[1] - cp1[1]

        def signed_distance(p):  # >= 0 on the inner (left) side of the edge
            return edge_x * (p[1] - cp1[1]) - edge_y * (p[0] - cp1[0])

        result = []
        prev = output[-1]
        d_prev = signed_distance(prev)
        for point in output:
            d = signed_distance(point)
            if (d >= 0.0) != (d_prev >= 0.0):
                t = d_prev / (d_prev - d)
                result.append((prev[0] + t * (point[0] - prev[0]), prev[1] + t * (point[1] - prev[1])))
            if d >= 0.0:
                result.append(point)
            prev, d_prev = point, d
        output = result
    return output


def polygon_area_oracle(points):
    if len(points) < 3:
        return 0.0
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        area += x0 * y1 - x1 * y0
    return abs(area) / 2.0


def volume_oracle(a, b):
    """obb_intersection_volume through the oracle clip, with the touch floor of the narrow phase."""
    z_lo = max(a.center[2] - a.half_extents[2], b.center[2] - b.half_extents[2])
    z_hi = min(a.center[2] + a.half_extents[2], b.center[2] + b.half_extents[2])
    if z_hi <= z_lo:
        return 0.0
    corners_a, corners_b = box_corners_oracle(*footprint_args(a)), box_corners_oracle(*footprint_args(b))
    reach = 1.0 + max(abs(v) for point in corners_a + corners_b for v in point)
    area = polygon_area_oracle(clip_polygon_oracle(corners_a, corners_b))
    return (0.0 if area <= evaluation._TOUCH_AREA * reach * reach else area) * (z_hi - z_lo)


def collision_oracle(scene):
    """collision_metrics without a broad phase: every pair goes through the oracle clip."""
    frames = [frame_of(o) for o in scene.objects]
    # each average is a += sum in pair order over the pair count, as in collision_metrics; sum() compensates
    # from Python 3.12, so it is not used here
    v_sum = ratio_sum = 0.0
    pairs = 0
    for i in range(len(frames)):
        for j in range(i + 1, len(frames)):
            v = volume_oracle(frames[i], frames[j])
            if v > 0.0:
                v_sum += v
                ratio_sum += v / min(box_volume(frames[i]), box_volume(frames[j]))
                pairs += 1
    return CollisionReport(
        v_sum=v_sum,
        v_avg=v_sum / pairs if pairs else 0.0,
        io_min=ratio_sum / pairs if pairs else 0.0,
        colliding_pairs=pairs,
    )


COLLISION_CODEC = SceneCodec(["bed", "lamp"], DiscretizationSpec(), max_objects=6)
# snapped yaws are bin centres 5, 15, ..., 355 degrees; 0 and 90 give exactly touching faces
YAWS = st.sampled_from((0.0, 90.0, 45.0, 135.0, 225.0, 315.0, 5.0, 175.0))


def nudge(value, ulps):
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


@st.composite
def collision_scenes(draw):
    """A snapped scene plus neighbours of its objects that touch or sit ulps apart side by side,
    share a centre, or stand on top."""
    xy = st.floats(-1.0, 1.0)
    drawn = [
        SceneObject(
            "bed",
            (0, 0, 0, 0),
            (draw(xy), draw(xy), draw(st.floats(0.0, 2.0))),
            tuple(draw(st.floats(0.05, 2.0)) for _ in range(3)),
            draw(st.one_of(YAWS, st.floats(0.0, 360.0, exclude_max=True))),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    objects = COLLISION_CODEC.snap(SceneLayout("bedroom", drawn)).objects
    sizes = [o.size for o in objects]
    for _ in range(draw(st.integers(0, 6))):
        base = draw(st.sampled_from(objects))
        (x, y, z), (w, d, h) = base.position, base.size
        size = draw(st.sampled_from(sizes))
        ulps = draw(st.integers(-1, 1))
        kind = draw(st.sampled_from(("side", "centre", "stack")))
        if kind == "side":
            # same yaw, offset along the base's own x or y axis so the facing sides meet
            yaw = draw(YAWS)
            base = SceneObject(base.category, base.appearance, base.position, base.size, yaw)
            along_x = draw(st.booleans())
            reach = (w + size[0]) / 2 if along_x else (d + size[1]) / 2
            angle = math.radians(yaw) + (0.0 if along_x else math.pi / 2)
            position = (nudge(x + reach * math.cos(angle), ulps), nudge(y + reach * math.sin(angle), ulps), z)
            objects.append(base)
        elif kind == "centre":
            position, yaw = base.position, draw(YAWS)
        else:  # z ranges touch, or overlap or part by one ulp
            position, yaw = (x, y, nudge(z + (h + size[2]) / 2, ulps)), base.yaw_deg
        objects.append(SceneObject("lamp", (0, 0, 0, 0), position, size, yaw))
    return SceneLayout("bedroom", objects)


@given(collision_scenes())
def test_collision_broad_phase_changes_no_report(scene):
    assert collision_metrics(scene) == collision_oracle(scene)


def test_rounding_sliver_between_footprints_with_apart_bounds_scores_zero():
    # The raw clip scores these ~1e-33 although b's footprint bounds lie ulps right of a's;
    # the touch floor scores the sliver 0, and the broad phase agrees with every-pair clipping.
    a = SceneObject("bed", (0, 0, 0, 0), (-0.875, 0.375, 0.5), (1.75, 2.0, 2.0), 0.0)
    b = SceneObject("lamp", (0, 0, 0, 0), (1.2374368670764584, 0.612436867076458, 0.5), (0.75, 2.75, 0.5), 315.0)
    corners_a, corners_b = footprint_corners(frame_of(a)), footprint_corners(frame_of(b))
    assert max(x for x, _ in corners_a) < min(x for x, _ in corners_b)
    edges_b = footprint(*footprint_args(frame_of(b)))[1]
    assert 0.0 < polygon_area_oracle(evaluation._clip_polygon(corners_a, edges_b)) < 1e-30
    for objects in ([a, b], [b, a]):
        scene = SceneLayout("bedroom", objects)
        assert collision_metrics(scene) == collision_oracle(scene) == CollisionReport(0.0, 0.0, 0.0, 0)


def quad_edges(quad):
    """Clip edges (x, y, dx, dy) of a counter-clockwise polygon, from corner i - 1 to corner i."""
    return [(x0, y0, x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(quad[-1:] + quad[:-1], quad)]


@st.composite
def convex_quads(draw):
    """Four points of the unit circle in angle order under an orientation-preserving affine map:
    a convex, counter-clockwise quad."""
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), min_size=4, max_size=4, unique=True)))
    theta, shear = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-1.0, 1.0))
    sx, sy = draw(st.floats(0.05, 2.0)), draw(st.floats(0.05, 2.0))
    tx, ty = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    c, s = math.cos(theta), math.sin(theta)
    points = [(sx * math.cos(a) + shear * math.sin(a), sy * math.sin(a)) for a in angles]
    return [(tx + c * u - s * v, ty + s * u + c * v) for u, v in points]


@st.composite
def box_pairs(draw):
    """Two footprints (x, y, hx, hy, yaw) that overlap at random, touch or share an edge, overlap by a
    sliver, coincide, nest, or have edges on one line; neighbours are nudged a few ulps either way."""
    coord, half = st.floats(-2.0, 2.0), st.floats(0.05, 1.0)
    yaws = st.one_of(YAWS.map(math.radians), st.floats(-math.pi, math.pi))
    a = (draw(coord), draw(coord), draw(half), draw(half), draw(yaws))
    x, y, hx, hy, yaw = a
    c, s = math.cos(yaw), math.sin(yaw)
    ulps = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(("random", "touch", "poke", "coincident", "contained", "collinear")))
    if kind == "random":
        b = (draw(coord), draw(coord), draw(half), draw(half), draw(yaws))
    elif kind in ("touch", "poke"):
        # same yaw, b's -x side on a's +x side (a shared edge when the depths match), or pushed 1e-6 to 1e-2 m into a
        b_hx, b_hy = draw(half), draw(st.one_of(st.just(hy), half))
        reach = hx + b_hx - (10.0 ** -draw(st.integers(2, 6)) if kind == "poke" else 0.0)
        b = (nudge(x + reach * c, ulps), nudge(y + reach * s, ulps), b_hx, b_hy, yaw)
    elif kind == "coincident":
        b = a
    elif kind == "contained":  # radius k * min(hx, hy) * sqrt(2) < min(hx, hy), so b lies inside a at any yaw
        k = draw(st.floats(0.05, 0.5))
        b = (x, y, k * min(hx, hy), k * min(hx, hy) * draw(st.floats(0.2, 1.0)), draw(yaws))
    else:  # same yaw, b slid along a's x axis with its -y side on the line of a's
        along, b_hx, b_hy = draw(st.floats(-2.0, 2.0)), draw(half), draw(half)
        across = b_hy - hy
        b = (nudge(x + along * c - across * s, ulps), nudge(y + along * s + across * c, ulps), b_hx, b_hy, yaw)
    return (b, a) if draw(st.booleans()) else (a, b)


# the snapped bed and desk at yaw 225 degrees whose collinear edges once divided by zero
COLLINEAR_FRAMES = (
    frame_of(SceneObject("bed", (0, 0, 0, 0), (-0.5625, 0.4375, 0.5), (1.6875, 1.5625, 1.0), 225.0)),
    frame_of(SceneObject("desk", (0, 0, 0, 0), (-0.6875, 0.5625, 0.5), (1.6875, 0.9375, 1.0), 225.0)),
)
COLLINEAR_PAIR = tuple(map(footprint_args, COLLINEAR_FRAMES))


@given(box_pairs())
@example(COLLINEAR_PAIR)
@example(COLLINEAR_PAIR[::-1])
def test_clip_of_footprints_equals_the_closure_oracle(pair):
    (corners_a, *_), (corners_b, edges_b, *_) = (footprint(*box) for box in pair)
    assert evaluation._clip_polygon(corners_a, edges_b) == clip_polygon_oracle(corners_a, corners_b)


# Yaws in degrees: anywhere on the circle, right angles (where sin or cos rounds to a tiny nonzero), or
# magnitudes of at least 1e4 degrees, whose radians carry the rounding of math.radians.
FOOTPRINT_YAWS = st.one_of(
    st.floats(-360.0, 360.0),
    st.integers(-8, 8).map(lambda k: 90.0 * k),
    st.floats(1e4, 1e7).flatmap(lambda v: st.sampled_from((v, -v))),
)


@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(1e-3, 4.0), st.floats(1e-3, 4.0), FOOTPRINT_YAWS)
def test_corners_and_footprint_equal_their_oracles(x, y, hx, hy, yaw_deg):
    box = (x, y, hx, hy, math.radians(yaw_deg))
    assert box_corners(*box) == box_corners_oracle(*box)
    record = evaluation._box(x, y, 0.5, hx, hy, 0.25, box[-1])
    assert record[:7] == footprint_oracle(*box)
    assert record[7:] == (0.25, 0.75, 8.0 * hx * hy * 0.25)


@given(st.lists(st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)), max_size=2))
@example([])
@example([(-0.3, 0.1), (0.7, 0.2)])
def test_clip_that_leaves_fewer_than_three_points_scores_exactly_zero(subject):
    # an empty subject, one point or a two-point segment inside the window: the shoelace sum is exactly 0.0, even
    # with the touch floor at 0 (reach 0)
    edges = footprint(0.0, 0.0, 1.0, 1.0, 0.0)[1]
    assert evaluation._clip_polygon(subject, edges) == subject
    area = evaluation._clipped_area(subject, edges, 0.0)
    assert area == 0.0 and math.copysign(1.0, area) == 1.0


@given(convex_quads(), convex_quads())
def test_clip_of_convex_quads_equals_the_closure_oracle(subject, clip):
    assert evaluation._clip_polygon(subject, quad_edges(clip)) == clip_polygon_oracle(subject, clip)


@st.composite
def frame_pairs(draw):
    """Frames over a pair of ``box_pairs()`` footprints whose z ranges overlap, touch, or sit one ulp apart
    or into each other. Centres and half heights are whole multiples of 1/64, so touching ranges touch exactly."""
    z_a, hz_a, hz_b = draw(st.integers(0, 128)), draw(st.integers(4, 64)), draw(st.integers(4, 64))
    if draw(st.booleans()):  # overlapping, or touching at either end
        z_b = (z_a + draw(st.integers(-(hz_a + hz_b), hz_a + hz_b))) / 64
    else:  # b on top of a or below it, nudged one ulp apart or into a
        z_b = nudge((z_a + draw(st.sampled_from((1, -1))) * (hz_a + hz_b)) / 64, draw(st.integers(-1, 1)))
    (xa, ya, hxa, hya, yaw_a), (xb, yb, hxb, hyb, yaw_b) = draw(box_pairs())
    return (
        GeometryFrame((xa, ya, z_a / 64), (hxa, hya, hz_a / 64), yaw_a),
        GeometryFrame((xb, yb, z_b), (hxb, hyb, hz_b / 64), yaw_b),
    )


@given(frame_pairs())
@example(COLLINEAR_FRAMES)
@example(COLLINEAR_FRAMES[::-1])
@example((frame(), frame(x=1.0 - 1e-6)))  # footprint bounds that overlap by 1e-6 m
def test_obb_volume_equals_the_every_pair_oracle(pair):
    # the broad phase that obb_intersection_volume shares with collision_metrics changes no volume
    assert obb_intersection_volume(*pair) == volume_oracle(*pair)


@pytest.mark.parametrize("order", [1, -1])
def test_face_to_face_boxes_at_45_degrees_do_not_collide(order):
    # The clip used to score 25 (one order) and 57 (the other) of these touching pairs ~1e-16.
    yaw = math.radians(45)
    for k in range(1, 200):
        w = k / 64
        a = SceneObject("bed", (0, 0, 0, 0), (0.0, 0.0, 0.5), (w, 1.0, 1.0), 45.0)
        b = SceneObject("lamp", (0, 0, 0, 0), (w * math.cos(yaw), w * math.sin(yaw), 0.5), (w, 1.0, 1.0), 45.0)
        assert collision_metrics(SceneLayout("bedroom", [a, b][::order])).colliding_pairs == 0, w
    # pushed a thousandth of w closer, the same boxes overlap by 0.001 w
    b = SceneObject("lamp", (0, 0, 0, 0), (0.999 * w * math.cos(yaw), 0.999 * w * math.sin(yaw), 0.5), b.size, 45.0)
    report = collision_metrics(SceneLayout("bedroom", [a, b][::order]))
    assert report.colliding_pairs == 1 and report.v_sum == pytest.approx(0.001 * w, rel=1e-6)


def test_broad_phase_keeps_apart_pairs_from_the_clip(monkeypatch):
    calls = count_calls(monkeypatch, evaluation, "_clipped_area")
    assert collision_metrics(SceneLayout("r", [obj("a", 0.0, 0.0), obj("b", 10.0, 0.0)])).colliding_pairs == 0
    # stacked on one footprint with a 0.25 gap between the z ranges [0, 0.5] and [0.75, 1.25]
    assert collision_metrics(SceneLayout("r", [obj("a", 0.0, 0.0), obj("b", 0.0, 0.0, z=1.0)])).colliding_pairs == 0
    assert calls == []


def broad_phase_candidates(scene):
    """Unordered pairs whose xy footprint bounds and z ranges overlap."""
    corners = np.array([box_corners_oracle(*footprint_args(frame_of(o))) for o in scene.objects])
    lo, hi = corners.min(axis=1), corners.max(axis=1)  # [n, 2] xy bounds
    z = np.array([o.position[2] for o in scene.objects])
    half_h = np.array([o.size[2] / 2 for o in scene.objects])
    xy_overlap = ((lo[:, None] <= hi) & (lo <= hi[:, None])).all(axis=2)
    z_overlap = np.minimum(z[:, None] + half_h[:, None], z + half_h) > np.maximum(z[:, None] - half_h[:, None], z - half_h)
    return int(np.triu(xy_overlap & z_overlap, k=1).sum())


def test_broad_phase_clips_exactly_the_pairs_whose_bounds_overlap(monkeypatch):
    rng = np.random.default_rng(29)
    objects = [
        SceneObject(
            "bed",
            (0, 0, 0, 0),
            (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)), float(rng.uniform(0.2, 1.5))),
            tuple(rng.uniform(0.1, 1.0, size=3)),
            float(rng.uniform(0, 360)),
        )
        for _ in range(32)
    ]
    scene = SceneLayout("bedroom", objects)
    expected = broad_phase_candidates(scene)
    calls = count_calls(monkeypatch, evaluation, "_clipped_area")
    report = collision_metrics(scene)
    assert len(calls) == expected
    assert 0 < report.colliding_pairs <= expected < 496 // 4
    assert report == collision_oracle(scene)


def dense_scene(seed):
    """32 snapped objects shaped like a tightly packed room: centres within 1.5 m of the middle,
    furniture at half its usual size, half the yaws right angles."""
    sizes = {"bed": (2.0, 1.6, 0.5), "desk": (1.2, 0.6, 0.75), "chair": (0.5, 0.5, 0.9), "lamp": (0.3, 0.3, 0.5)}
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(32):
        category = str(rng.choice(list(sizes)))
        lx, ly, lz = (np.array(sizes[category]) * 0.5 * rng.uniform(0.85, 1.15, 3)).tolist()
        yaw = 90.0 * int(rng.integers(4)) if rng.random() < 0.5 else float(rng.uniform(0.0, 360.0))
        position = (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)), lz / 2)
        objects.append(SceneObject(category, (0, 0, 0, 0), position, (lx, ly, lz), yaw))
    codec = SceneCodec(list(sizes), DiscretizationSpec(), max_objects=32)
    return codec.snap(SceneLayout("bedroom", objects))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_scene_clips_every_candidate_and_matches_the_oracle(monkeypatch, seed):
    scene = dense_scene(seed)
    expected = broad_phase_candidates(scene)
    calls = count_calls(monkeypatch, evaluation, "_clipped_area")
    report = collision_metrics(scene)
    assert len(calls) == expected >= 30
    assert report.colliding_pairs > 0
    assert report == collision_oracle(scene)


@pytest.mark.parametrize("n", [0, 1, 2, 32])
def test_collision_metrics_builds_each_footprint_once(monkeypatch, n):
    # a footprint's corners, edges and bounds are built once per object, not once per pair
    calls = count_calls(monkeypatch, evaluation, "_box")
    scene = SceneLayout("bedroom", dense_scene(7).objects[:n])
    collision_metrics(scene)
    assert len(calls) == n


@pytest.mark.parametrize("n", [0, 1, 32])
def test_decoded_scene_is_scored_from_its_columns(monkeypatch, n):
    # detokenize and the three scoring paths read the layout's columns: a SceneObject per row, or a second box
    # table per collision_metrics call, would be wasted work
    codec = SceneCodec(["bed", "desk", "chair", "lamp"], DiscretizationSpec(), max_objects=32)
    grid = codec.tokenize(SceneLayout("bedroom", dense_scene(7).objects[:n]))
    built = count_calls(monkeypatch, SceneObject, "__post_init__")
    tables = [count_calls(monkeypatch, module, "box_table") for module in (evaluation, relations)]
    scene = codec.detokenize(grid)
    collision_metrics(scene)
    assert (len(built), *map(len, tables)) == (0, 1, 0)
    extract_triplets(scene)
    irecall([make_instruction([("chair", RelationPredicate.RIGHT_OF, "desk")])], [scene])
    assert len(built) == 0 and len(scene.categories) == n


def test_irecall_builds_one_box_table_per_batch(monkeypatch):
    # every scene's boxes come from one table over the stacked geometry, not one table per scene
    tables = count_calls(monkeypatch, evaluation, "box_table")
    scenes = [SceneLayout("bedroom", [obj("chair", 2, y), obj("desk", 0, 0), obj("lamp", 0, 2)]) for y in (0, 1, 5)]
    instruction = make_instruction([("chair", RelationPredicate.RIGHT_OF, "desk")])
    assert irecall([instruction] * 3, scenes) == (200.0 / 3, {1: 200.0 / 3})
    assert len(tables) == 1


@pytest.mark.parametrize(
    "size", [(0.5, 0.0, 0.5), (0.5, 0.5, -0.25), (0.5, 5e-324, 0.5)], ids=["zero", "negative", "half-underflows"]
)
@pytest.mark.parametrize(
    "metric, scene_prefix",
    [
        (extract_triplets, ""),
        (collision_metrics, ""),
        # the instruction names only the lamp, so the scene index differs from its index among the lamps
        (lambda scene: irecall([make_instruction([("lamp", RelationPredicate.RIGHT_OF, "lamp")])], [scene]), ""),
        # every object of every scene is checked, though this instruction names no category of the second scene
        (
            lambda scene: irecall(
                [make_instruction([("chair", RelationPredicate.RIGHT_OF, "desk")])] * 2,
                [SceneLayout("bedroom", [obj("chair", 2, 0), obj("desk", 0, 0)]), scene],
            ),
            "scene 1: ",
        ),
    ],
    ids=["extract_triplets", "collision_metrics", "irecall", "irecall-second-scene"],
)
def test_non_positive_size_is_rejected_naming_the_object(metric, scene_prefix, size):
    lamp = SceneObject("lamp", (0, 0, 0, 0), (1.0, 0.0, 0.5), size, 0.0)
    scene = SceneLayout("bedroom", [obj("bed", 0.0, 0.0), lamp])
    with pytest.raises(ValueError, match="^" + re.escape(f"{scene_prefix}object 1 has non-positive size {size}")):
        metric(scene)


@pytest.mark.parametrize(
    "bad",
    [{"center": (math.nan, 0.0, 0.5)}, {"half_extents": (0.5, math.inf, 0.5)}, {"yaw": math.nan}],
    ids=["nan-centre", "inf-half-extent", "nan-yaw"],
)
@pytest.mark.parametrize(
    "volume",
    [obb_intersection_volume, lambda a, b: monte_carlo_volume(a, b, 100, np.random.default_rng(0))],
    ids=["analytic", "monte-carlo"],
)
def test_volumes_reject_a_non_finite_frame(volume, bad):
    # unchecked, a NaN-centred unit cube scored 0.0 against a unit cube and the sampler raised OverflowError
    fields = {"center": (0.0, 0.0, 0.5), "half_extents": (0.5, 0.5, 0.5), "yaw": 0.0, **bad}
    with pytest.raises(ValueError, match="frame needs finite values"):
        volume(frame(), GeometryFrame(**fields))


def make_instruction(triplets):
    """An instruction over (subject, predicate, object) category triplets, each relating two instances of its own."""
    categories = [c for s, _, o in triplets for c in (s, o)]
    rows = np.array([(2 * i, RELATION_SET.index(p), 2 * i + 1) for i, (_, p, _) in enumerate(triplets)], dtype=np.int64)
    return Instruction(text="", tokens=[], triplets=RelationTable(categories, rows.reshape(-1, 3)))


def test_irecall_partial():
    scene = SceneLayout(
        "bedroom",
        [obj("chair", 2, 0), obj("desk", 0, 0), obj("lamp", 0, 2)],
    )
    triplets = [
        ("chair", RelationPredicate.RIGHT_OF, "desk"),
        ("lamp", RelationPredicate.IN_FRONT_OF, "desk"),
        ("chair", RelationPredicate.ABOVE, "desk"),
        ("desk", RelationPredicate.BEHIND, "lamp"),
    ]
    overall, by_k = irecall([make_instruction(triplets)], [scene])
    assert overall == pytest.approx(75.0)
    assert by_k == {4: pytest.approx(75.0)}


def test_irecall_empty_scene_scores_zero():
    triplets = [("chair", RelationPredicate.RIGHT_OF, "desk")]
    overall, _ = irecall([make_instruction(triplets)], [SceneLayout("bedroom", [])])
    assert overall == 0.0


def test_irecall_rejects_instruction_without_triplets():
    scene = SceneLayout("bedroom", [obj("chair", 2, 0), obj("desk", 0, 0)])
    t = ("chair", RelationPredicate.RIGHT_OF, "desk")
    with pytest.raises(ValueError, match="instruction 1 has no triplets"):
        irecall([make_instruction([t]), make_instruction([])], [scene, scene])


def test_irecall_injective_matching():
    # two identical instructed triplets but only one realizing pair
    scene = SceneLayout("bedroom", [obj("chair", 2, 0), obj("desk", 0, 0)])
    t = ("chair", RelationPredicate.RIGHT_OF, "desk")
    overall, _ = irecall([make_instruction([t, t])], [scene])
    assert overall == pytest.approx(50.0)
    # a second chair provides the second pair
    scene2 = SceneLayout("bedroom", [obj("chair", 2, 0), obj("desk", 0, 0), obj("chair", 2, 0.5)])
    overall2, _ = irecall([make_instruction([t, t])], [scene2])
    assert overall2 == pytest.approx(100.0)
    # three identical triplets share the two pairs
    overall3, by_k = irecall([make_instruction([t, t, t])], [scene2])
    assert overall3 == pytest.approx(200.0 / 3) and by_k == {3: pytest.approx(200.0 / 3)}


def test_irecall_counts_no_pair_that_holds_no_relation():
    # the far chair-desk pair is a candidate for the first triplet but holds none; read as a key, "none" would
    # borrow the last predicate id (below) from its neighbour key (chair, chair)
    scene = SceneLayout("bedroom", [obj("chair", 0, 0), obj("desk", 10, 0)])
    triplets = [("chair", RelationPredicate.RIGHT_OF, "desk"), ("chair", RELATION_SET[-1], "chair")]
    assert irecall([make_instruction(triplets)], [scene]) == (0.0, {2: 0.0})


def test_irecall_monotone_under_added_objects():
    scene = SceneLayout("bedroom", [obj("chair", 2, 0), obj("desk", 0, 0)])
    t1 = ("chair", RelationPredicate.RIGHT_OF, "desk")
    t2 = ("lamp", RelationPredicate.BEHIND, "desk")
    base, _ = irecall([make_instruction([t1, t2])], [scene])
    richer = SceneLayout("bedroom", scene.objects + [obj("lamp", 0, -1.5)])
    more, _ = irecall([make_instruction([t1, t2])], [richer])
    assert more >= base


def realized_oracle(instruction, scene):
    """Realized triplets of one instruction: a maximum matching of triplets to distinct ordered
    object pairs, over a 0/1 candidate matrix that classifies each category-matching pair on its own."""
    objects = scene.objects
    pairs = [(i, j) for i in range(len(objects)) for j in range(len(objects)) if i != j]
    candidates = np.array(
        [
            [
                (objects[i].category, objects[j].category) == (t.subject, t.object)
                and relation_matrix(box_table(SceneLayout("r", [objects[i], objects[j]])))[0, 1]
                == RELATION_SET.index(t.predicate)
                for i, j in pairs
            ]
            for t in instruction.triplets
        ],
        dtype=float,
    )
    rows, cols = linear_sum_assignment(candidates, maximize=True)
    return int(candidates[rows, cols].sum())


def own_or_random_triplet(own: RelationTable, categories, rng) -> tuple:
    """Half the time (when it has rows) a row of the scene's own table, else a random (subject, predicate, object)."""
    if own and rng.uniform() < 0.5:
        s, p, o = own.rows[int(rng.integers(len(own)))].tolist()
        return own.categories[s], RELATION_SET[p], own.categories[o]
    return (
        categories[int(rng.integers(4))],
        RELATION_SET[int(rng.integers(len(RELATION_SET)))],
        categories[int(rng.integers(4))],
    )


def test_irecall_matches_pairwise_oracle():
    codec = make_codec(8)
    rng = np.random.default_rng(17)
    batch = []
    for _ in range(200):
        objects = [
            SceneObject(
                codec.categories[int(rng.integers(3))],
                (0, 0, 0, 0),
                (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), float(rng.uniform(0, 2))),
                tuple(rng.uniform(0.05, 2.0, size=3)),
                float(rng.uniform(0, 360)),
            )
            for _ in range(int(rng.integers(0, 9)))
        ]
        scene = codec.snap(SceneLayout("bedroom", objects))
        own = extract_triplets(scene)
        repeat = rng.uniform() < 0.5
        triplets = [
            own_or_random_triplet(own, codec.categories, rng) for _ in range(int(rng.integers(1, 4 if repeat else 5)))
        ]
        if repeat:  # half the instructions name one triplet twice, so min(m, c) meets a general matching
            triplets.append(triplets[int(rng.integers(len(triplets)))])
        instruction = make_instruction(triplets)
        realized = realized_oracle(instruction, scene)
        overall, _ = irecall([instruction], [scene])
        assert overall == 100.0 * realized / len(triplets)
        batch.append((instruction, scene, realized))
    # one call over all 200 pairs mixes scene sizes, empty scenes included, and sums the same counts
    instructions, scenes, counts = zip(*batch)
    ks = [len(instruction.triplets) for instruction in instructions]
    assert {len(scene.categories) for scene in scenes} == set(range(9))
    per_k = {
        k: 100.0 * sum(c for c, kc in zip(counts, ks) if kc == k) / (k * ks.count(k)) for k in sorted(set(ks))
    }
    assert irecall(list(instructions), list(scenes)) == (100.0 * sum(counts) / sum(ks), per_k)


def test_attribute_accuracy_counts_only_scored_non_pad():
    codec = SceneCodec(["bed", "chair"], DiscretizationSpec(), max_objects=2)
    scene = SceneLayout("bedroom", [SceneObject("bed", (1, 2, 3, 4), (0, 0, 0.5), (1, 1, 1), 0.0)])
    target = codec.tokenize(scene)
    generated = target.copy()
    generated.tokens[0, 5] += 1  # one wrong position token
    scored = np.ones((2, 12), dtype=bool)
    acc = attribute_accuracy([target], [generated], [scored], codec)
    assert acc["category"]["exact"] == 1.0
    assert acc["category"]["count"] == 2  # EMPTY is a real category target
    assert acc["position"]["count"] == 3  # PAD targets on the empty row skipped
    assert acc["position"]["exact"] == pytest.approx(2 / 3)
    assert acc["position"]["within_one_bin"] == 1.0


@pytest.mark.parametrize("counts", [(3, 1, 3), (1, 3, 3), (3, 3, 1), (2, 2, 3), (0, 1, 1)])
def test_attribute_accuracy_rejects_lists_of_unequal_length(counts):
    # with one object per grid, 3 targets against 1 generated grid would broadcast
    codec = SceneCodec(["bed"], DiscretizationSpec(), max_objects=1)
    grid = codec.tokenize(SceneLayout("bedroom", [SceneObject("bed", (1, 2, 3, 4), (0, 0, 0.5), (1, 1, 1), 0.0)]))
    targets, generated, scored = ([grid] * counts[0], [grid] * counts[1], [np.ones((1, 12), dtype=bool)] * counts[2])
    with pytest.raises(ValueError, match="differ in length"):
        attribute_accuracy(targets, generated, scored, codec)


def attribute_accuracy_oracle(target_grids, generated_grids, scored_positions, codec):
    """Position-by-position reference for the vectorised attribute_accuracy."""
    groups = {
        "category": [0],
        "appearance": [1, 2, 3, 4],
        "position": [5, 6, 7],
        "size": [8, 9, 10],
        "rotation": [11],
    }
    exact = {g: [0, 0] for g in groups}
    near = {g: [0, 0] for g in groups}
    for target, generated, scored in zip(target_grids, generated_grids, scored_positions):
        for name, cols in groups.items():
            for c in cols:
                col = codec.columns[c]
                rows = np.where(scored[:, c])[0]
                for r in rows:
                    t = int(target.tokens[r, c])
                    if col.pad_id is not None and t == col.pad_id:
                        continue
                    g = int(generated.tokens[r, c])
                    exact[name][0] += int(g == t)
                    exact[name][1] += 1
                    near[name][0] += int(abs(g - t) <= 1)
                    near[name][1] += 1
    out = {}
    for name in groups:
        hit, total = exact[name]
        entry = {"exact": hit / total if total else 0.0, "count": total}
        if name in ("position", "size", "rotation"):
            nhit, ntotal = near[name]
            entry["within_one_bin"] = nhit / ntotal if ntotal else 0.0
        out[name] = entry
    return out


def test_attribute_accuracy_matches_looped_oracle():
    codec = SceneCodec(["bed", "chair", "desk"], DiscretizationSpec(), max_objects=6)
    rng = np.random.default_rng(12)
    heads = np.array([c.head_width for c in codec.columns])
    for batch in (0, 1, 3, 8):
        targets, generated, scored = [], [], []
        for _ in range(batch):
            n_live = int(rng.integers(0, 7))  # rows past n_live stay EMPTY with PAD targets
            objects = [
                SceneObject(
                    str(rng.choice(codec.categories)),
                    tuple(int(v) for v in rng.integers(0, 64, 4)),
                    tuple(rng.uniform(-3, 3, 3)),
                    tuple(rng.uniform(0.1, 3, 3)),
                    float(rng.uniform(0, 360)),
                )
                for _ in range(n_live)
            ]
            target = codec.tokenize(SceneLayout("bedroom", objects))
            # generated tokens near the targets, so exact, one-off and far misses all occur
            noise = rng.integers(-2, 3, target.tokens.shape) * (rng.random(target.tokens.shape) < 0.5)
            out = target.copy()
            out.tokens = np.clip(target.tokens + noise, 0, heads - 1)
            targets.append(target)
            generated.append(out)
            scored.append(rng.random(target.tokens.shape) < 0.6)  # unscored positions too
        got = attribute_accuracy(targets, generated, scored, codec)
        assert got == attribute_accuracy_oracle(targets, generated, scored, codec)
