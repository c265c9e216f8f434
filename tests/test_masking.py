import math

import numpy as np
import pytest

from scenenat.masking import MaskPlan, corrupt, mask_ratio, remask_count, sample_mask
from scenenat.scene import GRID_COLUMNS, DiscretizationSpec, SceneCodec, SceneLayout, SceneObject


def make_codec(n=8):
    return SceneCodec(["bed", "chair", "desk", "lamp"], DiscretizationSpec(), max_objects=n)


def full_grid(codec, rng):
    objects = [
        SceneObject("chair", tuple(rng.integers(0, 64, 4)), tuple(rng.uniform(-3, 3, 3)),
                    tuple(rng.uniform(0.1, 2, 3)), float(rng.uniform(0, 360)))
        for _ in range(codec.max_objects)
    ]
    return codec.tokenize(SceneLayout("bedroom", objects))


def test_mask_ratio_endpoints_and_midpoint():
    assert mask_ratio(0.0) == 1.0
    assert mask_ratio(1.0) == pytest.approx(0.0, abs=1e-15)
    assert mask_ratio(0.5) == pytest.approx(math.sqrt(2) / 2)
    with pytest.raises(ValueError):
        mask_ratio(1.5)


def test_remask_count_endpoints_and_monotonicity():
    total = 96
    assert remask_count(0, 30, total) == total
    assert remask_count(30, 30, total) == 0
    counts = [remask_count(t, 30, total) for t in range(31)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    for step, steps in ((0, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            remask_count(step, steps, total)


def test_remask_count_samples_the_training_schedule_and_ends_at_zero():
    # the count goes through the float step / total_steps, so its last angle is the float pi / 2, whose cosine is
    # positive; the angle pi / 2 * step / total_steps rounds past it at 13 / 13, where the count would be -1
    for total_steps in range(1, 257):
        for total in (0, 1, 2, 7, 64, 1000, 4096):
            counts = [remask_count(step, total_steps, total) for step in range(total_steps + 1)]
            assert counts == [math.floor(total * mask_ratio(step / total_steps)) for step in range(total_steps + 1)]
            assert min(counts) >= 0 and counts[-1] == 0


def test_remask_count_rejects_a_negative_total():
    with pytest.raises(ValueError, match="total_masked"):
        remask_count(0, 4, -3)


def test_object_level_masks_cover_full_rows():
    codec = make_codec()
    rng = np.random.default_rng(0)
    grid = full_grid(codec, rng)
    for _ in range(100):
        plan = sample_mask(grid, rng)
        for row in plan.object_rows:
            assert plan.positions[row].all()


def test_boundary_p_obj_shares():
    codec = make_codec()
    rng = np.random.default_rng(1)
    grid = full_grid(codec, rng)
    seen_only_objects = seen_only_tokens = False
    for _ in range(500):
        plan = sample_mask(grid, rng)
        token_only = plan.positions.sum() - len(plan.object_rows) * 12
        if plan.masked_count and not token_only and len(plan.object_rows):
            seen_only_objects = True
        if plan.masked_count and not len(plan.object_rows):
            seen_only_tokens = True
    assert seen_only_objects and seen_only_tokens


def test_masked_count_tracks_budget():
    codec = make_codec()
    rng = np.random.default_rng(2)
    grid = full_grid(codec, rng)
    for _ in range(200):
        plan = sample_mask(grid, rng)
        budget = round(plan.gamma * grid.tokens.size)
        # two-level rounding can overshoot by at most one object row
        assert abs(plan.masked_count - budget) <= 12


def test_mean_masked_fraction_matches_cosine_integral():
    codec = make_codec()
    rng = np.random.default_rng(3)
    grid = full_grid(codec, rng)
    fractions = []
    for _ in range(10_000):
        plan = sample_mask(grid, rng)
        fractions.append(plan.masked_count / grid.tokens.size)
    assert np.mean(fractions) == pytest.approx(2 / math.pi, abs=0.01)


def test_corruption_trichotomy_fractions():
    codec = make_codec()
    rng = np.random.default_rng(4)
    grid = full_grid(codec, rng)
    n_random = n_mask = n_keep = 0
    while n_random + n_mask + n_keep < 100_000:
        plan = sample_mask(grid, rng)
        corrupted, _ = corrupt(grid, plan, rng, codec)
        at = plan.positions
        mask_ids = codec.mask_ids[None, :].repeat(grid.tokens.shape[0], 0)
        is_mask = corrupted.tokens[at] == mask_ids[at]
        unchanged = corrupted.tokens[at] == grid.tokens[at]
        n_mask += int(is_mask.sum())
        n_keep += int((unchanged & ~is_mask).sum())
        n_random += int((~unchanged & ~is_mask).sum())
    total = n_random + n_mask + n_keep
    # random draws that land on the original token count as "unchanged",
    # shifting ~1/vocab of the 10% random mass into keep
    assert n_mask / total == pytest.approx(0.792, abs=0.01)
    assert n_random / total == pytest.approx(0.100, abs=0.01)
    assert n_keep / total == pytest.approx(0.108, abs=0.01)


def test_corrupt_random_tokens_stay_in_column_vocabulary():
    codec = make_codec()
    rng = np.random.default_rng(5)
    grid = full_grid(codec, rng)
    for _ in range(50):
        plan = sample_mask(grid, rng)
        corrupted, _ = corrupt(grid, plan, rng, codec)
        for c, col in enumerate(codec.columns):
            assert corrupted.tokens[:, c].max() <= col.mask_id


def test_corrupt_leaves_unselected_positions_untouched():
    codec = make_codec()
    rng = np.random.default_rng(6)
    grid = full_grid(codec, rng)
    plan = sample_mask(grid, rng)
    corrupted, targets = corrupt(grid, plan, rng, codec)
    np.testing.assert_array_equal(corrupted.tokens[~plan.positions], grid.tokens[~plan.positions])
    assert (targets[~plan.positions] == -1).all()
    np.testing.assert_array_equal(targets[plan.positions], grid.tokens[plan.positions])


def test_empty_rows_are_maskable():
    codec = make_codec()
    rng = np.random.default_rng(7)
    grid = codec.tokenize(SceneLayout("bedroom", []))
    plan = sample_mask(grid, rng)
    assert isinstance(plan, MaskPlan)  # no crash; EMPTY rows join the pool


def sample_mask_oracle(grid, rng):
    """sample_mask as first written: clamped counts, and the open cells rebuilt from a set difference of rows."""
    n = grid.tokens.shape[0]
    gamma = mask_ratio(float(rng.uniform()))
    p_obj = float(rng.uniform())
    budget = math.floor(gamma * n * GRID_COLUMNS + 0.5)
    n_objects = min(math.floor(p_obj * gamma * n + 0.5), n)
    rows = rng.choice(n, size=n_objects, replace=False) if n_objects else np.empty(0, dtype=np.int64)
    positions = np.zeros((n, GRID_COLUMNS), dtype=bool)
    positions[rows] = True
    remaining = budget - n_objects * GRID_COLUMNS
    if remaining > 0:
        open_rows = np.setdiff1d(np.arange(n), rows)
        flat = (open_rows[:, None] * GRID_COLUMNS + np.arange(GRID_COLUMNS)[None, :]).reshape(-1)
        chosen = rng.choice(flat, size=min(remaining, flat.shape[0]), replace=False)
        positions.reshape(-1)[chosen] = True
    return MaskPlan(gamma=gamma, object_rows=np.sort(rows), positions=positions)


@pytest.mark.parametrize(
    "n, empty", [(1, False), (2, False), (8, False), (32, False), (8, True)], ids=["1", "2", "8", "32", "all-empty"]
)
def test_sample_mask_matches_set_difference_oracle(n, empty):
    codec = make_codec(n)
    grid = codec.tokenize(SceneLayout("bedroom", [])) if empty else full_grid(codec, np.random.default_rng(n))
    rng, oracle_rng = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
    for _ in range(300):
        plan, expected = sample_mask(grid, rng), sample_mask_oracle(grid, oracle_rng)
        assert plan.gamma == expected.gamma
        assert plan.object_rows.dtype == expected.object_rows.dtype
        np.testing.assert_array_equal(plan.object_rows, expected.object_rows)
        np.testing.assert_array_equal(plan.positions, expected.positions)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
