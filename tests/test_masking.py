import math

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

from scenenat.masking import MaskPlan, corrupt, mask_ratio, remask_count, sample_mask
from scenenat.scene import GRID_COLUMNS, DiscretizationSpec, SceneCodec, SceneLayout, SceneObject, TokenizedScene

from support import TOP, LargestDraws, make_codec


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


@pytest.mark.parametrize(
    "args",
    [(1.5, 4, 10), (1, 4, 10.5), (1, 4.0, 10), (True, 4, 10), (1, True, 10), (0, 4, False), (np.float64(1), 4, 10)],
    ids=[
        "float_step", "float_total_masked", "float_total_steps", "bool_step", "bool_total_steps", "bool_total_masked",
        "numpy_float_step",
    ],
)
def test_remask_count_takes_only_ints(args):
    with pytest.raises(ValueError, match="must be ints"):
        remask_count(*args)


def test_object_level_masks_cover_full_rows():
    codec = make_codec(8)
    rng = np.random.default_rng(0)
    grid = full_grid(codec, rng)
    for _ in range(100):
        plan = sample_mask(grid, rng)
        for row in plan.object_rows:
            assert plan.positions[row].all()


def test_boundary_p_obj_shares():
    codec = make_codec(8)
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
    codec = make_codec(8)
    rng = np.random.default_rng(2)
    grid = full_grid(codec, rng)
    for _ in range(200):
        plan = sample_mask(grid, rng)
        budget = round(plan.gamma * grid.tokens.size)
        # two-level rounding can overshoot by at most one object row
        assert abs(plan.masked_count - budget) <= 12


def test_mean_masked_fraction_matches_cosine_integral():
    codec = make_codec(8)
    rng = np.random.default_rng(3)
    grid = full_grid(codec, rng)
    fractions = []
    for _ in range(10_000):
        plan = sample_mask(grid, rng)
        fractions.append(plan.masked_count / grid.tokens.size)
    assert np.mean(fractions) == pytest.approx(2 / math.pi, abs=0.01)


def test_corruption_trichotomy_fractions():
    codec = make_codec(8)
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
    codec = make_codec(8)
    rng = np.random.default_rng(5)
    grid = full_grid(codec, rng)
    for _ in range(50):
        plan = sample_mask(grid, rng)
        corrupted, _ = corrupt(grid, plan, rng, codec)
        for c, col in enumerate(codec.columns):
            assert corrupted.tokens[:, c].max() <= col.mask_id


def test_corrupt_leaves_unselected_positions_untouched():
    codec = make_codec(8)
    rng = np.random.default_rng(6)
    grid = full_grid(codec, rng)
    plan = sample_mask(grid, rng)
    corrupted, targets = corrupt(grid, plan, rng, codec)
    np.testing.assert_array_equal(corrupted.tokens[~plan.positions], grid.tokens[~plan.positions])
    assert (targets[~plan.positions] == -1).all()
    np.testing.assert_array_equal(targets[plan.positions], grid.tokens[plan.positions])


def test_empty_rows_are_maskable():
    codec = make_codec(8)
    rng = np.random.default_rng(7)
    grid = codec.tokenize(SceneLayout("bedroom", []))
    plan = sample_mask(grid, rng)
    assert isinstance(plan, MaskPlan)  # no crash; EMPTY rows join the pool


def sample_mask_oracle(grid, rng):
    """sample_mask's draw order in Python: clamped counts, key-sorted selection, and the open cells rebuilt from a
    set difference of rows."""
    n = grid.tokens.shape[0]
    draws = rng.random(2 + n + n * GRID_COLUMNS).tolist()
    gamma = mask_ratio(draws[0])
    row_keys, cell_keys = draws[2 : 2 + n], draws[2 + n :]
    budget = math.floor(gamma * n * GRID_COLUMNS + 0.5)
    n_objects = min(math.floor(draws[1] * gamma * n + 0.5), n)
    rows = np.array(sorted(sorted(range(n), key=row_keys.__getitem__)[:n_objects]), dtype=np.intp)
    positions = np.zeros((n, GRID_COLUMNS), dtype=bool)
    positions[rows] = True
    remaining = budget - n_objects * GRID_COLUMNS
    if remaining > 0:
        open_rows = np.setdiff1d(np.arange(n), rows)
        flat = (open_rows[:, None] * GRID_COLUMNS + np.arange(GRID_COLUMNS)[None, :]).reshape(-1).tolist()
        chosen = sorted(flat, key=cell_keys.__getitem__)[: min(remaining, len(flat))]
        positions.reshape(-1)[chosen] = True
    return MaskPlan(gamma=gamma, object_rows=rows, positions=positions)


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


@pytest.mark.parametrize(
    "positions",
    [np.ones((1, GRID_COLUMNS), dtype=bool), np.zeros((4, GRID_COLUMNS), dtype=np.int64)],
    ids=["one_row_plan", "int_positions"],
)
def test_corrupt_rejects_a_plan_that_does_not_fit_the_grid_before_any_draw(positions):
    # At the parent the one-row plan masked all 48 cells, and int positions indexed rows: one 1 rewrote 24 cells.
    codec = make_codec(4)
    grid = full_grid(codec, np.random.default_rng(0))
    positions.reshape(-1)[0] = 1
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="must be a bool array of shape"):
        corrupt(grid, MaskPlan(gamma=1.0, object_rows=np.empty(0, dtype=np.intp), positions=positions), rng, codec)
    assert rng.bit_generator.state == state


def test_gamma_follows_the_cosine_schedule_and_sets_the_masked_count():
    # gamma = cos(pi * tau / 2) with tau uniform has CDF 1 - 2 arccos(g) / pi on [0, 1]
    codec = make_codec(8)
    rng = np.random.default_rng(8)
    grid = full_grid(codec, rng)
    gammas = []
    for _ in range(10_000):
        plan = sample_mask(grid, rng)
        budget = math.floor(plan.gamma * grid.tokens.size + 0.5)
        assert plan.masked_count == max(budget, len(plan.object_rows) * GRID_COLUMNS)
        gammas.append(plan.gamma)
    result = kstest(gammas, lambda g: 1 - 2 * np.arccos(g) / math.pi)
    assert result.pvalue > 1e-3, result


def test_every_row_and_every_cell_is_selected_equally_often():
    codec = make_codec(8)
    rng = np.random.default_rng(9)
    grid = full_grid(codec, rng)
    rows = np.zeros(codec.max_objects)
    cells = np.zeros((codec.max_objects, GRID_COLUMNS))
    for _ in range(20_000):
        plan = sample_mask(grid, rng)
        rows[plan.object_rows] += 1
        token_cells = plan.positions.copy()
        token_cells[plan.object_rows] = False
        cells += token_cells
    assert rows.sum() > 10_000 and cells.sum() > 100_000
    for counts in (rows, cells.reshape(-1)):
        result = chisquare(counts)
        assert result.pvalue > 1e-3, result


def test_replacement_ids_are_uniform_over_each_columns_non_mask_ids():
    # Every cell of an empty grid holds its column's last non-MASK id (EMPTY or PAD), so a replacement that is
    # neither that id nor MASK must be uniform over the column's other mask_id - 1 ids.
    codec = make_codec(32)
    grid = codec.tokenize(SceneLayout("bedroom", []))
    plan = MaskPlan(gamma=1.0, object_rows=np.arange(32), positions=np.ones(grid.tokens.shape, dtype=bool))
    original = codec.mask_ids - 1
    assert (grid.tokens == original).all()
    rng = np.random.default_rng(10)
    counts = [np.zeros(m - 1) for m in codec.mask_ids]
    for _ in range(1_500):
        tokens = corrupt(grid, plan, rng, codec)[0].tokens
        for c, m in enumerate(codec.mask_ids):
            col = tokens[:, c]
            np.add.at(counts[c], col[(col != m) & (col != original[c])], 1)
    for c, col_counts in enumerate(counts):
        assert col_counts.min() > 10
        result = chisquare(col_counts)
        assert result.pvalue > 1e-4, (c, result)


def test_floor_of_the_largest_draw_stays_below_the_count():
    n = np.arange(1, 2**20, dtype=np.int64)
    np.testing.assert_array_equal((TOP * n).astype(np.int64), n - 1)
    for big in (2**52 + 1, 3 * 2**50, 2**53 - 1):
        assert math.floor(TOP * big) == big - 1


@pytest.mark.parametrize("categories", [1, 4, 12, 200])
def test_largest_replacement_draw_gives_each_columns_last_non_mask_id(categories):
    codec = SceneCodec([f"c{i}" for i in range(categories)], DiscretizationSpec(), max_objects=4)
    grid = TokenizedScene(np.zeros((4, GRID_COLUMNS), dtype=np.int64), np.zeros((4, GRID_COLUMNS), dtype=bool))
    plan = MaskPlan(gamma=1.0, object_rows=np.arange(4), positions=np.ones(grid.tokens.shape, dtype=bool))
    corrupted, _ = corrupt(grid, plan, LargestDraws(zero_first_plane=True), codec)  # every cell is randomized
    np.testing.assert_array_equal(corrupted.tokens, np.broadcast_to(codec.mask_ids - 1, grid.tokens.shape))
    assert not corrupted.mask_flags.any()
