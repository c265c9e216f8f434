"""Training-time grid corruption and inference-time remask scheduling.

The total mask ratio follows the cosine schedule gamma(tau) = cos(pi*tau/2)
with tau drawn uniformly; a second uniform draw splits the budget between
whole-object masking and individual-token masking. Selected positions then
go through the replace-and-remask trichotomy: 10% random in-vocabulary
token, 88% of the rest the MASK id, the remainder kept unchanged. All
selected positions are supervised with their original tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import GRID_COLUMNS, SceneCodec, TokenizedScene

RANDOM_TOKEN_FRACTION = 0.10
MASK_TOKEN_FRACTION = 0.88  # of the remaining 90%


def mask_ratio(tau: float) -> float:
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return math.cos(math.pi * tau / 2)


def remask_count(step: int, total_steps: int, total_masked: int) -> int:
    """Tokens still masked after a decoding step; 0 after the final step."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be at least 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return math.floor(total_masked * math.cos(math.pi / 2 * step / total_steps))


@dataclass
class MaskPlan:
    """One grid's sampled corruption: which positions, and how."""

    gamma: float
    object_rows: np.ndarray  # int row indices masked whole
    positions: np.ndarray  # bool [N, 12], all selected positions

    @property
    def masked_count(self) -> int:
        return int(self.positions.sum())


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def sample_mask(grid: TokenizedScene, rng: np.random.Generator) -> MaskPlan:
    """Draw the two-level mask plan for one grid."""
    n = grid.tokens.shape[0]
    if n < 1:
        raise ValueError("grid has no object rows")
    tau = float(rng.uniform())
    gamma = mask_ratio(tau)
    p_obj = float(rng.uniform())
    budget = _round_half_up(gamma * n * GRID_COLUMNS)
    # no clamps: p_obj * gamma <= 1 keeps n_objects <= n, and gamma <= 1 keeps remaining <= the open cells
    n_objects = _round_half_up(p_obj * gamma * n)
    rows = rng.choice(n, size=n_objects, replace=False)
    positions = np.zeros((n, GRID_COLUMNS), dtype=bool)
    positions[rows] = True
    remaining = budget - n_objects * GRID_COLUMNS
    if remaining > 0:
        positions.reshape(-1)[rng.choice(np.flatnonzero(~positions), size=remaining, replace=False)] = True
    return MaskPlan(gamma=gamma, object_rows=np.sort(rows), positions=positions)


def corrupt(
    grid: TokenizedScene, plan: MaskPlan, rng: np.random.Generator, codec: SceneCodec
) -> tuple[TokenizedScene, np.ndarray]:
    """Apply the replace-and-remask trichotomy at the planned positions.

    Returns the corrupted grid and the supervision targets: original tokens
    at every planned position (kept and randomized included), -1 elsewhere.
    """
    out = grid.copy()
    targets = np.where(plan.positions, grid.tokens, -1)
    mask_ids = np.broadcast_to(codec.mask_ids, grid.tokens.shape)
    draws = rng.random(grid.tokens.shape)
    randomize = plan.positions & (draws < RANDOM_TOKEN_FRACTION)
    remask = plan.positions & ~randomize & (
        draws < RANDOM_TOKEN_FRACTION + (1 - RANDOM_TOKEN_FRACTION) * MASK_TOKEN_FRACTION
    )
    out.tokens[randomize] = rng.integers(mask_ids[randomize])  # any non-MASK id of the column
    out.tokens[remask] = mask_ids[remask]
    out.mask_flags[remask] = True
    return out, targets
