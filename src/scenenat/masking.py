"""Training-time grid corruption and inference-time remask scheduling.

The total mask ratio follows the cosine schedule gamma(tau) = cos(pi*tau/2)
with tau drawn uniformly; a second uniform draw splits the budget between
whole-object masking and individual-token masking. Selected positions then
go through the replace-and-remask trichotomy: 10% random in-vocabulary
token, 88% of the rest the MASK id, the remainder kept unchanged. All
selected positions are supervised with their original tokens. At inference
``remask_count`` samples the same gamma at tau = step / total_steps.

Each sampling call makes one ``rng.random`` draw and selects by key order.
``sample_mask`` draws tau, p_obj, one key per row and one key per cell: the
object rows are the n_objects rows with the smallest keys, and the token
cells the remaining open cells with the smallest keys, so every subset of
a given size is equally likely. ``corrupt`` draws one [2, N, 12] block: plane 0 splits the
planned positions three ways, and plane 1 gives a randomized cell the id
floor(u * mask_id), which lies below MASK because u < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import GRID_COLUMNS, SceneCodec, TokenizedScene

RANDOM_TOKEN_FRACTION = 0.10
MASK_TOKEN_FRACTION = 0.88  # of the remaining 90%
# A selected cell whose split draw lies below this is randomized or remasked; one at or above it is kept.
_CHANGED_BELOW = RANDOM_TOKEN_FRACTION + (1 - RANDOM_TOKEN_FRACTION) * MASK_TOKEN_FRACTION


def mask_ratio(tau: float) -> float:
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    return math.cos(math.pi * tau / 2)


def remask_count(step: int, total_steps: int, total_masked: int) -> int:
    """Tokens still masked after a decoding step: floor(total_masked * gamma), 0 after the final step."""
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (step, total_steps, total_masked)):
        raise ValueError(f"step, total_steps and total_masked must be ints, got {(step, total_steps, total_masked)}")
    if total_steps < 1:
        raise ValueError(f"total_steps must be at least 1, got {total_steps}")
    if total_masked < 0:
        raise ValueError(f"total_masked must be non-negative, got {total_masked}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return math.floor(total_masked * mask_ratio(step / total_steps))


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
    draws = rng.random(2 + n + n * GRID_COLUMNS)
    tau, p_obj = draws[:2].tolist()
    gamma = mask_ratio(tau)
    budget = _round_half_up(gamma * n * GRID_COLUMNS)
    # no clamps: p_obj * gamma <= 1 keeps n_objects <= n, and gamma <= 1 keeps remaining <= the open cells
    n_objects = _round_half_up(p_obj * gamma * n)
    rows = np.sort(np.argsort(draws[2 : 2 + n])[:n_objects])
    positions = np.zeros((n, GRID_COLUMNS), dtype=bool)
    positions[rows] = True
    remaining = budget - n_objects * GRID_COLUMNS
    if remaining > 0:
        cell_keys = draws[2 + n :].reshape(n, GRID_COLUMNS)
        cell_keys[rows] = 1.0  # above every key, so no cell of an object row is among the smallest
        positions.reshape(-1)[np.argpartition(cell_keys, remaining - 1, axis=None)[:remaining]] = True
    return MaskPlan(gamma=gamma, object_rows=rows, positions=positions)


def corrupt(
    grid: TokenizedScene, plan: MaskPlan, rng: np.random.Generator, codec: SceneCodec
) -> tuple[TokenizedScene, np.ndarray]:
    """Apply the replace-and-remask trichotomy at the planned positions.

    Returns the corrupted grid and the supervision targets: original tokens
    at every planned position (kept and randomized included), -1 elsewhere.
    A plan whose positions are not a bool array of the grid's shape raises
    ValueError before any draw.
    """
    positions = np.asarray(plan.positions)
    if positions.dtype != bool or positions.shape != grid.tokens.shape:
        raise ValueError(
            f"plan positions must be a bool array of shape {grid.tokens.shape}, got {positions.dtype} {positions.shape}"
        )
    out = grid.copy()
    targets = np.where(positions, grid.tokens, -1)
    split, picks = rng.random((2, *grid.tokens.shape))
    randomize = positions & (split < RANDOM_TOKEN_FRACTION)
    # the randomized cells are a subset of the changed ones, so xor removes exactly them
    remask = (positions & (split < _CHANGED_BELOW)) ^ randomize
    # any non-MASK id of the column: the cast floors u * mask_id, which u < 1 keeps below mask_id (< 2**53)
    np.copyto(out.tokens, picks * codec.mask_ids, casting="unsafe", where=randomize)
    np.copyto(out.tokens, codec.mask_ids, where=remask)
    out.mask_flags |= remask
    return out, targets
