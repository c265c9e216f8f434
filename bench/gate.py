"""Correctness checks the benchmark runs before it times anything.

Each check raises ``GateError`` on the first disagreement. The references
(scipy's assignment solver, a numpy attribute-accuracy count, Monte-Carlo
volumes with an exact binomial test) are independent of the code paths they check.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import bdtr, bdtrc

from scenenat.evaluation import monte_carlo_volume, obb_intersection_volume
from scenenat.matching import ATTRIBUTE_COLUMNS, hungarian
from scenenat.relations import GeometryFrame, footprint_corners
from scenenat.scene import SceneCodec, SceneLayout, TokenizedScene

LAYOUT_ATTRIBUTES = ("position", "size", "rotation")
MC_SAMPLES = 40_000  # Monte-Carlo points per checked pair
MC_ALPHA = 6.3e-5  # two-sided tail of a 4-standard-error normal test


class GateError(Exception):
    """A program output disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def check_roundtrip(codec: SceneCodec, scenes: list[SceneLayout]) -> None:
    """Snapped scenes survive tokenize -> detokenize, and snap is idempotent on them."""
    for i, s in enumerate(scenes):
        back = codec.detokenize(codec.tokenize(s), room_type=s.room_type)
        require(back == s, f"scene {i}: detokenize(tokenize(s)) != s")
        require(codec.snap(s) == s, f"scene {i}: snap is not idempotent")


def scipy_optimum(cost: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def check_hungarian(costs: list[np.ndarray], optimum=scipy_optimum) -> None:
    """Every ``hungarian`` assignment is injective and reaches the optimum."""
    for i, cost in enumerate(costs):
        sigma = hungarian(cost)
        require(len(set(sigma.tolist())) == cost.shape[0], f"grid {i}: assignment is not injective")
        got = float(cost[np.arange(cost.shape[0]), sigma].sum())
        want = optimum(cost)
        require(abs(got - want) <= 1e-9 * max(1.0, abs(want)), f"grid {i}: hungarian cost {got!r} != optimum {want!r}")


def check_train_step(first: np.ndarray, second: np.ndarray, grads: list[np.ndarray | None]) -> None:
    """The loss is finite and repeatable bit for bit, and every gradient exists and is finite."""
    require(bool(np.isfinite(first).all()), f"train loss is {first!r}")
    require(first.tobytes() == second.tobytes(), f"identical steps gave {first!r} and {second!r}")
    for i, g in enumerate(grads):
        require(g is not None and bool(np.isfinite(g).all()), f"stand-in parameter {i} has no finite gradient")


def attribute_accuracy_reference(
    codec: SceneCodec, targets: list[TokenizedScene], generated: list[TokenizedScene], scored: list[np.ndarray]
) -> dict[str, dict[str, float]]:
    """One boolean-mask pass over the stacked grids; PAD targets are not scored."""
    t = np.stack([g.tokens for g in targets])
    g = np.stack([g.tokens for g in generated])
    pads = np.array([-1 if c.pad_id is None else c.pad_id for c in codec.columns])
    sel = np.stack(scored) & (t != pads)
    out = {}
    for name, (lo, hi) in ATTRIBUTE_COLUMNS.items():
        m = sel[..., lo:hi]
        total = int(m.sum())
        diff = np.abs(g[..., lo:hi] - t[..., lo:hi])[m]
        entry = {"exact": int((diff == 0).sum()) / total if total else 0.0, "count": total}
        if name in LAYOUT_ATTRIBUTES:
            entry["within_one_bin"] = int((diff <= 1).sum()) / total if total else 0.0
        out[name] = entry
    return out


def check_attribute_accuracy(got: dict, want: dict) -> None:
    require(got == want, f"attribute_accuracy {got} != reference {want}")


def check_irecall(value: float) -> None:
    require(value == 100.0, f"irecall of instructions against their own source scenes is {value!r}, not 100")


def sampled_region(a: GeometryFrame, b: GeometryFrame) -> float:
    """Volume of the overlap of the two boxes' axis-aligned bounds, where monte_carlo_volume samples."""
    lo, hi = [], []
    for f in (a, b):
        xy = np.asarray(footprint_corners(f))
        lo.append([*xy.min(axis=0), f.center[2] - f.half_extents[2]])
        hi.append([*xy.max(axis=0), f.center[2] + f.half_extents[2]])
    return float(np.prod(np.clip(np.min(hi, axis=0) - np.max(lo, axis=0), 0.0, None)))


def check_monte_carlo(
    pairs: list[tuple[GeometryFrame, GeometryFrame]], rng: np.random.Generator, volume=obb_intersection_volume
) -> None:
    """Exact volumes agree with Monte-Carlo estimates, by an exact binomial test.

    If a pair's exact volume is right, the number of the MC_SAMPLES points
    that hit it is binomial with p = exact / sampled region. The check fails
    when the tail beyond the observed hit count is below MC_ALPHA / 2, which
    a correct volume does as often as it falls outside 4 standard errors
    under a normal approximation. Unlike that approximation, the test holds
    when a pair barely touches and few or no points hit it.
    """
    for i, (a, b) in enumerate(pairs):
        exact = volume(a, b)
        estimate, _ = monte_carlo_volume(a, b, MC_SAMPLES, rng)
        region = sampled_region(a, b)
        require(0.0 <= exact <= region * (1 + 1e-9), f"pair {i}: exact volume {exact!r} outside [0, {region!r}]")
        p = min(exact / region, 1.0) if region else 0.0
        hits = round(estimate / region * MC_SAMPLES) if region else 0
        tail = min(bdtr(hits, MC_SAMPLES, p), 1.0 if hits == 0 else bdtrc(hits - 1, MC_SAMPLES, p))
        require(
            tail >= MC_ALPHA / 2,
            f"pair {i}: exact volume {exact!r} vs Monte-Carlo {estimate!r} "
            f"({hits} of {MC_SAMPLES} points hit; tail probability {tail:.3g})",
        )
