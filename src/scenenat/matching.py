"""Bipartite set-matching losses: Hungarian assignment of ground-truth
relation triplets to prediction queries, the matched triplet loss, and the
masked-token reconstruction loss.

triplet_loss assigns with the loss's own per-pair cost, so the matched loss
is never above that of any other assignment. matching_cost is the DETR-style
negative-probability cost (Carion et al., arXiv 2005.12872), kept only as a
diagnostic; nothing in the loss assigns with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as tn
from .relations import RelationTable, RelationTriplet, predicate_id
from .scene import ATTRIBUTE_COLUMNS, SceneCodec
from .tensor import Tensor

_truncated_triplets = 0


def truncated_triplet_count() -> int:
    return _truncated_triplets


@dataclass
class LossWeights:
    subject: float = 1.0
    predicate: float = 1.0
    object: float = 1.0
    category: float = 1.0
    appearance: float = 1.0
    position: float = 1.0
    size: float = 1.0
    rotation: float = 1.0
    triplet: float = 1.0
    null_class: float = 0.1

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"loss weight {name} must be non-negative")


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment of J rows to distinct columns, J <= K.

    Returns sigma with sigma[j] the column assigned to row j. Among
    equal-cost assignments the choice is scipy's, so callers must not rely
    on a particular tie-break.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    rows, cols = cost.shape
    if rows > cols:
        raise ValueError(f"need rows <= cols, got {rows}x{cols}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    return linear_sum_assignment(cost)[1]


def matching_cost(
    gt: list[tuple[int, int, int]],
    subject_logits: np.ndarray,
    predicate_logits: np.ndarray,
    object_logits: np.ndarray,
) -> np.ndarray:
    """Cost[j, k] = -(P_s + P_p + P_o) of ground-truth triplet j under query k.

    The DETR-style probability cost, kept as a diagnostic; triplet_loss does
    not assign with it.
    """
    n_q = subject_logits.shape[0]
    if len(gt) > n_q:
        raise ValueError(f"{len(gt)} ground-truth triplets exceed {n_q} queries")
    classes = np.asarray(gt, dtype=np.int64).reshape(-1, 3).T
    cost = np.zeros((len(gt), n_q))
    for logits, c in zip((subject_logits, predicate_logits, object_logits), classes):
        cost -= np.exp(tn.log_softmax_array(logits))[:, c].T
    return cost


def encode_triplets(triplets: RelationTable | list[RelationTriplet], codec: SceneCodec) -> list[tuple[int, int, int]]:
    """(subject id, predicate id, object id) class targets, canonically sorted.

    Sorting makes the eventual assignment independent of input list order,
    so the loss is bitwise permutation-invariant. A table is encoded with one
    category-id lookup per instance and one lexsort over its rows.
    """
    if isinstance(triplets, RelationTable):
        cat = np.array([codec.category_id(c) for c in triplets.categories], dtype=np.int64)
        rows = triplets.rows
        s, p, o = cat[rows[:, 0]], rows[:, 1], cat[rows[:, 2]]
        order = np.lexsort((o, p, s))
        return list(zip(s[order].tolist(), p[order].tolist(), o[order].tolist()))
    encoded = [
        (codec.category_id(t.subject), predicate_id(t.predicate), codec.category_id(t.object))
        for t in triplets
    ]
    return sorted(encoded)


def triplet_loss(
    gt: list[tuple[int, int, int]],
    subject_logits: Tensor,
    predicate_logits: Tensor,
    object_logits: Tensor,
    weights: LossWeights,
) -> Tensor:
    """Hungarian-matched weighted cross-entropy over all queries (Eq. sum form).

    Unmatched queries are supervised with the null class (last index of each
    head), down-weighted by weights.null_class. Query k takes triplet j at
    cost sum over heads of lambda * (CE(gt_j) - null_class * CE(null)), the
    loss's change from null to gt_j, so the matched loss is the minimum over
    all assignments.
    """
    global _truncated_triplets
    n_q = subject_logits.data.shape[0]
    if len(gt) > n_q:
        _truncated_triplets += len(gt) - n_q
        gt = gt[:n_q]
    heads = ((subject_logits, weights.subject), (predicate_logits, weights.predicate), (object_logits, weights.object))
    classes = np.asarray(gt, dtype=np.int64).reshape(-1, 3).T
    cost = np.zeros((len(gt), n_q))
    for (logits, lam), c in zip(heads, classes):
        nll = -tn.log_softmax_array(logits.data)
        cost += lam * (nll[:, c].T - weights.null_class * nll[:, -1])
    sigma = hungarian(cost)

    loss = None
    for (logits, lam), c in zip(heads, classes):
        null_id = logits.data.shape[-1] - 1
        targets = np.full(n_q, null_id, dtype=np.int64)
        targets[sigma] = c
        class_w = np.ones(null_id + 1)
        class_w[null_id] = weights.null_class
        term = tn.scale(tn.cross_entropy(logits, targets, class_weights=class_w, reduction="sum"), lam)
        loss = term if loss is None else tn.add(loss, term)
    return loss


def recon_loss(logits: dict[str, Tensor], targets: np.ndarray, weights: LossWeights, reduction: str = "mean") -> Tensor:
    """Per-attribute cross-entropy over the supervised grid positions.

    logits maps attribute name to [B, N, columns, width] (category/rotation
    have a single column). targets is [B, N, 12] with -1 at unsupervised
    positions. PAD targets (empty-row filler outside the heads' vocabulary)
    are skipped. "mean" averages each attribute over its own positions;
    "sum" yields the plain negative log-likelihood total over positions.
    """
    total = None
    for name, (lo, hi) in ATTRIBUTE_COLUMNS.items():
        t = logits[name]
        width = t.data.shape[-1]
        flat_logits = tn.reshape(t, (-1, width))
        flat_targets = targets[:, :, lo:hi].reshape(-1)
        selected = np.nonzero((flat_targets >= 0) & (flat_targets < width))[0]
        if selected.size == 0:
            continue
        rows = tn.embedding_lookup(flat_logits, selected)
        term = tn.cross_entropy(rows, flat_targets[selected], reduction=reduction)
        term = tn.scale(term, getattr(weights, name))
        total = term if total is None else tn.add(total, term)
    if total is None:
        total = Tensor(np.zeros((), dtype=next(iter(logits.values())).data.dtype))
    return total


def total_loss(recon: Tensor, triplet: Tensor, weights: LossWeights) -> Tensor:
    return tn.add(recon, tn.scale(triplet, weights.triplet))
