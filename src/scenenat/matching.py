"""Bipartite set-matching losses: Hungarian assignment of ground-truth
relation triplets to prediction queries, the matched triplet loss, and the
masked-token reconstruction loss.

triplet_loss assigns with the loss's own per-pair cost, so the matched loss
is never above that of any other assignment. It takes one log-softmax per
head and uses it for both the assignment cost and the loss. matching_cost is
the DETR-style negative-probability cost (Carion et al., arXiv 2005.12872),
kept only as a diagnostic; nothing in the loss assigns with it. hungarian is
the one assignment entry point; it row- and column-reduces a square cost
before scipy solves it.

Both take one ground-truth contract, checked in one place (_classes). The
three heads are [Q, classes] with one Q. gt is an int [J, 3] ndarray of
(subject, predicate, object) class ids, as encode_triplets makes from a
RelationTable, and each id lies below its head's null class (the last). Any
other input raises ShapeError. Only the first min(J, Q) triplets are matched;
triplet_loss counts the ones it cuts in truncated_triplet_count(), and
matching_cost returns the [min(J, Q), Q] cost of the kept ones. The loss is
one weighted-NLL node of scenenat.tensor whose inputs are the logits it reads;
this module builds the assignment, targets and weights, and tensor owns the
float arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import tensor as tn
from .relations import RelationTable
from .scene import ATTRIBUTE_COLUMNS, SceneCodec
from .tensor import Tensor

_truncated_triplets = 0


def truncated_triplet_count() -> int:
    return _truncated_triplets


@dataclass(frozen=True)
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
            if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy reals pass, np.bool_ does not
                raise ValueError(f"loss weight {name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"loss weight {name} must be finite and non-negative, got {value}")


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost assignment of J rows to distinct columns, J <= K.

    Returns sigma with sigma[j] the column assigned to row j. A square,
    non-empty cost is first reduced as in Kuhn-Munkres steps 1-2: each row's
    minimum is subtracted into a new array (the caller's is never written),
    then each column's minimum in place. A square assignment takes every row
    and every column once, so this moves every assignment's total by one
    constant and keeps the set of optimal ones; scipy's solver, which starts
    from zero duals, then begins nearer the optimum. A rectangular cost
    (rows < cols) goes to scipy unreduced, as a column shift there is not
    exact when some columns stay free. Among equal-cost assignments, and
    near-ties that the subtraction's rounding can reorder, the choice is
    scipy's on the cost it is given, so callers must not rely on a
    particular tie-break.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    rows, cols = cost.shape
    if rows > cols:
        raise ValueError(f"need rows <= cols, got {rows}x{cols}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    if rows == cols and rows:
        cost = cost - cost.min(axis=1, keepdims=True)
        cost -= cost.min(axis=0)
    return linear_sum_assignment(cost)[1]


def _classes(gt, heads) -> tuple[np.ndarray, int]:
    """The [3, min(J, Q)] classes of the triplets kept, and the number cut, after checking the contract.

    The [3, J] class table is C-contiguous whatever gt's layout, so each head's range check runs along a J-long row.
    """
    shapes = [logits.shape for logits in heads]
    if any(len(shape) != 2 or shape[0] != shapes[0][0] for shape in shapes):
        raise tn.ShapeError(f"triplet heads must be [queries, classes], got {shapes}")
    if not (isinstance(gt, np.ndarray) and gt.ndim == 2 and gt.shape[1] == 3 and gt.dtype.kind in "iu"):
        got = f"{gt.dtype} {gt.shape}" if isinstance(gt, np.ndarray) else type(gt).__name__
        raise tn.ShapeError(f"triplet gt must be an int [J, 3] ndarray, got {got}")
    classes = np.ascontiguousarray(gt.T, dtype=np.int64)
    n_q, widths = shapes[0][0], [shape[1] for shape in shapes]
    if classes.size and (classes.min() < 0 or (classes.max(axis=1) >= np.array(widths) - 1).any()):
        raise tn.ShapeError(f"triplet gt has classes outside heads of {widths}")
    return classes[:, :n_q], max(classes.shape[1] - n_q, 0)


def matching_cost(
    gt: np.ndarray,
    subject_logits: np.ndarray,
    predicate_logits: np.ndarray,
    object_logits: np.ndarray,
) -> np.ndarray:
    """Cost[j, k] = -(P_s + P_p + P_o) of ground-truth triplet j under query k, for the min(J, Q) kept.

    A DETR-style diagnostic; triplet_loss does not assign with it. It takes
    the module's ground-truth contract, so it keeps the same triplets as
    triplet_loss but counts none.
    """
    heads = (subject_logits, predicate_logits, object_logits)
    classes, _ = _classes(gt, heads)
    cost = np.zeros((classes.shape[1], subject_logits.shape[0]))
    for logits, c in zip(heads, classes):
        cost -= np.exp(tn.log_softmax_array(logits))[:, c].T
    return cost


def encode_triplets(table: RelationTable, codec: SceneCodec) -> np.ndarray:
    """The int64 [J, 3] (subject id, predicate id, object id) class targets of a table, canonically sorted.

    Sorting makes the eventual assignment independent of row order, so the
    loss is bitwise permutation-invariant. Only the categories that the rows
    use are looked up; an unknown one raises ValueError.
    """
    classes = table.rows.astype(np.int64)
    used, inverse = np.unique(classes[:, 0::2], return_inverse=True)
    ids = np.array([codec.category_id(table.categories[i]) for i in used.tolist()], dtype=np.int64)
    classes[:, 0::2] = ids[inverse].reshape(-1, 2)
    return classes[np.lexsort(classes.T[::-1])]


def triplet_loss(
    gt: np.ndarray,
    subject_logits: Tensor,
    predicate_logits: Tensor,
    object_logits: Tensor,
    weights: LossWeights,
) -> Tensor:
    """Hungarian-matched weighted cross-entropy over all queries (Eq. sum form).

    Each head is [Q, classes]. Unmatched queries are supervised with the null
    class (last index of each head), down-weighted by weights.null_class.
    Query k takes triplet j at cost sum over heads of lambda * (CE(gt_j) -
    null_class * CE(null)), the loss's change from null to gt_j, so the
    matched loss is the minimum over all assignments. The triplets past the
    Q queries are cut, after every id is checked, and counted.
    """
    global _truncated_triplets
    heads = ((subject_logits, weights.subject), (predicate_logits, weights.predicate), (object_logits, weights.object))
    classes, cut = _classes(gt, [logits for logits, _ in heads])
    _truncated_triplets += cut
    n_q = subject_logits.data.shape[0]
    log_probs = [tn.log_softmax_array(logits.data) for logits, _ in heads]
    cost = None
    for lp, (_, lam), c in zip(log_probs, heads, classes):
        term = lam * (weights.null_class * lp[:, -1] - lp.T[c])  # CE(gt_j) - null_class * CE(null)
        if cost is None:
            cost = term.astype(np.float64, copy=False)
        else:
            cost += term
    sigma = hungarian(cost)

    targets = np.empty((len(heads), n_q), dtype=np.int64)
    targets.T[:] = [lp.shape[-1] - 1 for lp in log_probs]  # the null classes
    targets[:, sigma] = classes
    terms = []
    for lp, (logits, lam), t in zip(log_probs, heads, targets):
        w = np.full(n_q, weights.null_class, dtype=lp.dtype)
        w[sigma] = 1.0
        terms.append((logits, None, lp, t, w, lam, 1))
    return tn._summed_nll(terms)


def recon_loss(logits: dict[str, Tensor], targets: np.ndarray, weights: LossWeights) -> Tensor:
    """Per-attribute cross-entropy over the supervised grid positions.

    logits maps attribute name to [B, N, columns, width] (category/rotation
    have a single column). targets is [B, N, 12] with -1 at unsupervised
    positions. PAD targets (the empty-row filler, the head width) are skipped;
    any other target outside the head's classes raises ShapeError. Each
    attribute's term is its mean negative log-likelihood over its own
    positions, scaled by its weight. Only attributes with a supervised
    position are inputs of the loss's node; with none, the loss is a
    constant zero.
    """
    terms = []
    for name, (lo, hi) in ATTRIBUTE_COLUMNS.items():
        t = logits[name]
        width = t.data.shape[-1]
        flat_logits = t.data.reshape(-1, width)
        flat_targets = targets[:, :, lo:hi].reshape(-1)
        if flat_logits.shape[0] != flat_targets.shape[0]:
            raise tn.ShapeError(f"recon_loss: {name} logits {t.shape} for targets {targets[:, :, lo:hi].shape}")
        if flat_targets.min(initial=-1) < -1 or flat_targets.max(initial=width) > width:
            raise tn.ShapeError(f"recon_loss: {name} targets outside -1, the {width} head classes and PAD ({width})")
        selected = np.nonzero((flat_targets >= 0) & (flat_targets < width))[0]
        if selected.size == 0:
            continue
        log_probs = tn.log_softmax_array(flat_logits[selected])
        w = np.ones(selected.size, dtype=log_probs.dtype)
        terms.append((t, selected, log_probs, flat_targets[selected], w, getattr(weights, name), selected.size))
    if not terms:
        return Tensor(np.zeros((), dtype=next(iter(logits.values())).data.dtype))
    return tn._summed_nll(terms)


def total_loss(recon: Tensor, triplet: Tensor, weights: LossWeights) -> Tensor:
    return tn.add(recon, tn.scale(triplet, weights.triplet))
