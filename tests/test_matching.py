import functools
import itertools
import math

import numpy as np
import pytest

from scenenat.matching import (
    LossWeights,
    encode_triplets,
    hungarian,
    matching_cost,
    recon_loss,
    total_loss,
    triplet_loss,
)
from scenenat.relations import RelationPredicate, RelationTriplet, extract_triplets
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject
from scenenat.tensor import Tensor


@functools.cache
def injections(rows: int, cols: int) -> np.ndarray:
    """Every injective map of rows into cols, one per row of the result."""
    return np.array(list(itertools.permutations(range(cols), rows)), dtype=np.intp).reshape(-1, rows)


def brute_force_min(cost: np.ndarray) -> float:
    rows, cols = cost.shape
    return float(cost[np.arange(rows), injections(rows, cols)].sum(axis=1).min())


def assignment_total(cost):
    sigma = hungarian(cost)
    return float(sum(cost[j, sigma[j]] for j in range(cost.shape[0])))


def test_hungarian_two_by_two():
    cost = np.array([[1.0, 2.0], [3.0, 1.0]])
    sigma = hungarian(cost)
    np.testing.assert_array_equal(sigma, [0, 1])
    assert assignment_total(cost) == 2.0


def test_hungarian_diagonal_identity():
    cost = np.full((4, 4), 9.0)
    np.fill_diagonal(cost, 0.0)
    np.testing.assert_array_equal(hungarian(cost), [0, 1, 2, 3])


def test_hungarian_matches_brute_force_square_and_rect():
    rng = np.random.default_rng(0)
    for trial in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(rows, 8))
        cost = rng.standard_normal((rows, cols))
        sigma = hungarian(cost)
        assert len(set(sigma.tolist())) == rows  # injective
        total = sum(cost[j, sigma[j]] for j in range(rows))
        assert total == pytest.approx(brute_force_min(cost), abs=1e-9)


def test_hungarian_rejects_bad_input():
    with pytest.raises(ValueError):
        hungarian(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 1.0]]))


def test_matching_cost_uniform_logits():
    n_q, vocab = 4, 5
    zeros = np.zeros((n_q, vocab))
    cost = matching_cost([(0, 1, 2)], zeros, zeros, zeros)
    np.testing.assert_allclose(cost, np.full((1, n_q), -3.0 / vocab))


def test_matching_cost_confident_query_attains_bound():
    n_q, vocab = 3, 5
    logits = np.zeros((n_q, vocab))
    logits[1] = -1e9
    logits[1, 2] = 1e9
    cost = matching_cost([(2, 2, 2)], logits, logits, logits)
    assert cost[0, 1] == pytest.approx(-3.0)
    assert cost[0, 1] == cost.min()
    assert (cost >= -3.0 - 1e-12).all() and (cost <= 0.0 + 1e-12).all()


def make_codec():
    return SceneCodec(["bed", "chair", "desk", "lamp"], DiscretizationSpec(), max_objects=4)


def random_heads(rng, n_q=4, n_cat=6, n_pred=11, grad=False):
    return (
        Tensor(rng.standard_normal((n_q, n_cat)), requires_grad=grad),
        Tensor(rng.standard_normal((n_q, n_pred)), requires_grad=grad),
        Tensor(rng.standard_normal((n_q, n_cat)), requires_grad=grad),
    )


def test_triplet_loss_all_null_case():
    n_q, n_cat, n_pred = 4, 6, 11
    zero_s = Tensor(np.zeros((n_q, n_cat)))
    zero_p = Tensor(np.zeros((n_q, n_pred)))
    zero_o = Tensor(np.zeros((n_q, n_cat)))
    loss = triplet_loss([], zero_s, zero_p, zero_o, LossWeights())
    expected = 0.1 * (n_q * np.log(n_cat) * 2 + n_q * np.log(n_pred))
    assert loss.item() == pytest.approx(expected, rel=1e-9)


def test_triplet_loss_vanishes_for_perfect_prediction():
    n_q, n_cat, n_pred = 4, 6, 11
    gt = [(0, 3, 1), (2, 5, 0)]
    s = np.full((n_q, n_cat), -100.0)
    p = np.full((n_q, n_pred), -100.0)
    o = np.full((n_q, n_cat), -100.0)
    for k, (cs, cp, co) in enumerate(gt):
        s[k, cs] = 100.0
        p[k, cp] = 100.0
        o[k, co] = 100.0
    for k in range(len(gt), n_q):
        s[k, n_cat - 1] = 100.0
        p[k, n_pred - 1] = 100.0
        o[k, n_cat - 1] = 100.0
    loss = triplet_loss(gt, Tensor(s), Tensor(p), Tensor(o), LossWeights())
    assert loss.item() < 1e-12


def assignment_loss(gt, queries, s, p, o, weights):
    """The triplet loss when ground-truth triplet j is assigned to query queries[j]."""
    n_q = s.data.shape[0]
    targets_s = np.full(n_q, s.data.shape[-1] - 1)
    targets_p = np.full(n_q, p.data.shape[-1] - 1)
    targets_o = np.full(n_q, o.data.shape[-1] - 1)
    for q, (cs, cp, co) in zip(queries, gt):
        targets_s[q], targets_p[q], targets_o[q] = cs, cp, co
    from scenenat import tensor as tn

    def ce(logits, targets, null):
        w = np.ones(logits.data.shape[-1])
        w[null] = weights.null_class
        return tn.cross_entropy(logits, targets, class_weights=w, reduction="sum").item()

    return (
        weights.subject * ce(s, targets_s, s.data.shape[-1] - 1)
        + weights.predicate * ce(p, targets_p, p.data.shape[-1] - 1)
        + weights.object * ce(o, targets_o, o.data.shape[-1] - 1)
    )


def test_hungarian_loss_never_exceeds_identity_assignment():
    rng = np.random.default_rng(1)
    weights = LossWeights()
    for _ in range(1000):
        n_t = int(rng.integers(1, 5))
        gt = [
            (int(rng.integers(5)), int(rng.integers(10)), int(rng.integers(5)))
            for _ in range(n_t)
        ]
        gt = sorted(gt)
        s, p, o = random_heads(rng)
        matched = triplet_loss(gt, s, p, o, weights).item()
        identity = assignment_loss(gt, range(len(gt)), s, p, o, weights)
        assert matched <= identity + 1e-9


def test_matched_loss_is_minimum_over_every_assignment():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_q = int(rng.integers(1, 5))
        n_t = int(rng.integers(0, n_q + 1))
        gt = sorted((int(rng.integers(5)), int(rng.integers(10)), int(rng.integers(5))) for _ in range(n_t))
        weights = LossWeights(*rng.uniform(0.2, 2.0, size=3), null_class=float(rng.uniform(0.05, 1.0)))
        s, p, o = random_heads(rng, n_q=n_q)
        matched = triplet_loss(gt, s, p, o, weights).item()
        every = [assignment_loss(gt, q, s, p, o, weights) for q in itertools.permutations(range(n_q), n_t)]
        assert matched == pytest.approx(min(every), abs=1e-9)  # so matched <= every assignment


def test_triplet_loss_permutation_invariant_bitwise():
    rng = np.random.default_rng(2)
    codec = make_codec()
    triplets = [
        RelationTriplet("bed", RelationPredicate.LEFT_OF, "chair"),
        RelationTriplet("desk", RelationPredicate.ABOVE, "lamp"),
        RelationTriplet("chair", RelationPredicate.BEHIND, "desk"),
    ]
    s, p, o = random_heads(rng, n_cat=codec.num_classes + 1)
    weights = LossWeights()
    base = triplet_loss(encode_triplets(triplets, codec), s, p, o, weights).item()
    for perm in itertools.permutations(triplets):
        value = triplet_loss(encode_triplets(list(perm), codec), s, p, o, weights).item()
        assert value == base  # bitwise


def test_encode_table_equals_encode_of_its_triplets():
    rng = np.random.default_rng(8)
    codec = make_codec()
    for n in (0, 1, 2, 8, 8, 8):
        objects = [
            SceneObject(
                codec.categories[int(rng.integers(len(codec.categories)))],
                (0, 0, 0, 0),
                (*rng.uniform(-1.5, 1.5, size=2), float(rng.uniform(0, 2))),
                tuple(rng.uniform(0.1, 1.5, size=3)),
                float(rng.uniform(0, 360)),
            )
            for _ in range(n)
        ]
        table = extract_triplets(SceneLayout("bedroom", objects))
        encoded = encode_triplets(table, codec)
        assert encoded == encode_triplets(list(table), codec)
        assert all(type(v) is int for row in encoded for v in row)


def test_triplet_loss_truncates_excess_ground_truth():
    rng = np.random.default_rng(3)
    s, p, o = random_heads(rng, n_q=2)
    gt = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    loss = triplet_loss(gt, s, p, o, LossWeights())
    assert np.isfinite(loss.item())


def test_recon_loss_uniform_single_token():
    n_classes = 7
    logits = {
        "category": Tensor(np.zeros((1, 2, n_classes))),
        "appearance": Tensor(np.zeros((1, 2, 4, 64))),
        "position": Tensor(np.zeros((1, 2, 3, 64))),
        "size": Tensor(np.zeros((1, 2, 3, 64))),
        "rotation": Tensor(np.zeros((1, 2, 36))),
    }
    targets = np.full((1, 2, 12), -1)
    targets[0, 0, 0] = 3
    loss = recon_loss(logits, targets, LossWeights())
    assert loss.item() == pytest.approx(np.log(n_classes))


def test_recon_loss_skips_absent_attributes():
    logits = {
        "category": Tensor(np.zeros((1, 1, 4))),
        "appearance": Tensor(np.zeros((1, 1, 4, 64))),
        "position": Tensor(np.zeros((1, 1, 3, 64))),
        "size": Tensor(np.zeros((1, 1, 3, 64))),
        "rotation": Tensor(np.zeros((1, 1, 36))),
    }
    targets = np.full((1, 1, 12), -1)
    targets[0, 0, 5] = 10
    loss = recon_loss(logits, targets, LossWeights(position=2.0))
    assert loss.item() == pytest.approx(2.0 * np.log(64))


def test_recon_mean_equals_position_by_position_nll():
    rng = np.random.default_rng(4)
    B, N = 2, 3
    logits = {
        "category": Tensor(rng.standard_normal((B, N, 5))),
        "appearance": Tensor(rng.standard_normal((B, N, 4, 64))),
        "position": Tensor(rng.standard_normal((B, N, 3, 64))),
        "size": Tensor(rng.standard_normal((B, N, 3, 64))),
        "rotation": Tensor(rng.standard_normal((B, N, 36))),
    }
    targets = np.full((B, N, 12), -1)
    widths = [5] + [64] * 4 + [64] * 3 + [64] * 3 + [36]
    for b in range(B):
        for i in range(N):
            for c in range(12):
                if rng.random() < 0.5:
                    targets[b, i, c] = int(rng.integers(widths[c]))

    got = recon_loss(logits, targets, LossWeights()).item()

    # independent position-by-position negative log-likelihood
    def log_softmax(x):
        x = x - x.max()
        return x - np.log(np.exp(x).sum())

    column_of = {0: ("category", 0), 11: ("rotation", 0)}
    for c in range(1, 5):
        column_of[c] = ("appearance", c - 1)
    for c in range(5, 8):
        column_of[c] = ("position", c - 5)
    for c in range(8, 11):
        column_of[c] = ("size", c - 8)
    nll = {}
    for b in range(B):
        for i in range(N):
            for c in range(12):
                t = targets[b, i, c]
                if t < 0:
                    continue
                name, sub = column_of[c]
                row = logits[name].data[b, i] if name in ("category", "rotation") else logits[name].data[b, i, sub]
                nll.setdefault(name, []).append(-log_softmax(row)[t])
    # each attribute averages over its own positions; the weights are all 1
    assert got == pytest.approx(sum(np.mean(v) for v in nll.values()), abs=1e-6)


def test_recon_loss_directional_sanity():
    logits_data = np.zeros((1, 1, 4))
    targets = np.full((1, 1, 12), -1)
    targets[0, 0, 0] = 2

    def loss_at(bump):
        data = logits_data.copy()
        data[0, 0, 2] += bump
        logits = {
            "category": Tensor(data),
            "appearance": Tensor(np.zeros((1, 1, 4, 64))),
            "position": Tensor(np.zeros((1, 1, 3, 64))),
            "size": Tensor(np.zeros((1, 1, 3, 64))),
            "rotation": Tensor(np.zeros((1, 1, 36))),
        }
        return recon_loss(logits, targets, LossWeights()).item()

    assert loss_at(0.1) < loss_at(0.0)


def test_total_loss_linearity():
    recon = Tensor(np.asarray(2.0))
    triplet = Tensor(np.asarray(3.0))
    assert total_loss(recon, triplet, LossWeights(triplet=0.0)).item() == 2.0
    assert total_loss(recon, triplet, LossWeights(triplet=1.0)).item() == 5.0
    assert total_loss(recon, triplet, LossWeights(triplet=2.0)).item() == 8.0


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_loss_weights_reject_negative_and_non_finite(value):
    with pytest.raises(ValueError, match="loss weight subject must be finite and non-negative"):
        LossWeights(subject=value)
    with pytest.raises(ValueError, match="loss weight null_class must be finite and non-negative"):
        LossWeights(null_class=value)
