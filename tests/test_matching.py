import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from scenenat import matching
from scenenat import tensor as tn
from scenenat.matching import (
    ATTRIBUTE_COLUMNS,
    LossWeights,
    encode_triplets,
    hungarian,
    matching_cost,
    recon_loss,
    total_loss,
    triplet_loss,
)
from scenenat.evaluation import irecall
from scenenat.instructions import build_word_vocab, synthesize_instruction
from scenenat.relations import RELATION_SET, RelationPredicate, RelationTable, extract_triplets
from scenenat.scene import SceneCodec, SceneLayout, SceneObject
from scenenat.tensor import ShapeError, Tensor

from support import check_gradients, count_calls, make_codec


@functools.cache
def injections(rows: int, cols: int) -> np.ndarray:
    """Every injective map of rows into cols, one per row of the result."""
    return np.array(list(itertools.permutations(range(cols), rows)), dtype=np.intp).reshape(-1, rows)


def int_gt(rows) -> np.ndarray:
    """Ground truth as the matchers take it: an int64 [J, 3] array."""
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


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


def cost_of_kind(kind: str, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    noise = rng.random((rows, cols))
    if kind == "column-dominated":  # like an untrained model: a few queries are cheap for every triplet
        return 10.0 * rng.random(cols) + noise
    if kind == "row-dominated":
        return 10.0 * rng.random((rows, 1)) + noise
    if kind == "duplicate-rows":  # repeated ground-truth triplets give identical cost rows
        return noise[rng.integers(0, max(rows // 4, 1), rows)]
    if kind == "small-integer-ties":
        return rng.integers(0, 3, (rows, cols)).astype(np.float64)
    if kind == "negative":
        return -5.0 * noise - 1.0
    if kind == "offset":
        return 1e6 + noise
    return noise


COST_KINDS = ("uniform", "column-dominated", "row-dominated", "duplicate-rows", "small-integer-ties", "negative", "offset")


@given(
    st.integers(1, 64),
    st.integers(1, 64),
    st.booleans(),
    st.sampled_from(COST_KINDS),
    st.integers(0, 2**32 - 1),
)
def test_reduced_hungarian_reaches_the_raw_optimum(a, b, square, kind, seed):
    rows, cols = (a, a) if square else (min(a, b), max(a, b))
    cost = cost_of_kind(kind, rows, cols, np.random.default_rng(seed))
    sigma = hungarian(cost)
    assert len(set(sigma.tolist())) == rows
    want_rows, want_cols = linear_sum_assignment(cost)
    got, want = cost[np.arange(rows), sigma].sum(), cost[want_rows, want_cols].sum()
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    if rows < cols:  # a rectangular cost goes to scipy as it is
        assert sigma.tobytes() == want_cols.tobytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda c: c,
        np.asfortranarray,
        lambda c: (c.setflags(write=False), c)[1],
        lambda c: c.astype(np.float32),
        lambda c: (10 * c).astype(np.int64),
    ],
    ids=["float64-C", "float64-F", "read-only", "float32", "int"],
)
def test_hungarian_never_writes_its_cost(make):
    cost = make(np.random.default_rng(3).random((16, 16)) + np.arange(16.0))
    before = cost.copy()
    sigma = hungarian(cost)
    assert cost.dtype == before.dtype and cost.tobytes() == before.tobytes()
    assert sorted(sigma.tolist()) == list(range(16))


def test_hungarian_keeps_its_edge_shapes():
    assert hungarian(np.zeros((0, 0))).size == 0
    assert hungarian(np.zeros((0, 5))).size == 0
    np.testing.assert_array_equal(hungarian(np.array([[-3.5]])), [0])
    with pytest.raises(ValueError):
        hungarian(np.zeros((2, 0)))


@pytest.mark.parametrize("gt", [int_gt([]), int_gt([(0, 3, 1), (2, 5, 0)])], ids=["no-triplets", "all-cut"])
def test_triplet_loss_with_no_queries_is_zero(gt):
    heads = [Tensor(np.zeros((0, n))) for n in (6, 11, 6)]
    before = matching.truncated_triplet_count()
    assert triplet_loss(gt, *heads, WEIGHTS).item() == 0.0
    assert matching.truncated_triplet_count() - before == len(gt)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_q", [16, 64])
def test_triplet_loss_on_a_duplicate_heavy_full_cut_is_bitwise_the_unreduced_one(n_q, dtype, monkeypatch):
    rng = np.random.default_rng(21)
    distinct = np.stack([rng.integers(0, n, 12) for n in (5, 10, 5)], axis=1)
    gt = distinct[rng.integers(0, len(distinct), 200)]
    data = triplet_data(rng, dtype, n_q=n_q)
    solved = []
    monkeypatch.setattr(matching, "linear_sum_assignment", lambda cost: (solved.append(cost), linear_sum_assignment(cost))[1])
    value, grads, _, _ = loss_and_grads(lambda t, g: triplet_loss(g, t["s"], t["p"], t["o"], WEIGHTS), data, gt)
    assert [c.shape for c in solved] == [(n_q, n_q)]
    reduced = solved[0]  # a zero in every row and every column: the reduced path ran
    assert (reduced.min(axis=0) == 0).all() and (reduced.min(axis=1) == 0).all()

    monkeypatch.setattr(matching, "hungarian", lambda cost: linear_sum_assignment(np.asarray(cost, np.float64))[1])
    want_value, want_grads, _, _ = loss_and_grads(lambda t, g: triplet_loss(g, t["s"], t["p"], t["o"], WEIGHTS), data, gt)
    assert value == want_value
    assert grads == want_grads


def test_matching_cost_uniform_logits():
    n_q, vocab = 4, 5
    zeros = np.zeros((n_q, vocab))
    cost = matching_cost(int_gt([(0, 1, 2)]), zeros, zeros, zeros)
    np.testing.assert_allclose(cost, np.full((1, n_q), -3.0 / vocab))


def test_matching_cost_confident_query_attains_bound():
    n_q, vocab = 3, 5
    logits = np.zeros((n_q, vocab))
    logits[1] = -1e9
    logits[1, 2] = 1e9
    cost = matching_cost(int_gt([(2, 2, 2)]), logits, logits, logits)
    assert cost[0, 1] == pytest.approx(-3.0)
    assert cost[0, 1] == cost.min()
    assert (cost >= -3.0 - 1e-12).all() and (cost <= 0.0 + 1e-12).all()


def random_heads(rng, n_q=4, n_cat=6):
    """Subject, predicate and object logits of n_q queries; the predicate head has 11 classes."""
    return tuple(Tensor(rng.standard_normal((n_q, n))) for n in (n_cat, 11, n_cat))


def test_triplet_loss_all_null_case():
    n_q, n_cat, n_pred = 4, 6, 11
    zero_s = Tensor(np.zeros((n_q, n_cat)))
    zero_p = Tensor(np.zeros((n_q, n_pred)))
    zero_o = Tensor(np.zeros((n_q, n_cat)))
    loss = triplet_loss(int_gt([]), zero_s, zero_p, zero_o, LossWeights())
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
    loss = triplet_loss(int_gt(gt), Tensor(s), Tensor(p), Tensor(o), LossWeights())
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
        gt = int_gt(sorted(gt))
        s, p, o = random_heads(rng)
        matched = triplet_loss(gt, s, p, o, weights).item()
        identity = assignment_loss(gt, range(len(gt)), s, p, o, weights)
        assert matched <= identity + 1e-9


def test_matched_loss_is_minimum_over_every_assignment():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_q = int(rng.integers(1, 5))
        n_t = int(rng.integers(0, n_q + 1))
        gt = int_gt(sorted((int(rng.integers(5)), int(rng.integers(10)), int(rng.integers(5))) for _ in range(n_t)))
        weights = LossWeights(*rng.uniform(0.2, 2.0, size=3), null_class=float(rng.uniform(0.05, 1.0)))
        s, p, o = random_heads(rng, n_q=n_q)
        matched = triplet_loss(gt, s, p, o, weights).item()
        every = [assignment_loss(gt, q, s, p, o, weights) for q in itertools.permutations(range(n_q), n_t)]
        assert matched == pytest.approx(min(every), abs=1e-9)  # so matched <= every assignment


def test_triplet_loss_permutation_invariant_bitwise():
    rng = np.random.default_rng(2)
    codec = make_codec()
    # bed left of chair, desk above lamp, chair behind desk
    left, above, behind = (RELATION_SET.index(RelationPredicate(p)) for p in ("left_of", "above", "behind"))
    rows = [[0, left, 1], [2, above, 3], [1, behind, 2]]
    s, p, o = random_heads(rng, n_cat=codec.empty_id + 1 + 1)  # the category classes, EMPTY included, then null
    weights = LossWeights()
    base = triplet_loss(encode_triplets(RelationTable(codec.categories, rows), codec), s, p, o, weights).item()
    for perm in itertools.permutations(rows):
        value = triplet_loss(encode_triplets(RelationTable(codec.categories, perm), codec), s, p, o, weights).item()
        assert value == base  # bitwise


def encode_oracle(table: RelationTable, codec: SceneCodec) -> list[list[int]]:
    """The sorted class ids of a table's triplets, read one row's triplet at a time."""
    ids = sorted((codec.category_id(t.subject), RELATION_SET.index(t.predicate), codec.category_id(t.object)) for t in table)
    return [list(row) for row in ids]


def assert_encodes_as_oracle(encoded: np.ndarray, table: RelationTable, codec: SceneCodec):
    assert encoded.dtype == np.int64 and encoded.shape == (len(table), 3)
    assert encoded.tolist() == encode_oracle(table, codec)


def test_encode_table_equals_encode_of_its_triplets(monkeypatch):
    # Encoding, instruction synthesis and iRecall read the int rows; none of them builds a row's triplet.
    reads = count_calls(monkeypatch, RelationTable, "_triplet")
    rng = np.random.default_rng(8)
    codec = make_codec()
    vocab = build_word_vocab(codec.categories)
    instructed = 0
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
        scene = SceneLayout("bedroom", objects)
        table = extract_triplets(scene)
        cases = [(table, encode_triplets(table, codec))]
        if len(table):
            instr = synthesize_instruction(scene, 4, rng, word_to_id=vocab, triplets=table)
            cases.append((instr.triplets, encode_triplets(instr.triplets, codec)))
            assert irecall([instr], [scene])[0] == 100.0
            instructed += 1
        assert reads == []
        for source, encoded in cases:
            assert_encodes_as_oracle(encoded, source, codec)
        reads.clear()
    assert instructed >= 3


@pytest.mark.parametrize(
    "rows", [np.zeros((0, 3), dtype=np.int64), [[0, 2, 1], [1, 2, 2], [0, 2, 1], [2, 9, 0], [1, 1, 0], [1, 2, 2], [0, 2, 1]]],
    ids=["empty", "repeated"],
)
def test_encode_list_equals_encode_of_its_table(rows):
    # the sorted list of the table's triplet ids
    codec = make_codec()
    table = RelationTable(["lamp", "bed", "chair"], rows)
    assert_encodes_as_oracle(encode_triplets(table, codec), table, codec)


@pytest.mark.parametrize("categories", [["bed", "sofa"], ["sofa", "bed"]], ids=["object", "subject"])
def test_encode_triplets_names_an_unknown_category(categories):
    table = RelationTable(categories, [[0, 3, 1]])
    with pytest.raises(ValueError, match="unknown category 'sofa'"):
        encode_triplets(table, make_codec())


def test_encode_triplets_looks_up_only_the_categories_its_rows_use():
    # no row uses the sofa, so its absence from the codec does not matter
    table = RelationTable(["bed", "chair", "sofa"], [[0, 3, 1]])
    assert encode_triplets(table, make_codec()).tolist() == [[0, 3, 1]]


def test_triplet_loss_truncates_excess_ground_truth():
    rng = np.random.default_rng(3)
    s, p, o = random_heads(rng, n_q=2)
    gt = int_gt([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    loss = triplet_loss(gt, s, p, o, LossWeights())
    assert np.isfinite(loss.item())


def test_triplet_loss_checks_every_class_before_truncating():
    # the bad third triplet lies past the two queries, so it would be dropped unchecked
    s, p, o = random_heads(np.random.default_rng(3), n_q=2)
    before = matching.truncated_triplet_count()
    with pytest.raises(ShapeError, match="outside heads"):
        triplet_loss(int_gt([(0, 0, 0), (1, 1, 1), (99, -5, 0)]), s, p, o, LossWeights())
    assert matching.truncated_triplet_count() == before


# Ground truth that breaks the matchers' contract, with the message each must raise: int [J, 3] arrays with a
# class outside the default 6 / 11 / 6-class random_heads (the last class of each is null), and inputs that are
# not an int [J, 3] ndarray at all.
OUTSIDE = "classes outside heads"
NOT_INT_J_3 = r"gt must be an int \[J, 3\] ndarray"
OUTSIDE_HEADS = {
    "negative": (int_gt([(-1, 0, 0)]), OUTSIDE),
    "subject-null": (int_gt([(5, 0, 0)]), OUTSIDE),
    "predicate-null": (int_gt([(0, 10, 0)]), OUTSIDE),
    "object-null": (int_gt([(0, 0, 5)]), OUTSIDE),
    "predicate-null+1": (int_gt([(0, 11, 0)]), OUTSIDE),
    "object-null+1": (int_gt([(0, 0, 6)]), OUTSIDE),
    "two-rows-of-six": (np.zeros((2, 6), dtype=int), NOT_INT_J_3),
    "flat-0-1-2": ([0, 1, 2], NOT_INT_J_3),
    "flat-1-2-3": ([1, 2, 3], NOT_INT_J_3),
    "float": (np.full((1, 3), 0.7), NOT_INT_J_3),
    "ragged-pairs": ([(0, 1), (2,)], NOT_INT_J_3),
    "ragged-rows": ([[0, 1, 2], [1, 2]], NOT_INT_J_3),
    "list-of-triplets": ([(0, 1, 2)], NOT_INT_J_3),
    "empty-list": ([], NOT_INT_J_3),
    "flat-array": (np.array([0, 1, 2]), NOT_INT_J_3),
    "bool": (np.zeros((1, 3), dtype=bool), NOT_INT_J_3),
}


@pytest.mark.parametrize("gt, message", OUTSIDE_HEADS.values(), ids=OUTSIDE_HEADS.keys())
def test_triplet_loss_rejects_classes_outside_heads(gt, message):
    s, p, o = random_heads(np.random.default_rng(0))
    with pytest.raises(ShapeError, match=message):
        triplet_loss(gt, s, p, o, LossWeights())


@pytest.mark.parametrize("gt, message", OUTSIDE_HEADS.values(), ids=OUTSIDE_HEADS.keys())
def test_matching_cost_rejects_classes_outside_heads(gt, message):
    s, p, o = random_heads(np.random.default_rng(0))
    with pytest.raises(ShapeError, match=message):
        matching_cost(gt, s.data, p.data, o.data)


MISMATCHED_HEADS = pytest.mark.parametrize("p_shape", [(3, 11), (4, 2, 11)], ids=["fewer-queries", "3-d"])


@MISMATCHED_HEADS
def test_triplet_loss_rejects_mismatched_heads(p_shape):
    s, _, o = random_heads(np.random.default_rng(0))
    with pytest.raises(ShapeError, match="queries, classes"):
        triplet_loss(int_gt([(0, 0, 0)]), s, Tensor(np.zeros(p_shape)), o, LossWeights())


@MISMATCHED_HEADS
def test_matching_cost_rejects_mismatched_heads(p_shape):
    s, _, o = random_heads(np.random.default_rng(0))
    with pytest.raises(ShapeError, match="queries, classes"):
        matching_cost(int_gt([(0, 0, 0)]), s.data, np.zeros(p_shape), o.data)


@given(
    n_q=st.integers(1, 6),
    n_t=st.integers(0, 10),
    widths=st.tuples(st.integers(2, 7), st.integers(2, 12), st.integers(2, 7)),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_matchers_keep_the_first_q_triplets_and_only_the_loss_counts_the_cut(n_q, n_t, widths, dtype, seed):
    rng = np.random.default_rng(seed)
    heads = [Tensor(rng.standard_normal((n_q, width)).astype(dtype)) for width in widths]
    gt = rng.integers(0, np.array(widths) - 1, size=(n_t, 3))  # every class below its head's null class
    kept, data = gt[:n_q], [t.data for t in heads]
    before = matching.truncated_triplet_count()
    cost = matching_cost(gt, *data)
    assert cost.shape == (min(n_t, n_q), n_q)
    assert cost.tobytes() == matching_cost(kept, *data).tobytes()
    assert matching.truncated_triplet_count() == before
    loss = triplet_loss(gt, *heads, WEIGHTS)
    assert matching.truncated_triplet_count() == before + max(n_t - n_q, 0)
    assert loss.data.tobytes() == triplet_loss(kept, *heads, WEIGHTS).data.tobytes()
    assert matching.truncated_triplet_count() == before + max(n_t - n_q, 0)


GT_LAYOUTS = {
    "c-ordered": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "transposed-3-by-j": lambda gt: np.ascontiguousarray(gt.T).T,
}


@pytest.mark.parametrize("bad", [(0, 5), (1, 10), (2, 5), (1, -1)], ids=["subject-null", "predicate-null", "object-null", "negative"])
@pytest.mark.parametrize("layout", GT_LAYOUTS.values(), ids=GT_LAYOUTS.keys())
def test_classes_reads_every_row_whatever_the_layout_of_gt(layout, bad):
    """A 1000-row gt cut to 64 queries: an id outside its head, only in the cut tail, raises in every layout."""
    heads = random_heads(np.random.default_rng(4), n_q=64)
    gt = np.random.default_rng(5).integers(0, [5, 10, 5], size=(1000, 3))
    broken = gt.copy()
    broken[900, bad[0]] = bad[1]
    with pytest.raises(ShapeError, match=OUTSIDE):
        triplet_loss(layout(broken), *heads, LossWeights())
    with pytest.raises(ShapeError, match=OUTSIDE):
        matching_cost(layout(broken), *(t.data for t in heads))
    classes, cut = matching._classes(layout(gt), [t.data for t in heads])
    assert np.array_equal(classes, gt[:64].T)
    assert cut == 1000 - 64


def test_recon_loss_rejects_logits_of_another_grid():
    logits = {k: Tensor(v) for k, v in attribute_logits(np.random.default_rng(0), np.float64, n=2).items()}
    with pytest.raises(ShapeError, match="category logits"):
        recon_loss(logits, np.zeros((2, 3, 12), dtype=np.int64), LossWeights())


@pytest.mark.parametrize("dtype", [bool, np.float64])
def test_recon_loss_rejects_non_integer_targets(dtype):
    logits = {k: Tensor(v) for k, v in attribute_logits(np.random.default_rng(0), np.float64).items()}
    with pytest.raises(ShapeError, match="integers"):
        recon_loss(logits, np.ones((2, 3, 12), dtype=dtype), LossWeights())


@pytest.mark.parametrize(
    "name, column, target",
    [("category", 0, 6), ("category", 0, -7), ("rotation", 11, 37)],
    ids=["category_6", "category_-7", "rotation_37"],
)
def test_recon_loss_rejects_targets_it_cannot_score(name, column, target):
    """A target is -1, a head class or PAD (the head width); anything else raises instead of being dropped."""
    rng = np.random.default_rng(0)
    logits = {k: Tensor(v) for k, v in attribute_logits(rng, np.float64).items()}
    targets = recon_targets(rng)
    targets[1, 2, column] = target
    with pytest.raises(ShapeError, match=name):
        recon_loss(logits, targets, LossWeights())


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


@pytest.mark.parametrize("value", [True, np.bool_(False), "1", None], ids=["bool", "numpy-bool", "str", "none"])
def test_loss_weights_reject_bools_and_non_reals(value):
    # True passed as 1.0, and "1" raised a bare TypeError from math.isfinite
    with pytest.raises(ValueError, match="loss weight subject must be a real number"):
        LossWeights(subject=value)
    with pytest.raises(ValueError, match="loss weight null_class must be a real number"):
        LossWeights(null_class=value)
    assert LossWeights(subject=np.float32(0.5), triplet=np.int64(2)).triplet == 2  # numpy reals pass


def test_loss_weights_are_frozen_so_the_check_cannot_be_bypassed():
    weights = LossWeights()
    with pytest.raises(dataclasses.FrozenInstanceError):
        weights.null_class = -1.0
    assert weights.null_class == 0.1


# -- fused loss nodes against the composed chains they replaced -----------------


def composed_triplet_loss(gt, s, p, o, weights):
    """Oracle: the triplet loss as per-head cross_entropy -> scale -> add, three log-softmaxes for the cost."""
    n_q = s.data.shape[0]
    gt = gt[:n_q]
    heads = ((s, weights.subject), (p, weights.predicate), (o, weights.object))
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


def composed_recon_loss(logits, targets, weights):
    """Oracle: the reconstruction loss as reshape -> embedding_lookup -> cross_entropy -> scale -> add."""
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
        term = tn.scale(tn.cross_entropy(rows, flat_targets[selected]), getattr(weights, name))
        total = term if total is None else tn.add(total, term)
    if total is None:
        total = Tensor(np.zeros((), dtype=next(iter(logits.values())).data.dtype))
    return total


def loss_and_grads(loss_fn, data, *args):
    """Value bytes and every input's grad bytes (None without one), from fresh leaves over data."""
    leaves = {k: Tensor(v.copy(), requires_grad=True) for k, v in data.items()}
    loss = loss_fn(leaves, *args)
    tn.scale(loss, 0.7).backward()  # an upstream grad other than 1
    grads = {k: None if t.grad is None else (t.grad.dtype, t.grad.shape, t.grad.tobytes()) for k, t in leaves.items()}
    return (loss.dtype, loss.data.tobytes()), grads, loss, leaves


TRIPLET_CASES = {
    "two-triplets": int_gt([(0, 3, 1), (2, 5, 0)]),
    "no-triplets": int_gt([]),
    "truncated": int_gt([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (0, 9, 1)]),
    "duplicates": int_gt([(1, 2, 3), (1, 2, 3), (1, 2, 3)]),
}


def triplet_data(rng, dtype, n_q=4):
    """Subject, predicate and object logits of n_q queries over 6, 11 and 6 classes."""
    return {h: rng.standard_normal((n_q, n)).astype(dtype) for h, n in zip("spo", (6, 11, 6))}


def attribute_logits(rng, dtype, b=2, n=3):
    """Logits of every attribute head for b grids of n rows; the category head has 5 classes."""
    shapes = {"category": (b, n, 5), "appearance": (b, n, 4, 64), "position": (b, n, 3, 64),
              "size": (b, n, 3, 64), "rotation": (b, n, 36)}
    return {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}


def recon_targets(rng, b=2, n=3, unsupervised=()):
    """Targets for attribute_logits' heads with about half the positions supervised, a few PAD (out-of-head) ids,
    and none in `unsupervised`."""
    widths = np.array([5] + [64] * 10 + [36])
    targets = np.where(rng.random((b, n, 12)) < 0.5, rng.integers(0, widths, size=(b, n, 12)), -1)
    targets[0, 0, :] = widths  # PAD filler: outside every head, so skipped
    for name in unsupervised:
        lo, hi = ATTRIBUTE_COLUMNS[name]
        targets[:, :, lo:hi] = -1
    return targets


WEIGHTS = LossWeights(0.7, 1.3, 0.9, 1.1, 0.6, 1.7, 0.8, 1.2, null_class=0.15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(TRIPLET_CASES))
def test_triplet_loss_is_one_node_bitwise_equal_to_composed_chain(case, dtype):
    data = triplet_data(np.random.default_rng(11), dtype)
    gt = TRIPLET_CASES[case]
    value, grads, loss, leaves = loss_and_grads(lambda t, g: triplet_loss(g, t["s"], t["p"], t["o"], WEIGHTS), data, gt)
    want_value, want_grads, _, _ = loss_and_grads(lambda t, g: composed_triplet_loss(g, t["s"], t["p"], t["o"], WEIGHTS), data, gt)
    assert value == want_value
    assert grads == want_grads
    assert loss._parents == (leaves["s"], leaves["p"], leaves["o"])
    assert len(tn.build_tape(loss)) == 1 + len(loss._parents)


RECON_CASES = {"all-supervised": (), "no-rotation": ("rotation",), "none-supervised": tuple(ATTRIBUTE_COLUMNS)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(RECON_CASES))
def test_recon_loss_is_one_node_bitwise_equal_to_composed_chain(case, dtype):
    rng = np.random.default_rng(12)
    data = attribute_logits(rng, dtype)
    targets = recon_targets(rng, unsupervised=RECON_CASES[case])
    value, grads, loss, leaves = loss_and_grads(lambda t, y: recon_loss(t, y, WEIGHTS), data, targets)
    want_value, want_grads, _, _ = loss_and_grads(lambda t, y: composed_recon_loss(t, y, WEIGHTS), data, targets)
    assert value == want_value
    assert grads == want_grads
    supervised = [leaves[name] for name in ATTRIBUTE_COLUMNS if name not in RECON_CASES[case]]
    assert loss._parents == tuple(supervised)
    assert len(tn.build_tape(loss)) == 1 + len(supervised)


def test_recon_loss_with_nothing_supervised_backs_up_to_no_grads():
    rng = np.random.default_rng(12)
    leaves = {k: Tensor(v, requires_grad=True) for k, v in attribute_logits(rng, np.float32).items()}
    loss = recon_loss(leaves, recon_targets(rng, unsupervised=tuple(ATTRIBUTE_COLUMNS)), WEIGHTS)
    loss.backward()
    assert loss.item() == 0.0
    assert loss.grad is None and all(t.grad is None for t in leaves.values())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_losses_keep_dtype_in_value_and_grads(dtype):
    rng = np.random.default_rng(13)
    heads = {k: Tensor(v, requires_grad=True) for k, v in triplet_data(rng, dtype).items()}
    attrs = {k: Tensor(v, requires_grad=True) for k, v in attribute_logits(rng, dtype).items()}
    loss = total_loss(recon_loss(attrs, recon_targets(rng), WEIGHTS), triplet_loss(int_gt([(0, 3, 1)]), *heads.values(), WEIGHTS), WEIGHTS)
    loss.backward()
    assert loss.dtype == dtype
    assert {k: t.grad.dtype for k, t in {**heads, **attrs}.items()} == dict.fromkeys({**heads, **attrs}, np.dtype(dtype))


def test_triplet_loss_gradcheck_away_from_assignment_ties(monkeypatch):
    rng = np.random.default_rng(14)
    heads = [Tensor(v, requires_grad=True) for v in triplet_data(rng, np.float64).values()]
    gt = int_gt([(0, 3, 1), (2, 5, 0), (4, 1, 4)])
    sigmas = []

    def recording_hungarian(cost):
        sigmas.append(tuple(hungarian(cost).tolist()))
        return np.asarray(sigmas[-1])

    monkeypatch.setattr(matching, "hungarian", recording_hungarian)
    check_gradients(lambda: triplet_loss(gt, *heads, WEIGHTS), heads, max_probes_per_tensor=100)
    assert len(sigmas) > 1 and len(set(sigmas)) == 1  # sigma is the same at every x +- h


def test_triplet_loss_gradcheck_on_column_major_heads():
    """Heads transposed from [classes, Q] leaves have column-major strides."""
    rng = np.random.default_rng(14)
    leaves = [Tensor(np.ascontiguousarray(v.T), requires_grad=True) for v in triplet_data(rng, np.float64).values()]
    gt = int_gt([(0, 3, 1), (2, 5, 0), (4, 1, 4)])
    check_gradients(lambda: triplet_loss(gt, *(tn.transpose(x, (1, 0)) for x in leaves), WEIGHTS), leaves, max_probes_per_tensor=100)


def test_recon_loss_gradcheck():
    rng = np.random.default_rng(15)
    logits = {k: Tensor(v, requires_grad=True) for k, v in attribute_logits(rng, np.float64, b=1, n=3).items()}
    targets = recon_targets(rng, b=1, n=3)
    assert all(((targets[:, :, lo:hi] >= 0) & (targets[:, :, lo:hi] < targets[0, 0, lo])).any() for lo, hi in ATTRIBUTE_COLUMNS.values())
    check_gradients(lambda: recon_loss(logits, targets, WEIGHTS), list(logits.values()), max_probes_per_tensor=24)
