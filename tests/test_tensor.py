import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scenenat import tensor as T
from scenenat.tensor import Tensor

from support import check_gradients


def randt(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_allclose(out.data, a)


def test_silu_at_zero():
    assert T.silu(Tensor(np.zeros(1))).data[0] == 0.0


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_backward_of_sum_is_ones():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    T.tensor_sum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.add(x, x).backward()


def test_cross_entropy_closed_form():
    logits = Tensor(np.zeros((1, 2)), requires_grad=True)
    loss = T.cross_entropy(logits, np.array([0]))
    np.testing.assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)
    loss.backward()
    np.testing.assert_allclose(logits.grad, [[-0.5, 0.5]], atol=1e-12)


def test_cross_entropy_perfect_prediction_vanishes():
    logits = np.full((1, 4), -50.0)
    logits[0, 2] = 50.0
    loss = T.cross_entropy(Tensor(logits), np.array([2]))
    assert loss.item() < 1e-12


def test_cross_entropy_class_weight_linearity():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((1, 5))
    weights = np.ones(5)
    weights[4] = 0.1
    plain = T.cross_entropy(Tensor(logits), np.array([4])).item()
    weighted = T.cross_entropy(Tensor(logits), np.array([4]), class_weights=weights).item()
    np.testing.assert_allclose(weighted, 0.1 * plain, rtol=1e-12)


def test_cross_entropy_over_zero_positions():
    logits = Tensor(np.zeros((0, 5)), requires_grad=True)
    with pytest.raises(ValueError, match="cross_entropy over zero positions"):
        T.cross_entropy(logits, np.zeros(0, dtype=np.int64))
    loss = T.cross_entropy(logits, np.zeros(0, dtype=np.int64), reduction="sum")
    assert loss.item() == 0.0
    loss.backward()
    assert logits.grad.shape == (0, 5)


@pytest.mark.parametrize(
    "n_targets, class_weights",
    [
        (2, None),
        (4, None),
        (3, np.ones((5, 1))),  # would broadcast the per-row losses into a 3x3 sum
        (3, np.ones(6)),
        (3, np.ones(4)),
    ],
    ids=["2-targets", "4-targets", "weights-5x1", "weights-6", "weights-4"],
)
def test_cross_entropy_rejects_mismatched_shapes(n_targets, class_weights):
    logits = Tensor(np.random.default_rng(0).standard_normal((3, 5)), requires_grad=True)
    with pytest.raises(T.ShapeError):
        T.cross_entropy(logits, np.zeros(n_targets, dtype=np.int64), class_weights=class_weights)


@pytest.mark.parametrize(
    "a_shape, b_shape", [((3, 4), (4,)), ((4,), (4, 5)), ((2, 3, 4), (4,))], ids=["2d@1d", "1d@2d", "3d@1d"]
)
def test_matmul_rejects_one_dimensional_operands(a_shape, b_shape):
    a, b = Tensor(np.ones(a_shape), requires_grad=True), Tensor(np.ones(b_shape), requires_grad=True)
    with pytest.raises(T.ShapeError, match="matmul"):
        T.matmul(a, b)


@pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (2, 4, 3)), ((3, 4), (2, 4, 3))], ids=["3d@3d", "2d@3d"])
def test_matmul_takes_only_a_2d_weight(a_shape, b_shape):
    a, b = Tensor(np.ones(a_shape), requires_grad=True), Tensor(np.ones(b_shape), requires_grad=True)
    with pytest.raises(T.ShapeError, match="matmul"):
        T.matmul(a, b)


@pytest.mark.parametrize("gamma_shape, beta_shape", [((1,), (4,)), ((4,), (1,)), ((5,), (4,)), ((4,), (5,))],
                         ids=["gamma-1", "beta-1", "gamma-5", "beta-5"])
def test_layer_norm_takes_only_last_axis_gamma_and_beta(gamma_shape, beta_shape):
    # unchecked, a [1] gamma or beta would broadcast silently and take a [4] grad, and a [5] one would fail inside numpy
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    gamma, beta = Tensor(np.ones(gamma_shape), requires_grad=True), Tensor(np.zeros(beta_shape), requires_grad=True)
    with pytest.raises(T.ShapeError, match="layer_norm"):
        T.layer_norm(x, gamma, beta)


@pytest.mark.parametrize("reduction", ["none", "Mean"])
def test_cross_entropy_rejects_unknown_reduction(reduction):
    logits = Tensor(np.zeros((3, 5)), requires_grad=True)
    with pytest.raises(ValueError, match="reduction"):
        T.cross_entropy(logits, np.zeros(3, dtype=np.int64), reduction=reduction)


@pytest.mark.parametrize(
    "ids",
    [np.ones(4, dtype=bool), np.array([0.0, 1.0, 3.0]), np.zeros(0)],
    ids=["bool", "float", "empty-float"],
)
def test_embedding_lookup_rejects_non_integer_ids(ids):
    table = Tensor(np.zeros((4, 3)), requires_grad=True)
    with pytest.raises(T.ShapeError, match="integers"):
        T.embedding_lookup(table, ids)


@pytest.mark.parametrize("targets", [np.array([False, True, False]), np.array([0.0, 1.0, 2.0])], ids=["bool", "float"])
def test_cross_entropy_rejects_non_integer_targets(targets):
    # numpy reads bool targets as a mask: [False, True, False] would score as the targets [1, 1, 1]
    logits = Tensor(np.random.default_rng(0).standard_normal((3, 3)), requires_grad=True)
    with pytest.raises(T.ShapeError, match="integers"):
        T.cross_entropy(logits, targets)


@pytest.mark.parametrize(
    "targets", [np.array([0.0, 1.0, 2.0]), np.array([False, True])], ids=["float", "bool-shorter-than-vocabulary"]
)
def test_cross_entropy_with_class_weights_rejects_non_integer_targets(targets):
    # the class-weight gather must not read them as indices or as a mask first
    logits = Tensor(np.zeros((targets.shape[0], 3)), requires_grad=True)
    with pytest.raises(T.ShapeError, match="integers"):
        T.cross_entropy(logits, targets, class_weights=np.ones(3))


@pytest.mark.parametrize("start, stop", [(3, 9), (-1, 4), (-1, 0), (2, 2), (3, 1), (0, 5), (False, True), (0.0, 1.5)])
def test_slice_rows_rejects_rows_outside_the_input(start, stop):
    # numpy would clip (3, 9) to one row, wrap (-1, 4) to the last row and give (-1, 0) no rows; it reads
    # (False, True) as row 0 and refuses a float bound with a bare TypeError
    x = Tensor(np.zeros((4, 2)), requires_grad=True)
    with pytest.raises(T.ShapeError, match="rows"):
        T.slice_rows(x, start, stop)


def scatter_add_oracle(rows: int, ids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Table gradient of a gather: each id's output-gradient row added into that table row."""
    out = np.zeros((rows, g.shape[-1]), dtype=g.dtype)
    np.add.at(out, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
    return out


_SCATTER_IDS = {
    "1d": np.random.default_rng(0).integers(0, 4, size=40),
    "2d": np.random.default_rng(1).integers(0, 4, size=(6, 7)),
    "3d": np.random.default_rng(2).integers(0, 4, size=(2, 3, 5)),
    "one-row": np.full((4, 4), 6),
    "uint8": np.array([8, 8, 7, 0, 8], dtype=np.uint8),  # row * width overflows uint8
    "empty": np.zeros(0, dtype=np.int64),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(_SCATTER_IDS))
def test_embedding_grad_matches_add_at_oracle(name, dtype):
    """Duplicate ids sum, unused rows stay zero; float32 is exact up to one rounding of the sum."""
    rows, width = 9, 40
    ids = _SCATTER_IDS[name]
    rng = np.random.default_rng(3)
    table = Tensor(rng.standard_normal((rows, width)).astype(dtype), requires_grad=True)
    out = T.embedding_lookup(table, ids)
    g = rng.standard_normal(out.shape).astype(dtype)
    T.tensor_sum(T.mul(out, Tensor(g))).backward()
    assert table.grad.dtype == dtype
    exact = scatter_add_oracle(rows, ids, g.astype(np.float64))
    if dtype == np.float64:
        np.testing.assert_allclose(table.grad, exact, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(table.grad, scatter_add_oracle(rows, ids, g), rtol=1e-12, atol=1e-12)
    else:
        bound = np.finfo(np.float32).eps * scatter_add_oracle(rows, ids, np.abs(g.astype(np.float64)))
        assert np.all(np.abs(table.grad - exact) <= bound)
    unused = np.setdiff1d(np.arange(rows), ids)
    assert not table.grad[unused].any()


def test_tape_is_topologically_ordered():
    rng = np.random.default_rng(2)
    x = randt(rng, 3, 3)
    y = T.matmul(x, x)
    z = T.tensor_sum(T.add(y, x))
    tape = T.build_tape(z)
    position = {id(node): i for i, node in enumerate(tape)}
    for node in tape:
        for parent in node._parents:
            assert position[id(parent)] < position[id(node)]


def test_grad_accumulates_across_uses():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.add(x, x)  # dy/dx = 2
    T.tensor_sum(y).backward()
    np.testing.assert_allclose(x.grad, [2.0])


def test_leaf_grads_of_add_are_distinct_writable_arrays():
    x, b = Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones((2, 3)), requires_grad=True)
    T.tensor_sum(T.add(x, b)).backward()
    assert x.grad is not b.grad and not np.shares_memory(x.grad, b.grad)
    assert x.grad.flags.writeable and b.grad.flags.writeable
    x.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)))


def test_leaf_reduced_by_sum_gets_writable_grad():
    x = Tensor(np.zeros((3, 4)), requires_grad=True)
    T.tensor_sum(x).backward()
    assert x.grad.flags.writeable and x.grad.shape == (3, 4)


def test_interior_node_used_twice_gets_twice_the_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = T.scale(x, 3.0)
    T.tensor_sum(T.add(y, y)).backward()
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_second_backward_adds_only_to_leaf_grads():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.tensor_sum(T.scale(x, 3.0))
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [6.0, 6.0])


def test_one_element_leaf_root_adds_up_across_passes():
    x = Tensor(np.array([3.0]), requires_grad=True)
    x.backward()
    x.backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_root_that_requires_no_grad_gets_no_grad():
    c = Tensor(np.array(3.0))
    c.backward()
    assert c.grad is None


def test_losses_sharing_an_interior_node_add_their_own_grads():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = T.scale(x, 1.0)
    T.tensor_sum(h).backward()
    T.tensor_sum(T.scale(h, 2.0)).backward()
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.add(x, x)
    assert not y.requires_grad and y._parents == ()


def test_leaf_made_under_no_grad_gets_a_grad_after_the_block():
    with T.no_grad():
        w = Tensor(np.ones(3), requires_grad=True)
        y = T.mul(w, w)
    assert w.requires_grad
    assert not y.requires_grad and y._parents == ()
    T.tensor_sum(T.mul(w, w)).backward()
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


@pytest.mark.parametrize("shape", [(1,), (1, 1)], ids=["1", "1x1"])
def test_item_of_a_one_element_loss_equals_its_value_after_backward(shape):
    x = Tensor(np.full(shape, 3.0), requires_grad=True)
    loss = T.mul(x, x)
    loss.backward()
    assert loss.item() == 9.0
    np.testing.assert_array_equal(x.grad, np.full(shape, 6.0))


def grads_by_full_arrays(loss: Tensor, leaves: list[Tensor]) -> list[np.ndarray]:
    """Leaf grads by the plain rule: a slice's grad is a full zero array with its rows set.

    Interior grads add out of place; a leaf copies its first grad and adds the others into it in place.
    """
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(T.build_tape(loss)):
        if node._backward is None or node not in grads:
            continue
        for parent, g in zip(node._parents, node._backward(grads.pop(node))):
            if type(g) is tuple:
                start, stop, rows = g
                g = np.zeros_like(parent.data)
                g[start:stop] = rows
            g = np.asarray(g, parent.data.dtype)
            if parent not in grads:
                grads[parent] = np.array(g) if parent._backward is None else g
            elif parent._backward is None:
                grads[parent] += g
            else:
                grads[parent] = grads[parent] + g
    return [grads[leaf] for leaf in leaves]


@st.composite
def sliced_parents(draw):
    """A [B, Q, V] parent, overlapping and repeated row ranges of it, and where its one full-shape consumer goes."""
    b = draw(st.integers(1, 8))
    shape = (b, draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    row_range = st.integers(0, b - 1).flatmap(lambda start: st.tuples(st.just(start), st.integers(start + 1, b)))
    ranges = draw(st.lists(row_range, min_size=1, max_size=12))
    full_at = draw(st.integers(0, len(ranges)))
    return shape, ranges, full_at


@given(
    case=sliced_parents(),
    dtype=st.sampled_from([np.float32, np.float64]),
    full_dtype=st.sampled_from([np.float32, np.float64]),
    interior=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_row_grads_add_up_like_full_arrays(case, dtype, full_dtype, interior, seed):
    """A float64 full-shape consumer of a float32 parent hands it float64 grads, cast to the parent's float32.

    np.array_equal, not bytes: outside a later slice's rows, the oracle's + 0.0 turns a -0.0 into +0.0.
    """
    shape, ranges, full_at = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    parent = T.scale(x, 1.5) if interior else x
    weights = [rng.standard_normal((stop - start,) + shape[1:]).astype(dtype) for start, stop in ranges]
    full_weight = rng.standard_normal(shape).astype(full_dtype)
    terms = [T.tensor_sum(T.mul(T.slice_rows(parent, start, stop), Tensor(w))) for (start, stop), w in zip(ranges, weights)]
    terms.insert(full_at, T.tensor_sum(T.mul(parent, Tensor(full_weight))))
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)

    value = None  # the loss in numpy, op for op
    parts = [(parent.data[start:stop] * w).sum() for (start, stop), w in zip(ranges, weights)]
    parts.insert(full_at, (parent.data * full_weight).sum())
    for part in parts:
        value = part if value is None else value + part
    (want,) = grads_by_full_arrays(loss, [x])
    loss.backward()
    assert loss.dtype == np.result_type(dtype, full_dtype) and np.array_equal(loss.data, value)
    assert x.grad.dtype == want.dtype and np.array_equal(x.grad, want)


@pytest.mark.parametrize("heads", [1, 3])
def test_head_split_backward_makes_one_zero_array_per_sliced_parent(heads, monkeypatch):
    b, q, v = 8, 4, 5
    rng = np.random.default_rng(0)
    c = Tensor(rng.standard_normal((b, q, 6)), requires_grad=True)
    outs = [T.matmul(c, Tensor(rng.standard_normal((6, v)), requires_grad=True)) for _ in range(heads)]
    loss = None
    for j in range(b):
        for out in outs:
            s = T.reshape(T.slice_rows(out, j, j + 1), (q, v))
            term = T.tensor_sum(T.mul(s, Tensor(rng.standard_normal((q, v)))))
            loss = term if loss is None else T.add(loss, term)
    made = []
    for name in ("zeros", "zeros_like"):
        real = getattr(np, name)

        def counted(*args, real=real, **kwargs):
            out = real(*args, **kwargs)
            made.append(out.shape)
            return out

        monkeypatch.setattr(np, name, counted)
    loss.backward()
    monkeypatch.undo()
    assert made.count((b, q, v)) <= heads
    assert c.grad.shape == (b, q, 6)


@pytest.mark.parametrize("later", ["full", "rows"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("adopted", ["read-only", "shared"])
def test_an_adopted_grad_is_never_written(adopted, side, later):
    """Which grad reaches a first follows the tape, so the handed one goes on either side of the last add."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    a = T.scale(x, 2.0)
    u = Tensor(rng.standard_normal((3, 4)))
    if adopted == "read-only":
        first = T.tensor_sum(a)  # hands a a read-only broadcast view
        handing = first
    else:
        handing = T.add(a, T.scale(x, 3.0))  # hands a and its sibling the same array
        first = T.tensor_sum(T.mul(handing, u))
    if later == "full":  # two more grads for a
        more = T.add(T.tensor_sum(T.mul(a, u)), T.tensor_sum(T.scale(a, -1.0)))
    else:
        more = T.add(T.tensor_sum(T.slice_rows(a, 1, 3)), T.tensor_sum(T.mul(T.slice_rows(a, 0, 2), Tensor(u.data[:2]))))
    loss = T.add(first, more) if side == "left" else T.add(more, first)
    (want,) = grads_by_full_arrays(loss, [x])

    handed = []
    rule = handing._backward

    def recording(g):
        grads = rule(g)
        handed.extend((grad, np.array(grad)) for grad in grads)
        return grads

    handing._backward = recording
    loss.backward()
    assert handed and all(np.array_equal(grad, copy) for grad, copy in handed)
    assert adopted == "shared" or not handed[0][0].flags.writeable
    assert np.array_equal(x.grad, want)


@pytest.mark.parametrize(
    "data", [np.arange(3), np.array([True, False]), np.arange(3, dtype=np.uint8), np.int64(2)], ids=["int64", "bool", "uint8", "scalar"]
)
def test_only_a_floating_tensor_may_require_grad(data):
    """A grad takes its node's dtype, so an int leaf would turn a 0.5 grad into 0."""
    with pytest.raises(T.ShapeError, match="floating"):
        Tensor(data, requires_grad=True)
    assert Tensor(data).grad is None


def test_an_int_tensor_may_not_require_grad_after_construction():
    """Setting the flag later passes the same check: else backward would cast t's 0.5 grads to int 0."""
    t = Tensor(np.arange(3))
    with pytest.raises(T.ShapeError, match="floating"):
        t.requires_grad = True
    T.tensor_sum(T.scale(t, 0.5)).backward()
    assert not t.requires_grad and t.grad is None


@pytest.mark.parametrize("interior", [False, True], ids=["leaf", "interior"])
def test_grad_dtype_does_not_depend_on_operand_order(interior):
    """A float32 node both sliced and multiplied by a float64 constant, with the product on either side of the add."""
    grads = []
    for product_first in (True, False):
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        node = T.scale(x, 1.5) if interior else x
        product = T.tensor_sum(T.mul(node, Tensor(np.ones((2, 3)))))
        sliced = T.tensor_sum(T.slice_rows(node, 0, 1))
        (T.add(product, sliced) if product_first else T.add(sliced, product)).backward()
        grads.append(x.grad)
    assert [g.dtype for g in grads] == [np.dtype(np.float32)] * 2
    want = np.array([[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]]) * (1.5 if interior else 1.0)
    assert np.array_equal(grads[0], want) and np.array_equal(grads[1], want)


class TestFiniteDifferences:
    """Every differentiable op against the central-difference oracle."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_mul_scale(self):
        a, b = randt(self.rng, 3, 4), randt(self.rng, 3, 4)
        check_gradients(lambda: T.tensor_sum(T.mul(T.add(a, b), T.scale(a, 0.7))), [a, b])

    def test_add_broadcast_bias(self):
        x, bias = randt(self.rng, 2, 3, 4), randt(self.rng, 4)
        check_gradients(lambda: T.tensor_sum(T.mul(T.add(x, bias), x)), [x, bias])

    def test_matmul_2d(self):
        a, b = randt(self.rng, 3, 5), randt(self.rng, 5, 2)
        check_gradients(lambda: T.tensor_sum(T.matmul(a, b)), [a, b])

    def test_matmul_broadcast_weight(self):
        x, w = randt(self.rng, 2, 3, 4), randt(self.rng, 4, 4)
        check_gradients(lambda: T.tensor_sum(T.matmul(x, w)), [x, w])

    def test_matmul_broadcast_weight_4d(self):
        x, w = randt(self.rng, 2, 2, 3, 4), randt(self.rng, 4, 5)
        check_gradients(lambda: T.tensor_sum(T.mul(T.matmul(x, w), T.silu(T.matmul(x, w)))), [x, w], max_probes_per_tensor=48)

    def test_matmul_broadcast_weight_non_contiguous(self):
        """A transposed view as input, and an upstream grad that arrives as a transposed view."""
        x, w = randt(self.rng, 3, 2, 4), randt(self.rng, 4, 5)
        u = randt(self.rng, 5, 3, 2, requires_grad=False)

        def loss():
            xt = T.transpose(x, (1, 0, 2))
            assert not xt.data.flags.c_contiguous
            return T.tensor_sum(T.mul(T.transpose(T.matmul(xt, w), (2, 1, 0)), u))

        check_gradients(loss, [x, w], max_probes_per_tensor=24)

    def test_transpose_reshape(self):
        x = randt(self.rng, 2, 3, 4)
        w = randt(self.rng, 3, 2, 4)

        def loss():
            y = T.transpose(x, (1, 0, 2))
            return T.tensor_sum(T.mul(T.reshape(y, (3, 2, 4)), w))

        check_gradients(loss, [x, w])

    def test_slice_rows(self):
        y = randt(self.rng, 5, 4)
        check_gradients(lambda: T.tensor_sum(T.mul(T.slice_rows(y, 1, 4), T.slice_rows(y, 0, 3))), [y])

    def test_embedding_lookup(self):
        table = randt(self.rng, 6, 4)
        ids = np.array([[0, 3], [3, 5]])
        weight = randt(self.rng, 2, 2, 4)
        check_gradients(lambda: T.tensor_sum(T.mul(T.embedding_lookup(table, ids), weight)), [table, weight])

    def test_layer_norm(self):
        x = randt(self.rng, 2, 3, 6)
        gamma = Tensor(np.ones(6) + 0.1 * self.rng.standard_normal(6), requires_grad=True)
        beta = Tensor(0.1 * self.rng.standard_normal(6), requires_grad=True)
        w = randt(self.rng, 2, 3, 6)
        check_gradients(lambda: T.tensor_sum(T.mul(T.layer_norm(x, gamma, beta), w)), [x, gamma, beta, w])

    def test_silu(self):
        x = randt(self.rng, 4, 4)
        check_gradients(lambda: T.tensor_sum(T.silu(x)), [x])

    def test_attention(self):
        q, k, v = randt(self.rng, 2, 2, 3, 4), randt(self.rng, 2, 2, 5, 4), randt(self.rng, 2, 2, 5, 4)
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 4] = True
        mask_b = mask[:, None, :]  # broadcast over heads

        def loss():
            out = T.scaled_dot_product_attention(q, k, v, key_padding_mask=mask_b)
            return T.tensor_sum(T.mul(out, out))

        check_gradients(loss, [q, k, v])

    def test_attention_with_a_dead_query_row(self):
        """Batch 0 has every key padded, batch 1 some: the dead row's function is the constant 0."""
        q, k, v = randt(self.rng, 2, 2, 4), randt(self.rng, 2, 3, 4), randt(self.rng, 2, 3, 4)
        mask = np.array([[True, True, True], [False, True, False]])

        def loss():
            out = T.scaled_dot_product_attention(q, k, v, key_padding_mask=mask)
            return T.tensor_sum(T.mul(out, out))

        check_gradients(loss, [q, k, v])
        for t in (q, k, v):
            assert not t.grad[0].any()

    @pytest.mark.parametrize(
        "q_shape, kv_shape, shared_kv",
        [((3, 4), (2, 5, 4), False), ((3, 4), (2, 5, 4), True), ((2, 3, 4), (5, 4), False)],
        ids=["shared_q", "shared_q_x_as_k_and_v", "shared_k_v"],
    )
    def test_attention_with_a_2d_side_against_a_batched_one(self, q_shape, kv_shape, shared_kv):
        """A 2-D side's grads sum over the batch, and a leaf passed as both k and v gets both grads."""
        q, k = randt(self.rng, *q_shape), randt(self.rng, *kv_shape)
        v = k if shared_kv else randt(self.rng, *kv_shape)
        mask = np.zeros((2, 5), dtype=bool)
        mask[1, 2:] = True
        w = randt(self.rng, 2, 3, 4, requires_grad=False)

        def loss():
            return T.tensor_sum(T.mul(T.scaled_dot_product_attention(q, k, v, key_padding_mask=mask), w))

        check_gradients(loss, [q, k] if shared_kv else [q, k, v], max_probes_per_tensor=16)

    def test_cross_entropy_gradient(self):
        logits = randt(self.rng, 4, 6)
        targets = np.array([1, 0, 5, 2])
        weights = np.ones(6)
        weights[5] = 0.1
        check_gradients(lambda: T.cross_entropy(logits, targets, class_weights=weights), [logits])
        check_gradients(lambda: T.cross_entropy(logits, targets, reduction="sum"), [logits])

    def test_cross_entropy_gradient_of_column_major_logits(self):
        """Logits transposed from a [V, n] leaf have column-major strides; the one-hot must still reach the grad."""
        x = randt(self.rng, 6, 4)
        targets = np.array([1, 0, 5, 2])
        check_gradients(lambda: T.cross_entropy(T.transpose(x, (1, 0)), targets), [x])
        check_gradients(lambda: T.cross_entropy(T.transpose(x, (1, 0)), targets, class_weights=np.linspace(0.5, 1.5, 6)), [x])


def _op_cases(rng, dtype):
    """Op name -> (output, inputs that need grads), built in dtype for every op."""

    def t(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    x, y, bias, w = t(2, 3, 4), t(2, 3, 4), t(4), t(4, 5)
    table, gamma, beta = t(6, 4), t(4), t(4)
    q, k, v = t(2, 3, 4), t(2, 5, 4), t(2, 5, 4)
    pad = np.zeros((2, 5), dtype=bool)
    pad[0, 4] = True
    logits = t(5, 6)
    targets = np.array([0, 5, 2, 5, 1])
    class_weights = np.linspace(0.1, 1.0, 6)  # float64 weights must not promote the loss
    return {
        "add": (T.add(x, bias), [x, bias]),
        "mul": (T.mul(x, y), [x, y]),
        "scale": (T.scale(x, np.float64(0.5)), [x]),
        "matmul": (T.matmul(x, w), [x, w]),
        "transpose": (T.transpose(x, (1, 0, 2)), [x]),
        "reshape": (T.reshape(x, (6, 4)), [x]),
        "slice_rows": (T.slice_rows(x, 0, 1), [x]),
        "embedding_lookup": (T.embedding_lookup(table, np.array([[0, 3], [3, 5]])), [table]),
        "layer_norm": (T.layer_norm(x, gamma, beta), [x, gamma, beta]),
        "silu": (T.silu(x), [x]),
        "tensor_sum": (T.tensor_sum(x), [x]),
        "scaled_dot_product_attention": (T.scaled_dot_product_attention(q, k, v, key_padding_mask=pad), [q, k, v]),
        "cross_entropy": (T.cross_entropy(logits, targets, class_weights=class_weights, reduction="sum"), [logits]),
    }


def test_dtype_cases_cover_every_public_op():
    graph_free = {"Tensor", "ShapeError", "no_grad", "build_tape", "log_softmax_array"}
    public = {n for n, v in vars(T).items() if callable(v) and not n.startswith("_") and getattr(v, "__module__", "") == T.__name__}
    assert public - graph_free == set(_op_cases(np.random.default_rng(0), np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(_op_cases(np.random.default_rng(0), np.float32)))
def test_op_keeps_dtype_in_forward_and_backward(op, dtype):
    rng = np.random.default_rng(5)
    out, inputs = _op_cases(rng, dtype)[op]
    assert out.dtype == dtype
    weight = Tensor(rng.standard_normal(out.shape).astype(dtype))
    loss = T.tensor_sum(T.mul(out, weight))
    loss.backward()
    assert loss.dtype == dtype
    assert [i.grad.dtype for i in inputs] == [np.dtype(dtype)] * len(inputs)
    assert [i.grad.shape for i in inputs] == [i.shape for i in inputs]


@pytest.mark.parametrize("op", sorted(_op_cases(np.random.default_rng(0), np.float32)))
def test_op_grads_keep_the_input_dtype_under_a_float64_consumer(op):
    """The float64 constant promotes the loss; each float32 input still gets a float32 grad."""
    rng = np.random.default_rng(5)
    out, inputs = _op_cases(rng, np.float32)[op]
    assert out.dtype == np.float32
    loss = T.tensor_sum(T.mul(out, Tensor(np.asarray(rng.standard_normal(out.shape)))))
    loss.backward()
    assert loss.dtype == np.float64
    assert [i.grad.dtype for i in inputs] == [np.dtype(np.float32)] * len(inputs)
    assert [i.grad.shape for i in inputs] == [i.shape for i in inputs]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_attention_query_with_every_key_padded_outputs_zeros(dtype):
    """Every float dtype, float16 included, gives it zeros, and the partial row stays bitwise."""
    rng = np.random.default_rng(11)
    q, k, v = (Tensor(rng.standard_normal(shape).astype(dtype)) for shape in ((2, 2, 4), (2, 3, 4), (2, 3, 4)))
    dead = np.array([[True, True, True], [False, True, False]])
    live = np.array([[False, True, True], [False, True, False]])  # the same partial row, and no dead one
    out = T.scaled_dot_product_attention(q, k, v, key_padding_mask=dead)
    assert out.dtype == dtype
    assert np.array_equal(out.data[0], np.zeros((2, 4)))
    assert out.data[1].tobytes() == T.scaled_dot_product_attention(q, k, v, key_padding_mask=live).data[1].tobytes()
    one = T.scaled_dot_product_attention(Tensor(q.data[:1]), Tensor(k.data[:1]), Tensor(v.data[:1]), key_padding_mask=dead[:1])
    assert np.array_equal(one.data, np.zeros((1, 2, 4)))


@pytest.mark.parametrize(
    "shapes", [((2, 4), (3, 5), (3, 5)), ((2, 4), (3, 4), (2, 4)), ((4,), (3, 4), (3, 4))], ids=["q_k_width", "k_v_count", "1d_query"]
)
def test_attention_rejects_mismatched_shapes(shapes):
    q, k, v = (Tensor(np.zeros(shape)) for shape in shapes)
    with pytest.raises(T.ShapeError, match="scaled_dot_product_attention"):
        T.scaled_dot_product_attention(q, k, v)


@pytest.mark.parametrize(
    "mask",
    [np.array([[True], [False]]), np.array([[0.5, 0, 0, 0, 0]] * 2), np.zeros((2, 2, 5), dtype=bool), np.zeros(4, dtype=bool)],
    ids=["one_key_per_batch", "float", "query_axis", "wrong_key_count"],
)
def test_attention_rejects_a_mask_that_would_broadcast(mask):
    """A [B, 1] mask would pad every key of a batch, a float one would pad on any nonzero: both raise."""
    rng = np.random.default_rng(5)
    q, k = randt(rng, 2, 2, 4), randt(rng, 2, 5, 4)
    with pytest.raises(T.ShapeError, match="key_padding_mask"):
        T.scaled_dot_product_attention(q, k, k, key_padding_mask=mask)


@pytest.mark.parametrize(
    "mask",
    [None, np.array([[False, True, False], [False, False, False]]), np.array([[True, True, True], [False, True, False]])],
    ids=["no_mask", "partial", "dead_row"],
)
def test_attention_is_one_node_whatever_the_mask(mask):
    """The tape is q, k, v and one op; an all-False mask is no mask, and weights sum to 1 on every live row."""
    rng = np.random.default_rng(3)
    q, k, v = randt(rng, 2, 2, 4), randt(rng, 2, 3, 4), randt(rng, 2, 3, 4)
    out = T.scaled_dot_product_attention(q, k, v, key_padding_mask=mask)
    tape = T.build_tape(out)
    assert len(tape) == 4 and set(tape[:3]) == {q, k, v} and tape[3] is out
    if mask is None:
        unmasked = T.scaled_dot_product_attention(q, k, v, key_padding_mask=np.zeros((2, 3), dtype=bool))
        assert unmasked.data.tobytes() == out.data.tobytes()
    live = np.ones(2, dtype=bool) if mask is None else ~mask.all(axis=-1)
    ones = T.scaled_dot_product_attention(q, k, Tensor(np.ones((2, 3, 4))), key_padding_mask=mask)
    np.testing.assert_allclose(ones.data[live], 1.0, rtol=1e-12)
    assert not ones.data[~live].any()


@pytest.mark.parametrize(
    "op, constant_shapes", [("add", [(4,)]), ("matmul", [(4, 5)]), ("layer_norm", [(4,), (4,)])], ids=["add", "matmul", "layer_norm"]
)
def test_constant_inputs_get_no_grad_and_leave_the_others_unchanged(op, constant_shapes):
    def grads(constant):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        others = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=not constant) for s in constant_shapes]
        out = getattr(T, op)(x, *others)
        T.tensor_sum(T.mul(out, Tensor(rng.standard_normal(out.shape).astype(np.float32)))).backward()
        return x.grad, [o.grad for o in others]

    x_grad, constant_grads = grads(constant=True)
    x_grad_all, other_grads = grads(constant=False)
    assert all(g is None for g in constant_grads)
    assert all(g is not None for g in other_grads)
    assert x_grad.dtype == x_grad_all.dtype and x_grad.tobytes() == x_grad_all.tobytes()


def test_embedding_attention_cross_entropy_step_grads_stay_float32():
    rng = np.random.default_rng(9)

    def param(*shape):
        return Tensor((0.3 * rng.standard_normal(shape)).astype(np.float32), requires_grad=True)

    table, wq, wk, wv, head = param(10, 8), param(8, 8), param(8, 8), param(8, 8), param(8, 10)
    gamma = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    tokens = rng.integers(0, 10, size=(2, 5))
    pad = np.zeros((2, 5), dtype=bool)
    pad[1, 3:] = True
    x = T.layer_norm(T.embedding_lookup(table, tokens), gamma, beta)
    a = T.scaled_dot_product_attention(T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv), key_padding_mask=pad)
    logits = T.matmul(T.silu(T.add(x, a)), head)
    loss = T.cross_entropy(logits, tokens, class_weights=np.full(10, 0.5))
    loss.backward()
    assert loss.dtype == np.float32
    params = {"table": table, "wq": wq, "wk": wk, "wv": wv, "head": head, "gamma": gamma, "beta": beta}
    assert {name: p.grad.dtype for name, p in params.items()} == dict.fromkeys(params, np.dtype(np.float32))
    assert [node for node in T.build_tape(loss) if node._parents and node.grad is not None] == []


# -- row maxima along the transposed axis against the last-axis reduce they replaced --------------

ROW_KINDS = ("finite", "some_neg_inf", "only_neg_inf", "nan", "signed_zeros")


@st.composite
def row_max_arrays(draw):
    """A float16/32/64 array of 1-4 dims, last axis 1-70, leading dims possibly 0, whose rows each hold finite
    values, some -inf, only -inf, a NaN, or a mix of -0.0, +0.0 and negatives."""
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    shape = (*draw(st.lists(st.integers(0, 4), max_size=3)), draw(st.integers(1, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.standard_normal(shape) * 8).astype(dtype)
    rows = x.reshape(-1, shape[-1])  # a view: x is a fresh C-ordered array
    for row, kind in zip(rows, draw(st.lists(st.sampled_from(ROW_KINDS), min_size=len(rows), max_size=len(rows)))):
        some = rng.random(row.shape) < 0.5
        if kind == "some_neg_inf":
            row[some] = -np.inf
        elif kind == "only_neg_inf":
            row[:] = -np.inf
        elif kind == "nan":
            row[rng.integers(row.size)] = np.nan
        elif kind == "signed_zeros":
            row[:] = np.where(some, -0.0, 0.0)
            row[rng.random(row.shape) < 0.3] = -1.5
    return x


def parent_log_softmax(x):
    shifted = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def parent_attention(q, k, v, key_padding_mask):
    c = 1.0 / float(np.sqrt(q.shape[-1]))
    s = (q @ np.swapaxes(k, -1, -2)) * c
    if key_padding_mask is not None:
        pad = key_padding_mask
        while pad.ndim < s.ndim:
            pad = np.expand_dims(pad, -2)
        s = np.where(pad, -np.inf, s)
    top = np.maximum.reduce(s, axis=-1, keepdims=True)
    top[top == -np.inf] = 0
    p = np.exp(s - top)
    p /= np.maximum(np.add.reduce(p, axis=-1, keepdims=True), 1)
    return p @ v


@given(x=row_max_arrays())
def test_row_max_equals_the_last_axis_reduce(x):
    """Equal as values, NaN where NaN; -0.0 equals +0.0, as the order of equal maxima may differ."""
    got, want = T._row_max(x), np.maximum.reduce(x, axis=-1, keepdims=True)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    np.testing.assert_array_equal(got, want)


@given(x=row_max_arrays())
def test_log_softmax_array_equals_the_last_axis_reduce_formula(x):
    with np.errstate(all="ignore"):  # a row of only -inf gives NaN in both
        got, want = T.log_softmax_array(x), parent_log_softmax(x)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@given(
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    lead=st.lists(st.integers(0, 3), max_size=2),
    n_q=st.integers(1, 5),
    n_k=st.integers(1, 70),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_equals_the_last_axis_reduce_formula(dtype, lead, n_q, n_k, masked, seed):
    """With and without a key padding mask; a masked batch row has every key padded, its query rows dead."""
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((*lead, n, 4)).astype(dtype) for n in (n_q, n_k, n_k))
    mask = None
    if masked:
        mask = rng.random((*lead, n_k)) < 0.5
        mask.reshape(-1, n_k)[:1] = True
    with np.errstate(all="ignore"):
        got = T.scaled_dot_product_attention(Tensor(q), Tensor(k), Tensor(v), key_padding_mask=mask).data
        want = parent_attention(q, k, v, mask)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
