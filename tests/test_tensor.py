import numpy as np
import pytest

from scenenat import tensor as T
from scenenat.tensor import Tensor

from gradcheck import check_gradients


def randt(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_allclose(out.data, a)


def test_softmax_uniform_and_rowsum():
    out = T.softmax(Tensor(np.zeros(5)))
    np.testing.assert_allclose(out.data, np.full(5, 0.2))
    rng = np.random.default_rng(1)
    s = T.softmax(Tensor(rng.standard_normal((4, 7))))
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-12)


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


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.add(x, x)
    assert not y.requires_grad and y._parents == ()


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

    def test_matmul_batched(self):
        a, b = randt(self.rng, 2, 3, 4), randt(self.rng, 2, 4, 3)
        w = randt(self.rng, 2, 3, 3)
        check_gradients(lambda: T.tensor_sum(T.mul(T.matmul(a, b), w)), [a, b, w])

    def test_matmul_broadcast_weight(self):
        x, w = randt(self.rng, 2, 3, 4), randt(self.rng, 4, 4)
        check_gradients(lambda: T.tensor_sum(T.matmul(x, w)), [x, w])

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

    def test_softmax(self):
        x = randt(self.rng, 3, 5)
        w = randt(self.rng, 3, 5)
        check_gradients(lambda: T.tensor_sum(T.mul(T.softmax(x), w)), [x, w])

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

    def test_cross_entropy_gradient(self):
        logits = randt(self.rng, 4, 6)
        targets = np.array([1, 0, 5, 2])
        weights = np.ones(6)
        weights[5] = 0.1
        check_gradients(lambda: T.cross_entropy(logits, targets, class_weights=weights), [logits])
        check_gradients(lambda: T.cross_entropy(logits, targets, reduction="sum"), [logits])


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
        "softmax": (T.softmax(x), [x]),
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
