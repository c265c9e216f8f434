"""Minimal dense-tensor library with reverse-mode automatic differentiation.

numpy holds the values; each op records a closure that pushes gradients to
its inputs. backward() walks the recorded graph in reverse topological
order. Dense row-major arrays only; broadcasting is limited to missing
leading (batch) dims plus size-1 axes, and the backward rules undo it by
summation so every rule stays auditable.

Ops: add, mul, scale, matmul, transpose, reshape, slice_rows,
embedding_lookup, softmax, layer_norm, silu, tensor_sum,
scaled_dot_product_attention and cross_entropy. log_softmax_array works on
plain arrays, outside the graph.

Float32 is the training precision and every op keeps its inputs' dtype in
forward and backward; gradient checks run the same code in float64.
"""

from __future__ import annotations

import contextlib

import numpy as np


class ShapeError(ValueError):
    pass


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray):
            pass
        elif isinstance(data, np.generic):
            data = np.asarray(data)  # keep numpy scalar dtype
        else:
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate grads of every requires_grad ancestor of this scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        self.grad = np.ones_like(self.data)
        for node in reversed(build_tape(self)):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def build_tape(root: Tensor) -> list[Tensor]:
    """Operations in topological order: every node's inputs precede it."""
    tape: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            tape.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return tape


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to shape, undoing leading-dim and size-1 broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        try:
            np.broadcast_shapes(a.data.shape, b.data.shape)
        except ValueError:
            raise ShapeError(f"add: incompatible shapes {a.data.shape} vs {b.data.shape}") from None

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        try:
            np.broadcast_shapes(a.data.shape, b.data.shape)
        except ValueError:
            raise ShapeError(f"mul: incompatible shapes {a.data.shape} vs {b.data.shape}") from None

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)  # under numpy 2 promotion a np.float64 constant would turn float32 into float64

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _make(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.transpose(g, inverse))

    return _make(np.transpose(a.data, axes), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.data.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """First-axis slice with gradient scattered back into place."""

    def backward(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[start:stop] = g
            a.accumulate_grad(full)

    return _make(a.data[start:stop].copy(), (a,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a [V, d] table; grads scatter-add into the table."""
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.data.shape[0]):
        raise ShapeError(f"ids outside table of {table.data.shape[0]} rows")

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table.accumulate_grad(gt)

    return _make(table.data[ids], (table,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * s).sum(axis=-1, keepdims=True)
            a.accumulate_grad((g - dot) * s)

    return _make(s, (a,), backward)


def log_softmax_array(x: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis of a plain numpy array (no graph)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis (epsilon 1e-5), then scale by gamma and shift by beta."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std

    def backward(g):
        if gamma.requires_grad:
            axes = tuple(range(g.ndim - 1))
            gamma.accumulate_grad((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            axes = tuple(range(g.ndim - 1))
            beta.accumulate_grad(g.sum(axis=axes))
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate_grad((dxhat - m1 - xhat * m2) * inv_std)

    return _make(gamma.data * xhat + beta.data, (x, gamma, beta), backward)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * sig * (1.0 + a.data * (1.0 - sig)))

    return _make(a.data * sig, (a,), backward)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(), (a,), backward)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_padding_mask: np.ndarray | None = None,
) -> Tensor:
    """Attention over the last two dims of [..., N, d] query/key/value.

    key_padding_mask is boolean [..., M] with True marking padded keys;
    padded scores get a large negative additive bias before the softmax.
    """
    dk = q.data.shape[-1]
    scores = scale(matmul(q, transpose(k, tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2))), 1.0 / np.sqrt(dk))
    if key_padding_mask is not None:
        bias = np.where(key_padding_mask, np.asarray(-1e9, dtype=q.data.dtype), np.asarray(0.0, dtype=q.data.dtype))
        # pad mask [..., M] broadcasts across heads and query positions
        while bias.ndim < scores.data.ndim:
            bias = np.expand_dims(bias, -2)
        scores = add(scores, Tensor(bias))
    return matmul(softmax(scores), v)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    class_weights: np.ndarray | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Weighted negative log-likelihood of integer targets.

    logits is [*, V], targets [*]. class_weights (length V) scale each
    position by the weight of its target class. "mean" divides by the
    number of positions, "sum" does not.
    """
    targets = np.asarray(targets)
    vocab = logits.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ShapeError(f"targets outside vocabulary of size {vocab}")
    flat = logits.data.reshape(-1, vocab)
    t = targets.reshape(-1)
    log_probs = log_softmax_array(flat)
    w = np.ones(t.shape[0], dtype=flat.dtype)
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=flat.dtype)[t]
    nll = -(log_probs[np.arange(t.shape[0]), t]) * w
    denom = t.shape[0] if reduction == "mean" else 1
    value = np.asarray(nll.sum() / denom, dtype=flat.dtype)

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(log_probs)
            probs[np.arange(t.shape[0]), t] -= 1.0
            probs *= (w * float(g) / denom)[:, None]
            logits.accumulate_grad(probs.reshape(logits.data.shape))

    return _make(value, (logits,), backward)
