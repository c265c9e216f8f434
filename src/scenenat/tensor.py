"""Minimal dense-tensor library with reverse-mode automatic differentiation.

numpy holds the values. Each op records a closure that maps its output's
gradient to one gradient per input, in input order. A gradient is an array
of that input's shape, or, from slice_rows only, a row grad (start, stop,
rows): the grad of input rows start:stop, zero elsewhere. A rule never
writes the grad it is given and may hand it on as is, to several inputs.
Tensor.backward walks the recorded graph in reverse topological order and
alone accumulates those gradients, by one rule. Every grad is cast to its
node's dtype. A node's first full grad is adopted as is and never written.
Every other grad, full or row, is added in place into the rows it covers of
one buffer that backward owns: a copy of the adopted grad, or zeros when a
row grad comes first. So B slices of one input cost B slices of work, not B
full arrays, and a zero outside those rows keeps its sign. Only a leaf that
requires grad keeps a .grad: its own writable array, which adds up across
passes. Interior grads exist only during backward, each dropped once its
node's rule has used it.
_make records a node under this contract and _summed_nll the weighted-NLL
node; both are package-internal, not public API. _make alone decides
whether an op records: outside no_grad, when an input requires grad.
A leaf keeps its requires_grad under no_grad and gets grads after the block.
Dense row-major arrays only; broadcasting is limited to missing leading
(batch) dims plus size-1 axes, and the backward rules undo it by summation
so every rule stays auditable. Two rules sum without a per-element loop:
embedding_lookup scatters its grad back into the table with one bincount,
duplicate ids included, and matmul, whose weight is always 2-D, folds the
input's batch dims into rows, so each grad is one 2-D GEMM.

Ops: add, mul, scale, matmul ([..., n, k] input, 2-D [k, m] weight),
transpose, reshape, slice_rows, embedding_lookup, layer_norm, silu, tensor_sum,
scaled_dot_product_attention and cross_entropy, a one-term weighted-NLL
node, as are the losses of scenenat.matching with more terms.
log_softmax_array works on plain arrays, outside the graph.
Row maxima (log_softmax_array, attention) reduce across a contiguous
transposed copy: numpy runs a reduction's inner loop once per row of the
contiguous axis, so a last-axis max pays that loop's overhead once per row.
Attention is one node over (q, k, v) with one masking rule: a padded key's
score is -inf, and a query whose keys are all padded gets weights 0, so
output 0, in every float dtype. With P the weights and c = 1/sqrt(d), its
backward is dS = c * P * (dP - rowsum(dP * P)) for dP = g @ V^T.

Float32 is the training precision; gradient checks run the same code in
float64. Only a floating tensor may require grad. A forward that mixes
dtypes promotes as numpy does, and a grad takes its node's dtype, so a
float32 leaf gets a float32 .grad whatever constants the graph meets.
"""

from __future__ import annotations

import contextlib

import numpy as np


class ShapeError(ValueError):
    pass


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / evaluation); leaves keep their requires_grad."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "_requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        # numpy arrays and scalars keep their dtype; any other input becomes float32
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, None if isinstance(data, np.generic) else np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    requires_grad = property(lambda self: self._requires_grad)

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:  # __init__ and _make set the flag here too: the check has no way round
        if flag and self.data.dtype.kind != "f":
            raise ShapeError(f"only a floating tensor may require grad, got {self.data.dtype}")
        self._requires_grad = flag

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def backward(self) -> None:
        """Add the gradient of this scalar into the .grad of every leaf ancestor that requires grad."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        interior: dict[Tensor, np.ndarray] = {}
        owned: set[Tensor] = set()  # nodes whose grad is a buffer this pass allocated

        def receive(node: Tensor, g) -> None:
            leaf = node._backward is None
            if leaf and not node._requires_grad:
                return
            rows, g = (slice(*g[:2]), g[2]) if type(g) is tuple else (..., g)  # slice_rows' row grad, or every row
            g = np.asarray(g, node.data.dtype)
            have = node.grad if leaf else interior.get(node)
            if have is None and rows is ...:
                # Adopted, never written: g may be read-only or another node's grad too.
                have = g.copy() if leaf else g
            else:
                if have is None:
                    have = np.zeros(node.data.shape, node.data.dtype)
                elif not (leaf or node in owned):
                    have = have.copy()
                owned.add(node)
                have[rows] += g
            if leaf:
                node.grad = have
            else:
                interior[node] = have

        receive(self, np.ones_like(self.data))
        for node in reversed(build_tape(self)):
            if node in interior:
                for parent, g in zip(node._parents, node._backward(interior.pop(node))):
                    receive(parent, g)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def build_tape(root: Tensor) -> list[Tensor]:
    """Operations in topological order: every node's inputs precede it."""
    tape: list[Tensor] = []
    visited: set[Tensor] = set()  # a Tensor hashes by identity
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            tape.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent not in visited:
                stack.append((parent, False))
    return tape


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p._requires_grad:
                out.requires_grad, out._parents, out._backward = True, parents, backward_fn
                break
    return out


def _summed_nll(terms: list[tuple]) -> Tensor:
    """One graph node: the sum over terms of lam * (sum of w * NLL of targets) / denom.

    Each term is (logits, rows, log_probs, targets, w, lam, denom). log_probs
    [n, V] is the log-softmax of the [*, V] logits' flat rows `rows`, or of all
    of them in order when rows is None; int targets (else ShapeError) and w are
    [n], each target below V (the callers check). The logits are the node's
    inputs, in term order, and each gets (softmax - onehot) * w * lam / denom
    in the rows it supplied, 0 elsewhere.
    """
    picks = []  # per term, the flat position of each target's log-prob
    value = None
    for _, _, log_probs, t, w, lam, denom in terms:
        _require_integers("loss targets", t)
        n, vocab = log_probs.shape
        picks.append(np.arange(0, n * vocab, vocab) + t.astype(np.intp, copy=False))
        nll = -(log_probs.reshape(-1)[picks[-1]]) * w
        term = np.asarray(np.add.reduce(nll) / denom, dtype=log_probs.dtype) * float(lam)
        value = term if value is None else value + term

    def backward(g):
        grads = []
        for (logits, rows, log_probs, _, w, lam, denom), pick in zip(terms, picks):
            probs = np.exp(log_probs, order="C")  # C order: reshape(-1) must be a view, not a copy
            probs.reshape(-1)[pick] -= 1.0
            probs *= (w * float(g * lam) / denom)[:, None]
            if rows is None:
                grads.append(probs.reshape(logits.data.shape))
            else:
                full = np.zeros(logits.data.shape, dtype=probs.dtype)
                full.reshape(-1, probs.shape[-1])[rows] = probs
                grads.append(full)
        return grads

    return _make(value, tuple(term[0] for term in terms), backward)


def _require_integers(what: str, a: np.ndarray) -> None:
    if a.dtype.kind not in "iu":
        raise ShapeError(f"{what} must be integers, got {a.dtype}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to shape, undoing leading-dim and size-1 broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        try:
            np.broadcast_shapes(a.data.shape, b.data.shape)
        except ValueError:
            raise ShapeError(f"{op}: incompatible shapes {a.data.shape} vs {b.data.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def backward(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)  # under numpy 2 promotion a np.float64 constant would turn float32 into float64

    def backward(g):
        return (g * c,)

    return _make(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., n, k] input times a 2-D [k, m] weight; any other weight raises ShapeError."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: needs a [..., n, k] input and a [k, m] weight, got {a.data.shape} @ {b.data.shape}")

    def backward(g):
        # Fold the batch dims into rows: one GEMM per grad, no per-batch products to sum.
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ b.data.T).reshape(a.data.shape), a.data.reshape(-1, a.data.shape[-1]).T @ g2

    return _make(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _make(np.transpose(a.data, axes), (a,), backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    orig = a.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _make(a.data.reshape(shape), (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of the first axis, ints 0 <= start < stop <= len(a) (else ShapeError); its grad is a row grad."""
    ints = not any(isinstance(i, bool) or not isinstance(i, int) for i in (start, stop))
    if a.data.ndim == 0 or not (ints and 0 <= start < stop <= a.data.shape[0]):
        raise ShapeError(f"slice_rows: rows {start}:{stop} of shape {a.data.shape}")

    def backward(g):
        return ((start, stop, g),)

    return _make(a.data[start:stop].copy(), (a,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a [V, d] table by integer ids; grads scatter-add into the table."""
    _require_integers("embedding_lookup: ids", ids)
    rows, d = table.data.shape
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= rows):
        raise ShapeError(f"ids outside table of {rows} rows")

    def backward(g):
        # One bincount over flat (row, column) cells sums duplicate ids. The cells are
        # built here, not in forward, so the graph holds only the ids until backward.
        cells = (ids.reshape(-1, 1).astype(np.intp, copy=False) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(cells, weights=g.reshape(-1), minlength=rows * d)
        return (gt.reshape(rows, d),)

    return _make(table.data[ids], (table,), backward)


def _row_max(x: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(x, axis=-1, keepdims=True), taken along the rows' long transposed axis."""
    return np.maximum.reduce(np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T), axis=0).reshape(*x.shape[:-1], 1)


def log_softmax_array(x: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis of a plain numpy array (no graph)."""
    shifted = x - _row_max(x)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis (epsilon 1e-5), then scale by gamma and shift by beta, both [D] for a [..., D] x
    (else ShapeError)."""
    d = x.data.shape[-1:]
    if not d or gamma.data.shape != d or beta.data.shape != d:
        raise ShapeError(f"layer_norm: gamma {gamma.data.shape} and beta {beta.data.shape} for input {x.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std

    def backward(g):
        axes = tuple(range(g.ndim - 1))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (dxhat - m1 - xhat * m2) * inv_std, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _make(gamma.data * xhat + beta.data, (x, gamma, beta), backward)


def silu(a: Tensor) -> Tensor:
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * sig * (1.0 + a.data * (1.0 - sig)),)

    return _make(a.data * sig, (a,), backward)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a 0-d tensor."""

    def backward(g):
        return (np.broadcast_to(g, a.data.shape),)

    return _make(a.data.sum(), (a,), backward)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    key_padding_mask: np.ndarray | None = None,
) -> Tensor:
    """Attention over [..., N, d] q, k, v; key_padding_mask is bool [..., M], True = padded, same for every head and
    query. A mask of another dtype, with a query axis or not ending in the M keys raises ShapeError."""
    if min(q.data.ndim, k.data.ndim, v.data.ndim) < 2 or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"scaled_dot_product_attention: q {q.shape}, k {k.shape}, v {v.shape}")
    c = 1.0 / float(np.sqrt(q.data.shape[-1]))
    s = (q.data @ np.swapaxes(k.data, -1, -2)) * c
    if key_padding_mask is not None:
        pad = np.asarray(key_padding_mask)
        if pad.dtype != bool or not 1 <= pad.ndim < s.ndim or pad.shape[-1] != s.shape[-1]:
            raise ShapeError(f"scaled_dot_product_attention: key_padding_mask {pad.dtype} {pad.shape} for scores {s.shape}")
        while pad.ndim < s.ndim:
            pad = np.expand_dims(pad, -2)
        s = np.where(pad, -np.inf, s)
    top = _row_max(s)
    top[top == -np.inf] = 0  # a row with every key padded shifts by 0: exp(-inf) is 0, and -inf - -inf never runs
    p = np.exp(s - top)
    p /= np.maximum(np.add.reduce(p, axis=-1, keepdims=True), 1)  # a live row sums to 1 or more, a dead one to 0: not 0/0

    def backward(g):
        dp = g @ np.swapaxes(v.data, -1, -2)
        ds = p * (dp - np.add.reduce(dp * p, axis=-1, keepdims=True)) * c
        dq, dk, dv = ds @ k.data, np.swapaxes(ds, -1, -2) @ q.data, np.swapaxes(p, -1, -2) @ g
        return _unbroadcast(dq, q.data.shape), _unbroadcast(dk, k.data.shape), _unbroadcast(dv, v.data.shape)

    return _make(p @ v.data, (q, k, v), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    class_weights: np.ndarray | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Weighted negative log-likelihood of integer targets.

    logits is [*, V], targets [*]. class_weights (shape (V,)) scale each
    position by the weight of its target class. "mean" divides by the
    number of positions, "sum" does not; any other reduction, and "mean" over
    zero positions, raise ValueError. Any other shape of targets or
    class_weights raises ShapeError.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"cross_entropy: reduction must be 'mean' or 'sum', got {reduction!r}")
    targets = np.asarray(targets)
    vocab = logits.data.shape[-1]
    if targets.shape != logits.data.shape[:-1]:
        raise ShapeError(f"cross_entropy: targets {targets.shape} for logits {logits.data.shape}")
    _require_integers("cross_entropy: targets", targets)  # before the class-weight gather reads them as indices
    if class_weights is not None and np.shape(class_weights) != (vocab,):
        raise ShapeError(f"cross_entropy: class_weights {np.shape(class_weights)} for vocabulary of size {vocab}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ShapeError(f"targets outside vocabulary of size {vocab}")
    flat = logits.data.reshape(-1, vocab)
    t = targets.reshape(-1)
    if reduction == "mean" and t.shape[0] == 0:
        raise ValueError("cross_entropy over zero positions")
    w = np.ones(t.shape[0], dtype=flat.dtype) if class_weights is None else np.asarray(class_weights, dtype=flat.dtype)[t]
    denom = t.shape[0] if reduction == "mean" else 1
    return _summed_nll([(logits, None, log_softmax_array(flat), t, w, 1.0, denom)])
