"""Stand-ins for the model and the decoder the repository does not have yet.

The model is built only from public ``scenenat.tensor`` ops and has fixed
seeded weights; it exists so that a train step exercises the autodiff
library, the reconstruction loss and the Hungarian-matched triplet loss at
realistic shapes. The decoder fills every MASK token, and every PAD token in
a live row, with a seeded draw from that column's head range. Both are to be
replaced by the real model and MaskGIT-style decoder.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from scenenat import tensor as tn
from scenenat.matching import ATTRIBUTE_COLUMNS
from scenenat.relations import RELATION_SET
from scenenat.scene import SceneCodec, TokenizedScene

#: Every tensor op the stand-in calls; the benchmark times each one.
OPS = (
    "embedding_lookup",
    "add",
    "layer_norm",
    "matmul",
    "reshape",
    "transpose",
    "scaled_dot_product_attention",
    "silu",
    "slice_rows",
)
D, HEADS, HIDDEN = 64, 4, 128  # model width, attention heads, MLP width


class StandInModel:
    """Embeddings -> one attention block -> attribute heads and triplet queries."""

    def __init__(self, codec: SceneCodec, queries: int, rng: np.random.Generator):
        def param(*shape, scale=None):
            scale = 1.0 / np.sqrt(shape[0]) if scale is None else scale
            return tn.Tensor((rng.standard_normal(shape) * scale).astype(np.float32), requires_grad=True)

        def const(value, n):
            return tn.Tensor(np.full(n, value, dtype=np.float32), requires_grad=True)

        self.queries = queries
        self.embed = [param(col.table_rows, D, scale=0.1) for col in codec.columns]
        self.ln1 = (const(1.0, D), const(0.0, D))
        self.ln2 = (const(1.0, D), const(0.0, D))
        self.wq, self.wk, self.wv, self.wo = (param(D, D) for _ in range(4))
        self.w1, self.w2 = param(D, HIDDEN), param(HIDDEN, D)
        self.attr_heads = {}
        for name, (lo, hi) in ATTRIBUTE_COLUMNS.items():
            width = codec.columns[lo].head_width
            self.attr_heads[name] = (param(D, (hi - lo) * width), hi - lo, width)
        self.query_embed = param(queries, D, scale=1.0)
        self.wqc = param(D, D)
        # subject/object heads: real categories plus the null class; predicates likewise
        n_cat = len(codec.categories) + 1
        self.triplet_heads = (param(D, n_cat), param(D, len(RELATION_SET) + 1), param(D, n_cat))

    def parameters(self) -> list[tn.Tensor]:
        params = list(self.embed) + [*self.ln1, *self.ln2, self.wq, self.wk, self.wv, self.wo, self.w1, self.w2]
        params += [w for w, _, _ in self.attr_heads.values()]
        return params + [self.query_embed, self.wqc, *self.triplet_heads]

    def forward(self, ops: SimpleNamespace, tokens: np.ndarray, pad_mask: np.ndarray):
        """tokens [B, N, 12] -> (attribute logits dict, (subject, predicate, object) [B, Q, *])."""
        b, n, _ = tokens.shape
        h, dh = HEADS, D // HEADS
        x = None
        for c, table in enumerate(self.embed):
            e = ops.embedding_lookup(table, tokens[:, :, c])
            x = e if x is None else ops.add(x, e)

        def split(t):
            return ops.transpose(ops.reshape(t, (b, n, h, dh)), (0, 2, 1, 3))

        y = ops.layer_norm(x, *self.ln1)
        q, k, v = (split(ops.matmul(y, w)) for w in (self.wq, self.wk, self.wv))
        a = ops.scaled_dot_product_attention(q, k, v, key_padding_mask=pad_mask)
        a = ops.reshape(ops.transpose(a, (0, 2, 1, 3)), (b, n, D))
        x = ops.add(x, ops.matmul(a, self.wo))
        y = ops.layer_norm(x, *self.ln2)
        x = ops.add(x, ops.matmul(ops.silu(ops.matmul(y, self.w1)), self.w2))
        logits = {
            name: ops.reshape(ops.matmul(x, w), (b, n, cols, width))
            for name, (w, cols, width) in self.attr_heads.items()
        }
        qc = ops.matmul(self.query_embed, self.wqc)
        c = ops.scaled_dot_product_attention(qc, x, x, key_padding_mask=pad_mask)
        return logits, tuple(ops.matmul(c, w) for w in self.triplet_heads)


def decode(codec: SceneCodec, grid: TokenizedScene, rng: np.random.Generator) -> tuple[TokenizedScene, np.ndarray]:
    """Fill MASK everywhere and PAD in live rows; returns the grid and the filled positions."""
    tokens = grid.tokens.copy()
    heads = np.array([c.head_width for c in codec.columns])
    pads = np.array([-1 if c.pad_id is None else c.pad_id for c in codec.columns])
    draws = rng.integers(heads, size=tokens.shape)
    mask_ids = codec.mask_ids
    filled = tokens == mask_ids
    tokens[filled[:, 0], 0] = draws[filled[:, 0], 0]
    live = tokens[:, 0] != codec.empty_id
    filled[:, 1:] |= live[:, None] & (tokens[:, 1:] == pads[1:])
    tokens[filled] = draws[filled]
    return TokenizedScene(tokens, np.zeros_like(grid.mask_flags)), filled
