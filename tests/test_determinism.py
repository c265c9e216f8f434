"""One seed gives one result: the prep chain and the training losses repeat bit for bit."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from scenenat import tensor as tn
from scenenat.instructions import synthesize_instruction
from scenenat.masking import corrupt, sample_mask
from scenenat.matching import ATTRIBUTE_COLUMNS, LossWeights, encode_triplets, recon_loss, triplet_loss
from scenenat.relations import RELATION_SET, extract_triplets
from scenenat.scene import SceneLayout

from support import CATEGORIES, CODEC, VOCAB, snapped_layouts

QUERIES = 8


def prep_and_losses(scene: SceneLayout, seed: int) -> list[bytes]:
    """Every output of the prep chain and of both losses on fixed logits, as bytes."""
    rng = np.random.default_rng(seed)
    grid = CODEC.tokenize(scene)
    table = extract_triplets(scene)
    instr = synthesize_instruction(scene, 1 + seed % 4, rng, triplets=table, word_to_id=VOCAB)
    plan = sample_mask(grid, rng)
    corrupted, targets = corrupt(grid, plan, rng, CODEC)

    logits_rng = np.random.default_rng(0)

    def leaf(*shape):
        return tn.Tensor(logits_rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    attrs = {}
    for name, (lo, hi) in ATTRIBUTE_COLUMNS.items():
        width = CODEC.columns[lo].head_width
        attrs[name] = leaf(1, CODEC.max_objects, width) if hi - lo == 1 else leaf(1, CODEC.max_objects, hi - lo, width)
    n_cat = len(CATEGORIES) + 1
    heads = (leaf(QUERIES, n_cat), leaf(QUERIES, len(RELATION_SET) + 1), leaf(QUERIES, n_cat))
    weights = LossWeights()
    gt = encode_triplets(instr.triplets, CODEC)
    loss = tn.add(recon_loss(attrs, targets[None], weights), triplet_loss(gt, *heads, weights))
    loss.backward()

    out = [grid.tokens.tobytes(), repr(list(table)).encode(), instr.text.encode()]
    out += [instr.triplets.rows.tobytes(), repr(instr.triplets.categories).encode()]
    out += [plan.positions.tobytes(), corrupted.tokens.tobytes(), corrupted.mask_flags.tobytes(), targets.tobytes()]
    out.append(loss.data.tobytes())
    out += [b"" if t.grad is None else t.grad.tobytes() for t in (*attrs.values(), *heads)]
    return out


@given(snapped_layouts(CODEC), st.integers(0, 2**32 - 1))
def test_prep_chain_and_losses_repeat_bitwise_for_a_seed(scene, seed):
    assume(len(extract_triplets(scene)))
    assert prep_and_losses(scene, seed) == prep_and_losses(scene, seed)
