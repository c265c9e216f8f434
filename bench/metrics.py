"""Why each per-layer metric is reported, which ``BENCHMARK.json`` cannot say.

``BENCHMARK.json`` at the repository root holds every metric's name, unit,
direction and bound. Here each per-layer metric names the end-to-end metric
it should move and the workloads where its layer is heavy (first) and light
(second), so a performance change can state its prediction in these terms
before it is measured.
"""

from __future__ import annotations

_SMALL = "small-sparse -> large-dense"
_LARGE = "small-sparse -> large-*"
_COLLIDE = "large-dense versus large-sparse"

#: per-layer metric -> (end-to-end metric it should move, heavy in -> light in)
PER_LAYER = {
    "scene.tokenize.p50_us": ("prep_scenes_per_s", _SMALL),
    "scene.clamp_events": ("prep_scenes_per_s", _SMALL),
    "scene.detokenize.p50_us": ("eval_scenes_per_s", _SMALL),
    "masking.sample_mask.p50_us": ("prep_scenes_per_s", _SMALL),
    "masking.corrupt.p50_us": ("prep_scenes_per_s", _SMALL),
    "masking.mask_ratio": ("prep_scenes_per_s", _SMALL),
    "relations.extract_triplets.p50_us": ("prep_scenes_per_s", "large-dense -> small-sparse"),
    "relations.pairs": ("prep_scenes_per_s", "large-dense -> small-sparse"),
    "relations.triplets": ("prep_scenes_per_s", "large-dense -> small-sparse"),
    "relations.yield": ("prep_scenes_per_s", "large-dense -> small-sparse"),
    "relations.mirror_violations": ("prep_scenes_per_s", "large-dense -> small-sparse"),
    "instructions.synthesize_instruction.p50_us": (
        "prep_scenes_per_s", "large-dense (dedupes ~960 triplets per scene) -> small-sparse"),
    "tensor.forward.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.embedding_lookup.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.add.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.layer_norm.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.matmul.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.reshape.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.transpose.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.scaled_dot_product_attention.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.silu.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.op.slice_rows.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.backward.p50_us": ("train_scenes_per_s", _LARGE),
    "tensor.tape_nodes": ("train_scenes_per_s", _LARGE),
    "matching.triplet_loss.p50_us": (
        "train_scenes_per_s", "large-dense and large-sparse (64x64 assignments) -> small-sparse (<=4x16)"),
    "matching.assign_rows": ("train_scenes_per_s", "large-* -> small-sparse"),
    "matching.assign_cols": ("train_scenes_per_s", "large-* -> small-sparse"),
    "matching.truncated": ("train_scenes_per_s", "large-* -> small-sparse"),
    "matching.matched_above_identity": ("train_scenes_per_s", "large-* -> small-sparse"),
    "matching.recon_loss.p50_us": ("train_scenes_per_s", _LARGE),
    "evaluation.collision_metrics.p50_us": ("eval_scenes_per_s", _COLLIDE),
    "evaluation.pairs_tested": ("eval_scenes_per_s", _COLLIDE),
    "evaluation.colliding_pairs": ("eval_scenes_per_s", _COLLIDE),
    "evaluation.collide_yield": ("eval_scenes_per_s", _COLLIDE),
    "evaluation.collision_failures": (
        "eval_scenes_per_s", "large-dense (collinear footprint edges divide by zero) versus large-sparse"),
    "evaluation.irecall.p50_us": ("eval_scenes_per_s", _LARGE),
    "evaluation.attribute_accuracy.p50_us": ("eval_scenes_per_s", _LARGE),
    "trace.overhead_pct": ("-", "traced versus untraced run time of the three paths"),
}
