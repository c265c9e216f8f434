"""Set-up, the three timed paths, the gated census, and the timed loop.

The three paths are the ones users wait on:

* prep:  scene.tokenize -> relations.extract_triplets ->
         instructions.synthesize_instruction -> masking.sample_mask + corrupt
* train: stand-in forward -> matching.recon_loss + matching.triplet_loss ->
         Tensor.backward
* eval:  scene.detokenize -> evaluation.collision_metrics, irecall,
         attribute_accuracy

Every call into the program goes through ``make_calls``, so a traced run
wraps exactly the calls an untraced run makes.
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from scenenat import evaluation, instructions, masking, matching, relations
from scenenat import scene as scene_mod
from scenenat import tensor as tn
from scenenat.relations import RelationPredicate, frame_of, mirror_predicate
from scenenat.scene import DiscretizationSpec, SceneCodec

from . import gate
from .clock import Clock
from .scenes import CATEGORIES, ROOM_TYPE, Workload, generate_pool
from .spans import untraced
from .standin import OPS, StandInModel, decode

WEIGHTS = matching.LossWeights()
PHASES = ("prep", "train", "eval")
# Random streams derived from the workload seed, as (seed, stream[, index]).
PREP_STREAM, DECODE_STREAM, CHECK_STREAM = 2, 3, 4
# The stand-in's weights are part of the system under test, not of its input,
# so they do not change with the workload seed.
MODEL_SEED = 20260117
COLLISION_CHECK_PAIRS = 4
# Seconds each path runs before the next takes its turn. Train steps are the
# longest and noisiest batches, so they get two thirds of the time or more.
TURN_S = {"prep": 0.15, "train": 0.6, "eval": 0.15}


def make_calls(codec: SceneCodec, model: StandInModel, wrap, clock: Clock | None = None) -> SimpleNamespace:
    """The program's public functions the benchmark calls, each passed through wrap.

    With a clock, every triplet_loss call (the bulk of a large train step)
    starts a new clock segment.
    """
    triplet_loss = wrap("matching.triplet_loss", matching.triplet_loss)
    return SimpleNamespace(
        tokenize=wrap("scene.tokenize", codec.tokenize),
        detokenize=wrap("scene.detokenize", codec.detokenize),
        extract_triplets=wrap("relations.extract_triplets", relations.extract_triplets),
        synthesize_instruction=wrap("instructions.synthesize_instruction", instructions.synthesize_instruction),
        sample_mask=wrap("masking.sample_mask", masking.sample_mask),
        corrupt=wrap("masking.corrupt", masking.corrupt),
        forward=wrap("tensor.forward", model.forward),
        ops=SimpleNamespace(**{op: wrap(f"tensor.op.{op}", getattr(tn, op)) for op in OPS}),
        recon_loss=wrap("matching.recon_loss", matching.recon_loss),
        triplet_loss=clock.splitting(triplet_loss) if clock else triplet_loss,
        backward=wrap("tensor.backward", tn.Tensor.backward),
        collision_metrics=wrap("evaluation.collision_metrics", evaluation.collision_metrics),
        irecall=wrap("evaluation.irecall", evaluation.irecall),
        attribute_accuracy=wrap("evaluation.attribute_accuracy", evaluation.attribute_accuracy),
    )


@dataclass
class Prepped:
    """The prep path's output for one scene."""

    grid: scene_mod.TokenizedScene
    triplets: list[relations.RelationTriplet]
    instruction: instructions.Instruction
    plan: masking.MaskPlan
    corrupted: scene_mod.TokenizedScene
    targets: np.ndarray


def mirror_violations(triplets: list[relations.RelationTriplet]) -> int:
    """Unordered pairs whose two orders are not mirror predicates."""
    pred = {(t.subject_instance, t.object_instance): t.predicate for t in triplets}
    none = RelationPredicate.NONE
    pairs = {(min(i, j), max(i, j)) for i, j in pred}
    return sum(pred.get((j, i), none) is not mirror_predicate(pred.get((i, j), none)) for i, j in pairs)


def identity_loss(gt, s: tn.Tensor, p: tn.Tensor, o: tn.Tensor) -> float:
    """The triplet loss with ground-truth triplet j assigned to query j, in the same arithmetic."""
    loss = None
    for col, (logits, lam) in enumerate(((s, WEIGHTS.subject), (p, WEIGHTS.predicate), (o, WEIGHTS.object))):
        null = logits.shape[-1] - 1
        targets = np.full(logits.shape[0], null, dtype=np.int64)
        targets[: len(gt)] = [t[col] for t in gt]
        class_w = np.ones(logits.shape[-1])
        class_w[null] = WEIGHTS.null_class
        term = tn.scale(tn.cross_entropy(logits, targets, class_weights=class_w, reduction="sum"), lam)
        loss = term if loss is None else tn.add(loss, term)
    return loss.item()


class Bench:
    """One workload after set-up: snapped scene pool, codec, stand-ins, per-batch inputs.

    Constructing it is the set-up the benchmark times: scene generation,
    codec, vocabulary and stand-in construction, one prep pass over the
    pool, decoding, and a warm-up train step and eval batch.
    """

    def __init__(self, w: Workload, seed: int, clock: Clock | None = None):
        """Set up; a given clock is split between the stages so its time can be normalized."""
        clock = clock or Clock()
        self.w, self.seed = w, seed
        self.codec = SceneCodec(list(CATEGORIES), DiscretizationSpec(), max_objects=w.objects)
        before = scene_mod.clamp_event_count()
        self.scenes = [self.codec.snap(s) for s in generate_pool(w, seed)]
        self.clamp_events = scene_mod.clamp_event_count() - before
        clock.split()
        self.vocab = instructions.build_word_vocab(list(CATEGORIES))
        self.model = StandInModel(self.codec, w.queries, np.random.default_rng(MODEL_SEED))
        self.params = self.model.parameters()
        self.calls = make_calls(self.codec, self.model, untraced)
        self.batches = w.pool // w.batch
        calls = make_calls(self.codec, self.model, untraced, clock)
        self.prepped = []
        for b in range(self.batches):
            self.prepped += self.prep_batch(calls, b)
            clock.split()
        rng = np.random.default_rng((seed, DECODE_STREAM))
        self.decoded, self.filled = zip(*(decode(self.codec, p.corrupted, rng) for p in self.prepped))
        self.train_inputs = [self._train_input(b) for b in range(self.batches)]
        self.train_refs: dict[int, bytes] = {}
        self.eval_refs: list = []
        self.train_step(calls, 0)
        clock.split()
        self.eval_batch(calls, 0)

    def _rows(self, b: int) -> range:
        return range(b * self.w.batch, (b + 1) * self.w.batch)

    def _train_input(self, b: int):
        ps = [self.prepped[i] for i in self._rows(b)]
        tokens = np.stack([p.corrupted.tokens for p in ps])
        gts = [
            matching.encode_triplets(p.triplets if self.w.scene_triplets else p.instruction.triplets, self.codec)
            for p in ps
        ]
        return tokens, tokens[:, :, 0] == self.codec.empty_id, np.stack([p.targets for p in ps]), gts

    # -- the three paths ---------------------------------------------------

    def prep_batch(self, calls: SimpleNamespace, b: int) -> list[Prepped]:
        rng = np.random.default_rng((self.seed, PREP_STREAM, b))
        out = []
        for i in self._rows(b):
            s = self.scenes[i]
            grid = calls.tokenize(s)
            triplets = calls.extract_triplets(s)
            k = 1 + i % instructions.MAX_RELATIONS
            instr = calls.synthesize_instruction(s, k, rng, triplets=triplets, word_to_id=self.vocab)
            plan = calls.sample_mask(grid, rng)
            corrupted, targets = calls.corrupt(grid, plan, rng, self.codec)
            out.append(Prepped(grid, triplets, instr, plan, corrupted, targets))
        return out

    def train_step(self, calls: SimpleNamespace, b: int) -> tn.Tensor:
        for p in self.params:
            p.grad = None
        tokens, pad, targets, gts = self.train_inputs[b]
        ops = calls.ops
        logits, heads = calls.forward(ops, tokens, pad)
        loss = calls.recon_loss(logits, targets, WEIGHTS)
        for j, gt in enumerate(gts):
            s, p, o = (ops.reshape(ops.slice_rows(t, j, j + 1), t.shape[1:]) for t in heads)
            loss = ops.add(loss, calls.triplet_loss(gt, s, p, o, WEIGHTS))
        calls.backward(loss)
        return loss

    def eval_batch(self, calls: SimpleNamespace, b: int):
        rows = self._rows(b)
        scenes, reports = [], []
        for i in rows:
            scenes.append(calls.detokenize(self.decoded[i], room_type=ROOM_TYPE))
            try:
                reports.append(calls.collision_metrics(scenes[-1]))
            except ZeroDivisionError:  # known defect: collinear footprint edges
                reports.append(None)
        recall = calls.irecall([self.prepped[i].instruction for i in rows], scenes)
        targets = [self.prepped[i].grid for i in rows]
        generated = [self.decoded[i] for i in rows]
        acc = calls.attribute_accuracy(targets, generated, [self.filled[i] for i in rows], self.codec)
        return scenes, reports, recall, acc

    # -- correctness -------------------------------------------------------

    def census(self) -> tuple[dict[str, float], str]:
        """Run the correctness gate and one fixed pass; return the counters and an output digest.

        Raises gate.GateError on the first check that fails. Counters come
        from this fixed pass, not from the timed loop, so they repeat
        exactly for a seed.
        """
        w, calls = self.w, self.calls
        gate.check_roundtrip(self.codec, self.scenes)
        gate.check_irecall(evaluation.irecall([p.instruction for p in self.prepped], self.scenes)[0])

        first = self.train_step(calls, 0)
        first_loss, tape_nodes = first.data.copy(), len(tn.build_tape(first))
        grads = [p.grad for p in self.params]
        gate.check_train_step(first_loss, self.train_step(calls, 0).data, grads)
        self.train_refs[0] = first_loss.tobytes()

        costs, matched, rows, above = [], [], [], 0
        truncated_before = matching.truncated_triplet_count()
        tokens, pad, _, gts = self.train_inputs[0]
        with tn.no_grad():
            _, heads = self.model.forward(calls.ops, tokens, pad)
            for j, gt in enumerate(gts):
                s, p, o = (tn.Tensor(t.data[j]) for t in heads)
                kept = gt[: w.queries]
                costs.append(matching.matching_cost(kept, s.data, p.data, o.data))
                matched.append(matching.triplet_loss(gt, s, p, o, WEIGHTS).item())
                above += matched[-1] > identity_loss(kept, s, p, o) + 1e-9
                rows.append(len(kept))
        truncated = matching.truncated_triplet_count() - truncated_before
        gate.check_hungarian(costs)

        self.eval_refs = [self.eval_batch(calls, b) for b in range(self.batches)]
        for b, (_, _, _, acc) in enumerate(self.eval_refs):
            r = self._rows(b)
            want = gate.attribute_accuracy_reference(
                self.codec, [self.prepped[i].grid for i in r], [self.decoded[i] for i in r], [self.filled[i] for i in r]
            )
            gate.check_attribute_accuracy(acc, want)
        decoded = [s for scenes, *_ in self.eval_refs for s in scenes]
        gate.check_monte_carlo(
            list(itertools.islice(colliding_pairs(decoded), COLLISION_CHECK_PAIRS)),
            np.random.default_rng((self.seed, CHECK_STREAM)),
        )

        digest = hashlib.sha256()
        for p in self.prepped:
            digest.update(p.corrupted.tokens.tobytes() + p.targets.tobytes() + p.instruction.text.encode())
        digest.update(first_loss.tobytes() + np.asarray(matched).tobytes())
        for _, reports, recall, acc in self.eval_refs:
            digest.update(repr(([r and r.to_json() for r in reports], recall, acc)).encode())

        pairs = w.objects * (w.objects - 1)
        triplets = statistics.fmean(len(p.triplets) for p in self.prepped)
        tested = sum(len(s.objects) * (len(s.objects) - 1) // 2 for s in decoded)
        reports = [r for _, rs, _, _ in self.eval_refs for r in rs]
        colliding = sum(r.colliding_pairs for r in reports if r)
        counts = {
            "scene.clamp_events": self.clamp_events,
            "masking.mask_ratio": statistics.fmean(p.plan.masked_count / p.grid.tokens.size for p in self.prepped),
            "relations.pairs": pairs,
            "relations.triplets": triplets,
            "relations.yield": triplets / pairs,
            "relations.mirror_violations": sum(mirror_violations(p.triplets) for p in self.prepped),
            "tensor.tape_nodes": tape_nodes,
            "matching.assign_rows": statistics.fmean(rows),
            "matching.assign_cols": w.queries,
            "matching.truncated": truncated,
            "matching.matched_above_identity": int(above),
            "evaluation.pairs_tested": tested / len(decoded),
            "evaluation.colliding_pairs": colliding / len(decoded),
            "evaluation.collide_yield": colliding / tested if tested else 0.0,
            "evaluation.collision_failures": reports.count(None),
        }
        return counts, digest.hexdigest()[:16]

    def same_as_reference(self, phase: str, b: int, out) -> bool:
        """Whether a timed batch reproduced the census output for that batch."""
        if phase == "prep":
            ref = [self.prepped[i] for i in self._rows(b)]
            return all(
                np.array_equal(o.corrupted.tokens, r.corrupted.tokens)
                and np.array_equal(o.targets, r.targets)
                and o.instruction.text == r.instruction.text
                for o, r in zip(out, ref)
            )
        if phase == "train":
            return self.train_refs.setdefault(b, out.data.tobytes()) == out.data.tobytes()
        _, reports, recall, acc = out
        _, ref_reports, ref_recall, ref_acc = self.eval_refs[b]
        return reports == ref_reports and recall == ref_recall and acc == ref_acc


def colliding_pairs(scenes):
    """(frame, frame) for each object pair with a positive intersection volume, in scene order.

    Pairs whose volume raises (the collinear-edge defect) are skipped; the
    census counts them through collision_metrics.
    """
    for s in scenes:
        frames = [frame_of(o) for o in s.objects]
        for a, b in itertools.combinations(frames, 2):
            try:
                if evaluation.obb_intersection_volume(a, b) > 0.0:
                    yield a, b
            except ZeroDivisionError:
                pass


@dataclass
class Timings:
    """Batch durations in seconds, raw and normalized, per path and batch index."""

    units: int  # scenes or grids per batch
    raw: dict[str, dict[int, list[float]]]
    scaled: dict[str, dict[int, list[float]]]
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    first_error: str = ""

    def per_unit(self, phase: str, raw: bool = False) -> float:
        """Seconds per scene or grid over the pool, each batch at its median time.

        Summing per-batch medians over the pool keeps both a noisy batch and
        the choice of batches out of the figure.
        """
        batches = (self.raw if raw else self.scaled)[phase]
        return sum(statistics.median(v) for v in batches.values()) / (len(batches) * self.units)


def measure(bench: Bench, wrap, seconds: float) -> Timings:
    """Give each path a TURN_S turn in rotation until the time is up; check every output.

    Within its turn a path runs whole batches, cycling through the pool, so
    each path's share of the time does not depend on what its batch costs.
    Batch times are normalized by the reference kernel (see ``clock``). A
    batch that raises counts all its scenes or grids as failed; an eval
    scene whose collision_metrics raises counts as one. Output checks run
    outside the timed region.
    """
    clock = Clock()
    calls = make_calls(bench.codec, bench.model, wrap, clock)
    run = {"prep": bench.prep_batch, "train": bench.train_step, "eval": bench.eval_batch}
    t = Timings(bench.w.batch, {p: {} for p in PHASES}, {p: {} for p in PHASES})
    done = dict.fromkeys(PHASES, 0)
    deadline = perf_counter() + seconds
    while True:
        for phase in PHASES:
            turn_end = perf_counter() + TURN_S[phase]
            while True:
                b = done[phase] % bench.batches
                done[phase] += 1
                t.attempted += t.units
                clock.restart()
                try:
                    out = run[phase](calls, b)
                except Exception:
                    t.failed += t.units
                    t.first_error = t.first_error or traceback.format_exc()
                    out = None
                clock.split()
                if out is not None:
                    t.failed += out[1].count(None) if phase == "eval" else 0
                    t.raw[phase].setdefault(b, []).append(clock.raw)
                    t.scaled[phase].setdefault(b, []).append(clock.normalized)
                    t.mismatched += not bench.same_as_reference(phase, b, out)
                if perf_counter() >= turn_end:
                    break
        if perf_counter() >= deadline:
            return t
