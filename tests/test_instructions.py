import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.stats import chisquare

from scenenat.evaluation import irecall
from scenenat.instructions import (
    CONNECTOR,
    MAX_TOKENS,
    PAD_WORD,
    SENTENCE_FRAMES,
    TEMPLATES,
    Instruction,
    _discourse_order,
    _referring_expressions,
    build_word_vocab,
    synthesize_instruction,
    tokenize_text,
)
from scenenat.relations import RELATION_SET, RelationTable, RelationTriplet, extract_triplets
from scenenat.relations import RelationPredicate as P
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject

CATEGORIES = ["bed", "chair", "desk", "floor lamp"]
CODEC = SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=8)
LARGE_CODEC = SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=32)
VOCAB = build_word_vocab(CATEGORIES)
WORDS = {i: w for w, i in VOCAB.items()}
EMPTY = SceneLayout("bedroom", [])


def pair_of(t: RelationTriplet) -> frozenset[int]:
    return frozenset((t.subject_instance, t.object_instance))


def synthesize_oracle(k: int, rng: np.random.Generator, triplets: list[RelationTriplet]) -> Instruction:
    """Pair-first sampling over a triplet list, grouping by unordered pair in a dict."""
    pairs: dict[tuple[int, int], list[RelationTriplet]] = {}
    for t in triplets:
        a, b = t.subject_instance, t.object_instance
        pairs.setdefault((a, b) if a < b else (b, a), []).append(t)
    keys = list(pairs)
    picked = sorted(keys[i] for i in rng.choice(len(keys), size=min(k, len(keys)), replace=False).tolist())
    members = rng.integers([len(pairs[key]) for key in picked]).tolist()
    chosen = _discourse_order([pairs[key][j] for key, j in zip(picked, members)])
    sentences = []
    for t, (art_s, art_o) in zip(chosen, _referring_expressions(chosen)):
        frame = TEMPLATES[t.predicate][int(rng.integers(len(SENTENCE_FRAMES)))]
        sentences.append(frame.replace("{s}", f"{art_s} {t.subject}").replace("{o}", f"{art_o} {t.object}"))
    text = f" {CONNECTOR} ".join(sentences)
    return Instruction(text=text, tokens=tokenize_text(text, VOCAB), triplets=chosen)


def table_of(categories: list[str], triplets: list[RelationTriplet]) -> RelationTable:
    rows = [(t.subject_instance, RELATION_SET.index(t.predicate), t.object_instance) for t in triplets]
    table = RelationTable(categories, rows)
    assert list(table) == triplets
    return table


@st.composite
def snapped_layouts(draw):
    """Snapped scenes of 2..8 objects packed into 2 m x 2 m, so most pairs relate."""
    xy = st.floats(-1.0, 1.0)
    objects = [
        SceneObject(
            draw(st.sampled_from(CATEGORIES)),
            (0, 0, 0, 0),
            (draw(xy), draw(xy), draw(st.floats(0.0, 2.0))),
            tuple(draw(st.floats(0.05, 2.0)) for _ in range(3)),
            draw(st.floats(0.0, 360.0, exclude_max=True)),
        )
        for _ in range(draw(st.integers(2, 8)))
    ]
    return CODEC.snap(SceneLayout("bedroom", objects))


@given(snapped_layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_instruction_samples_distinct_pairs_and_renders_its_triplets(scene, k, seed):
    triplets = extract_triplets(scene)
    assume(triplets)
    instr = synthesize_instruction(scene, k, np.random.default_rng(seed), word_to_id=VOCAB)
    assert all(t in triplets for t in instr.triplets)
    pairs = [pair_of(t) for t in instr.triplets]
    assert len(set(pairs)) == len(pairs) == min(k, len({pair_of(t) for t in triplets}))
    assert len(instr.tokens) <= MAX_TOKENS
    assert " ".join(WORDS[i] for i in instr.tokens) == instr.text
    assert irecall([instr], [scene])[0] == 100.0
    assert synthesize_instruction(scene, k, np.random.default_rng(seed), word_to_id=VOCAB) == instr


@st.composite
def crowded_layouts(draw):
    """Snapped layouts plus objects that share a base object's ground centre or stand on it."""
    scene = draw(snapped_layouts())
    objects = list(scene.objects)
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(objects))
        (x, y, z), (w, d, h) = base.position, base.size
        size = tuple(draw(st.floats(0.05, 2.0)) for _ in range(3))
        z = z + (h + size[2]) / 2 + draw(st.floats(0.0, 0.5)) if draw(st.booleans()) else draw(st.floats(0.0, 2.0))
        objects.append(SceneObject(draw(st.sampled_from(CATEGORIES)), (0, 0, 0, 0), (x, y, z), size, 0.0))
    return LARGE_CODEC.snap(SceneLayout("bedroom", objects))


@given(crowded_layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_table_sampling_matches_dict_grouping_oracle(scene, k, seed):
    table = extract_triplets(scene)
    assume(table)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert synthesize_instruction(scene, k, rng, word_to_id=VOCAB) == synthesize_oracle(k, oracle_rng, list(table))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize(
    "ordered, articles",
    [
        ([("bed", 0, "chair", 1)], [("the", "the")]),
        ([("bed", 0, "chair", 1), ("chair", 1, "bed", 0)], [("the", "the"), ("the", "the")]),
        ([("bed", 0, "chair", 1), ("bed", 2, "chair", 1)], [("the", "the"), ("another", "the")]),
        (
            [("bed", 0, "chair", 1), ("bed", 2, "chair", 1), ("desk", 3, "bed", 2), ("bed", 0, "desk", 3)],
            [("the", "the"), ("another", "the"), ("the", "the"), ("the", "the")],
        ),
        ([("bed", 0, "bed", 2), ("bed", 2, "chair", 1)], [("the", "another"), ("the", "the")]),
        (
            [("bed", None, "chair", None), ("chair", None, "bed", None), ("bed", None, "bed", None)],
            [("the", "the"), ("the", "the"), ("the", "the")],
        ),
    ],
    ids=["first-mention", "same-instance-again", "second-instance", "second-instance-again", "one-triplet", "no-instances"],
)
def test_article_rule(ordered, articles):
    # "another" introduces an instance of a category that already has a different one; every other mention is "the"
    triplets = [RelationTriplet(s, P.LEFT_OF, o, s_inst, o_inst) for s, s_inst, o, o_inst in ordered]
    assert _referring_expressions(triplets) == articles


def test_dense_scene_builds_triplets_only_for_the_instruction(monkeypatch):
    built = []
    post_init = RelationTriplet.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RelationTriplet, "__post_init__", counting)
    rng = np.random.default_rng(5)
    objects = [
        SceneObject(CATEGORIES[i % 4], (0, 0, 0, 0), (*rng.uniform(-1.5, 1.5, size=2), 0.5), (0.4, 0.4, 1.0), 0.0)
        for i in range(32)
    ]
    scene = LARGE_CODEC.snap(SceneLayout("bedroom", objects))
    table = extract_triplets(scene)
    assert len(table) > 900 and built == []
    for k in range(1, 5):
        synthesize_instruction(scene, k, rng, word_to_id=VOCAB, triplets=table)
        assert len(built) <= k
        built.clear()


def test_pair_and_member_frequencies_match_exact_probabilities():
    # Three instance pairs with one, two and three members each.
    members = {
        (0, 1): [RelationTriplet("bed", P.LEFT_OF, "chair", 0, 1)],
        (0, 2): [RelationTriplet("bed", P.BEHIND, "desk", 0, 2), RelationTriplet("desk", P.IN_FRONT_OF, "bed", 2, 0)],
        (1, 2): [
            RelationTriplet("chair", P.ABOVE, "desk", 1, 2),
            RelationTriplet("desk", P.BELOW, "chair", 2, 1),
            RelationTriplet("chair", P.CLOSELY_RIGHT_OF, "desk", 1, 2),
        ],
    }
    table = table_of(["bed", "chair", "desk"], [t for group in members.values() for t in group])
    draws = 3000
    for k in range(1, 5):
        count = min(k, len(members))
        expected = {}
        for pairs in combinations(members, count):
            prob = 1 / math.comb(len(members), count) / math.prod(len(members[p]) for p in pairs)
            for outcome in np.ndindex(*(len(members[p]) for p in pairs)):
                expected[frozenset(members[p][j] for p, j in zip(pairs, outcome))] = prob
        assert sum(expected.values()) == pytest.approx(1.0)
        rng = np.random.default_rng(1000 + k)
        seen = Counter(
            frozenset(synthesize_instruction(EMPTY, k, rng, triplets=table, word_to_id=VOCAB).triplets)
            for _ in range(draws)
        )
        assert set(seen) <= set(expected)
        outcomes = list(expected)
        result = chisquare([seen[o] for o in outcomes], [draws * expected[o] for o in outcomes])
        assert result.pvalue > 1e-4, (k, result)


def test_bad_table_fails_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="relates an instance to itself"):
        table = RelationTable(["bed", "chair"], [[0, 0, 1], [1, 0, 1]])
        synthesize_instruction(EMPTY, 2, rng, triplets=table, word_to_id=VOCAB)
    triplets = [RelationTriplet("bed", P.LEFT_OF, "chair", 0, 1)]
    with pytest.raises(TypeError, match="must be a RelationTable"):
        synthesize_instruction(EMPTY, 2, rng, triplets=triplets, word_to_id=VOCAB)
    assert rng.bit_generator.state == state


def test_category_word_missing_from_vocabulary_fails_before_any_draw():
    # The check reads the table's categories, so even the unrelated sofa counts.
    table = RelationTable(["bed", "chair", "sofa"], [[0, 2, 1]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"missing from word_to_id: \['sofa'\]"):
        synthesize_instruction(EMPTY, 1, rng, triplets=table, word_to_id=VOCAB)
    assert rng.bit_generator.state == state


def test_word_vocab_covers_every_template_word():
    assert VOCAB[PAD_WORD] == 0
    assert sorted(VOCAB.values()) == list(range(len(VOCAB)))
    assert len(TEMPLATES) == len(P) - 1
    for frames in TEMPLATES.values():
        assert len(frames) == len(SENTENCE_FRAMES)
        for frame in frames:
            for article in ("the", "another"):
                for cat in CATEGORIES:
                    text = frame.replace("{s}", f"{article} {cat}").replace("{o}", f"{article} {cat}")
                    assert all(w in VOCAB for w in f"{text} and {text}".split())
