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
    MAX_TOKENS,
    PAD_WORD,
    SENTENCE_FRAMES,
    TEMPLATES,
    build_word_vocab,
    synthesize_instruction,
)
from scenenat.relations import RelationPredicate as P
from scenenat.relations import RelationTriplet, extract_triplets
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject

CATEGORIES = ["bed", "chair", "desk", "floor lamp"]
CODEC = SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=8)
VOCAB = build_word_vocab(CATEGORIES)
WORDS = {i: w for w, i in VOCAB.items()}
EMPTY = SceneLayout("bedroom", [])


def pair_of(t: RelationTriplet) -> frozenset[int]:
    return frozenset((t.subject_instance, t.object_instance))


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
    triplets = [t for group in members.values() for t in group]
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
            frozenset(synthesize_instruction(EMPTY, k, rng, triplets=triplets, word_to_id=VOCAB).triplets)
            for _ in range(draws)
        )
        assert set(seen) <= set(expected)
        outcomes = list(expected)
        result = chisquare([seen[o] for o in outcomes], [draws * expected[o] for o in outcomes])
        assert result.pvalue > 1e-4, (k, result)


def test_triplet_without_instance_ids_fails_before_any_draw():
    triplets = [RelationTriplet("bed", P.LEFT_OF, "chair", 0, 1), RelationTriplet("bed", P.LEFT_OF, "chair")]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="triplet 1 has no instance ids"):
        synthesize_instruction(EMPTY, 2, rng, triplets=triplets, word_to_id=VOCAB)
    assert rng.bit_generator.state == state


def test_category_word_missing_from_vocabulary_fails_before_any_draw():
    triplets = [RelationTriplet("bed", P.LEFT_OF, "chair", 0, 1), RelationTriplet("sofa", P.ABOVE, "bed", 2, 0)]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"missing from word_to_id: \['sofa'\]"):
        synthesize_instruction(EMPTY, 1, rng, triplets=triplets, word_to_id=VOCAB)
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
