import math
import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import chisquare

from scenenat.evaluation import irecall
from scenenat.instructions import (
    CONNECTOR,
    MAX_TOKENS,
    PAD_WORD,
    PREDICATE_PHRASES,
    SENTENCE_FRAMES,
    Instruction,
    _sentence_plan,
    build_word_vocab,
    synthesize_instruction,
)
from scenenat.relations import RELATION_SET, RelationTable, RelationTriplet, extract_triplets
from scenenat.relations import RelationPredicate as P
from scenenat.scene import DiscretizationSpec, SceneCodec, SceneLayout, SceneObject

from support import CATEGORIES, CODEC, VOCAB, LargestDraws, count_calls, snapped_layouts

LARGE_CODEC = SceneCodec(CATEGORIES, DiscretizationSpec(), max_objects=32)
WORDS = {i: w for w, i in VOCAB.items()}
EMPTY = SceneLayout("bedroom", [])


def pair_of(t: RelationTriplet) -> frozenset[int]:
    return frozenset((t.subject_instance, t.object_instance))


def discourse_order_oracle(triplets: list[RelationTriplet]) -> list[RelationTriplet]:
    """Greedy reorder so each sentence reuses a mentioned category if it can."""
    remaining = list(triplets)
    ordered = [remaining.pop(0)]
    mentioned = {ordered[0].subject, ordered[0].object}
    while remaining:
        idx = next((i for i, t in enumerate(remaining) if t.subject in mentioned or t.object in mentioned), 0)
        nxt = remaining.pop(idx)
        ordered.append(nxt)
        mentioned.update((nxt.subject, nxt.object))
    return ordered


def referring_expressions_oracle(ordered: list[RelationTriplet]) -> list[tuple[str, str]]:
    """The article of each mention: "another" for an instance new to a category that already has one, else "the"."""
    introduced: dict[str, set[int]] = {}
    arts = []
    for t in ordered:
        pair = []
        for cat, inst in ((t.subject, t.subject_instance), (t.object, t.object_instance)):
            seen = introduced.setdefault(cat, set())
            pair.append("another" if seen and inst not in seen else "the")
            seen.add(inst)
        arts.append(tuple(pair))
    return arts


def synthesize_oracle(k: int, rng: np.random.Generator, table: RelationTable) -> Instruction:
    """Pair-first sampling over a table's triplets, grouping by unordered pair in a dict and selecting by key order."""
    pairs: dict[tuple[int, int], list[RelationTriplet]] = {}
    for t in table:
        a, b = t.subject_instance, t.object_instance
        pairs.setdefault((a, b) if a < b else (b, a), []).append(t)
    keys = list(pairs)
    n = min(k, len(keys))
    draws = rng.random(len(keys) + 2 * n).tolist()
    pair_keys, member_draws, frame_draws = draws[: len(keys)], draws[len(keys) : len(keys) + n], draws[len(keys) + n :]
    picked = sorted(keys[i] for i in sorted(range(len(keys)), key=pair_keys.__getitem__)[:n])
    members = [int(u * len(pairs[key])) for u, key in zip(member_draws, picked)]
    chosen = discourse_order_oracle([pairs[key][j] for key, j in zip(picked, members)])
    sentences = []
    for t, (art_s, art_o), u in zip(chosen, referring_expressions_oracle(chosen), frame_draws):
        frame = SENTENCE_FRAMES[int(u * len(SENTENCE_FRAMES))].replace("{p}", PREDICATE_PHRASES[t.predicate])
        sentences.append(frame.replace("{s}", f"{art_s} {t.subject}").replace("{o}", f"{art_o} {t.object}"))
    text = f" {CONNECTOR} ".join(sentences)
    return Instruction(text=text, tokens=[VOCAB[w] for w in text.split()], triplets=table_of(table.categories, chosen))


def table_of(categories: list[str], triplets: list[RelationTriplet]) -> RelationTable:
    rows = [(t.subject_instance, RELATION_SET.index(t.predicate), t.object_instance) for t in triplets]
    table = RelationTable(categories, rows)
    assert list(table) == triplets
    return table


@given(snapped_layouts(CODEC), st.integers(1, 4), st.integers(0, 2**32 - 1))
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
    scene = draw(snapped_layouts(CODEC))
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
    assert synthesize_instruction(scene, k, rng, word_to_id=VOCAB) == synthesize_oracle(k, oracle_rng, table)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def boundary_table(n: int, seed: int) -> RelationTable:
    """A table over n instances in which a few unordered pairs each hold two to five rows, in both orientations as
    in an extraction table. The pairs include (n - 2, n - 1), whose code min * n + max is the largest, and up to three pairs whose
    codes equal that one modulo 256, which a code dtype too narrow for n would merge with it. Rows are in
    (subject, object) order, as extraction's are, so pairs first occur in code order; rows of one ordered pair
    keep a shuffled order."""
    rng = np.random.default_rng(seed)
    top = (n - 2) * n + n - 1
    aliases = (divmod(c, n) for c in range(top % 256, top, 256)[:3])
    pairs = {(n - 2, n - 1), *((a, b) for a, b in aliases if a < b)}
    while len(pairs) < 8:
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((a, b))
    rows = [
        [s, int(rng.integers(len(RELATION_SET))), o]
        for a, b in sorted(pairs)
        for s, o in [(a, b), (b, a)] + [(a, b) if rng.random() < 0.5 else (b, a) for _ in range(int(rng.integers(4)))]
    ]
    rng.shuffle(rows)
    rows.sort(key=lambda row: (row[0], row[2]))
    return RelationTable([CATEGORIES[i % len(CATEGORIES)] for i in range(n)], rows)


@pytest.mark.parametrize(
    "n, code_dtype",
    [(15, np.uint8), (16, np.uint8), (17, np.uint16), (255, np.uint16), (256, np.uint16), (257, np.uint32)],
)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_grouping_at_the_code_dtype_boundaries_matches_the_oracle(n, code_dtype, seed, k):
    # pair codes are held in the smallest unsigned dtype that fits n * n - 1, whose stable sort is a radix sort up
    # to uint16; the picks, members and generator state must be the dict grouping's on either side of each width
    assert np.min_scalar_type(n * n - 1) == code_dtype
    table = boundary_table(n, seed)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    instr = synthesize_instruction(EMPTY, k, rng, word_to_id=VOCAB, triplets=table)
    assert instr == synthesize_oracle(k, oracle_rng, table)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def spread_layouts(draw):
    """Unsnapped scenes of 0..4 objects over 16 m x 16 m, so many have few relations or none."""
    xy = st.floats(-8.0, 8.0)
    objects = [
        SceneObject(
            draw(st.sampled_from(CATEGORIES)),
            (0, 0, 0, 0),
            (draw(xy), draw(xy), 0.5),
            (0.5, 0.5, 1.0),
            draw(st.floats(-720.0, 720.0)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return SceneLayout("bedroom", objects)


def assert_checked(table: RelationTable, categories):
    """The table equals the one the checked constructor builds from a copy of its rows, which are frozen int64."""
    assert table.rows.dtype == np.int64 and table.rows.shape == (len(table), 3) and not table.rows.flags.writeable
    assert table == RelationTable(categories, table.rows.copy())


@given(crowded_layouts() | spread_layouts(), st.integers(0, 2**32 - 1))
@example(EMPTY, 0)
def test_derived_tables_pass_the_checked_constructor(scene, seed):
    # extract_triplets and the instruction's table skip the constructor's checks; this is where they still hold
    table = extract_triplets(scene)
    assert_checked(table, scene.categories)
    rng = np.random.default_rng(seed)
    for k in range(1, 5) if len(table) else ():
        instr = synthesize_instruction(scene, k, rng, word_to_id=VOCAB, triplets=table)
        assert len(instr.triplets) == min(k, len({pair_of(t) for t in table}))
        assert_checked(instr.triplets, scene.categories)


def test_prep_builds_no_checked_table(monkeypatch):
    # a guard on call counts, not a timing: prep's tables come from rows already checked or derived
    # four objects 1 m apart in a row: every pair relates both ways
    objects = [SceneObject(c, (0, 0, 0, 0), (i, 0.0, 0.5), (0.5, 0.5, 1.0), 0.0) for i, c in enumerate(CATEGORIES)]
    scene = LARGE_CODEC.snap(SceneLayout("bedroom", objects))
    inits = count_calls(monkeypatch, RelationTable, "__init__")
    table = extract_triplets(scene)
    rng = np.random.default_rng(0)
    for k in range(1, 5):
        synthesize_instruction(scene, k, rng, word_to_id=VOCAB, triplets=table)
        synthesize_instruction(scene, k, rng, word_to_id=VOCAB)
    assert len(table) == 12 and inits == []
    RelationTable(table.categories, table.rows)
    assert len(inits) == 1


@pytest.mark.parametrize("k", [2.5, 2.0, True, False, 0, -1, "2", None])
def test_k_must_be_an_int_of_at_least_one_before_any_draw(k):
    table = RelationTable(["bed", "chair"], [[0, 2, 1]])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^" + re.escape(f"k must be an int of at least 1, got {k!r}") + "$"):
        synthesize_instruction(EMPTY, k, rng, triplets=table, word_to_id=VOCAB)
    assert rng.bit_generator.state == state


# Instances 0 and 2 are beds, 1 a chair and 3 a desk.
ARTICLE_CATEGORIES = ("bed", "chair", "bed", "desk")


@pytest.mark.parametrize(
    "ordered, articles",
    [
        ([(0, 1)], [("the", "the")]),
        ([(0, 1), (1, 0)], [("the", "the"), ("the", "the")]),
        ([(0, 1), (2, 1)], [("the", "the"), ("another", "the")]),
        ([(0, 1), (2, 1), (3, 2), (0, 3)], [("the", "the"), ("another", "the"), ("the", "the"), ("the", "the")]),
        ([(0, 2), (2, 1)], [("the", "another"), ("the", "the")]),
    ],
    ids=["first-mention", "same-instance-again", "second-instance", "second-instance-again", "one-triplet"],
)
def test_article_rule(ordered, articles):
    # "another" introduces an instance of a category that already has a different one; every other mention is "the"
    rows = [[s, RELATION_SET.index(P.LEFT_OF), o] for s, o in ordered]
    plan = _sentence_plan(ARTICLE_CATEGORIES, rows)
    assert [row for row, _ in plan] == rows  # each case is already in discourse order
    assert [arts for _, arts in plan] == articles
    triplets = list(RelationTable(ARTICLE_CATEGORIES, rows))
    assert referring_expressions_oracle(triplets) == articles


def test_dense_scene_builds_triplets_only_for_the_instruction(monkeypatch):
    built = count_calls(monkeypatch, RelationTriplet, "__post_init__")
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
        assert built == []


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


@pytest.mark.parametrize("k", [1, 4])
def test_largest_draws_pick_each_groups_last_member_and_the_last_frame(k):
    # Groups of one to five members: floor(u * size) must stay below every group size and below the frame count.
    groups = [[(0, P.LEFT_OF, 1)], [(0, P.BEHIND, 2), (2, P.IN_FRONT_OF, 0)]]
    groups.append([(1, P.ABOVE, 2), (2, P.BELOW, 1), (1, P.LEFT_OF, 2)])
    groups.append([(0, P.RIGHT_OF, 3), (3, P.LEFT_OF, 0), (0, P.ABOVE, 3), (3, P.BELOW, 0)])
    groups.append([(1, P.RIGHT_OF, 3), (3, P.LEFT_OF, 1), (1, P.ABOVE, 3), (3, P.BELOW, 1), (1, P.BEHIND, 3)])
    rows = [[s, RELATION_SET.index(p), o] for group in groups for s, p, o in group]
    table = RelationTable(["bed", "chair", "desk", "bed"], rows)
    instr = synthesize_instruction(EMPTY, k, LargestDraws(), triplets=table, word_to_id=VOCAB)
    # every key ties, so the picked pairs are some k of the five; each is represented by its last member
    last = {frozenset((g[-1][0], g[-1][2])): [g[-1][0], RELATION_SET.index(g[-1][1]), g[-1][2]] for g in groups}
    assert len(instr.triplets) == k
    for row in instr.triplets.rows.tolist():
        assert row == last[frozenset((row[0], row[2]))]
    assert [sentence.split()[0] for sentence in instr.text.split(f" {CONNECTOR} ")] == ["keep"] * k


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


@pytest.mark.parametrize("categories", ["bed", ["bed", 3]], ids=["bare-str", "int-entry"])
def test_word_vocab_takes_only_a_list_of_str_categories(categories):
    # "bed" held the words b, e and d
    with pytest.raises(ValueError, match="categories must be a list of str"):
        build_word_vocab(categories)


def test_word_vocab_covers_every_template_word():
    assert VOCAB[PAD_WORD] == 0
    assert sorted(VOCAB.values()) == list(range(len(VOCAB)))
    assert len(PREDICATE_PHRASES) == len(P) - 1
    frames = {frame.replace("{p}", phrase) for phrase in PREDICATE_PHRASES.values() for frame in SENTENCE_FRAMES}
    assert len(frames) == len(PREDICATE_PHRASES) * len(SENTENCE_FRAMES)
    for frame in frames:
        for article in ("the", "another"):
            for cat in CATEGORIES:
                text = frame.replace("{s}", f"{article} {cat}").replace("{o}", f"{article} {cat}")
                assert all(w in VOCAB for w in f"{text} and {text}".split())
