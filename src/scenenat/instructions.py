"""Templated instruction synthesis from relation triplets.

Instructions are rendered from a closed template table (4 sentence frames
per predicate), so the whole corpus tokenizes against a fixed whitespace
word vocabulary. Sampling is pair-first: the scene's triplets are grouped
by unordered instance pair, up to k pairs are drawn uniformly without
replacement, and only then is one member (one orientation) of each drawn
pair picked uniformly. The picked triplets are ordered so consecutive
sentences reuse a mentioned category when possible, and "the" switches to
"another" when a second distinct instance of an already-mentioned category
is introduced.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .relations import RelationPredicate, RelationTriplet, extract_triplets
from .scene import SceneLayout

MAX_RELATIONS = 4
MAX_TOKENS = 77

PREDICATE_PHRASES: dict[RelationPredicate, str] = {
    RelationPredicate.RIGHT_OF: "to the right of",
    RelationPredicate.IN_FRONT_OF: "in front of",
    RelationPredicate.LEFT_OF: "to the left of",
    RelationPredicate.BEHIND: "behind",
    RelationPredicate.CLOSELY_RIGHT_OF: "closely to the right of",
    RelationPredicate.CLOSELY_IN_FRONT_OF: "closely in front of",
    RelationPredicate.CLOSELY_LEFT_OF: "closely to the left of",
    RelationPredicate.CLOSELY_BEHIND: "closely behind",
    RelationPredicate.ABOVE: "above",
    RelationPredicate.BELOW: "below",
}

# {s}/{o} expand to an article plus the category word; {p} to the phrase above.
SENTENCE_FRAMES = (
    "place {s} {p} {o}",
    "put {s} {p} {o}",
    "{s} goes {p} {o}",
    "keep {s} {p} {o}",
)

CONNECTOR = "and"

PAD_WORD = "<pad>"


#: Four rendered sentence frames per predicate.
TEMPLATES: dict[RelationPredicate, tuple[str, ...]] = {
    pred: tuple(frame.replace("{p}", phrase) for frame in SENTENCE_FRAMES)
    for pred, phrase in PREDICATE_PHRASES.items()
}

#: Every word an instruction can hold besides the category words.
TEMPLATE_WORDS = frozenset(
    {*CONNECTOR.split(), "the", "another"}
    | {w for frames in TEMPLATES.values() for frame in frames for w in frame.split() if w not in ("{s}", "{o}")}
)


def _words(categories: Iterable[str]) -> frozenset[str]:
    """Every word an instruction over these categories can hold."""
    return TEMPLATE_WORDS.union(*(c.split() for c in categories))


def build_word_vocab(categories: list[str]) -> dict[str, int]:
    """Closed word-to-id table: pad, then the template and category words in sorted order."""
    return {w: i for i, w in enumerate([PAD_WORD, *sorted(_words(categories) - {PAD_WORD})])}


def tokenize_text(text: str, word_to_id: dict[str, int]) -> list[int]:
    return [word_to_id[w] for w in text.split()]


@dataclass
class Instruction:
    """Rendered instruction text plus the triplet set it encodes."""

    text: str
    tokens: list[int]
    triplets: list[RelationTriplet]


def _discourse_order(triplets: list[RelationTriplet]) -> list[RelationTriplet]:
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


def _referring_expressions(ordered: list[RelationTriplet]) -> list[tuple[str, str]]:
    """Choose "the"/"another" per mention, tracking introduced instances."""
    introduced: dict[str, list[int]] = {}
    arts = []
    for t in ordered:
        pair = []
        for cat, inst in ((t.subject, t.subject_instance), (t.object, t.object_instance)):
            seen = introduced.setdefault(cat, [])
            if inst in seen:
                pair.append("the")
            elif not seen:
                pair.append("the")
                seen.append(inst)
            else:
                pair.append("another")
                seen.append(inst)
        arts.append(tuple(pair))
    return arts


def synthesize_instruction(
    scene: SceneLayout,
    k: int,
    rng: np.random.Generator,
    *,
    word_to_id: dict[str, int],
    triplets: list[RelationTriplet] | None = None,
) -> Instruction:
    """Sample up to k relations from the scene and render them as text.

    The triplets (``extract_triplets(scene)`` when not given) are grouped by
    unordered instance pair; min(k, pairs) pairs are drawn uniformly without
    replacement and one member of each uniformly, so the returned triplet
    list records the actual count. Triplets without instance ids and words
    missing from ``word_to_id`` raise ValueError before any draw.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if triplets is None:
        triplets = extract_triplets(scene)
    if not triplets:
        raise ValueError("scene has no relation triplets to describe")
    pairs: dict[tuple[int, int], list[RelationTriplet]] = {}
    for i, t in enumerate(triplets):
        a, b = t.subject_instance, t.object_instance
        if a is None or b is None:
            raise ValueError(f"triplet {i} has no instance ids")
        pairs.setdefault((a, b) if a < b else (b, a), []).append(t)
    missing = sorted(_words({t.subject for t in triplets} | {t.object for t in triplets}) - word_to_id.keys())
    if missing:
        raise ValueError(f"words missing from word_to_id: {missing}")
    keys = list(pairs)
    picked = sorted(keys[i] for i in rng.choice(len(keys), size=min(k, len(keys)), replace=False).tolist())
    members = rng.integers([len(pairs[key]) for key in picked]).tolist()
    chosen = _discourse_order([pairs[key][j] for key, j in zip(picked, members)])
    articles = _referring_expressions(chosen)
    sentences = []
    for t, (art_s, art_o) in zip(chosen, articles):
        frame = TEMPLATES[t.predicate][int(rng.integers(len(SENTENCE_FRAMES)))]
        sentences.append(frame.replace("{s}", f"{art_s} {t.subject}").replace("{o}", f"{art_o} {t.object}"))
    text = f" {CONNECTOR} ".join(sentences)
    tokens = tokenize_text(text, word_to_id)
    if len(tokens) > MAX_TOKENS:
        raise ValueError(f"instruction tokenizes to {len(tokens)} > {MAX_TOKENS} words")
    return Instruction(text=text, tokens=tokens, triplets=chosen)
