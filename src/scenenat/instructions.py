"""Templated instruction synthesis from relation triplets.

Instructions are rendered from a closed template table (4 sentence frames
per predicate), so the whole corpus tokenizes against a fixed whitespace
word vocabulary. Sampling is pair-first over the scene's ``RelationTable``:
its rows are grouped by unordered instance pair with one stable argsort,
up to k pairs are drawn uniformly without replacement, and only then is one
member (one orientation) of each drawn pair picked uniformly. Only the
picked rows become ``RelationTriplet``s. They are ordered so consecutive
sentences reuse a mentioned category when possible, and "the" switches to
"another" when a second distinct instance of an already-mentioned category
is introduced.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .relations import RelationPredicate, RelationTable, RelationTriplet, extract_triplets
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
    """The article of each mention: "another" for an instance new to a category that already has one, else "the"."""
    introduced: dict[str, set[int | None]] = {}
    arts = []
    for t in ordered:
        pair = []
        for cat, inst in ((t.subject, t.subject_instance), (t.object, t.object_instance)):
            seen = introduced.setdefault(cat, set())
            pair.append("another" if seen and inst not in seen else "the")
            seen.add(inst)
        arts.append(tuple(pair))
    return arts


def synthesize_instruction(
    scene: SceneLayout,
    k: int,
    rng: np.random.Generator,
    *,
    word_to_id: dict[str, int],
    triplets: RelationTable | None = None,
) -> Instruction:
    """Sample up to k relations from the scene and render them as text.

    The table's rows (``extract_triplets(scene)`` when not given) are grouped
    by unordered instance pair, in (min, max) index order: the order in which
    the pairs first occur in ``extract_triplets``' row-major rows. min(k, pairs)
    pairs are drawn uniformly without replacement and one member of each
    uniformly, so the returned triplet list records the actual count. Words
    of the table's categories missing from ``word_to_id`` raise ValueError,
    and triplets that are not a ``RelationTable`` TypeError, before any draw.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = extract_triplets(scene) if triplets is None else triplets
    if not isinstance(table, RelationTable):
        raise TypeError(f"triplets must be a RelationTable, got {type(table).__name__}")
    if not len(table):
        raise ValueError("scene has no relation triplets to describe")
    missing = sorted(_words(table.categories) - word_to_id.keys())
    if missing:
        raise ValueError(f"words missing from word_to_id: {missing}")
    s, o = table.rows[:, 0], table.rows[:, 2]
    codes = np.minimum(s, o) * len(table.categories) + np.maximum(s, o)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    # Pair g holds the rows order[bounds[g]:bounds[g + 1]], in table order.
    edges = np.ones(len(codes) + 1, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    pairs = len(bounds) - 1
    picked = np.sort(rng.choice(pairs, size=min(k, pairs), replace=False))
    members = rng.integers(bounds[picked + 1] - bounds[picked])
    chosen = _discourse_order([table[i] for i in order[bounds[picked] + members].tolist()])
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
