"""Templated instruction synthesis from relation triplets.

Each sentence fills one of 4 sentence frames with its predicate's phrase
(frames x phrases, no rendered table), so the whole corpus tokenizes against
a fixed whitespace word vocabulary. Sampling is pair-first over the scene's
``RelationTable``: its rows are grouped by unordered instance pair with one
counting sort of the pair codes min * n + max, held in the smallest unsigned
dtype (uint8 up to 16 instances, uint16 up to 256), for which numpy's stable
sort is a radix sort. One ``rng.random`` call then draws one key per pair and two
uniforms u per picked pair. The up to k pairs with the smallest keys are
picked, so every subset is equally likely; only then is one member (one
orientation) of each picked pair chosen as floor(u * members), and each
sentence's frame as floor(u * 4). The picked rows stay int rows. One greedy
pass orders them so consecutive sentences reuse a mentioned category when
possible, and gives each mention its article: "another" for a second
distinct instance of a mentioned category, else "the". The rows, in
sentence order, become the instruction's own ``RelationTable`` over the
scene's categories, built unchecked as rows the package derived (see ``relations``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .relations import RELATION_SET, RelationPredicate, RelationTable, extract_triplets
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


#: Every word an instruction can hold besides the category words.
TEMPLATE_WORDS = frozenset(
    {*CONNECTOR.split(), "the", "another"}
    | {w for text in (*SENTENCE_FRAMES, *PREDICATE_PHRASES.values()) for w in text.split()}
) - {"{s}", "{p}", "{o}"}


def _words(categories: Iterable[str]) -> frozenset[str]:
    """Every word an instruction over these categories can hold."""
    return TEMPLATE_WORDS.union(*(c.split() for c in categories))


def build_word_vocab(categories: list[str]) -> dict[str, int]:
    """Closed word-to-id table: pad, then the template and category words in sorted order."""
    if isinstance(categories, str) or not all(isinstance(c, str) for c in categories):  # a str is its letters
        raise ValueError(f"categories must be a list of str, got {categories!r}")
    return {w: i for i, w in enumerate([PAD_WORD, *sorted(_words(categories) - {PAD_WORD})])}


@dataclass
class Instruction:
    """Rendered instruction text plus the relation table it encodes, its rows in sentence order."""

    text: str
    tokens: list[int]
    triplets: RelationTable


def _sentence_plan(categories: Sequence[str], rows: list[list[int]]) -> list[tuple[list[int], tuple[str, str]]]:
    """Each (subject, predicate, object) row in sentence order, with its two mentions' articles, in one greedy
    pass: the next row is the first remaining one that names a mentioned category, else the first remaining; a
    mention is "another" when it introduces a second distinct instance of a mentioned category, else "the"."""
    remaining, plan = list(rows), []
    introduced: dict[str, set[int]] = {}  # category -> its instances mentioned so far
    while remaining:
        shared = (i for i, (s, _, o) in enumerate(remaining) if {categories[s], categories[o]} & introduced.keys())
        row = remaining.pop(next(shared, 0))
        articles = []
        for inst in row[0::2]:
            seen = introduced.setdefault(categories[inst], set())
            articles.append("another" if seen and inst not in seen else "the")
            seen.add(inst)
        plan.append((row, tuple(articles)))
    return plan


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
    pairs are drawn uniformly without replacement (those with the smallest
    uniform keys), then one member of each pair and one frame per sentence
    uniformly, all from one ``rng.random`` call, so the returned table's
    rows record the actual count. A k that is not an int of at least 1 and words of the table's categories
    missing from ``word_to_id`` raise ValueError, and triplets that are not a ``RelationTable`` TypeError,
    before any draw.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be an int of at least 1, got {k!r}")
    table = extract_triplets(scene) if triplets is None else triplets
    if not isinstance(table, RelationTable):
        raise TypeError(f"triplets must be a RelationTable, got {type(table).__name__}")
    if not len(table):
        raise ValueError("scene has no relation triplets to describe")
    words = _words(set(table.categories))  # each distinct category split once
    if not word_to_id.keys() >= words:
        raise ValueError(f"words missing from word_to_id: {sorted(words - word_to_id.keys())}")
    s, o, size = table.rows[:, 0], table.rows[:, 2], len(table.categories)
    # a stable order is unique, so the radix sort of the narrow codes is the permutation of any stable sort
    codes = (np.minimum(s, o) * size + np.maximum(s, o)).astype(np.min_scalar_type(size * size - 1))
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    # Pair g holds the rows order[bounds[g]:bounds[g + 1]], in table order.
    edges = np.ones(len(codes) + 1, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    pairs = len(bounds) - 1
    n = min(k, pairs)
    draws = rng.random(pairs + 2 * n)
    picked = np.sort(np.argpartition(draws[:pairs], n - 1)[:n])
    # the int casts floor u * count, which u < 1 keeps below count
    members = (draws[pairs : pairs + n] * (bounds[picked + 1] - bounds[picked])).astype(np.intp)
    frames = (draws[pairs + n :] * len(SENTENCE_FRAMES)).astype(np.intp).tolist()
    cats = table.categories
    plan = _sentence_plan(cats, table.rows[order[bounds[picked] + members]].tolist())
    sentences = []
    for ((s, p, o), (art_s, art_o)), f in zip(plan, frames):
        frame = SENTENCE_FRAMES[f].replace("{p}", PREDICATE_PHRASES[RELATION_SET[p]])
        sentences.append(frame.replace("{s}", f"{art_s} {cats[s]}").replace("{o}", f"{art_o} {cats[o]}"))
    text = f" {CONNECTOR} ".join(sentences)
    tokens = [word_to_id[w] for w in text.split()]
    if len(tokens) > MAX_TOKENS:
        raise ValueError(f"instruction tokenizes to {len(tokens)} > {MAX_TOKENS} words")
    return Instruction(text, tokens, RelationTable._derived(cats, np.array([row for row, _ in plan], dtype=np.int64)))
