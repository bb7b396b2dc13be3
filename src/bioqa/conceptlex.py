"""File-backed concept resources: recognition, graph similarity, sentiment.

These stand in for the heavyweight terminology services a production
system would call out to. Recognition is greedy longest dictionary match
over token sequences, similarity is inverse node count on the shortest
undirected path through the concept hierarchy, and sentiment is a flat
word lexicon with positivity/negativity columns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress, count
from typing import NamedTuple

from .textproc import Memo, ResourceFormatError, data_fields, memo_of, one_token_word, token_surfaces, tokenize


class UnknownConceptError(KeyError):
    def __init__(self, cui):
        super().__init__(cui)
        self.cui = cui

    def __str__(self):
        return f"unknown concept identifier: {self.cui}"


@dataclass(frozen=True)
class Concept:
    cui: str
    preferred: str
    tui: str
    semantic_type: str
    synonyms: tuple[str, ...] = ()


@dataclass(frozen=True)
class ConceptMention:
    cui: str
    start: int
    end: int
    matched: str


def _normalize_surface(text: str) -> str:
    return " ".join(s.lower() for s in token_surfaces(text))


class ConceptLexicon:
    """Concept dictionary with a surface-form index for longest match.

    When two concepts share a surface form the one listed first in the
    lexicon file wins (deterministic tie-break).
    """

    def __init__(self, concepts: list[Concept]):
        self.concepts: dict[str, Concept] = {}
        self._surface_to_cui: dict[str, str] = {}
        for concept in concepts:
            if concept.cui in self.concepts:
                raise ValueError(f"duplicate concept identifier {concept.cui}")
            if not concept.preferred:
                raise ValueError(f"concept {concept.cui} has an empty preferred name")
            self.concepts[concept.cui] = concept
            for surface in (concept.preferred, *concept.synonyms):
                key = _normalize_surface(surface)
                if key:
                    self._surface_to_cui.setdefault(key, concept.cui)
        # First token of a surface form -> token counts of the surface forms
        # starting with it, longest first.
        lengths: dict[str, set[int]] = {}
        for key in self._surface_to_cui:
            words = key.split(" ")
            lengths.setdefault(words[0], set()).add(len(words))
        self._phrase_lengths: dict[str, tuple[int, ...]] = {
            first: tuple(sorted(ns, reverse=True)) for first, ns in lengths.items()
        }

    def __len__(self):
        return len(self.concepts)

    def __contains__(self, cui):
        return cui in self.concepts

    def get(self, cui: str) -> Concept:
        try:
            return self.concepts[cui]
        except KeyError:
            raise UnknownConceptError(cui) from None

    @classmethod
    def from_file(cls, path) -> "ConceptLexicon":
        concepts = []
        first_lines: dict[str, int] = {}  # cui -> line it is first listed on
        for i, _, fields in data_fields(path):
            if len(fields) < 4:
                raise ResourceFormatError(path, i, f"expected at least 4 tab-separated fields, got {len(fields)}")
            cui, preferred, tui, semantic_type = fields[:4]
            synonyms = tuple(s.strip().lower() for s in fields[4].split("|") if s.strip()) if len(fields) >= 5 else ()
            if not cui or not preferred:
                raise ResourceFormatError(path, i, "cui and preferred name are required")
            first = first_lines.setdefault(cui, i)
            if first != i:
                raise ResourceFormatError(path, i, f"duplicate concept identifier {cui} (first listed on line {first})")
            concepts.append(Concept(cui, preferred, tui, semantic_type, synonyms))
        return cls(concepts)


def longest_matches(lowered: list[str], lexicon: ConceptLexicon) -> list[tuple[int, int, str]]:
    """Greedy longest-match concept recognition over lowercased token
    surfaces, left to right: (first token, token count, cui) per mention.

    At each token position the longest surface form present in the lexicon
    wins and scanning resumes after it, so mentions never overlap. Only
    positions whose token starts some surface form are visited, and there
    only the phrase lengths of the surface forms starting with it are tried;
    a position inside the previous mention is skipped.
    """
    phrase_lengths = lexicon._phrase_lengths
    surface_to_cui = lexicon._surface_to_cui
    matches = []
    n = len(lowered)
    resume = 0
    for i in compress(count(), map(phrase_lengths.__contains__, lowered)):
        if i < resume:
            continue
        for length in phrase_lengths[lowered[i]]:
            if i + length > n:
                continue
            key = lowered[i] if length == 1 else " ".join(lowered[i : i + length])
            cui = surface_to_cui.get(key)
            if cui is not None:
                matches.append((i, length, cui))
                resume = i + length
                break
    return matches


def recognize(text: str, lexicon: ConceptLexicon) -> list[ConceptMention]:
    """The longest_matches of text's tokens, as mentions with offsets."""
    tokens = tokenize(text)
    mentions = []
    for i, length, cui in longest_matches([t.surface.lower() for t in tokens], lexicon):
        start, end = tokens[i].start, tokens[i + length - 1].end
        mentions.append(ConceptMention(cui, start, end, text[start:end]))
    return mentions


class Question(NamedTuple):
    """A question analysed once: token surfaces, their lowercased forms, cuis."""

    text: str
    surfaces: list[str]
    lowered: list[str]
    cuis: list[str]


def question_of(question: str | Question, lexicon: ConceptLexicon) -> Question:
    """The analysed question: the one place a question is tokenized and its
    concepts recognized. A Question is returned as it is."""
    if isinstance(question, Question):
        return question
    surfaces = token_surfaces(question)
    lowered = list(map(str.lower, surfaces))
    return Question(question, surfaces, lowered, [cui for _, _, cui in longest_matches(lowered, lexicon)])


def title_cuis(text: str, lexicon: ConceptLexicon) -> tuple[str, ...]:
    """The cuis of question_of(text), as a tuple: what rerank reads from the
    title memo, memo_of(lexicon, title_cuis), question after question."""
    return tuple(question_of(text, lexicon).cuis)


@dataclass
class ConceptGraph:
    """Undirected concept hierarchy used for path-length similarity."""

    adjacency: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def from_edges(cls, edges: list[tuple[str, str]]) -> "ConceptGraph":
        graph = cls()
        for parent, child in edges:
            if parent == child:
                raise ValueError(f"self-loop on {parent}")
            graph.adjacency.setdefault(parent, set()).add(child)
            graph.adjacency.setdefault(child, set()).add(parent)
        return graph

    @classmethod
    def from_file(cls, path) -> "ConceptGraph":
        edges = []
        for i, line, fields in data_fields(path):
            if len(fields) != 2 or not all(fields):
                raise ResourceFormatError(path, i, f"expected 'parent_cui<TAB>child_cui', got {line!r}")
            parent, child = fields
            if parent == child:
                raise ResourceFormatError(path, i, f"self-loop on {parent}")
            edges.append((parent, child))
        return cls.from_edges(edges)

    @property
    def nodes(self) -> set[str]:
        return set(self.adjacency)

    def __contains__(self, cui):
        return cui in self.adjacency


def path_similarity(c1: str, c2: str, graph: ConceptGraph) -> float | None:
    """1 / (number of nodes on the shortest path), or None if disconnected.

    Identical concepts sit on a one-node path and score 1.0; a parent and
    child score 0.5. Reports render the None case as -1.
    """
    for cui in (c1, c2):
        if cui not in graph:
            raise UnknownConceptError(cui)
    if c1 == c2:
        return 1.0
    seen = {c1}
    queue = deque([(c1, 1)])
    while queue:
        node, nodes_so_far = queue.popleft()
        for neighbor in graph.adjacency[node]:
            if neighbor == c2:
                return 1.0 / (nodes_so_far + 1)
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append((neighbor, nodes_so_far + 1))
    return None


def _title_similarity(tc: str, graph: ConceptGraph, qc: str) -> float | None:
    return path_similarity(qc, tc, graph) if tc in graph else None


def _similarity_row(qc: str, graph: ConceptGraph) -> Memo:
    return Memo(_title_similarity, graph, (qc,))


def similarity_rows(question_cuis, graph: ConceptGraph) -> list[Memo]:
    """The similarity row of each question cui in the hierarchy, in order;
    a cui listed twice is listed twice.

    A row maps a title cui to its path similarity from the row's question
    cui, None when there is no path or the title cui is not in the
    hierarchy. Rows are kept in memo_of(graph, _similarity_row), so each
    pair is computed once per graph. An empty list means every title sums
    to 0.0.
    """
    rows = memo_of(graph, _similarity_row)
    return [rows[qc] for qc in question_cuis if qc in graph]


def row_sum(rows, title_cuis) -> float:
    """Sum of path similarities over the cross product of the rows'
    question cuis (outer) and title_cuis (inner).

    Pairs with no path contribute nothing, and concepts absent from the
    hierarchy are treated as unrelated rather than as errors so that
    arbitrary titles can be scored.
    """
    total = 0.0
    for row in rows:
        for tc in title_cuis:
            sim = row[tc]
            if sim is not None:
                total += sim
    return total


@dataclass(frozen=True)
class SentimentEntry:
    word: str
    tag_class: str  # n, v, a, r or any
    positivity: float
    negativity: float


_TAG_CLASSES = {"n", "v", "a", "r", "any"}


class SentimentLexicon:
    """Sentiment entries and, per (word, tag class) key, the one score
    word_sentiment reads: the mean of (positivity - negativity) over the
    key's entries in file order, computed here once."""

    def __init__(self, entries: list[SentimentEntry]):
        self.entries = list(entries)
        grouped: dict[tuple[str, str], list[SentimentEntry]] = {}
        for e in self.entries:
            grouped.setdefault((e.word, e.tag_class), []).append(e)
        self._scores = {
            key: sum(e.positivity - e.negativity for e in group) / len(group) for key, group in grouped.items()
        }
        self.words = frozenset(word for word, _ in self._scores)

    @classmethod
    def from_file(cls, path) -> "SentimentLexicon":
        entries = []
        for i, line, fields in data_fields(path):
            if len(fields) != 4:
                raise ResourceFormatError(path, i, f"expected 4 tab-separated fields, got {len(fields)}")
            word, tag_class = fields[0].lower(), fields[1].lower()
            if not word:
                raise ResourceFormatError(path, i, f"word is required: {line!r}")
            one_token_word(word, path, i)
            if tag_class not in _TAG_CLASSES:
                raise ResourceFormatError(path, i, f"tag class must be one of n/v/a/r/any, got {tag_class!r}")
            try:
                pos, neg = float(fields[2]), float(fields[3])
            except ValueError:
                raise ResourceFormatError(path, i, f"scores must be numeric: {line!r}") from None
            if not (0.0 <= pos <= 1.0 and 0.0 <= neg <= 1.0):
                raise ResourceFormatError(path, i, f"scores must lie in [0, 1]: {line!r}")
            entries.append(SentimentEntry(word, tag_class, pos, neg))
        return cls(entries)


def coarse_tag_class(tag: str) -> str:
    """Map a Penn-style tag to the sentiment lexicon's coarse classes."""
    if tag.startswith("NN"):
        return "n"
    if tag.startswith("VB") or tag == "MD":
        return "v"
    if tag.startswith("JJ"):
        return "a"
    if tag.startswith("RB"):
        return "r"
    return "any"


def word_sentiment(word: str, tag_class: str, lexicon: SentimentLexicon) -> float:
    """The lexicon's score of (word, tag_class), else of (word, any), else 0.

    Unknown words score 0 so arbitrary corpus text stays processable.
    """
    word = word.lower()
    scores = lexicon._scores
    score = scores.get((word, tag_class))
    return scores.get((word, "any"), 0.0) if score is None else score


def synonyms_of(cui: str, lexicon: ConceptLexicon) -> list[str]:
    """Synonym surface forms of a concept, preferred name excluded."""
    concept = lexicon.get(cui)
    preferred = concept.preferred.lower()
    return [s for s in concept.synonyms if s != preferred]
