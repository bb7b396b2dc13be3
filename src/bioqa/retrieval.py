"""Retrieval stack: query formulation, inverted index, BM25, reranking.

Documents are indexed over Porter stems of non-stopword tokens plus
recognized concept identifiers; sentence-length passages are ranked from
the same terms, which each passage carries. Document search is
conjunctive over the query's index terms with a disjunctive fallback;
reranking orders documents by summed concept-path similarity between the
question and each title, read from per-question-cui similarity rows kept
on the graph, and keeps the incoming order without reading a title when
no question cui is in the hierarchy. Document search scores an array
index (see IndexedCorpus) into a dense score vector, of which it sorts
only the scores that can make its limit; bm25_rank, over dict postings,
ranks passages. Its loop, which small searches share, is term at a time:
each query term adds into the units of its postings, in query order, so a
unit no term holds is not probed. Each ranking here is tested against the
plain statement of its step in tests/reference_pipeline.py.

Query formulation and rerank read a question as conceptlex.question_of
analyses it. Word terms, title cuis and analysed passages are kept on the
lexicon, and similarity rows on the graph, in textproc memos (see memo_of).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .conceptlex import (
    ConceptGraph,
    ConceptLexicon,
    Question,
    question_of,
    recognize,  # not called here; perfbench/tracer.py counts calls through this binding
    row_sum,
    similarity_rows,
    title_cuis,
)
from .textproc import (
    is_content_word,
    memo_of,
    split_sentences,
    stem,
    tokenize,  # not called here; perfbench/tracer.py counts calls through this binding
)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.85
DEFAULT_RETRIEVE_DEPTH = 200
DEFAULT_TOP_DOCS = 10
DEFAULT_TOP_PASSAGES = 10


class DuplicateIdError(ValueError):
    pass


class UnknownUnitError(KeyError):
    def __init__(self, unit_id):
        super().__init__(unit_id)
        self.unit_id = unit_id

    def __str__(self):
        return f"unit not in index: {self.unit_id}"


class DocumentRecord(NamedTuple):
    """A corpus document; a tuple, so that it hashes in C as the passage memo's key."""

    doc_id: str
    title: str
    abstract: str


@dataclass(frozen=True)
class Query:
    concept_terms: tuple[str, ...]
    raw_terms: tuple[str, ...]


class ScoredDoc(NamedTuple):
    """A ranked document; a tuple, so that _scored_docs makes many in C."""

    doc_id: str
    score: float
    rank: int


def _scored_docs(ids, scores) -> list[ScoredDoc]:
    """ScoredDocs ranked 1, 2, ... from ids and their scores, in order.

    tuple.__new__ is what ScoredDoc._make calls; mapped directly, no Python
    frame is entered per document.
    """
    return list(map(tuple.__new__, repeat(ScoredDoc), zip(ids, scores, count(1))))


@dataclass(frozen=True)
class PassageCandidate:
    text: str
    doc_id: str
    sent_index: int
    terms: tuple[str, ...]  # index_terms(text)
    cuis: tuple[str, ...]  # cuis of the concept mentions in text, in order


@dataclass(frozen=True)
class ScoredPassage:
    passage: PassageCandidate
    score: float
    rank: int


@dataclass
class SearchResult:
    docs: list[ScoredDoc]
    relaxed: bool


class _TermRows(dict):
    """term -> row, giving an unseen term the next row."""

    def __missing__(self, term):
        row = self[term] = len(self)
        return row


# The types an index array is held and saved in, narrowest first, each
# with the largest value it holds.
INDEX_DTYPES = {code: np.iinfo(code).max for code in ("<u1", "<u2", "<u4")}


def index_dtype(top: int) -> str:
    """The narrowest of INDEX_DTYPES that holds every value from 0 to top."""
    for code, maximum in INDEX_DTYPES.items():
        if top <= maximum:
            return code
    raise OverflowError(f"index value {top} does not fit in {code}")


@dataclass(eq=False)
class IndexedCorpus:
    """Inverted index over stems and concepts, held in arrays.

    unit_order lists the unit ids; unit_lengths holds each unit's number
    of index terms, and avg_len their mean. terms lists the index terms,
    and term_rows maps each to its row r. Row r's postings are
    positions[offsets[r]:offsets[r + 1]], ascending indices into
    unit_order, and the term's count in each of those units sits at the
    same places of counts (compressed sparse rows). Built, each of the four
    arrays is held in the index_dtype of its largest value, the type
    save_index writes it in. Loaded, each is held in the type the file's
    header names, which may be any of INDEX_DTYPES: load_index does not scan
    the arrays for their largest values. An index is not changed once made.
    """

    unit_order: list[str]
    unit_lengths: np.ndarray
    terms: list[str]
    offsets: np.ndarray
    positions: np.ndarray
    counts: np.ndarray
    term_rows: dict[str, int] = field(init=False)
    avg_len: float = field(init=False)

    def __post_init__(self):
        self.term_rows = dict(zip(self.terms, range(len(self.terms))))
        n_units = len(self.unit_order)
        self.avg_len = int(self.unit_lengths.sum(dtype=np.int64)) / n_units if n_units else 0.0

    @classmethod
    def from_terms(cls, rows) -> IndexedCorpus:
        """Index over (unit id, index terms) rows, in row order.

        Every term occurrence becomes a key term row * N + unit position;
        one sort of the keys groups them by term, units ascending, and the
        length of each run of equal keys is a count. Only counts is scanned
        for its largest value: that of offsets is the number of postings, of
        positions the last unit holding a term, of lengths the longest unit.
        """
        unit_order, lengths, term_ids = [], [], []
        term_rows = _TermRows()
        seen = set()
        for unit_id, terms in rows:
            if unit_id in seen:
                raise DuplicateIdError(f"duplicate unit id {unit_id!r}")
            seen.add(unit_id)
            unit_order.append(unit_id)
            lengths.append(len(terms))
            term_ids.extend(map(term_rows.__getitem__, terms))
        base = max(len(unit_order), 1)
        units = np.repeat(np.arange(len(unit_order), dtype=np.int64), lengths)
        keys, counts = np.unique(np.array(term_ids, dtype=np.int64) * base + units, return_counts=True)
        offsets = np.zeros(len(term_rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // base, minlength=len(term_rows)), out=offsets[1:])
        return cls(
            unit_order,
            np.array(lengths, dtype=index_dtype(max(lengths, default=0))),
            list(term_rows),
            offsets.astype(index_dtype(len(keys))),
            (keys % base).astype(index_dtype(int(units[-1]) if len(units) else 0)),
            counts.astype(index_dtype(int(counts.max(initial=0)))),
        )

    @property
    def n_units(self) -> int:
        return len(self.unit_order)

    @property
    def lengths(self) -> dict[str, int]:
        """unit id -> length, in unit order."""
        return dict(zip(self.unit_order, self.unit_lengths.tolist()))

    @property
    def postings(self) -> Mapping[str, dict[str, int]]:
        """term -> {unit id: count} in unit order, made per term when read."""
        return _PostingsView(self)

    def __eq__(self, other):
        if not isinstance(other, IndexedCorpus):
            return NotImplemented
        return (
            self.unit_order == other.unit_order
            and self.terms == other.terms
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("unit_lengths", "offsets", "positions", "counts"))
        )


class _PostingsView(Mapping):
    """Read-only dict view of an IndexedCorpus's postings."""

    def __init__(self, index: IndexedCorpus):
        self._index = index

    def __getitem__(self, term):
        index = self._index
        row = index.term_rows[term]
        start, end = index.offsets[row], index.offsets[row + 1]
        units = map(index.unit_order.__getitem__, index.positions[start:end].tolist())
        return dict(zip(units, index.counts[start:end].tolist()))

    def __contains__(self, term):
        return term in self._index.term_rows

    def __iter__(self):
        return iter(self._index.terms)

    def __len__(self):
        return len(self._index.terms)


def _word_term(word: str, lexicon: ConceptLexicon, stopwords: set[str]) -> str | None:
    """The index term of a lowercased word: its stem, or None for a word
    that is not a content word (is_content_word)."""
    return stem(word) if is_content_word(word, stopwords) else None


def word_terms(lowered: Iterable[str], stopwords: set[str], lexicon: ConceptLexicon) -> list[str]:
    """Index terms of lowercased words, read from memo_of(lexicon, _word_term, stopwords)."""
    # A stem is never empty, so filter(None, ...) drops exactly the words not indexed.
    return list(filter(None, map(memo_of(lexicon, _word_term, stopwords).__getitem__, lowered)))


def analyse(text: str | Question, stopwords: set[str], lexicon: ConceptLexicon) -> tuple[list[str], list[str]]:
    """Index terms of a text, stems of non-stopword words then cuis, and
    those cuis alone, in mention order. The text is read as
    conceptlex.question_of analyses it, a Question as it is: the stems are
    the word_terms of its lowercased token surfaces, one cui per mention."""
    analysed = question_of(text, lexicon)
    return word_terms(analysed.lowered, stopwords, lexicon) + analysed.cuis, analysed.cuis


def index_terms(text: str | Question, stopwords: set[str], lexicon: ConceptLexicon) -> list[str]:
    """The index terms of analyse(text, ...)."""
    return analyse(text, stopwords, lexicon)[0]


def formulate_query(question: str | Question, lexicon: ConceptLexicon, stopwords: set[str]) -> Query:
    """Concept-based query; falls back to content tokens when nothing maps.

    Concept terms are the preferred names of recognized concepts,
    deduplicated in order of first mention (the downstream search is
    conjunctive, so the order carries no ranking weight).
    """
    question = question_of(question, lexicon)
    concept_terms = dict.fromkeys(lexicon.get(cui).preferred for cui in question.cuis)
    raw_terms = tuple(s for s, low in zip(question.surfaces, question.lowered) if is_content_word(low, stopwords))
    return Query(tuple(concept_terms), raw_terms)


def build_index(
    units: list[tuple[str, str]],
    mode: str,
    stopwords: set[str],
    lexicon: ConceptLexicon,
) -> IndexedCorpus:
    """Inverted index over the index terms of units given as (unit id, text).

    mode is checked and not kept: every index is searched the same way.
    """
    if mode not in ("document", "passage"):
        raise ValueError(f"mode must be 'document' or 'passage', got {mode!r}")
    return IndexedCorpus.from_terms((unit_id, index_terms(text, stopwords, lexicon)) for unit_id, text in units)


def _check_bm25_parameters(k1: float, b: float) -> None:
    if not math.isfinite(k1):
        raise ValueError(f"k1 must be finite, got {k1}")
    if k1 <= 0:
        raise ValueError(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")


def _idf_weights(query_terms: Iterable[str], frequencies: Mapping[str, int], n_units: int) -> list[tuple[str, float]]:
    """(term, idf) of each query term occurrence that scores, in query order,
    repeats kept. frequencies maps each query term the N units hold to N(q),
    the number holding it; its idf is ln((N - N(q) + 0.5) / (N(q) + 0.5)).
    A term not held, or whose idf is not positive, carries no information."""
    idf = {term: math.log((n_units - n_q + 0.5) / (n_q + 0.5)) for term, n_q in frequencies.items()}
    return [(term, idf[term]) for term in query_terms if idf.get(term, 0.0) > 0.0]


def bm25_rank(
    query_terms: list[str],
    units: list | range,
    postings: Mapping[str, dict],
    lengths: dict,
    limit: int,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> list[tuple[int, float]]:
    """(position in units, Okapi BM25 score) of at most limit units, best
    first; ties keep input order.

    postings maps a term to {unit: term count} over the units holding it,
    and lengths maps every unit of the collection to its length, so N and
    the mean length come from lengths. The query terms that score, and
    their idf, are _idf_weights over each held term's number of postings.
    """
    _check_bm25_parameters(k1, b)
    n_units = len(lengths)
    avg = sum(lengths.values()) / n_units if n_units else 0.0
    frequencies = {term: len(postings[term]) for term in dict.fromkeys(query_terms) if term in postings}
    weighted = [(idf, postings[term]) for term, idf in _idf_weights(query_terms, frequencies, n_units)]
    return _bm25_loop(units, weighted, lengths, avg, limit, k1, b)


def _bm25_loop(units, weighted, lengths, avg, limit, k1, b) -> list[tuple[int, float]]:
    """bm25_rank's scores and order from (idf, {unit: count}) per query
    term occurrence, in query order, and the collection's mean length.

    Term at a time: each term occurrence adds its contribution to the units
    of its postings that are among units, so a unit no term holds is never
    probed and scores 0.0. A unit listed twice gets one score at both places.
    """
    # Hoisted operands round as they would inside the loop, and each unit's
    # contributions are added in query order starting from 0.0, so each
    # score is bit-equal to norm = 1 - b + b * len / avg and
    # weight * (f * (k1 + 1)) / (f + k1 * norm) summed term after term.
    k1_plus_1, one_minus_b = k1 + 1.0, 1.0 - b
    if avg > 0:
        k1_norms = {unit: k1 * (one_minus_b + b * (lengths[unit] / avg)) for unit in units}
    else:
        k1_norms = dict.fromkeys(units, k1 * 1.0)
    totals = {}
    for weight, holding in weighted:
        for unit, f in holding.items():
            if f and unit in k1_norms:
                totals[unit] = totals.get(unit, 0.0) + weight * (f * k1_plus_1) / (f + k1_norms[unit])
    scores = [totals.get(unit, 0.0) for unit in units]
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)  # stable: ties keep input order
    return [(i, scores[i]) for i in order[:max(limit, 0)]]


def bm25_score(
    query_terms: list[str],
    unit_id: str,
    index: IndexedCorpus,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> float:
    """Okapi BM25 score of one unit of the index for the given query term
    sequence; bm25_rank over that one unit."""
    if unit_id not in index.lengths:
        raise UnknownUnitError(unit_id)
    return bm25_rank(query_terms, [unit_id], index.postings, index.lengths, 1, k1, b)[0][1]


def _query_index_terms(query: Query, stopwords: set[str], lexicon: ConceptLexicon) -> list[str]:
    """The index terms a query searches for: those of each concept name in
    turn, or, when there is none, the word_terms of the raw terms."""
    if query.concept_terms:
        return [term for name in query.concept_terms for term in index_terms(name, stopwords, lexicon)]
    return word_terms(map(str.lower, query.raw_terms), stopwords, lexicon)


# Queries whose terms have fewer postings than this are ranked over Python
# lists: below it numpy's fixed cost per call outweighs its speed per posting.
ARRAY_MIN_POSTINGS = 128


def search(
    index: IndexedCorpus,
    query: Query,
    limit: int,
    stopwords: set[str],
    lexicon: ConceptLexicon,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> SearchResult:
    """Conjunctive search over the query's index terms, BM25 ranked.

    When no document contains every term the search relaxes to documents
    containing any of them; the result records that it did. k1 and b are
    checked even when nothing matches. The terms that score, and their idf,
    are _idf_weights over the held terms' posting counts, so scores are
    bit-equal to bm25_rank over index.postings and index.lengths, and ties
    keep unit order. The query terms' postings are ranked in Python when
    they number fewer than ARRAY_MIN_POSTINGS, and over numpy vectors otherwise.
    """
    _check_bm25_parameters(k1, b)
    terms = _query_index_terms(query, stopwords, lexicon)
    distinct = list(dict.fromkeys(terms))
    if not distinct or limit <= 0:
        return SearchResult([], False)
    # term -> (start, end) of its postings, for the terms the index holds
    spans = {term: tuple(index.offsets[row:row + 2].tolist())
             for term in distinct if (row := index.term_rows.get(term)) is not None}
    if not spans:
        return SearchResult([], True)
    frequencies = {term: end - start for term, (start, end) in spans.items()}
    scored = _idf_weights(terms, frequencies, index.n_units)
    ranker = _rank_lists if sum(frequencies.values()) < ARRAY_MIN_POSTINGS else _rank_arrays
    units, scores, relaxed = ranker(index, spans, scored, len(spans) == len(distinct), limit, k1, b)
    return SearchResult(_scored_docs(map(index.unit_order.__getitem__, units), scores), relaxed)


def _rank_lists(index, spans, scored, all_held, limit, k1, b):
    """search's ranked unit positions, their scores and the relaxed flag,
    from the postings read into dicts: candidates by set operations, scores
    by bm25_rank's loop."""
    postings = {term: dict(zip(index.positions[start:end].tolist(), index.counts[start:end].tolist()))
                for term, (start, end) in spans.items()}
    matched = set.intersection(*map(set, postings.values())) if all_held else set()
    relaxed = not matched
    if relaxed:
        matched = set().union(*postings.values())
    candidates = sorted(matched)
    lengths = dict(zip(candidates, index.unit_lengths[candidates].tolist()))
    weighted = [(weight, postings[term]) for term, weight in scored]
    ranked = _bm25_loop(candidates, weighted, lengths, index.avg_len, limit, k1, b)
    return [candidates[i] for i, _ in ranked], [score for _, score in ranked], relaxed


def _rank_arrays(index, spans, scored, all_held, limit, k1, b):
    """_rank_lists over dense vectors: candidates from a hit count per
    unit, and scores summed into a score vector term by term in query
    order with the arithmetic of bm25_rank."""
    n_units, positions, counts = index.n_units, index.positions, index.counts
    hits = np.bincount(np.concatenate([positions[start:end] for start, end in spans.values()]), minlength=n_units)
    candidates = (hits == len(spans)).nonzero()[0] if all_held else ()
    relaxed = not len(candidates)
    if relaxed:
        candidates = hits.nonzero()[0]
    if scored:
        held = [slice(*spans[term]) for term, _ in scored]
        units = np.concatenate([positions[span] for span in held])
        f = np.concatenate([counts[span] for span in held])
        weight = np.array([weight for _, weight in scored]).repeat([span.stop - span.start for span in held])
        # A term is held, so avg_len > 0; the operands round as in bm25_rank.
        k1_norm = k1 * ((1.0 - b) + b * (index.unit_lengths[units] / index.avg_len))
        # bincount adds into each unit in input order, so a score is summed
        # term by term in query order, starting from 0.0, as bm25_rank does.
        scores = np.bincount(units, weights=weight * (f * (k1 + 1.0)) / (f + k1_norm), minlength=n_units)
    else:
        scores = np.zeros(n_units)
    ranked = scores[candidates]
    order = _top_order(ranked, limit)
    return candidates[order].tolist(), ranked[order].tolist(), relaxed


def _top_order(scores: np.ndarray, limit: int) -> np.ndarray:
    """Positions of the limit best scores, best first, ties in position
    order: (-scores).argsort(kind="stable")[:limit] for limit >= 1.

    When the scores outnumber limit, only those at or above the limit-th
    best, found by np.partition, are sorted. Every score tied with it is
    kept, in position order, so the stable sort still decides which of the
    tied ones make the cut.
    """
    n = len(scores)
    if n <= limit:
        return (-scores).argsort(kind="stable")
    cut = np.partition(scores, n - limit)[n - limit]
    kept = (scores >= cut).nonzero()[0]
    return kept[(-scores[kept]).argsort(kind="stable")][:limit]


def rerank_documents(
    question: str | Question,
    docs: list[DocumentRecord],
    lexicon: ConceptLexicon,
    graph: ConceptGraph,
    m: int,
) -> list[ScoredDoc]:
    """Order documents by summed question/title concept similarity.

    Sorting is stable, so documents with equal scores keep their incoming
    order; only the m top documents are returned, none when m < 1. When no
    question cui is in the hierarchy every title scores 0.0, so the first m
    documents are returned without their titles being read.
    """
    if m <= 0:
        return []
    rows = similarity_rows(question_of(question, lexicon).cuis, graph)
    if not rows:
        return _scored_docs([doc.doc_id for doc in docs[:m]], repeat(0.0))
    titles = memo_of(lexicon, title_cuis)
    scores = [row_sum(rows, titles[doc.title]) for doc in docs]
    kept = sorted(range(len(docs)), key=scores.__getitem__, reverse=True)[:m]  # stable: ties keep incoming order
    return _scored_docs([docs[i].doc_id for i in kept], [scores[i] for i in kept])


def _analyse_sentences(
    doc: DocumentRecord,
    lexicon: ConceptLexicon,
    abbreviations: set[str],
    stopwords: set[str],
) -> tuple[PassageCandidate, ...]:
    candidates = []
    for i, sentence in enumerate(split_sentences(doc.abstract, abbreviations)):
        terms, cuis = analyse(sentence.text, stopwords, lexicon)
        candidates.append(PassageCandidate(sentence.text, doc.doc_id, i, tuple(terms), tuple(cuis)))
    return tuple(candidates)


def extract_passages(
    docs: list[DocumentRecord],
    abbreviations: set[str],
    stopwords: set[str],
    lexicon: ConceptLexicon,
) -> list[PassageCandidate]:
    """One analysed candidate per abstract sentence, in document order.

    Each document's candidates are read from the lexicon's passage memo,
    memo_of(lexicon, _analyse_sentences, abbreviations, stopwords), so
    later requests with those same sets share them.
    """
    memo = memo_of(lexicon, _analyse_sentences, abbreviations, stopwords)
    candidates = []
    for doc in docs:
        candidates.extend(memo[doc])
    return candidates


def rank_passages(
    question_terms: list[str],
    candidates: list[PassageCandidate],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    top_n: int = DEFAULT_TOP_PASSAGES,
) -> list[ScoredPassage]:
    """BM25-rank sentence candidates against the question's index terms.

    The statistics come from the candidates alone, over the terms they
    carry; postings are taken only for the question's terms, keyed by
    candidate position, in one pass over the candidates' terms. Ties keep
    candidate (document, sentence) order.
    """
    wanted = set(question_terms)
    postings = {}
    for i, c in enumerate(candidates):
        for term in c.terms:
            if term in wanted:
                holding = postings.get(term)
                if holding is None:
                    postings[term] = {i: 1}
                else:
                    holding[i] = holding.get(i, 0) + 1
    lengths = {i: len(c.terms) for i, c in enumerate(candidates)}
    ranked = bm25_rank(question_terms, range(len(candidates)), postings, lengths, top_n, k1, b)
    return [ScoredPassage(candidates[i], score, rank) for rank, (i, score) in enumerate(ranked, 1)]
