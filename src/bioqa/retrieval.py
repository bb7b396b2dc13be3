"""Retrieval stack: query formulation, inverted index, BM25, reranking.

Documents are indexed over Porter stems of non-stopword tokens plus
recognized concept identifiers; sentence-length passages are ranked from
the same terms, which each passage carries. Document search is
conjunctive over the query's index terms with a disjunctive fallback;
reranking orders documents by summed concept-path similarity between the
question and each title. One function, bm25_rank, ranks both documents
and passages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .conceptlex import (
    ConceptGraph,
    ConceptLexicon,
    longest_matches,
    recognize,  # not called here; perfbench/tracer.py counts calls through this binding
    similarity_sum,
    title_cuis,
)
from .textproc import (
    split_sentences,
    stem,
    token_surfaces,
    tokenize,  # not called here; perfbench/tracer.py counts calls through this binding
)

INDEX_FORMAT_VERSION = 2

DEFAULT_K1 = 1.2
DEFAULT_B = 0.85
DEFAULT_RETRIEVE_DEPTH = 200
DEFAULT_TOP_DOCS = 10
DEFAULT_TOP_PASSAGES = 10
# Documents whose analysed sentences a lexicon keeps; see extract_passages.
PASSAGE_MEMO_DOCS = 2048


class DuplicateIdError(ValueError):
    pass


class UnknownUnitError(KeyError):
    def __init__(self, unit_id):
        super().__init__(unit_id)
        self.unit_id = unit_id

    def __str__(self):
        return f"unit not in index: {self.unit_id}"


@dataclass(frozen=True)
class DocumentRecord:
    doc_id: str
    title: str
    abstract: str


@dataclass(frozen=True)
class Query:
    concept_terms: tuple[str, ...]
    raw_terms: tuple[str, ...]


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


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
    relaxed: bool = False


@dataclass
class IndexedCorpus:
    """Inverted index over stems and concepts: term counts per unit and
    unit lengths, in unit order."""

    mode: str  # "document" or "passage"
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    lengths: dict[str, int] = field(default_factory=dict)
    unit_order: list[str] = field(default_factory=list)

    @property
    def n_units(self) -> int:
        return len(self.unit_order)


def analyse(text: str, stopwords: set[str], lexicon: ConceptLexicon) -> tuple[list[str], list[str]]:
    """Index terms of a text: stems of non-stopword words, then cuis; and
    those cuis alone, in mention order.

    Tokens without any alphanumeric character are skipped. Every concept
    mention contributes one occurrence of its cui. Stems and cuis come from
    one pass over the lowercased token surfaces.
    """
    lowered = [s.lower() for s in token_surfaces(text)]
    # isalnum() first: most words are all alphanumeric, and then the any() is not needed.
    terms = [
        stem(s) for s in lowered
        if s not in stopwords and (s.isalnum() or any(ch.isalnum() for ch in s))
    ]
    cuis = [cui for _, _, cui in longest_matches(lowered, lexicon)]
    return terms + cuis, cuis


def index_terms(text: str, stopwords: set[str], lexicon: ConceptLexicon) -> list[str]:
    """The index terms of analyse(text, ...)."""
    return analyse(text, stopwords, lexicon)[0]


def formulate_query(question: str, lexicon: ConceptLexicon, stopwords: set[str]) -> Query:
    """Concept-based query; falls back to content tokens when nothing maps.

    Concept terms are the preferred names of recognized concepts,
    deduplicated in order of first mention (the downstream search is
    conjunctive, so the order carries no ranking weight).
    """
    surfaces = token_surfaces(question)
    lowered = [s.lower() for s in surfaces]
    concept_terms = dict.fromkeys(lexicon.get(cui).preferred for _, _, cui in longest_matches(lowered, lexicon))
    raw_terms = tuple(
        surface
        for surface, low in zip(surfaces, lowered)
        if low not in stopwords and any(ch.isalnum() for ch in surface)
    )
    return Query(tuple(concept_terms), raw_terms)


def build_index(
    units: list[tuple[str, str]],
    mode: str,
    stopwords: set[str],
    lexicon: ConceptLexicon,
) -> IndexedCorpus:
    """Inverted index over the index terms of units given as (unit id, text)."""
    if mode not in ("document", "passage"):
        raise ValueError(f"mode must be 'document' or 'passage', got {mode!r}")
    index = IndexedCorpus(mode=mode)
    for unit_id, text in units:
        if unit_id in index.lengths:
            raise DuplicateIdError(f"duplicate unit id {unit_id!r}")
        terms = index_terms(text, stopwords, lexicon)
        index.lengths[unit_id] = len(terms)
        index.unit_order.append(unit_id)
        for term in terms:
            index.postings.setdefault(term, {})
            index.postings[term][unit_id] = index.postings[term].get(unit_id, 0) + 1
    return index


def bm25_rank(
    query_terms: list[str],
    units: list | range,
    postings: dict[str, dict],
    lengths: dict,
    limit: int,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> list[tuple[int, float]]:
    """(position in units, Okapi BM25 score) of at most limit units, best
    first; ties keep input order.

    postings maps a term to {unit: term count} over the units holding it,
    and lengths maps every unit of the collection to its length, so N and
    the mean length come from lengths. Each distinct term's idf,
    ln((N - N(q) + 0.5) / (N(q) + 0.5)), is computed once; terms whose idf
    is not positive carry no information and are left out. A term listed
    twice counts twice.
    """
    if k1 <= 0:
        raise ValueError(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    n_units = len(lengths)
    avg = sum(lengths.values()) / n_units if n_units else 0.0
    idf = {}
    for term in dict.fromkeys(query_terms):
        n_q = len(postings.get(term, {}))
        idf[term] = math.log((n_units - n_q + 0.5) / (n_q + 0.5))
    weighted = [(idf[term], postings[term]) for term in query_terms if idf[term] > 0.0 and term in postings]
    # Hoisted operands round as they would inside the loop, so each score
    # is bit-equal to norm = 1 - b + b * len / avg and
    # weight * (f * (k1 + 1)) / (f + k1 * norm) summed in query order.
    k1_plus_1, one_minus_b = k1 + 1.0, 1.0 - b
    scores = []
    for unit in units:
        k1_norm = k1 * (one_minus_b + b * (lengths[unit] / avg) if avg > 0 else 1.0)
        score = 0.0
        for weight, holding in weighted:
            f = holding.get(unit, 0)
            if f:
                score += weight * (f * k1_plus_1) / (f + k1_norm)
        scores.append(score)
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
    terms: list[str] = []
    if query.concept_terms:
        for concept_term in query.concept_terms:
            terms.extend(index_terms(concept_term, stopwords, lexicon))
    else:
        terms.extend(stem(t.lower()) for t in query.raw_terms)
    return terms


def _candidates(index: IndexedCorpus, distinct: list[str]) -> tuple[list[str], bool]:
    """Units holding every term, else (relaxed) any term, in unit_order.

    The conjunctive set is the intersection of the terms' postings, taken
    smallest first; the union is taken only when that set is empty.
    """
    postings = sorted((index.postings.get(t, {}) for t in distinct), key=len)
    matched = set(postings[0])
    for units in postings[1:]:
        matched = {uid for uid in matched if uid in units}
    relaxed = not matched
    if relaxed:
        matched = set().union(*postings)
    if not matched:
        return [], relaxed
    # Postings keep no index order (a loaded index has them sorted by id),
    # so one membership pass over unit_order restores it for stable-sort ties.
    return list(filter(matched.__contains__, index.unit_order)), relaxed


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
    checked even when nothing matches.
    """
    if index.mode != "document":
        raise ValueError("search requires a document-mode index")
    terms = _query_index_terms(query, stopwords, lexicon)
    distinct = list(dict.fromkeys(terms))
    candidates, relaxed = _candidates(index, distinct) if distinct and limit > 0 else ([], False)
    ranked = bm25_rank(terms, candidates, index.postings, index.lengths, limit, k1, b)
    return SearchResult([ScoredDoc(candidates[i], score, rank) for rank, (i, score) in enumerate(ranked, 1)], relaxed)


def rerank_documents(
    question: str,
    docs: list[DocumentRecord],
    lexicon: ConceptLexicon,
    graph: ConceptGraph,
    m: int,
) -> list[ScoredDoc]:
    """Order documents by summed question/title concept similarity.

    Sorting is stable, so documents with equal scores keep their incoming
    order; only the m top documents are returned.
    """
    lowered = [s.lower() for s in token_surfaces(question)]
    question_cuis = [cui for _, _, cui in longest_matches(lowered, lexicon)]
    scored = [(similarity_sum(question_cuis, title_cuis(doc.title, lexicon), graph), doc) for doc in docs]
    scored.sort(key=lambda pair: -pair[0])
    return [ScoredDoc(doc.doc_id, score, rank) for rank, (score, doc) in enumerate(scored[:m], 1)]


def _analyse_sentences(
    doc: DocumentRecord,
    abbreviations: set[str] | None,
    stopwords: set[str],
    lexicon: ConceptLexicon,
) -> tuple[PassageCandidate, ...]:
    candidates = []
    for i, sentence in enumerate(split_sentences(doc.abstract, abbreviations)):
        terms, cuis = analyse(sentence.text, stopwords, lexicon)
        candidates.append(PassageCandidate(sentence.text, doc.doc_id, i, tuple(terms), tuple(cuis)))
    return tuple(candidates)


def extract_passages(
    docs: list[DocumentRecord],
    abbreviations: set[str] | None,
    stopwords: set[str],
    lexicon: ConceptLexicon,
) -> list[PassageCandidate]:
    """One analysed candidate per abstract sentence, in document order.

    Each document's candidates are memoised on the lexicon together with
    the stopword and abbreviation sets they were made with, and later
    requests with those same sets share them. The memo keeps the
    PASSAGE_MEMO_DOCS documents analysed last and drops the oldest first.
    The lexicon, stopwords and abbreviations are therefore not to be
    changed once passages have been extracted.
    """
    memo = lexicon._passages
    candidates = []
    for doc in docs:
        entry = memo.get(doc)
        if entry is None or entry[0] is not stopwords or entry[1] is not abbreviations:
            if entry is None and len(memo) >= PASSAGE_MEMO_DOCS:
                del memo[next(iter(memo))]  # the oldest entry
            entry = memo[doc] = (stopwords, abbreviations, _analyse_sentences(doc, abbreviations, stopwords, lexicon))
        candidates.extend(entry[2])
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
    candidate position. Ties keep candidate (document, sentence) order.
    """
    postings = {}
    for term in dict.fromkeys(question_terms):
        holding = {i: c.terms.count(term) for i, c in enumerate(candidates) if term in c.terms}
        if holding:
            postings[term] = holding
    lengths = {i: len(c.terms) for i, c in enumerate(candidates)}
    ranked = bm25_rank(question_terms, range(len(candidates)), postings, lengths, top_n, k1, b)
    return [ScoredPassage(candidates[i], score, rank) for rank, (i, score) in enumerate(ranked, 1)]
