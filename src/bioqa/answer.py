"""Answer extraction and the end-to-end pipeline.

Yes/no answers come from a sentiment vote over the candidate passages,
factoid and list answers from frequency-ranked concept mentions with
their synonyms, and ideal answers from the two passages ranking highest
against the question.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .conceptlex import (
    ConceptLexicon,
    Question,
    SentimentLexicon,
    coarse_tag_class,
    question_of,
    recognize,  # not called here; perfbench/tracer.py counts calls through this binding
    synonyms_of,
    word_sentiment,
)
from .qclass import FeatureExtractor, LinearModel, QuestionType, classify_type
from .retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    DEFAULT_RETRIEVE_DEPTH,
    DEFAULT_TOP_DOCS,
    DEFAULT_TOP_PASSAGES,
    DocumentRecord,
    IndexedCorpus,
    PassageCandidate,
    Query,
    ScoredDoc,
    ScoredPassage,
    extract_passages,
    formulate_query,
    index_terms,
    rank_passages,
    rerank_documents,
    search,
)
from .textproc import (
    TagLexicon,
    memo_of,
    token_surfaces,
    tokenize,  # not called here; perfbench/tracer.py counts calls through this binding
    word_tag,
)

DEFAULT_LIST_CAP = 10
FACTOID_CAP = 5


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True)
class YesNoResult:
    value: str  # "yes" or "no"
    positives: int
    negatives: int


@dataclass(frozen=True)
class EntityAnswer:
    name: str
    synonyms: tuple[str, ...] = ()


@dataclass(frozen=True)
class IdealAnswer:
    text: str
    sources: tuple[tuple[str, int], ...] = ()


@dataclass
class FullAnswer:
    question_type: QuestionType
    ideal: IdealAnswer
    exact: YesNoResult | list[EntityAnswer] | None
    supporting: list[ScoredPassage]
    flags: list[str]


def passage_sentiment(text: str, sentiment: SentimentLexicon, tag_lexicon: TagLexicon) -> float:
    """Summed per-word sentiment of one passage.

    Only words of the sentiment lexicon can score, so only they are
    tagged, each at its position among all the passage's tokens.
    """
    words = sentiment.words
    return sum(
        word_sentiment(lower, coarse_tag_class(word_tag(surface, lower, i, tag_lexicon)), sentiment)
        for i, surface in enumerate(token_surfaces(text))
        if (lower := surface.lower()) in words
    )


def answer_yesno(
    passages: list[str],
    sentiment: SentimentLexicon,
    tag_lexicon: TagLexicon,
) -> YesNoResult:
    """Sentiment vote: a passage with non-negative score counts positive,
    and the answer is yes when positives are not outnumbered.

    An empty passage list yields yes (the 0 >= 0 branch).

    Each passage's score is read from the sentiment lexicon's vote memo,
    memo_of(sentiment, passage_sentiment, tag_lexicon).
    """
    scores = memo_of(sentiment, passage_sentiment, tag_lexicon)
    positives = negatives = 0
    for text in passages:
        if scores[text] >= 0.0:
            positives += 1
        else:
            negatives += 1
    value = "yes" if positives >= negatives else "no"
    return YesNoResult(value, positives, negatives)


def rank_entities(
    passages: list[PassageCandidate],
    question_cuis: list[str],
    lexicon: ConceptLexicon,
    cap: int | None,
) -> list[EntityAnswer]:
    """Frequency-ranked concepts the passages carry, question concepts excluded.

    Exclusion happens at the concept level, so a synonym of a question
    entity is excluded too. Ties keep first-mention order. With a cap, the
    ranking is cut to its first cap concepts (none below 1) before any answer
    is made, so only the kept concepts have their names and synonyms looked up.
    """
    excluded = set(question_cuis)
    # A Counter keeps first-mention order, and the sort is stable.
    counts = Counter(cui for passage in passages for cui in passage.cuis if cui not in excluded)
    ranked = sorted(counts, key=lambda cui: -counts[cui])[:None if cap is None else max(cap, 0)]
    return [
        EntityAnswer(lexicon.get(cui).preferred, tuple(synonyms_of(cui, lexicon)))
        for cui in ranked
    ]


def answer_factoid(passages: list[PassageCandidate], question_cuis: list[str], lexicon: ConceptLexicon) -> list[EntityAnswer]:
    """Up to five candidate entities, most frequent first."""
    return rank_entities(passages, question_cuis, lexicon, FACTOID_CAP)


def answer_list(
    passages: list[PassageCandidate],
    question_cuis: list[str],
    lexicon: ConceptLexicon,
    cap: int = DEFAULT_LIST_CAP,
) -> list[EntityAnswer]:
    """Single list of entities; same ranking as factoid, different reading."""
    return rank_entities(passages, question_cuis, lexicon, cap)


def ideal_answer(
    question_terms: list[str],
    candidates: list[PassageCandidate],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> IdealAnswer:
    """Concatenation of the two passages ranking highest for the question's terms; "" with no candidates."""
    top = rank_passages(question_terms, candidates, k1=k1, b=b, top_n=2)
    text = " ".join(sp.passage.text for sp in top)
    sources = tuple((sp.passage.doc_id, sp.passage.sent_index) for sp in top)
    return IdealAnswer(text, sources)


@dataclass
class PipelineConfig:
    retrieve_depth: int = DEFAULT_RETRIEVE_DEPTH
    top_docs: int = DEFAULT_TOP_DOCS
    top_passages: int = DEFAULT_TOP_PASSAGES
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    list_cap: int = DEFAULT_LIST_CAP


@dataclass
class Retrieved:
    """What retrieval made of one question: its query, whether the search
    fell back to any-term matching, the reranked top documents, the ranked
    sentence passages from them, and the question's index terms and cuis."""

    query: Query
    relaxed: bool
    documents: list[ScoredDoc]
    passages: list[ScoredPassage]
    question_terms: list[str]
    question_cuis: list[str]


def retrieve(
    question: str | Question,
    documents: dict[str, DocumentRecord],
    index: IndexedCorpus,
    resources,
    config: PipelineConfig,
) -> Retrieved:
    """concept query -> BM25 search -> title rerank -> sentence BM25.

    documents must hold every unit of the index. The question is analysed
    once, by question_of: the query, search depth, rerank and passage ranking
    read that Question, and its index terms are index_terms(question).

    Rerank can reorder documents only when a question cui is in the
    hierarchy. Otherwise it keeps search's first top_docs in search order,
    a prefix of any deeper search's, so search goes only that deep. It
    still goes at least one deep, so that it reports whether it relaxed.
    """
    lexicon, stopwords = resources.concept_lexicon, resources.stopwords
    question = question_of(question, lexicon)
    question_terms = index_terms(question, stopwords, lexicon)
    depth = config.retrieve_depth
    if not any(cui in resources.graph for cui in question.cuis):
        depth = min(depth, max(config.top_docs, 1))
    query = formulate_query(question, lexicon, stopwords)
    result = search(index, query, depth, stopwords, lexicon, k1=config.k1, b=config.b)
    found = [documents[sd.doc_id] for sd in result.docs]
    reranked = rerank_documents(question, found, lexicon, resources.graph, config.top_docs)
    candidates = extract_passages(
        [documents[sd.doc_id] for sd in reranked], resources.abbreviations, stopwords, lexicon
    )
    passages = rank_passages(question_terms, candidates, k1=config.k1, b=config.b, top_n=config.top_passages)
    return Retrieved(query, result.relaxed, reranked, passages, question_terms, question.cuis)


def answer_pipeline(
    question: str | Question,
    documents: dict[str, DocumentRecord],
    index: IndexedCorpus,
    model: LinearModel,
    resources,
    config: PipelineConfig | None = None,
) -> FullAnswer:
    """classify -> retrieve -> type-specific answer.

    resources is a loaded ResourceBundle; everything it carries must be
    present before any retrieval starts. The question is analysed once, by
    question_of: classification tags its surfaces, and retrieval reads it.
    """
    config = config or PipelineConfig()
    for attr in ("concept_lexicon", "graph", "sentiment", "stopwords", "tag_lexicon", "abbreviations", "patterns"):
        if getattr(resources, attr, None) is None:
            raise ConfigurationError(f"resource bundle is missing {attr}")

    question = question_of(question, resources.concept_lexicon)
    extractor = FeatureExtractor(resources.tag_lexicon, resources.patterns)
    question_type = classify_type(model, question, extractor)

    retrieved = retrieve(question, documents, index, resources, config)
    supporting = retrieved.passages
    passages = [sp.passage for sp in supporting]
    ideal = ideal_answer(retrieved.question_terms, passages, k1=config.k1, b=config.b)
    exact = None
    if question_type is QuestionType.YESNO:
        exact = answer_yesno([p.text for p in passages], resources.sentiment, resources.tag_lexicon)
    elif question_type is QuestionType.FACTOID:
        exact = answer_factoid(passages, retrieved.question_cuis, resources.concept_lexicon)
    elif question_type is QuestionType.LIST:
        exact = answer_list(passages, retrieved.question_cuis, resources.concept_lexicon, cap=config.list_cap)

    flags = ["search_relaxed"] if retrieved.relaxed else []
    if not supporting:
        # The ideal answer ranks these same passages and the vote counts
        # them, so both are empty exactly when there are none.
        flags += ["no_passages", "empty_ideal"]
        if question_type is QuestionType.YESNO:
            flags.append("yesno_vote_empty")
    if question_type is QuestionType.LIST and not exact:
        flags.append("empty_entity_list")
    return FullAnswer(question_type, ideal, exact, supporting, flags)


def answer_to_json(answer: FullAnswer, question_id: str) -> dict:
    """Serialize a FullAnswer in the shape the question datasets use."""
    exact = answer.exact
    if isinstance(exact, YesNoResult):
        exact = exact.value
    elif exact is not None:
        exact = [[e.name, *e.synonyms] for e in exact]
    snippets = [
        {"document": sp.passage.doc_id, "text": sp.passage.text, "rank": sp.rank}
        for sp in answer.supporting
    ]
    documents = list(dict.fromkeys(sp.passage.doc_id for sp in answer.supporting))
    return {
        "id": question_id,
        "type": answer.question_type.value,
        "exact_answer": exact,
        "ideal_answer": answer.ideal.text,
        "documents": documents,
        "snippets": snippets,
        "flags": answer.flags,
    }
