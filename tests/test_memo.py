"""The memos kept across requests (textproc.Memo): each is held at its
bound with answers unchanged, and none keeps its owner alive."""

import gc
import weakref

import pytest

from bioqa import answer, conceptlex, retrieval, textproc
from bioqa.conceptlex import ConceptGraph, ConceptLexicon, SentimentLexicon


def fresh_owners(bundle):
    """A concept lexicon, graph and sentiment lexicon equal to the bundled
    ones and holding no memo."""
    return (
        ConceptLexicon(list(bundle.concept_lexicon.concepts.values())),
        ConceptGraph({cui: set(near) for cui, near in bundle.graph.adjacency.items()}),
        SentimentLexicon(bundle.sentiment.entries),
    )


def request(i, question, bundle, docs, lexicon, graph, sentiment):
    """What the stages that keep memos make of question i: its analysis,
    the rerank of every document, and the passages of, and vote over, a
    window of four documents that moves with i."""
    window = [docs[(i + k) % len(docs)] for k in range(4)]
    passages = retrieval.extract_passages(window, bundle.abbreviations, bundle.stopwords, lexicon)
    return (
        retrieval.analyse(question, bundle.stopwords, lexicon),
        retrieval.rerank_documents(question, docs, lexicon, graph, 10),
        passages,
        answer.answer_yesno([p.text for p in passages], sentiment, bundle.tag_lexicon),
    )


def similarity_memos(graph):
    rows = graph._memos[conceptlex._similarity_row]
    return [rows, *rows.values()]


# Each memo by name: the memos it makes up, read from the owners.
MEMOS = {
    "word": lambda lexicon, graph, sentiment: [lexicon._memos[retrieval._word_term]],
    "title": lambda lexicon, graph, sentiment: [lexicon._memos[conceptlex.title_cuis]],
    "passage": lambda lexicon, graph, sentiment: [lexicon._memos[retrieval._analyse_sentences]],
    "similarity row": lambda lexicon, graph, sentiment: similarity_memos(graph),
    "vote": lambda lexicon, graph, sentiment: [sentiment._memos[answer.passage_sentiment]],
}


@pytest.mark.parametrize("name", MEMOS)
def test_memo_held_at_its_bound(name, bundle, corpus, appendix_questions, monkeypatch):
    docs = list(corpus.values())
    questions = [q.body for q in appendix_questions.questions]
    # Unbounded, the memo grows past 3 entries over these questions.
    unbounded = fresh_owners(bundle)
    expected = [request(i, q, bundle, docs, *unbounded) for i, q in enumerate(questions)]
    assert max(map(len, MEMOS[name](*unbounded))) > 3
    monkeypatch.setattr(textproc, "MEMO_BOUND", 3)
    owners = fresh_owners(bundle)
    for i, q in enumerate(questions):
        assert request(i, q, bundle, docs, *owners) == expected[i]
        assert all(len(memo) <= 3 for memo in MEMOS[name](*owners))


def test_used_owners_are_freed_without_the_cycle_collector(bundle, corpus, appendix_questions):
    docs = list(corpus.values())
    lexicon, graph, sentiment = fresh_owners(bundle)
    for i, q in enumerate(appendix_questions.questions):
        request(i, q.body, bundle, docs, lexicon, graph, sentiment)
    assert all(any(memos(lexicon, graph, sentiment)) for memos in MEMOS.values())
    refs = [weakref.ref(owner) for owner in (lexicon, graph, sentiment)]
    gc.collect()
    gc.disable()
    try:
        del lexicon, graph, sentiment
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
