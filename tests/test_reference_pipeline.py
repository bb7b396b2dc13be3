"""answer_pipeline and retrieve against the reference pipeline, end to end.

For every question, answer_to_json of answer_pipeline must equal
reference_pipeline.answer, and retrieve's documents and passages must equal
reference_pipeline.retrieve's, scores within 1e-9 relative. The questions
are the bundled datasets', 50 of the synthetic pin's, whose 3000 documents
reach search's array path, and drawn streams over small drawn corpora. A
stream goes through one bundle and a variant of it that shares its lexicon,
graph and sentiment lexicon but not its stopwords or abbreviations, so that
the memos kept on those objects are read, refilled and replaced between
questions.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pipeline as reference
from bioqa import ingest
from bioqa.answer import PipelineConfig, answer_pipeline, answer_to_json, retrieve
from bioqa.retrieval import DocumentRecord, build_index
from bioqa.textproc import split_sentences

from conftest import RESOURCE_DIR, assert_same_retrieval


def check(question_id, question, documents, index, units, model, resources, config):
    """The question's answer, after checking it and its retrieval against
    the reference over units, the forward index of documents."""
    expected = reference.retrieve(question, documents, units, resources, config)
    assert_same_retrieval(retrieve(question, documents, index, resources, config), expected)
    got = answer_to_json(answer_pipeline(question, documents, index, model, resources, config), question_id)
    assert got == reference.answer(question_id, question, expected, model, resources, config)
    return got


@pytest.mark.parametrize("dataset", ["questions.json", "demo_gold.json"])
def test_bundled_questions(bundle, corpus, doc_index, type_model, dataset):
    units = reference.forward_index(corpus.values(), bundle.stopwords, bundle.concept_lexicon)
    answers = [check(q.id, q.body, corpus, doc_index, units, type_model, bundle, PipelineConfig())
               for q in ingest.load_questions(RESOURCE_DIR / dataset).questions]
    assert {a["type"] for a in answers} >= {"yesno", "factoid", "list"}


def test_synthetic_pin_questions(bundle, type_model, synthetic):
    documents, index, questions = synthetic
    units = reference.forward_index(documents.values(), bundle.stopwords, bundle.concept_lexicon)
    answers = [check(q["id"], q["body"], documents, index, units, type_model, bundle, PipelineConfig())
               for q in questions[:50]]
    relaxed = sum("search_relaxed" in a["flags"] for a in answers)
    assert 0 < relaxed < len(answers)


DOCS = ingest.load_corpus(RESOURCE_DIR / "corpus.jsonl")
_SENTENCES = sorted({s.text for d in DOCS for s in split_sentences(d.abstract, set())})
_documents = st.lists(
    st.tuples(st.sampled_from([d.title for d in DOCS] + ["", "Tobacco"]),
              st.lists(st.sampled_from(_SENTENCES), max_size=4).map(" ".join)),
    min_size=1, max_size=8,
)
# Question openings of each type, then words of the bundled titles and
# concepts: some name concepts in the hierarchy, some concepts outside it,
# some no concept.
_questions = st.one_of(
    st.sampled_from([q.body for q in ingest.load_questions(RESOURCE_DIR / "questions.json").questions]),
    st.builds(
        lambda opening, words: f"{opening} {' '.join(words)}?",
        st.sampled_from(["Is", "Does", "What is", "Which", "List the", "Describe"]),
        st.lists(st.sampled_from(["imatinib", "epilepsy", "seizures", "Muenke", "syndrome", "tobacco", "the",
                                  "chromatin", "mutation", "patients", "genes", "cause", "zorbifen", "Krabbe"]),
                 min_size=1, max_size=5),
    ),
)
_configs = st.builds(PipelineConfig, retrieve_depth=st.integers(1, 10), top_docs=st.integers(0, 6),
                     top_passages=st.integers(0, 12), list_cap=st.integers(0, 6))


@settings(max_examples=100)
@given(docs=_documents, stream=st.lists(st.tuples(_questions, st.booleans()), min_size=1, max_size=6),
       config=_configs)
def test_question_streams_over_drawn_corpora(bundle, type_model, docs, stream, config):
    variant = replace(bundle, stopwords=(bundle.stopwords - {"the", "of"}) | {"patients"}, abbreviations=set())
    documents = {f"d{i}": DocumentRecord(f"d{i}", title, abstract) for i, (title, abstract) in enumerate(docs)}
    texts = [(d.doc_id, f"{d.title} {d.abstract}") for d in documents.values()]
    searched = [(resources, build_index(texts, "document", resources.stopwords, resources.concept_lexicon),
                 reference.forward_index(documents.values(), resources.stopwords, resources.concept_lexicon))
                for resources in (bundle, variant)]
    for k, (question, use_variant) in enumerate(stream):
        resources, index, units = searched[use_variant]
        check(f"q{k}", question, documents, index, units, type_model, resources, config)
