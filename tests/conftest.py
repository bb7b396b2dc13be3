import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import is_hypothesis_test, seed, settings

from bioqa import ingest, qclass, retrieval
from bioqa.qclass import FeatureExtractor

RESOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "bioqa" / "resources"
DATA_DIR = Path(__file__).resolve().parent / "data"

# A model in each shape of format 2, which kept the kind at the top level
# as well as in meta, and wrapped each topic's weights in an object.
VERSION_TWO_MODELS = {
    "type": {"version": 2, "kind": "type", "labels": ["yesno"], "weights": {"yesno": {"is": 1.0}},
             "meta": {"space": "patterns", "kind": "type"}},
    "topics": {"version": 2, "kind": "topics", "topics": {"Device": {"weights": {"a": 1.0}}},
               "meta": {"seed": 42, "kind": "topics"}},
}

# Every property test draws the same examples on every run, has no
# per-example deadline and keeps no example database; each sets only its
# own max_examples.
settings.register_profile("bioqa", deadline=None, derandomize=True, database=None)
settings.load_profile("bioqa")


def pytest_collection_modifyitems(items):
    """Seed each property test from its module and qualified name.

    Under derandomize alone the seed is a digest of the test's source, and
    for a method that digest takes in its @example lines, so adding an
    example would redraw every drawn one. A seed given by name keeps the
    draws where they are.
    """
    for item in items:
        test = getattr(item, "function", None)
        if test is not None and is_hypothesis_test(test):
            seed(zlib.crc32(f"{test.__module__}.{test.__qualname__}".encode()))(test)


def analysed(bundle, text, doc_id="d", sent_index=0) -> retrieval.PassageCandidate:
    """A candidate sentence carrying the analysis extract_passages gives it."""
    terms, cuis = retrieval.analyse(text, bundle.stopwords, bundle.concept_lexicon)
    return retrieval.PassageCandidate(text, doc_id, sent_index, tuple(terms), tuple(cuis))


def index_from_terms(rows, ids=None) -> retrieval.IndexedCorpus:
    """An index over term lists given directly (no text pipeline), one
    unit per row, named by ids or else u0, u1, ..."""
    ids = ids or [f"u{i}" for i in range(len(rows))]
    return retrieval.IndexedCorpus.from_terms(zip(ids, rows))


def earliest(shifted):
    """The matches at the smallest shift among (shift, match) pairs, in
    their order: what pattern_matches gives where a reference gives each
    pattern's first match and the shift it starts at."""
    first = min((shift for shift, _ in shifted), default=None)
    return [match for shift, match in shifted if shift == first]


def question_terms(bundle, question):
    return retrieval.index_terms(question, bundle.stopwords, bundle.concept_lexicon)


def question_cuis(bundle, question):
    return retrieval.analyse(question, bundle.stopwords, bundle.concept_lexicon)[1]


@pytest.fixture(scope="session")
def bundle():
    return ingest.load_resources(RESOURCE_DIR / "manifest.json")


@pytest.fixture(scope="session")
def corpus(bundle):
    return {d.doc_id: d for d in ingest.load_corpus(bundle.corpus_path)}


@pytest.fixture(scope="session")
def extractor(bundle):
    return FeatureExtractor(bundle.tag_lexicon, bundle.patterns)


@pytest.fixture(scope="session")
def appendix_questions():
    return ingest.load_questions(RESOURCE_DIR / "questions.json")


@pytest.fixture(scope="session")
def typed_examples(appendix_questions, extractor):
    return [(extractor.extract(q.body, "patterns"), q.type) for q in appendix_questions.questions]


@pytest.fixture(scope="session")
def type_model(typed_examples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return qclass.train_type_classifier(typed_examples, "patterns", C=1.01, seed=42)


@pytest.fixture(scope="session")
def doc_index(bundle, corpus):
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in corpus.values()]
    return retrieval.build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)
