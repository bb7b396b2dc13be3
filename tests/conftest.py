import importlib.util
import sys
import warnings
import zlib
from pathlib import Path

import pytest
from hypothesis import is_hypothesis_test, seed, settings

from bioqa import ingest, qclass, retrieval
from bioqa.conceptlex import Concept, ConceptGraph, ConceptLexicon
from bioqa.qclass import FeatureExtractor

RESOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "bioqa" / "resources"
DATA_DIR = Path(__file__).resolve().parent / "data"
GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SYNTHETIC_SEED, SYNTHETIC_DOCS, SYNTHETIC_QUESTIONS = 3, 3000, 300

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


def random_bm25_case(rng):
    """(units, query, k1, b): 1 to 20 units of 1 to 10 terms and a query of
    1 to 5 terms, all drawn from 15 terms, with k1 and b drawn from a few
    values that include b = 0 and b = 1."""
    vocab = [f"t{i}" for i in range(15)]
    units = [[rng.choice(vocab) for _ in range(rng.randint(1, 10))] for _ in range(rng.randint(1, 20))]
    query = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
    return units, query, rng.choice([0.6, 1.2, 1.8]), rng.choice([0.0, 0.4, 0.85, 1.0])


def random_rerank_case(rng):
    """(lexicon, graph, question, docs, m): 2 to 8 concepts K<i> named
    word<i>, a hierarchy of 1 to 10 edges, each between two distinct
    concepts, cycles included, a question of 0 to 4 such words, 1 to 10 documents whose
    titles are 1 to 4 of them, and a rerank depth m from 1 to their number."""
    n_concepts = rng.randint(2, 8)
    cuis = [f"K{i}" for i in range(n_concepts)]
    lexicon = ConceptLexicon([Concept(c, f"word{i}", "T0", "Thing") for i, c in enumerate(cuis)])
    graph = ConceptGraph.from_edges([tuple(rng.sample(cuis, 2)) for _ in range(rng.randint(1, 10))])

    def sentence():
        return " ".join(f"word{rng.randrange(n_concepts)}" for _ in range(rng.randint(0, 4)))

    question = sentence()
    docs = [retrieval.DocumentRecord(f"d{j}", sentence() or "word0", "") for j in range(rng.randint(1, 10))]
    return lexicon, graph, question, docs, rng.randint(1, len(docs))


def word_cuis(text):
    """The cuis a random_rerank_case text names, one per word."""
    return [f"K{word[4:]}" for word in text.split()]


def spy_bindings(monkeypatch, functions, wrap):
    """Bind wrap(f) in place of every binding of each of functions in the
    loaded bioqa modules, for the test's length; returns how many it bound."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "bioqa" or name.startswith("bioqa."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in functions):
                    monkeypatch.setattr(module, attr, wrap(value))
                    bound += 1
    return bound


def assert_same_retrieval(got, expected):
    """answer.retrieve's Retrieved equals reference_pipeline.retrieve's
    Retrieval: the same documents and passages in order, with scores within
    1e-9 relative, and the same relaxed flag, question terms and cuis."""
    assert [d.doc_id for d in got.documents] == [doc_id for doc_id, _ in expected.documents]
    assert [d.score for d in got.documents] == pytest.approx([score for _, score in expected.documents], rel=1e-9)
    assert [(p.passage.doc_id, p.passage.sent_index, p.passage.text, list(p.passage.terms), list(p.passage.cuis))
            for p in got.passages] == [tuple(p) for p, _ in expected.passages]
    assert [p.score for p in got.passages] == pytest.approx([score for _, score in expected.passages], rel=1e-9)
    assert (got.relaxed, got.question_terms, got.question_cuis) == expected[2:]


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
def synthetic(bundle):
    """The benchmark generator's corpus of SYNTHETIC_DOCS documents and
    SYNTHETIC_QUESTIONS questions at SYNTHETIC_SEED: {doc id: record}, its
    index and the questions. The generator reads only data files and never
    imports bioqa, so these inputs are the same at every commit."""
    spec = importlib.util.spec_from_file_location("bioqa_synthetic_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses resolve the module by name
    spec.loader.exec_module(gen)
    generator = gen.Generator(gen.Sources.load(RESOURCE_DIR), SYNTHETIC_SEED)
    docs, _ = generator.corpus(SYNTHETIC_DOCS)
    documents = {d["doc_id"]: retrieval.DocumentRecord(d["doc_id"], d["title"], d["abstract"]) for d in docs}
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in documents.values()]
    index = retrieval.build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)
    return documents, index, generator.questions(SYNTHETIC_QUESTIONS)


@pytest.fixture(scope="session")
def doc_index(bundle, corpus):
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in corpus.values()]
    return retrieval.build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)
