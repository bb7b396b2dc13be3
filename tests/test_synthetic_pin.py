"""The answers to seeded synthetic questions over a seeded synthetic corpus,
pinned.

Every search over the 12 bundled documents is ranked over Python lists
(its postings number fewer than retrieval.ARRAY_MIN_POSTINGS), so the
golden files never reach the array search path. The benchmark's generator
builds 3000 documents and 300 questions from the bundled data with a seed;
it reads only data files and never imports bioqa, so these inputs are the
same at every commit of the package. The pin changes only when a change
means it to, and is made again when the generator changes.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bioqa import retrieval
from bioqa.answer import answer_pipeline, answer_to_json

from conftest import RESOURCE_DIR

GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
SEED, N_DOCS, N_QUESTIONS = 3, 3000, 300
ANSWERS_SHA256 = "7fb41d96099b88cc4dae0dd13a02a37bd8d374d1f8b25476b0331d98f554bdaa"
RELAXED = 146


def _load_generator():
    spec = importlib.util.spec_from_file_location("bioqa_synthetic_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def synthetic_answers(bundle, type_model):
    gen = _load_generator()
    generator = gen.Generator(gen.Sources.load(RESOURCE_DIR), SEED)
    docs, _ = generator.corpus(N_DOCS)
    questions = generator.questions(N_QUESTIONS)
    documents = {d["doc_id"]: retrieval.DocumentRecord(d["doc_id"], d["title"], d["abstract"]) for d in docs}
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in documents.values()]
    index = retrieval.build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)
    return [
        answer_to_json(answer_pipeline(q["body"], documents, index, type_model, bundle), q["id"])
        for q in questions
    ]


def test_answers_match_the_pin(synthetic_answers):
    dumped = json.dumps(synthetic_answers, sort_keys=True, ensure_ascii=False)
    assert hashlib.sha256(dumped.encode("utf-8")).hexdigest() == ANSWERS_SHA256


def test_both_search_rules_are_reached(synthetic_answers):
    relaxed = sum("search_relaxed" in a["flags"] for a in synthetic_answers)
    assert (relaxed, len(synthetic_answers) - relaxed) == (RELAXED, N_QUESTIONS - RELAXED)
