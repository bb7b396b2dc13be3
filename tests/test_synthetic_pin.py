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
import json

import pytest

from bioqa.answer import answer_pipeline, answer_to_json

from conftest import SYNTHETIC_QUESTIONS

ANSWERS_SHA256 = "7fb41d96099b88cc4dae0dd13a02a37bd8d374d1f8b25476b0331d98f554bdaa"
RELAXED = 146


@pytest.fixture(scope="module")
def synthetic_answers(bundle, type_model, synthetic):
    documents, index, questions = synthetic
    return [
        answer_to_json(answer_pipeline(q["body"], documents, index, type_model, bundle), q["id"])
        for q in questions
    ]


def test_answers_match_the_pin(synthetic_answers):
    dumped = json.dumps(synthetic_answers, sort_keys=True, ensure_ascii=False)
    assert hashlib.sha256(dumped.encode("utf-8")).hexdigest() == ANSWERS_SHA256


def test_both_search_rules_are_reached(synthetic_answers):
    relaxed = sum("search_relaxed" in a["flags"] for a in synthetic_answers)
    assert (relaxed, len(synthetic_answers) - relaxed) == (RELAXED, SYNTHETIC_QUESTIONS - RELAXED)
