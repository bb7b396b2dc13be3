"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import calibrate  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from stats import TooFewSamplesError, percentile  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, layer_unit  # noqa: E402

RESOURCES = ROOT / "src" / "bioqa" / "resources"


def generate(seed):
    generator = gen.Generator(gen.Sources.load(RESOURCES), seed)
    docs, properties = generator.corpus(60)
    return docs, properties, generator.questions(80)


def test_generator_repeats_for_a_seed_and_differs_across_seeds():
    assert generate(3) == generate(3)
    docs3, _, questions3 = generate(3)
    docs4, _, questions4 = generate(4)
    assert docs3 != docs4
    assert questions3 != questions4


def test_generator_output_is_distinct_and_keeps_concepts():
    docs, properties, questions = generate(5)
    assert properties["distinct_sentence_share"] > 0.8
    assert len({q["body"] for q in questions}) == len(questions)
    matcher = gen._Matcher(gen.Sources.load(RESOURCES).concepts)
    mentions = sum(len(matcher.mentions(list(gen._TOKEN_RE.finditer(d["abstract"])))) for d in docs)
    assert mentions >= len(docs)  # every document still names concepts


def test_generated_questions_name_concepts_exactly_when_their_shape_does():
    sources = gen.Sources.load(RESOURCES)
    generator = gen.Generator(sources, 6)
    tokens = gen._TOKEN_RE.finditer
    for shape in sources.question_shapes:
        named = bool(generator.matcher.mentions(list(tokens(shape["body"]))))
        for _ in range(3):
            body = generator.question(shape)
            assert body != shape["body"]
            assert bool(generator.matcher.mentions(list(tokens(body)))) == named, body


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert percentile(samples, 0.95) == 190.0
    with pytest.raises(TooFewSamplesError):
        percentile(samples[:199], 0.95)
    with pytest.raises(TooFewSamplesError):
        percentile([1.0] * 50, 0.95)


def test_reference_loop_is_fixed_and_independent_of_the_generator():
    assert calibrate._reference_text() == calibrate._TEXT
    assert calibrate._reference_postings() == calibrate._POSTINGS
    assert calibrate._reference_work(calibrate._TEXT, calibrate._GRAPH, calibrate._POSTINGS) == \
        calibrate._reference_work(calibrate._reference_text(), calibrate._GRAPH, calibrate._reference_postings())
    assert len(calibrate.FINGERPRINT) == 16
    assert not hasattr(calibrate, "gen")


def test_clock_scales_by_the_nearest_reference_times_on_both_sides():
    clock = calibrate.Clock()
    assert len(clock.references) == calibrate.WINDOW
    clock.after(calibrate.EVERY_S)  # a long operation gets fresh references after it
    assert len(clock.references) == calibrate.WINDOW + calibrate.WINDOW // 2 + 1
    # The machine runs at half speed from t = 10 on; a measurement at t = 10.5
    # takes most of its window from after it, one at t = 6 none.
    nominal = calibrate.NOMINAL_S
    clock.stamps = [float(t) for t in range(20)]
    clock.references = [nominal if t < 10 else 2 * nominal for t in range(20)]
    assert clock.calibrated(2.0, 10.5) == pytest.approx(1.0)
    assert clock.calibrated(2.0, 6.0) == pytest.approx(2.0)
    assert clock.calibrated(2.0, -5.0) == pytest.approx(2.0)   # clamped to the first window
    assert clock.calibrated(2.0, 99.0) == pytest.approx(1.0)   # and to the last


def _units():
    return {
        "a": Counter({"x": 2, "y": 1}),
        "b": Counter({"x": 1, "z": 3}),
        "c": Counter({"y": 2}),
        "d": Counter({"w": 4, "v": 1}),
        "e": Counter({"v": 2, "u": 1}),
    }


def test_bm25_oracle_relaxes_and_rejects_a_perturbed_ranking():
    ranking, relaxed = oracles.bm25_search(_units(), ["x", "y"], 10, 1.2, 0.85)
    assert not relaxed and [uid for uid, _ in ranking] == ["a"]
    ranking, relaxed = oracles.bm25_search(_units(), ["x", "z", "y"], 10, 1.2, 0.85)
    assert relaxed and {uid for uid, _ in ranking} == {"a", "b", "c"}
    assert oracles.same_ranking(ranking, list(ranking))
    swapped = [ranking[1], ranking[0], *ranking[2:]]
    assert not oracles.same_ranking(swapped, ranking)
    nudged = [(ranking[0][0], ranking[0][1] + 1e-6), *ranking[1:]]
    assert not oracles.same_ranking(nudged, ranking)
    assert not oracles.same_ranking(ranking[:-1], ranking)


def test_oracles_agree_with_bioqa_on_the_bundled_corpus():
    from bioqa import ingest, retrieval
    from bioqa.conceptlex import recognize

    bundle = ingest.load_resources(RESOURCES / "manifest.json")
    docs = ingest.load_corpus(bundle.corpus_path)
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in docs]
    index = retrieval.build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)
    forward = oracles.forward_index(index.unit_order, index.postings)
    question = "What symptoms characterize the Muenke syndrome?"
    query = retrieval.formulate_query(question, bundle.concept_lexicon, bundle.stopwords)
    terms = [t for name in query.concept_terms
             for t in retrieval.index_terms(name, bundle.stopwords, bundle.concept_lexicon)]
    got = retrieval.search(index, query, 200, bundle.stopwords, bundle.concept_lexicon)
    expected, relaxed = oracles.bm25_search(forward, terms, 200, 1.2, 0.85)
    got_pairs = [(d.doc_id, d.score) for d in got.docs]
    assert len(got_pairs) >= 2 and got.relaxed == relaxed
    assert oracles.same_ranking(got_pairs, expected)
    assert not oracles.same_ranking(list(reversed(got_pairs)), expected)

    retrieved = [d for d in docs if d.doc_id in {p[0] for p in got_pairs}]
    got_rr = retrieval.rerank_documents(question, retrieved, bundle.concept_lexicon, bundle.graph, 10)
    expected_rr = oracles.rerank(
        [m.cui for m in recognize(question, bundle.concept_lexicon)],
        [(d.doc_id, [m.cui for m in recognize(d.title, bundle.concept_lexicon)]) for d in retrieved],
        bundle.graph.adjacency, 10,
    )
    assert oracles.same_ranking([(d.doc_id, d.score) for d in got_rr], expected_rr)


def test_tracer_refuses_an_unwrapped_binding(monkeypatch):
    import bioqa.answer
    import bioqa.textproc

    monkeypatch.setattr(bioqa.answer, "stem_again", bioqa.textproc.stem, raising=False)
    original_search = bioqa.answer.search
    tracer = tracer_mod.Tracer()
    with pytest.raises(tracer_mod.UnwrappedBindingError, match="bioqa.answer.stem_again"):
        tracer.install()
    assert bioqa.answer.search is original_search  # everything was restored


def test_tracer_refuses_a_missing_name(monkeypatch):
    import bioqa.answer

    monkeypatch.delattr(bioqa.answer, "rerank_documents")
    with pytest.raises(tracer_mod.TraceTargetMissingError, match="rerank_documents"):
        tracer_mod.Tracer().install()


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, *layer_unit(name)) for name in PER_LAYER
    ]
