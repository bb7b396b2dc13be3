"""One workload, measured in a fresh process.

run.py starts this script twice per workload with PYTHONPATH pointing at
the checkout's src/. The first process (--prepare) generates the
workload's files (corpus, questions, manifest) from the seed, builds and
saves the full index and checks that it loads back equal; it writes what
it found to prepared.json. The second process measures, so that set-up
time and peak memory belong to the workload alone and not to preparation.
Its result is written as JSON to --out.

The run is split into equal blocks; each block
  1. times load_index alone, back to back for LOAD_BATCH_S;
  2. runs one index cycle: build_index -> save_index -> load_index;
  3. sets up SETUPS_PER_BLOCK times: load_resources, load_corpus,
     load_index, train;
  4. asks questions in a closed loop (one client, no threads; the next
     question is sent when the previous answer returns) until the block
     ends.
Steps 1 and 2 run while no set-up state is alive, so the process never
holds more than one copy of the full index before peak memory is read,
after the last question. Untimed checks follow: oracles, evaluation,
repeated answers, digest.
A traced run (--trace 1) first times an untraced question loop, then
installs the tracer for the blocks. Reported times are calibrated after
the run (see calibrate.py); raw wall-time forms go into the result beside
them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import bioqa
from bioqa import answer, evalkit, ingest, qclass, retrieval
from bioqa.conceptlex import recognize
from bioqa.qclass import FeatureExtractor
from bioqa.textproc import stem

import gen
import oracles
from calibrate import FINGERPRINT, Clock
from stats import percentile
from tracer import BUILD_SPAN, NESTED_NAMES, QUESTION_SPAN, STAGES, Tracer
from workloads import SETUPS_PER_BLOCK, SYNTHETIC_DOCS, SYNTHETIC_QUESTIONS, WORKLOADS, Workload

MIN_QUESTIONS = 200       # p95 needs 10 samples beyond it
HARD_LIMIT_S = 100.0      # stop a runaway loop well inside the 180 s budget
TRAINING_SEED = 42
UNTRACED_SHARE = 0.25     # of a traced run, for the overhead baseline
LOAD_BATCH_S = 0.1
RESOURCE_FILES = ("concepts.tsv", "hierarchy.tsv", "sentiment.tsv", "stopwords.txt",
                  "tags.tsv", "abbreviations.txt", "patterns.txt")

# The bundled demo questions score these; the README keeps the negation
# case (yesno 0.0) visible on purpose.
DEMO_METRICS = {"yesno_accuracy": 0.0, "list_f1": 0.4, "snippets_f1": 0.444}


class Ops:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def answer_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


class Answers:
    """A digest of every question's first answer, and the full answers of
    the first MIN_QUESTIONS distinct questions asked. What the benchmark
    keeps therefore does not grow with the number of questions a faster
    program gets through, and peak memory stays the program's."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.relaxed: dict[str, bool] = {}
        self.full: dict[str, dict] = {}

    def record(self, qid: str, obj: dict) -> bool:
        """Keep the answer if it is the first; False if it differs from it."""
        digest = answer_digest(obj)
        if qid in self.digests:
            return self.digests[qid] == digest
        self.digests[qid] = digest
        self.relaxed[qid] = "search_relaxed" in obj["flags"]
        if len(self.full) < MIN_QUESTIONS:
            self.full[qid] = obj
        return True


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_inputs(workdir: Path, workload: Workload, sources: gen.Sources, seed: int) -> dict:
    """Write corpus, questions and a manifest; return workload properties."""
    resources = Path(bioqa.__file__).parent / "resources"
    for name in RESOURCE_FILES:
        shutil.copyfile(resources / name, workdir / name)
    shutil.copyfile(resources / "questions.json", workdir / "train_questions.json")
    manifest = {
        "corpus": "corpus.jsonl", "lexicon": "concepts.tsv", "graph": "hierarchy.tsv",
        "sentiment": "sentiment.tsv", "stopwords": "stopwords.txt", "tags": "tags.tsv",
        "abbreviations": "abbreviations.txt", "patterns": "patterns.txt",
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    if workload.synthetic:
        generator = gen.Generator(sources, seed)
        docs, properties = generator.corpus(SYNTHETIC_DOCS)
        questions = generator.questions(SYNTHETIC_QUESTIONS)
        (workdir / "corpus.jsonl").write_text(
            "".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8"
        )
    else:
        shutil.copyfile(resources / "corpus.jsonl", workdir / "corpus.jsonl")
        questions = []
        for name in ("questions.json", "demo_gold.json"):
            questions.extend(json.loads((resources / name).read_text(encoding="utf-8"))["questions"])
        sentences = [s for doc in sources.sentences_by_doc for s in doc]
        properties = {
            "documents": len(sources.titles),
            "sentences": len(sentences),
            "distinct_sentence_share": len(set(sentences)) / len(sentences),
        }
    (workdir / "questions.json").write_text(json.dumps({"questions": questions}), encoding="utf-8")
    return properties


# ---------------------------------------------------------------------------
# Program calls
# ---------------------------------------------------------------------------

class Program:
    """The bioqa calls the benchmark times, each inside a span when traced."""

    def __init__(self, workdir: Path, clock: Clock, tracer: Tracer | None = None):
        self.workdir = workdir
        self.manifest = workdir / "manifest.json"
        self.index_path = workdir / "index.json"
        self.clock = clock
        self.tracer = tracer
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S

    def call(self, span: str, fn, *args, qid=None):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(span, fn, *args, qid=qid)

    def timed(self, fn, *args):
        """fn(*args) and its sample: (raw wall seconds, midpoint), which
        Clock.calibrated turns into calibrated seconds after the run."""
        self.clock.tick()
        started = time.perf_counter()
        result = fn(*args)
        ended = time.perf_counter()
        self.clock.after(ended - started)
        return result, (ended - started, (started + ended) / 2)

    def set_up(self):
        """What `bioqa answer --index` does before its first question."""
        bundle = self.call("ingest.load_resources", ingest.load_resources, self.manifest)
        records = self.call("ingest.load_corpus", ingest.load_corpus, bundle.corpus_path)
        documents = {d.doc_id: d for d in records}
        index = self.call("ingest.load_index", ingest.load_index, self.index_path)
        model = self.call("qclass.train", self._train, bundle)
        return bundle, documents, index, model

    def load_time(self) -> tuple[float, float]:
        """Sample of one load_index of the saved index: the mean of
        back-to-back loads filling LOAD_BATCH_S, at least one, so that a
        sub-millisecond load is not lost in timer and cache jitter."""
        self.clock.tick()
        loads, started = 0, time.perf_counter()
        while not loads or time.perf_counter() - started < LOAD_BATCH_S:
            self.call("ingest.load_index", ingest.load_index, self.index_path)
            loads += 1
        ended = time.perf_counter()
        self.clock.after(ended - started)
        return (ended - started) / loads, (started + ended) / 2

    def _train(self, bundle):
        dataset = ingest.load_questions(self.workdir / "train_questions.json")
        extractor = FeatureExtractor(bundle.tag_lexicon, bundle.patterns)
        examples = [(extractor.extract(q.body, "patterns"), q.type) for q in dataset.questions]
        with warnings.catch_warnings():
            # The bundled set holds known conflicting duplicates.
            warnings.simplefilter("ignore")
            return qclass.train_type_classifier(examples, "patterns", C=1.01, seed=TRAINING_SEED)

    def index_cycle(self, bundle, units, ops: Ops) -> dict:
        """build_index -> save_index -> load_index on a file of its own; the
        loaded index must equal the built one."""
        path = self.workdir / "cycle_index.json"
        index, build = self.timed(
            self.call, BUILD_SPAN, retrieval.build_index, units, "document",
            bundle.stopwords, bundle.concept_lexicon,
        )
        self.call("ingest.save_index", ingest.save_index, index, path)
        ops.check(ingest.load_index(path) == index, "load_index of a saved index differs from the built index")
        return {
            "build": build,
            "bytes": path.stat().st_size,
            "terms": sum(index.lengths.values()),
        }

    def _ask(self, state, question) -> dict:
        bundle, documents, index, model = state
        full = answer.answer_pipeline(question.body, documents, index, model, bundle)
        return answer.answer_to_json(full, question.id)

    def ask(self, state, question) -> dict:
        return self.call(QUESTION_SPAN, self._ask, state, question, qid=question.id)


def question_order(questions, workload: Workload, seed: int):
    """Endless question stream: bundled questions in seeded shuffled passes,
    synthetic ones in generated order (repeating only if the pool runs out)."""
    rng = random.Random(seed)
    while True:
        batch = list(questions)
        if not workload.synthetic:
            rng.shuffle(batch)
        yield from batch


class QuestionLoop:
    """Closed loop, one client, no threads: the next question is sent when
    the previous answer returns. A question that raises counts as failed
    and the loop goes on; a repeated question must get the same answer."""

    def __init__(self, program: Program, stream, ops: Ops, answers: Answers):
        self.program, self.stream, self.ops, self.answers = program, stream, ops, answers
        self.asked: list[str] = []
        self.samples: list[tuple[float, float]] = []

    def run(self, state, until: float, min_questions: int = 0) -> None:
        """Ask until the perf_counter deadline and min_questions answers."""
        while True:
            now = time.perf_counter()
            if (now >= until and len(self.samples) >= min_questions) or now >= self.program.hard_deadline:
                return
            question = next(self.stream)
            try:
                obj, sample = self.program.timed(self.program.ask, state, question)
            except Exception as exc:  # one failed question must not end the run
                self.ops.check(False, f"question {question.id} raised {type(exc).__name__}: {exc}")
                continue
            self.samples.append(sample)
            self.asked.append(question.id)
            self.ops.check(self.answers.record(question.id, obj),
                           f"question {question.id} answered differently on a repeat")


# ---------------------------------------------------------------------------
# Checks (untimed)
# ---------------------------------------------------------------------------

def oracle_query_terms(query, bundle) -> list[str]:
    """Index terms of a query, from the paper's definition: the analysed
    concept names, or the stemmed raw terms when no concept was found."""
    if query.concept_terms:
        return [
            t for name in query.concept_terms
            for t in retrieval.index_terms(name, bundle.stopwords, bundle.concept_lexicon)
        ]
    return [stem(t.lower()) for t in query.raw_terms]


def check_oracles(state, questions, units, sample: int, rng: random.Random, ops: Ops) -> None:
    """search and rerank_documents against the brute-force oracles."""
    bundle, documents, index, _ = state
    lexicon, stopwords = bundle.concept_lexicon, bundle.stopwords
    forward = oracles.forward_index(index.unit_order, index.postings)
    for uid, text in rng.sample(units, min(10, len(units))):
        ops.check(
            Counter(retrieval.index_terms(text, stopwords, lexicon)) == forward[uid],
            f"indexed terms of {uid} differ from a fresh analysis",
        )
    picked = questions if sample == 0 else rng.sample(questions, min(sample, len(questions)))
    for q in picked:
        query = retrieval.formulate_query(q.body, lexicon, stopwords)
        terms = oracle_query_terms(query, bundle)
        got = retrieval.search(index, query, retrieval.DEFAULT_RETRIEVE_DEPTH, stopwords, lexicon)
        expected, relaxed = oracles.bm25_search(
            forward, terms, retrieval.DEFAULT_RETRIEVE_DEPTH, retrieval.DEFAULT_K1, retrieval.DEFAULT_B
        )
        ops.check(
            got.relaxed == relaxed
            and oracles.same_ranking([(d.doc_id, d.score) for d in got.docs], expected),
            f"search for {q.id} differs from the BM25 oracle",
        )
        retrieved = [documents[d.doc_id] for d in got.docs]
        got_rr = retrieval.rerank_documents(
            q.body, retrieved, lexicon, bundle.graph, retrieval.DEFAULT_TOP_DOCS
        )
        expected_rr = oracles.rerank(
            [m.cui for m in recognize(q.body, lexicon)],
            [(d.doc_id, [m.cui for m in recognize(d.title, lexicon)]) for d in retrieved],
            bundle.graph.adjacency,
            retrieval.DEFAULT_TOP_DOCS,
        )
        ops.check(
            oracles.same_ranking([(d.doc_id, d.score) for d in got_rr], expected_rr),
            f"rerank for {q.id} differs from the BFS oracle",
        )


def conjunctive_candidates(state, questions) -> list[int]:
    """Documents holding every query term, per question (0: search relaxes)."""
    bundle, _, index, _ = state
    counts = []
    for q in questions:
        query = retrieval.formulate_query(q.body, bundle.concept_lexicon, bundle.stopwords)
        postings = sorted((index.postings.get(t, {}) for t in set(oracle_query_terms(query, bundle))), key=len)
        counts.append(len(set(postings[0]).intersection(*postings[1:])) if postings else 0)
    return counts


def evaluate(program: Program, workdir: Path, workload: Workload, answers: Answers, ops: Ops):
    """evaluate_run over the kept answers; returns (seconds, entries scored).

    Bundled answers are scored against the demo gold answers and must give
    the known demo metrics. Synthetic questions have no gold answers; their
    answers are scored against themselves only so that evaluate_run is
    timed on them, and that score is no check.
    """
    entries = list(answers.full.values())
    if workload.synthetic:
        gold_path = workdir / "self_gold.json"
        # evaluate_run reads no question body; the id stands in for it.
        gold_path.write_text(json.dumps({"questions": [
            {"id": e["id"], "body": e["id"], "type": e["type"], "exact_answer": e["exact_answer"],
             "ideal_answer": e["ideal_answer"], "documents": e["documents"], "snippets": e["snippets"]}
            for e in entries
        ]}), encoding="utf-8")
    else:
        gold_path = workdir / "questions.json"
    gold = ingest.load_questions(gold_path)
    report, (elapsed, _) = program.timed(program.call, "evalkit.evaluate_run", evalkit.evaluate_run, gold, entries)
    if not workload.synthetic:
        for key, expected in DEMO_METRICS.items():
            got = report.metrics.get(key)
            ops.check(got is not None and round(got, 3) == expected, f"demo {key} {got} != {expected}")
    return elapsed, len(entries)


def answers_digest(answers: Answers) -> str:
    """sha256 of the full answers kept: those to the first MIN_QUESTIONS
    distinct questions asked, which a seed fixes."""
    payload = json.dumps([answers.full[qid] for qid in sorted(answers.full)], sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def per_layer(tracer: Tracer, n_questions: int, cycles: list[dict], n_docs: int,
              eval_result) -> tuple[dict, set[str]]:
    """Per-layer metrics, and the names of the spans seen inside questions."""
    n_q = max(n_questions, 1)
    selfs = tracer.self_times()
    stage_self: Counter = Counter()
    durations: dict[str, list[float]] = {}
    traced_total = 0.0
    for i, (name, start, end, parent, _) in enumerate(tracer.spans):
        durations.setdefault(name, []).append(end - start)
        if tracer.root_of(i) == QUESTION_SPAN:
            stage_self[name] += selfs[i]
            if parent is None:
                traced_total += end - start
    calls = tracer.primitive_calls
    obs = tracer.observed

    def ratio(a, b):
        return a / b if b else 0.0

    q = QUESTION_SPAN
    scored = calls(q, "retrieval.bm25_score", "retrieval.search")
    stem_q = calls(q, "textproc.stem")
    sims = calls(q, "conceptlex.path_similarity")
    docs_built = n_docs * len(cycles)
    metrics = {
        "qclass.classify.self_ms_per_q": stage_self["qclass.classify"] * 1e3 / n_q,
        "qclass.train.ms": statistics.median(durations["qclass.train"]) * 1e3,
        "retrieval.formulate.self_ms_per_q": stage_self["retrieval.formulate"] * 1e3 / n_q,
        "retrieval.search.self_ms_per_q": stage_self["retrieval.search"] * 1e3 / n_q,
        "retrieval.search.scored_per_q": scored / n_q,
        "retrieval.search.returned_per_scored": ratio(obs["search.returned"], scored),
        "retrieval.search.relaxed_share": obs["search.relaxed"] / n_q,
        "retrieval.rerank.self_ms_per_q": stage_self["retrieval.rerank"] * 1e3 / n_q,
        "retrieval.rerank.titles_per_q": obs["rerank.titles"] / n_q,
        "retrieval.rerank.kept_per_scored": ratio(obs["rerank.kept"], obs["rerank.titles"]),
        "retrieval.split.self_ms_per_q": stage_self["retrieval.split"] * 1e3 / n_q,
        "retrieval.split.passages_per_q": obs["split.passages"] / n_q,
        "retrieval.passages.self_ms_per_q": stage_self["retrieval.passages"] * 1e3 / n_q,
        "retrieval.passages.kept_per_scored": ratio(obs["passages.kept"], obs["passages.scored"]),
        "retrieval.build_index.ms_per_doc": sum(durations[BUILD_SPAN]) * 1e3 / docs_built,
        "retrieval.build_index.terms_per_doc": sum(c["terms"] for c in cycles) / docs_built,
        "answer.ideal.self_ms_per_q": stage_self["answer.ideal"] * 1e3 / n_q,
        "answer.ideal.rerank_ms_per_q": stage_self["answer.ideal.rerank"] * 1e3 / n_q,
        "answer.exact.self_ms_per_q": stage_self["answer.exact"] * 1e3 / n_q,
        "answer.pipeline.unattributed_ms_per_q": stage_self[QUESTION_SPAN] * 1e3 / n_q,
        "answer.pipeline.traced_ms_per_q": traced_total * 1e3 / n_q,
        "textproc.tokenize.calls_per_q": calls(q, "textproc.tokenize") / n_q,
        "textproc.stem.calls_per_q": stem_q / n_q,
        "textproc.stem.distinct_share": ratio(len(tracer.distinct.get((q, "textproc.stem"), ())), stem_q),
        "textproc.split_sentences.calls_per_q": calls(q, "textproc.split_sentences") / n_q,
        "textproc.tokenize.calls_per_doc": calls(BUILD_SPAN, "textproc.tokenize") / docs_built,
        "textproc.stem.calls_per_doc": calls(BUILD_SPAN, "textproc.stem") / docs_built,
        "conceptlex.recognize.calls_per_q": calls(q, "conceptlex.recognize") / n_q,
        "conceptlex.recognize.chars_per_q": tracer.chars[q, "conceptlex.recognize"] / n_q,
        "conceptlex.recognize.calls_per_doc": calls(BUILD_SPAN, "conceptlex.recognize") / docs_built,
        "conceptlex.path_similarity.calls_per_q": sims / n_q,
        "conceptlex.path_similarity.distinct_pair_share": ratio(
            len(tracer.distinct.get((q, "conceptlex.path_similarity"), ())), sims
        ),
        "ingest.load_resources.ms": statistics.median(durations["ingest.load_resources"]) * 1e3,
        "ingest.load_corpus.ms": statistics.median(durations["ingest.load_corpus"]) * 1e3,
        "ingest.load_index.ms": statistics.median(durations["ingest.load_index"]) * 1e3,
        "ingest.save_index.ms_per_doc": sum(durations["ingest.save_index"]) * 1e3 / docs_built,
        "evalkit.evaluate_run.ms_per_q": eval_result[0] * 1e3 / max(eval_result[1], 1),
    }
    return metrics, set(stage_self)


def end_to_end(seconds, loop: QuestionLoop, setups: list, loads: list, cycles: list[dict],
               n_docs: int) -> dict:
    """The time metrics, with each (raw, midpoint) sample turned into
    seconds by `seconds`: calibrated, or raw wall time."""
    questions = [seconds(s) for s in loop.samples]
    return {
        "question_p50_ms": statistics.median(questions) * 1e3,
        "question_p95_ms": percentile(questions, 0.95) * 1e3,
        "questions_per_s": len(questions) / sum(questions),
        "setup_s": statistics.median(seconds(s) for s in setups),
        "index_build_docs_per_s": n_docs / statistics.median(seconds(c["build"]) for c in cycles),
        "index_load_ms": statistics.median(seconds(s) for s in loads) * 1e3,
    }


def prepare(workload_name: str, seed: int, workdir: Path) -> None:
    """Write the inputs, build and save the full index, check it loads
    back equal, and write prepared.json for the measuring process."""
    workload = WORKLOADS[workload_name]
    ops = Ops()
    sources = gen.Sources.load(Path(bioqa.__file__).parent / "resources")
    properties = write_inputs(workdir, workload, sources, seed)
    bundle = ingest.load_resources(workdir / "manifest.json")
    records = ingest.load_corpus(bundle.corpus_path)
    built = retrieval.build_index([(d.doc_id, f"{d.title} {d.abstract}") for d in records],
                                  "document", bundle.stopwords, bundle.concept_lexicon)
    index_path = workdir / "index.json"
    ingest.save_index(built, index_path)
    ops.check(ingest.load_index(index_path) == built,
              "load_index of the saved full index differs from the built index")
    # The generated questions are meant to relax as often as the bundled
    # questions do on the same corpus; both shares are recorded.
    properties["bundled_relaxed_share"] = statistics.mean(
        retrieval.search(
            built, retrieval.formulate_query(shape["body"], bundle.concept_lexicon, bundle.stopwords),
            retrieval.DEFAULT_RETRIEVE_DEPTH, bundle.stopwords, bundle.concept_lexicon,
        ).relaxed
        for shape in sources.question_shapes
    )
    (workdir / "prepared.json").write_text(json.dumps({
        "properties": properties,
        "pass_length": len(sources.question_shapes),
        "index_bytes": index_path.stat().st_size,
        "attempted": ops.attempted,
        "failures": ops.failures,
    }), encoding="utf-8")


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    prepared = json.loads((workdir / "prepared.json").read_text(encoding="utf-8"))
    ops = Ops()
    ops.attempted, ops.failures = prepared["attempted"], prepared["failures"]
    properties = prepared["properties"]
    clock = Clock()
    untraced = Program(workdir, clock)
    bundle = ingest.load_resources(untraced.manifest)
    records = ingest.load_corpus(bundle.corpus_path)
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in records]
    del records
    cycle_units = units[: workload.cycle_docs or len(units)]
    questions = ingest.load_questions(workdir / "questions.json").questions

    tracer = Tracer() if trace else None
    program = Program(workdir, clock, tracer)
    answers = Answers()
    budget = seconds
    if trace:
        # The overhead baseline: the first questions, untraced. The traced
        # blocks start the same stream again, so both time the same work.
        baseline = QuestionLoop(untraced, question_order(questions, workload, seed), ops, answers)
        baseline.run(untraced.set_up(), time.perf_counter() + seconds * UNTRACED_SHARE, 1)
        budget = seconds * (1.0 - UNTRACED_SHARE)
        tracer.install()

    loop = QuestionLoop(program, question_order(questions, workload, seed), ops, answers)
    setups, loads, cycles = [], [], []
    state = None
    started = time.perf_counter()
    for block in range(workload.blocks):
        # The index load and cycle run with no set-up state alive, so the
        # benchmark never holds two full indexes at once.
        state = None
        gc.collect()
        loads.append(program.load_time())
        cycles.append(program.index_cycle(bundle, cycle_units, ops))
        for _ in range(SETUPS_PER_BLOCK):
            state = None  # the previous index is freed before the next loads
            gc.collect()
            state, sample = program.timed(program.set_up)
            setups.append(sample)
        loop.run(state, started + budget * (block + 1) / workload.blocks)
    # Enough samples for p95 untraced; traced, at least the baseline's
    # questions. The loop ends on a whole pass over the question shapes, so
    # every run asks each shape equally often: the mix of cheap conjunctive
    # and costly relaxed questions, on which the median sits, is then the
    # same in every run.
    wanted = max(len(loop.samples), len(baseline.samples) if trace else MIN_QUESTIONS)
    loop.run(state, 0.0, math.ceil(wanted / prepared["pass_length"]) * prepared["pass_length"])
    clock.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sizes = {c["bytes"] for c in cycles}
    ops.check(len(sizes) == 1, f"index_bytes differ between identical builds: {sorted(sizes)}")
    eval_result = evaluate(program, workdir, workload, answers, ops)
    if tracer is not None:
        tracer.uninstall()

    # Checks: oracles, and each of the first questions answered once more.
    check_oracles(state, questions, units, workload.oracle_sample, random.Random(seed), ops)
    by_id = {q.id: q for q in questions}
    distinct_asked = [by_id[qid] for qid in answers.digests]
    for question in distinct_asked[:10]:
        ops.check(answer_digest(untraced.ask(state, question)) == answers.digests[question.id],
                  f"question {question.id} changed on re-asking")
    candidates = conjunctive_candidates(state, distinct_asked)

    asked = loop.asked
    properties.update({
        "question_repeat_share": 1.0 - len(set(asked)) / len(asked),
        "relaxed_share": sum(answers.relaxed[qid] for qid in asked) / len(asked),
        "conjunctive_candidates_mean": statistics.mean(candidates),
    })
    result = {
        "workload": workload_name,
        "seed": seed,
        "properties": properties,
        "questions": len(asked),
        "index_cycles": len(cycles),
        "answers_digest": answers_digest(answers),
        "reference_ms_median": statistics.median(clock.references) * 1e3,
        "reference_fingerprint": FINGERPRINT,
    }
    if trace:
        metrics, seen = per_layer(tracer, len(asked), cycles, len(cycle_units), eval_result)
        # Every stage the tracer wraps must show up inside the questions; a
        # stage the pipeline no longer calls through its binding would not.
        expected = {QUESTION_SPAN, *(name for _, _, name in STAGES), *NESTED_NAMES.values()}
        ops.check(seen == expected, f"question spans differ from the traced stages: {sorted(seen ^ expected)}")
        k = min(len(baseline.samples), len(loop.samples))
        untraced_qps = k / sum(clock.calibrated(*s) for s in baseline.samples[:k])
        traced_qps = k / sum(clock.calibrated(*s) for s in loop.samples[:k])
        metrics.update({
            "trace.untraced_questions_per_s": untraced_qps,
            "trace.traced_questions_per_s": traced_qps,
            "trace.overhead_share": untraced_qps / traced_qps - 1.0,
        })
        metrics.update({f"workload.{k}": properties[k] for k in (
            "distinct_sentence_share", "question_repeat_share", "relaxed_share",
            "conjunctive_candidates_mean")})
        result["spans"] = tracer.to_json()
    else:
        metrics = {
            **end_to_end(lambda s: clock.calibrated(*s), loop, setups, loads, cycles, len(cycle_units)),
            "peak_rss_mb": peak_rss_mb,
            "index_bytes": float(prepared["index_bytes"]),
        }
        result["raw"] = end_to_end(lambda s: s[0], loop, setups, loads, cycles, len(cycle_units))
    result.update({
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "failures": ops.failures[:20],
        "metrics": metrics,
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--prepare", action="store_true", help="only write the inputs and the index")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.prepare:
        prepare(args.workload, args.seed, args.workdir)
        return 0
    if args.seconds is None or args.trace is None or args.out is None:
        parser.error("--seconds, --trace and --out are needed unless --prepare is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
