"""Workloads and metric names of the benchmark, shared by run.py and
measure.py. Importing this module does not import bioqa."""

from __future__ import annotations

from dataclasses import dataclass

SYNTHETIC_DOCS = 3000
SYNTHETIC_QUESTIONS = 12000  # more than a run can ask, even with a pipeline several times faster
SETUPS_PER_BLOCK = 2


@dataclass(frozen=True)
class Workload:
    """A run is `blocks` equal blocks of --seconds. Each block sets up
    SETUPS_PER_BLOCK times, times load_index, runs one index cycle over the
    first `cycle_docs` documents (None: all) and asks questions for the rest
    of the block. Spreading every phase over the whole run keeps a short
    slow spell of a shared machine from landing on one metric. Why each
    workload exists is in BENCHMARK.json and README.md."""

    synthetic: bool
    blocks: int
    cycle_docs: int | None
    oracle_sample: int     # questions checked against the oracles (0: all)


WORKLOADS = {
    "bundled": Workload(synthetic=False, blocks=20, cycle_docs=None, oracle_sample=0),
    "synthetic-large": Workload(synthetic=True, blocks=10, cycle_docs=400, oracle_sample=8),
    "index-build": Workload(synthetic=True, blocks=10, cycle_docs=800, oracle_sample=4),
}

END_TO_END = {
    "question_p50_ms": ("ms", "lower"),
    "question_p95_ms": ("ms", "lower"),
    "questions_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "index_build_docs_per_s": ("docs/s", "higher"),
    "index_load_ms": ("ms", "lower"),
    "index_bytes": ("bytes", "lower"),
}

PER_LAYER = [
    "qclass.classify.self_ms_per_q",
    "qclass.train.ms",
    "retrieval.formulate.self_ms_per_q",
    "retrieval.search.self_ms_per_q",
    "retrieval.search.scored_per_q",
    "retrieval.search.returned_per_scored",
    "retrieval.search.relaxed_share",
    "retrieval.rerank.self_ms_per_q",
    "retrieval.rerank.titles_per_q",
    "retrieval.rerank.kept_per_scored",
    "retrieval.split.self_ms_per_q",
    "retrieval.split.passages_per_q",
    "retrieval.passages.self_ms_per_q",
    "retrieval.passages.kept_per_scored",
    "retrieval.build_index.ms_per_doc",
    "retrieval.build_index.terms_per_doc",
    "answer.ideal.self_ms_per_q",
    "answer.ideal.rerank_ms_per_q",
    "answer.exact.self_ms_per_q",
    "answer.pipeline.unattributed_ms_per_q",
    "answer.pipeline.traced_ms_per_q",
    "textproc.tokenize.calls_per_q",
    "textproc.stem.calls_per_q",
    "textproc.stem.distinct_share",
    "textproc.split_sentences.calls_per_q",
    "textproc.tokenize.calls_per_doc",
    "textproc.stem.calls_per_doc",
    "conceptlex.recognize.calls_per_q",
    "conceptlex.recognize.chars_per_q",
    "conceptlex.recognize.calls_per_doc",
    "conceptlex.path_similarity.calls_per_q",
    "conceptlex.path_similarity.distinct_pair_share",
    "ingest.load_resources.ms",
    "ingest.load_corpus.ms",
    "ingest.load_index.ms",
    "ingest.save_index.ms_per_doc",
    "evalkit.evaluate_run.ms_per_q",
    "trace.untraced_questions_per_s",
    "trace.traced_questions_per_s",
    "trace.overhead_share",
    "workload.distinct_sentence_share",
    "workload.question_repeat_share",
    "workload.relaxed_share",
    "workload.conjunctive_candidates_mean",
]


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, read from its name."""
    if name.endswith("questions_per_s"):
        return "1/s", "higher"
    if name.endswith(("_ms_per_q", ".ms_per_q", ".ms", ".ms_per_doc")):
        return "ms", "lower"
    if name.endswith("_per_scored"):  # useful outcomes per attempt
        return "ratio", "higher"
    if name.endswith("share"):
        return "ratio", "lower"
    return "count", "lower"
