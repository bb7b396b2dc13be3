"""Command-line surface for the pipeline.

Subcommands: validate, index, train-type, train-topics, classify,
retrieve-docs, retrieve-passages, answer, eval, repl. Every randomized
step takes --seed and defaults to 42.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

from . import answer as answer_mod
from . import evalkit, ingest, qclass, retrieval
from .answer import PipelineConfig, answer_pipeline, answer_to_json
from .qclass import FeatureExtractor

USAGE_ERROR = 2


class CliError(Exception):
    pass


# The flags several subcommands share. Each subcommand declares, after its
# name, only the ones it reads.
_SHARED_FLAGS = {
    "manifest": {"default": str(ingest.default_manifest_path()),
                 "help": "resource manifest (default: bundled mini resources)"},
    "index": {"help": "path to an existing saved index (built from the corpus when omitted)"},
    "model": {"help": "path to a saved model"},
    "seed": {"type": int, "default": 42},
    "format": {"choices": ("json", "text"), "default": "json"},
}


def _add_stage_flags(parser: argparse.ArgumentParser, *fields: str) -> None:
    """One flag per named PipelineConfig field (top_docs -> --top-docs), with its default."""
    defaults = PipelineConfig()
    for name in fields:
        default = getattr(defaults, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag is refused, not read as the flag.
    parser = argparse.ArgumentParser(prog="bioqa", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, shared, handler, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.set_defaults(handler=handler)
        for flag in shared.split():
            p.add_argument("--" + flag, **_SHARED_FLAGS[flag])
        return p

    add_parser("validate", "manifest format", cmd_validate, help="load and check every resource in the manifest")

    p = add_parser("index", "manifest", cmd_index, help="build the document index and save it")
    p.add_argument("--out", required=True)

    p = add_parser("train-type", "manifest seed", cmd_train_type, help="train the question type model")
    p.add_argument("--questions", help="typed question dataset (default: bundled)")
    p.add_argument("--space", choices=qclass.FEATURE_SPACES, default="patterns")
    p.add_argument("--C", type=float, default=1.01)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)

    p = add_parser("train-topics", "manifest seed", cmd_train_topics, help="train the per-topic binary models")
    p.add_argument("--questions", help="topic-labeled question dataset (default: bundled)")
    p.add_argument("--deps", help="dependency sidecar TSV for BOSDR features")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)

    p = add_parser("classify", "manifest model format", cmd_classify, help="classify questions with a saved model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--question")
    group.add_argument("--dataset")

    p = add_parser("retrieve-docs", "manifest index format", cmd_retrieve_docs, help="concept query + search + rerank")
    p.add_argument("--question", required=True)
    _add_stage_flags(p, "retrieve_depth", "top_docs", "k1", "b")

    p = add_parser("retrieve-passages", "manifest index format", cmd_retrieve_passages,
                   help="sentence passages ranked for a question")
    p.add_argument("--question", required=True)
    _add_stage_flags(p, "retrieve_depth", "top_docs", "top_passages", "k1", "b")

    p = add_parser("answer", "manifest index model format", cmd_answer, help="full pipeline for one question or a dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--question")
    group.add_argument("--dataset")
    p.add_argument("--out", help="write a run file accepted by eval")
    _add_stage_flags(p, "retrieve_depth", "top_docs", "top_passages", "k1", "b", "list_cap")

    p = add_parser("eval", "format", cmd_eval, help="score a run file against gold data")
    p.add_argument("--gold", required=True)
    p.add_argument("--run", required=True)
    p.add_argument("--metrics", help="comma-separated metric name prefixes to report")
    p.add_argument("--rouge-beta", type=float, default=None)
    p.add_argument("--rouge-stem", action="store_true")
    p.add_argument("--out")

    add_parser("repl", "manifest index model", cmd_repl, help="interactive loop: one question per line")
    return parser


def _check_args(args) -> None:
    question = getattr(args, "question", None)
    if question is not None and not question.strip():
        raise CliError("empty question")
    for name in ("k1", "C", "rouge_beta"):
        value = getattr(args, name, None)
        flag = "--" + name.replace("_", "-")
        if value is not None and not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
        if value is not None and value <= 0 and name != "rouge_beta":  # beta 0 weighs precision alone
            raise CliError(f"{flag} must be positive, got {value}")
        if value is not None and value < 0:
            raise CliError(f"{flag} must not be negative, got {value}")
    b = getattr(args, "b", None)
    if b is not None and not 0 <= b <= 1:
        raise CliError(f"--b must lie in [0, 1], got {b}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise CliError(f"--seed must not be negative, got {seed}")
    for name in ("retrieve_depth", "top_docs", "top_passages", "list_cap", "epochs"):
        count = getattr(args, name, None)
        if count is not None and count < 1:
            raise CliError(f"--{name.replace('_', '-')} must be at least 1, got {count}")


def _build_document_index(bundle, documents):
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in documents]
    return retrieval.build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)


def _load_retrieval_state(args):
    """Resources, documents by id, and the --index file or an index built from the corpus."""
    bundle = ingest.load_resources(args.manifest)
    documents = {d.doc_id: d for d in ingest.load_corpus(bundle.corpus_path)}
    if not args.index:
        return bundle, documents, _build_document_index(bundle, documents.values())
    # A named index that does not exist is an error, never a silent rebuild.
    index = ingest.load_index(args.index)
    units = set(index.unit_order)
    if units != documents.keys():
        raise ingest.DatasetFormatError(
            f"{args.index}: index units differ from the corpus documents (documents not indexed: "
            f"{len(documents.keys() - units)}, units not in the corpus: {len(units - documents.keys())}); "
            "rebuild it with bioqa index"
        )
    return bundle, documents, index


def _pipeline_config(args) -> PipelineConfig:
    """PipelineConfig from the command's stage flags; defaults for the flags it lacks."""
    return PipelineConfig(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig) if hasattr(args, f.name)
    })


def _question_rows(args) -> list[tuple[str, str]]:
    if args.question is not None:
        return [("question-1", args.question)]
    return [(q.id, q.body) for q in ingest.load_questions(args.dataset).questions]


def _print_json(payload) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _emit(args, payload, text_renderer) -> None:
    """payload as JSON, or rendered by text_renderer under --format text."""
    if args.format == "text":
        print(text_renderer(payload))
    else:
        _print_json(payload)


def cmd_validate(args) -> int:
    bundle = ingest.load_resources(args.manifest)
    documents = ingest.load_corpus(bundle.corpus_path)
    report = {
        "manifest": str(args.manifest),
        "resources": {k: hashlib.sha256(bundle.paths[k].read_bytes()).hexdigest() for k in sorted(bundle.paths)},
        "documents": len(documents),
        "concepts": len(bundle.concept_lexicon),
        "patterns": len(bundle.patterns),
        "status": "ok",
    }
    _emit(args, report, lambda r: "\n".join(f"{k}: {v}" for k, v in r.items()))
    return 0


def cmd_index(args) -> int:
    bundle = ingest.load_resources(args.manifest)
    index = _build_document_index(bundle, ingest.load_corpus(bundle.corpus_path))
    ingest.save_index(index, args.out)
    _print_json({"indexed_units": index.n_units, "out": args.out})
    return 0


def _typed_examples(bundle, dataset, space):
    extractor = FeatureExtractor(bundle.tag_lexicon, bundle.patterns)
    return [(extractor.extract(q.body, space), q.type) for q in dataset.questions]


def cmd_train_type(args) -> int:
    bundle = ingest.load_resources(args.manifest)
    questions_path = args.questions or Path(__file__).parent / "resources" / "questions.json"
    dataset = ingest.load_questions(questions_path)
    examples = _typed_examples(bundle, dataset, args.space)
    model = qclass.train_type_classifier(examples, args.space, C=args.C, seed=args.seed, epochs=args.epochs)
    qclass.save_model(model, args.out)
    acc = qclass.training_accuracy(model, examples)
    _print_json({"out": args.out, "questions": len(dataset), "space": args.space,
                 "seed": args.seed, "training_accuracy": acc})
    return 0


def cmd_train_topics(args) -> int:
    bundle = ingest.load_resources(args.manifest)
    questions_path = args.questions or Path(__file__).parent / "resources" / "topic_questions.json"
    rows = ingest.load_topic_questions(questions_path)
    dep_pairs = ingest.load_dep_pairs(args.deps) if args.deps else {}
    examples = [
        (
            qclass.extract_topic_features(
                body, stopwords=bundle.stopwords, concept_lexicon=bundle.concept_lexicon,
                dep_pairs=dep_pairs.get(qid),
            ),
            topics,
        )
        for qid, body, topics in rows
    ]
    model = qclass.train_topic_models(examples, seed=args.seed, epochs=args.epochs)
    if args.deps:
        model.meta["dependency_features"] = True
    qclass.save_model(model, args.out)
    _print_json({"out": args.out, "questions": len(rows), "topics": len(model.labels), "seed": args.seed})
    return 0


def _require_model(args):
    if not args.model:
        raise CliError("this command needs --model (train one with train-type)")
    if not Path(args.model).exists():
        raise CliError(f"model file not found: {args.model}")
    return qclass.load_model(args.model)


def _require_type_model(args):
    model = _require_model(args)
    if model.meta["kind"] == "topics":
        raise CliError(f"{args.command} needs a question type model, not a topics model")
    return model


def cmd_classify(args) -> int:
    bundle = ingest.load_resources(args.manifest)
    model = _require_model(args)
    if model.meta.get("dependency_features"):
        raise CliError(f"{args.model}: topics model trained with --deps; classify cannot supply dependency features")
    extractor = FeatureExtractor(bundle.tag_lexicon, bundle.patterns)
    for qid, body in _question_rows(args):
        if model.meta["kind"] == "topics":
            features = qclass.extract_topic_features(
                body, stopwords=bundle.stopwords, concept_lexicon=bundle.concept_lexicon,
            )
            topics = sorted(qclass.classify_topics(model, features))
            _emit(args, {"id": qid, "topics": topics}, lambda r: f"{r['id']}\t{','.join(r['topics'])}")
        else:
            qtype = qclass.classify_type(model, body, extractor)
            _emit(args, {"id": qid, "type": qtype.value}, lambda r: f"{r['id']}\t{r['type']}")
    return 0


def _retrieve(args) -> answer_mod.Retrieved:
    bundle, documents, index = _load_retrieval_state(args)
    return answer_mod.retrieve(args.question, documents, index, bundle, _pipeline_config(args))


def cmd_retrieve_docs(args) -> int:
    got = _retrieve(args)
    payload = {
        "question": args.question,
        "query": {"concept_terms": list(got.query.concept_terms), "raw_terms": list(got.query.raw_terms)},
        "relaxed": got.relaxed,
        "documents": [{"document": sd.doc_id, "score": sd.score, "rank": sd.rank} for sd in got.documents],
    }
    _emit(args, payload, lambda r: "\n".join(f"{d['rank']:>3}  {d['document']}  {d['score']:.4f}" for d in r["documents"]))
    return 0


def cmd_retrieve_passages(args) -> int:
    got = _retrieve(args)
    payload = {
        "question": args.question,
        "passages": [
            {"document": sp.passage.doc_id, "text": sp.passage.text, "rank": sp.rank, "score": sp.score}
            for sp in got.passages
        ],
    }
    _emit(args, payload, lambda r: "\n".join(f"{p['rank']:>3}  ({p['document']})  {p['text']}" for p in r["passages"]))
    return 0


def _render_answer(obj: dict) -> str:
    lines = [f"question {obj['id']}: type {obj['type']}"]
    if obj["exact_answer"] is not None:
        lines.append(f"exact: {json.dumps(obj['exact_answer'], ensure_ascii=False)}")
    lines.append(f"ideal: {obj['ideal_answer']}")
    for s in obj["snippets"][:3]:
        lines.append(f"  [{s['rank']}] ({s['document']}) {s['text']}")
    return "\n".join(lines)


def cmd_answer(args) -> int:
    model = _require_type_model(args)
    bundle, documents, index = _load_retrieval_state(args)
    config = _pipeline_config(args)
    outputs = []
    for qid, body in _question_rows(args):
        full = answer_pipeline(body, documents, index, model, bundle, config)
        obj = answer_to_json(full, qid)
        outputs.append(obj)
        _emit(args, obj, _render_answer)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"questions": outputs}, ensure_ascii=False, indent=1) + "\n",
            encoding="utf-8",
        )
    return 0


def cmd_eval(args) -> int:
    gold = ingest.load_questions(args.gold)
    run = ingest.load_run(args.run)
    report = evalkit.evaluate_run(gold, run, rouge_beta=args.rouge_beta, rouge_stem=args.rouge_stem)
    if args.metrics is not None:
        wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
        if not wanted:
            raise CliError("--metrics names no metric prefix")
        for prefix in wanted:
            if not any(k.startswith(prefix) for k in report.metrics):
                raise CliError(f"--metrics prefix {prefix!r} selects no metric; the report has: "
                               f"{', '.join(sorted(report.metrics))}")
        report.metrics = {k: v for k, v in report.metrics.items() if any(k.startswith(w) for w in wanted)}
    payload = {"metrics": report.metrics, "config": report.config, "per_question": report.per_question}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _emit(args, payload, lambda r: report.render_text())
    return 0


def cmd_repl(args) -> int:
    model = _require_type_model(args)
    bundle, documents, index = _load_retrieval_state(args)
    config = _pipeline_config(args)
    print("bioqa repl; one question per line, empty line or EOF quits", file=sys.stderr)
    for line in sys.stdin:
        question = line.strip()
        if not question:
            break
        full = answer_pipeline(question, documents, index, model, bundle, config)
        print(_render_answer(answer_to_json(full, "repl")))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
