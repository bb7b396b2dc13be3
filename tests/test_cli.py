import json
import re
from pathlib import Path

import pytest

from bioqa.cli import main
from bioqa.ingest import DatasetFormatError, load_questions, load_run

from conftest import RESOURCE_DIR, VERSION_TWO_MODELS

QUESTIONS = str(RESOURCE_DIR / "questions.json")
DEMO_GOLD = str(RESOURCE_DIR / "demo_gold.json")
# The run file answer --out writes for demo_gold, pinned by test_golden.py.
GOLDEN_RUN = str(Path(__file__).resolve().parent / "data" / "golden" / "answer_demo_gold.run.json")


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "type.json"
    assert main(["train-type", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "index.json"
    assert main(["index", "--out", str(path)]) == 0
    return str(path)


class TestValidate:
    def test_bundled_manifest_is_valid(self, capsys):
        assert main(["validate"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"
        assert out["documents"] == 12

    def test_broken_lexicon_line_cited(self, tmp_path, capsys):
        import shutil

        for name in ("corpus.jsonl", "hierarchy.tsv", "sentiment.tsv", "stopwords.txt",
                     "tags.tsv", "abbreviations.txt", "patterns.txt", "manifest.json"):
            shutil.copy(RESOURCE_DIR / name, tmp_path / name)
        (tmp_path / "concepts.tsv").write_text("brokenline\n")
        assert main(["validate", "--manifest", str(tmp_path / "manifest.json")]) != 0
        assert ":1" in capsys.readouterr().err

    def test_repeated_cui_names_the_file_and_both_lines(self, tmp_path, capsys):
        import shutil

        for name in ("corpus.jsonl", "hierarchy.tsv", "sentiment.tsv", "stopwords.txt",
                     "tags.tsv", "abbreviations.txt", "patterns.txt", "manifest.json", "concepts.tsv"):
            shutil.copy(RESOURCE_DIR / name, tmp_path / name)
        lexicon = tmp_path / "concepts.tsv"
        lines = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines, 1) if line.strip() and not line.lstrip().startswith("#"))
        lexicon.write_text("".join(lines) + lines[first - 1], encoding="utf-8")
        cui = lines[first - 1].split("\t")[0]
        assert main(["validate", "--manifest", str(tmp_path / "manifest.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {lexicon}:{len(lines) + 1}: duplicate concept identifier {cui} (first listed on line {first})\n"
        )

    def test_missing_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({
            k: "missing.dat" for k in
            ("corpus", "lexicon", "graph", "sentiment", "stopwords", "tags", "abbreviations", "patterns")
        }))
        assert main(["validate", "--manifest", str(tmp_path / "manifest.json")]) != 0


class TestAnswer:
    def test_single_question_yesno_json(self, model_path, capsys):
        assert main(["answer", "--model", model_path,
                     "--question", "Is imatinib an antidepressant drug?"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["type"] == "yesno"
        assert obj["exact_answer"] in ("yes", "no")

    def test_dataset_mode_emits_thirty_objects(self, model_path, index_path, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["answer", "--model", model_path, "--index", index_path,
                     "--dataset", QUESTIONS, "--out", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 30
        payload = json.loads(out.read_text())
        assert len(payload["questions"]) == 30

    def test_empty_question_is_usage_error(self, model_path):
        assert main(["answer", "--model", model_path, "--question", "   "]) == 2

    @pytest.mark.parametrize("command", ["classify", "retrieve-docs", "retrieve-passages"])
    @pytest.mark.parametrize("question", ["", " \t\n"])
    def test_every_command_refuses_an_empty_question(self, command, question, model_path, index_path, capsys):
        args = {
            "classify": ["--model", model_path],
            "retrieve-docs": ["--index", index_path],
            "retrieve-passages": ["--index", index_path],
        }[command]
        assert main([command, *args, "--question", question]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty question\n"

    def test_missing_index_file_is_an_error(self, model_path, tmp_path, capsys):
        missing = tmp_path / "no-such-index.json"
        assert main(["answer", "--model", model_path, "--index", str(missing),
                     "--question", "Is imatinib an antidepressant drug?"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no-such-index.json" in captured.err

    def test_missing_model_is_usage_error(self):
        assert main(["answer", "--question", "Is this ok?"]) == 2


class TestMalformedInputs:
    @pytest.mark.parametrize("argv, text", [
        (["retrieve-docs", "--question", "Is it?", "--index", "{bad}"], "[]"),
        (["retrieve-docs", "--question", "Is it?", "--index", "{bad}"], '{"version": 2, "unit_order": []}'),
        (["retrieve-docs", "--question", "Is it?", "--index", "{bad}"], '{"version": 3, "units": []}'),
        (["classify", "--question", "Is it?", "--model", "{bad}"], "{nope"),
        (["classify", "--question", "Is it?", "--model", "{bad}"], "[]"),
        (["classify", "--question", "Is it?", "--model", "{bad}"],
         '{"version": 3, "labels": ["yesno", "factoid"], "weights": {"yesno": {}},'
         ' "meta": {"kind": "type", "space": "patterns"}}'),
        (["eval", "--gold", DEMO_GOLD, "--run", "{bad}"], '["answer"]'),
        (["eval", "--gold", DEMO_GOLD, "--run", "{bad}"], '{"questions": [{"id": ["x"]}]}'),
        (["eval", "--gold", DEMO_GOLD, "--run", "{bad}"],
         '[{"id": "demo-imatinib-002", "exact_answer": "no"}, {"id": "demo-imatinib-002", "exact_answer": "yes"}]'),
        (["eval", "--gold", DEMO_GOLD, "--run", "{bad}"], '[{"id": "demo-pp-001", "snippets": ["abc"]}]'),
        (["eval", "--gold", DEMO_GOLD, "--run", "{bad}"], '[{"id": "demo-pp-001", "ideal_answer": 5}]'),
        (["eval", "--gold", "{bad}", "--run", GOLDEN_RUN],
         '{"questions": [{"id": "q", "body": "Is it?", "type": "yesno", "snippets": [{"document": "1", "text": 5}]}]}'),
        (["eval", "--gold", "{bad}", "--run", GOLDEN_RUN],
         '{"questions": [{"id": "q", "body": "Is it?", "type": "yesno", "snippets": [{"document": 1, "text": "x"}]}]}'),
        (["train-topics", "--out", "{tmp}/t.json", "--questions", "{bad}"], "[]"),
        (["validate", "--manifest", "{bad}"], '"corpus lexicon graph sentiment stopwords tags abbreviations patterns"'),
    ], ids=["index list", "index format 2", "index missing key", "model not JSON", "model list", "model label without weights",
            "run string entry",
            "run list id", "run repeated id", "run string snippet", "run ideal number",
            "gold snippet text number", "gold snippet document number",
            "topic questions list", "manifest string"])
    def test_malformed_input_file_exits_one_naming_it(self, argv, text, tmp_path, capsys):
        bad = tmp_path / "bad-input.json"
        bad.write_text(text)
        assert main([a.format(bad=bad, tmp=tmp_path) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad-input.json" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["answer", "classify"])
    @pytest.mark.parametrize("kind", sorted(VERSION_TWO_MODELS))
    def test_version_two_model_exits_one_naming_it(self, command, kind, tmp_path, capsys):
        old = tmp_path / f"old-{kind}.json"
        old.write_text(json.dumps(VERSION_TWO_MODELS[kind]))
        assert main([command, "--model", str(old), "--question", "Is imatinib an antidepressant drug?"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"old-{kind}.json: model format version 2, expected 3" in captured.err

    @pytest.mark.parametrize("documents", ['["1", ["19240421"]]', '[{"a": 1}]', "[7]"],
                             ids=["list", "object", "number"])
    def test_gold_document_not_a_string_exits_one_naming_the_entry(self, documents, tmp_path, capsys):
        # No run names such an entry, so read through str() it would count as a missed document.
        bad = tmp_path / "bad-input.json"
        bad.write_text('{"questions": [{"id": "q0", "body": "Is it?", "type": "yesno", "documents": ["1"]},'
                       f' {{"id": "q1", "body": "Is it?", "type": "yesno", "documents": {documents}}}]}}')
        assert main(["eval", "--gold", str(bad), "--run", GOLDEN_RUN]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad-input.json: questions[1]: field 'documents'" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name", ["questions.json", "demo_gold.json"])
    def test_bundled_gold_files_load(self, name):
        assert load_questions(RESOURCE_DIR / name).questions


    @pytest.mark.parametrize("argv, text", [
        (["train-type", "--out", "{tmp}/m.json", "--questions", "{bad}"],
         '{"questions": [{"id": "1", "body": 5, "type": "yesno"}]}'),
        (["train-topics", "--out", "{tmp}/t.json", "--questions", "{bad}"],
         '{"questions": [{"id": "1", "body": "Which device?", "topics": [5]}]}'),
        (["index", "--out", "{tmp}/i.json", "--manifest", "{manifest}"],
         '{"doc_id": "1", "title": "t", "abstract": 5}'),
        (["retrieve-passages", "--question", "Which enzyme?", "--manifest", "{manifest}"],
         '{"doc_id": "1", "title": "t", "abstract": 5}'),
    ], ids=["question body", "topic", "corpus abstract for index", "corpus abstract for passages"])
    def test_wrong_field_type_exits_one_naming_the_file(self, argv, text, tmp_path, capsys):
        bad = tmp_path / "bad-input.json"
        bad.write_text(text)
        # A manifest naming the bundled resources, with the bad file as its corpus.
        manifest = json.loads((RESOURCE_DIR / "manifest.json").read_text())
        manifest = {k: str(RESOURCE_DIR / v) for k, v in manifest.items()} | {"corpus": str(bad)}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = [a.format(bad=bad, tmp=tmp_path, manifest=tmp_path / "manifest.json") for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad-input.json" in captured.err
        assert "Traceback" not in captured.err


class TestEval:
    def test_answer_then_eval_composes(self, model_path, index_path, tmp_path, capsys):
        run = tmp_path / "run.json"
        assert main(["answer", "--model", model_path, "--index", index_path,
                     "--dataset", DEMO_GOLD, "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["eval", "--gold", DEMO_GOLD, "--run", str(run)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["factoid_mrr"] == 1.0

    def test_malformed_run_file(self, tmp_path):
        bad = tmp_path / "run.json"
        bad.write_text("{nope")
        assert main(["eval", "--gold", DEMO_GOLD, "--run", str(bad)]) == 1

    @pytest.mark.parametrize("entries, named", [
        ([{"id": ["x"]}], "['x']"),
        ([{"exact_answer": "yes"}], "None"),
        ([{"id": "demo-imatinib-002", "exact_answer": "no"}, {"id": "demo-imatinib-002", "exact_answer": "yes"}],
         "demo-imatinib-002"),
    ], ids=["list id", "no id", "repeated id"])
    def test_run_entry_ids_are_distinct_strings(self, entries, named, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"questions": entries}))
        with pytest.raises(DatasetFormatError, match="run.json") as err:
            load_run(path)
        assert named in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("exact_answer", 5),
        ("exact_answer", {"name": "imatinib"}),
        ("exact_answer", ["imatinib", 5]),
        ("exact_answer", [[]]),
        ("exact_answer", [["imatinib", 5]]),
        ("ideal_answer", 5),
        ("ideal_answer", None),
        ("ideal_answer", ["An answer.", 5]),
        ("documents", "18580948"),
        ("documents", [18580948]),
        ("snippets", ["abc"]),
        ("snippets", "abc"),
        ("snippets", [{"document": "18580948"}]),
        ("snippets", [{"document": "18580948", "text": 5}]),
        ("snippets", [{"document": 18580948, "text": "A sentence."}]),
    ])
    def test_run_answer_fields_are_checked_at_load(self, field, value, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps([{"id": "demo-pp-001", field: value}]))
        with pytest.raises(DatasetFormatError, match="run.json") as err:
            load_run(path)
        assert "demo-pp-001" in str(err.value) and field in str(err.value)

    def test_run_answer_fields_of_every_accepted_shape_load(self, tmp_path):
        entries = [
            {"id": "a", "exact_answer": None, "ideal_answer": ["One.", "Two."], "documents": [], "snippets": []},
            {"id": "b", "exact_answer": "yes", "ideal_answer": "One."},
            {"id": "c", "exact_answer": ["imatinib", ["Gleevec", "imatinib mesylate"]],
             "snippets": [{"document": "1", "text": "One.", "rank": 1}]},
        ]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"questions": entries}))
        assert load_run(path) == entries

    def test_metrics_keeps_the_named_prefixes(self, capsys):
        assert main(["eval", "--gold", DEMO_GOLD, "--run", GOLDEN_RUN, "--metrics", "list_, rouge,"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert set(metrics) == {"list_precision", "list_recall", "list_f1", "rouge_2", "rouge_su4"}

    def test_metrics_prefix_that_selects_nothing_is_refused(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["eval", "--gold", DEMO_GOLD, "--run", GOLDEN_RUN, "--out", str(out), "--metrics", "list_, documnets"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'documnets' selects no metric" in captured.err
        assert "documents_f1" in captured.err and "rouge_2" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("metrics", ["", ",", " , "])
    def test_metrics_without_a_prefix_is_refused(self, metrics, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["eval", "--gold", DEMO_GOLD, "--run", GOLDEN_RUN, "--out", str(out), "--metrics", metrics]) == 2
        assert "--metrics names no metric prefix" in capsys.readouterr().err
        assert not out.exists()

    def test_rouge_flags_are_reported_and_move_the_score(self, tmp_path, capsys):
        gold = tmp_path / "gold.json"
        gold.write_text(json.dumps({"questions": [
            {"id": "q", "body": "What do mutations cause?", "type": "summary", "ideal_answer": "Mutations cause disease."},
        ]}))
        run = tmp_path / "run.json"
        run.write_text(json.dumps([{"id": "q", "ideal_answer": "The mutations causing the disease were studied."}]))

        def report(*flags):
            assert main(["eval", "--gold", str(gold), "--run", str(run), *flags]) == 0
            return json.loads(capsys.readouterr().out)

        plain, stemmed, weighted = report(), report("--rouge-stem"), report("--rouge-stem", "--rouge-beta", "1")
        assert plain["config"] == {"rouge_beta": None, "rouge_stem": False}
        assert stemmed["config"] == {"rouge_beta": None, "rouge_stem": True}
        assert weighted["config"] == {"rouge_beta": 1.0, "rouge_stem": True}
        # Only stems make "causing" meet "cause": one of the gold's two bigrams,
        # and one of the candidate's six.
        assert plain["metrics"]["rouge_2"] == 0.0
        assert stemmed["metrics"]["rouge_2"] == 0.5
        assert weighted["metrics"]["rouge_2"] == pytest.approx(2 * (1 / 6) * 0.5 / (1 / 6 + 0.5))

    def test_run_equal_to_gold_scores_one(self, tmp_path, capsys):
        gold = json.loads((RESOURCE_DIR / "demo_gold.json").read_text())
        run = []
        for q in gold["questions"]:
            run.append({
                "id": q["id"],
                "exact_answer": q.get("exact_answer"),
                "ideal_answer": q["ideal_answer"][0],
                "documents": q.get("documents", []),
                "snippets": q.get("snippets", []),
            })
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps(run))
        assert main(["eval", "--gold", DEMO_GOLD, "--run", str(run_path)]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        for key in ("yesno_accuracy", "factoid_mrr", "list_f1", "rouge_2", "rouge_su4",
                    "documents_map", "snippets_map"):
            assert metrics[key] == pytest.approx(1.0), key


class TestIndexCommand:
    def test_builds_and_is_loadable(self, index_path):
        from bioqa.ingest import load_index

        index = load_index(index_path)
        assert index.n_units == 12

    def test_reports_units_and_out(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        assert main(["index", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out) == {"indexed_units": 12, "out": str(out)}

    def test_byte_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["index", "--out", str(a)]) == 0
        assert main(["index", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["answer", "retrieve-docs", "retrieve-passages"])
    def test_index_of_another_corpus_exits_one_naming_it(self, command, model_path, tmp_path, capsys):
        # An index built from the bundled corpus less its last document.
        lines = (RESOURCE_DIR / "corpus.jsonl").read_text().splitlines(keepends=True)
        short = [line for line in lines if line.strip() and not line.lstrip().startswith("#")][:-1]
        (tmp_path / "corpus.jsonl").write_text("".join(short))
        manifest = json.loads((RESOURCE_DIR / "manifest.json").read_text())
        manifest = {k: str(RESOURCE_DIR / v) for k, v in manifest.items()} | {"corpus": str(tmp_path / "corpus.jsonl")}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        index = tmp_path / "short-index.json"
        assert main(["index", "--manifest", str(tmp_path / "manifest.json"), "--out", str(index)]) == 0
        assert json.loads(capsys.readouterr().out)["indexed_units"] == 11
        model = ["--model", model_path] if command == "answer" else []
        assert main([command, *model, "--index", str(index), "--question", "Is imatinib an antidepressant drug?"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "short-index.json" in captured.err and "documents not indexed: 1," in captured.err


class TestClassifyAndTrain:
    def test_train_reports_accuracy(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train-type", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["training_accuracy"] >= 0.9
        assert payload["seed"] == 42

    @pytest.mark.parametrize("command, epochs", [
        ("train-type", "0"), ("train-type", "-1"), ("train-topics", "0"), ("train-topics", "-5"),
    ])
    def test_epochs_below_one_is_usage_error(self, command, epochs, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([command, "--out", str(out), "--epochs", epochs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--epochs must be at least 1" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("C", ["1e307", "1e-320"])
    def test_C_outside_the_trainable_range_exits_one(self, C, tmp_path, capsys):
        # Finite and positive, but 1/(C * 30 questions) is 0 or overflows.
        out = tmp_path / "m.json"
        assert main(["train-type", "--out", str(out), "--C", C]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: C=\S+ is out of range for 30 examples: 1/\(C\*n\) = \S+\n", captured.err)
        assert not out.exists()

    @pytest.mark.parametrize("C", ["-1", "0"])
    def test_C_not_positive_is_usage_error(self, C, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train-type", "--out", str(out), "--C", C]) == 2
        assert f"--C must be positive, got {float(C)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-type", "train-topics"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([command, "--out", str(out), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must not be negative, got -1" in captured.err
        assert not out.exists()

    def test_classify_single_question(self, model_path, capsys):
        assert main(["classify", "--model", model_path,
                     "--question", "Is the gene MAOA epigenetically modified by methylation?"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["type"] == "yesno"

    def test_train_topics_deps_reach_the_saved_model(self, tmp_path, capsys):
        deps = tmp_path / "deps.tsv"
        deps.write_text("t01\tnsubj\tgives\tdevice\n")
        out = tmp_path / "topics.json"
        assert main(["train-topics", "--out", str(out), "--deps", str(deps)]) == 0
        capsys.readouterr()
        saved = json.loads(out.read_text())
        assert saved["weights"]["Device"]["nsubj(gives,device)"] > 0
        assert saved["meta"]["dependency_features"] is True

    def test_classify_refuses_topics_model_trained_with_deps(self, tmp_path, capsys):
        deps = tmp_path / "deps.tsv"
        deps.write_text("t01\tnsubj\tgives\tdevice\n")
        out = tmp_path / "deps-topics.json"
        assert main(["train-topics", "--out", str(out), "--deps", str(deps)]) == 0
        capsys.readouterr()
        assert main(["classify", "--model", str(out), "--question", "Can Lorabid cause headaches?"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "deps-topics.json" in captured.err
        assert "classify cannot supply dependency features" in captured.err

    def test_train_topics_and_classify(self, tmp_path, capsys):
        out = tmp_path / "topics.json"
        assert main(["train-topics", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "dependency_features" not in json.loads(out.read_text())["meta"]
        assert main(["classify", "--model", str(out),
                     "--question", "Can Lorabid cause headaches?"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "Pharmacological" in obj["topics"]


class TestRetrieveCommands:
    def test_retrieve_docs(self, capsys):
        assert main(["retrieve-docs", "--question", "What is the cause of Phthiriasis Palpebrarum?"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["documents"][0]["document"] in {"19240421", "18580948"}

    def test_retrieve_passages(self, capsys):
        assert main(["retrieve-passages", "--question", "Which enzyme is deficient in Krabbe disease?"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert any("galactocerebrosidase" in p["text"].lower() for p in obj["passages"])

    def test_bad_bm25_parameter_rejected(self):
        assert main(["retrieve-passages", "--question", "anything", "--b", "1.5"]) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("retrieve-docs", "--top-docs", "-1"),
        ("retrieve-docs", "--retrieve-depth", "0"),
        ("retrieve-passages", "--top-passages", "0"),
        ("retrieve-passages", "--top-docs", "0"),
        ("answer", "--list-cap", "0"),
        ("answer", "--retrieve-depth", "-3"),
    ])
    def test_count_below_one_is_usage_error(self, command, flag, value, model_path, capsys):
        argv = [command, "--question", "Which enzyme is deficient in Krabbe disease?", flag, value]
        if command == "answer":
            argv += ["--model", model_path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be at least 1" in captured.err

    def test_count_of_one_is_accepted(self, capsys):
        argv = ["retrieve-docs", "--question", "Which enzyme is deficient in Krabbe disease?", "--top-docs", "1"]
        assert main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["documents"]) == 1


class TestNumberFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["retrieve-passages", "--question", "Is it?"], "--k1"),
        (["train-type", "--out", "{tmp}/m.json"], "--C"),
        (["eval", "--gold", DEMO_GOLD, "--run", GOLDEN_RUN], "--rouge-beta"),
    ], ids=["k1", "C", "rouge-beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_number_is_usage_error(self, argv, flag, value, tmp_path, capsys):
        assert main([a.format(tmp=tmp_path) for a in argv] + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be finite, got {value}" in captured.err
        assert not (tmp_path / "m.json").exists()

    def test_negative_rouge_beta_is_usage_error(self, capsys):
        assert main(["eval", "--gold", DEMO_GOLD, "--run", GOLDEN_RUN, "--rouge-beta", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--rouge-beta must not be negative, got -1.0" in captured.err

    def test_rouge_beta_zero_is_accepted(self, capsys):
        # An F-measure with beta 0 is precision alone.
        assert main(["eval", "--gold", DEMO_GOLD, "--run", GOLDEN_RUN, "--rouge-beta", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["rouge_beta"] == 0.0


class TestRepl:
    def test_repl_round(self, model_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Which enzyme is deficient in Krabbe disease?\n\n"))
        assert main(["repl", "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("question repl: type factoid\n")
        assert "exact:" in out and "ideal:" in out
        assert "Galactocerebrosidase" in out

    def test_topics_model_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import io

        topics = tmp_path / "topics.json"
        assert main(["train-topics", "--out", str(topics)]) == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("Which enzyme is deficient in Krabbe disease?\n"))
        assert main(["repl", "--model", str(topics)]) == 2
        assert "question type model" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """main's return value, or the code argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SHARED_FLAGS = ("--manifest", "--index", "--model", "--seed", "--format")


class TestFlags:
    @pytest.mark.parametrize("command, flags", [
        ("validate", {"--manifest", "--format"}),
        ("index", {"--manifest"}),
        ("train-type", {"--manifest", "--seed"}),
        ("train-topics", {"--manifest", "--seed"}),
        ("classify", {"--manifest", "--model", "--format"}),
        ("retrieve-docs", {"--manifest", "--index", "--format"}),
        ("retrieve-passages", {"--manifest", "--index", "--format"}),
        ("answer", {"--manifest", "--index", "--model", "--format"}),
        ("eval", {"--format"}),
        ("repl", {"--manifest", "--index", "--model"}),
    ])
    def test_help_lists_only_the_shared_flags_read(self, command, flags, capsys):
        assert _exit_code([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        assert {f for f in SHARED_FLAGS if re.search(re.escape(f) + r"\b", help_text)} == flags

    @pytest.mark.parametrize("argv", [
        ["train-type", "--out", "{tmp}/m.json", "--model", "{model}"],
        ["eval", "--gold", DEMO_GOLD, "--run", "{run}", "--index", "{tmp}/none.json"],
        ["eval", "--gold", DEMO_GOLD, "--run", "{run}", "--max-skip", "2"],
        ["validate", "--seed", "7"],
        ["repl", "--model", "{model}", "--format", "text"],
        ["--format", "text", "validate"],
        ["index", "--out", "{tmp}/i.json", "--mode", "passage"],
        ["answer", "--mod", "{model}", "--question", "Is imatinib an antidepressant drug?"],
        ["index", "--out", "{tmp}/i.json", "--format", "text"],
        ["train-type", "--out", "{tmp}/m.json", "--format", "text"],
        ["train-topics", "--out", "{tmp}/t.json", "--format", "text"],
    ], ids=["train-type --model", "eval --index", "eval --max-skip", "validate --seed", "repl --format",
            "leading --format", "index --mode", "answer --mod", "index --format", "train-type --format",
            "train-topics --format"])
    def test_unread_leading_or_abbreviated_flag_is_usage_error(self, argv, model_path, tmp_path, monkeypatch):
        import io

        run = tmp_path / "run.json"
        run.write_text("[]")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        argv = [a.format(tmp=tmp_path, model=model_path, run=run) for a in argv]
        assert _exit_code(argv) == 2
