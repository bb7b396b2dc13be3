"""Byte-for-byte pin of what the CLI prints and writes for the bundled data.

The pinned files under tests/data/golden/ are the run files and stdout of
`answer --dataset` over questions.json and demo_gold.json (model from
`train-type --seed 42`), the `eval --out` metrics for demo_gold, and the
stdout of `retrieve-docs` and `retrieve-passages` for a few bundled
questions. Classification is pinned by the model files of
`train-type --seed 42 --space S` in every feature space and of
`train-topics --seed 42`, whose weights depend on every feature count, and
by the `classify --dataset` stdout of the patterns and topics models over
questions.json. They change only on purpose: regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why the output moved.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bioqa import ingest
from bioqa.cli import main
from bioqa.qclass import FEATURE_SPACES

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
RESOURCE_DIR = Path(__file__).resolve().parents[1] / "src" / "bioqa" / "resources"
DATASETS = ("questions", "demo_gold")
RETRIEVE_QUESTIONS = (0, 5, 12, 20)  # indices into questions.json


def _stdout_of(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"bioqa {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def generate(workdir: Path) -> dict[str, bytes]:
    """Every pinned output, by file name, produced through bioqa.cli.main."""
    model = str(workdir / "type.json")
    _stdout_of(["train-type", "--seed", "42", "--out", model])
    outputs = {}
    for name in DATASETS:
        dataset = str(RESOURCE_DIR / f"{name}.json")
        run = workdir / f"{name}.run.json"
        outputs[f"answer_{name}.stdout"] = _stdout_of(
            ["answer", "--model", model, "--dataset", dataset, "--out", str(run)]
        )
        outputs[f"answer_{name}.run.json"] = run.read_bytes()
    outputs["answer_questions.text.stdout"] = _stdout_of(
        ["answer", "--model", model, "--dataset", str(RESOURCE_DIR / "questions.json"), "--format", "text"]
    )
    metrics = workdir / "eval_demo_gold.json"
    _stdout_of(["eval", "--gold", str(RESOURCE_DIR / "demo_gold.json"),
                "--run", str(workdir / "demo_gold.run.json"), "--out", str(metrics)])
    outputs["eval_demo_gold.json"] = metrics.read_bytes()

    bodies = [q.body for q in ingest.load_questions(RESOURCE_DIR / "questions.json").questions]
    for command in ("retrieve-docs", "retrieve-passages"):
        for fmt in ("json", "text"):
            outputs[f"{command}.{fmt}.stdout"] = b"".join(
                _stdout_of([command, "--format", fmt, "--question", bodies[i]]) for i in RETRIEVE_QUESTIONS
            )

    for space in FEATURE_SPACES:
        space_model = workdir / f"type.{space}.json"
        _stdout_of(["train-type", "--seed", "42", "--space", space, "--out", str(space_model)])
        outputs[f"train-type.{space}.model.json"] = space_model.read_bytes()
    topics_model = workdir / "topics.json"
    _stdout_of(["train-topics", "--seed", "42", "--out", str(topics_model)])
    outputs["train-topics.model.json"] = topics_model.read_bytes()
    questions = str(RESOURCE_DIR / "questions.json")
    for kind, path in (("patterns", model), ("topics", str(topics_model))):
        outputs[f"classify_questions.{kind}.stdout"] = _stdout_of(
            ["classify", "--model", path, "--dataset", questions]
        )
    return outputs


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("golden"))


def test_pin_covers_every_output(regenerated):
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(regenerated)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*")))
def test_output_is_byte_identical(regenerated, name):
    assert regenerated[name] == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", DATASETS)
def test_answers_from_a_saved_index_are_the_pinned_run(name, tmp_path):
    # The pin is made from an index built in memory; a saved and reloaded
    # one must answer byte for byte the same.
    index, model, run = (str(tmp_path / f) for f in ("index.json", "type.json", "run.json"))
    _stdout_of(["index", "--out", index])
    _stdout_of(["train-type", "--seed", "42", "--out", model])
    dataset = str(RESOURCE_DIR / f"{name}.json")
    _stdout_of(["answer", "--model", model, "--index", index, "--dataset", dataset, "--out", run])
    assert Path(run).read_bytes() == (GOLDEN_DIR / f"answer_{name}.run.json").read_bytes()


def test_demo_metrics(regenerated):
    metrics = json.loads(regenerated["eval_demo_gold.json"])["metrics"]
    assert metrics["yesno_accuracy"] == 0.0  # the negation case the README keeps visible
    assert metrics["list_f1"] == pytest.approx(0.4)
    assert metrics["snippets_f1"] == pytest.approx(0.444, abs=5e-4)


if __name__ == "__main__":
    # Rewrites every pinned file and reports, for each, whether it moved.
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, data in sorted(generate(Path(tmp)).items()):
            path = GOLDEN_DIR / file_name
            old = path.read_bytes() if path.exists() else None
            status = "new" if old is None else "identical" if old == data else "changed"
            moved += status != "identical"
            path.write_bytes(data)
            print(f"{status:9}  {path} ({len(data)} bytes)", file=sys.stderr)
    print(f"{moved} of {len(list(GOLDEN_DIR.iterdir()))} pinned files changed or new", file=sys.stderr)
