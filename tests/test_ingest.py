import builtins
import hashlib
import io
import json
import os
import random
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bioqa import cli, ingest, qclass, retrieval
from bioqa.conceptlex import ConceptGraph, ConceptLexicon, SentimentEntry, SentimentLexicon
from bioqa.ingest import (
    INDEX_FORMAT_VERSION,
    DatasetFormatError,
    IndexVersionError,
    load_corpus,
    load_dep_pairs,
    load_index,
    load_questions,
    load_resources,
    load_topic_questions,
    save_index,
)
from bioqa.retrieval import DocumentRecord, DuplicateIdError
from bioqa.textproc import ResourceFormatError, TagLexicon, data_lines, load_abbreviations, load_stopwords, pos_tag

from conftest import RESOURCE_DIR


class TestLoadCorpus:
    def test_bundled_corpus_has_twelve_docs(self, bundle):
        assert len(load_corpus(bundle.corpus_path)) == 12

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_missing_title_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "1", "title": "t", "abstract": "a"}\n{"doc_id": "2", "abstract": "a"}\n')
        with pytest.raises(DatasetFormatError, match=":2"):
            load_corpus(path)

    def test_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        line = '{"doc_id": "1", "title": "t", "abstract": "a"}\n'
        path.write_text(line + line)
        with pytest.raises(DuplicateIdError):
            load_corpus(path)

    @pytest.mark.parametrize("ensure_ascii", [True, False])
    def test_line_breaking_characters_inside_strings_load(self, ensure_ascii, tmp_path):
        # json.dumps(..., ensure_ascii=False) writes U+0085, U+2028 and U+2029
        # raw; they are not line ends of a JSON Lines file.
        record = {"doc_id": "1", "title": "t\u2029", "abstract": "a\u2028b\x85c"}
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
        assert load_corpus(path) == [DocumentRecord("1", "t\u2029", "a\u2028b\x85c")]


def reference_load_corpus(path) -> list[DocumentRecord]:
    """load_corpus as first written, with one json.loads per line, kept
    verbatim as the oracle of its decoder."""
    records: list[DocumentRecord] = []
    seen: set[str] = set()
    for line_no, line in data_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"{path}:{line_no}: expected a JSON object")
        for name in ("doc_id", "title", "abstract"):
            if name not in obj:
                raise DatasetFormatError(f"{path}:{line_no}: missing field {name!r}")
            if not isinstance(obj[name], str):
                raise DatasetFormatError(f"{path}:{line_no}: field {name!r} must be a string")
        doc_id = obj["doc_id"]
        if not obj["title"]:
            raise DatasetFormatError(f"{path}:{line_no}: empty title")
        if doc_id in seen:
            raise DuplicateIdError(f"{path}:{line_no}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        records.append(DocumentRecord(doc_id, obj["title"], obj["abstract"]))
    return records


def _outcome(load, path):
    """What a loader gives for a file: its records, or its error's type and message."""
    try:
        return load(path)
    except ValueError as exc:
        return type(exc), str(exc)


# Text for corpus fields: any character but a lone surrogate, with the line
# breaks str.splitlines knows, quotes, backslashes and controls favoured.
_field_text = st.text(st.one_of(
    st.sampled_from("\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e\r\n\t\"\\\x00\x7f\ufeff \u00e9\U0001f600"),
    st.characters(exclude_categories=("Cs",)),
), max_size=12)

_records = st.lists(
    st.fixed_dictionaries({"doc_id": _field_text, "title": _field_text.filter(bool), "abstract": _field_text}),
    min_size=1, max_size=5, unique_by=lambda r: r["doc_id"],
)

_padding = st.text(" \t", max_size=2)

# A line load_corpus skips: blank, or a comment that may hold line breaks
# other than "\n".
_skipped_line = st.one_of(_padding, st.builds("{}# {}".format, _padding, _field_text.map(
    lambda text: text.replace("\n", " ").replace("\r", " "))))


def _malformed(draw, record) -> str:
    """A corpus line load_corpus refuses, made from a well-formed record."""
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    kind = draw(st.sampled_from(["truncated", "trailing", "two objects", "bom", "not an object",
                                 "missing field", "wrong field type", "empty title", "bad escape",
                                 "raw control", "other space"]))
    if kind == "truncated":
        return text[:draw(st.integers(1, len(text) - 1))]
    if kind == "trailing":
        return text + draw(_padding) + draw(st.sampled_from(["x", "]", "}", "1", ",", '"', "null"]))
    if kind == "two objects":
        return text + draw(_padding) + text
    if kind == "bom":
        return "\ufeff" + draw(_padding) + text
    if kind == "other space":
        # Whitespace to str.strip, but not to JSON.
        space = draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]))
        return space + text if draw(st.booleans()) else text + space
    if kind == "not an object":
        return json.dumps(draw(st.sampled_from([[record], list(record), record["title"], 3, None, True])))
    if kind == "missing field":
        name = draw(st.sampled_from(sorted(record)))
        return json.dumps({k: v for k, v in record.items() if k != name})
    if kind == "wrong field type":
        value = draw(st.sampled_from([None, 5, 1.5, True, [], ["t"], {}, {"t": "t"}]))
        return json.dumps({**record, draw(st.sampled_from(sorted(record))): value})
    if kind == "empty title":
        return json.dumps({**record, "title": ""})
    if kind == "bad escape":
        return text.replace('"title": "', '"title": "\\' + draw(st.sampled_from(["x", "u12", "uz", "'"])), 1)
    return text.replace('"title": "', '"title": "' + draw(st.sampled_from(["\t", "\x00", "\x1f"])), 1)


@st.composite
def _corpus_file(draw, malformed=False) -> str:
    """The text of a corpus file: the records' lines, each padded, ended
    by "\n" or "\r\n" and mixed with skipped lines; with malformed, one line
    is replaced by one load_corpus refuses."""
    records = draw(_records)
    lines = [draw(_padding) + json.dumps(r, ensure_ascii=draw(st.booleans())) + draw(_padding) for r in records]
    if malformed:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_padding) + _malformed(draw, draw(st.sampled_from(records)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_skipped_line))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


class TestCorpusDecoderOracle:
    """load_corpus gives what its verbatim json.loads reference gives: the
    same records, or the same error type and message."""

    @settings(max_examples=60)
    @given(text=_corpus_file())
    def test_well_formed_files_give_equal_records(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "oracle-corpus.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        got = _outcome(load_corpus, path)
        assert isinstance(got, list) and got == reference_load_corpus(path)

    @settings(max_examples=100)
    @given(text=_corpus_file(malformed=True))
    @example(text='{"doc_id": "1", "title": "t", "abstract": "a"}{"doc_id": "2", "title": "t", "abstract": "a"}\n')
    @example(text='\ufeff{"doc_id": "1", "title": "t", "abstract": "a"}\n')
    @example(text='{"doc_id": "1", "title": "t", "abstract": "a"} \t x\n')
    def test_malformed_files_give_equal_errors(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "oracle-corpus.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        got = _outcome(load_corpus, path)
        assert isinstance(got, tuple) and got == _outcome(reference_load_corpus, path)


class TestLoadQuestions:
    def test_bundled_appendix_counts(self, appendix_questions):
        assert len(appendix_questions) == 30
        by_type = {}
        for q in appendix_questions.questions:
            by_type[q.type.value] = by_type.get(q.type.value, 0) + 1
        assert by_type == {"factoid": 10, "list": 11, "yesno": 9}

    def test_summary_with_exact_answer_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"questions": [
            {"id": "1", "body": "b?", "type": "summary", "exact_answer": "yes"},
        ]}))
        with pytest.raises(DatasetFormatError, match="summary"):
            load_questions(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        q = {"id": "1", "body": "b?", "type": "yesno"}
        path.write_text(json.dumps({"questions": [q, q]}))
        with pytest.raises(DatasetFormatError, match="duplicate"):
            load_questions(path)

    def test_yesno_answer_normalized(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"questions": [
            {"id": "1", "body": "b?", "type": "yesno", "exact_answer": "Yes"},
        ]}))
        assert load_questions(path).questions[0].exact_answer == "yes"

    def test_empty_answer_fields_load_as_none(self, tmp_path):
        # A run's answers written back as gold: an empty ideal answer, no
        # documents, and snippets that keep their rank.
        snippet = {"document": "d1", "text": "One.", "rank": 1}
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"questions": [
            {"id": "1", "body": "b?", "type": "summary", "exact_answer": None, "ideal_answer": "",
             "documents": [], "snippets": [snippet]},
            {"id": "2", "body": "b?", "type": "list", "exact_answer": [], "ideal_answer": [], "snippets": []},
        ]}))
        first, second = load_questions(path).questions
        assert (first.exact_answer, first.ideal_answer, first.documents, first.snippets) == (None, (), (), (snippet,))
        assert (second.exact_answer, second.ideal_answer, second.documents, second.snippets) == ([], (), (), ())

    def test_factoid_string_entries_normalized_to_lists(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"questions": [
            {"id": "1", "body": "b?", "type": "factoid", "exact_answer": ["name", ["other", "syn"]]},
        ]}))
        assert load_questions(path).questions[0].exact_answer == [["name"], ["other", "syn"]]


def validate_report(manifest, capsys) -> dict:
    """The JSON report `bioqa validate` prints for a manifest."""
    capsys.readouterr()
    assert cli.main(["validate", "--manifest", str(manifest)]) == 0
    return json.loads(capsys.readouterr().out)


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


BUNDLED_MANIFEST = json.loads((RESOURCE_DIR / "manifest.json").read_text())


class TestLoadResources:
    def test_bundled_manifest_loads_everything(self, bundle, capsys):
        report = validate_report(RESOURCE_DIR / "manifest.json", capsys)
        assert len(report["resources"]) == 8
        assert report["resources"] == {key: sha256_of(RESOURCE_DIR / name) for key, name in BUNDLED_MANIFEST.items()}
        assert bundle.paths == {key: RESOURCE_DIR / name for key, name in BUNDLED_MANIFEST.items()}
        assert len(bundle.concept_lexicon) > 0
        assert bundle.patterns

    def test_missing_manifest_entry(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"corpus": "c.jsonl"}))
        with pytest.raises(DatasetFormatError, match="sentiment"):
            load_resources(path)

    def test_model_entry_is_not_read(self, tmp_path, capsys):
        # A manifest may still carry a "model" entry; nothing loads it.
        manifest = {k: str(RESOURCE_DIR / v) for k, v in BUNDLED_MANIFEST.items()} | {"model": 5}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert "model" not in load_resources(path).paths
        assert "model" not in validate_report(path, capsys)["resources"]

    def test_graph_edge_with_unknown_cui(self, tmp_path):
        for name in ("corpus.jsonl", "stopwords.txt", "abbreviations.txt"):
            (tmp_path / name).write_text("")
        (tmp_path / "concepts.tsv").write_text("C1\talpha\tT1\tThing\t\n")
        (tmp_path / "hierarchy.tsv").write_text("C1\tC404\n")
        (tmp_path / "sentiment.tsv").write_text("good\tany\t0.5\t0\n")
        (tmp_path / "tags.tsv").write_text("is\tVBZ\n")
        (tmp_path / "patterns.txt").write_text("YESNO := [is] [*] ?\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "corpus": "corpus.jsonl", "lexicon": "concepts.tsv", "graph": "hierarchy.tsv",
            "sentiment": "sentiment.tsv", "stopwords": "stopwords.txt", "tags": "tags.tsv",
            "abbreviations": "abbreviations.txt", "patterns": "patterns.txt",
        }))
        with pytest.raises(DatasetFormatError, match="C404"):
            load_resources(manifest)

    def test_hashes_change_iff_bytes_change(self, tmp_path, capsys):
        for name in BUNDLED_MANIFEST.values():
            shutil.copy(RESOURCE_DIR / name, tmp_path / name)
        manifest = tmp_path / "manifest.json"
        manifest.write_text((RESOURCE_DIR / "manifest.json").read_text())
        bundled = validate_report(RESOURCE_DIR / "manifest.json", capsys)["resources"]
        assert validate_report(manifest, capsys)["resources"] == bundled
        with open(tmp_path / "stopwords.txt", "a") as f:
            f.write("zzznew\n")
        changed = validate_report(manifest, capsys)["resources"]
        assert changed["stopwords"] == sha256_of(tmp_path / "stopwords.txt") != bundled["stopwords"]
        assert {k: v for k, v in changed.items() if k != "stopwords"} == {
            k: v for k, v in bundled.items() if k != "stopwords"
        }

    def test_load_reads_each_parsed_file_once_and_hashes_nothing(self, monkeypatch):
        manifest = RESOURCE_DIR / "manifest.json"
        opened = Counter()
        hashed = []
        real_open, real_sha256 = io.open, hashlib.sha256

        def spy_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[Path(file).resolve()] += 1
            return real_open(file, *args, **kwargs)

        def spy_sha256(*args, **kwargs):
            hashed.append(args)
            return real_sha256(*args, **kwargs)

        with monkeypatch.context() as patched:
            # pathlib opens through io.open; a direct open() goes through builtins.
            patched.setattr(io, "open", spy_open)
            patched.setattr(builtins, "open", spy_open)
            patched.setattr(hashlib, "sha256", spy_sha256)
            load_resources(manifest)
        parsed = [RESOURCE_DIR / name for key, name in BUNDLED_MANIFEST.items() if key != "corpus"]
        assert len(parsed) == 7
        assert opened == Counter([manifest, *parsed])
        assert hashed == []


class TestTopicQuestions:
    def test_bundled_topic_dataset(self):
        rows = load_topic_questions(RESOURCE_DIR / "topic_questions.json")
        assert len(rows) == 36
        from bioqa.qclass import TOPICS

        for topic in TOPICS:
            assert sum(1 for _, _, ts in rows if topic in ts) >= 3

    def test_missing_topics_field(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"questions": [{"id": "1", "body": "b"}]}))
        with pytest.raises(DatasetFormatError):
            load_topic_questions(path)


def split_index_file(path):
    """The header and the four arrays of a format-4 index file, writable,
    each in the type the header's dtypes name."""
    data = path.read_bytes()
    end = data.index(b"\n")
    header = json.loads(data[:end])
    sizes = [len(header["units"]), len(header["terms"]) + 1, header["n_postings"], header["n_postings"]]
    arrays, offset = [], end + 1
    for code, size in zip(header["dtypes"], sizes):
        arrays.append(np.frombuffer(data, dtype=code, count=size, offset=offset).copy())
        offset += arrays[-1].nbytes
    return header, arrays


def write_index_file(path, header, arrays):
    body = b"".join(a.astype(code).tobytes() for code, a in zip(header["dtypes"], arrays))
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def narrowest(values) -> str:
    """The type format 4 saves values in, by the thresholds written out."""
    top = max(values, default=0)
    return "<u1" if top <= 255 else "<u2" if top <= 65535 else "<u4"


def boundary_index(n_units, repeats, distinct, last):
    """An index of n_units units: the first holds one term repeats times and
    the last (or, when last is False, also the first) holds distinct other
    terms once each; the rest are empty. So the largest count is repeats,
    the largest length repeats or distinct, the largest position n_units - 1
    or 0, and n_postings 1 + distinct."""
    rows = [[] for _ in range(n_units)]
    rows[0] = ["t"] * repeats
    rows[n_units - 1 if last else 0] += [f"w{i}" for i in range(distinct)]
    return retrieval.IndexedCorpus.from_terms((f"u{i}", terms) for i, terms in enumerate(rows))


class TestIndexPersistence:
    def test_round_trip_structure_equal(self, tmp_path, bundle, doc_index):
        path = tmp_path / "index.json"
        save_index(doc_index, path)
        loaded = load_index(path)
        assert loaded.unit_order == doc_index.unit_order
        assert loaded.lengths == doc_index.lengths
        assert loaded.postings == doc_index.postings
        assert loaded.avg_len == doc_index.avg_len

    def test_save_twice_is_byte_identical(self, tmp_path, doc_index):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_index(doc_index, p1)
        save_index(doc_index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch_reports_both(self, tmp_path, doc_index):
        path = tmp_path / "index.json"
        save_index(doc_index, path)
        saved = path.read_bytes()
        bumped = saved.replace(f'"version":{INDEX_FORMAT_VERSION}'.encode(), b'"version":99', 1)
        assert bumped != saved
        path.write_bytes(bumped)
        with pytest.raises(IndexVersionError) as err:
            load_index(path)
        assert err.value.found == 99 and err.value.expected == INDEX_FORMAT_VERSION
        assert "index.json" in str(err.value)

    def test_version_one_index_rejected(self, tmp_path):
        # Format 1 also stored the mode, the BM25 defaults, n_units and avg_len.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 1, "mode": "document", "k1_default": 1.2, "b_default": 0.85, "n_units": 0,
            "avg_len": 0.0, "unit_order": [], "lengths": {}, "postings": {},
        }))
        with pytest.raises(IndexVersionError) as err:
            load_index(path)
        assert err.value.found == 1 and "old.json" in str(err.value)

    def test_version_two_index_rejected(self, tmp_path, doc_index):
        # Format 2 was one JSON object, written as save_index wrote it.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 2, "unit_order": doc_index.unit_order, "lengths": doc_index.lengths,
            "postings": dict(doc_index.postings),
        }, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(IndexVersionError) as err:
            load_index(path)
        assert (err.value.found, err.value.expected) == (2, 4) and "old.json" in str(err.value)

    def test_version_three_index_rejected(self, tmp_path, doc_index):
        # Format 3 was the header without dtypes, then four int32 arrays.
        path = tmp_path / "old.json"
        header = {"version": 3, "units": doc_index.unit_order, "terms": doc_index.terms,
                  "n_postings": len(doc_index.positions)}
        arrays = (doc_index.unit_lengths, doc_index.offsets, doc_index.positions, doc_index.counts)
        path.write_bytes(json.dumps(header, separators=(",", ":")).encode() + b"\n"
                         + b"".join(a.astype("<i4").tobytes() for a in arrays))
        with pytest.raises(IndexVersionError) as err:
            load_index(path)
        assert (err.value.found, err.value.expected) == (3, 4)
        assert "old.json" in str(err.value) and str(err.value).endswith("rebuild it with bioqa index")

    def test_saves_only_what_load_reads(self, tmp_path, doc_index):
        path = tmp_path / "index.json"
        save_index(doc_index, path)
        header, (lengths, offsets, positions, counts) = split_index_file(path)
        assert list(header) == ["version", "units", "terms", "n_postings", "dtypes"]
        assert header["version"] == INDEX_FORMAT_VERSION == 4
        assert header["units"] == doc_index.unit_order and header["terms"] == doc_index.terms
        assert len(positions) == len(counts) == header["n_postings"] == offsets[-1]
        assert header["dtypes"] == [narrowest(a.tolist()) for a in (lengths, offsets, positions, counts)]
        assert load_index(path) == doc_index

    @settings(max_examples=25, deadline=None)
    @given(n_units=st.sampled_from([1, 2, 255, 256, 257, 65535, 65536, 65537]),
           repeats=st.sampled_from([1, 255, 256, 65535, 65536]),
           distinct=st.sampled_from([0, 1, 254, 255, 256, 65534, 65535, 65536]),
           last=st.booleans())
    @example(n_units=256, repeats=255, distinct=254, last=True)
    @example(n_units=257, repeats=256, distinct=255, last=True)
    @example(n_units=65536, repeats=65535, distinct=65534, last=True)
    @example(n_units=65537, repeats=65536, distinct=65535, last=True)
    def test_round_trip_at_type_boundaries(self, tmp_path_factory, n_units, repeats, distinct, last):
        index = boundary_index(n_units, repeats, distinct, last)
        path = tmp_path_factory.mktemp("boundary") / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index
        arrays = (index.unit_lengths, index.offsets, index.positions, index.counts)
        assert int(index.counts.max()) == repeats and int(index.offsets[-1]) == 1 + distinct
        assert int(index.positions.max()) == (n_units - 1 if last and distinct else 0)
        header, _ = split_index_file(path)
        expected = [narrowest(a.tolist()) for a in arrays]
        assert header["dtypes"] == expected
        # Built and loaded arrays are held in the type they are saved in;
        # loaded ones are read-only views of the file's bytes.
        loaded_arrays = (loaded.unit_lengths, loaded.offsets, loaded.positions, loaded.counts)
        assert [a.dtype for a in arrays] == [a.dtype for a in loaded_arrays] == list(map(np.dtype, expected))
        assert not any(a.flags.writeable for a in loaded_arrays)
        again = path.with_name("again.json")
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_equal_indexes_in_other_types_save_equal_bytes(self, tmp_path, doc_index):
        # save_index takes each type from the values, not from array.dtype.
        wide = retrieval.IndexedCorpus(
            doc_index.unit_order, doc_index.unit_lengths.astype(np.int64), doc_index.terms,
            doc_index.offsets.astype(np.uint32), doc_index.positions.astype(np.int32), doc_index.counts.astype(np.int64),
        )
        save_index(doc_index, tmp_path / "a.json")
        save_index(wide, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_round_trip_scores_identical(self, tmp_path, bundle, doc_index):
        path = tmp_path / "index.json"
        save_index(doc_index, path)
        loaded = load_index(path)
        terms = retrieval.index_terms("Muenke syndrome epilepsy", bundle.stopwords, bundle.concept_lexicon)
        for uid in doc_index.unit_order:
            assert retrieval.bm25_score(terms, uid, loaded) == pytest.approx(
                retrieval.bm25_score(terms, uid, doc_index), abs=1e-12
            )

    def test_pipeline_on_loaded_index_matches_in_memory(self, tmp_path, bundle, corpus, doc_index, type_model):
        from bioqa.answer import answer_pipeline, answer_to_json

        path = tmp_path / "index.json"
        save_index(doc_index, path)
        loaded = load_index(path)
        q = "What is the cause of Phthiriasis Palpebrarum?"
        a = answer_to_json(answer_pipeline(q, corpus, doc_index, type_model, bundle), "x")
        b = answer_to_json(answer_pipeline(q, corpus, loaded, type_model, bundle), "x")
        assert a == b

    def test_empty_index_round_trip(self, tmp_path, bundle):
        index = retrieval.build_index([], "document", bundle.stopwords, bundle.concept_lexicon)
        save_index(index, tmp_path / "index.json")
        assert load_index(tmp_path / "index.json") == index


def _first_term_with_two_postings(offsets):
    return next(r for r in range(len(offsets) - 1) if offsets[r + 1] - offsets[r] >= 2)


def _truncate(header, arrays):
    arrays[3] = arrays[3][:-1]


def _swap_offsets(header, arrays):
    offsets = arrays[1]
    offsets[1], offsets[2] = offsets[2], offsets[1]


def _position_out_of_range(header, arrays):
    arrays[2][-1] = len(header["units"])


def _swap_positions(header, arrays):
    offsets, positions = arrays[1], arrays[2]
    start = offsets[_first_term_with_two_postings(offsets)]
    positions[start], positions[start + 1] = positions[start + 1], positions[start]


def _zero_count(header, arrays):
    arrays[3][0] = 0


def _change_length(header, arrays):
    arrays[0][0] += 1


def _repeat_unit(header, arrays):
    header["units"][1] = header["units"][0]


def _repeat_term(header, arrays):
    header["terms"][1] = header["terms"][0]


U1 = ["<u1"] * 4


class TestIndexCorruption:
    """Every hand edit of a saved index that breaks its arrays' agreement is
    refused with a DatasetFormatError naming the file and the problem."""

    @pytest.mark.parametrize("corrupt, problem", [
        (_truncate, "index body has"),
        (_swap_offsets, "offsets must rise"),
        (_position_out_of_range, "positions must lie in"),
        (_swap_positions, "positions must rise within each term"),
        (_zero_count, "counts must be at least 1"),
        (_change_length, "unit lengths differ"),
        (_repeat_unit, "units repeat an id"),
        (_repeat_term, "terms repeat a term"),
    ], ids=["truncated", "offsets swapped", "position n_units", "positions swapped", "count zero",
            "length changed", "unit repeated", "term repeated"])
    def test_corrupted_index_is_refused(self, corrupt, problem, tmp_path, doc_index):
        path = tmp_path / "bad-index.json"
        save_index(doc_index, path)
        header, arrays = split_index_file(path)
        assert load_index(path) == doc_index  # the split and write below keep a good file good
        corrupt(header, arrays)
        write_index_file(path, header, arrays)
        with pytest.raises(DatasetFormatError, match="bad-index.json") as err:
            load_index(path)
        assert problem in str(err.value)

    def test_rewritten_file_loads(self, tmp_path, doc_index):
        path = tmp_path / "index.json"
        save_index(doc_index, path)
        write_index_file(path, *split_index_file(path))
        assert load_index(path) == doc_index

    @pytest.mark.parametrize("header, problem", [
        ({"version": 4, "terms": [], "n_postings": 0, "dtypes": U1}, "'units'"),
        ({"version": 4, "units": [], "n_postings": 0, "dtypes": U1}, "'terms'"),
        ({"version": 4, "units": [], "terms": [], "dtypes": U1}, "'n_postings'"),
        ({"version": 4, "units": [1], "terms": [], "n_postings": 0, "dtypes": U1}, "'units'"),
        ({"version": 4, "units": [], "terms": "t", "n_postings": 0, "dtypes": U1}, "'terms'"),
        ({"version": 4, "units": [], "terms": [], "n_postings": -1, "dtypes": U1}, "'n_postings'"),
        ([4], "header object"),
    ], ids=["no units", "no terms", "no n_postings", "unit number", "terms string", "negative postings", "list"])
    def test_malformed_header_is_refused(self, header, problem, tmp_path):
        path = tmp_path / "bad-index.json"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(4))
        with pytest.raises(DatasetFormatError, match="bad-index.json") as err:
            load_index(path)
        assert problem in str(err.value)

    @pytest.mark.parametrize("dtypes", [
        None, "<u1", ["<u1"] * 3, ["<u1"] * 5, ["<u1", "<u1", "<i4", "<u1"], ["<u1", "<u8", "<u1", "<u1"],
        ["<u1", "<u1", "|u1", "<u1"], [">u2", "<u1", "<u1", "<u1"], ["<u1", "<u1", "<u1", "uint8"],
        ["<u1", "<u1", "<u1", 1], ["<u1", "<u1", "<u1", ["<u1"]], ["<u1", "<u1", "<u1", None],
    ], ids=["missing", "string", "three", "five", "signed", "u8", "byte order |", "big-endian", "numpy name",
            "number", "list", "null"])
    def test_bad_dtypes_are_refused(self, dtypes, tmp_path):
        # A body of four one-byte arrays, of the size four "<u1"s imply.
        header = {"version": 4, "units": ["d"], "terms": ["t"], "n_postings": 1}
        if dtypes is not None:
            header["dtypes"] = dtypes
        path = tmp_path / "bad-index.json"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes([1, 0, 1, 0, 1]))
        with pytest.raises(DatasetFormatError, match="bad-index.json") as err:
            load_index(path)
        assert "'dtypes' must name four of <u1, <u2, <u4" in str(err.value)
        header["dtypes"] = U1
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes([1, 0, 1, 0, 1]))
        assert load_index(path).postings == {"t": {"d": 1}}

    def test_header_that_is_not_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad-index.json"
        path.write_bytes(b'{"version": 4,\n' + bytes(8))
        with pytest.raises(ResourceFormatError, match="bad-index.json:1:"):
            load_index(path)

    def test_flipped_bytes_load_or_are_refused(self, tmp_path, doc_index):
        # A random byte edit may keep the arrays in agreement; otherwise it
        # must be refused with a located error, never crash oddly.
        path = tmp_path / "index.json"
        save_index(doc_index, path)
        saved = path.read_bytes()
        rng = random.Random(3)
        for _ in range(200):
            data = bytearray(saved)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            path.write_bytes(bytes(data))
            try:
                load_index(path)
            except (DatasetFormatError, IndexVersionError, ResourceFormatError):
                pass


class TestLoaderRobustness:
    def test_fuzzed_inputs_error_cleanly(self, tmp_path):
        # Corrupted inputs must raise a located error, never crash oddly.
        rng = random.Random(6)
        expected = (DatasetFormatError, DuplicateIdError, ResourceFormatError,
                    IndexVersionError, qclass.ModelFormatError, FileNotFoundError)
        seeds = [
            '{"doc_id": "1", "title": "t", "abstract": "a"}',
            '{"questions": [{"id": "1", "body": "b", "type": "yesno"}]}',
            "C1\talpha\tT1\tThing\ta|b",
            '{"version": 4, "units": ["d"], "terms": ["t"], "n_postings": 1, "dtypes": ["<u1", "<u1", "<u1", "<u1"]}'
            "\n\x01\x00\x01\x00\x01",
            '{"questions": [{"id": "1", "body": "b", "topics": ["Device"]}]}',
            '{"corpus": "c", "lexicon": "l", "graph": "g", "sentiment": "s", "stopwords": "w",'
            ' "tags": "t", "abbreviations": "a", "patterns": "p"}',
            '{"version": 3, "labels": ["Device"], "weights": {"Device": {"a": 1.0}}, "meta": {"kind": "topics"}}',
        ]
        loaders = [load_corpus, load_questions, ConceptLexicon.from_file, load_index,
                   load_topic_questions, load_resources, qclass.load_model]
        # The index seed is a whole format-4 file, so the fuzzing reaches the
        # dtypes, body and agreement checks, not only the version check.
        (tmp_path / "seed.idx").write_text(seeds[3])
        assert load_index(tmp_path / "seed.idx").postings == {"t": {"d": 1}}
        for seed_text, loader in zip(seeds, loaders):
            for _ in range(40):
                text = list(seed_text)
                for _ in range(rng.randint(1, 6)):
                    pos = rng.randrange(len(text))
                    text[pos] = rng.choice('{}[]",:x01\t\n')
                path = tmp_path / "fuzz.dat"
                path.write_text("".join(text))
                try:
                    loader(path)
                except expected:
                    pass


class TestDepPairs:
    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("q1\tnsubj\tWhat\tdose\nq1\tdet\tdose\tthe\nq2\tcop\tWhat\tis\n")
        pairs = ingest.load_dep_pairs(path)
        assert pairs["q1"] == [("nsubj", "What", "dose"), ("det", "dose", "the")]
        assert pairs["q2"] == [("cop", "What", "is")]

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "deps.tsv"
        path.write_text("q1\tnsubj\tWhat\tdose\nq2\tonly-three\tcols\n")
        with pytest.raises(DatasetFormatError, match=":2"):
            ingest.load_dep_pairs(path)


# Every JSON reader, with a top level of the wrong type and an entry of the
# wrong type.
JSON_READERS = {
    "questions": (load_questions, "[]", '{"questions": ["id body type"]}'),
    "topic questions": (load_topic_questions, "[]", '{"questions": ["body topics"]}'),
    "manifest": (load_resources, '"corpus lexicon graph sentiment stopwords tags abbreviations patterns"',
                 '{"corpus": 5, "lexicon": "l", "graph": "g", "sentiment": "s", "stopwords": "w",'
                 ' "tags": "t", "abbreviations": "a", "patterns": "p"}'),
    "model": (qclass.load_model, "[]",
              '{"version": 3, "labels": ["Device"], "weights": {"Device": "w"}, "meta": {"kind": "topics"}}'),
    "run": (ingest.load_run, '"run"', '{"questions": ["answer"]}'),
}


class TestJsonReaders:
    @pytest.mark.parametrize("reader", sorted(JSON_READERS))
    def test_invalid_json_names_file_and_line(self, reader, tmp_path):
        path = tmp_path / "bad-input.json"
        path.write_text('{"questions": [\n  {nope')
        with pytest.raises(ResourceFormatError, match="bad-input.json:2:") as err:
            JSON_READERS[reader][0](path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("reader", sorted(JSON_READERS))
    @pytest.mark.parametrize("case", [1, 2], ids=["wrong top level", "wrong-type entry"])
    def test_wrong_type_is_a_format_error_naming_the_file(self, reader, case, tmp_path):
        path = tmp_path / "bad-input.json"
        path.write_text(JSON_READERS[reader][case])
        with pytest.raises(ValueError, match="bad-input.json"):
            JSON_READERS[reader][0](path)

    @pytest.mark.parametrize("loader, text, where", [
        (load_questions, '{"questions": [{"id": "1", "body": 5, "type": "yesno"}]}', "questions[0]"),
        (load_questions, '{"questions": [{"id": "1", "body": ["b"], "type": "list"}]}', "questions[0]"),
        (load_topic_questions, '{"questions": [{"id": "1", "body": 5, "topics": ["Device"]}]}', "questions[0]"),
        (load_topic_questions, '{"questions": [{"id": "1", "body": "b", "topics": [5]}]}', "questions[0]"),
        (load_questions, '{"questions": [{"id": "1", "body": "b", "type": "list", "documents": "12345"}]}',
         "questions[0]"),
        (load_questions, '{"questions": [{"id": "1", "body": "b", "type": "summary", "ideal_answer": 5}]}',
         "questions[0]"),
        (load_questions, '{"questions": [{"id": "1", "body": "b", "type": "summary", "ideal_answer": [5]}]}',
         "questions[0]"),
        *[(load_questions, f'{{"questions": [{{"id": "1", "body": "b", "type": "list", "{name}": {value}}}]}}',
           f"questions[0]: field '{name}'")
          for name, value in [("documents", "null"), ("documents", "{}"), ("documents", '""'),
                              ("ideal_answer", "0"), ("ideal_answer", "{}"), ("snippets", "{}"), ("snippets", "0"),
                              ("exact_answer", '[["imatinib", 5]]')]],
        (load_questions, '{"questions": [{"id": ["x"], "body": "b", "type": "list"}]}', "questions[0]: field 'id'"),
        (load_questions, '{"questions": [{"id": 7, "body": "b", "type": "list"}]}', "questions[0]: field 'id'"),
        (load_corpus, '{"doc_id": "1", "title": "t", "abstract": 5}', ":1:"),
        (load_corpus, '# note\n{"doc_id": "1", "title": ["t"], "abstract": "a"}', ":2:"),
        (load_corpus, '{"doc_id": ["x"], "title": "t", "abstract": "a"}', ":1: field 'doc_id'"),
        (load_corpus, '{"doc_id": 7, "title": "t", "abstract": "a"}', ":1: field 'doc_id'"),
        (load_topic_questions, '{"questions": [{"body": "b", "topics": ["Device"]}]}', "questions[0]: field 'id'"),
        (load_topic_questions, '{"questions": [{"id": ["x"], "body": "b", "topics": ["Device"]}]}',
         "questions[0]: field 'id'"),
        (load_topic_questions, '{"questions": [{"id": "x", "body": "b", "topics": ["Device"]},'
                               ' {"id": "x", "body": "c", "topics": ["Test"]}]}', "questions[1]: duplicate id"),
    ], ids=["question body number", "question body list", "topic body number", "topic number",
            "question documents string", "question ideal number", "question ideal number list",
            "question documents null", "question documents object", "question documents empty string",
            "question ideal zero", "question ideal object", "question snippets object", "question snippets zero",
            "question exact entry with a number", "question id list", "question id number",
            "corpus abstract number", "corpus title list", "corpus doc_id list", "corpus doc_id number",
            "topic id missing", "topic id list", "topic id repeated"])
    def test_wrong_field_type_is_a_format_error_naming_file_and_entry(self, loader, text, where, tmp_path):
        path = tmp_path / "bad-input.json"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match="bad-input.json") as err:
            loader(path)
        assert where in str(err.value)

    @pytest.mark.parametrize("reader, payload, key", [
        ("model", {"version": 3, "labels": ["yesno"], "meta": {"kind": "type", "space": "patterns"}}, "weights"),
        ("model", {"version": 3, "weights": {}, "meta": {"kind": "topics"}}, "labels"),
    ])
    def test_missing_key_is_a_format_error_naming_the_file(self, reader, payload, key, tmp_path):
        path = tmp_path / "bad-input.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="bad-input.json") as err:
            JSON_READERS[reader][0](path)
        assert not isinstance(err.value, KeyError)
        assert key in str(err.value)


# Every line loader, with a line it accepts and, where it has one, a line it
# refuses.
LINE_LOADERS = {
    "stopwords": (load_stopwords, "alpha", None),
    "abbreviations": (load_abbreviations, "e.g.", "eg"),
    "tags": (TagLexicon.from_file, "is\tVBZ", "is"),
    "concepts": (ConceptLexicon.from_file, "C1\talpha\tT1\tThing", "C1\talpha"),
    "hierarchy": (ConceptGraph.from_file, "C1\tC2", "C1"),
    "sentiment": (SentimentLexicon.from_file, "good\tany\t0.5\t0", "good\tany\thigh\t0"),
    "corpus": (load_corpus, '{"doc_id": "1", "title": "t", "abstract": "a"}', '{"doc_id": "2"}'),
    "dependencies": (load_dep_pairs, "q1\tnsubj\tWhat\tdose", "q1\tnsubj"),
}


def _contents(resource):
    """A loaded resource as data that compares by value."""
    return vars(resource) if hasattr(resource, "__dict__") else resource


class TestLineLoaders:
    @pytest.mark.parametrize("loader", sorted(LINE_LOADERS))
    def test_blank_and_indented_comment_lines_are_skipped(self, loader, tmp_path):
        load, good, _ = LINE_LOADERS[loader]
        plain, noisy = tmp_path / "plain.txt", tmp_path / "noisy.txt"
        plain.write_text(good + "\n")
        noisy.write_text(f"# header\n\n{good}\n   \t\n   # note\n\t# note\n")
        loaded = _contents(load(noisy))
        assert loaded and loaded == _contents(load(plain))

    @pytest.mark.parametrize("loader", sorted(k for k, v in LINE_LOADERS.items() if v[2] is not None))
    def test_error_line_numbers_count_skipped_lines(self, loader, tmp_path):
        load, good, bad = LINE_LOADERS[loader]
        path = tmp_path / "resource.txt"
        path.write_text(f"{good}\n\n   # note\n{bad}\n")
        with pytest.raises(ValueError, match=r"resource\.txt:4:"):
            load(path)

    @pytest.mark.parametrize("loader", sorted(k for k, v in LINE_LOADERS.items() if v[2] is not None))
    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    def test_only_newline_ends_a_line(self, loader, separator, tmp_path):
        # The other line boundaries of str.splitlines stay inside a line: the
        # comment that holds one is one line, and the bad line is line 3.
        load, good, bad = LINE_LOADERS[loader]
        path = tmp_path / "resource.txt"
        path.write_text(f"# note{separator}{bad}\n{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"resource\.txt:3:"):
            load(path)


# Every tab-separated loader: the fields of a line it accepts, and, for each
# field it requires, the message that refuses the line when that field is
# blank.
TAB_LOADERS = {
    "tags": (TagLexicon.from_file, ["Imatinib", "NN"], dict.fromkeys([0, 1], "expected 'word<TAB>tag'")),
    "concepts": (ConceptLexicon.from_file, ["C1", "alpha", "T1", "Thing", "Alpha | a-1"],
                 dict.fromkeys([0, 1], "cui and preferred name are required")),
    "hierarchy": (ConceptGraph.from_file, ["C1", "C2"], dict.fromkeys([0, 1], "expected 'parent_cui<TAB>child_cui'")),
    "sentiment": (SentimentLexicon.from_file, ["Good", "ANY", "0.5", "0"],
                  {0: "word is required", 1: "tag class must be one of n/v/a/r/any",
                   2: "scores must be numeric", 3: "scores must be numeric"}),
    "dependencies": (load_dep_pairs, ["q1", "nsubj", "What", "dose"],
                     dict.fromkeys(range(4), "expected 'question_id<TAB>rel<TAB>head<TAB>dependent'")),
}


class TestTabSeparatedFields:
    @pytest.mark.parametrize("loader", sorted(TAB_LOADERS))
    def test_padded_fields_and_lines_load_the_same_entries(self, loader, tmp_path):
        load, fields, _ = TAB_LOADERS[loader]
        plain, padded = tmp_path / "plain.tsv", tmp_path / "padded.tsv"
        plain.write_text("\t".join(fields) + "\n")
        padded.write_text("  " + "\t".join(f"  {field}   " for field in fields) + " \n")
        loaded = _contents(load(plain))
        assert loaded and _contents(load(padded)) == loaded

    @pytest.mark.parametrize("loader, blank", [
        (loader, blank) for loader, (_, _, required) in sorted(TAB_LOADERS.items()) for blank in required
    ])
    def test_a_required_field_blank_after_stripping_is_refused(self, loader, blank, tmp_path):
        load, fields, required = TAB_LOADERS[loader]
        path = tmp_path / "resource.tsv"
        path.write_text("\t".join(fields) + "\n" + "\t".join(fields[:blank] + ["   "] + fields[blank + 1:]) + "\n")
        with pytest.raises(ValueError, match=rf"resource\.tsv:2: {re.escape(required[blank])}"):
            load(path)

    def test_tag_lexicon_key_is_stripped(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("imatinib \tNN\n")
        lexicon = TagLexicon.from_file(path)
        assert lexicon.entries == {"imatinib": "NN"}
        assert pos_tag(["Imatinib", "imatinib"], lexicon) == [("Imatinib", "NN"), ("imatinib", "NN")]

    @pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_sentiment_score_padded_with_separator_controls_loads(self, pad, tmp_path):
        # str.strip removes these, while float refuses them: stripped first,
        # the score loads.
        with pytest.raises(ValueError):
            float(f"{pad}0.5")
        path = tmp_path / "senti.tsv"
        path.write_text(f"good\tany\t{pad}0.5{pad}\t0\n")
        assert SentimentLexicon.from_file(path).entries == [SentimentEntry("good", "any", 0.5, 0.0)]


# Every reader of a text file: the JSON readers, the line loaders and the
# pattern grammar.
TEXT_READERS = {
    **{name: reader for name, (reader, *_) in JSON_READERS.items()},
    **{name: loader for name, (loader, *_) in LINE_LOADERS.items()},
    "patterns": qclass.load_patterns,
}


@pytest.mark.parametrize("reader", sorted(TEXT_READERS))
def test_non_utf8_input_names_file_and_line(reader, tmp_path):
    path = tmp_path / "bad-input.txt"
    path.write_bytes(b"# note\n\xff\n")
    with pytest.raises(ResourceFormatError, match=r"bad-input\.txt:2: not UTF-8") as err:
        TEXT_READERS[reader](path)
    assert err.value.line_no == 2


# Every loader of words that must match a token, with a line holding one the
# tokenizer splits ("e.g." is four tokens), which could never match.
SPLIT_WORD_LINES = {
    "stopwords": (load_stopwords, "e.g."),
    "tags": (TagLexicon.from_file, "e.g.\tNN"),
    "sentiment": (SentimentLexicon.from_file, "e.g.\tany\t0.5\t0"),
    "patterns": (qclass.load_patterns, "FACTOID := [what|e.g.] [*] ?"),
}


@pytest.mark.parametrize("loader", sorted(SPLIT_WORD_LINES))
def test_a_word_the_tokenizer_splits_is_refused_naming_file_and_line(loader, tmp_path):
    load, line = SPLIT_WORD_LINES[loader]
    path = tmp_path / "resource.txt"
    path.write_text(f"# note\n{line}\n")
    with pytest.raises(ResourceFormatError, match=r"resource\.txt:2: 'e\.g\.' is not one token"):
        load(path)
