"""Loading and validation of every external file the pipeline consumes.

All loaders reject malformed input with an error naming the file and, for
line-oriented formats, the line; nothing downstream has to re-validate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conceptlex import ConceptGraph, ConceptLexicon, SentimentLexicon
from .qclass import Grammar, QuestionType, load_patterns
from .retrieval import INDEX_DTYPES, DocumentRecord, DuplicateIdError, IndexedCorpus, index_dtype
from .textproc import ResourceFormatError, TagLexicon, data_fields, data_lines, load_abbreviations, load_stopwords, read_json


class DatasetFormatError(ValueError):
    pass


class IndexVersionError(ValueError):
    def __init__(self, found, expected, path):
        super().__init__(f"{path}: index format version {found!r}, expected {expected!r}; rebuild it with bioqa index")
        self.found = found
        self.expected = expected


# json.loads(s) is JSONDecoder().decode(s): a check for a leading BOM, then
# raw_decode between the whitespace it skips.
_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str):
    """json.loads(line), without its per-call checks when the line is one
    JSON value: any other line is left to json.loads, which refuses it."""
    text = line.strip(" \t\n\r")
    try:
        obj, end = _raw_decode(text)
        if end == len(text):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def load_corpus(path) -> list[DocumentRecord]:
    """JSON Lines corpus: one {doc_id, title, abstract} object per line."""
    records: list[DocumentRecord] = []
    seen: set[str] = set()
    for line_no, line in data_lines(path):
        try:
            obj = _decode_line(line)
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


@dataclass(frozen=True)
class QuestionRecord:
    id: str
    body: str
    type: QuestionType
    exact_answer: object = None
    ideal_answer: tuple[str, ...] = ()
    documents: tuple[str, ...] = ()
    snippets: tuple[dict, ...] = ()


@dataclass
class QuestionDataset:
    questions: list[QuestionRecord]

    def __len__(self):
        return len(self.questions)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_answer_item(value) -> bool:
    """A name, or a non-empty list of a name and its synonyms."""
    return isinstance(value, str) or (_is_strings(value) and bool(value))


# Each answer field a gold question or a run answer may have: what it must
# be, and its test.
_ANSWER_FIELDS = {
    "exact_answer": ("null, a string, or a list of names or non-empty name lists",
                     lambda v: v is None or isinstance(v, str) or (isinstance(v, list) and all(map(_is_answer_item, v)))),
    "ideal_answer": ("a string or a list of strings", lambda v: isinstance(v, str) or _is_strings(v)),
    "documents": ("a list of strings", _is_strings),
    "snippets": ("a list of objects with a string 'document' and a string 'text'",
                 lambda v: isinstance(v, list) and all(
                     isinstance(s, dict) and isinstance(s.get("document"), str) and isinstance(s.get("text"), str)
                     for s in v)),
}


def _check_answer_entry(where: str, entry: dict, seen: set[str]) -> str:
    """The rules gold and run entries share: the id is a string that no
    entry in seen has, and each answer field present has the shape
    _ANSWER_FIELDS names. Adds the id to seen and returns it."""
    qid = entry.get("id")
    if not isinstance(qid, str):
        raise DatasetFormatError(f"{where}: field 'id' must be a string, not {qid!r}")
    if qid in seen:
        raise DatasetFormatError(f"{where}: duplicate id {qid!r}")
    seen.add(qid)
    for name, (expected, valid) in _ANSWER_FIELDS.items():
        if name in entry and not valid(entry[name]):
            raise DatasetFormatError(f"{where}: field {name!r} of question {qid!r} must be {expected}")
    return qid


def _validate_exact(where: str, qtype: QuestionType, exact) -> object:
    """A gold exact answer, of a shape _ANSWER_FIELDS allows, checked
    against its question type; list entries become name lists."""
    if exact is None:
        return None
    if qtype is QuestionType.SUMMARY:
        raise DatasetFormatError(f"{where}: summary questions carry no exact answer")
    if qtype is QuestionType.YESNO:
        if not isinstance(exact, str) or exact.lower() not in ("yes", "no"):
            raise DatasetFormatError(f"{where}: field 'exact_answer' of a yes/no question must be 'yes' or 'no'")
        return exact.lower()
    if not isinstance(exact, list):
        raise DatasetFormatError(f"{where}: field 'exact_answer' of a {qtype.value} question must be a list")
    return [[entry] if isinstance(entry, str) else list(entry) for entry in exact]


def _question_entries(path) -> list[dict]:
    """The objects of a question file's {"questions": [...]} list."""
    payload = read_json(path)
    entries = payload.get("questions") if isinstance(payload, dict) else None
    if not isinstance(entries, list) or not all(isinstance(obj, dict) for obj in entries):
        raise DatasetFormatError(f"{path}: expected an object with a 'questions' list of objects")
    return entries


def load_questions(path) -> QuestionDataset:
    """BioASQ-shaped question file: {"questions": [{id, body, type, ...}]}.
    An empty ideal answer, document list or snippet list loads as none."""
    questions = []
    seen: set[str] = set()
    for i, obj in enumerate(_question_entries(path)):
        where = f"{path}: questions[{i}]"
        for required in ("id", "body", "type"):
            if required not in obj:
                raise DatasetFormatError(f"{where}: missing field {required!r}")
        qid = _check_answer_entry(where, obj, seen)
        if not isinstance(obj["body"], str):
            raise DatasetFormatError(f"{where}: field 'body' must be a string")
        try:
            qtype = QuestionType(obj["type"])
        except ValueError:
            raise DatasetFormatError(f"{where}: unknown type {obj['type']!r}") from None
        ideal = obj.get("ideal_answer") or ()
        questions.append(
            QuestionRecord(
                qid,
                obj["body"],
                qtype,
                exact_answer=_validate_exact(where, qtype, obj.get("exact_answer")),
                ideal_answer=(ideal,) if isinstance(ideal, str) else tuple(ideal),
                documents=tuple(obj.get("documents", ())),
                snippets=tuple(obj.get("snippets", ())),
            )
        )
    return QuestionDataset(questions)


def load_run(path) -> list[dict]:
    """The answer objects of a run file: {"questions": [...]} or a bare list,
    each checked by the rules gold entries share (_check_answer_entry)."""
    payload = read_json(path)
    entries = payload.get("questions") if isinstance(payload, dict) else payload
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DatasetFormatError(f"{path}: expected a list of answer objects or {{'questions': [...]}}")
    seen: set[str] = set()
    for i, entry in enumerate(entries):
        _check_answer_entry(f"{path}: questions[{i}]", entry, seen)
    return entries


def load_dep_pairs(path) -> dict[str, list[tuple[str, str, str]]]:
    """Dependency sidecar: question_id, relation, head, dependent per line.

    Parses are supplied externally; questions without rows simply have no
    dependency features.
    """
    pairs: dict[str, list[tuple[str, str, str]]] = {}
    for line_no, _, fields in data_fields(path):
        if len(fields) != 4 or not all(fields):
            raise DatasetFormatError(
                f"{path}:{line_no}: expected 'question_id<TAB>rel<TAB>head<TAB>dependent'"
            )
        qid, rel, head, dep = fields
        pairs.setdefault(qid, []).append((rel, head, dep))
    return pairs


def load_topic_questions(path) -> list[tuple[str, str, set[str]]]:
    """Topic-labeled questions: {"questions": [{"id", "body", "topics": [...]}]},
    each checked by the rules gold entries share (_check_answer_entry)."""
    rows = []
    seen: set[str] = set()
    for i, obj in enumerate(_question_entries(path)):
        where = f"{path}: questions[{i}]"
        qid = _check_answer_entry(where, obj, seen)
        if "body" not in obj or not isinstance(obj.get("topics"), list):
            raise DatasetFormatError(f"{where} needs 'body' and a 'topics' list")
        if not isinstance(obj["body"], str) or not all(isinstance(t, str) for t in obj["topics"]):
            raise DatasetFormatError(f"{where} needs a string 'body' and string topics")
        rows.append((qid, obj["body"], set(obj["topics"])))
    return rows


@dataclass
class ResourceBundle:
    concept_lexicon: ConceptLexicon
    graph: ConceptGraph
    sentiment: SentimentLexicon
    stopwords: set[str]
    tag_lexicon: TagLexicon
    abbreviations: set[str]
    patterns: Grammar
    paths: dict[str, Path]  # manifest key -> the file it names, resolved against the manifest's directory

    @property
    def corpus_path(self) -> Path:
        return self.paths["corpus"]


_MANIFEST_KEYS = ("corpus", "lexicon", "graph", "sentiment", "stopwords", "tags", "abbreviations", "patterns")


def load_resources(manifest_path) -> ResourceBundle:
    """Load every resource listed in a manifest; paths resolve relative to it.

    Cross-references are checked here: pattern synonym sets must resolve
    (enforced by the pattern parser) and every hierarchy edge must name a
    concept from the lexicon.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{manifest_path}: expected a manifest object")
    missing = [k for k in _MANIFEST_KEYS if not isinstance(manifest.get(k), str)]
    if missing:
        raise DatasetFormatError(f"{manifest_path}: manifest needs a file name for: {', '.join(missing)}")
    base = manifest_path.parent
    paths = {k: base / manifest[k] for k in _MANIFEST_KEYS}
    for key, p in paths.items():
        if not p.exists():
            raise FileNotFoundError(f"{manifest_path}: {key} file not found: {p}")

    lexicon = ConceptLexicon.from_file(paths["lexicon"])
    graph = ConceptGraph.from_file(paths["graph"])
    for cui in sorted(graph.nodes):
        if cui not in lexicon:
            raise DatasetFormatError(f"{paths['graph']}: edge references unknown cui {cui}")
    return ResourceBundle(
        concept_lexicon=lexicon,
        graph=graph,
        sentiment=SentimentLexicon.from_file(paths["sentiment"]),
        stopwords=load_stopwords(paths["stopwords"]),
        tag_lexicon=TagLexicon.from_file(paths["tags"]),
        abbreviations=load_abbreviations(paths["abbreviations"]),
        patterns=load_patterns(paths["patterns"]),
        paths=paths,
    )


RESOURCE_DIR = Path(__file__).parent / "resources"  # the default manifest, its files and the question datasets


def default_manifest_path() -> Path:
    return RESOURCE_DIR / "manifest.json"


# ---------------------------------------------------------------------------
# Index persistence
# ---------------------------------------------------------------------------

# Format 4 is one JSON header line, {"version", "units", "terms",
# "n_postings", "dtypes"}, then four arrays back to back: unit lengths (one
# per unit), offsets (one per term, plus one), positions and counts
# (n_postings each). "dtypes" names the type each array is saved in, in that
# order: the retrieval.index_dtype of its largest value, one of
# INDEX_DTYPES. See IndexedCorpus for what the arrays hold.
INDEX_FORMAT_VERSION = 4


def save_index(index: IndexedCorpus, path) -> None:
    """Write an index in format 4 to path; equal indexes give equal bytes."""
    arrays = (index.unit_lengths, index.offsets, index.positions, index.counts)
    dtypes = [index_dtype(int(array.max(initial=0))) for array in arrays]
    header = {
        "version": INDEX_FORMAT_VERSION,
        "units": index.unit_order,
        "terms": index.terms,
        "n_postings": len(index.positions),
        "dtypes": dtypes,
    }
    with open(path, "wb") as out:
        out.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        for array, dtype in zip(arrays, dtypes):
            out.write(array.astype(dtype, copy=False).tobytes())


def _header_list(path, header: dict, key: str) -> list[str]:
    value = header.get(key)
    if value is None:
        raise DatasetFormatError(f"{path}: index has no {key!r} entry")
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise DatasetFormatError(f"{path}: index {key!r} must be a list of strings")
    return value


def load_index(path) -> IndexedCorpus:
    """An index saved by save_index. Anything else is refused naming the
    file: another format version with IndexVersionError, a malformed or
    inconsistent file with DatasetFormatError."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    try:
        header = json.loads((data if end < 0 else data[:end]).decode("utf-8"))
    except UnicodeDecodeError:
        raise DatasetFormatError(f"{path}: index header is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ResourceFormatError(path, exc.lineno, f"invalid JSON index header ({exc.msg})") from None
    if not isinstance(header, dict):
        raise DatasetFormatError(f"{path}: expected an index header object")
    if header.get("version") != INDEX_FORMAT_VERSION:
        raise IndexVersionError(header.get("version"), INDEX_FORMAT_VERSION, path)
    units = _header_list(path, header, "units")
    terms = _header_list(path, header, "terms")
    n_postings = header.get("n_postings")
    if type(n_postings) is not int or n_postings < 0:
        raise DatasetFormatError(f"{path}: index 'n_postings' must be a count")
    dtypes = header.get("dtypes")
    if (not isinstance(dtypes, list) or len(dtypes) != 4
            or not all(type(code) is str and code in INDEX_DTYPES for code in dtypes)):
        raise DatasetFormatError(f"{path}: index 'dtypes' must name four of {', '.join(INDEX_DTYPES)}")
    sizes = (len(units), len(terms) + 1, n_postings, n_postings)
    body = 0 if end < 0 else len(data) - end - 1
    implied = sum(np.dtype(code).itemsize * size for code, size in zip(dtypes, sizes))
    if body != implied:
        raise DatasetFormatError(f"{path}: index body has {body} bytes, its header implies {implied}")
    # Each array is a read-only view of data, in the type the header names.
    arrays, offset = [], end + 1
    for code, size in zip(dtypes, sizes):
        arrays.append(np.frombuffer(data, dtype=code, count=size, offset=offset))
        offset += arrays[-1].nbytes
    lengths, offsets, positions, counts = arrays
    index = IndexedCorpus(units, lengths, terms, offsets, positions, counts)
    problem = _index_problem(index, n_postings)
    if problem:
        raise DatasetFormatError(f"{path}: {problem}")
    return index


def _index_problem(index: IndexedCorpus, n_postings: int) -> str | None:
    """What makes the arrays of a loaded index disagree, or None."""
    if len(set(index.unit_order)) != index.n_units:
        return "index units repeat an id"
    if len(index.term_rows) != len(index.terms):
        return "index terms repeat a term"
    # The arrays are unsigned, so neighbours are compared rather than
    # differenced: an unsigned difference wraps, and a fall would pass.
    offsets, positions = index.offsets, index.positions
    if offsets[0] != 0 or offsets[-1] != n_postings or (offsets[1:] < offsets[:-1]).any():
        return f"index offsets must rise from 0 to {n_postings}"
    if n_postings and positions.max() >= index.n_units:
        return f"index positions must lie in [0, {index.n_units})"
    # Each term's positions rise strictly; a step into a term's first
    # posting crosses to the next term and may fall.
    rising = positions[1:] > positions[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < n_postings)] - 1] = True
    if not rising.all():
        return "index positions must rise within each term"
    if n_postings and index.counts.min() < 1:
        return "index counts must be at least 1"
    if not np.array_equal(np.bincount(positions, weights=index.counts, minlength=index.n_units), index.unit_lengths):
        return "index unit lengths differ from the sums of their counts"
    return None
