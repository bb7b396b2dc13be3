"""Question classification: type (yesno/factoid/list/summary) and topics.

The type classifier feeds features from a handcrafted question-shape
grammar into a seeded linear max-margin model; topic classification trains
one binary max-margin model per topic over word, bigram, stem and concept
features. Both kinds are LinearModels, one weight map per label, and are
saved in one file shape.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .conceptlex import (
    ConceptLexicon,
    Question,
    question_of,
    recognize,  # not called here; perfbench/tracer.py counts calls through this binding
)
from .evalkit import accuracy
from .textproc import (
    ResourceFormatError,
    TagLexicon,
    bigrams,
    is_content_word,
    one_token_word,
    pos_tag,
    read_json,
    read_text,
    stem,
    text_lines,
    token_surfaces,
    tokenize,  # not called here; perfbench/tracer.py counts calls through this binding
)

MODEL_FORMAT_VERSION = 3

TOPICS = (
    "Device",
    "Diagnosis",
    "Epidemiology",
    "Etiology",
    "History",
    "Management",
    "Pharmacological",
    "Physical Finding",
    "Procedure",
    "Prognosis",
    "Test",
    "Treatment & Prevention",
)

FEATURE_SPACES = ("unigram", "bigram", "pos", "pos+unigram", "patterns")

# Tags assigned to punctuation tokens; excluded from the pos feature space.
_PUNCT_TAGS = frozenset({".", ",", "(", ")", ":", "''"})

_KNOWN_TAGS = frozenset({
    "NN", "NNS", "NNP", "JJ", "JJR", "JJS", "VB", "VBZ", "VBP", "VBD",
    "VBN", "VBG", "MD", "DT", "IN", "TO", "CC", "WP", "WP$", "WDT", "WRB",
    "PRP", "PRP$", "RB", "RBR", "RBS",
})


class QuestionType(Enum):
    YESNO = "yesno"
    FACTOID = "factoid"
    LIST = "list"
    SUMMARY = "summary"


# Fixed order used for argmax tie-breaking.
TYPE_ORDER = (QuestionType.YESNO, QuestionType.FACTOID, QuestionType.LIST, QuestionType.SUMMARY)


class UnknownFeatureSpaceError(ValueError):
    pass


class ModelFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Pattern grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiteralSet:
    phrases: tuple[tuple[str, ...], ...]  # each phrase is a word tuple
    capture: bool

    @property
    def starts(self) -> frozenset[str]:
        """First words of the phrases: a token outside them starts no phrase."""
        return frozenset(phrase[0] for phrase in self.phrases)


@dataclass(frozen=True)
class TagMatch:
    tag: str


@dataclass(frozen=True)
class AnyTag:
    """The TAG wildcard; matches one token and emits its actual tag."""


@dataclass(frozen=True)
class Star:
    """Matches any token run, possibly empty; emits nothing."""


_ANY_TAG = AnyTag()
_STAR = Star()


@dataclass(frozen=True)
class Pattern:
    category: QuestionType
    elements: tuple


@dataclass(frozen=True)
class PatternMatch:
    pattern: Pattern
    features: tuple[tuple[str, int], ...]


# What a pattern element is, stated once: a [...] group holding no bracket, or
# a bare token holding no bracket or whitespace. Only whitespace lies between.
_ELEMENT_RE = re.compile(r"(\[[^\[\]]*\]|[^\s\[\]]+)")


def _parse_alternatives(body: str, synonym_sets: dict[str, list[str]], path, line_no) -> list[str]:
    alternatives = []
    for alt in body.split("|"):
        alt = alt.strip()
        if not alt:
            continue
        if alt.startswith("@"):
            name = alt[1:]
            if name not in synonym_sets:
                raise ResourceFormatError(path, line_no, f"unresolved synonym set @{name}")
            alternatives.extend(synonym_sets[name])
        else:
            alt = alt.lower()
            for word in alt.split():
                one_token_word(word, path, line_no)
            alternatives.append(alt)
    return alternatives


def _parse_element(raw: str, synonym_sets: dict[str, list[str]], path, line_no):
    if raw.startswith("["):
        body = raw[1:-1].strip()
        if body == "*":
            return _STAR
        if body == "TAG":
            return _ANY_TAG
        if body in _KNOWN_TAGS:
            return TagMatch(body)
        alternatives = _parse_alternatives(body, synonym_sets, path, line_no)
        if not alternatives:
            raise ResourceFormatError(path, line_no, f"empty alternation in {raw!r}")
        phrases = [tuple(a.split()) for a in alternatives]
        # Longer phrases first so "stand for" wins over a bare "stand".
        phrases.sort(key=lambda p: (-len(p), p))
        return LiteralSet(tuple(phrases), capture=True)
    # Bare token: must match but emits no feature (the trailing ? in patterns).
    return LiteralSet(((one_token_word(raw.lower(), path, line_no),),), capture=False)


def parse_patterns(text: str, path="<patterns>") -> list[Pattern]:
    """Parse the line-oriented pattern DSL; see the bundled patterns file."""
    synonym_sets: dict[str, list[str]] = {}
    patterns: list[Pattern] = []
    for line_no, line in text_lines(text):
        line = line.strip()
        if line.startswith("@"):
            name, _, rhs = line.partition("=")
            name = name.strip().lstrip("@")
            if not name or not rhs.strip() or "[" in line or "]" in line:
                raise ResourceFormatError(path, line_no, f"bad synonym set definition: {line!r}")
            synonym_sets[name] = _parse_alternatives(rhs, synonym_sets, path, line_no)
            continue
        head, sep, rhs = line.partition(":=")
        if not sep:
            raise ResourceFormatError(path, line_no, f"expected 'CATEGORY := elements', got {line!r}")
        try:
            category = QuestionType[head.strip().upper()]
        except KeyError:
            raise ResourceFormatError(path, line_no, f"unknown category {head.strip()!r}") from None
        pieces = _ELEMENT_RE.split(rhs)  # gap, element, gap, ..., element, gap
        if any(gap.strip() for gap in pieces[::2]):
            raise ResourceFormatError(path, line_no, f"malformed element list: {rhs.strip()!r}")
        elements = tuple(
            _parse_element(tok, synonym_sets, path, line_no) for tok in pieces[1::2]
        )
        if not elements:
            raise ResourceFormatError(path, line_no, "pattern has no elements")
        patterns.append(Pattern(category, elements))
    return patterns


def load_patterns(path) -> Grammar:
    return Grammar(parse_patterns(read_text(path), path=path))


# Element codes of a compiled pattern, each a (kind, arg) pair:
#   _LITERAL_CODE  arg maps each first word to its phrases, in the set's
#                  order, as (rest of the phrase, length, feature or None)
#   _TAG_CODE      arg is the tag to match, or None for [TAG]
#   _STAR_CODE     arg is (memo slot, gate); the gate is the _start of the
#                  next element, or None at the end
#   _END_CODE      closes every pattern; arg is the pattern's number of stars
_LITERAL_CODE, _TAG_CODE, _STAR_CODE, _END_CODE = range(4)
_UNSET = object()


def _start(element) -> tuple[bool, frozenset[str]] | None:
    """Where element can start: (on tags, the words or tags it can start
    at), or None for [*] and [TAG], which can start at any token."""
    if isinstance(element, LiteralSet):
        return False, element.starts
    if isinstance(element, TagMatch):
        return True, frozenset({element.tag})
    return None


def _compile(elements) -> tuple:
    """The flat codes of a pattern's elements, ending in _END_CODE."""
    codes = []
    slots = 0
    for i, element in enumerate(elements):
        if isinstance(element, LiteralSet):
            following: dict[str, list] = {}
            for phrase in element.phrases:
                feature = " ".join(phrase) if element.capture else None
                following.setdefault(phrase[0], []).append((list(phrase[1:]), len(phrase), feature))
            codes.append((_LITERAL_CODE, {word: tuple(entries) for word, entries in following.items()}))
        elif isinstance(element, TagMatch):
            codes.append((_TAG_CODE, element.tag))
        elif isinstance(element, AnyTag):
            codes.append((_TAG_CODE, None))
        else:
            gate = _start(elements[i + 1]) if i + 1 < len(elements) else None
            codes.append((_STAR_CODE, (slots, gate)))
            slots += 1
    codes.append((_END_CODE, slots))
    return tuple(codes)


class Grammar(Sequence):
    """The patterns of a grammar in file order, compiled once for
    pattern_matches.

    Each pattern headed by a literal set is indexed under the set's first
    words; the others are tried at every token. Every pattern's elements
    become flat codes, and its needs are the _start of each element that
    has one: a question must hold a word or tag of each to match it.
    """

    def __init__(self, patterns):
        self.patterns = list(patterns)
        self.codes = [_compile(pattern.elements) for pattern in self.patterns]
        self.needs = [[start for start in map(_start, p.elements) if start is not None] for p in self.patterns]
        by_word: dict[str, list[int]] = {}
        anywhere = []
        for k, pattern in enumerate(self.patterns):
            head = _start(pattern.elements[0]) if pattern.elements else None
            if head is not None and not head[0]:  # a literal-set head
                for word in head[1]:
                    by_word.setdefault(word, []).append(k)
            else:
                anywhere.append(k)
        # Lists are filled in pattern order; sorted() merges the anywhere list in.
        self.by_word = {word: tuple(sorted(ks + anywhere)) for word, ks in by_word.items()}
        self.anywhere = tuple(anywhere)

    def __len__(self):
        return len(self.patterns)

    def __getitem__(self, index):
        return self.patterns[index]


def _match(codes, i: int, pos: int, memo: list, tags: list[str], lowered: list[str]) -> tuple[str, ...] | None:
    """The features codes[i:] capture when matched from token pos, or None
    when they do not match there. tags and lowered hold each token's tag and
    lowercased surface.

    Stars take the shortest run first, so feature attribution is the
    leftmost possible alignment. A star's forward scan tries the rest only
    where the next element can start, and records its result in the star's
    memo at every position it passes, so matching at every shift of one
    question takes time linear in the number of tokens.
    """
    kind, arg = codes[i]
    n = len(tags)
    if kind == _LITERAL_CODE:
        if pos < n:
            for rest, length, feature in arg.get(lowered[pos], ()):
                if length == 1 or lowered[pos + 1:pos + length] == rest:
                    sub = _match(codes, i + 1, pos + length, memo, tags, lowered)
                    if sub is not None:
                        return sub if feature is None else (feature, *sub)
        return None
    if kind == _END_CODE:
        return ()
    if kind == _TAG_CODE:  # both kinds emit the token's tag
        if pos < n and (arg is None or tags[pos] == arg):
            sub = _match(codes, i + 1, pos + 1, memo, tags, lowered)
            if sub is not None:
                return (tags[pos], *sub)
        return None
    slot, gate = arg
    known = memo[slot]
    result = known[pos]
    if result is not _UNSET:
        return result
    on_tags, allowed = gate or (False, None)
    column = tags if on_tags else lowered
    end, result = pos, None
    while end <= n:
        seen = known[end]
        if seen is not _UNSET:
            result = seen
            break
        if allowed is None or (end < n and column[end] in allowed):
            result = _match(codes, i + 1, end, memo, tags, lowered)
            if result is not None:
                break
        end += 1
    # Each position passed before the rest matches, or before one already
    # scanned, gets the same result.
    stop = min(end, n) + 1
    known[pos:stop] = [result] * (stop - pos)
    return result


def pattern_matches(tagged: list[tuple[str, str]], patterns: Sequence[Pattern]) -> list[PatternMatch]:
    """The matches, in pattern order, of every pattern that matches at the
    earliest token position where any pattern matches, over (surface, tag)
    pairs; [] when no pattern matches anywhere.

    patterns is a Grammar, or a list of patterns compiled here. A pattern
    headed by a literal set is tried only where the set can start, others
    at every token. Its needs are checked the first time it is tried, and
    if one is unmet it is not tried again; otherwise its star memos are
    made then and serve every later shift of the question.
    """
    grammar = patterns if isinstance(patterns, Grammar) else Grammar(patterns)
    tags = [tag for _, tag in tagged]
    lowered = [surface.lower() for surface, _ in tagged]
    n = len(tags)
    by_word, anywhere = grammar.by_word, grammar.anywhere
    memos = [_UNSET] * len(grammar)  # per pattern: its star memos, or None when its needs are unmet
    words = tag_set = None
    for shift, word in enumerate(lowered):
        heads = by_word.get(word, anywhere)
        if not heads:
            continue
        matches = []
        for k in heads:
            memo = memos[k]
            if memo is _UNSET:
                if words is None:
                    words, tag_set = set(lowered), set(tags)
                for on_tags, allowed in grammar.needs[k]:
                    if (tag_set if on_tags else words).isdisjoint(allowed):
                        memo = memos[k] = None
                        break
                else:
                    memo = memos[k] = [[_UNSET] * (n + 1) for _ in range(grammar.codes[k][-1][1])]
            if memo is None:
                continue
            captured = _match(grammar.codes[k], 0, shift, memo, tags, lowered)
            if captured is not None:
                matches.append(PatternMatch(grammar.patterns[k], tuple(sorted(Counter(captured).items()))))
        if matches:
            return matches
    return []


def match_patterns(tagged: list[tuple[str, str]], patterns: Sequence[Pattern]) -> dict[str, int]:
    """Feature vector from the pattern grammar.

    The patterns that match at the earliest position where any matches
    contribute; their feature multisets merge by maximum count, so the
    result is independent of pattern file order. Questions matching no
    pattern fall back to unigrams plus POS tags.
    """
    matches = pattern_matches(tagged, patterns)
    if not matches:
        return _fallback_features(tagged)
    merged: dict[str, int] = {}
    for m in matches:
        for feat, count in m.features:
            merged[feat] = max(merged.get(feat, 0), count)
    return merged


def _unigram_features(tagged) -> dict[str, int]:
    return dict(Counter(surface for surface, _ in tagged))

def _bigram_features(tagged) -> dict[str, int]:
    return dict(Counter(bigrams([surface for surface, _ in tagged])))

def _pos_features(tagged) -> dict[str, int]:
    return dict(Counter(tag for _, tag in tagged if tag not in _PUNCT_TAGS))


def _merge_sum(*vectors: dict[str, int]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for vec in vectors:
        for feat, count in vec.items():
            merged[feat] = merged.get(feat, 0) + count
    return merged


def _fallback_features(tagged) -> dict[str, int]:
    return _merge_sum(_unigram_features(tagged), _pos_features(tagged))


class FeatureExtractor:
    """Turns a question, raw or analysed, into a sparse feature vector."""

    def __init__(self, tag_lexicon: TagLexicon, patterns: Sequence[Pattern]):
        self.tag_lexicon = tag_lexicon
        self.patterns = patterns

    def tag(self, question: str | Question) -> list[tuple[str, str]]:
        """(surface, tag) of each token of the question; an analysed
        question is not tokenized again."""
        surfaces = question.surfaces if isinstance(question, Question) else token_surfaces(question)
        return pos_tag(surfaces, self.tag_lexicon)

    def extract(self, question: str | Question, space: str) -> dict[str, int]:
        tagged = self.tag(question)
        if space == "unigram":
            return _unigram_features(tagged)
        if space == "bigram":
            return _bigram_features(tagged)
        if space == "pos":
            return _pos_features(tagged)
        if space == "pos+unigram":
            return _merge_sum(_pos_features(tagged), _unigram_features(tagged))
        if space == "patterns":
            return match_patterns(tagged, self.patterns)
        raise UnknownFeatureSpaceError(f"unknown feature space {space!r}; expected one of {FEATURE_SPACES}")


# ---------------------------------------------------------------------------
# Linear models
# ---------------------------------------------------------------------------

@dataclass
class LinearModel:
    """Linear model with no bias: one weight map per label, scored as
    weights . features.

    meta["kind"] says how the scores are read: a "type" model predicts the
    argmax label, a "topics" model (one binary model per topic) assigns
    every label scoring above 0.
    """

    labels: tuple[str, ...]
    weights: dict[str, dict[str, float]]
    meta: dict

    def scores(self, features: dict[str, int]) -> dict[str, float]:
        return {label: sum(self.weights[label].get(f, 0.0) * c for f, c in features.items()) for label in self.labels}

    def predict(self, features: dict[str, int]) -> str:
        scores = self.scores(features)
        # max() keeps the first of equal scores, i.e. the fixed label order.
        return max(self.labels, key=lambda lab: scores[lab])


def _check_epochs(epochs: int) -> None:
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got {epochs}")


def _sgd_multiclass(X, y, n_labels, lam, epochs, seed):
    """Pegasos-style subgradient descent on the multiclass hinge loss.

    No bias term: with sparse question features a free intercept under the
    1/(lambda t) schedule swamps the evidence, and balanced margins do not
    need one.

    The rival is the first highest-scoring other label, or the true label
    itself when it is the only one; the margin update then adds and
    subtracts the same step on that row.

    The margin update touches only the example's nonzero columns: a zero
    column's step is 0.0, which leaves its weight as it is.
    """
    n, d = len(X), X[0].shape[0] if X else 0
    W = np.zeros((n_labels, d), dtype=np.float64)
    rows = [memoryview(row) for row in W]  # row buffers, made once: items are read and written as Python floats
    nonzero = [[(j, x[j].item()) for j in np.flatnonzero(x).tolist()] for x in X]
    others = [[j for j in range(n_labels) if j != label] for label in range(n_labels)]
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            scores = (W @ X[i]).tolist()
            yi = y[i]
            rival, best = yi, -math.inf
            for j in others[yi]:
                if scores[j] > best:
                    rival, best = j, scores[j]
            W *= max(0.0, 1.0 - eta * lam)
            if scores[yi] - scores[rival] < 1.0:
                gain, loss = rows[yi], rows[rival]
                for j, count in nonzero[i]:
                    step = eta * count
                    gain[j] += step
                    loss[j] -= step
    return W


def _vectorize(examples, vocabulary):
    index = {f: i for i, f in enumerate(vocabulary)}
    matrix = []
    for features in examples:
        x = np.zeros(len(vocabulary), dtype=np.float64)
        for f, c in features.items():
            x[index[f]] = float(c)
        matrix.append(x)
    return matrix


def train_type_classifier(
    examples: list[tuple[dict[str, int], QuestionType]],
    space: str,
    C: float = 1.01,
    seed: int = 42,
    epochs: int = 200,
) -> LinearModel:
    """Train the multiclass type model on (feature vector, label) pairs.

    The labels are the types present in the data, in the fixed
    YESNO < FACTOID < LIST < SUMMARY order. Training is deterministic given
    (data, space, C, seed). C must be finite and positive, and so must
    lam = 1/(C*n); epochs must be at least 1.
    """
    if not examples:
        raise ValueError("no training examples")
    _check_epochs(epochs)
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")
    lam = 1.0 / (C * len(examples))
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"C={C} is out of range for {len(examples)} examples: 1/(C*n) = {lam}")
    present = {label for _, label in examples}
    labels = tuple(t for t in TYPE_ORDER if t in present)

    seen: dict[tuple, QuestionType] = {}
    for features, label in examples:
        key = tuple(sorted(features.items()))
        if key in seen and seen[key] != label:
            warnings.warn(
                f"identical feature vector labeled both {seen[key].value} and {label.value}",
                stacklevel=2,
            )
        seen.setdefault(key, label)

    vocabulary = sorted({f for features, _ in examples for f in features})
    X = _vectorize([f for f, _ in examples], vocabulary)
    label_index = {lab: i for i, lab in enumerate(labels)}
    y = [label_index[label] for _, label in examples]
    W = _sgd_multiclass(X, y, len(labels), lam, epochs, seed)

    weights = {
        lab.value: {f: float(W[i, j]) for j, f in enumerate(vocabulary) if W[i, j] != 0.0}
        for lab, i in label_index.items()
    }
    meta = {"space": space, "C": C, "seed": seed, "epochs": epochs, "kind": "type"}
    return LinearModel(tuple(lab.value for lab in labels), weights, meta)


def classify_type(model: LinearModel, question: str | Question, extractor: FeatureExtractor) -> QuestionType:
    features = extractor.extract(question, model.meta["space"])
    return QuestionType(model.predict(features))


def training_accuracy(model: LinearModel, examples) -> float:
    return accuracy([model.predict(f) for f, _ in examples], [label.value for _, label in examples])


# ---------------------------------------------------------------------------
# Topic classification
# ---------------------------------------------------------------------------

def extract_topic_features(
    question: str,
    *,
    stopwords: set[str],
    concept_lexicon: ConceptLexicon,
    dep_pairs: list[tuple[str, str, str]] | None = None,
) -> dict[str, int]:
    """Feature vector for topic models: the counts of BOW (unigrams minus
    stopwords), BOB (bigrams), BOS (Porter stems) and BOCST (concept cuis
    and tuis) summed, plus BOSDR (the externally supplied dependency
    relations) when dep_pairs is given.
    """
    question = question_of(question, concept_lexicon)
    content = [(s, low) for s, low in zip(question.surfaces, question.lowered) if is_content_word(low, stopwords)]
    concepts = Counter(key for cui in question.cuis for key in (cui, concept_lexicon.get(cui).tui))
    return _merge_sum(
        Counter(s for s, _ in content),
        Counter(bigrams(question.surfaces)),
        Counter(stem(low) for _, low in content),
        concepts,
        Counter(f"{rel.lower()}({head.lower()},{dep.lower()})" for rel, head, dep in dep_pairs or ()),
    )


# The SVM constant C of every topic model; the saved meta records it.
TOPIC_C = 1.01


def _sgd_binary(X, y, lam, epochs, seed):
    # Bias-free for the same reason as the multiclass trainer: the
    # positive/negative sets are balanced by construction.
    d = X[0].shape[0] if X else 0
    w = np.zeros(d, dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(X)).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            w *= max(0.0, 1.0 - eta * lam)
            if y[i] * float(w @ X[i]) < 1.0:
                w += eta * y[i] * X[i]
    return w


def train_topic_models(
    examples: list[tuple[dict[str, int], set[str]]],
    seed: int = 42,
    epochs: int = 200,
) -> LinearModel:
    """One balanced binary model per topic of TOPICS, as a topics
    LinearModel whose labels are the trained topics.

    Positives are the questions labeled with the topic; negatives are an
    equal-size uniform sample of the rest drawn with a per-topic seed
    (master seed + topic index). Topics with no positives are skipped
    with a warning. epochs must be at least 1.
    """
    _check_epochs(epochs)
    weights: dict[str, dict[str, float]] = {}
    for topic_index, topic in enumerate(TOPICS):
        positives = [f for f, ts in examples if topic in ts]
        rest = [f for f, ts in examples if topic not in ts]
        if not positives:
            warnings.warn(f"topic {topic!r} has no positive examples; skipped", stacklevel=2)
            continue
        rng = np.random.default_rng(seed + topic_index)
        n_neg = min(len(positives), len(rest))
        chosen = sorted(rng.choice(len(rest), size=n_neg, replace=False).tolist()) if n_neg else []
        negatives = [rest[i] for i in chosen]
        data = [(f, 1) for f in positives] + [(f, -1) for f in negatives]
        vocabulary = sorted({f for feats, _ in data for f in feats})
        X = _vectorize([f for f, _ in data], vocabulary)
        y = [lab for _, lab in data]
        lam = 1.0 / (TOPIC_C * len(data))
        w = _sgd_binary(X, y, lam, epochs, seed + topic_index)
        weights[topic] = {f: float(w[j]) for j, f in enumerate(vocabulary) if w[j] != 0.0}
    return LinearModel(tuple(weights), weights, meta={"seed": seed, "C": TOPIC_C, "epochs": epochs, "kind": "topics"})


def classify_topics(model: LinearModel, features: dict[str, int]) -> set[str]:
    """Every label of a topics model whose score is strictly positive."""
    return {topic for topic, score in model.scores(features).items() if score > 0.0}


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def save_model(model: LinearModel, path) -> None:
    payload = {"version": MODEL_FORMAT_VERSION, "labels": list(model.labels),
               "weights": model.weights, "meta": model.meta}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _is_weight_map(value) -> bool:
    """A map of feature -> finite number."""
    return isinstance(value, dict) and all(
        isinstance(w, (int, float)) and not isinstance(w, bool) and math.isfinite(w) for w in value.values()
    )


def load_model(path):
    """A model saved by save_model; any other content is refused naming the file.

    Both kinds are one shape: labels, one weights map of feature -> finite
    number per label, and meta, whose kind ("type" or "topics") is the
    model's. A type model has at least one label, each a question type,
    and its meta names a space of FEATURE_SPACES.
    """
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a model object")
    version = payload.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(f"{path}: model format version {version!r}, expected {MODEL_FORMAT_VERSION}")
    meta = payload.get("meta")
    if not isinstance(meta, dict):
        raise ModelFormatError(f"{path}: model meta is not an object")
    kind = meta.get("kind")
    if kind not in ("type", "topics"):
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    labels, weights = payload.get("labels"), payload.get("weights")
    if not isinstance(labels, list) or (kind == "type" and not labels):
        raise ModelFormatError(f"{path}: {kind} model has no 'labels' list")
    if not isinstance(weights, dict):
        raise ModelFormatError(f"{path}: {kind} model has no 'weights' object")
    types = [t.value for t in QuestionType]
    for label in labels:
        if kind == "type" and label not in types:
            raise ModelFormatError(f"{path}: label {label!r} is not a question type")
        if not isinstance(label, str) or not _is_weight_map(weights.get(label)):
            raise ModelFormatError(f"{path}: label {label!r} has no weights map of feature -> finite number")
    if kind == "type" and meta.get("space") not in FEATURE_SPACES:
        raise ModelFormatError(f"{path}: meta space {meta.get('space')!r} is not one of {FEATURE_SPACES}")
    return LinearModel(tuple(labels), weights, meta)
