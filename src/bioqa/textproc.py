"""Shallow linguistic processing shared by every pipeline stage.

Everything in here is deterministic and resource-driven: the tagger is a
lexicon plus a handful of suffix heuristics (coarse tags are all the
question patterns need), sentence splitting is rule based with an editable
abbreviation list, and stemming is the Porter algorithm.

Every input file is read here (read_text), and the rules of resource files
are stated here once: text_lines says which lines of a text carry data, and
data_fields how a tab-separated line splits into stripped fields.

Memo is the one kind of state resource objects keep across requests: a
dict on the object that fills a miss from a function and is cleared at
MEMO_BOUND entries; memo_of holds its identity rule. The one other cache
is stem's process-wide lru_cache, of the same bound.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache
from operator import is_not
from pathlib import Path
from typing import Iterator, Sequence


class ResourceFormatError(ValueError):
    """An input file did not parse at a line; carries file and line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def read_text(path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is refused naming
    the file and the line of its first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file in one call, so exc.object is all of it.
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        bad = exc.object[exc.start]
        raise ResourceFormatError(path, line_no, f"not UTF-8 (byte {bad:#04x}: {exc.reason})") from None


def text_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a resource text that carries data.

    Blank lines and lines whose first non-blank character is '#' are
    skipped; line numbers still count them, so errors cite the line an
    editor shows. Lines end at "\n" only (read_text has already turned
    "\r\n" and "\r" into it): U+2028, U+0085 and the other breaks
    str.splitlines knows may stand raw inside a JSON string.
    """
    for line_no, line in enumerate(text.split("\n"), 1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


def data_lines(path) -> Iterator[tuple[int, str]]:
    """The text_lines of a UTF-8 file."""
    return text_lines(read_text(path))


def data_fields(path) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, fields) for each data line of a tab-separated
    file: the line split at every tab, each field stripped."""
    for line_no, line in data_lines(path):
        yield line_no, line, [field.strip() for field in line.split("\t")]


def read_json(path):
    """The decoded value of a JSON file; invalid JSON names the file and line."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ResourceFormatError(path, exc.lineno, f"invalid JSON ({exc.msg})") from None


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int


@dataclass(frozen=True)
class Sentence:
    text: str
    start: int
    end: int


# Characters that always stand alone as tokens. Hyphens, slashes and
# apostrophes stay inside words ("35-kilogram", "and/or", "Bruton's").
_TOKEN_RE = re.compile(r"[()\[\]{},?.:;!\"]|[^\s()\[\]{},?.:;!\"]+")

def tokenize(text: str) -> list[Token]:
    """Split text into tokens with character offsets.

    Listed punctuation characters become single-character tokens; any other
    run of non-space characters is one token.
    """
    return [Token(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def token_surfaces(text: str) -> list[str]:
    """The surfaces of tokenize(text), without offsets or Token objects."""
    return _TOKEN_RE.findall(text)


def one_token_word(word: str, path, line_no) -> str:
    """word, when the tokenizer emits it as one token, token_surfaces(word)
    == [word]; otherwise a ResourceFormatError naming the file and line.
    A resource word the tokenizer splits could never match a token."""
    if token_surfaces(word) != [word]:
        raise ResourceFormatError(path, line_no, f"{word!r} is not one token: the tokenizer reads {token_surfaces(word)}")
    return word


def bigrams(tokens: Sequence[str]) -> list[str]:
    """Each pair of adjacent token surfaces, joined with '-'."""
    return [f"{a}-{b}" for a, b in zip(tokens, tokens[1:])]


def load_stopwords(path) -> set[str]:
    """One word per line, lowercased; each must be one token."""
    return {one_token_word(line.strip().lower(), path, i) for i, line in data_lines(path)}


def is_content_word(lower: str, stopwords: set[str]) -> bool:
    """Whether a token, lowercased as lower, is a content word: not a
    stopword, and holding an alphanumeric character."""
    # isalnum() first: most words are all alphanumeric, and then the any() is not needed.
    return lower not in stopwords and (lower.isalnum() or any(ch.isalnum() for ch in lower))


def load_abbreviations(path) -> set[str]:
    """Abbreviations (with trailing period) that never end a sentence."""
    abbrevs = set()
    for i, line in data_lines(path):
        line = line.strip()
        if not line.endswith("."):
            raise ResourceFormatError(path, i, f"abbreviation must end with a period: {line!r}")
        abbrevs.add(line.lower())
    return abbrevs


_BOUNDARY_RE = re.compile(r"[.!?]")
# \S matches exactly the characters str.isspace rejects.
_NON_SPACE_RE = re.compile(r"\S")
_LEADING_PUNCT = "([\"'"


def split_sentences(text: str, abbreviations: set[str]) -> list[Sentence]:
    """Rule-based sentence splitting.

    A '.', '!' or '?' ends a sentence when it is followed by whitespace and
    then an uppercase letter or digit, unless the word it terminates is in
    the abbreviation list (compared with its trailing period, case folded).
    """
    boundaries = []
    for m in _BOUNDARY_RE.finditer(text):
        pos = m.end()
        if pos >= len(text):
            continue
        if not text[pos].isspace():
            continue
        following = _NON_SPACE_RE.search(text, pos)
        if following is None:
            continue
        first = following.group()
        if not (first.isupper() or first.isdigit()):
            continue
        if m.group(0) == ".":
            word_start = pos - 1
            while word_start > 0 and not text[word_start - 1].isspace():
                word_start -= 1
            word = text[word_start:pos].lstrip(_LEADING_PUNCT).lower()
            if word in abbreviations:
                continue
        boundaries.append(pos)

    sentences = []
    cursor = 0
    for b in boundaries + [len(text)]:
        chunk = text[cursor:b]
        stripped = chunk.strip()
        if stripped:
            start = cursor + (len(chunk) - len(chunk.lstrip()))
            end = start + len(stripped)
            sentences.append(Sentence(text[start:end], start, end))
        cursor = b
    return sentences


class TagLexicon:
    """Word -> POS lookup table read from a TSV file.

    The file also implicitly declares the verb stems used by the '-s' rule
    (every entry tagged VB).
    """

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)
        self.verb_stems = {w for w, t in self.entries.items() if t == "VB"}

    @classmethod
    def from_file(cls, path) -> "TagLexicon":
        entries: dict[str, str] = {}
        for i, line, fields in data_fields(path):
            if len(fields) != 2 or not all(fields):
                raise ResourceFormatError(path, i, f"expected 'word<TAB>tag', got {line!r}")
            entries[one_token_word(fields[0].lower(), path, i)] = fields[1]
        return cls(entries)


def _is_capitalized(surface: str) -> bool:
    return surface[:1].isalpha() and surface[:1].isupper()


def pos_tag(surfaces: Sequence[str], lexicon: TagLexicon) -> list[tuple[str, str]]:
    """(surface, tag) of each token surface of a text. The tag is the
    word's lexicon entry, else a suffix heuristic's, else NN.

    Heuristics, in order: -s on a known verb stem is VBZ, -ing is VBG,
    -ed is VBN, -ly is RB, a capitalized non-initial word is NNP, a
    digit-led hyphenated word is JJ, a plural-looking -s word is NNS.
    """
    return [(s, word_tag(s, s.lower(), i, lexicon)) for i, s in enumerate(surfaces)]


def word_tag(surface: str, lower: str, index: int, lexicon: TagLexicon) -> str:
    """The tag pos_tag gives the token surface (lowercased: lower) at
    position index of its text: its lexicon entry, else the heuristics."""
    tag = lexicon.entries.get(lower)
    return _heuristic_tag(surface, lower, index, lexicon) if tag is None else tag


def _heuristic_tag(surface: str, lower: str, index: int, lexicon: TagLexicon) -> str:
    if lower.endswith("s") and (lower[:-1] in lexicon.verb_stems or lower[:-2] in lexicon.verb_stems):
        return "VBZ"
    if lower.endswith("ing") and len(lower) > 4:
        return "VBG"
    if lower.endswith("ed") and len(lower) > 3:
        return "VBN"
    if lower.endswith("ly") and len(lower) > 3:
        return "RB"
    if index > 0 and _is_capitalized(surface):
        return "NNP"
    if "-" in surface and surface[:1].isdigit():
        return "JJ"
    if lower.endswith("s") and not lower.endswith("ss") and len(lower) >= 3 and lower.isalpha():
        return "NNS"
    return "NN"


# Entries any one Memo holds before it is cleared; also stem's memo bound.
MEMO_BOUND = 1 << 16


class Memo(dict):
    """key -> fill(key, owner, *deps), computed on a miss and kept.

    A miss on a memo holding MEMO_BOUND entries clears it first. The owner
    is held through a weakref, so a memo kept on its owner forms no cycle.
    """

    def __init__(self, fill, owner, deps):
        super().__init__()
        self.fill = fill
        self.owner = weakref.ref(owner)
        self.deps = deps

    def __missing__(self, key):
        if len(self) >= MEMO_BOUND:
            self.clear()
        value = self[key] = self.fill(key, self.owner(), *self.deps)
        return value


def memo_of(owner, fill, *deps) -> Memo:
    """owner's Memo of fill over deps, kept in owner._memos by fill.

    A memo holds for the dep objects it was made with: asked with any dep
    that is another object, even an equal one, it is replaced by a new,
    empty memo. An owner or dep is therefore not to be changed once a memo
    has been filled from it. Callers fetch a memo once per stage call, not
    per key, and pass fill by its module global, so that a patched fill
    gets a memo of its own.
    """
    try:
        memos = owner._memos
    except AttributeError:
        memos = owner._memos = {}
    memo = memos.get(fill)
    if memo is None or any(map(is_not, memo.deps, deps)):
        memo = memos[fill] = Memo(fill, owner, deps)
    return memo


# ---------------------------------------------------------------------------
# Porter stemmer
# ---------------------------------------------------------------------------
#
# Suffix-stripping stemmer after Porter (1980), in the form distributed by
# the author (which folds in the widely adopted 'bli'/'logi' step-2
# adjustments). Operates on lowercase words; anything shorter than three
# characters is returned unchanged.

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # Number of VC sequences in the [C](VC)^m[V] decomposition.
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_cons(stem, i):
        i += 1
    while True:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i >= n:
            return m
        m += 1
        while i < n and _is_cons(stem, i):
            i += 1
        if i >= n:
            return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_cons(word, len(word) - 3) and not _is_cons(word, len(word) - 2) and _is_cons(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


def _replace(word: str, suffix: str, repl: str, min_measure: int) -> str:
    # Apply 'suffix -> repl' when the remaining stem has measure > min_measure.
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + repl
    return word


def _step1ab(word: str) -> str:
    if word.endswith("s"):
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith("ies"):
            word = word[:-3] + "i"
        elif not word.endswith("ss"):
            word = word[:-1]
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
        return word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if not _has_vowel(stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _ends_double_cons(stem) and stem[-1] not in "lsz":
                return stem[:-1]
            if _measure(stem) == 1 and _ends_cvc(stem):
                return stem + "e"
            return stem
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

# Ordered so that longer suffixes shadow their tails (ement > ment > ent).
_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if not word.endswith(suffix):
            continue
        stem_part = word[: len(word) - len(suffix)]
        if suffix == "ion" and not (stem_part and stem_part[-1] in "st"):
            continue
        if _measure(stem_part) > 1:
            return stem_part
        return word  # matched suffix but measure too small; no further tries
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _measure(word[:-1]) > 1:
        word = word[:-1]
    return word


@lru_cache(maxsize=MEMO_BOUND)
def stem(word: str) -> str:
    """Porter stem of a word (lowercased first).

    Memoised by the word as given: a corpus repeats a small vocabulary, so
    most calls are lookups. The bound keeps arbitrary text from growing the
    memo without limit. Index terms mostly do not reach it: retrieval.analyse
    reads them from the lexicon's word memo and calls stem only on a miss.
    """
    word = word.lower()
    if len(word) <= 2:
        return word
    word = _step1ab(word)
    word = _step1c(word)
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            word = _replace(word, suffix, repl, 0)
            break
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            word = _replace(word, suffix, repl, 0)
            break
    word = _step4(word)
    word = _step5(word)
    return word
