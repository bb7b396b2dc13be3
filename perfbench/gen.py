"""Seeded benchmark inputs built from the bundled resource files.

The generator reads only data files (corpus, questions, lexicon,
stopwords) and never imports bioqa, so a given seed yields byte-identical
inputs at every commit of the program under test.

Synthetic documents reuse bundled titles and abstract sentences, but every
word that belongs to no concept surface form may be swapped for a seeded
pseudo-word, and concept mentions may be swapped for other lexicon
concepts. Sentence texts are therefore mostly distinct (a text-keyed cache
sees realistic hit rates) while concept mentions, which the queries match
on, survive intact. Synthetic questions reuse the bundled question shapes
with lexicon concepts put in place of their named entity; all are distinct.
A question takes its query kind from its shape: only a shape that names a
lexicon concept gets concepts put in, so the share of questions whose query
holds no concept (and relaxes to a disjunctive search) is the share of such
shapes among the bundled questions.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Punctuation that stands alone as a token; anything else between spaces is
# one word (hyphens and slashes stay inside, as in "Tay-Sachs").
_TOKEN_RE = re.compile(r"[()\[\]{},?.:;!\"]|[^\s()\[\]{},?.:;!\"]+")
_SENTENCE_END_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9])")

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "cl", "dr", "gl", "pr", "st", "tr", "ch", "th", "ph"]
_VOWELS = ["a", "e", "i", "o", "u", "ae", "io", "ou"]
_SUFFIXES = ["", "", "ic", "al", "ine", "ase", "osis", "ated", "ing", "ity", "ous", "ment", "ogen"]

# Probabilities that shape the synthetic corpus; fixed so that every seed
# draws from the same distribution.
WORD_SWAP_P = 0.5        # eligible non-concept word replaced by a pseudo-word
CONCEPT_SWAP_P = 0.35    # concept mention replaced by another concept
SAME_SOURCE_P = 0.6      # abstract sentence drawn from the title's own document
PSEUDO_VOCAB = 6000
SENTENCES_PER_DOC = (3, 6)   # the bundled abstracts hold 3 to 8 sentences


@dataclass(frozen=True)
class Concept:
    semantic_type: str
    surfaces: tuple[str, ...]


@dataclass
class Sources:
    """The bundled data the generator draws from."""

    titles: list[str]
    sentences_by_doc: list[list[str]]
    question_shapes: list[dict]
    concepts: list[Concept]
    stopwords: set[str]

    @classmethod
    def load(cls, resource_dir) -> "Sources":
        resource_dir = Path(resource_dir)
        titles, sentences_by_doc = [], []
        for line in (resource_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines():
            if line.strip():
                doc = json.loads(line)
                titles.append(doc["title"])
                sentences_by_doc.append(_SENTENCE_END_RE.split(doc["abstract"].strip()))
        shapes = []
        for name in ("questions.json", "demo_gold.json"):
            payload = json.loads((resource_dir / name).read_text(encoding="utf-8"))
            shapes.extend({"body": q["body"], "type": q["type"]} for q in payload["questions"])
        concepts = []
        for line in (resource_dir / "concepts.tsv").read_text(encoding="utf-8").splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            synonyms = [s.strip() for s in parts[4].split("|")] if len(parts) > 4 and parts[4].strip() else []
            surfaces = tuple(dict.fromkeys([parts[1].strip(), *(s for s in synonyms if s)]))
            concepts.append(Concept(parts[3].strip(), surfaces))
        stopwords = {
            w.strip().lower()
            for w in (resource_dir / "stopwords.txt").read_text(encoding="utf-8").splitlines()
            if w.strip() and not w.startswith("#")
        }
        return cls(titles, sentences_by_doc, shapes, concepts, stopwords)


class _Matcher:
    """Greedy longest match of lexicon surface forms over lowercase tokens."""

    def __init__(self, concepts: list[Concept]):
        self.by_key: dict[tuple[str, ...], Concept] = {}
        for concept in concepts:
            for surface in concept.surfaces:
                key = tuple(t.lower() for t in _TOKEN_RE.findall(surface))
                self.by_key.setdefault(key, concept)
        self.max_len = max(len(k) for k in self.by_key)
        self.protected = {t for key in self.by_key for t in key}

    def mentions(self, tokens: list[re.Match]) -> list[tuple[int, int, Concept]]:
        """(first token, end token, concept) of each non-overlapping mention."""
        found, i, lowered = [], 0, [m.group(0).lower() for m in tokens]
        while i < len(tokens):
            for length in range(min(self.max_len, len(tokens) - i), 0, -1):
                concept = self.by_key.get(tuple(lowered[i : i + length]))
                if concept is not None:
                    found.append((i, i + length, concept))
                    i += length
                    break
            else:
                i += 1
        return found


def _apply(text: str, edits: list[tuple[int, int, str]]) -> str:
    """text with each (start, end, replacement) edit made; edits do not overlap."""
    out, cursor = [], 0
    for start, end, new in sorted(edits):
        out += [text[cursor:start], new]
        cursor = end
    out.append(text[cursor:])
    return "".join(out)


class Generator:
    """Seeded synthetic corpus and question set."""

    def __init__(self, sources: Sources, seed: int):
        self.sources = sources
        self.rng = random.Random(seed)
        self.matcher = _Matcher(sources.concepts)
        self.by_type: dict[str, list[Concept]] = {}
        for concept in sources.concepts:
            self.by_type.setdefault(concept.semantic_type, []).append(concept)
        self.vocab = self._pseudo_vocabulary()
        # Zipf-like weights, so pseudo-words have a realistic spread of
        # document frequencies.
        total, self.cum_weights = 0.0, []
        for rank in range(len(self.vocab)):
            total += 1.0 / (rank + 1)
            self.cum_weights.append(total)

    def _pseudo_vocabulary(self) -> list[str]:
        words: dict[str, None] = {}
        while len(words) < PSEUDO_VOCAB:
            syllables = self.rng.randint(2, 4)
            word = "".join(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) for _ in range(syllables))
            word += self.rng.choice(_SUFFIXES)
            if word not in self.sources.stopwords and word not in self.matcher.protected:
                words[word] = None
        return list(words)

    def _pseudo_word(self, like: str) -> str:
        word = self.rng.choices(self.vocab, cum_weights=self.cum_weights)[0]
        return word.capitalize() if like[:1].isupper() else word

    def _eligible(self, word: str) -> bool:
        return (
            len(word) >= 4
            and word.isalpha()
            and word.lower() not in self.sources.stopwords
            and word.lower() not in self.matcher.protected
        )

    def _swap_concept(self, concept: Concept) -> str:
        pool = self.by_type[concept.semantic_type] if self.rng.random() < 0.5 else self.sources.concepts
        return self.rng.choice(self.rng.choice(pool).surfaces)

    def perturb(self, text: str) -> str:
        """Swap non-concept words and some concept mentions; keep layout."""
        tokens = list(_TOKEN_RE.finditer(text))
        edits, in_mention = [], set()
        for first, end, concept in self.matcher.mentions(tokens):
            in_mention.update(range(first, end))
            if self.rng.random() < CONCEPT_SWAP_P:
                edits.append((tokens[first].start(), tokens[end - 1].end(), self._swap_concept(concept)))
        for i, tok in enumerate(tokens):
            if i not in in_mention and self._eligible(tok.group(0)) and self.rng.random() < WORD_SWAP_P:
                edits.append((tok.start(), tok.end(), self._pseudo_word(tok.group(0))))
        return _apply(text, edits)

    def corpus(self, n_docs: int) -> tuple[list[dict], dict]:
        """n_docs synthetic documents and the corpus properties."""
        docs, sentences = [], []
        n_sources = len(self.sources.titles)
        for i in range(n_docs):
            source = self.rng.randrange(n_sources)
            picked = []
            for _ in range(self.rng.randint(*SENTENCES_PER_DOC)):
                doc = source if self.rng.random() < SAME_SOURCE_P else self.rng.randrange(n_sources)
                picked.append(self.perturb(self.rng.choice(self.sources.sentences_by_doc[doc])))
            sentences.extend(picked)
            docs.append({
                "doc_id": f"syn{i:06d}",
                "title": self.perturb(self.sources.titles[source]),
                "abstract": " ".join(picked),
            })
        properties = {
            "documents": n_docs,
            "sentences": len(sentences),
            "distinct_sentence_share": len(set(sentences)) / len(sentences),
            "distinct_title_share": len({d["title"] for d in docs}) / n_docs,
        }
        return docs, properties

    def _entity_slot(self, tokens: list[re.Match]) -> re.Match | None:
        """A shape's named entity: the last word after the first that holds
        a capital or a digit and is no lexicon word."""
        for tok in reversed(tokens[1:]):
            word = tok.group(0)
            if word[:1].isalnum() and word.lower() not in self.matcher.protected:
                if any(ch.isupper() or ch.isdigit() for ch in word):
                    return tok
        return None

    def question(self, shape: dict) -> str:
        """One shape with lexicon concepts put into it.

        A shape that names a lexicon concept gets a random concept in place
        of its named entity and one of the same semantic type in place of
        each mention. A shape that names none is left as it is, so its query
        stays without concepts as the bundled question's does. Every
        question gets a pseudo-word modifier, which makes the space of
        distinct questions large; a query with concepts ignores it.
        """
        body = shape["body"]
        tokens = list(_TOKEN_RE.finditer(body))
        mentions = self.matcher.mentions(tokens)
        edits = []
        if mentions:
            edits = [
                (tokens[first].start(), tokens[end - 1].end(),
                 self.rng.choice(self.rng.choice(self.by_type[concept.semantic_type]).surfaces))
                for first, end, concept in mentions
            ]
            slot = self._entity_slot(tokens)
            if slot is not None:
                edits.append((slot.start(), slot.end(),
                              self.rng.choice(self.rng.choice(self.sources.concepts).surfaces)))
        eligible = [tok for tok in tokens[1:] if self._eligible(tok.group(0))]
        if eligible:
            word = self.rng.choice(eligible)
            edits.append((word.start(), word.start(), self._pseudo_word(word.group(0)) + " "))
        else:
            at = tokens[-1].start() if not tokens[-1].group(0).isalnum() else len(body)
            edits.append((at, at, " " + self._pseudo_word("")))
        return _apply(body, edits)

    def questions(self, n: int) -> list[dict]:
        """n distinct questions; shapes are used round-robin in a seeded order."""
        shapes = list(self.sources.question_shapes)
        self.rng.shuffle(shapes)
        seen: set[str] = set()
        out = []
        attempts = 0
        while len(out) < n:
            shape = shapes[len(out) % len(shapes)]
            body = self.question(shape)
            attempts += 1
            if attempts > 50 * n:
                raise RuntimeError(f"could not generate {n} distinct questions")
            if body in seen:
                continue
            seen.add(body)
            out.append({"id": f"synq{len(out):05d}", "body": body, "type": shape["type"]})
        return out
