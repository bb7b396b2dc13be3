"""Properties of the text layer on arbitrary input.

Empty, whitespace-only, arbitrary Unicode and ~100k-character texts go
through tokenize, recognize and split_sentences, whose offsets must slice
back to what they report; answer_pipeline must answer any such question,
short or long, without raising.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioqa.answer import answer_pipeline
from bioqa.conceptlex import recognize
from bioqa.ingest import load_corpus, load_resources
from bioqa.textproc import split_sentences, tokenize

from conftest import RESOURCE_DIR

BUNDLE = load_resources(RESOURCE_DIR / "manifest.json")
CORPUS_TEXT = " ".join(f"{d.title} {d.abstract}" for d in load_corpus(RESOURCE_DIR / "corpus.jsonl"))
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0    　"
LONG = 100_000

_words = st.sampled_from(sorted(set(CORPUS_TEXT.split()) | {"e.g.", "i.e.", "?", "!", "...", "Ünïcode", "漢字"}))
_texts = st.one_of(
    st.just(""),
    st.text(alphabet=WHITESPACE),
    st.text(),
    st.lists(st.one_of(_words, st.text(alphabet=WHITESPACE, min_size=1)), max_size=40).map(" ".join),
)


def repeated(piece):
    """piece repeated to LONG characters."""
    return (piece * (LONG // len(piece) + 1))[:LONG]


_long_texts = st.text(min_size=1, max_size=12).map(repeated)
LONG_CORPUS_TEXT = (CORPUS_TEXT * (LONG // len(CORPUS_TEXT) + 1))[:LONG]


def check_tokens(text):
    tokens = tokenize(text)
    for token in tokens:
        assert token.surface and text[token.start:token.end] == token.surface
    assert all(a.end <= b.start for a, b in zip(tokens, tokens[1:]))


def check_mentions(text):
    mentions = recognize(text, BUNDLE.concept_lexicon)
    for mention in mentions:
        assert text[mention.start:mention.end] == mention.matched
    # In order and not overlapping.
    assert all(a.end <= b.start for a, b in zip(mentions, mentions[1:]))


def check_sentences(text):
    sentences = split_sentences(text, BUNDLE.abbreviations)
    for sentence in sentences:
        assert sentence.text and text[sentence.start:sentence.end] == sentence.text
    assert all(a.end <= b.start for a, b in zip(sentences, sentences[1:]))
    covered = bytearray(len(text))
    for sentence in sentences:
        covered[sentence.start:sentence.end] = b"\x01" * (sentence.end - sentence.start)
    assert all(covered[i] for i, ch in enumerate(text) if not ch.isspace())


class TestTextLayer:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(text=_texts)
    @example(text="")
    @example(text=WHITESPACE)
    @example(text="Dr. Smith arrived. e.g. He left! Did she? 3 more.")
    def test_offsets_slice_back(self, text):
        check_tokens(text)
        check_mentions(text)
        check_sentences(text)

    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(text=_long_texts)
    @example(text=LONG_CORPUS_TEXT)
    def test_offsets_slice_back_on_long_text(self, text):
        check_tokens(text)
        check_mentions(text)
        check_sentences(text)


class TestPipelineOnAnyQuestion:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(question=_texts)
    @example(question="")
    @example(question=WHITESPACE)
    @example(question="Which gene is mutated in Muenke syndrome?")
    def test_answers_without_raising(self, bundle, corpus, doc_index, type_model, question):
        answer_pipeline(question, corpus, doc_index, type_model, bundle)

    # Two shapes that do much work per character: many patterns start over
    # at each "which" and "what", and "A. " makes every other token a
    # sentence end.
    @settings(max_examples=1, deadline=None, derandomize=True, database=None)
    @given(question=_long_texts)
    @example(question=repeated("Which what is the ? "))
    @example(question=repeated("A. "))
    def test_answers_long_questions_without_raising(self, bundle, corpus, doc_index, type_model, question):
        answer_pipeline(question, corpus, doc_index, type_model, bundle)
