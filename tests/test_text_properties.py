"""Properties of the text layer on arbitrary input.

Empty, whitespace-only, arbitrary Unicode and ~100k-character texts go
through tokenize, recognize and split_sentences, whose offsets must slice
back to what they report; answer_pipeline must answer any such question,
short or long, without raising. The one-pass analysis (token_surfaces,
then stems and longest_matches over the same lowercased surfaces) must
equal a two-pass analysis over Token objects and recognize, on the same
texts and on every bundled sentence, title and question. So must the
yes/no vote's passage_sentiment, which tags only sentiment words, equal
one that tags every token, and pattern_matches, which tries every pattern
at one token position before the next, equal a scan of every token by each
pattern in turn, filtered to the earliest shift.
The question's tags and topic features, read from its token surfaces,
must equal references over Token objects and recognize, and its query's
raw terms must be the surfaces analyse indexes as stems.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioqa import answer
from bioqa.answer import answer_pipeline, passage_sentiment
from bioqa.conceptlex import (
    ConceptLexicon,
    SentimentEntry,
    SentimentLexicon,
    coarse_tag_class,
    recognize,
    title_cuis,
    word_sentiment,
)
from bioqa.ingest import load_corpus, load_questions, load_resources
from bioqa.qclass import (
    AnyTag,
    FeatureExtractor,
    LiteralSet,
    PatternMatch,
    Star,
    extract_topic_features,
    pattern_matches,
)
from bioqa.retrieval import Query, analyse, formulate_query
from bioqa.textproc import (
    _BOUNDARY_RE,
    _LEADING_PUNCT,
    Sentence,
    TagLexicon,
    pos_tag,
    split_sentences,
    stem,
    token_surfaces,
    tokenize,
    word_tag,
)

from conftest import RESOURCE_DIR, earliest

BUNDLE = load_resources(RESOURCE_DIR / "manifest.json")
DOCS = load_corpus(RESOURCE_DIR / "corpus.jsonl")
CORPUS_TEXT = " ".join(f"{d.title} {d.abstract}" for d in DOCS)
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
    assert token_surfaces(text) == [t.surface for t in tokens]


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
    @settings(max_examples=200)
    @given(text=_texts)
    @example(text="")
    @example(text=WHITESPACE)
    @example(text="Dr. Smith arrived. e.g. He left! Did she? 3 more.")
    def test_offsets_slice_back(self, text):
        check_tokens(text)
        check_mentions(text)
        check_sentences(text)

    @settings(max_examples=3)
    @given(text=_long_texts)
    @example(text=LONG_CORPUS_TEXT)
    def test_offsets_slice_back_on_long_text(self, text):
        check_tokens(text)
        check_mentions(text)
        check_sentences(text)


def reference_split_sentences(text, abbreviations):
    """split_sentences as first written, kept verbatim as its oracle: it
    copies the rest of the text at every boundary candidate, so its time
    grows with the square of the number of sentences."""
    boundaries = []
    for m in _BOUNDARY_RE.finditer(text):
        pos = m.end()
        if pos >= len(text):
            continue
        if not text[pos].isspace():
            continue
        rest = text[pos:].lstrip()
        if not rest or not (rest[0].isupper() or rest[0].isdigit()):
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


# Sentence ends, abbreviations (bare, quoted, bracketed, upper case) and
# what may follow them: upper case, lower case, digits, punctuation.
_boundary_texts = st.lists(st.one_of(
    st.sampled_from(["Ab.", "ab.", "e.g.", "E.G.", "(i.e.", '"Dr.', "Fig.", "3.", "x?", "Y!", "?", "!.", ".",
                     "A", "b", "9", "Ünïcode.", "漢字。", "ǅ", "(", ""]),
    st.text(alphabet=WHITESPACE, min_size=1),
), max_size=40).map("".join)


class TestSentenceSplitter:
    @settings(max_examples=300)
    @given(text=st.one_of(_texts, _boundary_texts))
    @example(text="Dr. Smith arrived. e.g. He left! Did she? 3 more.")
    @example(text="End.\u2003\u00a0Next" + "." + WHITESPACE)
    def test_equals_reference(self, text):
        assert split_sentences(text, BUNDLE.abbreviations) == reference_split_sentences(text, BUNDLE.abbreviations)

    def test_splits_a_megabyte(self):
        # Two sentences per 16 characters; "Fig." is not an end, since the
        # bundled abbreviations hold "fig.".
        text = "Ab. See Fig. 3. " * (2 ** 16)
        sentences = split_sentences(text, BUNDLE.abbreviations)
        assert len(text) == 2 ** 20 and len(sentences) == 2 ** 17
        assert sentences[-2:] == [Sentence("Ab.", 2 ** 20 - 16, 2 ** 20 - 13),
                                  Sentence("See Fig. 3.", 2 ** 20 - 12, 2 ** 20 - 1)]


class TestPipelineOnAnyQuestion:
    @settings(max_examples=60)
    @given(question=_texts)
    @example(question="")
    @example(question=WHITESPACE)
    @example(question="Which gene is mutated in Muenke syndrome?")
    def test_answers_without_raising(self, bundle, corpus, doc_index, type_model, question):
        answer_pipeline(question, corpus, doc_index, type_model, bundle)

    # Two shapes that do much work per character: many patterns start over
    # at each "which" and "what", and "A. " makes every other token a
    # sentence end.
    @settings(max_examples=1)
    @given(question=_long_texts)
    @example(question=repeated("Which what is the ? "))
    @example(question=repeated("A. "))
    def test_answers_long_questions_without_raising(self, bundle, corpus, doc_index, type_model, question):
        answer_pipeline(question, corpus, doc_index, type_model, bundle)


def two_pass_analyse(text, stopwords, lexicon):
    """Reference analysis in two passes: stems from the Token objects of
    tokenize, cuis from recognize, which tokenizes the text again."""
    terms = []
    for token in tokenize(text):
        surface = token.surface.lower()
        if surface in stopwords or not any(ch.isalnum() for ch in surface):
            continue
        terms.append(stem(surface))
    cuis = [m.cui for m in recognize(text, lexicon)] if lexicon is not None else []
    return terms + cuis, cuis


def two_pass_query(question, lexicon, stopwords):
    """Reference: formulate_query over recognize, then tokenize."""
    concept_terms = dict.fromkeys(lexicon.get(m.cui).preferred for m in recognize(question, lexicon))
    raw_terms = tuple(
        t.surface
        for t in tokenize(question)
        if t.surface.lower() not in stopwords and any(ch.isalnum() for ch in t.surface)
    )
    return Query(tuple(concept_terms), raw_terms)


def check_one_pass(text, lexicon):
    """analyse, formulate_query and title_cuis equal their two-pass references."""
    stopwords = BUNDLE.stopwords
    assert analyse(text, stopwords, lexicon) == two_pass_analyse(text, stopwords, lexicon)
    assert analyse(text, stopwords, ConceptLexicon([])) == two_pass_analyse(text, stopwords, None)
    assert formulate_query(text, lexicon, stopwords) == two_pass_query(text, lexicon, stopwords)
    assert title_cuis(text, lexicon) == tuple(m.cui for m in recognize(text, lexicon))


def bundled_texts():
    """Every abstract sentence, title and question of the bundled data."""
    sentences = [s.text for d in DOCS for s in split_sentences(d.abstract, BUNDLE.abbreviations)]
    questions = [q.body for q in load_questions(RESOURCE_DIR / "questions.json").questions]
    return sentences + [d.title for d in DOCS] + questions


class TestOnePassAnalysis:
    """A lexicon of its own for each test, so that analyse computes rather
    than reads word terms memoised by another test."""

    @staticmethod
    def fresh_lexicon():
        return ConceptLexicon(list(BUNDLE.concept_lexicon.concepts.values()))

    @settings(max_examples=200)
    @given(text=_texts)
    @example(text="")
    @example(text=WHITESPACE)
    @example(text="The Tuberous Sclerosis patients, e.g. THE ones with EPILEPSY.")
    # A final sigma: lowered on its own, "ΟΔΟΣ" ends in "ς"; lowered with
    # the text around it, before "." or ":" and a letter, it ends in "σ".
    @example(text="ΟΔΟΣ.Α ΟΔΟΣ:Β")
    @example(text="ΟΔΟΣ.Α Tuberous Sclerosis ΟΔΟΣ:Β")
    def test_equals_two_pass(self, text):
        check_one_pass(text, self.fresh_lexicon())

    @settings(max_examples=3)
    @given(text=_long_texts)
    @example(text=LONG_CORPUS_TEXT)
    def test_equals_two_pass_on_long_text(self, text):
        check_one_pass(text, self.fresh_lexicon())

    @pytest.mark.parametrize("case", [str, str.upper, str.lower], ids=["as-is", "upper", "lower"])
    def test_equals_two_pass_on_bundled_texts(self, case):
        lexicon = self.fresh_lexicon()
        texts = bundled_texts()
        assert len(texts) > 50
        for text in texts:
            check_one_pass(case(text), lexicon)


def indexed_stems(text, lexicon):
    """The stems analyse indexes for a text, without its cuis."""
    terms, cuis = analyse(text, BUNDLE.stopwords, lexicon)
    return terms[:len(terms) - len(cuis)]


class TestQueryWords:
    """formulate_query's raw terms are the question's surfaces whose
    lowercased form analyse indexes as a stem: one content-word rule."""

    @settings(max_examples=200)
    @given(text=_texts)
    @example(text="The İstanbul ΟΔΟΣ and/or ǅ ﬃ ẞ ½ -- of 35-kilogram THE")
    def test_raw_terms_are_the_indexed_surfaces(self, text):
        lexicon = TestOnePassAnalysis.fresh_lexicon()
        query = formulate_query(text, BUNDLE.concept_lexicon, BUNDLE.stopwords)
        assert query.raw_terms == tuple(s for s in token_surfaces(text) if indexed_stems(s.lower(), lexicon))
        assert [stem(s.lower()) for s in query.raw_terms] == indexed_stems(text, lexicon)


def reference_tag(text, tag_lexicon):
    """Reference tagging over the Token objects of tokenize: (token, tag)
    of each token, tagged as pos_tag tags its surface at that position."""
    return [(t, word_tag(t.surface, t.surface.lower(), i, tag_lexicon)) for i, t in enumerate(tokenize(text))]


def reference_topic_features(question, stopwords, lexicon):
    """Reference extract_topic_features without dependency pairs: words
    from the Token objects of tokenize, concepts from recognize."""
    words = [t.surface for t in tokenize(question)]
    content = [w for w in words if w.lower() not in stopwords and any(ch.isalnum() for ch in w)]
    concepts = [lexicon.get(m.cui) for m in recognize(question, lexicon)]
    return dict(
        Counter(content) + Counter(f"{a}-{b}" for a, b in zip(words, words[1:]))
        + Counter(stem(w.lower()) for w in content)
        + Counter(c.cui for c in concepts) + Counter(c.tui for c in concepts)
    )


def check_question_features(text):
    extractor = FeatureExtractor(BUNDLE.tag_lexicon, BUNDLE.patterns)
    assert extractor.tag(text) == [(t.surface, tag) for t, tag in reference_tag(text, BUNDLE.tag_lexicon)]
    features = extract_topic_features(text, stopwords=BUNDLE.stopwords, concept_lexicon=BUNDLE.concept_lexicon)
    assert features == reference_topic_features(text, BUNDLE.stopwords, BUNDLE.concept_lexicon)


class TestQuestionFeaturesFromSurfaces:
    """FeatureExtractor.tag and extract_topic_features, which read token
    surfaces, equal their references over Token objects and recognize."""

    @settings(max_examples=200)
    @given(text=_texts)
    @example(text="")
    @example(text=WHITESPACE)
    @example(text="What is the dose of Zithromax for this 35-kilogram kid ?")
    def test_equals_reference(self, text):
        check_question_features(text)

    @settings(max_examples=3)
    @given(text=_long_texts)
    @example(text=LONG_CORPUS_TEXT)
    @example(text=repeated("A. "))
    def test_equals_reference_on_long_text(self, text):
        check_question_features(text)

    @pytest.mark.parametrize("case", [str, str.upper, str.lower], ids=["as-is", "upper", "lower"])
    def test_equals_reference_on_bundled_texts(self, case):
        for text in bundled_texts():
            check_question_features(case(text))


def reference_sentiment(text, sentiment, tag_lexicon):
    """Reference passage_sentiment: tag every token, sum every word's score."""
    return sum(
        word_sentiment(t.surface.lower(), coarse_tag_class(tag), sentiment)
        for t, tag in reference_tag(text, tag_lexicon)
    )


# A small lexicon pair on which the tag decides the score: "well" and
# "improve" have class-specific entries and a second class, "risk" has an
# empty tag entry (class "any") where the heuristics would say NN, and
# "failure" is not in the tag lexicon, so it is NNP when capitalised
# after the first token and NN otherwise.
SMALL_TAGS = TagLexicon({"well": "RB", "improve": "VB", "risk": "", "the": "DT"})
SMALL_SENTIMENT = SentimentLexicon([
    SentimentEntry("well", "r", 0.5, 0.0),
    SentimentEntry("well", "any", 0.125, 0.25),
    SentimentEntry("improve", "v", 0.625, 0.0),
    SentimentEntry("improve", "n", 0.0, 0.25),
    SentimentEntry("risk", "n", 0.0, 0.5),
    SentimentEntry("risk", "any", 0.25, 0.0),
    SentimentEntry("failure", "n", 0.0, 0.625),
    SentimentEntry("failure", "a", 0.25, 0.0),
    SentimentEntry("effective", "a", 0.625, 0.0),
    SentimentEntry("effective", "n", 0.0, 0.375),
    SentimentEntry("effective", "n", 0.125, 0.0),
])
LEXICONS = {"bundled": (BUNDLE.sentiment, BUNDLE.tag_lexicon), "small": (SMALL_SENTIMENT, SMALL_TAGS)}
SENTIMENT_TEXTS = [
    "The Failure of therapy was not unexpected, and patients did well.",
    "Risk rose; the RISK of Failure was low, yet WELL treated patients Improve.",
    "Effective drugs improve outcomes. The Effective dose did not fail.",
    "(well) improve, risk. Failure? effective!",
]
_sentiment_words = st.sampled_from([
    "well", "Well", "WELL", "improve", "Improve", "IMPROVE", "risk", "Risk", "failure", "Failure",
    "FAILURE", "effective", "Effective", "(well)", "risk.", "improves", "Not", "NO", "Good", "toxic,",
])
_sentiment_texts = st.lists(
    st.one_of(_words, _sentiment_words, st.text(alphabet=WHITESPACE, min_size=1)), max_size=40
).map(" ".join)


def check_sentiment(text):
    for sentiment, tag_lexicon in LEXICONS.values():
        assert passage_sentiment(text, sentiment, tag_lexicon) == reference_sentiment(text, sentiment, tag_lexicon)


class TestSentimentVote:
    """passage_sentiment tags only the words of the sentiment lexicon and
    scores the same as tagging every token."""

    @settings(max_examples=200)
    @given(text=st.one_of(_texts, _sentiment_texts))
    @example(text="")
    @example(text=WHITESPACE)
    def test_equals_reference(self, text):
        check_sentiment(text)

    @settings(max_examples=3)
    @given(text=_long_texts)
    @example(text=LONG_CORPUS_TEXT)
    @example(text=repeated(" ".join(SENTIMENT_TEXTS)))
    def test_equals_reference_on_long_text(self, text):
        check_sentiment(text)

    @pytest.mark.parametrize("case", [str, str.upper, str.lower], ids=["as-is", "upper", "lower"])
    def test_equals_reference_on_bundled_texts(self, case):
        for text in bundled_texts() + SENTIMENT_TEXTS:
            check_sentiment(case(text))

    @pytest.mark.parametrize("lexicons", LEXICONS, ids=list(LEXICONS))
    def test_tags_each_sentiment_word_as_pos_tag_does(self, lexicons, monkeypatch):
        """Each sentiment word gets the tag pos_tag gives it at its position
        among all tokens. The vote alone cannot show this: NNP, NN and NNS
        all fall in class n."""
        sentiment, tag_lexicon = LEXICONS[lexicons]
        word_tag = answer.word_tag
        given_tags = []

        def recording(*args):
            given_tags.append(tag := word_tag(*args))
            return tag

        monkeypatch.setattr(answer, "word_tag", recording)
        tagged = 0
        for text in bundled_texts() + SENTIMENT_TEXTS:
            given_tags.clear()
            passage_sentiment(text, sentiment, tag_lexicon)
            expected = [
                tag for surface, tag in pos_tag(token_surfaces(text), tag_lexicon) if surface.lower() in sentiment.words
            ]
            assert given_tags == expected
            tagged += len(expected)
        assert tagged > 5


_UNSET = object()


def _matcher(elements, tags, lowered):
    """qclass._matcher as it was before the grammar was compiled, its code
    unchanged: match(i, pos) gives the features elements[i:] capture when matched from
    token pos, or None; stars take the shortest run first, and results are
    memoised per (i, pos) for one pattern over one question."""
    n = len(tags)
    memo = [[_UNSET] * (n + 1) for _ in elements]

    def match(i, pos):
        if i == len(elements):
            return ()
        known = memo[i]
        result = known[pos]
        if result is not _UNSET:
            return result
        head = elements[i]
        if isinstance(head, Star):
            end = pos
            while end <= n:
                result = known[end]
                if result is not _UNSET:
                    break
                result = match(i + 1, end)
                if result is not None:
                    break
                end += 1
            for p in range(pos, min(end, n) + 1):
                known[p] = result
            return result
        result = None
        if pos < n:
            if isinstance(head, LiteralSet):
                if lowered[pos] in head.starts:
                    for phrase in head.phrases:
                        if tuple(lowered[pos:pos + len(phrase)]) != phrase:
                            continue
                        sub = match(i + 1, pos + len(phrase))
                        if sub is not None:
                            result = ((" ".join(phrase),) if head.capture else ()) + sub
                            break
            elif isinstance(head, AnyTag) or tags[pos] == head.tag:
                sub = match(i + 1, pos + 1)
                if sub is not None:
                    result = (tags[pos], *sub)
        known[pos] = result
        return result

    return match


def reference_pattern_matches(tagged, patterns):
    """Reference pattern_matches before the earliest-shift filter: every
    pattern that starts with a word set scans every token position for one
    of its start words, and each pattern gives its first match and the
    shift it starts at."""
    tags = [tag for _, tag in tagged]
    lowered = [surface.lower() for surface, _ in tagged]
    matches = []
    for pattern in patterns:
        match = _matcher(pattern.elements, tags, lowered)
        shifts = range(len(tagged))
        if pattern.elements and isinstance(pattern.elements[0], LiteralSet):
            shifts = [shift for shift in shifts if lowered[shift] in pattern.elements[0].starts]
        for shift in shifts:
            captured = match(0, shift)
            if captured is not None:
                matches.append((shift, PatternMatch(pattern, tuple(sorted(Counter(captured).items())))))
                break
    return matches


def check_pattern_matches(question):
    tagged = FeatureExtractor(BUNDLE.tag_lexicon, BUNDLE.patterns).tag(question)
    got = pattern_matches(tagged, BUNDLE.patterns)
    assert got == earliest(reference_pattern_matches(tagged, BUNDLE.patterns))
    return got


class TestPatternStarts:
    def test_equals_scan_on_bundled_questions(self):
        questions = [q.body for name in ("questions.json", "demo_gold.json")
                     for q in load_questions(RESOURCE_DIR / name).questions]
        matched = 0
        for question in questions:
            for case in (str, str.upper, str.lower):
                matched += bool(check_pattern_matches(case(question)))
        assert matched > len(questions)

    @settings(max_examples=3)
    @given(question=_long_texts)
    @example(question=repeated("Which what is the ? "))
    @example(question=repeated("A. "))
    @example(question=repeated("What is the role of Imatinib? Which genes "))
    def test_equals_scan_on_long_questions(self, question):
        check_pattern_matches(question)
