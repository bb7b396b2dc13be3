import json
import math
import random
import re
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioqa import qclass
from bioqa.qclass import (
    AnyTag,
    FeatureExtractor,
    LiteralSet,
    Pattern,
    PatternMatch,
    QuestionType,
    Star,
    TagMatch,
    UnknownFeatureSpaceError,
    classify_topics,
    classify_type,
    extract_topic_features,
    load_model,
    load_patterns,
    match_patterns,
    parse_patterns,
    pattern_matches,
    save_model,
    train_topic_models,
    train_type_classifier,
)
from bioqa.textproc import ResourceFormatError

from conftest import RESOURCE_DIR, VERSION_TWO_MODELS, earliest

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
TYPE_META = {"kind": "type", "space": "patterns"}


class TestMatchPatterns:
    def test_autophagy_feature_vector(self, bundle, extractor):
        tagged = extractor.tag("What is the definition of autophagy?")
        assert match_patterns(tagged, bundle.patterns) == {"what": 1, "VBZ": 1, "definition": 1}

    def test_yesno_pattern_feature(self, bundle, extractor):
        tagged = extractor.tag("Is imatinib an antidepressant drug?")
        features = match_patterns(tagged, bundle.patterns)
        assert features.get("is") == 1

    def test_fallback_is_unigrams_plus_tags(self, bundle, extractor):
        tagged = extractor.tag("Banana splits ripen quickly")
        features = match_patterns(tagged, bundle.patterns)
        for unigram in ("Banana", "splits", "ripen", "quickly"):
            assert features[unigram] == 1
        assert features["NN"] >= 1

    def test_independent_of_pattern_file_order(self, bundle, extractor):
        rng = random.Random(4)
        questions = [
            "What is the definition of autophagy?",
            "Is imatinib an antidepressant drug?",
            "Which enzyme is deficient in Krabbe disease?",
            "Which proteins participate in the complex?",
        ]
        for q in questions:
            tagged = extractor.tag(q)
            reference = match_patterns(tagged, bundle.patterns)
            for _ in range(10):
                shuffled = bundle.patterns[:]
                rng.shuffle(shuffled)
                assert match_patterns(tagged, shuffled) == reference

    def test_contiguous_subsequence_oracle(self, extractor):
        # A star-free, synonym-free pattern matches exactly when its
        # element sequence occurs contiguously in the token/tag stream.
        rng = random.Random(41)
        vocab = ["is", "gene", "protein", "the", "What", "deficient", "disease"]
        for _ in range(200):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            tagged = extractor.tag(" ".join(words))
            k = rng.randint(1, 3)
            elements = []
            for _ in range(k):
                if rng.random() < 0.5:
                    elements.append(LiteralSet(((rng.choice(vocab).lower(),),), capture=True))
                else:
                    elements.append(TagMatch(rng.choice(["NN", "VBZ", "DT", "WP"])))
            pattern = Pattern(QuestionType.FACTOID, tuple(elements))

            def element_hits(el, tok):
                surface, tag = tok
                if isinstance(el, TagMatch):
                    return tag == el.tag
                return surface.lower() == el.phrases[0][0]

            brute = any(
                all(element_hits(el, tagged[s + i]) for i, el in enumerate(elements))
                for s in range(len(tagged) - k + 1)
            )
            assert bool(pattern_matches(tagged, [pattern])) == brute


def reference_match_at(elements, tagged, pos):
    """The plain recursive matcher, kept as the oracle of pattern_matches:
    stars take the shortest run first, and nothing is memoised, so its time
    grows as a power of the sequence length, one degree per star."""
    if not elements:
        return []
    head, rest = elements[0], elements[1:]
    if isinstance(head, Star):
        for skip in range(len(tagged) - pos + 1):
            sub = reference_match_at(rest, tagged, pos + skip)
            if sub is not None:
                return sub
        return None
    if pos >= len(tagged):
        return None
    if isinstance(head, TagMatch):
        if tagged[pos][1] != head.tag:
            return None
        sub = reference_match_at(rest, tagged, pos + 1)
        return None if sub is None else [head.tag] + sub
    if isinstance(head, AnyTag):
        sub = reference_match_at(rest, tagged, pos + 1)
        return None if sub is None else [tagged[pos][1]] + sub
    for phrase in head.phrases:
        if pos + len(phrase) > len(tagged):
            continue
        if all(tagged[pos + k][0].lower() == w for k, w in enumerate(phrase)):
            sub = reference_match_at(rest, tagged, pos + len(phrase))
            if sub is None:
                continue
            return ([" ".join(phrase)] if head.capture else []) + sub
    return None


def reference_pattern_matches(tagged, patterns):
    """(shift, match) of each pattern's first match."""
    matches = []
    for pattern in patterns:
        for shift in range(len(tagged)):
            captured = reference_match_at(pattern.elements, tagged, shift)
            if captured is not None:
                matches.append((shift, PatternMatch(pattern, tuple(sorted(Counter(captured).items())))))
                break
    return matches


# Few words, so that alternative phrases often start at the same token.
_WORDS = ["what", "Which", "is", "IS", "stand", "for", "?"]
_TAGS = ["NN", "VBZ", "WP", "."]
_tagged = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_TAGS)), max_size=10)
_phrases = st.lists(st.lists(st.sampled_from(["what", "which", "is", "stand", "for"]), min_size=1, max_size=2).map(
    tuple), min_size=1, max_size=3, unique=True)
_elements = st.one_of(
    st.builds(Star),
    st.builds(AnyTag),
    st.sampled_from(_TAGS).map(TagMatch),
    st.builds(lambda phrases, capture: LiteralSet(tuple(sorted(phrases, key=lambda p: (-len(p), p))), capture),
              _phrases, st.booleans()),
)
_patterns = st.lists(st.lists(_elements, min_size=1, max_size=5).map(
    lambda elements: Pattern(QuestionType.FACTOID, tuple(elements))), min_size=1, max_size=4)


class TestPatternMatchOracle:
    """pattern_matches agrees with the recursive reference matcher, filtered
    to the earliest shift."""

    @settings(max_examples=100)
    @given(tagged=_tagged, patterns=st.one_of(_patterns, st.none()))
    # "stand for" matches first, but only "stand" leaves the rest a match.
    @example(tagged=[(w, "NN") for w in ("stand", "for")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("stand", "for"), ("stand",)), capture=True),
                                                      LiteralSet((("for",),), capture=True)))])
    # Both phrases leave the rest a match: the longer phrase, tried first, is taken.
    @example(tagged=[(w, "NN") for w in ("stand", "for", "for")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("stand", "for"), ("stand",)), capture=True), Star(),
                                                      LiteralSet((("for",),), capture=True)))])
    # The first pattern matches only at shift 1, the second at shift 0.
    @example(tagged=[("what", "WP"), ("is", "VBZ")],
             patterns=[Pattern(QuestionType.YESNO, (LiteralSet((("is",),), capture=True),)),
                       Pattern(QuestionType.FACTOID, (LiteralSet((("what",),), capture=True), AnyTag()))])
    # A [*] head is tried at shift 0, before the literal-headed pattern can start.
    @example(tagged=[("x", "NN"), ("is", "VBZ")],
             patterns=[Pattern(QuestionType.YESNO, (LiteralSet((("is",),), capture=True),)),
                       Pattern(QuestionType.FACTOID, (Star(), LiteralSet((("is",),), capture=True)))])
    # A [TAG] head starts anywhere and emits the token's tag.
    @example(tagged=[("what", "WP"), ("is", "VBZ")],
             patterns=[Pattern(QuestionType.FACTOID, (AnyTag(), TagMatch("VBZ")))])
    # An [NN] head merges, in pattern order, with literal heads at one token.
    @example(tagged=[("what", "NN"), ("is", "VBZ")],
             patterns=[Pattern(QuestionType.YESNO, (LiteralSet((("what",),), capture=True),)),
                       Pattern(QuestionType.FACTOID, (TagMatch("NN"), Star(), TagMatch("VBZ"))),
                       Pattern(QuestionType.LIST, (LiteralSet((("what",),), capture=False), AnyTag()))])
    # A star takes the shortest run: [TAG] emits the tag of the token after "what".
    @example(tagged=[("what", "WP"), ("is", "VBZ"), ("it", "NN")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("what",),), capture=True), Star(), AnyTag()))])
    # A star's scan tries the rest where the element after the star, "is", can start.
    @example(tagged=[("what", "WP"), ("x", "NN"), ("is", "VBZ"), ("?", ".")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("what",),), capture=True), Star(),
                                                      LiteralSet((("is",),), capture=True),
                                                      LiteralSet((("?",),), capture=False)))])
    # Adjacent stars, then a literal.
    @example(tagged=[("what", "WP"), ("is", "VBZ"), ("it", "NN"), ("?", ".")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("what",),), capture=True), Star(), Star(),
                                                      LiteralSet((("?",),), capture=False)))])
    # A trailing star matches the empty run at the end.
    @example(tagged=[("what", "WP"), ("is", "VBZ")],
             patterns=[Pattern(QuestionType.YESNO, (LiteralSet((("is",),), capture=True), Star()))])
    # A bare-literal head emits nothing.
    @example(tagged=[("What", "WP"), ("is", "VBZ")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("what",),), capture=False), TagMatch("VBZ")))])
    # A two-word head is indexed under its first word, and a star's gate reads that word too.
    @example(tagged=[("what", "WP"), ("stand", "NN"), ("for", "IN")],
             patterns=[Pattern(QuestionType.FACTOID, (LiteralSet((("stand", "for"),), capture=True),)),
                       Pattern(QuestionType.LIST, (LiteralSet((("what",),), capture=True), Star(),
                                                   LiteralSet((("stand", "for"),), capture=True)))])
    def test_random_tagged_sequences(self, bundle, tagged, patterns):
        patterns = bundle.patterns if patterns is None else patterns
        assert pattern_matches(tagged, patterns) == earliest(reference_pattern_matches(tagged, patterns))

    def test_bundled_and_repeated_questions(self, bundle, extractor, appendix_questions):
        # Repeated question shapes, kept short enough for the reference.
        repeated = ["Which what is the ? " * 12, "A. " * 60, "What is the cause of it? " * 8]
        for question in [q.body for q in appendix_questions.questions] + repeated:
            tagged = extractor.tag(question)
            assert pattern_matches(tagged, bundle.patterns) == earliest(
                reference_pattern_matches(tagged, bundle.patterns))


# The bundled grammar, and sequences made of its own words and tags, so
# that its patterns are often met in part and often met in full.
BUNDLED_PATTERNS = load_patterns(RESOURCE_DIR / "patterns.txt")
_PHRASES = sorted({phrase for pattern in BUNDLED_PATTERNS for el in pattern.elements
                   if isinstance(el, LiteralSet) for phrase in el.phrases})
_GRAMMAR_TAGS = sorted({el.tag for pattern in BUNDLED_PATTERNS for el in pattern.elements
                        if isinstance(el, TagMatch)} | {"DT", "WP", "."})
_grammar_tagged = st.lists(
    st.tuples(st.sampled_from(_PHRASES + [("?",), ("the",), ("BMI",)]), st.sampled_from([str, str.title, str.upper])),
    max_size=8,
).flatmap(lambda pieces: st.tuples(*[
    st.tuples(st.just(case(word)), st.sampled_from(_GRAMMAR_TAGS)) for phrase, case in pieces for word in phrase
]).map(list))


class TestPatternPrefilter:
    """pattern_matches builds a matcher only for the patterns whose literal
    sets each have a first word among the question's words and whose tags
    are each on a token, and matches as the reference that tries every
    pattern at every shift, filtered to the earliest shift."""

    @settings(max_examples=300)
    @given(tagged=_grammar_tagged)
    @example(tagged=[("What", "WP"), ("is", "VBZ"), ("the", "DT"), ("role", "NN"), ("?", ".")])
    # Every word of "[what|which] [VBP] [*] [NN] [*] ?" but no VBP tag.
    @example(tagged=[("Which", "WP"), ("genes", "NN"), ("?", ".")])
    def test_equals_reference(self, tagged):
        assert pattern_matches(tagged, BUNDLED_PATTERNS) == earliest(
            reference_pattern_matches(tagged, BUNDLED_PATTERNS))

    @settings(max_examples=300)
    @given(tagged=_grammar_tagged)
    @example(tagged=[("Which", "WP"), ("genes", "NN"), ("?", ".")])
    @example(tagged=[("the", "DT"), ("Is", "VBZ"), ("what", "WP"), ("is", "VBZ"), ("?", ".")])
    def test_pattern_tried_only_where_its_head_can_start_and_its_needs_are_met(self, tagged):
        words = {surface.lower() for surface, _ in tagged}
        tags = {tag for _, tag in tagged}
        met = [
            k for k, pattern in enumerate(BUNDLED_PATTERNS)
            if all(el.tag in tags for el in pattern.elements if isinstance(el, TagMatch))
            and all(any(phrase[0] in words for phrase in el.phrases)
                    for el in pattern.elements if isinstance(el, LiteralSet))
        ]

        def can_start(head, token):  # any head but a literal set is tried at every shift
            return token[0].lower() in head.starts if isinstance(head, LiteralSet) else True

        # Every shift up to the earliest one where a pattern matches.
        last = min((shift for shift, _ in reference_pattern_matches(tagged, BUNDLED_PATTERNS)),
                   default=len(tagged) - 1)
        expected = [(k, shift) for shift in range(last + 1) for k in met
                    if can_start(BUNDLED_PATTERNS[k].elements[0], tagged[shift])]
        index_of = {id(codes): k for k, codes in enumerate(BUNDLED_PATTERNS.codes)}
        tried = []
        real = qclass._match

        def recording(codes, i, pos, *args):
            if i == 0:
                tried.append((index_of[id(codes)], pos))
            return real(codes, i, pos, *args)

        with mock.patch.object(qclass, "_match", recording):
            pattern_matches(tagged, BUNDLED_PATTERNS)
        assert tried == expected

    def test_needs_are_derived_from_the_elements(self):
        grammar = qclass.Grammar(parse_patterns("LIST := [what|which] [VBP] [*] [stand for|causes] [NN] ?"))
        assert grammar.needs == [[
            (False, frozenset({"what", "which"})), (True, frozenset({"VBP"})), (False, frozenset({"stand", "causes"})),
            (True, frozenset({"NN"})), (False, frozenset({"?"})),
        ]]
        pattern = grammar[0]
        assert pattern == Pattern(pattern.category, pattern.elements)


class StepBudgetExceeded(Exception):
    pass


def matcher_steps(tagged, patterns, budget):
    """pattern_matches(tagged, patterns) and the number of qclass.py lines
    it executed; StepBudgetExceeded once that number passes budget."""
    steps = 0

    def count_lines(frame, event, arg):
        nonlocal steps
        if event == "line":
            steps += 1
            if steps > budget:
                raise StepBudgetExceeded(f"more than {budget} steps")
        return count_lines

    def trace(frame, event, arg):
        return count_lines if frame.f_code.co_filename == qclass.__file__ else None

    sys.settrace(trace)
    try:
        matches = pattern_matches(tagged, patterns)
    finally:
        sys.settrace(None)
    return matches, steps


class TestLinearWork:
    """Matching every shift of a question costs work linear in its length,
    counted in executed lines, not timed. The question passes the needs
    filter of several patterns ("is", "which" and "?" are all in it) and
    matches nowhere, so every star scans to the end of the question."""

    STEPS_PER_TOKEN = 250  # 64.0 measured on both inputs; the budget stops a quadratic matcher early

    def test_steps_grow_linearly_on_a_long_question_matching_nowhere(self, extractor):
        counts = []
        for repeats in (2500, 5000):  # 10001 and 20001 tokens
            tagged = extractor.tag("? " + "Which what is the " * repeats)
            matches, steps = matcher_steps(tagged, BUNDLED_PATTERNS, self.STEPS_PER_TOKEN * len(tagged))
            assert matches == []
            counts.append(steps)
        assert counts[1] / counts[0] <= 2.2


class TestExtractFeatures:
    QUESTION = "What is the definition of autophagy?"

    def test_unigram_space(self, extractor):
        assert extractor.extract(self.QUESTION, "unigram") == {
            "What": 1, "is": 1, "the": 1, "definition": 1, "of": 1, "autophagy": 1, "?": 1,
        }

    def test_pos_space(self, extractor):
        assert extractor.extract(self.QUESTION, "pos") == {
            "WP": 1, "VBZ": 1, "DT": 1, "NN": 2, "IN": 1,
        }

    def test_patterns_space(self, extractor):
        assert extractor.extract(self.QUESTION, "patterns") == {
            "what": 1, "VBZ": 1, "definition": 1,
        }

    def test_bigram_space(self, extractor):
        features = extractor.extract(self.QUESTION, "bigram")
        assert features["What-is"] == 1 and features["autophagy-?"] == 1

    def test_pos_plus_unigram_is_union(self, extractor):
        merged = extractor.extract(self.QUESTION, "pos+unigram")
        for key, count in extractor.extract(self.QUESTION, "unigram").items():
            assert merged[key] == count
        assert merged["NN"] == 2

    def test_unknown_space(self, extractor):
        with pytest.raises(UnknownFeatureSpaceError):
            extractor.extract(self.QUESTION, "chargram")

    def test_reproducible_from_text_and_space(self, bundle):
        fresh = FeatureExtractor(bundle.tag_lexicon, bundle.patterns)
        for space in qclass.FEATURE_SPACES:
            a = fresh.extract(self.QUESTION, space)
            b = FeatureExtractor(bundle.tag_lexicon, bundle.patterns).extract(self.QUESTION, space)
            assert a == b


def _toy_examples():
    return [
        ({"is": 1}, QuestionType.YESNO),
        ({"can": 1}, QuestionType.YESNO),
        ({"which": 1, "NN": 1}, QuestionType.FACTOID),
        ({"what": 1, "NN": 1}, QuestionType.FACTOID),
        ({"which": 1, "NNS": 1}, QuestionType.LIST),
        ({"which": 1, "VBP": 1, "NNS": 1}, QuestionType.LIST),
        ({"what": 1, "VBZ": 1, "definition": 1}, QuestionType.SUMMARY),
        ({"what": 1, "VBZ": 1, "role": 1}, QuestionType.SUMMARY),
    ]


class TestTypeTrainer:
    def test_separable_toy_is_perfect(self):
        examples = [
            ({"a": 1}, QuestionType.YESNO),
            ({"b": 1}, QuestionType.FACTOID),
            ({"c": 1}, QuestionType.LIST),
            ({"d": 1}, QuestionType.SUMMARY),
        ]
        model = train_type_classifier(examples, "patterns", seed=1)
        assert qclass.training_accuracy(model, examples) == 1.0

    def test_appendix_set_reaches_ninety_percent(self, typed_examples, type_model):
        assert qclass.training_accuracy(type_model, typed_examples) >= 0.9

    def test_conflicting_duplicate_warns_but_trains(self):
        examples = [
            ({"is": 1}, QuestionType.YESNO),
            ({"is": 1}, QuestionType.LIST),
            ({"b": 1}, QuestionType.FACTOID),
        ]
        with pytest.warns(UserWarning, match="labeled both"):
            model = train_type_classifier(examples, "patterns", seed=3)
        assert model.labels  # training proceeded

    @pytest.mark.parametrize("C", [math.inf, -math.inf, math.nan, 0.0, -1.0, 1e307, 1e-320])
    def test_C_outside_the_trainable_range_is_refused(self, C, typed_examples):
        # 1e307 * 30 overflows, so 1/(C*n) is 0; 1/(1e-320 * 30) overflows to inf.
        with pytest.raises(ValueError, match=r"^C must be finite and positive|^C=.* is out of range"):
            train_type_classifier(typed_examples, "patterns", C=C)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_is_refused(self, epochs):
        with pytest.raises(ValueError, match=rf"^epochs must be at least 1, got {epochs}$"):
            train_type_classifier(_toy_examples(), "patterns", epochs=epochs)

    @pytest.mark.parametrize("C", [1e300, 1e-300])
    def test_extreme_C_inside_the_range_trains(self, C):
        model = train_type_classifier(_toy_examples(), "patterns", C=C, seed=42)
        assert all(math.isfinite(w) for ws in model.weights.values() for w in ws.values())

    def test_seeded_training_is_bit_identical(self):
        examples = _toy_examples()
        m1 = train_type_classifier(examples, "patterns", seed=42)
        m2 = train_type_classifier(examples, "patterns", seed=42)
        assert m1.weights == m2.weights

    def test_prediction_scale_invariant(self):
        examples = _toy_examples()
        model = train_type_classifier(examples, "patterns", seed=42)
        scaled = qclass.LinearModel(
            model.labels,
            {lab: {f: 3.0 * w for f, w in ws.items()} for lab, ws in model.weights.items()},
            model.meta,
        )
        for features, _ in examples:
            assert model.predict(features) == scaled.predict(features)

    def test_tie_breaks_in_fixed_order(self):
        model = qclass.LinearModel(
            ("yesno", "factoid", "list", "summary"),
            {lab: {} for lab in ("yesno", "factoid", "list", "summary")},
            {},
        )
        assert model.predict({"anything": 1}) == "yesno"


def reference_sgd_multiclass(X, y, n_labels, lam, epochs, seed):
    """The multiclass Pegasos loop as first written, with numpy's argmax
    picking the rival, kept verbatim as the oracle of _sgd_multiclass."""
    n, d = len(X), X[0].shape[0] if X else 0
    W = np.zeros((n_labels, d), dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            x = X[i]
            scores = W @ x
            yi = y[i]
            rival_scores = scores.copy()
            rival_scores[yi] = -np.inf
            rival = int(np.argmax(rival_scores))
            W *= max(0.0, 1.0 - eta * lam)
            if scores[yi] - scores[rival] < 1.0:
                W[yi] += eta * x
                W[rival] -= eta * x
    return W


def reference_sgd_binary(X, y, lam, epochs, seed):
    """The binary Pegasos loop as first written, kept verbatim as the
    oracle of _sgd_binary."""
    d = X[0].shape[0] if X else 0
    w = np.zeros(d, dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for i in order:
            t += 1
            eta = 1.0 / (lam * t)
            w *= max(0.0, 1.0 - eta * lam)
            if y[i] * (w @ X[i]) < 1.0:
                w += eta * y[i] * X[i]
    return w


# With one label the margin update adds a step to the true label's row and
# takes it off again. On a zero row that leaves zero unless the step
# overflows, so single-label sets may hold a value whose step does.
HUGE = sys.float_info.max


def _wide_row(d, values):
    """A row of d columns with 1 to 4 nonzero counts, as question feature
    vectors are over a larger vocabulary."""
    return st.dictionaries(st.integers(0, d - 1), st.sampled_from(values), min_size=1, max_size=4).map(
        lambda counts: [counts.get(j, 0.0) for j in range(d)])


@st.composite
def _sparse_sets(draw, n_labels):
    """(X, y) of sparse count rows, with all-zero and repeated rows, and
    labels below n_labels (None: ±1 binary labels). Rows are either short
    and dense or up to 40 columns wide with at most 4 nonzero counts."""
    values = [1.0, 2.0, 3.0, 5.0] + ([HUGE] if n_labels == 1 else [])
    if draw(st.booleans()):
        d = draw(st.integers(1, 6))
        row = st.lists(st.sampled_from([0.0, 0.0, 0.0, *values]), min_size=d, max_size=d)
    else:
        d = draw(st.integers(7, 40))
        row = _wide_row(d, values)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.append([0.0] * d)
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    label = st.sampled_from([1, -1]) if n_labels is None else st.integers(0, n_labels - 1)
    y = draw(st.lists(label, min_size=len(rows), max_size=len(rows)))
    return [np.array(row) for row in rows], y


_training = dict(C=st.sampled_from([0.01, 1.01, 100.0]), epochs=st.integers(1, 4), seed=st.integers(0, 999))


class TestPegasosOracle:
    """The trainers' weights are bit-identical to their verbatim references."""

    @settings(max_examples=200)
    @given(data=st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), _sparse_sets(k))), **_training)
    @example(data=(1, ([np.array([HUGE, 1.0])], [0])), C=1.01, epochs=1, seed=0)
    @example(data=(3, ([np.array([1.0]), np.array([0.0])], [1, 2])), C=1.01, epochs=2, seed=0)
    def test_multiclass_equals_reference(self, data, C, epochs, seed):
        n_labels, (X, y) = data
        lam = 1.0 / (C * len(X))
        with np.errstate(all="ignore"):  # an overflowing single-label step
            got = qclass._sgd_multiclass(X, y, n_labels, lam, epochs, seed)
            want = reference_sgd_multiclass(X, y, n_labels, lam, epochs, seed)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200)
    @given(data=_sparse_sets(None), **_training)
    def test_binary_equals_reference(self, data, C, epochs, seed):
        X, y = data
        lam = 1.0 / (C * len(X))
        assert qclass._sgd_binary(X, y, lam, epochs, seed).tobytes() == \
            reference_sgd_binary(X, y, lam, epochs, seed).tobytes()

    @pytest.mark.parametrize("space", qclass.FEATURE_SPACES)
    def test_bundled_questions_equal_reference(self, space, appendix_questions, extractor):
        examples = [(extractor.extract(q.body, space), q.type) for q in appendix_questions.questions]
        vocabulary = sorted({f for features, _ in examples for f in features})
        X = qclass._vectorize([f for f, _ in examples], vocabulary)
        labels = [t for t in qclass.TYPE_ORDER if t in {label for _, label in examples}]
        y = [labels.index(label) for _, label in examples]
        lam = 1.0 / (1.01 * len(examples))
        got = qclass._sgd_multiclass(X, y, len(labels), lam, 200, 42)
        assert got.tobytes() == reference_sgd_multiclass(X, y, len(labels), lam, 200, 42).tobytes()


@pytest.fixture(scope="module")
def four_class_model(bundle, extractor):
    questions = [
        ("Is aspirin effective for fever?", QuestionType.YESNO),
        ("Can statins prevent stroke?", QuestionType.YESNO),
        ("Which enzyme is deficient in Fabry disease?", QuestionType.FACTOID),
        ("Which gene has been implicated in Majeed Syndrome?", QuestionType.FACTOID),
        ("Which proteins participate in DNA repair?", QuestionType.LIST),
        ("Which genes are regulated by insulin?", QuestionType.LIST),
        ("What is the definition of autophagy?", QuestionType.SUMMARY),
        ("What is the role of edaravone in traumatic brain injury?", QuestionType.SUMMARY),
        ("What is the mechanism of action of metformin?", QuestionType.SUMMARY),
    ]
    examples = [(extractor.extract(q, "patterns"), label) for q, label in questions]
    return train_type_classifier(examples, "patterns", seed=42)


class TestClassifyType:
    def test_yesno_example(self, four_class_model, extractor):
        got = classify_type(
            four_class_model,
            "Is calcium overload involved in the development of diabetic cardiomyopathy?",
            extractor,
        )
        assert got is QuestionType.YESNO

    def test_factoid_example(self, four_class_model, extractor):
        got = classify_type(four_class_model, "Which enzyme is deficient in Krabbe disease?", extractor)
        assert got is QuestionType.FACTOID

    def test_summary_example(self, four_class_model, extractor):
        got = classify_type(four_class_model, "What is the function of the viral KP4 protein?", extractor)
        assert got is QuestionType.SUMMARY


class TestTopicFeatures:
    """Each test checks one feature group's keys in the full vector."""

    def test_bocst_includes_cui_and_tui(self, bundle):
        features = extract_topic_features(
            "Mother is alcoholic and abuses tobacco.",
            stopwords=bundle.stopwords,
            concept_lexicon=bundle.concept_lexicon,
        )
        assert features["C0026591"] == 1
        assert features["T099"] == 1

    def test_bosdr_formats_relation(self, bundle):
        plain = extract_topic_features(
            "What is the dose?", stopwords=bundle.stopwords, concept_lexicon=bundle.concept_lexicon,
        )
        features = extract_topic_features(
            "What is the dose?",
            stopwords=bundle.stopwords,
            concept_lexicon=bundle.concept_lexicon,
            dep_pairs=[("nsubj", "What", "dose")],
        )
        assert "nsubj(what,dose)" not in plain
        assert features == {**plain, "nsubj(what,dose)": 1}

    def test_bow_drops_stopwords_and_punctuation(self, bundle):
        features = extract_topic_features(
            "What is the dose of Zithromax?",
            stopwords=bundle.stopwords,
            concept_lexicon=bundle.concept_lexicon,
        )
        # BOW and BOS both count "dose"; only BOW keeps "Zithromax" capitalised.
        assert features["dose"] == 2
        assert features["Zithromax"] == 1
        assert not {"What", "is", "the", "of", "?"} & features.keys()

    def test_bos_stems(self, bundle):
        features = extract_topic_features(
            "inheritance statistics",
            stopwords=bundle.stopwords,
            concept_lexicon=bundle.concept_lexicon,
        )
        assert features["inherit"] == 1
        assert features["statist"] == 1


class TestTopicModels:
    def test_separable_toy_weights(self):
        examples = [({"alpha": 1}, {"Device"}), ({"alpha": 1}, {"Device"}), ({"beta": 1}, set()), ({"beta": 1}, set())]
        with pytest.warns(UserWarning, match="no positive examples"):
            model = train_topic_models(examples, seed=0)
        assert model.labels == ("Device",)
        assert model.scores({"alpha": 1})["Device"] > 0 > model.scores({"beta": 1})["Device"]

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_is_refused_before_training(self, epochs):
        examples = [({"alpha": 1}, {"Device"}), ({"beta": 1}, set())]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the skipped-topic warnings come from training
            with pytest.raises(ValueError, match=rf"^epochs must be at least 1, got {epochs}$"):
                train_topic_models(examples, epochs=epochs)

    def test_seed_reproducibility(self):
        rng = random.Random(12)
        examples = []
        for i in range(24):
            feats = {f"w{rng.randint(0, 30)}": 1 for _ in range(4)}
            examples.append((feats, {random.Random(i).choice(qclass.TOPICS)}))
        a = train_topic_models(examples, seed=7)
        b = train_topic_models(examples, seed=7)
        assert (a.labels, a.weights) == (b.labels, b.weights)

    def test_bundled_mini_dataset_trains_all_topics(self, bundle):
        from bioqa import ingest

        rows = ingest.load_topic_questions(RESOURCE_DIR / "topic_questions.json")
        examples = [
            (
                extract_topic_features(
                    body, stopwords=bundle.stopwords, concept_lexicon=bundle.concept_lexicon,
                ),
                topics,
            )
            for _, body, topics in rows
        ]
        model = train_topic_models(examples, seed=42)
        assert model.labels == qclass.TOPICS
        # paper-table probes classify to exactly their listed topics
        feats = lambda body: extract_topic_features(
            body, stopwords=bundle.stopwords, concept_lexicon=bundle.concept_lexicon,
        )
        probe1 = ("Mother is alcoholic and abuses tobacco. What are statistics regarding "
                  "inheritance of tobacco abuse and relationship to social situation?")
        assert classify_topics(model, feats(probe1)) == {"Epidemiology"}
        probe2 = ("Coronary angioplasty and stent placed last week. Started on Ticlid, looks "
                  "like she is allergic to it. Do they want her on something else or just stop it?")
        assert classify_topics(model, feats(probe2)) == {"Management", "Treatment & Prevention", "Pharmacological"}

    def test_topic_without_positives_is_skipped(self):
        examples = [({"a": 1}, {"Device"})]
        with pytest.warns(UserWarning, match="no positive examples") as record:
            model = train_topic_models(examples, seed=0)
        assert model.labels == ("Device",)
        skipped = [f"topic {topic!r} has no positive examples; skipped" for topic in qclass.TOPICS if topic != "Device"]
        assert [str(w.message) for w in record] == skipped

    def test_all_zero_features_yield_empty_set(self):
        examples = [({"a": 1}, {"Device"}), ({"b": 1}, set())]
        with pytest.warns(UserWarning, match="no positive examples"):
            model = train_topic_models(examples, seed=0)
        assert classify_topics(model, {}) == set()


class TestPersistence:
    def test_type_model_round_trip(self, tmp_path, type_model):
        path = tmp_path / "model.json"
        save_model(type_model, path)
        loaded = load_model(path)
        assert loaded.labels == type_model.labels
        assert loaded.weights == type_model.weights

    def test_topics_model_round_trip(self, tmp_path):
        examples = [({"alpha": 1}, {"Device"}), ({"beta": 1}, set())]
        with pytest.warns(UserWarning, match="no positive examples"):
            model = train_topic_models(examples, seed=0)
        path = tmp_path / "topics.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == ("Device",)
        assert loaded.weights["Device"] == model.weights["Device"]
        assert loaded.meta == model.meta

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.model.json")))
    def test_one_file_shape_for_both_kinds(self, name):
        saved = json.loads((GOLDEN_DIR / name).read_text())
        assert list(saved) == ["labels", "meta", "version", "weights"]
        assert saved["meta"]["kind"] == ("topics" if name.startswith("train-topics") else "type")
        assert sorted(saved["weights"]) == sorted(saved["labels"])

    def test_version_mismatch(self, tmp_path, type_model):
        path = tmp_path / "model.json"
        save_model(type_model, path)
        bumped = path.read_text().replace(f'"version": {qclass.MODEL_FORMAT_VERSION}', '"version": 99')
        assert bumped != path.read_text()
        path.write_text(bumped)
        with pytest.raises(qclass.ModelFormatError):
            load_model(path)

    def test_version_one_model_with_bias_rejected(self, tmp_path):
        # Format 1 stored an always-zero bias beside the weights.
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 1, "kind": "type", "labels": ["yesno"],
            "weights": {"yesno": {}}, "bias": {"yesno": 0.0}, "meta": {},
        }))
        with pytest.raises(qclass.ModelFormatError, match="version 1"):
            load_model(path)

    @pytest.mark.parametrize("kind", sorted(VERSION_TWO_MODELS))
    def test_version_two_model_refused(self, kind, tmp_path):
        path = tmp_path / f"old-{kind}.json"
        path.write_text(json.dumps(VERSION_TWO_MODELS[kind]))
        with pytest.raises(qclass.ModelFormatError, match=f"old-{kind}.json: model format version 2, expected 3"):
            load_model(path)

    @pytest.mark.parametrize("payload, named", [
        ({"labels": ["yesno", "factoid"], "weights": {"yesno": {"is": 1.0}}, "meta": TYPE_META}, "'factoid'"),
        ({"labels": ["yesno", "maybe"], "weights": {"yesno": {"is": 1.0}, "maybe": {}}, "meta": TYPE_META},
         "'maybe'"),
        ({"labels": ["yesno"], "weights": {"yesno": {"is": "1.0"}}, "meta": TYPE_META}, "'yesno'"),
        ({"labels": ["yesno"], "weights": {"yesno": ["is"]}, "meta": TYPE_META}, "'yesno'"),
        ({"labels": ["yesno"], "weights": {"yesno": {"is": True}}, "meta": TYPE_META}, "'yesno'"),
        ({"labels": ["yesno"], "weights": {"yesno": {"is": math.nan}}, "meta": TYPE_META}, "'yesno'"),
        ({"labels": ["yesno"], "weights": {"yesno": {"is": math.inf}}, "meta": TYPE_META}, "'yesno'"),
        ({"labels": ["yesno"], "weights": {"yesno": {}}, "meta": {"kind": "type", "space": "trigram"}}, "'trigram'"),
        ({"labels": ["yesno"], "weights": {"yesno": {}}, "meta": {"kind": "type"}}, "space"),
        ({"labels": [], "weights": {}, "meta": TYPE_META}, "'labels'"),
        ({"labels": "yesno", "weights": {"yesno": {}}, "meta": TYPE_META}, "'labels'"),
        ({"labels": ["yesno"], "weights": [], "meta": TYPE_META}, "'weights'"),
        ({"labels": ["Device"], "weights": {"Device": {"a": "x"}}, "meta": {"kind": "topics"}}, "'Device'"),
        ({"labels": ["Device"], "weights": {"Device": ["a"]}, "meta": {"kind": "topics"}}, "'Device'"),
        ({"labels": ["Device"], "weights": {}, "meta": {"kind": "topics"}}, "'Device'"),
        ({"labels": ["Device"], "weights": {"Device": {"a": -math.inf}}, "meta": {"kind": "topics"}}, "'Device'"),
        ({"labels": [["Device"]], "weights": {}, "meta": {"kind": "topics"}}, "['Device']"),
        ({"labels": [], "weights": {}, "meta": {"seed": 42}}, "kind None"),
        ({"labels": [], "weights": {}, "meta": {"kind": "bayes"}}, "kind 'bayes'"),
        ({"labels": [], "weights": {}, "meta": ["kind", "topics"]}, "meta"),
        ({"labels": [], "weights": {}}, "meta"),
    ], ids=["label without weights", "label not a type", "weight a string", "weights a list", "weight a bool",
            "weight NaN", "weight infinite", "unknown space", "no space", "type without labels", "labels a string",
            "weights not an object", "topic weight a string", "topic weights a list", "topic without weights",
            "topic weight infinite", "topic not a string", "no meta kind", "unknown meta kind", "meta a list",
            "no meta"])
    def test_hand_edited_model_refused_naming_the_file(self, payload, named, tmp_path):
        path = tmp_path / "edited-model.json"
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        path.write_text(json.dumps({"version": qclass.MODEL_FORMAT_VERSION, **payload}))
        with pytest.raises(qclass.ModelFormatError, match="edited-model.json") as err:
            load_model(path)
        assert named in str(err.value)

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.glob("*.model.json")))
    def test_pinned_models_load_unchanged(self, name, tmp_path):
        save_model(load_model(GOLDEN_DIR / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path, type_model):
        path = tmp_path / "model.json"
        save_model(type_model, path)
        loaded = load_model(path)
        rng = random.Random(21)
        feature_names = ["is", "can", "does", "what", "which", "NN", "NNS", "VBZ", "VBP", "cause", "role"]
        for _ in range(200):
            features = {rng.choice(feature_names): rng.randint(1, 3) for _ in range(rng.randint(0, 5))}
            assert loaded.predict(features) == type_model.predict(features)

    def test_save_is_byte_deterministic(self, tmp_path, type_model):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(type_model, p1)
        save_model(type_model, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPatternParser:
    def test_unresolved_synonym_set(self):
        with pytest.raises(ResourceFormatError, match="NOSUCH"):
            parse_patterns("YESNO := [@NOSUCH] [*] ?")

    def test_multiword_literal(self, extractor):
        patterns = parse_patterns("FACTOID := [what] [does|do] [*] [stand for|bind to] ?")
        tagged = extractor.tag("What does BMI stand for?")
        features = match_patterns(tagged, patterns)
        assert features.get("stand for") == 1

    def test_bad_category(self):
        with pytest.raises(ResourceFormatError):
            parse_patterns("NOPE := [is] ?")

    def test_only_newline_ends_a_line(self):
        # A comment holding U+2028 stays one comment line, so the bad
        # category is on line 3.
        with pytest.raises(ResourceFormatError, match="NOPE") as err:
            parse_patterns("# note\u2028NOPE := [is] ?\nYESNO := [is] ?\nNOPE := [is] ?\n")
        assert err.value.line_no == 3

    def test_any_whitespace_separates_elements(self):
        assert parse_patterns("YESNO := [is]\t?") == parse_patterns("YESNO := [is] ?")

    @pytest.mark.parametrize("rhs", ["[a b ?", "a] ?", "[is|are [*] ?", "[is] ]?", "[[is] ?"])
    def test_bracket_outside_a_group_is_refused_naming_the_line(self, rhs):
        with pytest.raises(ResourceFormatError, match=r"^grammar\.txt:2: malformed element list: "):
            parse_patterns(f"YESNO := [is] ?\nYESNO := {rhs}\n", path="grammar.txt")

    @pytest.mark.parametrize("line", ["@S = a|[b", "@S = a|]b c", "@S[ = a", "@S = [a|b]"])
    def test_bracket_in_a_synonym_set_is_refused_naming_the_line(self, line):
        # The tokenizer splits every bracket off as a token of its own, so a
        # phrase holding one could never match.
        with pytest.raises(ResourceFormatError, match=r"^grammar\.txt:2: bad synonym set definition: "):
            parse_patterns(f"@T = b\n{line}\nYESNO := [@S] ?\n", path="grammar.txt")

    @pytest.mark.parametrize("lines, word", [
        ("FACTOID := [what] [*] what?", "what?"),
        ("FACTOID := [stand for|bind to.] ?", "to."),
        ("@S = is|e.g.\nYESNO := [@S] ?", "e.g."),
    ])
    def test_a_word_the_tokenizer_splits_is_refused_naming_the_line(self, lines, word):
        # Each place a pattern line names a word: a bare token, a phrase, a set.
        with pytest.raises(ResourceFormatError, match=rf"^grammar\.txt:2: {re.escape(repr(word))} is not one token"):
            parse_patterns(f"YESNO := [is] ?\n{lines}\n", path="grammar.txt")


_REFERENCE_ELEMENT_RE = re.compile(r"\[[^\]]*\]|\S+")


def reference_parse_element(raw, synonym_sets, path, line_no):
    """qclass._parse_element as it was before the element grammar was
    stated once, kept verbatim as the oracle of the parser."""
    if raw.startswith("[") and raw.endswith("]"):
        body = raw[1:-1].strip()
        if body == "*":
            return qclass._STAR
        if body == "TAG":
            return qclass._ANY_TAG
        if "|" not in body and not body.startswith("@") and body.upper() == body and body in qclass._KNOWN_TAGS:
            return TagMatch(body)
        alternatives = qclass._parse_alternatives(body, synonym_sets, path, line_no)
        if not alternatives:
            raise ResourceFormatError(path, line_no, f"empty alternation in {raw!r}")
        phrases = [tuple(a.split()) for a in alternatives]
        # Longer phrases first so "stand for" wins over a bare "stand".
        phrases.sort(key=lambda p: (-len(p), p))
        return LiteralSet(tuple(phrases), capture=True)
    # Bare token: must match but emits no feature (the trailing ? in patterns).
    return LiteralSet(((raw.lower(),),), capture=False)


def reference_parse_patterns(text, path="<patterns>"):
    """qclass.parse_patterns as it was before it read its lines through
    textproc.text_lines and its elements through one grammar, verbatim."""
    synonym_sets = {}
    patterns = []
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@"):
            name, _, rhs = line.partition("=")
            name = name.strip().lstrip("@")
            if not name or not rhs.strip():
                raise ResourceFormatError(path, line_no, f"bad synonym set definition: {line!r}")
            synonym_sets[name] = qclass._parse_alternatives(rhs, synonym_sets, path, line_no)
            continue
        head, sep, rhs = line.partition(":=")
        if not sep:
            raise ResourceFormatError(path, line_no, f"expected 'CATEGORY := elements', got {line!r}")
        try:
            category = QuestionType[head.strip().upper()]
        except KeyError:
            raise ResourceFormatError(path, line_no, f"unknown category {head.strip()!r}") from None
        raw_elements = _REFERENCE_ELEMENT_RE.findall(rhs)
        if "".join(raw_elements).replace(" ", "") != rhs.replace(" ", ""):
            raise ResourceFormatError(path, line_no, f"malformed element list: {rhs.strip()!r}")
        elements = tuple(
            reference_parse_element(tok, synonym_sets, path, line_no) for tok in raw_elements
        )
        if not elements:
            raise ResourceFormatError(path, line_no, "pattern has no elements")
        patterns.append(Pattern(category, elements))
    return patterns


# Drawn pattern lines: two synonym sets, then one pattern whose elements are
# literal groups (words, phrases, @ sets, inner padding), tags, [*], [TAG]
# and bare tokens.
_SET_LINES = "@S1 = alpha | beta gamma\n@S2 = delta\n"
_WHITESPACE = [" ", "\t", "\v", "\f", "\u00a0", "\u2028"]
_alternative = st.one_of(
    st.lists(st.sampled_from(["is", "what", "stand", "for", "x-y", "Does"]), min_size=1, max_size=2).map(" ".join),
    st.sampled_from(["@S1", "@S2"]),
)
_group = st.tuples(st.lists(_alternative, min_size=1, max_size=3), st.sampled_from(["", " "])).map(
    lambda drawn: "[" + drawn[1] + "|".join(drawn[0]) + drawn[1] + "]")
_element = st.one_of(
    _group,
    st.sampled_from(sorted(qclass._KNOWN_TAGS)).map(lambda tag: f"[{tag}]"),
    st.sampled_from(["[*]", "[TAG]", "[ * ]"]),
    st.sampled_from(["?", "what", "x-y", "Is"]),
)
_element_lists = st.lists(_element, min_size=1, max_size=6)


def _grammar(rhs: str) -> str:
    """The drawn set lines, then a YESNO pattern line (line 3) of rhs."""
    return f"{_SET_LINES}YESNO := {rhs}\n"


class TestPatternLines:
    @settings(max_examples=150)
    @given(elements=_element_lists, data=st.data())
    def test_any_whitespace_run_between_elements_parses_as_one_space(self, elements, data):
        runs = st.lists(st.sampled_from(_WHITESPACE), min_size=1, max_size=3).map("".join)
        rhs = elements[0] + "".join(data.draw(runs) + element for element in elements[1:])
        spaced = parse_patterns(_grammar(" ".join(elements)))
        assert parse_patterns(_grammar(rhs)) == spaced
        # Single-spaced lines parse as they did before.
        assert spaced == reference_parse_patterns(_grammar(" ".join(elements)))

    @settings(max_examples=150)
    @given(elements=_element_lists, bracket=st.sampled_from("[]"), data=st.data())
    def test_bracket_outside_a_group_is_refused(self, elements, bracket, data):
        # Any offset outside a group: between elements, against a group's
        # edge, or inside a bare token.
        rhs = " ".join(elements)
        outside = [k for k in range(len(rhs) + 1) if rhs.count("[", 0, k) == rhs.count("]", 0, k)]
        at = data.draw(st.sampled_from(outside))
        with pytest.raises(ResourceFormatError, match=r"^grammar\.txt:3: malformed element list: "):
            parse_patterns(_grammar(rhs[:at] + bracket + rhs[at:]), path="grammar.txt")

    def test_bundled_grammar_parses_as_before(self):
        text = (RESOURCE_DIR / "patterns.txt").read_text(encoding="utf-8")
        assert parse_patterns(text) == reference_parse_patterns(text)
        assert len(parse_patterns(text)) == 22
