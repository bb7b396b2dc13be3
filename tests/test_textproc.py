import random
import string

import pytest

from bioqa import textproc
from bioqa.textproc import (
    ResourceFormatError,
    TagLexicon,
    bigrams,
    load_abbreviations,
    pos_tag,
    split_sentences,
    stem,
    token_surfaces,
    tokenize,
)

from conftest import DATA_DIR, RESOURCE_DIR

MUENKE_ABSTRACT_FIRST = "Epilepsy, a neurologic disorder"


@pytest.fixture(scope="module")
def abbreviations():
    return load_abbreviations(RESOURCE_DIR / "abbreviations.txt")


@pytest.fixture(scope="module")
def tag_lexicon():
    return TagLexicon.from_file(RESOURCE_DIR / "tags.tsv")


class TestTokenize:
    def test_question_split(self):
        assert [t.surface for t in tokenize("Is imatinib an antidepressant drug?")] == [
            "Is", "imatinib", "an", "antidepressant", "drug", "?",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_parentheses_are_tokens(self):
        assert [t.surface for t in tokenize("FGFR3(P250R)")] == ["FGFR3", "(", "P250R", ")"]

    def test_hyphen_and_slash_stay_joined(self):
        surfaces = [t.surface for t in tokenize("the 35-kilogram kid and/or EWS/FLI")]
        assert "35-kilogram" in surfaces and "and/or" in surfaces and "EWS/FLI" in surfaces

    def test_unicode_tokens_survive(self):
        tokens = tokenize("association of spermidine with α-synuclein neurotoxicity?")
        assert "α-synuclein" in [t.surface for t in tokens]

    def test_offsets_match_source(self):
        rng = random.Random(11)
        alphabet = string.ascii_letters + string.digits + " ()[],?.:;!\"-/'\n\t"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            tokens = tokenize(text)
            last_end = -1
            for tok in tokens:
                assert tok.start < tok.end
                assert tok.start > last_end or tok.start >= last_end
                assert tok.start >= last_end
                assert text[tok.start : tok.end] == tok.surface
                last_end = tok.end
            # non-whitespace content is fully covered
            covered = "".join(t.surface for t in tokens)
            assert covered == "".join(text.split())


class TestSplitSentences:
    def test_muenke_abstract_has_eight_sentences(self, bundle, corpus, abbreviations):
        abstract = corpus["23044018"].abstract
        sentences = split_sentences(abstract, abbreviations)
        assert len(sentences) == 8
        assert sentences[0].text.startswith(MUENKE_ABSTRACT_FIRST)
        assert any(
            s.text == "We present seven patients with Muenke syndrome and seizures."
            for s in sentences
        )

    def test_single_sentence_without_terminator(self, abbreviations):
        sentences = split_sentences("One sentence only", abbreviations)
        assert len(sentences) == 1
        assert sentences[0].text == "One sentence only"

    def test_abbreviation_does_not_break(self, abbreviations):
        text = "Mutation in FGFR3 (e.g. P250R) is causal. It is dominant."
        sentences = split_sentences(text, abbreviations)
        assert [s.text for s in sentences] == [
            "Mutation in FGFR3 (e.g. P250R) is causal.",
            "It is dominant.",
        ]

    def test_spans_cover_all_tokens(self, abbreviations):
        rng = random.Random(23)
        words = ["Epilepsy", "occurs", "rarely", "e.g.", "Dr.", "Smith", "said", "so", "2010"]
        for _ in range(200):
            text = ""
            for _ in range(rng.randint(1, 25)):
                text += rng.choice(words) + rng.choice([" ", " ", ". ", "? ", "! "])
            sentences = split_sentences(text, abbreviations)
            starts = [s.start for s in sentences]
            assert starts == sorted(starts)
            for a, b in zip(sentences, sentences[1:]):
                assert a.end <= b.start
            for tok in tokenize(text):
                assert any(s.start <= tok.start and tok.end <= s.end for s in sentences), (
                    text, tok,
                )


class TestPosTag:
    def test_zithromax_question(self, tag_lexicon):
        surfaces = token_surfaces("What is the dose of Zithromax for this 35-kilogram kid ?")
        tags = [tag for _, tag in pos_tag(surfaces, tag_lexicon)]
        assert tags == ["WP", "VBZ", "DT", "NN", "IN", "NNP", "IN", "DT", "JJ", "NN", "."]

    def test_autophagy_question(self, tag_lexicon):
        surfaces = token_surfaces("What is the definition of autophagy ?")
        tags = [tag for _, tag in pos_tag(surfaces, tag_lexicon)]
        assert tags == ["WP", "VBZ", "DT", "NN", "IN", "NN", "."]

    def test_lexicon_entry(self, tag_lexicon):
        assert pos_tag(["is"], tag_lexicon) == [("is", "VBZ")]

    def test_lexicon_entry_wins_over_heuristics_even_when_empty(self):
        lexicon = TagLexicon({"running": "NN", "quickly": ""})
        assert [tag for _, tag in pos_tag(token_surfaces("Running quickly Running"), lexicon)] == ["NN", "", "NN"]
        assert textproc.word_tag("Quickly", "quickly", 1, lexicon) == ""

    def test_every_token_tagged_from_inventory(self, tag_lexicon):
        # The lexicon's tags and the ones the suffix heuristics can emit.
        inventory = set(tag_lexicon.entries.values()) | {"NN", "NNS", "NNP", "JJ", "VBZ", "VBG", "VBN", "RB"}
        rng = random.Random(5)
        vocab = ["What", "is", "genes", "measured", "running", "quickly", "FGFR3",
                 "35-kilogram", "the", "?", "(", "word", "Proteins", "abuses"]
        for _ in range(200):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
            tagged = pos_tag(token_surfaces(text), tag_lexicon)
            assert len(tagged) == len(tokenize(text))
            for _, tag in tagged:
                assert tag in inventory


class TestStem:
    def test_no_rule_fires(self):
        assert stem("cat") == "cat"

    def test_plural_stripping(self):
        assert stem("caresses") == "caress"

    def test_derivational(self):
        assert stem("definition") == "definit"

    def test_reference_vocabulary_exact(self):
        lines = (DATA_DIR / "porter_reference.tsv").read_text().splitlines()
        assert len(lines) > 3000
        mismatches = [
            line for line in lines
            if stem(line.split("\t")[0]) != line.split("\t")[1]
        ]
        assert mismatches == []

    def test_memo_equals_unmemoised_stem_on_bundled_corpus(self, corpus):
        reference = stem.__wrapped__  # the Porter algorithm without the memo
        words = {t.surface for doc in corpus.values() for t in tokenize(f"{doc.title} {doc.abstract}")}
        assert len(words) > 300
        for _ in range(2):  # the second pass reads the memo
            for word in sorted(words):
                for variant in (word, word.lower(), word.upper(), word.title(), word.swapcase()):
                    assert stem(variant) == reference(variant)

    def test_one_stem_object_everywhere(self):
        from bioqa import evalkit, qclass, retrieval

        assert retrieval.stem is qclass.stem is evalkit.porter_stem is textproc.stem is stem


class TestBigrams:
    def test_bigrams_of_question(self):
        tokens = [t.surface for t in tokenize("What is the definition of autophagy ?")]
        assert bigrams(tokens) == [
            "What-is", "is-the", "the-definition", "definition-of", "of-autophagy", "autophagy-?",
        ]

    def test_fewer_than_two_tokens(self):
        assert bigrams([]) == bigrams(["a"]) == []

    def test_length_formula(self):
        rng = random.Random(3)
        for _ in range(100):
            tokens = [str(i) for i in range(rng.randint(0, 12))]
            assert len(bigrams(tokens)) == max(0, len(tokens) - 1)


def test_bad_abbreviation_file(tmp_path):
    path = tmp_path / "abbrev.txt"
    path.write_text("e.g.\nbroken\n")
    with pytest.raises(ResourceFormatError):
        load_abbreviations(path)


def test_bad_tag_lexicon_line(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("what\tWP\nnotabin\n")
    with pytest.raises(ResourceFormatError) as err:
        TagLexicon.from_file(path)
    assert err.value.line_no == 2
