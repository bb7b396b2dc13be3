import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioqa.conceptlex import (
    Concept,
    ConceptGraph,
    ConceptLexicon,
    ConceptMention,
    SentimentEntry,
    SentimentLexicon,
    UnknownConceptError,
    coarse_tag_class,
    path_similarity,
    recognize,
    row_sum,
    similarity_rows,
    synonyms_of,
    title_cuis,
    word_sentiment,
)
from bioqa.textproc import ResourceFormatError, memo_of, tokenize, word_tag


def bfs_node_count(adj, a, b):
    # Independent shortest-path oracle: number of nodes, endpoints included.
    if a == b:
        return 1
    seen = {a}
    queue = deque([(a, 1)])
    while queue:
        node, count = queue.popleft()
        for nb in adj.get(node, ()):
            if nb == b:
                return count + 1
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, count + 1))
    return None


class TestRecognize:
    def test_paper_mapping_rows(self, bundle):
        mentions = recognize("Mother is alcoholic and abuses tobacco.", bundle.concept_lexicon)
        by_surface = {m.matched.lower(): m.cui for m in mentions}
        assert by_surface["mother"] == "C0026591"
        assert by_surface["tobacco"] == "C0040329"

    def test_no_match(self, bundle):
        assert recognize("xyzzy frobnicate", bundle.concept_lexicon) == []

    def test_longest_match_wins(self):
        lexicon = ConceptLexicon([
            Concept("C1", "tobacco", "T131", "Substance"),
            Concept("C2", "tobacco use disorder", "T048", "Dysfunction"),
        ])
        mentions = recognize("tobacco use disorder", lexicon)
        assert len(mentions) == 1
        assert mentions[0].cui == "C2"
        assert mentions[0].matched == "tobacco use disorder"

    def test_first_listed_entry_breaks_surface_ties(self):
        lexicon = ConceptLexicon([
            Concept("C9", "aspirin", "T109", "Chemical"),
            Concept("C8", "aspirin", "T121", "Substance", ("acetylsalicylic acid",)),
        ])
        (mention,) = recognize("aspirin", lexicon)
        assert mention.cui == "C9"

    def test_mentions_ordered_disjoint_and_reproducible(self, bundle):
        rng = random.Random(17)
        vocab = ["mother", "tobacco", "use", "disorder", "imatinib", "drug", "the",
                 "antidepressant", "krabbe", "disease", "of", "and", "protein"]
        for _ in range(200):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 15)))
            mentions = recognize(text, bundle.concept_lexicon)
            last_end = -1
            for m in mentions:
                assert m.start >= last_end
                last_end = m.end
                again = recognize(text[m.start : m.end], bundle.concept_lexicon)
                assert [a.cui for a in again] == [m.cui]


class TestPathSimilarity:
    def test_identity_is_one(self, bundle):
        assert path_similarity("C0041341", "C0041341", bundle.graph) == 1.0

    def test_parent_child_is_half(self, bundle):
        assert path_similarity("C0019247", "C0041341", bundle.graph) == 0.5

    def test_three_node_chain(self):
        graph = ConceptGraph.from_edges([("a", "b"), ("b", "c")])
        assert path_similarity("a", "c", graph) == pytest.approx(1 / 3)

    def test_disconnected_is_none(self):
        graph = ConceptGraph.from_edges([("a", "b"), ("c", "d")])
        assert path_similarity("a", "d", graph) is None

    def test_unknown_cui_raises_with_name(self, bundle):
        with pytest.raises(UnknownConceptError) as err:
            path_similarity("C0041341", "C9999999", bundle.graph)
        assert "C9999999" in str(err.value)

    def test_matches_bfs_oracle_and_invariants(self):
        rng = random.Random(99)
        for _ in range(150):
            n = rng.randint(2, 9)
            nodes = [f"n{i}" for i in range(n)]
            edges = []
            for _ in range(rng.randint(1, 12)):
                a, b = rng.sample(nodes, 2)
                edges.append((a, b))
            graph = ConceptGraph.from_edges(edges)
            present = sorted(graph.nodes)
            a, b = rng.choice(present), rng.choice(present)
            got = path_similarity(a, b, graph)
            count = bfs_node_count(graph.adjacency, a, b)
            expected = None if count is None else 1.0 / count
            assert got == expected
            assert got == path_similarity(b, a, graph)
            if got is not None:
                assert 0 < got <= 1
                assert (got == 1.0) == (a == b)


class TestSimilaritySum:
    def test_empty_side_is_zero(self, bundle):
        assert row_sum(similarity_rows([], bundle.graph), ["C0041341"]) == 0.0

    def test_one_shared_concept(self):
        graph = ConceptGraph.from_edges([("a", "b")])
        assert row_sum(similarity_rows(["a"], graph), ["a"]) == 1.0

    def test_pairs_without_path_contribute_zero(self):
        graph = ConceptGraph.from_edges([("a", "b"), ("b", "c"), ("d", "e")])
        assert row_sum(similarity_rows(["a"], graph), ["c", "d"]) == pytest.approx(1 / 3)

    def test_monotone_under_adding_concepts(self):
        graph = ConceptGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        rng = random.Random(7)
        nodes = sorted(graph.nodes)
        for _ in range(100):
            left = [rng.choice(nodes) for _ in range(rng.randint(0, 3))]
            right = [rng.choice(nodes) for _ in range(rng.randint(0, 3))]
            base = row_sum(similarity_rows(left, graph), right)
            assert base >= 0.0
            assert row_sum(similarity_rows(left + [rng.choice(nodes)], graph), right) >= base
            assert row_sum(similarity_rows(left, graph), right + [rng.choice(nodes)]) >= base


class TestSynonyms:
    def test_tuberous_sclerosis_synonyms(self, bundle):
        assert synonyms_of("C0041341", bundle.concept_lexicon) == [
            "tsc", "bourneville disease", "tuberous sclerosis complex",
        ]

    def test_concept_without_synonyms(self, bundle):
        assert synonyms_of("C0005741", bundle.concept_lexicon) == []

    def test_unknown_cui(self, bundle):
        with pytest.raises(UnknownConceptError):
            synonyms_of("C404", bundle.concept_lexicon)


class TestWordSentiment:
    def test_unknown_word_is_zero(self, bundle):
        assert word_sentiment("zyzzyva", "n", bundle.sentiment) == 0.0

    def test_single_entry_mean(self):
        lex = SentimentLexicon([SentimentEntry("fine", "a", 0.75, 0.0)])
        assert word_sentiment("fine", "a", lex) == 0.75

    def test_two_entry_mean(self):
        lex = SentimentLexicon([
            SentimentEntry("mixed", "n", 0.5, 0.0),
            SentimentEntry("mixed", "n", 0.0, 0.25),
        ])
        assert word_sentiment("mixed", "n", lex) == pytest.approx(0.125)

    def test_class_match_beats_any_fallback(self):
        lex = SentimentLexicon([
            SentimentEntry("sound", "a", 0.5, 0.0),
            SentimentEntry("sound", "any", 0.0, 0.5),
        ])
        assert word_sentiment("sound", "a", lex) == 0.5
        assert word_sentiment("sound", "n", lex) == -0.5

    def test_every_class_specific_row_can_fire(self, bundle):
        # A row of class n, v, a or r scores a word only where the tagger
        # gives it that class: as some word_tag of the word, lowercase or
        # capitalised, first in its text or later.
        unreachable = [
            (e.word, e.tag_class) for e in bundle.sentiment.entries
            if e.tag_class != "any" and not any(
                coarse_tag_class(word_tag(surface, e.word, i, bundle.tag_lexicon)) == e.tag_class
                for surface in (e.word, e.word.capitalize()) for i in (0, 1)
            )
        ]
        assert unreachable == []

    @given(st.lists(
        st.tuples(st.sampled_from(["up", "down", "well"]), st.sampled_from(["n", "v", "a", "r", "any"]),
                  st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        max_size=12,
    ))
    @settings(max_examples=200, deadline=None)
    def test_score_is_the_mean_of_the_key_entries(self, rows):
        # Each (word, class) key may repeat; the reference takes the mean of
        # its entries, in file order, on every call.
        entries = [SentimentEntry(*row) for row in rows]
        lex = SentimentLexicon(entries)

        def mean(word, tag_class):
            values = [e.positivity - e.negativity for e in entries if (e.word, e.tag_class) == (word, tag_class)]
            return sum(values) / len(values) if values else None

        for word in ("up", "down", "well", "missing"):
            for tag_class in ("n", "v", "a", "r", "any"):
                expected = mean(word, tag_class)
                if expected is None:
                    expected = mean(word, "any")
                assert word_sentiment(word, tag_class, lex) == (0.0 if expected is None else expected)

    def test_score_range(self, bundle):
        rng = random.Random(31)
        words = [e.word for e in bundle.sentiment.entries] + ["missing"]
        for _ in range(200):
            score = word_sentiment(rng.choice(words), rng.choice(["n", "v", "a", "r", "any"]), bundle.sentiment)
            assert -1.0 <= score <= 1.0


class TestLoaders:
    def test_duplicate_cui_rejected(self):
        with pytest.raises(ValueError):
            ConceptLexicon([
                Concept("C1", "alpha", "T1", "Thing"),
                Concept("C1", "beta", "T1", "Thing"),
            ])

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("C1\tC1\n")
        with pytest.raises(ResourceFormatError):
            ConceptGraph.from_file(path)

    def test_sentiment_score_out_of_range(self, tmp_path):
        path = tmp_path / "senti.tsv"
        path.write_text("good\ta\t1.5\t0\n")
        with pytest.raises(ResourceFormatError):
            SentimentLexicon.from_file(path)

    def test_lexicon_bad_line_number(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("C1\talpha\tT1\tThing\n\njustone\n")
        with pytest.raises(ResourceFormatError) as err:
            ConceptLexicon.from_file(path)
        assert err.value.line_no == 3

    def test_repeated_cui_names_file_and_both_lines(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# concepts\nC1\talpha\tT1\tThing\nC2\tbeta\tT1\tThing\n\nC1\tgamma\tT1\tThing\n")
        with pytest.raises(ResourceFormatError) as err:
            ConceptLexicon.from_file(path)
        assert (err.value.path, err.value.line_no) == (str(path), 5)
        assert str(err.value) == f"{path}:5: duplicate concept identifier C1 (first listed on line 2)"


def windowed_recognize(text, lexicon):
    """Reference matcher: at each position, join the lowercased surfaces of
    every window length from the longest surface form down and look the
    string up; the first hit wins and scanning resumes after it."""
    tokens = tokenize(text)
    max_tokens = max([key.count(" ") + 1 for key in lexicon._surface_to_cui] + [1])
    mentions = []
    i = 0
    while i < len(tokens):
        found = None
        for length in range(min(max_tokens, len(tokens) - i), 0, -1):
            window = tokens[i : i + length]
            cui = lexicon._surface_to_cui.get(" ".join(t.surface.lower() for t in window))
            if cui is not None:
                found = (cui, window[0].start, window[-1].end, length)
                break
        if found:
            cui, start, end, length = found
            mentions.append(ConceptMention(cui, start, end, text[start:end]))
            i += length
        else:
            i += 1
    return mentions


# Surface forms that share a first token ("tobacco ..."), nest ("use
# disorder" inside "tobacco use disorder"), and collide ("smoking" is listed
# by both C5 and C6, "Tobacco" by both C1 and C7): the first listed wins.
OVERLAP_LEXICON = ConceptLexicon([
    Concept("C1", "tobacco", "T131", "Substance", ("tobacco leaf",)),
    Concept("C2", "tobacco use disorder", "T048", "Dysfunction", ("tobacco use",)),
    Concept("C3", "use disorder", "T048", "Dysfunction"),
    Concept("C4", "disorder", "T047", "Disease"),
    Concept("C5", "smoking", "T055", "Behavior", ("tobacco smoking behaviour",)),
    Concept("C6", "cigarette smoking", "T055", "Behavior", ("smoking",)),
    Concept("C7", "Tobacco", "T131", "Substance", ("tobacco products",)),
    Concept("C8", "leaf (plant)", "T002", "Plant"),
])
OVERLAP_WORDS = ["tobacco", "Tobacco", "TOBACCO", "use", "Use", "disorder", "smoking", "cigarette",
                 "behaviour", "leaf", "products", "(", "plant", ")", "the", ",", "and", "Ünïcode"]


class TestRecognizeEquivalence:
    def test_collision_resolves_to_first_listed(self):
        assert [m.cui for m in recognize("smoking TOBACCO", OVERLAP_LEXICON)] == ["C5", "C1"]

    @settings(max_examples=400)
    @given(words=st.lists(st.sampled_from(OVERLAP_WORDS), max_size=14),
           separators=st.lists(st.sampled_from([" ", "  ", "\t", "\n"]), min_size=14, max_size=14))
    @example(words=["tobacco", "use", "disorder"], separators=[" "] * 14)
    @example(words=["tobacco", "use", "smoking"], separators=[" "] * 14)
    @example(words=["leaf", "(", "plant", ")"], separators=[""] * 14)
    def test_matches_windowed_matcher(self, words, separators):
        text = "".join(w + sep for w, sep in zip(words, separators))
        assert recognize(text, OVERLAP_LEXICON) == windowed_recognize(text, OVERLAP_LEXICON)

    def test_matches_windowed_matcher_on_bundled_corpus(self, bundle, corpus):
        for doc in corpus.values():
            for text in (doc.title, doc.abstract, doc.abstract.upper()):
                assert recognize(text, bundle.concept_lexicon) == windowed_recognize(text, bundle.concept_lexicon)


class TestSurfaceKeys:
    """The lexicon's surface keys, made from token_surfaces, equal keys
    made from the Token objects of tokenize."""

    @staticmethod
    def token_keys(lexicon):
        keys = {}
        for concept in lexicon.concepts.values():
            for surface in (concept.preferred, *concept.synonyms):
                key = " ".join(t.surface.lower() for t in tokenize(surface))
                if key:
                    keys.setdefault(key, concept.cui)
        return keys

    def test_equal_token_keys(self, bundle):
        odd = ConceptLexicon([
            Concept("C1", "  Leaf  (Plant) ", "T002", "Plant", ("leaf(plant)", "ΟΔΟΣ.Β")),
            Concept("C2", "?!", "T000", "Punctuation", ("\t",)),
            Concept("C3", "İstanbul, Türkiye", "T083", "Place"),
        ])
        for lexicon in (bundle.concept_lexicon, OVERLAP_LEXICON, odd):
            assert list(lexicon._surface_to_cui.items()) == list(self.token_keys(lexicon).items())


class TestMemos:
    def test_title_cuis_equal_fresh_recognition(self, bundle, corpus):
        lexicon = ConceptLexicon(list(bundle.concept_lexicon.concepts.values()))
        titles = [doc.title for doc in corpus.values()] + ["", "Tobacco and TOBACCO use"]
        for _ in range(2):  # the second pass reads the memo
            memo = memo_of(lexicon, title_cuis)
            for title in titles:
                assert memo[title] == tuple(m.cui for m in recognize(title, lexicon))

    def test_title_memo_is_per_lexicon(self):
        first = ConceptLexicon([Concept("C1", "aspirin", "T109", "Chemical")])
        second = ConceptLexicon([Concept("C2", "aspirin", "T109", "Chemical")])
        assert memo_of(first, title_cuis)["Aspirin trial"] == ("C1",)
        assert memo_of(second, title_cuis)["Aspirin trial"] == ("C2",)

    def test_similarity_sum_equals_fresh_bfs(self):
        rng = random.Random(5)
        for _ in range(60):
            nodes = [f"n{i}" for i in range(rng.randint(2, 9))]
            graph = ConceptGraph.from_edges([tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 10))])
            pool = sorted(graph.nodes) + ["absent"]
            for _ in range(4):  # later rounds read pairs memoised by earlier ones
                qs = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
                ts = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
                expected = 0.0
                for qc in qs:
                    for tc in ts:
                        count = bfs_node_count(graph.adjacency, qc, tc) if qc in graph and tc in graph else None
                        if count is not None:
                            expected += 1.0 / count
                assert row_sum(similarity_rows(qs, graph), ts) == expected

    def test_similarity_memo_is_per_graph(self):
        chain = ConceptGraph.from_edges([("a", "b"), ("b", "c")])
        direct = ConceptGraph.from_edges([("a", "c"), ("c", "b")])
        assert row_sum(similarity_rows(["a"], chain), ["c"]) == pytest.approx(1 / 3)
        assert row_sum(similarity_rows(["a"], direct), ["c"]) == 0.5
        assert chain == ConceptGraph.from_edges([("a", "b"), ("b", "c")])
