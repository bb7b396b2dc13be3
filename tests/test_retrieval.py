import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioqa import conceptlex, ingest, retrieval, textproc
from bioqa.conceptlex import (
    Concept,
    ConceptGraph,
    ConceptLexicon,
    path_similarity,
    row_sum,
    similarity_rows,
    title_cuis,
)
from bioqa.retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    DocumentRecord,
    DuplicateIdError,
    PassageCandidate,
    Query,
    UnknownUnitError,
    bm25_score,
    build_index,
    extract_passages,
    formulate_query,
    rank_passages,
    rerank_documents,
    search,
)
from bioqa.textproc import is_content_word, split_sentences, stem

import reference_pipeline as reference
from conftest import (
    RESOURCE_DIR,
    analysed,
    index_from_terms,
    question_terms,
    random_bm25_case,
    random_rerank_case,
    word_cuis,
)


class TestFormulateQuery:
    def test_imatinib_question_maps_both_concepts(self, bundle):
        query = formulate_query("Is imatinib an antidepressant drug?", bundle.concept_lexicon, bundle.stopwords)
        assert set(query.concept_terms) == {"Imatinib", "Antidepressive Agents"}

    def test_fallback_to_content_tokens(self, bundle):
        query = formulate_query("Is zorbifen a quuxamine?", bundle.concept_lexicon, bundle.stopwords)
        assert query.concept_terms == ()
        assert query.raw_terms == ("zorbifen", "quuxamine")

    def test_repeated_concept_deduplicated(self, bundle):
        query = formulate_query("tobacco and tobacco", bundle.concept_lexicon, bundle.stopwords)
        assert query.concept_terms == ("Tobacco",)


class TestBuildIndex:
    def test_empty_corpus(self, bundle):
        index = build_index([], "document", bundle.stopwords, bundle.concept_lexicon)
        assert index.n_units == 0
        assert index.postings == {}
        assert search(index, Query(("Imatinib",), ()), 10, bundle.stopwords, bundle.concept_lexicon).docs == []

    def test_term_frequency_counts_casefolded(self, bundle):
        index = build_index([("d1", "Epilepsy epilepsy")], "document", bundle.stopwords, ConceptLexicon([]))
        assert index.postings[stem("epilepsy")]["d1"] == 2

    def test_concept_phrase_contributes_stems_and_cui(self, bundle):
        index = build_index(
            [("d1", "tuberous sclerosis")], "document", bundle.stopwords, bundle.concept_lexicon
        )
        assert "C0041341" in index.postings
        assert stem("tuberous") in index.postings
        assert stem("sclerosis") in index.postings

    def test_duplicate_id_rejected(self, bundle):
        with pytest.raises(DuplicateIdError):
            build_index([("d1", "a"), ("d1", "b")], "document", bundle.stopwords, ConceptLexicon([]))


class TestBm25:
    def test_empty_query_scores_zero(self):
        index = index_from_terms([["a", "b"]])
        assert bm25_score([], "u0", index) == 0.0

    def test_average_length_case_is_ln_five_thirds(self):
        index = index_from_terms([["t", "x"], ["y", "z"], ["w", "v"]])
        got = bm25_score(["t"], "u0", index, k1=1.2, b=0.85)
        assert got == pytest.approx(math.log(5 / 3), abs=1e-9)

    def test_term_in_every_unit_contributes_zero(self):
        index = index_from_terms([["t"], ["t"], ["t"]])
        assert bm25_score(["t"], "u0", index) == 0.0

    def test_unknown_unit(self):
        index = index_from_terms([["a"]])
        with pytest.raises(UnknownUnitError):
            bm25_score(["a"], "nope", index)

    def test_monotone_in_term_frequency(self):
        # Same length, more occurrences of the query term scores higher;
        # the term stays in a minority of units so its IDF is positive.
        index = index_from_terms([["t", "t", "a"], ["t", "a", "b"], ["x", "y", "z"], ["x", "w", "v"], ["q", "r", "s"]])
        assert bm25_score(["t"], "u0", index) > bm25_score(["t"], "u1", index) > 0.0

    def test_longer_unit_scores_lower_when_b_positive(self):
        index = index_from_terms([["t", "a", "a", "a"], ["t"], ["x"], ["y"], ["z"]])
        assert bm25_score(["t"], "u1", index, b=0.85) > bm25_score(["t"], "u0", index, b=0.85) > 0.0

    def test_b_zero_ignores_length(self):
        index = index_from_terms([["t", "a", "a", "a", "a"], ["t"], ["x", "y"], ["z"], ["w"]])
        score = bm25_score(["t"], "u0", index, b=0.0)
        assert score > 0.0
        assert score == pytest.approx(bm25_score(["t"], "u1", index, b=0.0), abs=1e-12)

    def test_matches_direct_formula_on_random_corpora(self):
        rng = random.Random(20)
        for _ in range(250):
            units, query, k1, b = random_bm25_case(rng)
            index = index_from_terms(units)
            expected = reference.bm25(query, units, k1, b)
            assert [bm25_score(query, f"u{i}", index, k1=k1, b=b) for i in range(len(units))] == expected


class TestSearch:
    def test_unique_conjunctive_hit_ranks_first(self, bundle, doc_index):
        query = formulate_query("What is the cause of Phthiriasis Palpebrarum?", bundle.concept_lexicon, bundle.stopwords)
        result = search(doc_index, query, 10, bundle.stopwords, bundle.concept_lexicon)
        assert not result.relaxed
        assert {d.doc_id for d in result.docs} <= {"19240421", "18580948"}
        assert result.docs[0].rank == 1

    def test_relaxation_flag_observable(self, bundle):
        index = build_index(
            [("d1", "imatinib treats leukemia"), ("d2", "antidepressant drugs help depression")],
            "document", bundle.stopwords, bundle.concept_lexicon,
        )
        query = formulate_query("Is imatinib an antidepressant drug?", bundle.concept_lexicon, bundle.stopwords)
        result = search(index, query, 10, bundle.stopwords, bundle.concept_lexicon)
        assert result.relaxed
        assert result.docs

    def test_zero_limit(self, bundle, doc_index):
        query = Query(("Imatinib",), ())
        assert search(doc_index, query, 0, bundle.stopwords, bundle.concept_lexicon).docs == []

    def test_conjunctive_subset_of_disjunctive(self, bundle):
        rng = random.Random(8)
        vocab = ["imatinib", "epilepsy", "tobacco", "mother", "protein", "gene"]
        units = [
            (f"d{i}", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
            for i in range(12)
        ]
        no_concepts = ConceptLexicon([])
        index = build_index(units, "document", bundle.stopwords, no_concepts)
        for _ in range(50):
            words = tuple(rng.sample(vocab, rng.randint(1, 3)))
            query = Query((), words)
            strict = search(index, query, 50, bundle.stopwords, no_concepts)
            if strict.relaxed:
                continue
            strict_ids = {d.doc_id for d in strict.docs}
            single = set()
            for w in words:
                single |= {d.doc_id for d in search(index, Query((), (w,)), 50, bundle.stopwords, no_concepts).docs}
            assert strict_ids <= single


class TestBm25Parameters:
    """search and rank_passages reject k1 <= 0, a k1 that is not finite and
    b outside [0, 1] whether or not any unit is scored."""

    BAD = [(0.0, 0.85), (-1.2, 0.85), (math.nan, 0.85), (math.inf, 0.85),
           (1.2, -0.1), (1.2, 1.5), (1.2, math.nan)]

    @pytest.mark.parametrize("k1,b", BAD)
    def test_search_with_candidates(self, k1, b):
        index = index_from_terms([["aa", "bb"], ["aa"], ["cc"]])
        with pytest.raises(ValueError):
            search(index, Query((), ("aa",)), 10, set(), ConceptLexicon([]), k1=k1, b=b)

    @pytest.mark.parametrize("query,limit", [(("zz",), 10), ((), 10), (("aa",), 0)],
                             ids=["unmatched", "empty", "zero-limit"])
    @pytest.mark.parametrize("k1,b", BAD)
    def test_search_without_candidates(self, k1, b, query, limit):
        index = index_from_terms([["aa", "bb"], ["aa"], ["cc"]])
        with pytest.raises(ValueError):
            search(index, Query((), query), limit, set(), ConceptLexicon([]), k1=k1, b=b)

    @pytest.mark.parametrize("k1,b", BAD)
    def test_rank_passages_with_candidates(self, bundle, k1, b):
        candidates = [analysed(bundle, "Imatinib treats leukemia.", "d", 0),
                      analysed(bundle, "Tobacco harms the mother.", "d", 1)]
        with pytest.raises(ValueError):
            rank_passages(question_terms(bundle, "Does imatinib treat leukemia?"), candidates, k1=k1, b=b)

    @pytest.mark.parametrize("top_n", [10, 0])
    @pytest.mark.parametrize("k1,b", BAD)
    def test_rank_passages_without_candidates(self, bundle, k1, b, top_n):
        candidates = [] if top_n else [analysed(bundle, "Imatinib treats leukemia.", "d", 0)]
        with pytest.raises(ValueError):
            rank_passages(question_terms(bundle, "Does imatinib treat leukemia?"), candidates, k1=k1, b=b, top_n=top_n)

    def test_boundary_values_accepted(self):
        index = index_from_terms([["aa", "bb"], ["aa"], ["cc"]])
        for b in (0.0, 1.0):
            assert search(index, Query((), ("bb",)), 10, set(), ConceptLexicon([]), k1=1e-9, b=b).docs
        assert rank_passages(["aa"], [], k1=1e-9, b=1.0) == []


class TestRerank:
    def test_shared_concept_doc_ranks_first(self, bundle):
        docs = [
            DocumentRecord("a", "Antidepressive agents overview.", ""),
            DocumentRecord("b", "Tuberous sclerosis complex diagnosed from oral lesions.", ""),
        ]
        ranked = rerank_documents("Is Tuberous Sclerosis a genetic disease?", docs,
                                  bundle.concept_lexicon, bundle.graph, 10)
        assert ranked[0].doc_id == "b"
        assert ranked[0].score > ranked[1].score

    def test_all_zero_scores_preserve_order(self, bundle):
        docs = [DocumentRecord(i, "nothing relevant here", "") for i in ("x", "y", "z")]
        ranked = rerank_documents("Is Tuberous Sclerosis a genetic disease?", docs,
                                  bundle.concept_lexicon, bundle.graph, 10)
        assert [d.doc_id for d in ranked] == ["x", "y", "z"]

    def test_m_larger_than_docs(self, bundle):
        docs = [DocumentRecord("x", "epilepsy", "")]
        assert len(rerank_documents("epilepsy", docs, bundle.concept_lexicon, bundle.graph, 99)) == 1

    @pytest.mark.parametrize("m", [0, -1, -3])
    def test_m_below_one_keeps_nothing(self, bundle, m):
        # As search with limit <= 0 and rank_passages with top_n <= 0; a
        # slice [:m] would keep all but the last |m| documents.
        docs = [DocumentRecord(i, "Tuberous sclerosis", "") for i in ("x", "y", "z")]
        assert rerank_documents("Is Tuberous Sclerosis a genetic disease?", docs,
                                bundle.concept_lexicon, bundle.graph, m) == []

    def test_question_without_hierarchy_cuis_reads_no_title(self):
        lexicon = ConceptLexicon([Concept("K0", "alpha", "T0", "Thing"), Concept("K1", "beta", "T0", "Thing")])
        graph = ConceptGraph.from_edges([("K1", "K9")])
        docs = [DocumentRecord(i, "beta", "") for i in ("x", "y", "z")]
        ranked = rerank_documents("alpha and gamma", docs, lexicon, graph, 2)
        assert [(d.doc_id, d.score, d.rank) for d in ranked] == [("x", 0.0, 1), ("y", 0.0, 2)]
        assert title_cuis not in vars(lexicon).get("_memos", {})

    def test_first_question_cui_outside_the_hierarchy_still_scores(self):
        # Only the second question cui is in the hierarchy; the title
        # holding it must move ahead of the one that does not.
        lexicon = ConceptLexicon([Concept("K0", "alpha", "T0", "Thing"), Concept("K1", "beta", "T0", "Thing")])
        graph = ConceptGraph.from_edges([("K1", "K9")])
        docs = [DocumentRecord("x", "alpha", ""), DocumentRecord("y", "beta", "")]
        ranked = rerank_documents("alpha or beta", docs, lexicon, graph, 2)
        assert [(d.doc_id, d.score, d.rank) for d in ranked] == [("y", 1.0, 1), ("x", 0.0, 2)]

    def test_returns_prefix_permutation(self, bundle, corpus):
        docs = list(corpus.values())
        ranked = rerank_documents("What symptoms characterize the Muenke syndrome?", docs,
                                  bundle.concept_lexicon, bundle.graph, 5)
        assert len(ranked) == 5
        ids = [d.doc_id for d in ranked]
        assert len(set(ids)) == 5
        assert set(ids) <= {d.doc_id for d in docs}
        assert [d.rank for d in ranked] == [1, 2, 3, 4, 5]
        scores = [d.score for d in ranked]
        assert scores == sorted(scores, reverse=True)


def test_rerank_matches_bruteforce_on_random_instances():
    # Random hierarchies, cycles included; scores must be bit-equal too.
    rng = random.Random(2024)
    for _ in range(120):
        lexicon, graph, question, docs, m = random_rerank_case(rng)
        got = rerank_documents(question, docs, lexicon, graph, m)
        titles = [(doc.doc_id, word_cuis(doc.title)) for doc in docs]
        assert [(d.doc_id, d.score) for d in got] == reference.rerank(word_cuis(question), titles, graph, m)


class TestExtractPassages:
    def test_muenke_item_five_present(self, bundle, corpus):
        candidates = extract_passages([corpus["23044018"]], bundle.abbreviations, bundle.stopwords,
                                      bundle.concept_lexicon)
        texts = [c.text for c in candidates]
        assert "We present seven patients with Muenke syndrome and seizures." in texts
        assert len(candidates) == 8

    def test_empty_abstract_contributes_nothing(self, bundle):
        docs = [DocumentRecord("e", "title", "")]
        assert extract_passages(docs, bundle.abbreviations, bundle.stopwords, bundle.concept_lexicon) == []

    def test_document_order_preserved(self, bundle):
        docs = [
            DocumentRecord("a", "t", "One here. Two here. Three here."),
            DocumentRecord("b", "t", "Four here. Five here. Six here."),
        ]
        candidates = extract_passages(docs, bundle.abbreviations, bundle.stopwords, bundle.concept_lexicon)
        assert [(c.doc_id, c.sent_index) for c in candidates] == [
            ("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("b", 2),
        ]


class TestRankPassages:
    def test_repeated_concept_outranks_single(self, bundle):
        # Distractor passages keep the imatinib terms in a minority of the
        # passage set, so their IDF stays positive.
        candidates = [
            analysed(bundle, "Imatinib is compared against imatinib here today", "d1", 0),
            analysed(bundle, "Imatinib is compared against placebo controls today", "d1", 1),
            analysed(bundle, "Unrelated sentence about crops and weather", "d2", 0),
            analysed(bundle, "Another filler sentence mentioning gardens only", "d2", 1),
            analysed(bundle, "Final filler sentence across different words", "d2", 2),
        ]
        ranked = rank_passages(question_terms(bundle, "imatinib"), candidates)
        assert ranked[0].passage.sent_index == 0
        assert ranked[0].score > ranked[1].score > 0.0

    def test_zero_overlap_keeps_provenance_order(self, bundle):
        candidates = [
            analysed(bundle, "alpha beta gamma", "d1", 0),
            analysed(bundle, "delta epsilon zeta", "d1", 1),
            analysed(bundle, "eta theta iota", "d2", 0),
        ]
        ranked = rank_passages(question_terms(bundle, "imatinib"), candidates)
        assert [r.passage.text for r in ranked] == [c.text for c in candidates]
        assert all(r.score == 0.0 for r in ranked)

    def test_top_n_larger_than_candidates(self, bundle):
        candidates = [analysed(bundle, "imatinib works", "d", 0)]
        assert len(rank_passages(question_terms(bundle, "imatinib"), candidates, top_n=10)) == 1

    def test_scores_non_increasing_and_deterministic(self, bundle, corpus):
        candidates = extract_passages(list(corpus.values()), bundle.abbreviations, bundle.stopwords,
                                      bundle.concept_lexicon)
        first = rank_passages(question_terms(bundle, "What symptoms characterize the Muenke syndrome?"), candidates)
        second = rank_passages(question_terms(bundle, "What symptoms characterize the Muenke syndrome?"), candidates)
        assert first == second
        scores = [r.score for r in first]
        assert scores == sorted(scores, reverse=True)


# Words of the bundled corpus as written (punctuation attached, so sentence
# ends and abbreviations occur), plus tokens that stress the tokenizer.
CORPUS_WORDS = sorted(
    {w for d in ingest.load_corpus(RESOURCE_DIR / "corpus.jsonl") for w in f"{d.title} {d.abstract}".split()}
    | {"e.g.", "i.e.", "?", "!", "...", "-", "(IL-2)", "café", "ß", "\u00a0", "\n"}
)
_sentences = st.lists(st.sampled_from(CORPUS_WORDS), max_size=25).map(" ".join)
_abstracts = st.one_of(_sentences, st.text(max_size=80))


class TestPassageAnalysis:
    """Candidates carry an analysis equal to a fresh one of their text."""

    @staticmethod
    def check(bundle, docs):
        candidates = extract_passages(docs, bundle.abbreviations, bundle.stopwords, bundle.concept_lexicon)
        assert candidates, "the check needs at least one sentence"
        for c in candidates:
            assert (list(c.terms), list(c.cuis)) == reference.analyse(c.text, bundle.stopwords, bundle.concept_lexicon)

    def test_bundled_corpus(self, bundle, corpus):
        self.check(bundle, list(corpus.values()))

    @settings(max_examples=60)
    @given(abstracts=st.lists(_abstracts, min_size=1, max_size=3))
    def test_generated_abstracts(self, bundle, abstracts):
        docs = [DocumentRecord(f"d{i}", "t", a) for i, a in enumerate(abstracts)]
        if any(split_sentences(d.abstract, bundle.abbreviations) for d in docs):
            self.check(bundle, docs)


def fresh_passages(docs, abbreviations, stopwords, bundle):
    """The candidates of docs as the reference analyses them."""
    return [PassageCandidate(p.text, p.doc_id, p.sent_index, tuple(p.terms), tuple(p.cuis))
            for p in reference.passages(docs, abbreviations, stopwords, bundle.concept_lexicon)]


# "dr." is a bundled abbreviation, so this splits into two sentences with
# the bundled set and into three without it.
DR_ABSTRACT = "Dr. Smith found the FGFR3 mutation. It causes Muenke syndrome."


class TestPassageMemo:
    """extract_passages keeps each document's candidates on the lexicon,
    apart for each stopword and abbreviation set."""

    @staticmethod
    def lexicon(bundle):
        """A lexicon equal to the bundled one, with an empty memo."""
        return ConceptLexicon(list(bundle.concept_lexicon.concepts.values()))

    @settings(max_examples=40)
    @given(docs=st.lists(st.tuples(st.sampled_from("abc"), st.one_of(_sentences, st.just(DR_ABSTRACT))),
                         min_size=1, max_size=4),
           order=st.permutations(range(4)))
    # One abstract under two ids, and one id with two abstracts.
    @example(docs=[("a", DR_ABSTRACT), ("b", DR_ABSTRACT), ("b", "The seizures of Muenke syndrome.")],
             order=[0, 1, 2, 3])
    def test_memoised_equals_fresh(self, bundle, docs, order):
        lexicon = self.lexicon(bundle)
        docs = [DocumentRecord(doc_id, "t", abstract) for doc_id, abstract in docs]
        resources = [(abbreviations, stopwords)
                     for abbreviations in (bundle.abbreviations, set())
                     for stopwords in (bundle.stopwords, {"mutation"})]
        for k in [*order, *order]:
            abbreviations, stopwords = resources[k]
            got = extract_passages(docs, abbreviations, stopwords, lexicon)
            assert got == fresh_passages(docs, abbreviations, stopwords, bundle)
        # A later request with the same sets reuses the memoised candidates.
        again = extract_passages(docs, abbreviations, stopwords, lexicon)
        assert len(again) == len(got) and all(a is b for a, b in zip(again, got))

    def test_records_with_one_id_keep_their_own_passages(self, bundle):
        # The memo's key is the whole record, so a second abstract under an id is analysed on its own.
        lexicon = self.lexicon(bundle)
        records = [DocumentRecord("d", "t", DR_ABSTRACT), DocumentRecord("d", "t", "The seizures of Muenke syndrome.")]
        for doc in [*records, *records]:
            got = extract_passages([doc], bundle.abbreviations, bundle.stopwords, lexicon)
            assert got == fresh_passages([doc], bundle.abbreviations, bundle.stopwords, bundle)
        assert len(textproc.memo_of(lexicon, retrieval._analyse_sentences, bundle.abbreviations, bundle.stopwords)) == 2

    def test_every_document_kept_past_2048(self, bundle, monkeypatch):
        # More documents than the memo once kept (2048): a second pass over
        # them all analyses none of them again.
        lexicon = self.lexicon(bundle)
        resources = (bundle.abbreviations, bundle.stopwords, lexicon)
        docs = [DocumentRecord(f"d{i}", "t", f"Trial {i} of imatinib ended. {DR_ABSTRACT}") for i in range(2100)]
        analyses = Counter()
        analyse_sentences = retrieval._analyse_sentences

        def counting(doc, *args):
            analyses[doc.doc_id] += 1
            return analyse_sentences(doc, *args)

        monkeypatch.setattr(retrieval, "_analyse_sentences", counting)
        first = extract_passages(docs, *resources)
        again = extract_passages(docs, *resources)
        assert analyses == Counter(doc.doc_id for doc in docs)
        assert len(again) == len(first) and all(a is b for a, b in zip(again, first))
        assert first == fresh_passages(docs, bundle.abbreviations, bundle.stopwords, bundle)


class TestWordTable:
    """analyse reads each word's index term from the lexicon's word memo:
    one memo per stopword set object, cleared at textproc.MEMO_BOUND."""

    @staticmethod
    def lexicon(bundle):
        """A lexicon equal to the bundled one, with an empty word table."""
        return ConceptLexicon(list(bundle.concept_lexicon.concepts.values()))

    @staticmethod
    def texts(corpus):
        return [f"{doc.title} {doc.abstract}" for doc in corpus.values()]

    def test_each_stopword_set_gets_its_own_terms(self, bundle, corpus):
        texts = self.texts(corpus)
        units = list(zip(corpus, texts))
        lexicon = self.lexicon(bundle)
        indexed = []
        for stopwords in (bundle.stopwords, {"mutation"}, bundle.stopwords, set()):
            for text in texts:
                got = retrieval.analyse(text, stopwords, lexicon)
                assert got == retrieval.analyse(text, stopwords, self.lexicon(bundle))
            index = build_index(units, "document", stopwords, lexicon)
            assert index == build_index(units, "document", stopwords, self.lexicon(bundle))
            indexed.append(int(index.unit_lengths.sum()))
        # The three sets index different numbers of words.
        assert indexed[0] == indexed[2] and len(set(indexed)) == 3

    def test_second_pass_reads_the_table(self, bundle, corpus, monkeypatch):
        texts = self.texts(corpus)
        lexicon = self.lexicon(bundle)
        first = [retrieval.analyse(text, bundle.stopwords, lexicon) for text in texts]
        stemmed = Counter()

        def counting(word):
            stemmed[word] += 1
            return stem(word)

        monkeypatch.setattr(retrieval, "stem", counting)
        assert [retrieval.analyse(text, bundle.stopwords, lexicon) for text in texts] == first
        assert not stemmed
        # A new set starts a new memo, which stems each indexed word once.
        stopwords = set(bundle.stopwords)
        assert [retrieval.analyse(text, stopwords, lexicon) for text in texts] == first
        assert stemmed and set(stemmed.values()) == {1}

        # The same holds for the graph's similarity rows: once they exist,
        # every pair new to them, and no other, reaches path_similarity.
        graph = ConceptGraph(bundle.graph.adjacency)
        docs = list(corpus.values())
        question = "Is Tuberous Sclerosis a genetic disease?"
        rerank_documents(question, docs[:3], lexicon, graph, 10)
        rows = graph._memos[conceptlex._similarity_row]
        before = {(qc, tc) for qc, row in rows.items() for tc in row}
        expected = rerank_documents(question, docs, lexicon, ConceptGraph(graph.adjacency), 10)
        asked = Counter()

        def counting(c1, c2, g):
            asked[c1, c2] += 1
            return path_similarity(c1, c2, g)

        monkeypatch.setattr(conceptlex, "path_similarity", counting)
        rerank_documents(question, docs[:3], lexicon, graph, 10)
        assert not asked
        assert rerank_documents(question, docs, lexicon, graph, 10) == expected
        new = {(qc, tc) for qc, row in rows.items() for tc in row if tc in graph} - before
        assert new and set(asked) == new and set(asked.values()) == {1}

    def test_bound(self, bundle, corpus, monkeypatch):
        assert textproc.MEMO_BOUND == stem.cache_info().maxsize
        texts = self.texts(corpus)
        words = [f"w{i}" for i in range(50)]
        expected = [retrieval.analyse(text, bundle.stopwords, self.lexicon(bundle)) for text in texts]
        monkeypatch.setattr(textproc, "MEMO_BOUND", 16)
        lexicon = self.lexicon(bundle)
        for word in words:
            assert retrieval.analyse(word, bundle.stopwords, lexicon) == ([stem(word)], [])
            assert len(lexicon._memos[retrieval._word_term]) <= 16
        # One text with more distinct words than the bound.
        assert retrieval.index_terms(" ".join(words), bundle.stopwords, lexicon) == list(map(stem, words))
        assert len(lexicon._memos[retrieval._word_term]) <= 16
        assert [retrieval.analyse(text, bundle.stopwords, lexicon) for text in texts] == expected


def passage_oracle(bundle, question, texts, k1, b, top_n):
    """reference_pipeline.rank_passages of texts for question."""
    terms = [reference.analyse(text, bundle.stopwords, bundle.concept_lexicon)[0] for text in [question, *texts]]
    return reference.rank_passages(terms[0], terms[1:], k1, b, top_n)


class TestPassageOracle:
    """rank_passages and the ideal re-rank against the reference."""

    @settings(max_examples=100)
    @given(texts=st.lists(_sentences, min_size=1, max_size=14), question=_sentences,
           k1=st.sampled_from([0.6, 1.2, 1.8]), b=st.sampled_from([0.0, 0.4, 0.85, 1.0]),
           top_n=st.integers(1, 12), subset=st.lists(st.integers(0, 13), unique=True, max_size=10))
    def test_generated_candidates(self, bundle, texts, question, k1, b, top_n, subset):
        candidates = [analysed(bundle, t, "d", i) for i, t in enumerate(texts)]
        got = rank_passages(question_terms(bundle, question), candidates, k1=k1, b=b, top_n=top_n)
        expected = passage_oracle(bundle, question, texts, k1, b, top_n)
        assert [(sp.passage.sent_index, sp.score) for sp in got] == expected
        assert [sp.rank for sp in got] == list(range(1, len(got) + 1))
        # The ideal answer re-ranks the passages it is given, here the kept
        # ones and an arbitrary subset, with statistics from those only.
        from bioqa.answer import ideal_answer

        for kept in ([sp.passage for sp in got], [candidates[i] for i in subset if i < len(candidates)]):
            ideal = ideal_answer(question_terms(bundle, question), kept, k1=k1, b=b)
            expected = passage_oracle(bundle, question, [p.text for p in kept], k1, b, 2)
            assert ideal.sources == tuple(("d", kept[i].sent_index) for i, _ in expected)

    def test_bundled_questions_and_ideal_rerank(self, bundle, corpus, doc_index, appendix_questions):
        from bioqa.answer import PipelineConfig, ideal_answer, retrieve

        config, reranked_full = PipelineConfig(), 0
        for q in appendix_questions.questions:
            got = retrieve(q.body, corpus, doc_index, bundle, config)
            candidates = extract_passages([corpus[sd.doc_id] for sd in got.documents], bundle.abbreviations,
                                          bundle.stopwords, bundle.concept_lexicon)
            expected = passage_oracle(bundle, q.body, [c.text for c in candidates], config.k1, config.b,
                                      config.top_passages)
            assert [(sp.passage, sp.score) for sp in got.passages] == [(candidates[i], s) for i, s in expected]
            # The ideal answer re-ranks the kept passages with statistics
            # from those passages only.
            top = [sp.passage for sp in got.passages]
            ideal = ideal_answer(got.question_terms, top)
            expected = passage_oracle(bundle, q.body, [p.text for p in top], config.k1, config.b, 2)
            assert ideal.sources == tuple((top[i].doc_id, top[i].sent_index) for i, _ in expected)
            reranked_full += len(top) == config.top_passages
        assert reranked_full > 0


def test_shared_index_safe_for_concurrent_queries(bundle, doc_index):
    # A built index is immutable; concurrent scoring must agree with serial.
    from concurrent.futures import ThreadPoolExecutor

    terms = retrieval.index_terms(
        "Muenke syndrome epilepsy imatinib", bundle.stopwords, bundle.concept_lexicon
    )
    serial = [bm25_score(terms, uid, doc_index) for uid in doc_index.unit_order]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(5):
            concurrent = list(pool.map(lambda uid: bm25_score(terms, uid, doc_index), doc_index.unit_order))
            assert concurrent == serial


# ---------------------------------------------------------------------------
# search against a brute-force scan
# ---------------------------------------------------------------------------

# Two-letter terms are their own stems, so a Query of raw terms searches
# for exactly these index terms. "zz" never occurs in any unit.
SEARCH_VOCAB = ["aa", "bb", "cc", "dd", "ee"]
SEARCH_MISSING = "zz"


# ARRAY_MIN_POSTINGS values that send every search to one ranking path.
PATHS = pytest.mark.parametrize("array_min", [10**9, 0], ids=["lists", "arrays"])


def check_search(index, units, query_terms, limit, k1, b):
    """search of an index over units, term lists in unit order, equals the
    reference's, in scores, order and the relaxed flag, which is returned."""
    result = search(index, Query((), tuple(query_terms)), limit, set(), ConceptLexicon([]), k1=k1, b=b)
    expected, relaxed = reference.search(dict(zip(index.unit_order, units)), query_terms, limit, k1, b)
    assert [(d.doc_id, d.score) for d in result.docs] == expected
    assert [d.rank for d in result.docs] == list(range(1, len(expected) + 1))
    assert result.relaxed == relaxed
    return relaxed


# Units are drawn from a few shapes, so equal term lists (tied scores) are common.
_unit_lists = st.lists(
    st.one_of(
        st.sampled_from([["aa"], ["aa", "bb"], ["bb", "cc", "cc"], ["dd"], ["aa", "ee", "ee", "bb"]]),
        st.lists(st.sampled_from(SEARCH_VOCAB), min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=12,
)
_query_terms = st.lists(st.sampled_from(SEARCH_VOCAB + [SEARCH_MISSING]), min_size=1, max_size=5)
_k1 = st.sampled_from([0.5, 1.2, 2.0])
_b = st.sampled_from([0.0, 0.5, 0.85, 1.0])


class TestSearchOracle:
    def test_vocabulary_is_its_own_stems(self):
        assert [stem(t) for t in SEARCH_VOCAB + [SEARCH_MISSING]] == SEARCH_VOCAB + [SEARCH_MISSING]

    @settings(max_examples=300)
    @given(units=_unit_lists, query=_query_terms, limit=st.integers(0, 14), k1=_k1, b=_b)
    @example(units=[["aa"], ["aa"], ["aa", "bb"], ["cc"]], query=["aa"], limit=10, k1=1.2, b=0.85)
    @example(units=[["aa"], ["bb"], ["bb"], ["cc"]], query=["aa", "bb"], limit=10, k1=1.2, b=0.85)
    @example(units=[["aa", "bb"], ["cc"], ["dd"]], query=["aa", "aa", "bb"], limit=2, k1=1.2, b=0.85)
    @example(units=[["aa"], ["bb"]], query=["zz"], limit=5, k1=1.2, b=0.85)
    @example(units=[["aa"], ["bb"], ["cc"]], query=["aa", "zz"], limit=5, k1=1.2, b=0.85)
    @example(units=[["aa"], ["aa"], ["aa", "bb"], ["cc"]], query=["aa", "aa", "zz"], limit=10, k1=1.2, b=0.85)
    @PATHS
    def test_matches_brute_force(
        self, array_min, tmp_path_factory, units, query, limit, k1, b
    ):
        index = index_from_terms(units)
        path = tmp_path_factory.mktemp("search") / "index.json"
        ingest.save_index(index, path)
        with mock.patch.object(retrieval, "ARRAY_MIN_POSTINGS", array_min):
            for searched in (index, ingest.load_index(path)):
                check_search(searched, units, query, limit, k1, b)

    @settings(max_examples=150)
    @given(units=_unit_lists, added=_unit_lists, query=_query_terms, k1=_k1, b=_b)
    def test_index_mutated_between_searches(self, units, added, query, k1, b):
        # N, the mean length and every document frequency differ between
        # the two indexes; a statistic shared between them would show.
        first = index_from_terms(units)
        before = check_search(first, units, query, 20, k1, b)
        grown = units + added
        check_search(index_from_terms(grown), grown, query, 20, k1, b)
        assert check_search(first, units, query, 20, k1, b) == before

    def test_both_paths_and_ties_are_covered(self):
        units = [["aa"], ["aa"], ["bb"], ["cc"], ["dd"]]
        index = index_from_terms(units)
        assert not check_search(index, units, ["aa"], 10, 1.2, 0.85)
        assert check_search(index, units, ["aa", "bb"], 10, 1.2, 0.85)
        docs = search(index, Query((), ("aa",)), 10, set(), ConceptLexicon([])).docs
        assert [d.doc_id for d in docs] == ["u0", "u1"] and docs[0].score == docs[1].score

    def test_loaded_index_keeps_unit_order_on_ties(self, tmp_path):
        # Unit ids out of sorted order: postings, candidates and ties must
        # follow unit_order, before and after a save and load.
        units = [["aa"], ["aa"], ["aa"], ["bb"], ["cc"], ["dd"], ["ee"]]
        index = index_from_terms(units, ids=["u9", "u3", "u5", "u0", "u1", "u2", "u4"])
        ingest.save_index(index, tmp_path / "index.json")
        loaded = ingest.load_index(tmp_path / "index.json")
        assert list(loaded.postings["aa"]) == ["u9", "u3", "u5"]
        docs = search(loaded, Query((), ("aa",)), 10, set(), ConceptLexicon([])).docs
        assert [d.doc_id for d in docs] == ["u9", "u3", "u5"]


class TestSearchKernel:
    """Either ranking path of search is bit-equal to the reference's search
    of the bundled corpus's forward index, in scores, order and the relaxed
    flag."""

    @PATHS
    def test_bundled_questions(self, array_min, bundle, corpus, doc_index, appendix_questions):
        lexicon, stopwords = bundle.concept_lexicon, bundle.stopwords
        units = reference.forward_index(corpus.values(), stopwords, lexicon)
        relaxed = 0
        with mock.patch.object(retrieval, "ARRAY_MIN_POSTINGS", array_min):
            for q in appendix_questions.questions:
                result = search(doc_index, formulate_query(q.body, lexicon, stopwords), 200, stopwords, lexicon)
                expected = reference.search(units, reference.query_terms(q.body, stopwords, lexicon), 200)
                assert ([(d.doc_id, d.score) for d in result.docs], result.relaxed) == expected
                relaxed += result.relaxed
        assert 0 < relaxed < len(appendix_questions.questions)


class TestQueryIndexTerms:
    """Raw query terms are read through the word memo that analyse reads."""

    @settings(max_examples=300)
    @given(text=st.one_of(_sentences, st.text(max_size=60)))
    @example(text="Is zorbifen a quuxamine?")
    @example(text="Is imatinib an antidepressant drug?")
    def test_formulated_query_equals_reference(self, bundle, text):
        lexicon, stopwords = bundle.concept_lexicon, bundle.stopwords
        got = retrieval._query_index_terms(formulate_query(text, lexicon, stopwords), stopwords, lexicon)
        assert got == reference.query_terms(text, stopwords, lexicon)

    @staticmethod
    def search_both(bundle, doc_index, raw):
        """search of raw as given and of its content words alone."""
        lexicon, stopwords = bundle.concept_lexicon, bundle.stopwords
        content = [t for t in raw if is_content_word(t.lower(), stopwords)]
        return [search(doc_index, Query((), tuple(terms)), 200, stopwords, lexicon) for terms in (raw, content)]

    def test_stopword_raw_term_is_dropped(self, bundle, doc_index):
        # "the" is held by no index, so keeping it would force a relaxed search.
        given_raw, content_only = self.search_both(bundle, doc_index, ["Muenke", "the", "syndrome", "?"])
        assert given_raw == content_only and given_raw.docs and not given_raw.relaxed

    @settings(max_examples=100)
    @given(data=st.data())
    def test_stopword_raw_terms_search_as_without_them(self, bundle, doc_index, data):
        words = CORPUS_WORDS[::7] + sorted(bundle.stopwords)[::5]
        raw = data.draw(st.lists(st.sampled_from(words), max_size=6))
        given_raw, content_only = self.search_both(bundle, doc_index, raw)
        assert given_raw == content_only


# A few score values, so that many scores tie at the cut.
_tied_scores = st.lists(st.sampled_from([0.0, 0.25, 1.5, 1.5000000000000002, 3.0]), max_size=80)


class TestTopOrder:
    """_top_order is the limit-long prefix of the full stable argsort, ties
    at the cut kept in position order."""

    @staticmethod
    def check(scores, limit):
        scores = np.array(scores, dtype=float)
        expected = (-scores).argsort(kind="stable")[:limit]
        assert retrieval._top_order(scores, limit).tolist() == expected.tolist()

    @settings(max_examples=400)
    @given(scores=_tied_scores, limit=st.integers(1, 90))
    @example(scores=[1.0] * 40, limit=1)
    @example(scores=[0.0, 2.0, 1.0, 2.0, 1.0, 1.0, 0.0, 1.0, 1.0, 2.0], limit=4)
    def test_equals_full_stable_argsort(self, scores, limit):
        self.check(scores, limit)

    @settings(max_examples=100)
    @given(scores=_tied_scores.filter(len))
    def test_limit_one_len_and_beyond(self, scores):
        for limit in (1, len(scores) - 1, len(scores), len(scores) + 1, 4 * len(scores)):
            if limit >= 1:
                self.check(scores, limit)

    def test_partition_path_runs_on_relaxed_search(self):
        # 300 units of a few shapes, enough postings for the array path: the
        # relaxed query holds 225 of them, with many tied scores at a cut of 5.
        units = [[["aa"], ["aa", "bb"], ["bb", "cc", "cc"], ["cc", "dd"]][i % 4] for i in range(300)]
        index = index_from_terms(units)
        with mock.patch.object(retrieval, "_top_order", wraps=retrieval._top_order) as spy:
            relaxed = check_search(index, units, ["aa", "dd"], 5, DEFAULT_K1, DEFAULT_B)
        assert relaxed and spy.call_args.args[1] < len(spy.call_args.args[0])


def test_index_unchanged_by_queries(bundle, corpus, doc_index, tmp_path):
    # Searching and ranking leave nothing on the index: it still equals a
    # fresh build and what load_index reads back from its saved file.
    from bioqa.answer import PipelineConfig, retrieve

    questions = ingest.load_questions(RESOURCE_DIR / "questions.json").questions
    for q in questions:
        retrieve(q.body, corpus, doc_index, bundle, PipelineConfig())
    fresh = build_index([(d.doc_id, f"{d.title} {d.abstract}") for d in corpus.values()],
                        "document", bundle.stopwords, bundle.concept_lexicon)
    assert doc_index == fresh
    assert vars(doc_index).keys() == vars(fresh).keys()
    ingest.save_index(doc_index, tmp_path / "index.json")
    assert ingest.load_index(tmp_path / "index.json") == doc_index


# ---------------------------------------------------------------------------
# The search -> rerank -> passages funnel against the reference: the
# term-at-a-time BM25 loop, the one-pass passage postings and the similarity
# rows with the rerank shortcut.
# ---------------------------------------------------------------------------

# Rerank concepts: K0-K4 are recognized as word0-word4. The drawn edges put
# only some of them in the hierarchy, and "other" is no concept at all.
_RERANK_CUIS = [f"K{i}" for i in range(5)]
_RERANK_LEXICON = ConceptLexicon([Concept(c, f"word{i}", "T0", "Thing") for i, c in enumerate(_RERANK_CUIS)])
_rerank_text = st.lists(st.sampled_from([f"word{i}" for i in range(5)] + ["other"]), max_size=4).map(" ".join)
_rerank_edges = st.lists(
    st.tuples(st.sampled_from(_RERANK_CUIS + ["K9"]), st.sampled_from(_RERANK_CUIS + ["K9"])).filter(
        lambda edge: edge[0] != edge[1]
    ),
    max_size=6,
)


# Units u0-u3 are ranked; u4 and u5 hold terms but are not among them.
_LOOP_UNITS = ["u0", "u1", "u2", "u3", "u4", "u5"]
_loop_weighted = st.lists(
    st.tuples(st.floats(-2.0, 4.0), st.dictionaries(st.sampled_from(_LOOP_UNITS), st.integers(0, 3), max_size=6)),
    max_size=6,
)


class TestFunnelOracle:
    """search's BM25 loop, rank_passages, row_sum over similarity_rows and
    rerank_documents are bit-equal, in scores and order, to the reference."""

    @settings(max_examples=400)
    @given(
        units=st.lists(st.sampled_from(_LOOP_UNITS[:4]), max_size=8),
        weighted=_loop_weighted,
        lengths=st.fixed_dictionaries({u: st.integers(0, 30) for u in _LOOP_UNITS}),
        avg=st.one_of(st.just(0.0), st.floats(0.5, 30.0)),
        limit=st.integers(-2, 10),
        k1=st.floats(0.1, 3.0),
        b=st.floats(0.0, 1.0),
    )
    # 0.0 + 1 + 1e-16 + 1e-16 rounds to 1.0; summed from the last term, to
    # the next double above it.
    @example(units=["u0"], weighted=[(1.0, {"u0": 1}), (1e-16, {"u0": 1}), (1e-16, {"u0": 1})],
             lengths=dict.fromkeys(_LOOP_UNITS, 1), avg=0.0, limit=1, k1=1.0, b=0.0)
    @example(units=["u1", "u0", "u1", "u2"], weighted=[(0.5, {"u4": 2, "u1": 1, "u0": 0})],
             lengths=dict.fromkeys(_LOOP_UNITS, 2), avg=2.0, limit=3, k1=1.2, b=0.85)
    def test_bm25_loop_equals_reference(self, units, weighted, lengths, avg, limit, k1, b):
        got = retrieval._bm25_loop(units, weighted, lengths, avg, limit, k1, b)
        # Each unit's term occurrences added in query order from 0.0; a
        # unit listed twice is scored at both places.
        scores = []
        for unit in units:
            score = 0.0
            for weight, holding in weighted:
                if holding.get(unit, 0):
                    score += reference.term_score(weight, holding[unit], lengths[unit], avg, k1, b)
            scores.append(score)
        assert repr(got) == repr([(i, scores[i]) for i in reference.top(scores, limit)])

    @settings(max_examples=300)
    @given(
        sentences=st.lists(st.lists(st.sampled_from(SEARCH_VOCAB), max_size=6), max_size=8),
        question=st.lists(st.sampled_from(SEARCH_VOCAB + [SEARCH_MISSING]), max_size=6),
        top_n=st.integers(-2, 10),
        k1=st.floats(0.1, 3.0),
        b=st.floats(0.0, 1.0),
    )
    @example(sentences=[[], []], question=["aa"], top_n=5, k1=1.2, b=0.85)
    @example(sentences=[["aa", "aa", "bb"], ["cc"], ["aa"]], question=["aa", "aa", "zz"], top_n=2, k1=1.2, b=0.85)
    def test_rank_passages_equals_reference(self, sentences, question, top_n, k1, b):
        candidates = [PassageCandidate(" ".join(terms), "d", i, tuple(terms), ()) for i, terms in enumerate(sentences)]
        got = [(p.passage, p.score, p.rank) for p in rank_passages(question, candidates, k1, b, top_n)]
        ranked = reference.rank_passages(question, sentences, k1, b, top_n)
        assert repr(got) == repr([(candidates[i], score, rank) for rank, (i, score) in enumerate(ranked, 1)])

    @settings(max_examples=200)
    @given(edges=_rerank_edges, pairs=st.lists(
        st.tuples(st.lists(st.sampled_from(_RERANK_CUIS + ["K9", "X"])), st.lists(st.sampled_from(_RERANK_CUIS + ["X"]))),
        max_size=4,
    ))
    def test_similarity_sum_equals_reference(self, edges, pairs):
        # Later pairs read the rows filled by earlier ones.
        graph = ConceptGraph.from_edges(edges)
        for question_cuis, cuis in pairs:
            got = row_sum(similarity_rows(question_cuis, graph), cuis)
            assert repr(got) == repr(reference.similarity_sum(question_cuis, cuis, graph))

    @settings(max_examples=300)
    @given(edges=_rerank_edges, titles=st.lists(_rerank_text, max_size=10),
           asked=st.lists(st.tuples(_rerank_text, st.integers(-2, 12)), min_size=1, max_size=3))
    @example(edges=[("K1", "K2")], titles=["word0", "word2", "word1"], asked=[("word0 word1", 3)])
    def test_rerank_equals_reference(self, edges, titles, asked):
        graph = ConceptGraph.from_edges(edges)
        docs = [DocumentRecord(f"d{j}", title, "") for j, title in enumerate(titles)]
        cuis = [(doc.doc_id, reference.analyse(doc.title, set(), _RERANK_LEXICON)[1]) for doc in docs]
        for question, m in asked:
            got = [tuple(d) for d in rerank_documents(question, docs, _RERANK_LEXICON, graph, m)]
            ranked = reference.rerank(reference.analyse(question, set(), _RERANK_LEXICON)[1], cuis, graph, m)
            assert repr(got) == repr([(doc_id, score, rank) for rank, (doc_id, score) in enumerate(ranked, 1)])

    def test_bundled_questions_equal_reference(self, bundle, corpus, doc_index, appendix_questions):
        # Each step is fed the program's output of the step before it.
        lexicon, stopwords = bundle.concept_lexicon, bundle.stopwords
        reranked = 0
        for q in appendix_questions.questions:
            found = search(doc_index, formulate_query(q.body, lexicon, stopwords), 200, stopwords, lexicon)
            docs = [corpus[d.doc_id] for d in found.docs]
            terms, cuis = reference.analyse(q.body, stopwords, lexicon)
            got = [tuple(d) for d in rerank_documents(q.body, docs, lexicon, bundle.graph, 10)]
            titles = [(doc.doc_id, reference.analyse(doc.title, stopwords, lexicon)[1]) for doc in docs]
            ranked = reference.rerank(cuis, titles, bundle.graph, 10)
            assert repr(got) == repr([(doc_id, score, rank) for rank, (doc_id, score) in enumerate(ranked, 1)])
            reranked += any(score for _, score, _ in got)
            kept = [corpus[doc_id] for doc_id, _, _ in got]
            candidates = extract_passages(kept, bundle.abbreviations, stopwords, lexicon)
            passages = [(p.passage.doc_id, p.passage.sent_index, p.score, p.rank)
                        for p in rank_passages(question_terms(bundle, q.body), candidates)]
            sentences = reference.passages(kept, bundle.abbreviations, stopwords, lexicon)
            ranked = reference.rank_passages(terms, [s.terms for s in sentences])
            assert repr(passages) == repr([(sentences[i].doc_id, sentences[i].sent_index, score, rank)
                                           for rank, (i, score) in enumerate(ranked, 1)])
        assert 0 < reranked < len(appendix_questions.questions)
