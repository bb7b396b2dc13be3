import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bioqa import answer, retrieval, textproc
from bioqa.answer import (
    ConfigurationError,
    IdealAnswer,
    PipelineConfig,
    Retrieved,
    answer_factoid,
    answer_list,
    answer_pipeline,
    answer_to_json,
    answer_yesno,
    ideal_answer,
    passage_sentiment,
    rank_entities,
    retrieve,
)
from bioqa.conceptlex import SentimentEntry, SentimentLexicon, question_of, recognize
from bioqa.ingest import load_corpus, load_resources
from bioqa.qclass import FEATURE_SPACES, FeatureExtractor, QuestionType, extract_topic_features
from bioqa.retrieval import DocumentRecord, build_index, extract_passages
from bioqa.textproc import TagLexicon

from conftest import RESOURCE_DIR, analysed, question_cuis, question_terms


CTCF_QUESTION = "Does the CTCF protein co-localize with cohesin?"


class TestAnswerYesNo:
    def test_ctcf_gold_snippets_vote_yes(self, bundle, corpus):
        from bioqa.retrieval import extract_passages

        candidates = extract_passages([corpus["18550811"]], bundle.abbreviations, bundle.stopwords,
                                      bundle.concept_lexicon)
        passages = [c.text for c in candidates]
        assert answer_yesno(passages, bundle.sentiment, bundle.tag_lexicon).value == "yes"

    def test_majority_negative_votes_no(self, bundle):
        lex = SentimentLexicon([
            SentimentEntry("good", "any", 1.0, 0.0),
            SentimentEntry("bad", "any", 0.0, 1.0),
        ])
        passages = ["good", "bad bad", "bad bad bad"]
        result = answer_yesno(passages, lex, bundle.tag_lexicon)
        assert result.value == "no"
        assert (result.positives, result.negatives) == (1, 2)

    def test_empty_passages_vote_yes(self, bundle):
        # The pipeline flags an empty vote (yesno_vote_empty) from its passages.
        assert answer_yesno([], bundle.sentiment, bundle.tag_lexicon) == answer.YesNoResult("yes", 0, 0)

    def test_vote_is_order_invariant(self, bundle):
        lex = SentimentLexicon([
            SentimentEntry("up", "any", 0.5, 0.0),
            SentimentEntry("down", "any", 0.0, 0.5),
        ])
        rng = random.Random(13)
        passages = ["up up", "down down", "up", "down down down", "neutral words here"]
        reference = answer_yesno(passages, lex, bundle.tag_lexicon).value
        for _ in range(50):
            shuffled = passages[:]
            rng.shuffle(shuffled)
            assert answer_yesno(shuffled, lex, bundle.tag_lexicon).value == reference


class TestRankEntities:
    def test_frequency_order(self, bundle):
        passages = [
            "Imatinib inhibits growth. Imatinib also binds KIT.",
            "Imatinib is studied with cohesin.",
        ]
        ranked = rank_entities([analysed(bundle, p) for p in passages],
                               question_cuis(bundle, "What about leukemia?"), bundle.concept_lexicon, None)
        assert ranked[0].name == "Imatinib"

    def test_question_entities_excluded_by_concept(self, bundle):
        passages = [analysed(bundle, "Imatinib and gleevec again imatinib.")]
        # gleevec is a synonym of the question concept, so nothing remains
        assert rank_entities(passages, question_cuis(bundle, "Is imatinib safe?"), bundle.concept_lexicon, None) == []

    def test_no_concepts_recognized(self, bundle):
        passages = [analysed(bundle, "plain words only")]
        assert rank_entities(passages, question_cuis(bundle, "question"), bundle.concept_lexicon, None) == []

    def test_counts_match_bruteforce_oracle(self, bundle):
        rng = random.Random(77)
        vocab = ["imatinib", "cohesin", "chromatin", "epilepsy", "tobacco", "random", "words", "gene"]
        for _ in range(100):
            passages = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
                for _ in range(rng.randint(0, 6))
            ]
            question = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 3)))
            ranked = rank_entities([analysed(bundle, p) for p in passages],
                                   question_cuis(bundle, question), bundle.concept_lexicon, None)

            exclude = {m.cui for m in recognize(question, bundle.concept_lexicon)}
            counts = Counter()
            for p in passages:
                for m in recognize(p, bundle.concept_lexicon):
                    if m.cui not in exclude:
                        counts[m.cui] += 1
            expected_by_name = {
                bundle.concept_lexicon.get(c).preferred: n for c, n in counts.items()
            }
            assert {e.name for e in ranked} == set(expected_by_name)
            ranked_counts = [expected_by_name[e.name] for e in ranked]
            assert ranked_counts == sorted(ranked_counts, reverse=True)


class TestFactoidAndList:
    def test_krabbe_top_entity(self, bundle, corpus):
        from bioqa.retrieval import extract_passages

        passages = extract_passages([corpus["20301416"]], bundle.abbreviations, bundle.stopwords,
                                    bundle.concept_lexicon)
        ranked = answer_factoid(passages, question_cuis(bundle, "Which enzyme is deficient in Krabbe disease?"),
                                bundle.concept_lexicon)
        assert ranked[0].name == "Galactocerebrosidase"

    def test_phthiriasis_top_entity(self, bundle, corpus):
        from bioqa.retrieval import extract_passages

        docs = [corpus["19240421"], corpus["18580948"]]
        passages = extract_passages(docs, bundle.abbreviations, bundle.stopwords, bundle.concept_lexicon)
        ranked = answer_factoid(passages, question_cuis(bundle, "What is the cause of Phthiriasis Palpebrarum?"),
                                bundle.concept_lexicon)
        assert ranked[0].name == "Pthirus pubis"

    def test_factoid_truncates_to_five(self, bundle):
        passages = [analysed(bundle, "imatinib cohesin chromatin epilepsy tobacco mother statistics")]
        ranked = answer_factoid(passages, question_cuis(bundle, "unrelated"), bundle.concept_lexicon)
        assert len(ranked) == 5

    def test_list_shares_ranking_with_factoid(self, bundle):
        passages = [analysed(bundle, "imatinib imatinib cohesin")]
        factoid = answer_factoid(passages, question_cuis(bundle, "x"), bundle.concept_lexicon)
        listed = answer_list(passages, question_cuis(bundle, "x"), bundle.concept_lexicon)
        assert [e.name for e in factoid] == [e.name for e in listed]

    def test_list_cap(self, bundle):
        passages = [analysed(bundle, "imatinib cohesin chromatin epilepsy tobacco mother statistics")]
        assert len(answer_list(passages, question_cuis(bundle, "x"), bundle.concept_lexicon, cap=3)) == 3

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_keeps_none(self, bundle, cap):
        # A negative cap is not a slice from the end: it keeps no entity, not all but the last.
        passages = [analysed(bundle, "imatinib cohesin chromatin epilepsy tobacco mother statistics")]
        assert answer_list(passages, question_cuis(bundle, "x"), bundle.concept_lexicon, cap=cap) == []

    def test_empty_list_is_valid(self, bundle):
        assert answer_list([], question_cuis(bundle, "x"), bundle.concept_lexicon) == []


class TestIdealAnswer:
    def test_single_passage_verbatim(self, bundle):
        candidates = [analysed(bundle, "Only one sentence available.", "d", 0)]
        ideal = ideal_answer(question_terms(bundle, "any question"), candidates)
        assert ideal.text == "Only one sentence available."
        assert ideal.sources == (("d", 0),)

    def test_concept_sharing_passage_first(self, bundle):
        candidates = [
            analysed(bundle, "Nothing relevant in this line", "d", 0),
            analysed(bundle, "Imatinib acts on kinases", "d", 1),
            analysed(bundle, "Another neutral filler line", "d", 2),
            analysed(bundle, "Completely different filler content", "d", 3),
        ]
        ideal = ideal_answer(question_terms(bundle, "imatinib"), candidates)
        assert ideal.text.startswith("Imatinib acts on kinases")
        assert len(ideal.sources) == 2

    def test_empty_candidates_give_empty_answer(self, bundle):
        # The pipeline flags an empty ideal answer (empty_ideal) from its passages.
        assert ideal_answer(question_terms(bundle, "q"), []) == IdealAnswer("", ())

    def test_text_length_bound(self, bundle, corpus):
        from bioqa.retrieval import extract_passages

        candidates = extract_passages(list(corpus.values()), bundle.abbreviations, bundle.stopwords,
                                      bundle.concept_lexicon)
        ideal = ideal_answer(question_terms(bundle, "What symptoms characterize the Muenke syndrome?"), candidates)
        total = sum(len(c.text) for c in candidates if (c.doc_id, c.sent_index) in ideal.sources)
        assert len(ideal.text) <= total + 1


# Questions against the bundled corpus: a question word, then title words
# and words no document holds, or only the latter, which match nothing.
_UNMATCHED_WORDS = ["zorbifen", "quuxamine", "the", "of", "?", "-"]
_TITLE_WORDS = sorted({w for d in load_corpus(RESOURCE_DIR / "corpus.jsonl") for w in d.title.split()})
_questions = st.builds(
    lambda lead, words: " ".join([lead, *words]) + "?",
    st.sampled_from(["Is", "Does", "Which", "What is", "List", ""]),
    st.one_of(st.lists(st.sampled_from(_TITLE_WORDS + _UNMATCHED_WORDS), max_size=8),
              st.lists(st.sampled_from(_UNMATCHED_WORDS), max_size=4)),
)


class TestEmptyAnswerFlags:
    """The pipeline derives its empty-answer flags from the passages: the
    ideal answer and the yes/no vote are empty exactly when none support
    the answer."""

    @settings(max_examples=150, deadline=None)
    @given(question=_questions)
    @example(question="?")
    @example(question="Is zorbifen a quuxamine?")
    @example(question="Which zorbifen?")
    @example(question="Is imatinib an antidepressant drug?")
    def test_flags_fire_exactly_without_snippets(self, bundle, corpus, doc_index, type_model, question):
        out = answer_to_json(answer_pipeline(question, corpus, doc_index, type_model, bundle), "q")
        empty = not out["snippets"]
        assert ("no_passages" in out["flags"]) == empty
        assert ("empty_ideal" in out["flags"]) == empty == (out["ideal_answer"] == "")
        assert ("yesno_vote_empty" in out["flags"]) == (empty and out["type"] == "yesno")


class TestPipeline:
    def test_phthiriasis_factoid(self, bundle, corpus, doc_index, type_model):
        full = answer_pipeline("What is the cause of Phthiriasis Palpebrarum?",
                               corpus, doc_index, type_model, bundle)
        assert full.question_type is QuestionType.FACTOID
        assert full.exact[0].name == "Pthirus pubis"

    def test_summary_dispatch_has_no_exact(self, bundle, corpus, doc_index, extractor):
        from bioqa.qclass import train_type_classifier

        questions = [
            ("Is aspirin effective?", QuestionType.YESNO),
            ("Which enzyme is deficient in Fabry disease?", QuestionType.FACTOID),
            ("Which proteins participate in DNA repair?", QuestionType.LIST),
            ("What is the role of edaravone in brain injury?", QuestionType.SUMMARY),
        ]
        model = train_type_classifier(
            [(extractor.extract(q, "patterns"), t) for q, t in questions], "patterns", seed=5
        )
        full = answer_pipeline(
            "What is the role of the histidine-rich calcium binding protein in cardiomyopathy?",
            corpus, doc_index, model, bundle,
        )
        assert full.question_type is QuestionType.SUMMARY
        assert full.exact is None
        assert full.ideal.text

    def test_no_matching_documents_degrades_gracefully(self, bundle, corpus, doc_index, type_model):
        full = answer_pipeline("Is zorbifen a quuxamine?", corpus, doc_index, type_model, bundle)
        assert full.question_type is QuestionType.YESNO
        assert full.supporting == []
        assert full.ideal == IdealAnswer("", ())
        assert full.exact == answer.YesNoResult("yes", 0, 0)
        assert full.flags == ["search_relaxed", "no_passages", "empty_ideal", "yesno_vote_empty"]

    def test_pipeline_deterministic(self, bundle, corpus, doc_index, type_model):
        q = "Is imatinib an antidepressant drug?"
        a = answer_to_json(answer_pipeline(q, corpus, doc_index, type_model, bundle), "x")
        b = answer_to_json(answer_pipeline(q, corpus, doc_index, type_model, bundle), "x")
        assert a == b

    def test_missing_resource_is_configuration_error(self, corpus, doc_index, type_model, bundle):
        class Hollow:
            concept_lexicon = bundle.concept_lexicon
            graph = bundle.graph
            sentiment = None
            stopwords = bundle.stopwords
            tag_lexicon = bundle.tag_lexicon
            abbreviations = bundle.abbreviations
            patterns = bundle.patterns

        with pytest.raises(ConfigurationError, match="sentiment"):
            answer_pipeline("Is this ok?", corpus, doc_index, type_model, Hollow())

    def test_exact_present_iff_not_summary(self, bundle, corpus, doc_index, type_model):
        for q in ["Is imatinib an antidepressant drug?",
                  "Which enzyme is deficient in Krabbe disease?",
                  "Which proteins participate in the formation of the Notch transcriptional activation complex?"]:
            full = answer_pipeline(q, corpus, doc_index, type_model, bundle)
            assert full.question_type is not QuestionType.SUMMARY
            assert full.exact is not None

    def test_no_answer_entity_shares_cui_with_question(self, bundle, corpus, doc_index, type_model):
        q = "What is the cause of Phthiriasis Palpebrarum?"
        full = answer_pipeline(q, corpus, doc_index, type_model, bundle)
        question_cuis = {m.cui for m in recognize(q, bundle.concept_lexicon)}
        for entity in full.exact:
            cuis = {
                c for c in bundle.concept_lexicon.concepts
                if bundle.concept_lexicon.get(c).preferred == entity.name
            }
            assert not (cuis & question_cuis)


class TestAnalysedOnce:
    """extract_passages analyses each document's sentences once per resource
    bundle and answer_pipeline the question once per request; the stages
    after them read that analysis and analyse no text themselves."""

    def test_each_sentence_analysed_once_and_later_stages_analyse_nothing(
        self, corpus, doc_index, type_model, appendix_questions, monkeypatch
    ):
        import sys

        from bioqa import answer as answer_mod
        from bioqa import conceptlex, retrieval, textproc

        # A bundle of its own: the session bundle's lexicon already holds
        # analyses made by other tests.
        bundle = load_resources(RESOURCE_DIR / "manifest.json")
        analyse = retrieval.analyse
        analysers = (textproc.tokenize, textproc.token_surfaces, textproc.stem,
                     conceptlex.recognize, conceptlex.longest_matches,
                     analyse, retrieval.index_terms, retrieval.build_index)
        analysed_texts: Counter = Counter()
        stage: list[str] = []
        analysed_in_stage = []
        visits = []

        def spy(fn):
            def wrapper(*args, **kwargs):
                if stage:
                    analysed_in_stage.append((stage[-1], fn.__name__))
                if fn is analyse:
                    # A Question counts under its text.
                    analysed_texts[getattr(args[0], "text", args[0])] += 1
                return fn(*args, **kwargs)
            return wrapper

        def staged(name, fn):
            def wrapper(*args, **kwargs):
                stage.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stage.pop()
            return wrapper

        def recording(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                visits.extend((c.doc_id, c.sent_index, c.text) for c in result)
                return result
            return wrapper

        for name, module in list(sys.modules.items()):
            if name == "bioqa" or name.startswith("bioqa."):
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in analysers):
                        monkeypatch.setattr(module, attr, spy(value))
        for name in ("rank_passages", "ideal_answer", "answer_yesno", "answer_factoid", "answer_list"):
            monkeypatch.setattr(answer_mod, name, staged(name, getattr(answer_mod, name)))
        monkeypatch.setattr(answer_mod, "extract_passages", recording(answer_mod.extract_passages))

        for q in appendix_questions.questions:
            answer_pipeline(q.body, corpus, doc_index, type_model, bundle)
        # Later questions revisit sentences earlier ones analysed; across all
        # of them each (document, sentence) is analysed once.
        distinct = set(visits)
        assert len(visits) > len(distinct)
        sentences = Counter(text for _, _, text in distinct)
        assert {t: analysed_texts[t] for t in sentences} == dict(sentences)
        # answer_yesno reads the token surfaces of the passages it votes on;
        # nothing else after extract_passages analyses text.
        assert {name for name, _ in analysed_in_stage} <= {"answer_yesno"}
        assert {fn for _, fn in analysed_in_stage} <= {"token_surfaces"}

    def test_question_tokenized_once_by_question_of(
        self, corpus, doc_index, type_model, appendix_questions, monkeypatch
    ):
        import sys

        from bioqa import conceptlex, textproc

        # A fresh bundle, so that no title memo or word memo is warm.
        bundle = load_resources(RESOURCE_DIR / "manifest.json")
        bodies = list(dict.fromkeys(q.body for q in appendix_questions.questions))
        lowered = {body: [s.lower() for s in textproc.token_surfaces(body)] for body in bodies}
        spied = (textproc.token_surfaces, conceptlex.longest_matches)
        calls: Counter = Counter()

        def spy(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__, str(args[0])] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name == "bioqa" or name.startswith("bioqa."):
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in spied):
                        monkeypatch.setattr(module, attr, spy(value))
        for body in bodies:
            calls.clear()
            answer_pipeline(body, corpus, doc_index, type_model, bundle)
            # question_of tokenizes; classify tags those surfaces.
            assert calls["token_surfaces", body] == 1
            assert calls["longest_matches", str(lowered[body])] == 1

    def test_query_and_rerank_read_a_question_as_its_analysis(self, bundle, corpus, appendix_questions):
        lexicon, stopwords = bundle.concept_lexicon, bundle.stopwords
        docs = list(corpus.values())
        for q in appendix_questions.questions:
            analysed_question = question_of(q.body, lexicon)
            assert question_of(analysed_question, lexicon) is analysed_question
            assert retrieval.formulate_query(analysed_question, lexicon, stopwords) == \
                retrieval.formulate_query(q.body, lexicon, stopwords)
            assert retrieval.rerank_documents(analysed_question, docs, lexicon, bundle.graph, 5) == \
                retrieval.rerank_documents(q.body, docs, lexicon, bundle.graph, 5)


class TestNoOffsetViews:
    """Every stage reads token surfaces: answering, type features in every
    space and topic features with concepts make no Token or ConceptMention,
    so no bioqa binding of tokenize or recognize is called."""

    def test_no_stage_calls_tokenize_or_recognize(
        self, bundle, corpus, doc_index, type_model, appendix_questions, monkeypatch
    ):
        import sys

        from bioqa import conceptlex, textproc

        offset_views = (textproc.tokenize, conceptlex.recognize)
        calls = Counter()

        def spy(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        bound = 0
        for name, module in list(sys.modules.items()):
            if name == "bioqa" or name.startswith("bioqa."):
                for attr, value in list(vars(module).items()):
                    if any(value is f for f in offset_views):
                        monkeypatch.setattr(module, attr, spy(value))
                        bound += 1
        assert bound >= 2

        extractor = FeatureExtractor(bundle.tag_lexicon, bundle.patterns)
        concept_features = 0
        for q in appendix_questions.questions:
            answer_pipeline(q.body, corpus, doc_index, type_model, bundle)
            for space in FEATURE_SPACES:
                extractor.extract(q.body, space)
            features = extract_topic_features(q.body, stopwords=bundle.stopwords,
                                              concept_lexicon=bundle.concept_lexicon)
            concept_features += sum(f in bundle.concept_lexicon for f in features)
        assert concept_features > 0
        assert calls == Counter()


def reference_retrieve(question, documents, index, resources, config):
    """retrieve with search always at retrieve_depth, then rerank."""
    lexicon, stopwords = resources.concept_lexicon, resources.stopwords
    query = retrieval.formulate_query(question, lexicon, stopwords)
    result = retrieval.search(index, query, config.retrieve_depth, stopwords, lexicon, k1=config.k1, b=config.b)
    found = [documents[sd.doc_id] for sd in result.docs]
    reranked = retrieval.rerank_documents(question, found, lexicon, resources.graph, config.top_docs)
    candidates = extract_passages(
        [documents[sd.doc_id] for sd in reranked], resources.abbreviations, stopwords, lexicon
    )
    terms, cuis = retrieval.analyse(question, stopwords, lexicon)
    passages = retrieval.rank_passages(terms, candidates, k1=config.k1, b=config.b, top_n=config.top_passages)
    return Retrieved(query, result.relaxed, reranked, passages, terms, cuis)


@pytest.fixture(scope="module")
def grown(bundle, corpus):
    """80 documents with titles and abstracts drawn from the bundled ones,
    so that many match a query and many tie, and their index."""
    rng = random.Random(31)
    records = list(corpus.values())
    documents = {}
    for i in range(80):
        abstract = " ".join(rng.choice(records).abstract for _ in range(rng.randint(1, 2)))
        documents[f"g{i}"] = DocumentRecord(f"g{i}", rng.choice(records).title, abstract)
    units = [(d.doc_id, f"{d.title} {d.abstract}") for d in documents.values()]
    return documents, build_index(units, "document", bundle.stopwords, bundle.concept_lexicon)


# Words of the bundled titles and concepts: "tobacco", "chromatin" and
# "calcium" name concepts outside the hierarchy, "imatinib", "epilepsy" and
# "seizures" concepts in it, the rest no concept.
_question_words = st.sampled_from([
    "imatinib", "epilepsy", "seizures", "muenke", "syndrome", "tobacco", "chromatin", "calcium",
    "mutation", "patients", "treatment", "effects", "gene", "protein", "zorbifen",
])
_questions = st.lists(_question_words, min_size=1, max_size=5).map(lambda words: f"What is {' '.join(words)}?")


def cui_kind(cuis, graph) -> str:
    if not cuis:
        return "none"
    return "in" if any(cui in graph for cui in cuis) else "outside"


class TestSearchDepth:
    """retrieve searches only top_docs deep when rerank cannot reorder,
    and gives what a search at retrieve_depth followed by rerank gives."""

    @staticmethod
    def check(question, documents, index, resources, config):
        with mock.patch.object(answer, "search", wraps=answer.search) as spy:
            got = retrieve(question, documents, index, resources, config)
        assert got == reference_retrieve(question, documents, index, resources, config)
        limit = spy.call_args.args[2]
        if cui_kind(got.question_cuis, resources.graph) == "in":
            assert limit == config.retrieve_depth
        else:
            assert limit == min(config.retrieve_depth, max(config.top_docs, 1))
        return got

    @settings(max_examples=150)
    @given(question=_questions, retrieve_depth=st.integers(1, 40), top_docs=st.integers(0, 50))
    @example(question="What is zorbifen?", retrieve_depth=200, top_docs=10)  # no cuis
    @example(question="What is tobacco chromatin?", retrieve_depth=200, top_docs=10)  # cuis outside
    @example(question="What is imatinib tobacco?", retrieve_depth=200, top_docs=10)  # a cui in it
    @example(question="What is tobacco mutation?", retrieve_depth=5, top_docs=30)  # top_docs > depth
    @example(question="What is patients effects?", retrieve_depth=30, top_docs=0)  # relaxed, nothing kept
    def test_equals_search_at_depth_then_rerank(self, bundle, grown, question, retrieve_depth, top_docs):
        documents, index = grown
        config = PipelineConfig(retrieve_depth=retrieve_depth, top_docs=top_docs)
        self.check(question, documents, index, bundle, config)

    def test_bundled_questions(self, bundle, corpus, doc_index, grown, appendix_questions):
        kinds = Counter()
        for documents, index in ((corpus, doc_index), grown):
            for config in (PipelineConfig(), PipelineConfig(retrieve_depth=3, top_docs=7),
                           PipelineConfig(retrieve_depth=12, top_docs=2)):
                for q in appendix_questions.questions:
                    got = self.check(q.body, documents, index, bundle, config)
                    kinds[cui_kind(got.question_cuis, bundle.graph)] += 1
        # No bundled question has cuis only outside the hierarchy; the
        # examples of the drawn test above do.
        assert set(kinds) == {"none", "in"}

    def test_examples_cover_each_kind(self, bundle):
        kinds = [cui_kind(retrieval.analyse(q, bundle.stopwords, bundle.concept_lexicon)[1], bundle.graph)
                 for q in ("What is zorbifen?", "What is tobacco chromatin?", "What is imatinib tobacco?")]
        assert kinds == ["none", "outside", "in"]

    def test_relaxed_flag_kept_when_nothing_is_kept(self, bundle, grown):
        documents, index = grown
        got = self.check("What is patients effects zorbifen?", documents, index, bundle, PipelineConfig(top_docs=0))
        assert got.relaxed and got.documents == []


class TestVoteMemo:
    """answer_yesno scores each passage text once per sentiment lexicon and
    tag lexicon object, and keeps at most textproc.MEMO_BOUND scores."""

    @staticmethod
    def passages(bundle, corpus):
        docs = list(corpus.values())
        return [c.text for c in extract_passages(docs, bundle.abbreviations, bundle.stopwords, bundle.concept_lexicon)]

    @staticmethod
    def fresh_vote(passages, sentiment, tag_lexicon):
        scores = [passage_sentiment(text, sentiment, tag_lexicon) for text in passages]
        positives = sum(score >= 0.0 for score in scores)
        negatives = len(scores) - positives
        return answer.YesNoResult("yes" if positives >= negatives else "no", positives, negatives)

    def test_vote_equals_fresh_scores(self, bundle, corpus):
        sentiment = SentimentLexicon(bundle.sentiment.entries)
        texts = self.passages(bundle, corpus)
        rng = random.Random(5)
        for _ in range(40):
            chosen = rng.sample(texts, rng.randint(0, 8))
            assert answer_yesno(chosen, sentiment, bundle.tag_lexicon) == self.fresh_vote(
                chosen, sentiment, bundle.tag_lexicon)
        scores = sentiment._memos[answer.passage_sentiment]
        assert scores.deps == (bundle.tag_lexicon,) and scores
        assert scores == {text: passage_sentiment(text, sentiment, bundle.tag_lexicon) for text in scores}

    def test_each_tag_lexicon_gets_its_own_scores(self):
        # "well" scores +0.5 as an adverb and -0.5 as a noun.
        sentiment = SentimentLexicon([SentimentEntry("well", "r", 0.5, 0.0), SentimentEntry("well", "n", 0.0, 0.5)])
        adverb, noun = TagLexicon({"well": "RB"}), TagLexicon({"well": "NN"})
        passages = ["They did well.", "Patients did well too."]
        for tag_lexicon, value in [(adverb, "yes"), (noun, "no"), (adverb, "yes"), (TagLexicon({"well": "RB"}), "yes")]:
            vote = answer_yesno(passages, sentiment, tag_lexicon)
            assert vote == self.fresh_vote(passages, sentiment, tag_lexicon) and vote.value == value
            assert sentiment._memos[answer.passage_sentiment].deps == (tag_lexicon,)

    def test_bound(self, bundle, corpus, monkeypatch):
        monkeypatch.setattr(textproc, "MEMO_BOUND", 3)
        sentiment = SentimentLexicon(bundle.sentiment.entries)
        texts = self.passages(bundle, corpus)[:10]
        assert len(set(texts)) == 10
        for chosen in [texts[:2], texts[2:4], texts[4:9], texts[:1], texts]:
            assert answer_yesno(chosen, sentiment, bundle.tag_lexicon) == self.fresh_vote(
                chosen, sentiment, bundle.tag_lexicon)
            assert len(sentiment._memos[answer.passage_sentiment]) <= 3


class TestEntityCap:
    def test_capped_is_a_prefix_and_only_kept_cuis_get_synonyms(self, bundle, monkeypatch):
        lexicon = bundle.concept_lexicon
        synonyms_of = answer.synonyms_of
        looked_up = []

        def recording(cui, lex):
            looked_up.append(cui)
            return synonyms_of(cui, lex)

        monkeypatch.setattr(answer, "synonyms_of", recording)
        rng = random.Random(23)
        vocab = ["imatinib", "cohesin", "chromatin", "epilepsy", "tobacco", "mother", "statistics", "gleevec",
                 "seizures", "calcium", "words"]
        capped_some = 0
        for _ in range(80):
            passages = [analysed(bundle, " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 9))))
                        for _ in range(rng.randint(0, 4))]
            cuis = question_cuis(bundle, rng.choice(vocab))
            uncapped = rank_entities(passages, cuis, lexicon, None)
            for cap in range(len(uncapped) + 2):
                looked_up.clear()
                capped = rank_entities(passages, cuis, lexicon, cap)
                assert capped == uncapped[:cap]
                assert [lexicon.get(cui).preferred for cui in looked_up] == [e.name for e in capped]
                capped_some += len(capped) < len(uncapped)
        assert capped_some
