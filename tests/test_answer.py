import random
from collections import Counter

import pytest

from bioqa.answer import (
    ConfigurationError,
    answer_factoid,
    answer_list,
    answer_pipeline,
    answer_to_json,
    answer_yesno,
    ideal_answer,
    rank_entities,
)
from bioqa.conceptlex import SentimentEntry, SentimentLexicon, recognize
from bioqa.ingest import load_resources
from bioqa.qclass import FEATURE_SPACES, FeatureExtractor, QuestionType, extract_topic_features

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

    def test_empty_passages_vote_yes_with_flag(self, bundle):
        result = answer_yesno([], bundle.sentiment, bundle.tag_lexicon)
        assert result.value == "yes"
        assert result.empty

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
                               question_cuis(bundle, "What about leukemia?"), bundle.concept_lexicon)
        assert ranked[0].name == "Imatinib"

    def test_question_entities_excluded_by_concept(self, bundle):
        passages = [analysed(bundle, "Imatinib and gleevec again imatinib.")]
        # gleevec is a synonym of the question concept, so nothing remains
        assert rank_entities(passages, question_cuis(bundle, "Is imatinib safe?"), bundle.concept_lexicon) == []

    def test_no_concepts_recognized(self, bundle):
        passages = [analysed(bundle, "plain words only")]
        assert rank_entities(passages, question_cuis(bundle, "question"), bundle.concept_lexicon) == []

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
                                   question_cuis(bundle, question), bundle.concept_lexicon)

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

    def test_empty_candidates_flagged(self, bundle):
        ideal = ideal_answer(question_terms(bundle, "q"), [])
        assert ideal.empty and ideal.text == ""

    def test_text_length_bound(self, bundle, corpus):
        from bioqa.retrieval import extract_passages

        candidates = extract_passages(list(corpus.values()), bundle.abbreviations, bundle.stopwords,
                                      bundle.concept_lexicon)
        ideal = ideal_answer(question_terms(bundle, "What symptoms characterize the Muenke syndrome?"), candidates)
        total = sum(len(c.text) for c in candidates if (c.doc_id, c.sent_index) in ideal.sources)
        assert len(ideal.text) <= total + 1


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
        assert full.supporting == []
        assert full.ideal.empty
        assert "no_passages" in full.flags

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
    bundle and retrieve the question once per request; the stages after them
    read that analysis and analyse no text themselves."""

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
                    analysed_texts[args[0]] += 1
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
