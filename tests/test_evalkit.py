import math
import random
from collections import Counter

import pytest

from bioqa import evalkit
from bioqa.evalkit import (
    UnknownQuestionError,
    accuracy,
    average_precision,
    evaluate_run,
    first_answer_rank,
    list_question_counts,
    mean_average_precision,
    mrr,
    prf1,
    rouge_n,
    rouge_su,
)
from bioqa.ingest import QuestionDataset, QuestionRecord
from bioqa.qclass import QuestionType


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_none_correct(self):
        assert accuracy(["x", "x"], ["a", "b"]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 9], [1, 2, 3, 4]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])


class TestPrf1:
    def test_perfect(self):
        assert prf1(2, 0, 0) == (1.0, 1.0, 1.0)

    def test_zero_convention(self):
        assert prf1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_plug_in(self):
        p, r, f1 = prf1(2, 1, 2)
        assert (p, r) == (2 / 3, 1 / 2)
        assert f1 == pytest.approx(4 / 7)


class TestAveragePrecision:
    def test_perfect_run(self):
        assert average_precision(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_nothing_retrieved(self):
        assert average_precision(["x", "y"], ["a"]) == 0.0

    def test_hand_case(self):
        assert average_precision(["g1", "x", "g2"], ["g1", "g2"]) == pytest.approx(5 / 6)

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["a"], [])

    def test_matches_bruteforce_and_rank_sensitivity(self):
        rng = random.Random(55)
        for _ in range(250):
            n = rng.randint(1, 50)
            items = [f"i{k}" for k in range(n)]
            rng.shuffle(items)
            gold = rng.sample(items, rng.randint(1, n)) + [f"missing{k}" for k in range(rng.randint(0, 3))]
            got = average_precision(items, gold)
            hits = 0
            expected = 0.0
            for r, item in enumerate(items, 1):
                if item in set(gold):
                    hits += 1
                    expected += hits / r
            expected /= len(set(gold))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_swapping_relevant_earlier_changes_ap(self):
        # AP is not invariant under rank permutations.
        assert average_precision(["x", "g"], ["g"]) != average_precision(["g", "x"], ["g"])


class TestMap:
    def test_single_question(self):
        assert mean_average_precision([0.7]) == 0.7

    def test_mean(self):
        assert mean_average_precision([1.0, 0.5]) == 0.75

    def test_all_zero(self):
        assert mean_average_precision([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([])

    def test_permutation_invariant(self):
        rng = random.Random(1)
        values = [rng.random() for _ in range(9)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert mean_average_precision(values) == pytest.approx(mean_average_precision(shuffled))


class TestMrr:
    def test_always_first(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_hand_case(self):
        assert mrr([2, 4]) == 0.375

    def test_never_found(self):
        assert mrr([None, None]) == 0.0

    def test_monotone_as_rank_worsens(self):
        rng = random.Random(2)
        for _ in range(100):
            ranks = [rng.choice([None, 1, 2, 3, 5, 8]) for _ in range(6)]
            base = mrr(ranks)
            i = rng.randrange(len(ranks))
            worse = ranks[:]
            worse[i] = None if worse[i] is None else worse[i] + rng.randint(1, 4)
            assert mrr(worse) <= base + 1e-15

    def test_synonym_rank_matching(self):
        gold = [["Pthirus pubis", "crab louse"]]
        assert first_answer_rank([["something"], ["Crab Louse"]], gold) == 2
        assert first_answer_rank([["nope"]], gold) is None


class TestListMetrics:
    def test_hand_counts(self):
        # 3 predictions, 2 hit distinct gold entries, 1 misses; 4 gold entries.
        predicted = [["a"], ["b"], ["zzz"]]
        gold = [["a"], ["b"], ["c"], ["d"]]
        assert list_question_counts(predicted, gold) == (2, 1, 2)
        p, r, f1 = prf1(*list_question_counts(predicted, gold))
        assert (p, r) == (2 / 3, 1 / 2)
        assert f1 == pytest.approx(4 / 7)

    def test_synonym_counts_as_match(self):
        predicted = [["TSC"]]
        gold = [["tuberous sclerosis", "tsc"]]
        assert list_question_counts(predicted, gold) == (1, 0, 0)


class TestRougeN:
    def test_identical_text(self):
        assert rouge_n("a b c d", ["a b c d"], 2) == 1.0

    def test_disjoint(self):
        assert rouge_n("a b c", ["x y z"], 2) == 0.0

    def test_hand_case(self):
        assert rouge_n("a b c d", ["a b c e"], 2) == pytest.approx(2 / 3)

    def test_n_one_is_clipped_unigram_recall(self):
        rng = random.Random(3)
        vocab = list("abcdef")
        for _ in range(200):
            cand = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 10)))
            ref = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
            got = rouge_n(cand, [ref], 1)
            c, r = Counter(cand.split()), Counter(ref.split())
            clipped = sum(min(c[w], r[w]) for w in r)
            expected = clipped / sum(r.values())
            assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(4)
        vocab = list("abcde")
        for _ in range(250):
            n = rng.randint(1, 3)
            cand_toks = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref_toks = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            got = rouge_n(" ".join(cand_toks), [" ".join(ref_toks)], n)
            cg = Counter(tuple(cand_toks[i : i + n]) for i in range(max(0, len(cand_toks) - n + 1)))
            rg = Counter(tuple(ref_toks[i : i + n]) for i in range(max(0, len(ref_toks) - n + 1)))
            total = sum(rg.values())
            expected = 0.0 if total == 0 else sum(min(cg[g], rg[g]) for g in rg) / total
            assert got == pytest.approx(expected, abs=1e-12)

    def test_multiref_max_default(self):
        score = rouge_n("a b", ["a b", "x y"], 2)
        assert score == 1.0


def su_oracle_units(tokens, max_skip):
    units = Counter()
    for i, tok in enumerate(tokens):
        units[("u", tok)] += 1
        for j in range(i + 1, len(tokens)):
            if j - i - 1 <= max_skip:
                units[("s", tok, tokens[j])] += 1
    return units


class TestRougeSu:
    def test_identical(self):
        assert rouge_su("left right center", ["left right center"]) == 1.0

    def test_disjoint(self):
        assert rouge_su("a b c", ["x y z"]) == 0.0

    def test_hand_case(self):
        # cand units {ab, ac, bc, a, b, c}; ref "a c b" units {ac, ab, cb, a, c, b}
        assert rouge_su("a b c", ["a c b"], max_skip=4) == pytest.approx(5 / 6)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(5)
        vocab = list("abcd")
        for _ in range(250):
            max_skip = rng.randint(0, 4)
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            got = rouge_su(" ".join(cand), [" ".join(ref)], max_skip)
            cu, ru = su_oracle_units(cand, max_skip), su_oracle_units(ref, max_skip)
            total = sum(ru.values())
            expected = 0.0 if total == 0 else sum(min(cu[u], ru[u]) for u in ru) / total
            assert got == pytest.approx(expected, abs=1e-12)


def _gold_dataset():
    return QuestionDataset([
        QuestionRecord("q1", "Is X true?", QuestionType.YESNO, exact_answer="yes",
                       ideal_answer=("X is certainly true in most cases.",),
                       documents=("d1", "d2")),
        QuestionRecord("q2", "Which enzyme?", QuestionType.FACTOID,
                       exact_answer=[["galactocerebrosidase", "galc"]],
                       ideal_answer=("The enzyme is galactocerebrosidase.",)),
        QuestionRecord("q3", "List proteins.", QuestionType.LIST,
                       exact_answer=[["ctcf"], ["cohesin"], ["kit"], ["pdgfr"]],
                       ideal_answer=("CTCF and cohesin and more.",)),
        QuestionRecord("q4", "Summarize Y.", QuestionType.SUMMARY,
                       ideal_answer=("Y does many things in cells.",),
                       snippets=({"document": "d9", "text": "Y does many things."},)),
    ])


def _perfect_run():
    return [
        {"id": "q1", "exact_answer": "yes", "ideal_answer": "X is certainly true in most cases.",
         "documents": ["d1", "d2"]},
        {"id": "q2", "exact_answer": [["GALC"]], "ideal_answer": "The enzyme is galactocerebrosidase."},
        {"id": "q3", "exact_answer": [["ctcf"], ["cohesin"], ["kit"], ["pdgfr"]],
         "ideal_answer": "CTCF and cohesin and more."},
        {"id": "q4", "ideal_answer": "Y does many things in cells.",
         "snippets": [{"document": "d9", "text": "Y does many things."}]},
    ]


class TestEvaluateRun:
    def test_run_equal_to_gold_scores_one(self):
        report = evaluate_run(_gold_dataset(), _perfect_run())
        for key in ("yesno_accuracy", "factoid_mrr", "list_f1", "rouge_2", "rouge_su4",
                    "documents_map", "snippets_map"):
            assert report.metrics[key] == pytest.approx(1.0), key

    def test_empty_run_scores_zero(self):
        report = evaluate_run(_gold_dataset(), [])
        for key, value in report.metrics.items():
            assert value == pytest.approx(0.0), key

    def test_mixed_run_matches_hand_computation(self):
        run = [
            {"id": "q1", "exact_answer": "no", "ideal_answer": "X is certainly true in most cases.",
             "documents": ["d2", "x", "d1"]},
            {"id": "q2", "exact_answer": [["wrong"], ["galc"]],
             "ideal_answer": "The enzyme is galactocerebrosidase."},
            {"id": "q3", "exact_answer": [["ctcf"], ["nothere"], ["cohesin"]],
             "ideal_answer": "CTCF and cohesin and more."},
            {"id": "q4", "ideal_answer": "Y does many things in cells."},
        ]
        report = evaluate_run(_gold_dataset(), run)
        assert report.metrics["yesno_accuracy"] == 0.0
        assert report.metrics["factoid_mrr"] == 0.5
        # q3: tp=2, fp=1, fn=2 -> P=2/3 R=1/2 F=4/7
        assert report.metrics["list_precision"] == pytest.approx(2 / 3)
        assert report.metrics["list_recall"] == pytest.approx(1 / 2)
        assert report.metrics["list_f1"] == pytest.approx(4 / 7)
        # q1 documents [d2, x, d1] vs gold {d1, d2}: AP = (1/1 + 2/3)/2
        assert report.metrics["documents_map"] == pytest.approx((1.0 + 2 / 3) / 2)
        assert report.metrics["rouge_2"] == pytest.approx(1.0)
        # q4 snippets absent in run -> 0
        assert report.metrics["snippets_map"] == 0.0

    def test_list_metrics_are_means_over_list_questions(self):
        # A yes/no question beside two list questions, one of them unanswered.
        gold = QuestionDataset([
            QuestionRecord("y", "Is it?", QuestionType.YESNO, exact_answer="yes"),
            QuestionRecord("l1", "List them.", QuestionType.LIST, exact_answer=[["a"], ["b"], ["c"], ["d"]]),
            QuestionRecord("l2", "List more.", QuestionType.LIST, exact_answer=[["e"], ["f"]]),
        ])
        report = evaluate_run(gold, [{"id": "y", "exact_answer": "yes"},
                                     {"id": "l1", "exact_answer": [["a"], ["b"], ["zzz"]]}])
        # l1: P=2/3 R=1/2 F=4/7; l2 unanswered: 0, 0, 0.
        assert report.per_question["l1"]["list_prf1"] == pytest.approx((2 / 3, 1 / 2, 4 / 7))
        assert report.per_question["l2"]["list_prf1"] == (0.0, 0.0, 0.0)
        assert report.metrics["list_precision"] == pytest.approx(1 / 3)
        assert report.metrics["list_recall"] == pytest.approx(1 / 4)
        assert report.metrics["list_f1"] == pytest.approx(2 / 7)
        assert report.metrics["yesno_accuracy"] == 1.0

    def test_rouge_metrics_are_means_of_their_own_rows(self):
        gold = QuestionDataset([
            QuestionRecord("s1", "Summarize.", QuestionType.SUMMARY, ideal_answer=("a b c d",)),
            QuestionRecord("s2", "Summarize.", QuestionType.SUMMARY, ideal_answer=("a b c d",)),
        ])
        report = evaluate_run(gold, [{"id": "s1", "ideal_answer": "a c b d"}, {"id": "s2", "ideal_answer": "a b c d"}])
        # s1 shares no bigram with its reference, but all 4 unigrams and 5 of
        # the 6 skip-bigrams: ROUGE-2 0, ROUGE-SU4 9/10.
        assert (report.per_question["s1"]["rouge_2"], report.per_question["s1"]["rouge_su"]) == (0.0, 0.9)
        assert report.metrics["rouge_2"] == 0.5
        assert report.metrics["rouge_su4"] == pytest.approx(0.95)

    @pytest.mark.parametrize("qtype, metric", [(QuestionType.FACTOID, "factoid_mrr"), (QuestionType.LIST, "list_precision")])
    def test_string_exact_answer_names_no_entity(self, qtype, metric):
        # Read character by character, "imatinib" would name "i" and "abc" would name "a".
        gold = QuestionDataset([QuestionRecord("q", "Which?", qtype, exact_answer=[["i"], ["a"]])])
        for reply in ("imatinib", "abc", "yes"):
            report = evaluate_run(gold, [{"id": "q", "exact_answer": reply}])
            assert report.metrics[metric] == 0.0, reply

    def test_unknown_question_id_lists_ids(self):
        with pytest.raises(UnknownQuestionError, match="ghost"):
            evaluate_run(_gold_dataset(), [{"id": "ghost"}])

    def test_metrics_lie_in_unit_interval(self):
        rng = random.Random(9)
        gold = _gold_dataset()
        names = ["ctcf", "cohesin", "kit", "pdgfr", "galc", "other", "thing"]
        for _ in range(50):
            run = []
            for q in gold.questions:
                entry = {"id": q.id, "ideal_answer": " ".join(rng.choice(names) for _ in range(6))}
                if q.type is QuestionType.YESNO:
                    entry["exact_answer"] = rng.choice(["yes", "no"])
                elif q.type is not QuestionType.SUMMARY:
                    entry["exact_answer"] = [[rng.choice(names)] for _ in range(rng.randint(0, 4))]
                entry["documents"] = [rng.choice(["d1", "d2", "d3"]) for _ in range(rng.randint(0, 3))]
                run.append(entry)
            report = evaluate_run(gold, run)
            for key, value in report.metrics.items():
                assert -1e-12 <= value <= 1.0 + 1e-12, key

    def test_report_render_text(self):
        report = evaluate_run(_gold_dataset(), _perfect_run())
        text = report.render_text()
        assert "yesno_accuracy" in text and "1.0000" in text


class TestRougeBeta:
    """A ROUGE F-measure's beta must be finite and not negative; beta 0 is
    precision alone."""

    @pytest.mark.parametrize("beta", [-1.0, -1e-300, -math.inf, math.inf, math.nan])
    def test_bad_beta_refused(self, beta):
        scorers = [
            lambda: rouge_n("a b", ["a b"], 2, beta=beta),
            lambda: rouge_su("a b", ["a b"], beta=beta),
            lambda: evaluate_run(_gold_dataset(), _perfect_run(), rouge_beta=beta),
        ]
        for score in scorers:
            with pytest.raises(ValueError, match="beta must be finite and not negative"):
                score()

    def test_beta_zero_is_precision(self):
        # Candidate unigrams a b x against reference a b c d: precision 2/3.
        assert rouge_n("a b x", ["a b c d"], 1, beta=0) == pytest.approx(2 / 3)
        assert evaluate_run(_gold_dataset(), _perfect_run(), rouge_beta=0.0).config["rouge_beta"] == 0.0
