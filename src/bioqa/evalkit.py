"""Evaluation metrics and the run-versus-gold scorer.

Classification accuracy and P/R/F1, ranked-retrieval AP/MAP, exact-answer
accuracy/MRR/list-F1 with synonym-aware matching, and ROUGE-2/ROUGE-SU4
for ideal answers. evaluate_run scores each gold question once, into its
per-question row, and averages every metric from those rows.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .textproc import stem as porter_stem

DEFAULT_MAX_SKIP = 4


class UnknownQuestionError(ValueError):
    def __init__(self, ids):
        self.ids = list(ids)
        super().__init__(f"run references unknown question id(s): {', '.join(self.ids)}")


def accuracy(predictions, gold) -> float:
    """Fraction of positions where prediction equals gold."""
    if len(predictions) != len(gold):
        raise ValueError(f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold")
    if not gold:
        return 0.0
    return sum(1 for p, g in zip(predictions, gold) if p == g) / len(gold)


def prf1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with the 0/0 -> 0 convention."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def average_precision(ranked_ids, gold_ids) -> float:
    """Rank-weighted precision: sum of P(r) at relevant ranks over |gold|."""
    gold = set(gold_ids)
    if not gold:
        raise ValueError("gold set must not be empty")
    hits = 0
    total = 0.0
    for r, item in enumerate(ranked_ids, 1):
        if item in gold:
            hits += 1
            total += hits / r
    return total / len(gold)


def mean_average_precision(average_precisions) -> float:
    """Arithmetic mean of per-question average precision."""
    values = list(average_precisions)
    if not values:
        raise ValueError("no questions to average over")
    return sum(values) / len(values)


def mrr(per_question_ranks) -> float:
    """Mean of 1/rank; questions where the answer never appears score 0."""
    ranks = list(per_question_ranks)
    if not ranks:
        return 0.0
    return sum(1.0 / r for r in ranks if r is not None) / len(ranks)


def _normalize_name(name: str) -> str:
    return " ".join(name.lower().split())


def _as_name_set(item) -> set[str]:
    # An answer item is either a name or a name plus synonyms.
    if isinstance(item, str):
        return {_normalize_name(item)}
    return {_normalize_name(n) for n in item}


def list_question_counts(predicted, gold) -> tuple[int, int, int]:
    """(tp, fp, fn) for one list question with synonym-aware matching.

    gold is a list of accepted-name sets; a prediction matches a gold
    entry when any of its names equals any accepted name. Matches count
    each gold entry once.
    """
    gold_sets = [_as_name_set(entry) for entry in gold]
    matched_gold: set[int] = set()
    fp = 0
    for item in predicted:
        names = _as_name_set(item)
        hit = None
        for gi, accepted in enumerate(gold_sets):
            if names & accepted:
                hit = gi
                break
        if hit is None:
            fp += 1
        else:
            matched_gold.add(hit)
    tp = len(matched_gold)
    fn = len(gold_sets) - tp
    return tp, fp, fn


def first_answer_rank(candidates, gold) -> int | None:
    """1-based rank of the first candidate naming a gold answer, else None."""
    accepted: set[str] = set()
    for entry in gold:
        accepted |= _as_name_set(entry)
    for r, item in enumerate(candidates, 1):
        if _as_name_set(item) & accepted:
            return r
    return None


# ---------------------------------------------------------------------------
# ROUGE
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"[a-z0-9]+")


def _rouge_tokens(text: str, stem_tokens: bool) -> list[str]:
    tokens = _WORD_RE.findall(text.lower())
    if stem_tokens:
        tokens = [porter_stem(t) for t in tokens]
    return tokens


def _check_beta(beta) -> None:
    """A ROUGE F-measure's beta: None for recall alone, else finite and not
    negative (0 weighs precision alone)."""
    if beta is not None and not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and not negative, got {beta}")


def _score_from_counts(matches: float, ref_total: float, cand_total: float, beta) -> float:
    recall = matches / ref_total if ref_total else 0.0
    if beta is None:
        return recall
    precision = matches / cand_total if cand_total else 0.0
    if precision + recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (recall + b2 * precision)


def _rouge_units_score(cand_units: Counter, ref_units_per_ref: list[Counter], beta) -> float:
    _check_beta(beta)
    # With several references the best one counts; with none the score is 0.
    cand_total = sum(cand_units.values())
    scores = [
        _score_from_counts(sum(min(c, ref_units[u]) for u, c in cand_units.items()),
                           sum(ref_units.values()), cand_total, beta)
        for ref_units in ref_units_per_ref
    ]
    return max(scores, default=0.0)


def rouge_n(candidate: str, references, n: int = 2, *, beta=None, stem_tokens: bool = False) -> float:
    """Recall-oriented n-gram overlap between a candidate and references.

    Clipped n-gram matches over reference n-gram counts; with several
    references the score is the best one. beta switches to an F-measure
    with the given recall weight, which must be finite and not negative.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(references, str):
        references = [references]
    cand = _rouge_tokens(candidate, stem_tokens)
    cand_units = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
    ref_units = [
        Counter(tuple(toks[i : i + n]) for i in range(len(toks) - n + 1))
        for toks in (_rouge_tokens(r, stem_tokens) for r in references)
    ]
    return _rouge_units_score(cand_units, ref_units, beta)


def _su_units(tokens: list[str], max_skip: int) -> Counter:
    # Skip-bigrams (at most max_skip tokens in between) plus unigrams,
    # counted together as one multiset.
    units: Counter = Counter()
    for i, tok in enumerate(tokens):
        units[("u", tok)] += 1
        for j in range(i + 1, min(i + max_skip + 2, len(tokens))):
            units[("s", tok, tokens[j])] += 1
    return units


def rouge_su(candidate: str, references, max_skip: int = DEFAULT_MAX_SKIP, *, beta=None, stem_tokens: bool = False) -> float:
    """Skip-bigram plus unigram overlap (ROUGE-SU)."""
    if max_skip < 0:
        raise ValueError(f"max_skip must be >= 0, got {max_skip}")
    if isinstance(references, str):
        references = [references]
    cand_units = _su_units(_rouge_tokens(candidate, stem_tokens), max_skip)
    ref_units = [_su_units(_rouge_tokens(r, stem_tokens), max_skip) for r in references]
    return _rouge_units_score(cand_units, ref_units, beta)


# ---------------------------------------------------------------------------
# Run evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    metrics: dict[str, float]
    per_question: dict[str, dict]
    config: dict = field(default_factory=dict)

    def render_text(self) -> str:
        width = max((len(k) for k in self.metrics), default=0)
        lines = ["metric".ljust(width) + "  value", "-" * (width + 9)]
        for key in sorted(self.metrics):
            lines.append(f"{key.ljust(width)}  {self.metrics[key]:.4f}")
        return "\n".join(lines)


def _snippet_key(snippet: dict) -> tuple[str, str]:
    return snippet["document"], " ".join(snippet["text"].split()).lower()


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _retrieval_scores(returned, gold) -> dict[str, float]:
    """Precision, recall, F1 and AP of the returned keys (first occurrence kept) against the gold keys."""
    returned = list(dict.fromkeys(returned))
    tp = len(set(returned) & set(gold))
    p, r, f1 = prf1(tp, len(returned) - tp, len(set(gold)) - tp)
    return {"precision": p, "recall": r, "f1": f1, "ap": average_precision(returned, gold)}


def _named_entities(entry: dict) -> list:
    """The entities a run entry's exact answer names: none unless it is a list."""
    exact = entry.get("exact_answer")
    return exact if isinstance(exact, list) else []


def evaluate_run(
    gold_dataset,
    run_entries: list[dict],
    *,
    rouge_beta=None,
    rouge_stem: bool = False,
) -> EvalReport:
    """Score a run (answer objects of the shapes ingest.load_run accepts)
    against a gold dataset.

    Each gold question is scored once, into its per_question row, and each
    metric is the mean over the rows that hold its score: yesno_correct,
    factoid_rank, list_prf1, rouge_2 and rouge_su, documents and snippets.
    Gold questions with no run entry count as unanswered, and an exact
    answer that is not a list (a yes/no reply) to a factoid or list
    question names no entity. Run entries whose id is not in the gold set
    are an error, and so is a rouge_beta that rouge_n refuses.
    """
    _check_beta(rouge_beta)
    gold_by_id = {q.id: q for q in gold_dataset.questions}
    unknown = [e.get("id", "<missing>") for e in run_entries if e.get("id") not in gold_by_id]
    if unknown:
        raise UnknownQuestionError(unknown)
    run_by_id = {e["id"]: e for e in run_entries}

    per_question: dict[str, dict] = {}
    for q in gold_dataset.questions:
        entry = run_by_id.get(q.id, {})
        detail: dict = {"type": q.type.value}

        if q.type.value == "yesno" and q.exact_answer is not None:
            predicted = entry.get("exact_answer")
            predicted = predicted.lower() if isinstance(predicted, str) else None
            detail["yesno_correct"] = predicted == q.exact_answer
        elif q.type.value == "factoid" and q.exact_answer:
            detail["factoid_rank"] = first_answer_rank(_named_entities(entry), q.exact_answer)
        elif q.type.value == "list" and q.exact_answer:
            detail["list_prf1"] = prf1(*list_question_counts(_named_entities(entry), q.exact_answer))

        if q.ideal_answer:
            candidate = entry.get("ideal_answer") or ""
            if isinstance(candidate, list):
                candidate = candidate[0] if candidate else ""
            detail["rouge_2"] = rouge_n(candidate, q.ideal_answer, 2, beta=rouge_beta, stem_tokens=rouge_stem)
            detail["rouge_su"] = rouge_su(candidate, q.ideal_answer, beta=rouge_beta, stem_tokens=rouge_stem)

        if q.documents:
            detail["documents"] = _retrieval_scores(entry.get("documents", ()), q.documents)
        if q.snippets:
            detail["snippets"] = _retrieval_scores(
                map(_snippet_key, entry.get("snippets", ())), list(map(_snippet_key, q.snippets))
            )

        per_question[q.id] = detail

    def column(key) -> list:
        return [detail[key] for detail in per_question.values() if key in detail]

    metrics: dict[str, float] = {}
    if yesno := column("yesno_correct"):
        metrics["yesno_accuracy"] = _mean(yesno)
    if ranks := column("factoid_rank"):
        metrics["factoid_mrr"] = mrr(ranks)
    if lists := column("list_prf1"):
        for i, name in enumerate(("precision", "recall", "f1")):
            metrics[f"list_{name}"] = _mean(row[i] for row in lists)
    if rouge2 := column("rouge_2"):
        metrics["rouge_2"] = _mean(rouge2)
        metrics["rouge_su4"] = _mean(column("rouge_su"))
    for block in ("documents", "snippets"):
        if rows := column(block):
            for name in ("precision", "recall", "f1"):
                metrics[f"{block}_{name}"] = _mean(row[name] for row in rows)
            metrics[f"{block}_map"] = mean_average_precision(row["ap"] for row in rows)

    return EvalReport(metrics, per_question, {"rouge_beta": rouge_beta, "rouge_stem": rouge_stem})
