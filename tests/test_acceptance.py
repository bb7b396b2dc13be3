"""Acceptance suite: oracle-equivalence, invariants and bundled-data smoke.

Each test prints one pass/fail line (run pytest -s to watch them) and
enforces the stated numeric tolerance and runtime budget.
"""

import json
import math
import random
import time
import warnings
from collections import Counter, deque

import pytest

from bioqa import evalkit, ingest, qclass, retrieval
from bioqa.cli import main
from bioqa.conceptlex import Concept, ConceptGraph, ConceptLexicon, SentimentEntry, SentimentLexicon
from bioqa.qclass import QuestionType
from bioqa.retrieval import DocumentRecord, bm25_score, rerank_documents

from conftest import RESOURCE_DIR, index_from_terms


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_bm25_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    vocab = [f"t{i}" for i in range(15)]
    checked = 0
    for _ in range(220):
        units = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            for _ in range(rng.randint(1, 20))
        ]
        index = index_from_terms(units)
        n = len(units)
        avg = sum(len(u) for u in units) / n
        query = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
        k1 = rng.choice([0.6, 1.2, 1.8])
        b = rng.choice([0.0, 0.4, 0.85, 1.0])
        target = rng.randrange(n)
        got = bm25_score(query, f"u{target}", index, k1=k1, b=b)

        tf = Counter(units[target])
        expected = 0.0
        for q in query:
            n_q = sum(1 for u in units if q in u)
            w = math.log((n - n_q + 0.5) / (n_q + 0.5))
            if w <= 0 or tf[q] == 0:
                continue
            expected += w * tf[q] * (k1 + 1) / (tf[q] + k1 * (1 - b + b * len(units[target]) / avg))
        assert abs(got - expected) < 1e-9, (query, units, got, expected)
        checked += 1

    index = index_from_terms([["t", "x"], ["y", "z"], ["w", "v"]])
    pinned = bm25_score(["t"], "u0", index, k1=1.2, b=0.85)
    assert abs(pinned - math.log(5 / 3)) < 1e-9

    elapsed = time.perf_counter() - started
    report(
        "criterion 1: BM25 matches the direct-formula oracle",
        checked >= 200 and elapsed < 5.0,
        f"{checked} corpora, ln(5/3) case exact, {elapsed:.2f}s",
    )


def bfs_similarity(adj, a, b):
    if a not in adj or b not in adj:
        return None
    if a == b:
        return 1.0
    seen = {a}
    queue = deque([(a, 1)])
    while queue:
        node, count = queue.popleft()
        for nb in adj[node]:
            if nb == b:
                return 1.0 / (count + 1)
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, count + 1))
    return None


def test_criterion_2_rerank_oracle():
    started = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    for _ in range(120):
        n_concepts = rng.randint(2, 8)
        cuis = [f"K{i}" for i in range(n_concepts)]
        lexicon = ConceptLexicon([Concept(c, f"word{i}", "T0", "Thing") for i, c in enumerate(cuis)])
        edges = [tuple(rng.sample(cuis, 2)) for _ in range(rng.randint(1, 10))]
        edges = [e for e in edges if e[0] != e[1]]
        if not edges:
            continue
        graph = ConceptGraph.from_edges(edges)

        def sentence():
            return " ".join(f"word{rng.randrange(n_concepts)}" for _ in range(rng.randint(0, 4)))

        question = sentence()
        docs = [DocumentRecord(f"d{j}", sentence() or "word0", "") for j in range(rng.randint(1, 10))]
        m = rng.randint(1, len(docs))
        got = [d.doc_id for d in rerank_documents(question, docs, lexicon, graph, m)]

        def cuis_of(text):
            return [f"K{w[4:]}" for w in text.split()]

        scores = []
        for doc in docs:
            total = 0.0
            for qc in cuis_of(question):
                for tc in cuis_of(doc.title):
                    sim = bfs_similarity(graph.adjacency, qc, tc)
                    if sim is not None:
                        total += sim
            scores.append(total)
        expected = [docs[i].doc_id for i in sorted(range(len(docs)), key=lambda i: -scores[i])[:m]]
        assert got == expected
        checked += 1

    elapsed = time.perf_counter() - started
    report(
        "criterion 2: reranking matches brute-force similarity sort",
        checked >= 100 and elapsed < 5.0,
        f"{checked} instances, {elapsed:.2f}s",
    )


def test_criterion_3_metric_oracles():
    rng = random.Random(303)
    # average precision
    for _ in range(220):
        n = rng.randint(1, 40)
        items = [f"i{k}" for k in range(n)]
        rng.shuffle(items)
        gold = set(rng.sample(items, rng.randint(1, n)))
        got = evalkit.average_precision(items, gold)
        hits, expected = 0, 0.0
        for r, item in enumerate(items, 1):
            if item in gold:
                hits += 1
                expected += hits / r
        expected /= len(gold)
        assert abs(got - expected) < 1e-12
    # mrr
    for _ in range(220):
        ranks = [rng.choice([None, 1, 2, 3, 4, 7]) for _ in range(rng.randint(1, 8))]
        expected = sum(1.0 / r for r in ranks if r) / len(ranks)
        assert abs(evalkit.mrr(ranks) - expected) < 1e-12
    # rouge-n and rouge-su
    vocab = list("abcde")
    for _ in range(220):
        n = rng.randint(1, 3)
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        got = evalkit.rouge_n(" ".join(cand), [" ".join(ref)], n)
        cg = Counter(tuple(cand[i : i + n]) for i in range(max(0, len(cand) - n + 1)))
        rg = Counter(tuple(ref[i : i + n]) for i in range(max(0, len(ref) - n + 1)))
        total = sum(rg.values())
        expected = 0.0 if total == 0 else sum(min(cg[g], rg[g]) for g in rg) / total
        assert abs(got - expected) < 1e-12

        max_skip = rng.randint(0, 4)
        got_su = evalkit.rouge_su(" ".join(cand), [" ".join(ref)], max_skip)

        def su_units(tokens):
            units = Counter()
            for i, tok in enumerate(tokens):
                units[("u", tok)] += 1
                for j in range(i + 1, len(tokens)):
                    if j - i - 1 <= max_skip:
                        units[("s", tok, tokens[j])] += 1
            return units

        cu, ru = su_units(cand), su_units(ref)
        total = sum(ru.values())
        expected_su = 0.0 if total == 0 else sum(min(cu[u], ru[u]) for u in ru) / total
        assert abs(got_su - expected_su) < 1e-12

    hand = (
        abs(evalkit.average_precision(["g", "x", "g2"], ["g", "g2"]) - 5 / 6) < 1e-15
        and evalkit.mrr([2, 4]) == 0.375
        and abs(evalkit.rouge_n("a b c d", ["a b c e"], 2) - 2 / 3) < 1e-15
    )
    report("criterion 3: metric oracles agree", hand, "AP/MRR/ROUGE hand cases exact")


def test_criterion_4_pattern_engine(bundle, extractor, appendix_questions):
    started = time.perf_counter()
    yesno_questions = [q for q in appendix_questions.questions if q.type is QuestionType.YESNO]
    assert len(yesno_questions) == 9
    all_match = True
    for q in yesno_questions:
        tagged = extractor.tag(q.body)
        matches = qclass.pattern_matches(tagged, bundle.patterns)
        hits = [m for m in matches if m.pattern.category is QuestionType.YESNO]
        if not hits:
            all_match = False
            break

    vector = extractor.extract("What is the definition of autophagy?", "patterns")
    vector_ok = vector == {"what": 1, "VBZ": 1, "definition": 1}
    elapsed = time.perf_counter() - started
    report(
        "criterion 4: pattern engine",
        all_match and vector_ok and elapsed < 1.0,
        f"9/9 yes-no matches, autophagy vector exact, {elapsed:.2f}s",
    )


def perceptron_best_accuracy(examples, labels, epochs=40, seed=0):
    # Independent separability probe: pocket perceptron, i.e. the best
    # training accuracy any iterate of a multiclass perceptron attains.
    vocab = sorted({f for feats, _ in examples for f in feats})
    index = {f: i for i, f in enumerate(vocab)}
    weights = [[0.0] * len(vocab) for _ in labels]
    label_index = {lab: i for i, lab in enumerate(labels)}
    rng = random.Random(seed)

    def predict(feats):
        best, best_score = 0, None
        for li in range(len(labels)):
            score = sum(weights[li][index[f]] * c for f, c in feats.items())
            if best_score is None or score > best_score:
                best, best_score = li, score
        return best

    def current_accuracy():
        return sum(1 for f, lab in examples if predict(f) == label_index[lab]) / len(examples)

    best_acc = current_accuracy()
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            feats, label = examples[i]
            got = predict(feats)
            want = label_index[label]
            if got != want:
                for f, c in feats.items():
                    weights[want][index[f]] += c
                    weights[got][index[f]] -= c
                best_acc = max(best_acc, current_accuracy())
    return best_acc


def test_criterion_5_classifier_determinism_and_accuracy(typed_examples):
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m1 = qclass.train_type_classifier(typed_examples, "patterns", C=1.01, seed=42)
        m2 = qclass.train_type_classifier(typed_examples, "patterns", C=1.01, seed=42)
    identical = m1.weights == m2.weights

    labels = tuple(dict.fromkeys(label for _, label in typed_examples))
    oracle_best = perceptron_best_accuracy(typed_examples, labels)
    model_acc = qclass.training_accuracy(m1, typed_examples)
    elapsed = time.perf_counter() - started
    report(
        "criterion 5: seeded training reproducible, accuracy >= 0.9",
        identical and oracle_best >= 0.9 and model_acc >= 0.9 and elapsed < 10.0,
        f"bit-identical={identical}, perceptron best={oracle_best:.3f}, model={model_acc:.3f}, {elapsed:.2f}s",
    )


def test_criterion_6_yesno_vote_oracle(bundle):
    rng = random.Random(606)
    word_scores = {"up": 0.5, "lift": 0.25, "down": -0.5, "drop": -0.25, "flat": 0.0}
    lexicon = SentimentLexicon([
        SentimentEntry(w, "any", s if s > 0 else 0.0, -s if s < 0 else 0.0)
        for w, s in word_scores.items()
    ])
    from bioqa.answer import answer_yesno

    checked = 0
    for _ in range(110):
        passages = [
            " ".join(rng.choice(list(word_scores)) for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 8))
        ]
        got = answer_yesno(passages, lexicon, bundle.tag_lexicon)

        positives = negatives = 0
        for p in passages:
            total = sum(word_scores[w] for w in p.split())
            if total >= 0:
                positives += 1
            else:
                negatives += 1
        expected = "yes" if positives >= negatives else "no"
        assert got.value == expected
        assert (got.positives, got.negatives) == (positives, negatives)

        for _ in range(50):
            shuffled = passages[:]
            rng.shuffle(shuffled)
            assert answer_yesno(shuffled, lexicon, bundle.tag_lexicon).value == expected
        checked += 1

    report("criterion 6: yes/no vote matches brute force and is order-free",
           checked >= 100, f"{checked} instances x 50 permutations")


def test_criterion_7_end_to_end_smoke(tmp_path, capsys):
    started = time.perf_counter()
    model_path = tmp_path / "model.json"
    assert main(["train-type", "--out", str(model_path)]) == 0
    question = "What is the cause of Phthiriasis Palpebrarum?"
    assert main(["answer", "--model", str(model_path), "--question", question]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip().startswith("{")]
    obj = json.loads(lines[-1])
    factoid_ok = obj["type"] == "factoid"
    top1_ok = bool(obj["exact_answer"]) and obj["exact_answer"][0][0] == "Pthirus pubis"

    run_path = tmp_path / "run.json"
    gold_path = tmp_path / "gold.json"
    gold_payload = json.loads((RESOURCE_DIR / "demo_gold.json").read_text())
    gold_payload["questions"] = [q for q in gold_payload["questions"] if q["id"] == "demo-pp-001"]
    gold_path.write_text(json.dumps(gold_payload))
    assert main(["answer", "--model", str(model_path), "--dataset", str(gold_path),
                 "--out", str(run_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--gold", str(gold_path), "--run", str(run_path)]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    mrr_ok = metrics["factoid_mrr"] == 1.0

    elapsed = time.perf_counter() - started
    report(
        "criterion 7: end-to-end answer and eval round trip",
        factoid_ok and top1_ok and mrr_ok and elapsed < 5.0,
        f"type=factoid, top1=Pthirus pubis, MRR=1.0, {elapsed:.2f}s",
    )


def test_criterion_8_index_persistence(tmp_path, bundle, doc_index):
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    ingest.save_index(doc_index, p1)
    ingest.save_index(doc_index, p2)
    byte_identical = p1.read_bytes() == p2.read_bytes()
    loaded = ingest.load_index(p1)
    structural = (
        loaded.unit_order == doc_index.unit_order
        and loaded.lengths == doc_index.lengths
        and loaded.postings == doc_index.postings
    )
    report("criterion 8: index persistence round trip",
           byte_identical and structural,
           "byte-deterministic saves, structure-equal load")
