"""Brute-force oracles for the retrieval stages the benchmark times.

They restate the paper's definitions directly: BM25 from the formula over
every unit, a conjunctive filter with the disjunctive fallback and a stable
sort; reranking by summed breadth-first-search path similarity. None of
them reads the program's postings layout, cached statistics or search
code, so an optimised search or rerank is checked against the definition.
"""

from __future__ import annotations

import math
from collections import Counter, deque


def forward_index(unit_order: list[str], postings: dict[str, dict[str, int]]) -> dict[str, Counter]:
    """Term counts per unit, in index order, inverted from postings."""
    forward: dict[str, Counter] = {uid: Counter() for uid in unit_order}
    for term, units in postings.items():
        for uid, tf in units.items():
            forward[uid][term] = tf
    return forward


def bm25_search(
    units: dict[str, Counter],
    query_terms: list[str],
    limit: int,
    k1: float,
    b: float,
) -> tuple[list[tuple[str, float]], bool]:
    """(unit id, score) of the top units and whether the search relaxed.

    units maps each unit id, in index order, to its term counts.
    """
    distinct = list(dict.fromkeys(query_terms))
    if not distinct or limit <= 0:
        return [], False
    order = list(units)
    candidates = [uid for uid in order if all(t in units[uid] for t in distinct)]
    relaxed = not candidates
    if relaxed:
        candidates = [uid for uid in order if any(t in units[uid] for t in distinct)]
    n = len(order)
    lengths = {uid: sum(counts.values()) for uid, counts in units.items()}
    avg = sum(lengths.values()) / n
    weights = {}
    for t in distinct:
        n_q = sum(1 for uid in order if t in units[uid])
        weights[t] = math.log((n - n_q + 0.5) / (n_q + 0.5))

    def score(uid: str) -> float:
        total = 0.0
        for t in query_terms:
            f = units[uid][t]
            if weights[t] <= 0.0 or f == 0:
                continue
            norm = 1.0 - b + b * (lengths[uid] / avg) if avg > 0 else 1.0
            total += weights[t] * (f * (k1 + 1.0)) / (f + k1 * norm)
        return total

    scored = [(uid, score(uid)) for uid in candidates]
    scored.sort(key=lambda pair: -pair[1])
    return scored[:limit], relaxed


def bfs_similarity(adjacency: dict[str, set[str]], a: str, b: str) -> float | None:
    """1 / nodes on the shortest undirected path; None when unconnected."""
    if a not in adjacency or b not in adjacency:
        return None
    if a == b:
        return 1.0
    seen = {a}
    queue = deque([(a, 1)])
    while queue:
        node, count = queue.popleft()
        for nb in adjacency[node]:
            if nb == b:
                return 1.0 / (count + 1)
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, count + 1))
    return None


def rerank(
    question_cuis: list[str],
    titles: list[tuple[str, list[str]]],
    adjacency: dict[str, set[str]],
    m: int,
) -> list[tuple[str, float]]:
    """(doc id, score) of the m titles most similar to the question.

    titles lists (doc id, title cuis) in incoming order; ties keep it.
    """
    scored = []
    for doc_id, title_cuis in titles:
        total = 0.0
        for qc in question_cuis:
            for tc in title_cuis:
                sim = bfs_similarity(adjacency, qc, tc)
                if sim is not None:
                    total += sim
        scored.append((doc_id, total))
    scored.sort(key=lambda pair: -pair[1])
    return scored[:m]


def same_ranking(got: list[tuple[str, float]], expected: list[tuple[str, float]], tol: float = 1e-9) -> bool:
    """Identical ids in identical order, with scores equal within tol."""
    return len(got) == len(expected) and all(
        g_id == e_id and abs(g_score - e_score) <= tol
        for (g_id, g_score), (e_id, e_score) in zip(got, expected)
    )
