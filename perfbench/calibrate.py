"""Calibrated time: wall time rescaled by the speed of a fixed reference loop.

On a shared virtual machine the same Python work can take twice as long
from one minute to the next while neighbours load the host; on the
2-vCPU machine this benchmark was built on, the median of one pass over
the bundled questions moved between 131 and 253 ms within 100 seconds.
Raw wall times of two runs are then not comparable, whatever the run
length. The reference loop is Python string, regex, dict and float work of
the kinds bioqa does: tokenizing and suffix stripping of a small fixed
text, BM25 over its postings, a breadth-first graph search, and BM25 over
a fixed postings table of about 4 MB. The table is larger than a core's
own cache, as bioqa's index is, because on a shared machine work with a
large working set slows less than cache-resident work: with the table in
the loop, its time tracks the swings of search, index loads and index
builds, and not only those of text analysis. The table is held for the
whole run and so counts in peak_rss_mb, the same in every run.

Every time the benchmark reports is therefore wall time * NOMINAL_S /
(median of the reference times taken nearest to it): what the operation
would have taken on this machine had the reference loop taken NOMINAL_S. The loop and
its text are defined here and share no code or data with bioqa or with
the input generator, so no change to either moves it. A change to the loop
itself changes the time unit; FINGERPRINT, printed with every result,
names the loop, so two results with different fingerprints are not
comparable. Raw wall-time medians are reported beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import hashlib
import inspect
import math
import re
import statistics
import time

NOMINAL_S = 0.0075    # reference-loop time that calibrated times are scaled to
EVERY_S = 0.2         # a reference time is at most this old when used
WINDOW = 7            # reference times whose median scales a measurement

_SYLLABLES = ["ka", "lo", "mi", "ne", "pu", "ra", "si", "to", "vu", "ze", "chi", "gre", "pha", "sto", "tri"]
_SUFFIXES = ["", "", "ing", "ed", "es", "s", "ation", "ly", "ic"]
_WORD_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")


def _lcg(seed: int):
    """A linear congruential generator: the same numbers on every Python."""
    state = seed
    while True:
        state = (state * 1103515245 + 12345) % 2**31
        yield state


def _reference_text(sentences: int = 60, words: int = 14) -> list[str]:
    """A fixed text of pseudo-words, numbers and punctuation."""
    draws = _lcg(12345)

    def draw(n: int) -> int:
        return next(draws) % n

    out = []
    for _ in range(sentences):
        tokens = []
        for _ in range(words):
            word = "".join(_SYLLABLES[draw(len(_SYLLABLES))] for _ in range(1 + draw(3)))
            word += _SUFFIXES[draw(len(_SUFFIXES))]
            tokens.append(word.capitalize() if draw(6) == 0 else word)
        out.append(" ".join(tokens) + (", " if draw(4) == 0 else " ") + str(draw(100)) + ".")
    return out


def _reference_graph(nodes: int = 400, edges: int = 3) -> dict[int, list[int]]:
    """A fixed sparse undirected graph."""
    draws = _lcg(777)
    graph: dict[int, list[int]] = {n: [] for n in range(nodes)}
    for n in range(1, nodes):
        for _ in range(edges):
            m = next(draws) % n
            graph[n].append(m)
            graph[m].append(n)
    return graph


def _reference_postings(terms: int = 2000, docs: int = 3000, queries: int = 40):
    """A fixed postings table (term -> {doc: tf}), document lengths and
    four-term queries over it."""
    draws = _lcg(99)
    table: dict[str, dict[int, int]] = {}
    for term in range(terms):
        row = {}
        for _ in range(1 + next(draws) % 60):
            row[next(draws) % docs] = 1 + next(draws) % 4
        table[f"t{term}"] = row
    lengths = [20 + next(draws) % 200 for _ in range(docs)]
    asked = [[f"t{next(draws) % terms}" for _ in range(4)] for _ in range(queries)]
    return table, lengths, asked


_TEXT = _reference_text()
_GRAPH = _reference_graph()
_POSTINGS = _reference_postings()


def _bm25_top(postings: dict[str, dict[int, int]], lengths: list[int], terms: list[str]) -> float:
    """Sum of the ten best BM25 scores of the documents holding any term."""
    avg = sum(lengths) / len(lengths)
    scores: dict[int, float] = {}
    for term in terms:
        row = postings[term]
        idf = math.log(1.0 + (len(lengths) - len(row) + 0.5) / (len(row) + 0.5))
        for doc, tf in row.items():
            norm = tf + 1.2 * (0.25 + 0.75 * lengths[doc] / avg)
            scores[doc] = scores.get(doc, 0.0) + idf * tf * 2.2 / norm
    return sum(sorted(scores.values(), reverse=True)[:10])


def _reference_work(text: list[str], graph: dict[int, list[int]], postings) -> float:
    """Work of the kinds bioqa does: tokenize and strip suffixes, build
    postings and score them with BM25, search a graph breadth first, and
    score queries with BM25 over the large fixed table."""
    index: dict[str, dict[int, int]] = {}
    lengths = []
    for doc, sentence in enumerate(text):
        tokens = [t.lower() for t in _WORD_RE.findall(sentence) if t.isalnum()]
        for token in tokens:
            for suffix in ("ation", "ing", "ed", "es", "ly", "s"):
                if token.endswith(suffix) and len(token) > len(suffix) + 2:
                    token = token[: -len(suffix)]
                    break
            row = index.setdefault(token, {})
            row[doc] = row.get(doc, 0) + 1
        lengths.append(len(tokens))
    terms = sorted(index)
    total = sum(_bm25_top(index, lengths, terms[i : i + 2]) for i in range(0, len(terms) - 1, 2))
    for source in range(0, len(graph), 40):
        depth = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                for other in graph[node]:
                    if other not in depth:
                        depth[other] = depth[node] + 1
                        following.append(other)
            frontier = following
        total += sum(depth.values())
    table, table_lengths, asked = postings
    return total + sum(_bm25_top(table, table_lengths, terms) for terms in asked)


FINGERPRINT = hashlib.sha256(
    (inspect.getsource(_reference_work) + inspect.getsource(_bm25_top)
     + "\n".join(_TEXT) + repr(_GRAPH) + repr(_POSTINGS)).encode("utf-8")
).hexdigest()[:16]


class Clock:
    """Reference times with the moment each was taken. A measurement is
    calibrated after the run by the WINDOW reference times nearest to its
    midpoint, taken before and after it alike, so a change of machine speed
    is not seen late."""

    def __init__(self):
        self.references: list[float] = []
        self.stamps: list[float] = []   # midpoints, in the order taken
        self._last = float("-inf")
        for _ in range(WINDOW):
            self.calibrate()

    def calibrate(self) -> None:
        """Time one reference loop; the work is identical on every call."""
        started = time.perf_counter()
        _reference_work(_TEXT, _GRAPH, _POSTINGS)
        self._last = time.perf_counter()
        self.references.append(self._last - started)
        self.stamps.append((started + self._last) / 2)

    def tick(self) -> None:
        """Run the reference loop if the last one is older than EVERY_S."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.calibrate()

    def after(self, seconds: float) -> None:
        """Reference times for an operation that has just ended. One that
        took longer than EVERY_S gets a majority of its window taken right
        after it, beside the ones taken before it."""
        if seconds < EVERY_S:
            self.tick()
        else:
            self.close()

    def close(self) -> None:
        """Reference times after the last measurement, so that it too has
        some on both sides."""
        for _ in range(WINDOW // 2 + 1):
            self.calibrate()

    def calibrated(self, seconds: float, at: float) -> float:
        """seconds of wall time, measured around perf_counter time `at`,
        scaled by the median of the WINDOW reference times nearest to it."""
        i = bisect.bisect_left(self.stamps, at)
        lo = max(0, min(i - WINDOW // 2, len(self.stamps) - WINDOW))
        return seconds * NOMINAL_S / statistics.median(self.references[lo : lo + WINDOW])
