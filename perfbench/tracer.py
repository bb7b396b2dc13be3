"""Spans and call counts recorded from outside the program.

The tracer replaces functions in the namespaces where the pipeline looks
them up (``bioqa.answer.search`` and so on) with wrappers. Stage functions
get a span each: name, start, end, parent span and question id. Text
primitives are only counted, because timing each of hundreds of ``stem``
calls per question would distort the result. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

QUESTION_SPAN = "answer.pipeline"
BUILD_SPAN = "retrieval.build_index"

# Stage functions, wrapped where answer_pipeline looks them up.
STAGES = [
    ("bioqa.answer", "classify_type", "qclass.classify"),
    ("bioqa.answer", "formulate_query", "retrieval.formulate"),
    ("bioqa.answer", "search", "retrieval.search"),
    ("bioqa.answer", "rerank_documents", "retrieval.rerank"),
    ("bioqa.answer", "extract_passages", "retrieval.split"),
    ("bioqa.answer", "rank_passages", "retrieval.passages"),
    ("bioqa.answer", "ideal_answer", "answer.ideal"),
    ("bioqa.answer", "answer_yesno", "answer.exact"),
    ("bioqa.answer", "answer_factoid", "answer.exact"),
    ("bioqa.answer", "answer_list", "answer.exact"),
]
# ideal_answer ranks its passages a second time through the same binding;
# that nested call gets its own name.
NESTED_NAMES = {("answer.ideal", "retrieval.passages"): "answer.ideal.rerank"}

# Counted primitives: the defining module and attribute, then every other
# binding through which bioqa code calls the function.
COUNTED = {
    "textproc.tokenize": [
        ("bioqa.textproc", "tokenize"), ("bioqa.conceptlex", "tokenize"),
        ("bioqa.retrieval", "tokenize"), ("bioqa.qclass", "tokenize"), ("bioqa.answer", "tokenize"),
    ],
    "textproc.stem": [
        ("bioqa.textproc", "stem"), ("bioqa.retrieval", "stem"), ("bioqa.qclass", "stem"),
        ("bioqa.evalkit", "porter_stem"),
    ],
    "textproc.split_sentences": [("bioqa.textproc", "split_sentences"), ("bioqa.retrieval", "split_sentences")],
    "conceptlex.recognize": [
        ("bioqa.conceptlex", "recognize"), ("bioqa.retrieval", "recognize"),
        ("bioqa.qclass", "recognize"), ("bioqa.answer", "recognize"),
    ],
    "conceptlex.path_similarity": [("bioqa.conceptlex", "path_similarity")],
    "retrieval.bm25_score": [("bioqa.retrieval", "bm25_score")],
}
# What makes two calls "the same input" for the distinct-share metrics.
DISTINCT_KEY = {
    "textproc.stem": lambda args: args[0],
    "conceptlex.path_similarity": lambda args: (args[0], args[1]),
}


class TraceTargetMissingError(LookupError):
    """A function the tracer wraps no longer exists under its name."""


class UnwrappedBindingError(RuntimeError):
    """A bioqa module calls a counted function through a binding the tracer
    does not wrap, so its calls would go uncounted."""


def _observe_search(obs, args, result):
    obs["search.returned"] += len(result.docs)
    obs["search.relaxed"] += int(result.relaxed)


def _observe_rerank(obs, args, result):
    obs["rerank.titles"] += len(args[1])
    obs["rerank.kept"] += len(result)


def _observe_split(obs, args, result):
    obs["split.passages"] += len(result)


def _observe_passages(obs, args, result):
    obs["passages.scored"] += len(args[1])
    obs["passages.kept"] += len(result)


OBSERVERS = {
    "retrieval.search": _observe_search,
    "retrieval.rerank": _observe_rerank,
    "retrieval.split": _observe_split,
    "retrieval.passages": _observe_passages,
}


def _lookup(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        raise TraceTargetMissingError(f"module {module_name} no longer exists") from None
    if not hasattr(module, attr):
        raise TraceTargetMissingError(f"{module_name}.{attr} no longer exists")
    return module, getattr(module, attr)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or None, question id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid = None
        self.calls: Counter = Counter()      # (root span, innermost span, primitive)
        self.chars: Counter = Counter()      # (root span, primitive) -> characters passed
        self.distinct: dict[tuple, set] = {}  # (root span, primitive) -> distinct inputs
        self.observed: Counter = Counter()
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.qid])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, qid=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span opened by the benchmark."""
        self.qid = qid
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)
            self.qid = None

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every stage and counted binding; refuse a missed binding."""
        stages = [(*_lookup(module_name, attr), attr, name) for module_name, attr, name in STAGES]
        originals = {}
        for primitive, bindings in COUNTED.items():
            found = [_lookup(module_name, attr)[1] for module_name, attr in bindings]
            originals[primitive] = found[0]
            for (module_name, attr), fn in zip(bindings, found):
                if fn is not found[0]:
                    raise TraceTargetMissingError(f"{module_name}.{attr} is no longer bioqa.{primitive}")
        for module, fn, attr, name in stages:
            self._replace(module, attr, self._stage_wrapper(fn, name))
        for primitive, bindings in COUNTED.items():
            wrapper = self._count_wrapper(originals[primitive], primitive)
            for module_name, attr in bindings:
                self._replace(sys.modules[module_name], attr, wrapper)
        # Any binding still holding an original is one COUNTED does not list.
        unwrapped = {id(fn): primitive for primitive, fn in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "bioqa" and not module_name.startswith("bioqa."):
                continue
            for attr, value in vars(module).items():
                if id(value) in unwrapped:
                    self.uninstall()
                    raise UnwrappedBindingError(
                        f"{module_name}.{attr} binds {unwrapped[id(value)]} but is not in "
                        "tracer.COUNTED; its calls would go uncounted"
                    )

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _replace(self, module, attr, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _stage_wrapper(self, fn, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.spans[self._stack[-1]][0] if self._stack else None
            span_name = NESTED_NAMES.get((parent, name), name)
            index = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None and span_name == name:
                observe(self.observed, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, primitive):
        distinct_key = DISTINCT_KEY.get(primitive)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                root = spans[stack[0]][0]
                self.calls[root, spans[stack[-1]][0], primitive] += 1
                if primitive == "conceptlex.recognize":
                    self.chars[root, primitive] += len(args[0])
                if distinct_key is not None:
                    self.distinct.setdefault((root, primitive), set()).add(distinct_key(args))
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover, per span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def root_of(self, index: int) -> str:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return self.spans[index][0]

    def primitive_calls(self, root: str, primitive: str, stage: str | None = None) -> int:
        return sum(
            n for (r, s, p), n in self.calls.items()
            if r == root and p == primitive and (stage is None or s == stage)
        )

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "question": qid}
            for name, start, end, parent, qid in self.spans
        ]
