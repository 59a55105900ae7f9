"""Outside-in tracing of afg's public functions.

The program is not instrumented. Instead each traced function is replaced,
in every ``afg`` module that binds it, by a wrapper that records a span
(name, parent span, start, end) in memory. ``structure.classify_sentence``
and ``nn.classify_sentence`` are one function bound twice, so both names
get the same wrapper and the span is named after the defining module.

A span's self time is its duration minus the durations of its direct
children, so the self times of one command's spans add up exactly to the
root span.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter_ns

# Public functions on the grade and train paths, by defining module.
TRACED = (
    ("cli", "main"),
    ("nn", "classify_sentence"),
    ("nn", "predict_score"),
    ("nn", "batch_loss_and_grads"),
    ("nn", "train"),
    ("nn", "load_model_file"),
    ("nn", "save_model_file"),
    ("textproc", "tokenize"),
    ("textproc", "segment_sentences"),
    ("textproc", "build_vocab"),
    ("textproc", "term_vector"),
    ("textproc", "cosine_similarity"),
    ("ingest", "load_submissions"),
    ("ingest", "load_answer_keys"),
    ("ingest", "parse_rct"),
    ("ingest", "split"),
    ("scoring", "mark_submission"),
    ("scoring", "score_reference"),
    ("scoring", "score_numeric"),
    ("structure", "classify_abstract"),
    ("feedback", "build_report"),
    ("feedback", "render_report"),
)
ROOT = "cli.main"


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every afg module attribute bound to ``original`` at ``replacement``.

    Returns the undo list for :func:`restore`.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "afg" or name.startswith("afg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class FirstCall:
    """Records when a function is first called, without opening a span."""

    def __init__(self, module, name: str):
        self.at_ns: int | None = None
        fn = getattr(module, name)

        def probe(*args, **kwargs):
            if self.at_ns is None:
                self.at_ns = perf_counter_ns()
            return fn(*args, **kwargs)

        self._undo = rebind(fn, probe)

    def remove(self) -> None:
        restore(self._undo)


@dataclass
class Counters:
    tokens: int = 0
    unk_tokens: int = 0
    comments: int = 0


@dataclass
class Trace:
    """Spans of one command: parallel lists indexed by span number."""

    names: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)

    def self_ns(self) -> list[int]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def by_name(self) -> dict[str, tuple[int, int]]:
        """name -> (total self ns, calls)."""
        out: dict[str, tuple[int, int]] = {}
        for name, own in zip(self.names, self.self_ns()):
            total, calls = out.get(name, (0, 0))
            out[name] = (total + own, calls + 1)
        return out

    def durations_ns(self, name: str) -> list[int]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def root_ns(self) -> int:
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if len(roots) != 1 or self.names[roots[0]] != ROOT:
            raise ValueError(f"expected one {ROOT} root span, found {len(roots)}")
        return self.ends[roots[0]] - self.starts[roots[0]]

    def to_json(self) -> dict:
        return {"names": self.names, "parents": self.parents,
                "start_ns": self.starts, "end_ns": self.ends}


class Tracer:
    """Wraps the TRACED functions for the life of one command."""

    def __init__(self, modules: dict[str, object]):
        self.trace = Trace()
        self._stack: list[int] = []
        self._undo = []
        self.entry = None
        for mod_name, fn_name in TRACED:
            fn = getattr(modules[mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(name, fn)
            if name == ROOT:
                self.entry = wrapper
            self._undo += rebind(fn, wrapper)

    def _wrap(self, name: str, fn):
        trace, stack = self.trace, self._stack
        counters = trace.counters

        def wrapper(*args, **kwargs):
            index = len(trace.names)
            trace.names.append(name)
            trace.parents.append(stack[-1] if stack else -1)
            trace.ends.append(0)
            stack.append(index)
            trace.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                trace.ends[index] = perf_counter_ns()
                stack.pop()
            if name == "textproc.tokenize":
                vocab = args[1] if len(args) > 1 else kwargs["vocab"]
                counters.tokens += len(result.token_ids)
                counters.unk_tokens += result.token_ids.count(vocab.unk_id)
            elif name == "feedback.build_report":
                counters.comments += len(result.question_comments) + len(result.abstract_comments)
            return result

        return wrapper

    def remove(self) -> None:
        restore(self._undo)


def percentile(values: list[int], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]
