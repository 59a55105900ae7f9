"""Feedback generation: fixed comments, the structure rule engine, reports.

Question feedback comes from a pre-prepared comment table keyed by
(question key, verdict) over ``scoring.QUESTIONS``. Abstract feedback comes
from a small declarative rule set over the sentence-label distribution and
order; ``DEFAULT_RULES`` are calibrated so that a strongly background-heavy
abstract draws per-class suggestions while an observation-dominated one draws
the balance nudge.
Each rule is evaluated once over a cohort, as one boolean column over its
(N, 3) share matrix; each distinct row of fired rules becomes comments once.
Reports render to terminal, HTML, or markdown with one highlight per
sentence (yellow background, green technique, pink observation).
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, dataclass, fields
from html import escape
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .scoring import QUESTIONS, Mark, MarkSheet, Question, Verdict, fmt_number
from .structure import LABEL_NAMES, LABELS, Label3, LabeledAbstract, LabeledCohort
from .textproc import is_number, is_text, read_json_records


_INCORRECT = Verdict.INCORRECT  # bound once: reading a member off its Enum class is slow

COMMENT_TABLE: dict[tuple[str, Verdict], str] = {
    ("q1_impact", Verdict.FULLY_CORRECT):
        "That is the correct Impact Factor, Well done!",
    ("q1_impact", Verdict.PARTIALLY_CORRECT):
        "Your Impact Factor is close but not quite right, double-check the "
        "latest value for the journal.",
    ("q1_impact", Verdict.INCORRECT):
        "That is not the correct Impact Factor",
    ("q2_rsc", Verdict.FULLY_CORRECT):
        "Your Royal Society of Chemistry reference is formatted correctly, Well done!",
    ("q2_rsc", Verdict.PARTIALLY_CORRECT):
        "Your Royal Society of Chemistry reference is nearly right, check the "
        "formatting details against the style guide.",
    ("q2_rsc", Verdict.INCORRECT):
        "Make sure your Royal Society of Chemistry reference has exactly the "
        "correct format",
    ("q3_acs", Verdict.FULLY_CORRECT):
        "Your American Chemical Society reference is formatted correctly, Well done!",
    ("q3_acs", Verdict.PARTIALLY_CORRECT):
        "Your American Chemical Society reference is nearly right, check the "
        "formatting details against the style guide.",
    ("q3_acs", Verdict.INCORRECT):
        "Make sure your American Chemical Society reference has exactly the "
        "correct format",
    ("q4_cited", Verdict.FULLY_CORRECT):
        "That is the correct number of citations, Well done!",
    ("q4_cited", Verdict.PARTIALLY_CORRECT):
        "Your citation count is close, the database may have been updated "
        "since you looked it up.",
    ("q4_cited", Verdict.INCORRECT):
        "That is not the correct number of citations",
}


def _answer_clause(mark: Mark) -> str:
    """The key's value and the answer given, for a wrong numeric answer; else ""."""
    if mark.verdict is not _INCORRECT or mark.given is None or mark.correct is None:
        return ""
    return f", the correct answer is {fmt_number(mark.correct)}, you gave {fmt_number(mark.given)}"


def fixed_comment(question: Question, mark: Mark) -> str:
    """Look up the cognitivist comment; wrong numeric answers get the values."""
    return COMMENT_TABLE[(question.key, mark.verdict)] + _answer_clause(mark)


# ---------------------------------------------------------------------------
# Rule engine
# ---------------------------------------------------------------------------

# Each rule class that compares a number, and that number from an (N, 3) share matrix.
_STATISTICS = {
    **{label.name.lower(): lambda shares, k=label: shares[:, k] for label in Label3},
    "spread": lambda shares: shares.max(axis=1) - shares.min(axis=1),
}
_RULE_CLASSES = (*_STATISTICS, "order", "fallback")
_COMPARATORS = {
    "lt": np.less, "le": np.less_equal, "ge": np.greater_equal, "gt": np.greater,
    "within": lambda value, bounds: (bounds[0] < value) & (value <= bounds[1]),
}


def _is_class_name(value) -> bool:
    return type(value) is str and value.upper() in Label3.__members__


# Each guard condition key, what its value must be, the test of the value,
# and whether the condition holds for each row of the shares. The dominant
# class is the first of the largest shares.
_GUARD_CONDITIONS = {
    "dominant": ("a class name", _is_class_name,
                 lambda shares, v: shares.argmax(axis=1) == Label3[v.upper()]),
    "share_lt": ("a [class name, number] pair", lambda v: type(v) in (list, tuple)
                 and len(v) == 2 and _is_class_name(v[0]) and is_number(v[1]),
                 lambda shares, v: shares[:, Label3[v[0].upper()]] < v[1]),
    "min_share_ge": ("a finite number", is_number, lambda shares, v: shares.min(axis=1) >= v),
}


@dataclass(frozen=True)
class FeedbackRule:
    """One declarative feedback trigger, checked when it is made; also a rule-file entry.

    A rule file is a JSON array of objects keyed by these fields, ``class`` for
    ``cls``. ``id`` (string) is unique. ``class`` (string) picks the statistic: a
    class name compares that class's share, "spread" compares max share minus min
    share, "order" checks that the labels never step back along background ->
    technique -> observation, and "fallback" fires
    only when nothing else did. ``comparator`` (string or null) is lt, le, ge, gt
    or within; only order and fallback rules may leave it and ``threshold`` null.
    ``threshold`` is a finite number, a [lo, hi] array of them with lo < hi for
    within, or null.
    ``template`` (string) is the comment. ``priority`` (integer), then ``id``, order
    fired rules. ``guard`` (array or null) is an OR-list of AND-condition objects
    with keys "dominant" (class name), "share_lt" ([class name, number]) and
    "min_share_ge" (number). The nullable keys may be left out; any other missing
    key, or an unknown one, is a ConfigError naming the entry's index and the key.
    A rule that breaks any other of this is a ConfigError naming its id.
    """

    id: str
    cls: str
    comparator: str | None
    threshold: float | tuple[float, float] | None
    template: str
    priority: int
    guard: tuple[dict, ...] | None = None

    def __post_init__(self):
        problem = _rule_problem(self)
        if problem:
            raise ConfigError(f"rule {self.id!r:.40}: {problem}")

    def fires(self, shares: np.ndarray, in_order: np.ndarray) -> np.ndarray:
        """Per row of an (N, 3) share matrix and its (N,) order flags, whether the rule
        fires. A fallback rule never does: the engine applies it."""
        if self.cls == "fallback":
            return np.zeros(len(shares), dtype=bool)
        holds = in_order if self.cls == "order" else _COMPARATORS[self.comparator](
            _STATISTICS[self.cls](shares), self.threshold)
        return holds & _guard_ok(self.guard, shares)


def _rule_problem(rule: FeedbackRule) -> str | None:
    """What is wrong with ``rule`` (see FeedbackRule), or None."""
    for name, kind, what in (("id", str, "a string"), ("template", str, "a string"),
                             ("priority", int, "an integer")):
        if type(getattr(rule, name)) is not kind:
            return f"{name} {getattr(rule, name)!r:.40} is not {what}"
    if not is_text(rule.template):
        return f"template {rule.template!r:.40} holds a lone surrogate, which UTF-8 cannot encode"
    if rule.cls not in _RULE_CLASSES:
        return f"unknown class {rule.cls!r:.40} (known: {', '.join(_RULE_CLASSES)})"
    if rule.comparator is None:
        if rule.cls in _STATISTICS:
            return f"a {rule.cls} rule needs a comparator"
        if rule.threshold is not None:
            return "a threshold needs a comparator"
    elif type(rule.comparator) is not str or rule.comparator not in _COMPARATORS:
        return f"unknown comparator {rule.comparator!r:.40} (known: {', '.join(_COMPARATORS)})"
    elif rule.comparator == "within":
        if not (type(rule.threshold) in (list, tuple) and len(rule.threshold) == 2
                and all(map(is_number, rule.threshold))):
            return f"threshold {rule.threshold!r:.40} is not a [lo, hi] pair of finite numbers"
        if rule.threshold[0] >= rule.threshold[1]:
            return f"within range {list(rule.threshold)} is empty"
    elif not is_number(rule.threshold):
        return f"threshold {rule.threshold!r:.40} is not a finite number"
    if rule.guard is None:
        return None
    if type(rule.guard) not in (list, tuple) or not all(type(alt) is dict for alt in rule.guard):
        return f"guard {rule.guard!r:.40} is not a list of objects"
    for alternative in rule.guard:
        for key, value in alternative.items():
            if key not in _GUARD_CONDITIONS:
                return (f"unknown guard condition {key!r:.40} "
                        f"(known: {', '.join(_GUARD_CONDITIONS)})")
            what, test, _ = _GUARD_CONDITIONS[key]
            if not test(value):
                return f"guard {key} {value!r:.40} is not {what}"
    return None


def _guard_ok(guard, shares: np.ndarray):
    """Per row of ``shares``, whether all conditions of some alternative hold; no guard: True."""
    ok = not guard
    for alternative in guard or ():
        holds = True
        for key, value in alternative.items():
            holds = holds & _GUARD_CONDITIONS[key][2](shares, value)
        ok = ok | holds
    return ok


_FALLBACK_COMMENT = "The structure of the abstract covers the main aspects of the paper."

DEFAULT_RULES = (
    FeedbackRule(
        id="balance_suggest", cls="spread", comparator="gt", threshold=0.40,
        template=(
            "A more balanced discussion of the background of the paper, the "
            "techniques of the paper and the observations and conclusions the "
            "paper made might improve your work."
        ),
        priority=10,
        guard=(
            {"dominant": "observation"},
            {"share_lt": ["background", 0.40]},
        ),
    ),
    FeedbackRule(
        id="balance_commend", cls="spread", comparator="le", threshold=0.40,
        template=(
            "The abstract balances its discussion of the background, the "
            "techniques and the observations of the paper well."
        ),
        priority=11,
        guard=({"min_share_ge": 0.15},),
    ),
    FeedbackRule(
        id="background_praise", cls="background", comparator="ge", threshold=0.40,
        template="Your discussion of the paper’s background has a good amount of detail.",
        priority=20,
    ),
    FeedbackRule(
        id="background_expand", cls="background", comparator="lt", threshold=0.15,
        template=(
            "It might be worth expanding the discussion of the background "
            "and motivation of the paper."
        ),
        priority=21,
    ),
    FeedbackRule(
        id="technique_expand_strong", cls="technique", comparator="le", threshold=0.15,
        template="It might be worth outlining the methods of the paper in greater detail.",
        priority=30,
    ),
    FeedbackRule(
        id="technique_expand", cls="technique", comparator="within",
        threshold=(0.15, 0.20),
        template=(
            "It might be useful to outline the Techniques the model uses in "
            "a bit more detail."
        ),
        priority=31,
    ),
    FeedbackRule(
        id="observation_clarity", cls="observation", comparator="le", threshold=0.20,
        template=(
            "It may be worth making sure that the discussion of the "
            "conclusions of the paper are clearer."
        ),
        priority=40,
    ),
    FeedbackRule(
        id="logical_order", cls="order", comparator=None, threshold=None,
        template=(
            "The abstract contains discussion of each aspect of the paper "
            "in a logical order."
        ),
        priority=50,
    ),
    FeedbackRule(
        id="fallback", cls="fallback", comparator=None, threshold=None,
        template=_FALLBACK_COMMENT,
        priority=90,
    ),
)


# Each rule-file key and its FeedbackRule field; the file says "class" for ``cls``.
_RULE_KEYS = {"class" if f.name == "cls" else f.name: f for f in fields(FeedbackRule)}


def load_rules(path: str | Path) -> list[FeedbackRule]:
    """The rules in a rule file (see FeedbackRule), with JSON arrays as tuples."""
    rules = []
    for index, entry in enumerate(read_json_records(path, "rule config", ConfigError)):
        problems = [*(f"unknown key {key!r:.40}" for key in entry if key not in _RULE_KEYS),
                    *(f"missing key {key!r}" for key, f in _RULE_KEYS.items()
                      if key not in entry and "None" not in f.type)]
        if problems:
            raise ConfigError(f"rule entry #{index}: {problems[0]}")
        values = {f.name: entry.get(key) for key, f in _RULE_KEYS.items()}
        rules.append(FeedbackRule(**{name: tuple(value) if type(value) is list else value
                                     for name, value in values.items()}))
    ids = [r.id for r in rules]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate rule ids in rule config")
    return rules


def rules_to_json(rules: Sequence[FeedbackRule]) -> str:
    """The rule file of ``rules``; a field that has a default is left out while empty."""
    return json.dumps([{key: getattr(rule, f.name) for key, f in _RULE_KEYS.items()
                        if getattr(rule, f.name) or f.default is MISSING} for rule in rules],
                      indent=2)


def cohort_feedback(shares: np.ndarray, in_order: np.ndarray,
                    rules: Sequence[FeedbackRule] = DEFAULT_RULES) -> list[tuple[str, ...]]:
    """Each row's comments: the templates of the rules that fire on it, by priority then
    id; if none does, of its fallback rules, or the built-in fallback comment."""
    rules = sorted(rules, key=lambda r: (r.priority, r.id))
    fired = np.array([r.fires(shares, in_order) for r in rules], bool).reshape(-1, len(shares))
    fallback = tuple(r.template for r in rules if r.cls == "fallback") or (_FALLBACK_COMMENT,)
    patterns, rows = np.unique(fired.T, axis=0, return_inverse=True)
    comments = [tuple(r.template for r, f in zip(rules, pattern) if f) or fallback
                for pattern in patterns.tolist()]
    return [comments[row] for row in rows.tolist()]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackReport:
    submission_id: str
    question_comments: tuple[str, ...]
    abstract_comments: tuple[str, ...]
    labeled_abstract: LabeledAbstract
    marks: MarkSheet

    def to_json_dict(self) -> dict:
        return {
            "submission_id": self.submission_id,
            "marks": self.marks.to_json_dict(),
            "question_comments": list(self.question_comments),
            "abstract_comments": list(self.abstract_comments),
            "labeled_abstract": self.labeled_abstract.to_json_list(),
        }


def build_reports(submission_ids: Sequence[str], sheets: Sequence[MarkSheet],
                  labeled: LabeledCohort,
                  rules: Sequence[FeedbackRule] = DEFAULT_RULES) -> list[FeedbackReport]:
    """Each submission's FeedbackReport, from its id, its mark sheet and its row of ``labeled``."""
    comments = cohort_feedback(labeled.shares(), labeled.in_order, rules)
    return [FeedbackReport(sid, tuple(map(fixed_comment, QUESTIONS, marks.marks)),
                           abstract_comments, abstract, marks)
            for sid, marks, abstract_comments, abstract
            in zip(submission_ids, sheets, comments, labeled.abstracts)]


def build_report(submission_id: str, marks: MarkSheet, labeled: LabeledAbstract,
                 rules: Sequence[FeedbackRule] = DEFAULT_RULES) -> FeedbackReport:
    return build_reports([submission_id], [marks], LabeledCohort.of([labeled]), rules)[0]


# Each label's highlight: its tag in plain text and markdown, its HTML and terminal colours.
LABEL_STYLES = {
    Label3.BACKGROUND: {"tag": "[B]", "html": "#FFFF00", "ansi": "\x1b[43;30m"},
    Label3.TECHNIQUE: {"tag": "[T]", "html": "#90EE90", "ansi": "\x1b[42;30m"},
    Label3.OBSERVATION: {"tag": "[O]", "html": "#FFC0CB", "ansi": "\x1b[45;30m"},
}


def _marks_value(value: float) -> str:
    return "1 mark" if value == 1 else f"{fmt_number(value)} marks"


class ReportFormat(NamedTuple):
    """A report format: its file extension, and how it draws each part of a report.

    ``title``, ``heading``, ``items`` and ``labelled`` give the lines of the title, a section
    heading, a list of texts, and the sentences and legend, each marked by ``highlight(text,
    label, color)``. ``end`` closes the document.
    """

    extension: str
    title: Callable[[str], list[str]]
    heading: Callable[[str], list[str]]
    items: Callable[[Sequence[str]], list[str]]
    highlight: Callable[[str, Label3, bool], str]
    labelled: Callable[[list[str], list[str]], list[str]]
    end: tuple[str, ...] = ()


REPORT_FORMATS = {
    "terminal": ReportFormat(
        "txt",
        title=lambda text: [text, "=" * len(text)],
        heading=lambda text: ["", text, "-" * len(text)],
        items=list,
        highlight=lambda text, label, color: (f"{LABEL_STYLES[label]['ansi']}{text}\x1b[0m"
                                              if color else f"{LABEL_STYLES[label]['tag']} {text}"),
        labelled=lambda marked, legend: [" ".join(marked), "", "Legend: " + " ".join(legend)],
    ),
    "html": ReportFormat(
        "html",
        title=lambda text: ["<!DOCTYPE html>", '<html><head><meta charset="utf-8">',
                            f"<title>{escape(text)}</title></head><body>",
                            f"<h1>{escape(text)}</h1>"],
        heading=lambda text: [f"<h2>{escape(text)}</h2>"],
        items=lambda texts: ["<ul>" + "".join(f"<li>{escape(t)}</li>" for t in texts) + "</ul>"],
        highlight=lambda text, label, color: (
            f'<span style="background-color:{LABEL_STYLES[label]["html"]}">{escape(text)}</span>'),
        labelled=lambda marked, legend: [f"<p>{' '.join(marked)}</p>",
                                         f"<p>{' '.join(legend)}</p>"],
        end=("</body></html>",),
    ),
    "markdown": ReportFormat(
        "md",
        title=lambda text: [f"# {text}"],
        heading=lambda text: ["", f"## {text}", ""],
        items=lambda texts: [f"- {t}" for t in texts],
        highlight=lambda text, label, color: f"**{LABEL_STYLES[label]['tag']}** {text}",
        labelled=lambda marked, legend: [*(f"- {s}" for s in marked), "",
                                         "Legend: " + ", ".join(legend)],
    ),
}


@functools.cache
def _skeleton(format: str, color: bool) -> tuple:
    """What every report in ``format`` shares, built once per process: the text of each
    section's heading, in order, and the legend's marked label names."""
    draw = REPORT_FORMATS[format]
    return (*("\n".join(draw.heading(heading)) for heading in
              ("Marks", "Question feedback", "Abstract structure", "Abstract feedback")),
            tuple(draw.highlight(LABEL_NAMES[label], label, color) for label in LABELS))


def render_report(report: FeedbackReport, format: str = "terminal", color: bool = True) -> str:
    """Render one report's four sections in order, in one of ``REPORT_FORMATS``; every
    sentence gets exactly one highlight."""
    draw, marks = REPORT_FORMATS[format], report.marks
    marks_head, questions_head, structure_head, feedback_head, legend = _skeleton(format, color)
    mark_lines = [f"{q.label}: {_marks_value(mark.value)}{_answer_clause(mark)}"
                  for q, mark in zip(QUESTIONS, marks.marks)]
    marked = [draw.highlight(text, label, color)
              for text, label, _ in report.labeled_abstract.sentences]
    return "\n".join([
        *draw.title(f"Feedback for submission {report.submission_id}"),
        marks_head, *draw.items([*mark_lines, f"Abstract: {_marks_value(marks.abstract_mark)}",
                                 f"Total: {fmt_number(marks.total)}/10"]),
        questions_head, *draw.items(report.question_comments),
        structure_head, *draw.labelled(marked, legend),
        feedback_head, *draw.items(report.abstract_comments), *draw.end,
    ]) + "\n"
