"""Feedback generation: fixed comments, the structure rule engine, reports.

Question feedback comes from a pre-prepared comment table keyed by
(question, verdict). Abstract feedback comes from a small declarative
rule set over the sentence-label distribution and order; the defaults are
calibrated so that a strongly background-heavy abstract draws per-class
suggestions while an observation-dominated one draws the balance nudge.
Reports render to terminal, HTML, or markdown with one highlight per
sentence (yellow background, green technique, pink observation).
"""

from __future__ import annotations

import html as html_module
import json
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import ConfigError
from .scoring import Mark, MarkSheet, Verdict, fmt_number
from .structure import ClassDistribution, Label3, LabeledAbstract, distribution
from .textproc import read_json_records


class Question(str, Enum):
    IMPACT = "impact"
    RSC = "rsc"
    ACS = "acs"
    CITED = "cited"


COMMENT_TABLE: dict[tuple[Question, Verdict], str] = {
    (Question.IMPACT, Verdict.FULLY_CORRECT):
        "That is the correct Impact Factor, Well done!",
    (Question.IMPACT, Verdict.PARTIALLY_CORRECT):
        "Your Impact Factor is close but not quite right, double-check the "
        "latest value for the journal.",
    (Question.IMPACT, Verdict.INCORRECT):
        "That is not the correct Impact Factor",
    (Question.RSC, Verdict.FULLY_CORRECT):
        "Your Royal Society of Chemistry reference is formatted correctly, Well done!",
    (Question.RSC, Verdict.PARTIALLY_CORRECT):
        "Your Royal Society of Chemistry reference is nearly right, check the "
        "formatting details against the style guide.",
    (Question.RSC, Verdict.INCORRECT):
        "Make sure your Royal Society of Chemistry reference has exactly the "
        "correct format",
    (Question.ACS, Verdict.FULLY_CORRECT):
        "Your American Chemical Society reference is formatted correctly, Well done!",
    (Question.ACS, Verdict.PARTIALLY_CORRECT):
        "Your American Chemical Society reference is nearly right, check the "
        "formatting details against the style guide.",
    (Question.ACS, Verdict.INCORRECT):
        "Make sure your American Chemical Society reference has exactly the "
        "correct format",
    (Question.CITED, Verdict.FULLY_CORRECT):
        "That is the correct number of citations, Well done!",
    (Question.CITED, Verdict.PARTIALLY_CORRECT):
        "Your citation count is close, the database may have been updated "
        "since you looked it up.",
    (Question.CITED, Verdict.INCORRECT):
        "That is not the correct number of citations",
}


def _answer_clause(mark: Mark) -> str:
    """The key's value and the answer given, for a wrong numeric answer; else ""."""
    if mark.verdict is not Verdict.INCORRECT or mark.given is None or mark.correct is None:
        return ""
    return f", the correct answer is {fmt_number(mark.correct)}, you gave {fmt_number(mark.given)}"


def fixed_comment(question: Question, mark: Mark) -> str:
    """Look up the cognitivist comment; wrong numeric answers get the values."""
    return COMMENT_TABLE[(question, mark.verdict)] + _answer_clause(mark)


# ---------------------------------------------------------------------------
# Rule engine
# ---------------------------------------------------------------------------

_CANONICAL_ORDER = (Label3.BACKGROUND, Label3.TECHNIQUE, Label3.OBSERVATION)

# Each rule class that compares a number, and that number from the shares.
_STATISTICS = {
    **{label.name.lower(): operator.itemgetter(label) for label in Label3},
    "spread": lambda shares: max(shares) - min(shares),
}
_RULE_CLASSES = (*_STATISTICS, "order", "fallback")
_COMPARATORS = {
    "lt": operator.lt, "le": operator.le, "ge": operator.ge, "gt": operator.gt,
    "within": lambda value, bounds: bounds[0] < value <= bounds[1],
}


def _is_number(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_class_name(value) -> bool:
    return type(value) is str and value.upper() in Label3.__members__


# Each guard condition key, what its value must be, the test of the value,
# and whether the condition holds for the shares. The dominant class is the
# first of the largest shares.
_GUARD_CONDITIONS = {
    "dominant": ("a class name", _is_class_name,
                 lambda shares, v: shares.index(max(shares)) == Label3[v.upper()]),
    "share_lt": ("a [class name, number] pair", lambda v: type(v) in (list, tuple)
                 and len(v) == 2 and _is_class_name(v[0]) and _is_number(v[1]),
                 lambda shares, v: shares[Label3[v[0].upper()]] < v[1]),
    "min_share_ge": ("a finite number", _is_number, lambda shares, v: min(shares) >= v),
}


@dataclass(frozen=True)
class FeedbackRule:
    """One declarative feedback trigger, checked when it is made.

    ``cls`` picks the statistic: a class name compares that class's share,
    "spread" compares max share minus min share, "order" checks that the
    run-length-compressed label sequence is a subsequence of
    background -> technique -> observation, and "fallback" fires only when
    nothing else did. ``comparator`` is lt, le, ge, gt or within; only
    order and fallback rules may leave it and ``threshold`` None.
    ``threshold`` is a finite number, or a (lo, hi) pair for within.
    ``guard`` is an OR-list of AND-condition dicts with keys "dominant",
    "share_lt" ([class, x]) and "min_share_ge". A rule that breaks any of
    this is a ConfigError naming its id.
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
            raise ConfigError(f"rule {self.id!r}: {problem}")

    def fires(self, dist: ClassDistribution, labels: Sequence[Label3]) -> bool:
        if self.cls == "fallback":
            return False  # engine-level
        if not _guard_ok(self.guard, dist.shares):
            return False
        if self.cls == "order":
            return _is_logical_order(labels)
        return _COMPARATORS[self.comparator](_STATISTICS[self.cls](dist.shares), self.threshold)


def _rule_problem(rule: FeedbackRule) -> str | None:
    """What is wrong with ``rule`` (see FeedbackRule), or None."""
    if type(rule.priority) is not int:
        return f"priority {rule.priority!r:.40} is not an integer"
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
                and all(map(_is_number, rule.threshold))):
            return f"threshold {rule.threshold!r:.40} is not a [lo, hi] pair of finite numbers"
    elif not _is_number(rule.threshold):
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


def _guard_ok(guard, shares: tuple[float, float, float]) -> bool:
    if not guard:
        return True
    for alternative in guard:
        for key, value in alternative.items():
            if not _GUARD_CONDITIONS[key][2](shares, value):
                break
        else:
            return True
    return False


def _is_logical_order(labels: Sequence[Label3]) -> bool:
    compressed = [x for i, x in enumerate(labels) if i == 0 or labels[i - 1] != x]
    pos = 0
    for x in compressed:
        while pos < len(_CANONICAL_ORDER) and _CANONICAL_ORDER[pos] != x:
            pos += 1
        if pos == len(_CANONICAL_ORDER):
            return False
        pos += 1
    return True


_FALLBACK_COMMENT = "The structure of the abstract covers the main aspects of the paper."

_DEFAULT_RULES = (
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


def default_rules() -> list[FeedbackRule]:
    return list(_DEFAULT_RULES)


def load_rules(path: str | Path) -> list[FeedbackRule]:
    rules = []
    for entry in read_json_records(path, "rule config", ConfigError):
        threshold, guard = entry.get("threshold"), entry.get("guard")
        try:
            rule = FeedbackRule(
                id=str(entry["id"]),
                cls=entry["class"],
                comparator=entry.get("comparator"),
                threshold=tuple(threshold) if type(threshold) is list else threshold,
                template=str(entry["template"]),
                priority=entry["priority"],
                guard=(tuple(guard) or None) if type(guard) is list else guard,
            )
        except KeyError as exc:
            raise ConfigError(f"rule entry missing key {exc}") from exc
        rules.append(rule)
    ids = [r.id for r in rules]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate rule ids in rule config")
    return rules


def rules_to_json(rules: Sequence[FeedbackRule]) -> str:
    out = []
    for r in rules:
        entry = {
            "id": r.id,
            "class": r.cls,
            "comparator": r.comparator,
            "threshold": list(r.threshold) if isinstance(r.threshold, tuple) else r.threshold,
            "template": r.template,
            "priority": r.priority,
        }
        if r.guard:
            entry["guard"] = list(r.guard)
        out.append(entry)
    return json.dumps(out, indent=2)


def abstract_feedback(
    dist: ClassDistribution,
    labels: Sequence[Label3],
    rules: Sequence[FeedbackRule] | None = None,
) -> list[str]:
    """Evaluate the rule set; always returns at least one comment."""
    if not labels:
        raise ValueError("need at least one labeled sentence")
    if rules is None:
        rules = _DEFAULT_RULES
    fired = sorted(
        (r for r in rules if r.fires(dist, labels)),
        key=lambda r: (r.priority, r.id),
    )
    if fired:
        return [r.template for r in fired]
    fallbacks = sorted(
        (r for r in rules if r.cls == "fallback"), key=lambda r: (r.priority, r.id)
    )
    return [r.template for r in fallbacks] or [_FALLBACK_COMMENT]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackReport:
    submission_id: str
    question_comments: tuple[str, str, str, str]
    abstract_comments: tuple[str, ...]
    labeled_abstract: LabeledAbstract
    marks: MarkSheet

    def __post_init__(self):
        if not self.abstract_comments:
            raise ValueError("report needs at least one abstract comment")

    def to_json_dict(self) -> dict:
        return {
            "submission_id": self.submission_id,
            "marks": self.marks.to_json_dict(),
            "question_comments": list(self.question_comments),
            "abstract_comments": list(self.abstract_comments),
            "labeled_abstract": self.labeled_abstract.to_json_list(),
        }


def build_report(
    submission_id: str,
    marks: MarkSheet,
    labeled: LabeledAbstract,
    rules: Sequence[FeedbackRule] | None = None,
) -> FeedbackReport:
    comments = tuple(fixed_comment(q, m) for q, m in zip(Question, marks.question_marks()))
    labels = labeled.labels()
    return FeedbackReport(
        submission_id=submission_id,
        question_comments=comments,
        abstract_comments=tuple(abstract_feedback(distribution(labeled), labels, rules)),
        labeled_abstract=labeled,
        marks=marks,
    )


_MARK_LINE_LABELS = (
    "Impact Factor",
    "Reference in RSC format",
    "Reference in ACS format",
    "Number of times Cited",
)

HTML_COLORS = {
    Label3.BACKGROUND: "#FFFF00",
    Label3.TECHNIQUE: "#90EE90",
    Label3.OBSERVATION: "#FFC0CB",
}
_ANSI_BG = {
    Label3.BACKGROUND: "\x1b[43;30m",
    Label3.TECHNIQUE: "\x1b[42;30m",
    Label3.OBSERVATION: "\x1b[45;30m",
}
_ANSI_RESET = "\x1b[0m"
_TAGS = {Label3.BACKGROUND: "[B]", Label3.TECHNIQUE: "[T]", Label3.OBSERVATION: "[O]"}


def _marks_value(value: float) -> str:
    return "1 mark" if value == 1 else f"{fmt_number(value)} marks"


def _mark_lines(marks: MarkSheet) -> list[str]:
    lines = []
    for label, mark in zip(_MARK_LINE_LABELS, marks.question_marks()):
        lines.append(f"{label}: {_marks_value(mark.value)}{_answer_clause(mark)}")
    lines.append(f"Abstract: {_marks_value(marks.abstract_mark)}")
    lines.append(f"Total: {fmt_number(marks.total)}/10")
    return lines


def render_report(report: FeedbackReport, format: str = "terminal", color: bool = True) -> str:
    """Render one report; every sentence gets exactly one highlight span."""
    if format == "terminal":
        return _render_terminal(report, color)
    if format == "html":
        return _render_html(report)
    if format == "markdown":
        return _render_markdown(report)
    raise ValueError(f"unknown report format {format!r}")


def _render_terminal(report: FeedbackReport, color: bool) -> str:
    def paint(text: str, label: Label3) -> str:
        if color:
            return f"{_ANSI_BG[label]}{text}{_ANSI_RESET}"
        return f"{_TAGS[label]} {text}"

    title = f"Feedback for submission {report.submission_id}"
    lines = [title, "=" * len(title), "", "Marks", "-----"]
    lines += _mark_lines(report.marks)
    lines += ["", "Question feedback", "-----------------"]
    lines += list(report.question_comments)
    lines += ["", "Abstract structure", "------------------"]
    lines.append(" ".join(paint(s.text, s.label) for s in report.labeled_abstract.sentences))
    lines.append("")
    lines.append(
        "Legend: "
        + " ".join(paint(lbl.name, lbl) for lbl in _CANONICAL_ORDER)
    )
    lines += ["", "Abstract feedback", "-----------------"]
    lines += list(report.abstract_comments)
    return "\n".join(lines) + "\n"


def _render_html(report: FeedbackReport) -> str:
    esc = html_module.escape

    def span(text: str, label: Label3) -> str:
        return f'<span style="background-color:{HTML_COLORS[label]}">{esc(text)}</span>'

    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>Feedback for submission {esc(report.submission_id)}</title></head><body>",
        f"<h1>Feedback for submission {esc(report.submission_id)}</h1>",
        "<h2>Marks</h2>",
        "<ul>" + "".join(f"<li>{esc(line)}</li>" for line in _mark_lines(report.marks)) + "</ul>",
        "<h2>Question feedback</h2>",
        "<ul>" + "".join(f"<li>{esc(c)}</li>" for c in report.question_comments) + "</ul>",
        "<h2>Abstract structure</h2>",
        "<p>" + " ".join(span(s.text, s.label) for s in report.labeled_abstract.sentences) + "</p>",
        "<p>" + " ".join(span(lbl.name, lbl) for lbl in _CANONICAL_ORDER) + "</p>",
        "<h2>Abstract feedback</h2>",
        "<ul>" + "".join(f"<li>{esc(c)}</li>" for c in report.abstract_comments) + "</ul>",
        "</body></html>",
    ]
    return "\n".join(parts) + "\n"


def _render_markdown(report: FeedbackReport) -> str:
    lines = [f"# Feedback for submission {report.submission_id}", "", "## Marks", ""]
    lines += [f"- {line}" for line in _mark_lines(report.marks)]
    lines += ["", "## Question feedback", ""]
    lines += [f"- {c}" for c in report.question_comments]
    lines += ["", "## Abstract structure", ""]
    lines += [
        f"- **{_TAGS[s.label]}** {s.text}" for s in report.labeled_abstract.sentences
    ]
    lines += [
        "",
        "Legend: **[B]** BACKGROUND, **[T]** TECHNIQUE, **[O]** OBSERVATION",
        "",
        "## Abstract feedback",
        "",
    ]
    lines += [f"- {c}" for c in report.abstract_comments]
    return "\n".join(lines) + "\n"
