"""Rubric scoring of the four factual questions and mark-sheet assembly.

``QUESTIONS`` is the rubric. Numeric answers are banded by percentage
difference from the key value (within 10% full marks, 10-25% half marks),
reference strings by cosine similarity of their term vectors (0.9 and 0.65
boundaries). The model's [0,1] abstract score is denormalized to an integer
0-6 mark.

Band boundaries are inclusive on the favourable side: d == 10 is still
fully correct and s == 0.9 is fully correct, so the bands partition the
whole input range with no gaps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import DataError
from .textproc import cosine_similarity, is_number, term_vector

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import AnswerKey, Submission


class Verdict(str, Enum):
    INCORRECT = "incorrect"
    PARTIALLY_CORRECT = "partially_correct"
    FULLY_CORRECT = "fully_correct"


_VALUE_FOR_VERDICT = {
    Verdict.INCORRECT: 0.0,
    Verdict.PARTIALLY_CORRECT: 0.5,
    Verdict.FULLY_CORRECT: 1.0,
}
_VERDICT_FOR_VALUE = {v: k for k, v in _VALUE_FOR_VERDICT.items()}


class Mark(NamedTuple):
    """One question's mark and the statistic behind it; cheaper to build than a dataclass."""

    verdict: Verdict
    evidence: str
    given: Optional[float] = None
    correct: Optional[float] = None

    @property
    def value(self) -> float:
        return _VALUE_FOR_VERDICT[self.verdict]


def fmt_number(x: float) -> str:
    """Render a number the way a marker would write it (42, not 42.0)."""
    if float(x) == int(x):
        return str(int(x))
    return f"{x:g}"


def band_for_percent_diff(d: float) -> Verdict:
    """Band a percentage difference: <=10 full, <=25 partial, else wrong."""
    if d <= 10.0:
        return Verdict.FULLY_CORRECT
    if d <= 25.0:
        return Verdict.PARTIALLY_CORRECT
    return Verdict.INCORRECT


def band_for_similarity(s: float) -> Verdict:
    """Band a cosine similarity: >=0.9 full, >=0.65 partial, else wrong."""
    if s >= 0.9:
        return Verdict.FULLY_CORRECT
    if s >= 0.65:
        return Verdict.PARTIALLY_CORRECT
    return Verdict.INCORRECT


def score_numeric(given: float, correct: float) -> Mark:
    """Mark a numeric answer by percentage difference from the key value, which is not 0."""
    # As floats, a difference too large to hold is inf, which is INCORRECT.
    given, correct = float(given), float(correct)
    d = 100.0 * abs(given - correct) / abs(correct)
    return Mark(
        verdict=band_for_percent_diff(d),
        evidence=f"percentage difference {d:.2f}%",
        given=given,
        correct=correct,
    )


def score_reference(given: str, correct: str) -> Mark:
    """Mark a reference string by term-vector cosine similarity to the key."""
    s = cosine_similarity(term_vector(given), _key_term_vector(correct))
    return Mark(verdict=band_for_similarity(s), evidence=f"cosine similarity {s:.4f}")


@functools.lru_cache(maxsize=4096)
def _key_term_vector(correct: str) -> dict[str, int]:
    """The term vector of an answer key's reference, computed once for all its answers.

    Every caller gets the same dict, so none may change it.
    """
    return term_vector(correct)


def abstract_mark(score01: float) -> int:
    """Denormalize a [0,1] model score to an integer 0-6 abstract mark."""
    return int(math.floor(score01 * 6.0 + 0.5))


class Question(NamedTuple):
    """A question's mark-sheet key, the answer field it compares, its marker, its mark line."""

    key: str
    answer: str
    mark: Callable[..., Mark]
    label: str


# The four questions, in mark-sheet order.
QUESTIONS = (
    Question("q1_impact", "impact_factor", score_numeric, "Impact Factor"),
    Question("q2_rsc", "ref_rsc", score_reference, "Reference in RSC format"),
    Question("q3_acs", "ref_acs", score_reference, "Reference in ACS format"),
    Question("q4_cited", "times_cited", score_numeric, "Number of times Cited"),
)


@dataclass(frozen=True)
class MarkSheet:
    """Each question's mark, in ``QUESTIONS`` order, and the 0-6 abstract mark."""

    marks: tuple[Mark, ...]
    abstract_mark: int

    @property
    def total(self) -> float:
        return sum(m.value for m in self.marks) + self.abstract_mark

    def to_json_dict(self) -> dict:
        sheet = {q.key: {"value": m.value, "verdict": m.verdict.value, "evidence": m.evidence}
                 for q, m in zip(QUESTIONS, self.marks)}
        sheet["abstract_mark"] = self.abstract_mark
        sheet["total"] = self.total
        return sheet


def _mark_from_json(obj, name: str) -> Mark:
    """A bare number, or an object with a ``value`` and an optional ``evidence``."""
    number = is_number(obj)
    value = obj if number else obj.get("value") if type(obj) is dict else None
    if not is_number(value):
        raise DataError(f"{name}: expected a number or an object with 'value'")
    if value not in _VERDICT_FOR_VALUE:
        raise DataError(f"{name}: mark value must be 0, 0.5 or 1, got {value}")
    return Mark(verdict=_VERDICT_FOR_VALUE[value],
                evidence="" if number else str(obj.get("evidence", "")))


def marksheet_from_json(obj: dict) -> MarkSheet:
    """Parse a mark sheet; question marks may be bare numbers or objects."""
    if not isinstance(obj, dict):
        raise DataError("mark sheet must be a JSON object")
    abstract = obj.get("abstract_mark")
    if type(abstract) is not int:
        raise DataError("mark sheet missing integer 'abstract_mark'")
    if not 0 <= abstract <= 6:
        raise DataError(f"abstract mark {abstract} outside 0-6")
    marks = []
    for q in QUESTIONS:
        if q.key not in obj:
            raise DataError(f"mark sheet missing {q.key!r}")
        marks.append(_mark_from_json(obj[q.key], q.key))
    return MarkSheet(tuple(marks), abstract)


ScoreFn = Callable[[str], float]


def mark_submission(sub: "Submission", key: "AnswerKey", score_fn: ScoreFn) -> MarkSheet:
    """Assemble the full 10-mark sheet for one submission from its paper's ``key``.

    ``score_fn`` maps the abstract text to a [0,1] score: a trained scorer
    or a fixed stub.
    """
    score01 = float(score_fn(sub.abstract))
    return MarkSheet(tuple(q.mark(getattr(sub, q.answer), getattr(key, q.answer))
                           for q in QUESTIONS), abstract_mark(score01))
