"""Corpus and submission ingestion.

Parsers for the scored-essay TSV corpora, the labelled-abstract corpus,
and the submission/answer-key JSON files, plus reproducible train/eval splits.

Each parser takes the path of its file, and the TSV parser also the checked
``pretrain.corpora`` entry of the config (see ``cli._SCHEMA``). Apart from that
read, all functions are pure. A scored essay parses to the (text, score) pair
``pretrain`` trains on; the other records are plain frozen dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, auto
from typing import Optional, Sequence

from .errors import ConfigError, DataError, RowError
from .scoring import QUESTIONS, MarkSheet, marksheet_from_json
from .textproc import is_number, is_text, read_json_records, read_text


class Label5(Enum):
    """Sentence roles in the five-class abstract corpus."""

    BACKGROUND = auto()
    OBJECTIVE = auto()
    METHOD = auto()
    RESULT = auto()
    CONCLUSION = auto()


@dataclass(frozen=True)
class RctAbstract:
    abstract_id: str
    sentences: tuple[tuple[Label5, str], ...]


@dataclass(frozen=True)
class Submission:
    submission_id: str
    paper_id: str
    impact_factor: float
    ref_rsc: str
    ref_acs: str
    times_cited: int
    abstract: str
    human_marks: Optional[MarkSheet] = None

    def __post_init__(self):
        if not self.abstract.strip():
            raise ValueError(f"submission {self.submission_id}: empty abstract")
        _check_answers(self, f"submission {self.submission_id}")


@dataclass(frozen=True)
class AnswerKey:
    paper_id: str
    impact_factor: float
    ref_rsc: str
    ref_acs: str
    times_cited: int

    def __post_init__(self):
        _check_answers(self, f"answer key {self.paper_id}")


def _check_answers(record: Submission | AnswerKey, what: str) -> None:
    """The checks a submission's answers and an answer key share."""
    if record.impact_factor <= 0:
        raise ValueError(f"{what}: impact factor must be > 0")
    if record.times_cited < 0:
        raise ValueError(f"{what}: negative citation count")
    if not record.ref_rsc.strip() or not record.ref_acs.strip():
        raise ValueError(f"{what}: blank reference")
    # Not the submission id: grade checks it where it names a report file.
    text = record.paper_id + record.ref_rsc + record.ref_acs + getattr(record, "abstract", "")
    if not is_text(text):
        raise ValueError(f"{what}: a text field holds a lone surrogate, which UTF-8 cannot encode")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple
    eval: tuple


# ---------------------------------------------------------------------------
# Scored TSV corpora
# ---------------------------------------------------------------------------

def parse_scored_tsv(path, entry: dict) -> list[tuple[str, float]]:
    """Parse a tab-separated scored corpus into (essay text, score) pairs, each score
    min-max normalized to [0, 1] within its prompt's range.

    ``entry`` names the three columns and maps each prompt to its [min, max]
    score range. The first line must be a header. Plain tab splitting is used
    on purpose: essay text may contain quote characters that csv-style
    quoting would mangle.
    """
    ranges = entry["score_ranges"]
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError("empty TSV corpus")
    header = lines[0].split("\t")
    columns = [entry[key] for key in ("prompt_col", "text_col", "score_col")]
    for col in columns:
        if col not in header:
            raise ConfigError(f"TSV header missing column {col!r}")
    prompt_col, text_col, score_col = map(header.index, columns)

    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) < len(header):
            raise RowError(f"expected {len(header)} columns, got {len(cells)}", lineno)
        prompt = cells[prompt_col]
        if prompt not in ranges:
            raise ConfigError(f"no score range configured for prompt {prompt!r}")
        lo, hi = ranges[prompt]
        raw = cells[score_col]
        try:
            score = float(raw)
        except ValueError:
            raise RowError(f"unparseable score {raw!r}", lineno) from None
        if not lo <= score <= hi:
            raise RowError(f"score {score} outside declared range [{lo}, {hi}]", lineno)
        text = cells[text_col]
        if not text.strip():
            raise RowError("empty text", lineno)
        samples.append((text, (score - lo) / (hi - lo)))
    return samples


# ---------------------------------------------------------------------------
# Labelled abstract corpus
# ---------------------------------------------------------------------------

def parse_rct(path) -> list[RctAbstract]:
    """Parse the labelled-abstract corpus format.

    ``###<id>`` opens an abstract, ``<LABEL>\\t<sentence>`` lines follow,
    a blank line closes it.
    """
    lines = read_text(path).splitlines()
    abstracts: list[RctAbstract] = []
    current_id: str | None = None
    current_line = 0
    sentences: list[tuple[Label5, str]] = []

    def close():
        nonlocal current_id, sentences
        if current_id is None:
            return
        if not sentences:
            raise RowError(f"abstract {current_id!r} has no sentences", current_line)
        abstracts.append(RctAbstract(current_id, tuple(sentences)))
        current_id = None
        sentences = []

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            close()
            continue
        if line.startswith("###"):
            close()
            current_id = line[3:].strip()
            current_line = lineno
            continue
        if current_id is None:
            raise RowError("sentence line before any ### header", lineno)
        if "\t" not in line:
            raise RowError("expected <LABEL><TAB><sentence>", lineno)
        label_name, text = line.split("\t", 1)
        try:
            label = Label5[label_name]
        except KeyError:
            raise RowError(f"unknown label {label_name!r}", lineno) from None
        if not text.strip():
            raise RowError("empty sentence", lineno)
        sentences.append((label, text))
    close()
    return abstracts


def serialize_rct(abstracts: Sequence[RctAbstract]) -> str:
    blocks = []
    for a in abstracts:
        lines = [f"###{a.abstract_id}"]
        lines.extend(f"{label.name}\t{text}" for label, text in a.sentences)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Train/eval splitting
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def shuffled_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates shuffle of range(n) driven by the splitmix64 generator.

    splitmix64 has 64-bit state and a fixed, published update rule, so the
    same seed reproduces the same permutation in any implementation.
    """
    idx = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        value, state = _splitmix64(state)
        j = value % (i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def split(samples: Sequence, fraction: float, seed: int) -> DatasetSplit:
    """Deterministic shuffle-then-partition split.

    ``round(fraction * N)`` samples go to train (half rounds up), for a
    ``fraction`` in (0, 1), clamped so that both sides stay non-empty.
    """
    n = len(samples)
    if n < 2:
        raise DataError(f"need at least 2 samples to split, got {n}")
    n_train = min(max(math.floor(fraction * n + 0.5), 1), n - 1)
    order = shuffled_indices(n, seed)
    train = tuple(samples[i] for i in order[:n_train])
    evals = tuple(samples[i] for i in order[n_train:])
    return DatasetSplit(train=train, eval=evals)


# ---------------------------------------------------------------------------
# JSON files: submissions and answer keys
# ---------------------------------------------------------------------------

# The four answers a submission gives and an answer key holds. In both
# dataclasses they follow the id fields, in QUESTIONS order.
_ANSWER_FIELDS = tuple(q.answer for q in QUESTIONS)
_SUBMISSION_KEYS = ("submission_id", "paper_id", *_ANSWER_FIELDS, "abstract")
_ANSWER_KEY_KEYS = ("paper_id", *_ANSWER_FIELDS)


def _require_keys(entry: dict, keys: tuple[str, ...], what: str, i: int) -> None:
    for key in keys:
        if key not in entry:
            raise DataError(f"{what} #{i}: missing key {key!r}")


def _string(entry: dict, key: str) -> str:
    """The value of ``key`` in a record, which must be a JSON string."""
    value = entry[key]
    if type(value) is not str:
        raise TypeError(f"{key} {value!r:.40} is not a string")
    return value


def _answers(entry: dict) -> tuple[float, str, str, int]:
    """The four answer fields of a submission or answer-key record, type-checked.

    The checks are written out, not looped over ``QUESTIONS``, and the fields passed by
    position: a loop or keyword arguments are slower, and loading is much of ``grade``'s set-up.
    """
    impact, rsc, acs, cited = (entry["impact_factor"], entry["ref_rsc"], entry["ref_acs"],
                               entry["times_cited"])
    if not is_number(impact):
        raise TypeError(f"impact_factor {impact!r:.40} is not a finite number")
    if type(rsc) is not str or type(acs) is not str:
        raise TypeError(f"ref_rsc {rsc!r:.40} and ref_acs {acs!r:.40} must both be strings")
    if type(cited) is not int or not is_number(cited):
        raise TypeError(f"times_cited {cited!r:.40} is not an integer within float range")
    return float(impact), rsc, acs, cited


def load_submissions(path) -> list[Submission]:
    """Load a JSON array of submissions; human marks are optional."""
    out = []
    for i, entry in enumerate(read_json_records(path, "submission file")):
        _require_keys(entry, _SUBMISSION_KEYS, "submission", i)
        marks = entry.get("human_marks")
        try:
            out.append(
                Submission(
                    _string(entry, "submission_id"),
                    _string(entry, "paper_id"),
                    *_answers(entry),
                    abstract=_string(entry, "abstract"),
                    human_marks=marksheet_from_json(marks) if marks is not None else None,
                )
            )
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise DataError(f"submission #{i}: {exc}") from exc
    return out


def load_answer_keys(path) -> dict[str, AnswerKey]:
    keys: dict[str, AnswerKey] = {}
    for i, entry in enumerate(read_json_records(path, "answer-key file")):
        _require_keys(entry, _ANSWER_KEY_KEYS, "answer key", i)
        try:
            key = AnswerKey(_string(entry, "paper_id"), *_answers(entry))
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise DataError(f"answer key #{i}: {exc}") from exc
        if key.times_cited == 0:
            raise DataError(f"answer key #{i}: paper {key.paper_id!r} has 0 citations, "
                            "which no percentage band can mark against")
        if key.paper_id in keys:
            raise DataError(f"duplicate answer key for paper {key.paper_id!r}")
        keys[key.paper_id] = key
    return keys
