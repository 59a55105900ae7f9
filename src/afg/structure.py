"""Rhetorical structure of abstracts: per-sentence labels and statistics.

The three-class scheme (background / technique / observation) is a
coarsening of the five corpus labels; the classifier itself is any
callable mapping a sentence to a probability triple, so a trained model,
a stub fixed to known labels, or a future drop-in backend all plug in the
same way. A cohort is labelled in one pass (``label_cohort``), and every
statistic reads one count of the labels (``label_counts``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .ingest import Label5


class Label3(IntEnum):
    BACKGROUND = 0
    TECHNIQUE = 1
    OBSERVATION = 2


# By class index, bound once: iterating an Enum, and its members' .name, are slow.
LABELS = tuple(Label3)
LABEL_NAMES = tuple(label.name for label in LABELS)
_ONE_HOT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # certain of one class

LABEL5_TO_LABEL3 = {
    Label5.BACKGROUND: Label3.BACKGROUND,
    Label5.OBJECTIVE: Label3.BACKGROUND,
    Label5.METHOD: Label3.TECHNIQUE,
    Label5.RESULT: Label3.OBSERVATION,
    Label5.CONCLUSION: Label3.OBSERVATION,
}

# Reference label distributions in percent (background, technique,
# observation), used purely to annotate corpus reports.
PUBMED_RCT_LABEL_PERCENT = (19.8, 33.0, 47.3)
STUDENT_DATA_LABEL_PERCENT = (49.9, 11.5, 38.6)


def map_label(label5: Label5) -> Label3:
    return LABEL5_TO_LABEL3[label5]


@dataclass(frozen=True)
class LabeledSentence:
    text: str
    label: Label3
    confidence: float


@dataclass(frozen=True)
class LabeledAbstract:
    sentences: tuple[LabeledSentence, ...]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError("labeled abstract needs at least one sentence")

    def labels(self) -> list[Label3]:
        return [s.label for s in self.sentences]

    def to_json_list(self) -> list[dict]:
        return [
            {"text": s.text, "label": LABEL_NAMES[s.label], "confidence": s.confidence}
            for s in self.sentences
        ]


SentenceClassifier = Callable[[str], tuple[float, float, float]]


def make_fixed_classifier(labels_by_text: dict[str, str]) -> SentenceClassifier:
    """Classifier stub returning probability 1 for a known sentence's label.

    The table comes from a config's fixed-labels file, which maps each
    sentence to a Label3 name. A table that is not a dict, or a label that is
    not a Label3 name, is a ConfigError.
    """
    if not isinstance(labels_by_text, dict):
        raise ConfigError("fixed-labels table is not a JSON object")
    try:
        table = {text: Label3[label] for text, label in labels_by_text.items()}
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable label
        raise ConfigError(f"unknown fixed label: {exc}") from None

    def classify(sentence: str) -> tuple[float, float, float]:
        try:
            return _ONE_HOT[table[sentence]]
        except KeyError:
            raise DataError(f"no fixed label for sentence {sentence!r}") from None

    return classify


def label_counts(labels: Sequence[int], lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 3) class counts of the N runs laid end to end in ``labels``, run i ``lengths[i]``
    long, and (N,) whether each never steps back along background -> technique -> observation."""
    labels = np.asarray(labels, dtype=np.intp)
    row = np.repeat(np.arange(len(lengths)), lengths)
    counts = np.bincount(row * 3 + labels, minlength=3 * len(lengths)).reshape(-1, 3)
    back = row[1:][(labels[1:] < labels[:-1]) & (row[1:] == row[:-1])]
    return counts, np.bincount(back, minlength=len(lengths)) == 0


class LabeledCohort(NamedTuple):
    """Labelled abstracts, with their label counts and order flags (see label_counts)."""

    abstracts: list[LabeledAbstract]
    counts: np.ndarray
    in_order: np.ndarray

    @classmethod
    def of(cls, abstracts: Sequence[LabeledAbstract]) -> LabeledCohort:
        labels = [s.label for abstract in abstracts for s in abstract.sentences]
        return cls(list(abstracts), *label_counts(labels, [len(a.sentences) for a in abstracts]))

    def shares(self) -> np.ndarray:
        """Each abstract's (N, 3) class shares, each count over its abstract's total."""
        return self.counts / self.counts.sum(axis=1, keepdims=True)


def label_cohort(abstracts: Sequence[Sequence[str]],
                 probabilities: Mapping[str, Sequence[float]]) -> LabeledCohort:
    """Label each sentence of the already segmented ``abstracts`` with the first most
    probable class of its triple in ``probabilities``, and count the labels. The caller
    segments, so one abstract gets the same sentences wherever it is labelled. An
    abstract of no sentences is a ValueError (see LabeledAbstract)."""
    texts = [text for sentences in abstracts for text in sentences]
    probs = np.array([probabilities[text] for text in texts], np.float64).reshape(len(texts), 3)
    labels = probs.argmax(axis=1)
    labeled = list(map(LabeledSentence, texts, map(LABELS.__getitem__, labels.tolist()),
                       probs[np.arange(len(texts)), labels].tolist()))
    lengths = [len(sentences) for sentences in abstracts]
    return LabeledCohort(
        [LabeledAbstract(tuple(labeled[end - n:end]))
         for n, end in zip(lengths, itertools.accumulate(lengths))],
        *label_counts(labels, lengths))


def classify_abstract(sentences: Sequence[str], classifier: SentenceClassifier) -> LabeledAbstract:
    """Label each of an abstract's already segmented ``sentences`` with ``classifier``."""
    return label_cohort([sentences], {text: classifier(text) for text in sentences}).abstracts[0]


@dataclass(frozen=True)
class ClassDistribution:
    counts: tuple[int, int, int]
    shares: tuple[float, float, float]
    n_classes_present: int

    @property
    def n_sentences(self) -> int:
        return sum(self.counts)


def distribution(labeled: LabeledAbstract) -> ClassDistribution:
    """Per-class sentence counts and shares of one labelled abstract."""
    cohort = LabeledCohort.of([labeled])
    counts = tuple(cohort.counts[0].tolist())
    return ClassDistribution(counts, tuple(cohort.shares()[0].tolist()), 3 - counts.count(0))


@dataclass(frozen=True)
class CorpusStats:
    n_abstracts: int
    n_sentences: int
    pooled_counts: tuple[int, int, int]
    pooled_shares: tuple[float, float, float]
    two_or_fewer_classes_fraction: float
    reference_percent: dict[str, tuple[float, float, float]]

    def to_json_dict(self) -> dict:
        return {
            "n_abstracts": self.n_abstracts,
            "n_sentences": self.n_sentences,
            "pooled_counts": list(self.pooled_counts),
            "pooled_shares": list(self.pooled_shares),
            "pooled_percent": [100.0 * s for s in self.pooled_shares],
            "two_or_fewer_classes_fraction": self.two_or_fewer_classes_fraction,
            "reference_percent": {k: list(v) for k, v in self.reference_percent.items()},
        }


def corpus_stats(abstracts: Sequence[LabeledAbstract]) -> CorpusStats:
    """Pooled sentence-level shares and class-coverage stats over a corpus."""
    if not abstracts:
        raise ValueError("need at least one abstract")
    counts = LabeledCohort.of(abstracts).counts
    pooled = counts.sum(axis=0)
    n_sentences = int(pooled.sum())
    return CorpusStats(
        n_abstracts=len(abstracts),
        n_sentences=n_sentences,
        pooled_counts=tuple(pooled.tolist()),
        pooled_shares=tuple((pooled / n_sentences).tolist()),
        two_or_fewer_classes_fraction=float(np.mean(np.count_nonzero(counts, axis=1) <= 2)),
        reference_percent={
            "pubmed_rct": PUBMED_RCT_LABEL_PERCENT,
            "reported_student_data": STUDENT_DATA_LABEL_PERCENT,
        },
    )
