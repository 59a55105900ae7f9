"""Rhetorical structure of abstracts: per-sentence labels and statistics.

The three-class scheme (background / technique / observation) is a
coarsening of the five corpus labels; the classifier itself is any
callable mapping a sentence to a probability triple, so a trained model,
a stub fixed to known labels, or a future drop-in backend all plug in the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Sequence

from .errors import ConfigError, DataError
from .ingest import Label5
from .textproc import DEFAULT_ABBREVIATIONS, segment_sentences


class Label3(IntEnum):
    BACKGROUND = 0
    TECHNIQUE = 1
    OBSERVATION = 2


_LABEL3 = tuple(Label3)  # by class index

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
            {"text": s.text, "label": s.label.name, "confidence": s.confidence}
            for s in self.sentences
        ]


SentenceClassifier = Callable[[str], tuple[float, float, float]]


def make_fixed_classifier(labels_by_text: dict[str, Label3 | str]) -> SentenceClassifier:
    """Classifier stub returning probability 1 for a known sentence's label.

    The table comes from a config's fixed-labels file, so a table that is
    not a dict, or a label that is neither a Label3 nor a Label3 name, is a
    ConfigError.
    """
    if not isinstance(labels_by_text, dict):
        raise ConfigError("fixed-labels table is not a JSON object")
    try:
        table = {
            text: label if type(label) is Label3 else Label3[label]
            for text, label in labels_by_text.items()
        }
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable label
        raise ConfigError(f"unknown fixed label: {exc}") from None

    def classify(sentence: str) -> tuple[float, float, float]:
        try:
            label = table[sentence]
        except KeyError:
            raise DataError(f"no fixed label for sentence {sentence!r}") from None
        probs = [0.0, 0.0, 0.0]
        probs[label] = 1.0
        return tuple(probs)

    return classify


def classify_abstract(
    text: str,
    classifier: SentenceClassifier,
    abbreviations=DEFAULT_ABBREVIATIONS,
    *,
    sentences: Sequence[str] | None = None,
) -> LabeledAbstract:
    """Segment an abstract and label every sentence with ``classifier``.

    ``sentences``, when given, is ``text`` already segmented, and is
    labelled as it is.
    """
    if sentences is None:
        sentences = segment_sentences(text, abbreviations)
    if not sentences:
        raise ValueError("abstract has no sentences after segmentation")
    labeled = []
    for sentence in sentences:
        probs = classifier(sentence)
        best = max(range(len(probs)), key=probs.__getitem__)
        labeled.append(
            LabeledSentence(text=sentence, label=_LABEL3[best], confidence=float(probs[best]))
        )
    return LabeledAbstract(tuple(labeled))


@dataclass(frozen=True)
class ClassDistribution:
    counts: tuple[int, int, int]
    shares: tuple[float, float, float]
    n_classes_present: int

    @property
    def n_sentences(self) -> int:
        return sum(self.counts)


def distribution(labeled: LabeledAbstract | Sequence[Label3]) -> ClassDistribution:
    # A raw sequence's labels are checked: counts[-1] would take a bad int.
    labels = (labeled.labels() if isinstance(labeled, LabeledAbstract)
              else [Label3(label) for label in labeled])
    if not labels:
        raise ValueError("need at least one label")
    counts = [0, 0, 0]
    for label in labels:
        counts[label] += 1
    total = len(labels)
    return ClassDistribution(
        counts=tuple(counts),
        shares=tuple(c / total for c in counts),
        n_classes_present=sum(1 for c in counts if c > 0),
    )


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
    counts = [0, 0, 0]
    low_coverage = 0
    n_sentences = 0
    for abstract in abstracts:
        dist = distribution(abstract)
        for k in range(3):
            counts[k] += dist.counts[k]
        n_sentences += dist.n_sentences
        if dist.n_classes_present <= 2:
            low_coverage += 1
    return CorpusStats(
        n_abstracts=len(abstracts),
        n_sentences=n_sentences,
        pooled_counts=tuple(counts),
        pooled_shares=tuple(c / n_sentences for c in counts),
        two_or_fewer_classes_fraction=low_coverage / len(abstracts),
        reference_percent={
            "pubmed_rct": PUBMED_RCT_LABEL_PERCENT,
            "reported_student_data": STUDENT_DATA_LABEL_PERCENT,
        },
    )
