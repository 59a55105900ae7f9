"""Synthetic corpora for desk-scale experiments and tests.

Real submission data is private and the public corpora are large
downloads, so the experiment scripts and the test suite run on generated
stand-ins: a labelled-abstract corpus with class-distinctive vocabulary,
scored essay families whose mark is driven by content-keyword coverage,
and a tiny fully separable sentence set for smoke training.
"""

from __future__ import annotations

import numpy as np

from .ingest import Label5, RctAbstract
from .structure import Label3, map_label

_CLASS_POOLS: dict[Label5, list[str]] = {
    Label5.BACKGROUND: (
        "disease burden prevalence chronic risk population common worldwide "
        "remains major challenge management condition impact evidence gap"
    ).split(),
    Label5.OBJECTIVE: (
        "aim objective purpose investigate evaluate assess determine examine "
        "whether compare effect efficacy hypothesis question"
    ).split(),
    Label5.METHOD: (
        "randomized trial placebo blinded participants assigned received dose "
        "weeks baseline protocol measured groups enrolled centers allocation"
    ).split(),
    Label5.RESULT: (
        "significant increase decrease observed compared mean difference "
        "reduction improvement interval versus higher lower rate outcome"
    ).split(),
    Label5.CONCLUSION: (
        "conclude findings suggest support effective safe further research "
        "needed implications clinical practice confirm warranted"
    ).split(),
}

_FILLERS = (
    "the of in and with for a to was were this that at on by patients study treatment"
).split()

# (label, (min count, max count)) in canonical abstract order
_SECTION_PLAN = (
    (Label5.BACKGROUND, (1, 2)),
    (Label5.OBJECTIVE, (0, 1)),
    (Label5.METHOD, (1, 3)),
    (Label5.RESULT, (1, 3)),
    (Label5.CONCLUSION, (0, 2)),
)


def _synth_sentence(rng: np.random.Generator, label: Label5) -> str:
    pool = _CLASS_POOLS[label]
    length = int(rng.integers(6, 13))
    words = []
    for k in range(length):
        if k < 2 or rng.random() < 0.6:
            words.append(pool[int(rng.integers(len(pool)))])
        else:
            words.append(_FILLERS[int(rng.integers(len(_FILLERS)))])
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def generate_rct_corpus(n_abstracts: int, seed: int = 0) -> list[RctAbstract]:
    """Labelled abstracts with the five-class scheme and plausible ordering."""
    rng = np.random.default_rng(seed)
    abstracts = []
    for i in range(n_abstracts):
        sentences = []
        for label, (lo, hi) in _SECTION_PLAN:
            for _ in range(int(rng.integers(lo, hi + 1))):
                sentences.append((label, _synth_sentence(rng, label)))
        abstracts.append(RctAbstract(abstract_id=str(10000 + i), sentences=tuple(sentences)))
    return abstracts


def mapped_sentences(abstracts) -> list[tuple[str, Label3]]:
    """Flatten a five-class corpus into (sentence, three-class label) pairs."""
    return [
        (text, map_label(label5))
        for abstract in abstracts
        for label5, text in abstract.sentences
    ]


# ---------------------------------------------------------------------------
# Scored-text families for the pretrain/fine-tune transfer experiment
# ---------------------------------------------------------------------------

_SHARED_CONTENT = (
    "hypothesis method data analysis control measurement result comparison"
).split()

_COMMON_FILLERS = (
    "the of and a in was with this for from study results were are"
).split()

_FAMILIES = {
    "A": {
        "content": _SHARED_CONTENT
        + ["interpretation", "conclusion", "evidence", "validation"],
        "fillers": _COMMON_FILLERS + "leaf root growth soil light water".split(),
    },
    "B": {
        "content": _SHARED_CONTENT
        + ["replication", "uncertainty", "calibration", "baseline"],
        "fillers": _COMMON_FILLERS + "magnet field coil current iron pole".split(),
    },
}

_SCORE_NOISE = 0.04  # the standard deviation of each regression score's Gaussian noise


def generate_regression_samples(n: int, seed: int = 0,
                                family: str = "A") -> list[tuple[str, float]]:
    """Texts whose [0,1] score tracks distinct content-keyword coverage.

    Families share two thirds of their content keywords and most filler
    vocabulary, so a model trained on one family transfers partially to
    the other and benefits from fine-tuning on it.
    """
    spec = _FAMILIES[family]
    content = spec["content"]
    fillers = spec["fillers"]
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        k = int(rng.integers(0, len(content) + 1))
        picks = list(rng.choice(len(content), size=k, replace=False))
        words = [content[j] for j in picks]
        length = int(rng.integers(10, 17))
        while len(words) < length:
            words.append(fillers[int(rng.integers(len(fillers)))])
        rng.shuffle(words)
        score = k / len(content) + float(rng.normal(0.0, _SCORE_NOISE))
        samples.append((" ".join(words), float(min(max(score, 0.0), 1.0))))
    return samples


# ---------------------------------------------------------------------------
# Tiny fully separable sentence set
# ---------------------------------------------------------------------------

SEPARABLE_SENTENCES: list[tuple[str, Label3]] = [
    ("the background of this area is broadly familiar", Label3.BACKGROUND),
    ("previous work gives broad context", Label3.BACKGROUND),
    ("the motivation comes from prior publications", Label3.BACKGROUND),
    ("historical context frames the problem", Label3.BACKGROUND),
    ("earlier literature covers the background", Label3.BACKGROUND),
    ("the field has extensive prior history", Label3.BACKGROUND),
    ("context and motivation open the paper", Label3.BACKGROUND),
    ("the method uses a novel protocol", Label3.TECHNIQUE),
    ("we apply the technique with a careful procedure", Label3.TECHNIQUE),
    ("the apparatus follows a standard protocol", Label3.TECHNIQUE),
    ("a new method and procedure were designed", Label3.TECHNIQUE),
    ("the experimental technique was refined", Label3.TECHNIQUE),
    ("our protocol extends the usual method", Label3.TECHNIQUE),
    ("instrumentation and procedure come next", Label3.TECHNIQUE),
    ("the results show a clear improvement", Label3.OBSERVATION),
    ("we observed a significant outcome", Label3.OBSERVATION),
    ("measurements reveal strong findings", Label3.OBSERVATION),
    ("the outcome confirms the expected result", Label3.OBSERVATION),
    ("observed readings support the findings", Label3.OBSERVATION),
    ("results and observations close the paper", Label3.OBSERVATION),
]
