"""Shared fixtures: worked-example texts, oracle classifiers, tiny models."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from afg.nn import _batch_forward
from afg.structure import Label3, LabeledAbstract, LabeledCohort, LabeledSentence
from afg.textproc import build_vocab

# A failing property test prints the @reproduce_failure line that replays it,
# since the example database is git-ignored and draws vary between runs.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

# Six-sentence abstract used for the structure-feedback worked example:
# heavy on background, one technique sentence, one observation sentence.
EXAMPLE1_ABSTRACT = (
    "Nitro-anilides are compounds essential for manufacturing a variety of chemical "
    "compounds, including pharmaceuticals, dyes and explosives. Traditional methods use "
    "concentrated sulfuric and nitric acids, where reaction conditions are harsh and have "
    "low tolerance for other functional groups. They were replaced by using nitrate salt "
    "reagents, which can be difficult to prepare and, from the resultant metal oxides, "
    "have a low atom economy. More recent methods use AgNO2 to selectively nitrate arenes, "
    "but this method uses high quantities of rare metals, which is unsustainable. This "
    "reaction uses NaNO2 and K2S2O8 in CH3CN, using catalytic AgNO2, to selectively "
    "nitrate the ortho positions on a variety of arenes, displaying high regioselectivity "
    "and chemoselectivity as well as moderate to high yields with a selection of "
    "substitutions on the starting anilide. The mechanism proceeds through silver "
    "chelation and a subsequent radical mechanism, and the silver catalyst is regenerated "
    "by the K2S2O8 oxidant."
)

EXAMPLE1_LABELS = [
    Label3.BACKGROUND,
    Label3.BACKGROUND,
    Label3.TECHNIQUE,
    Label3.BACKGROUND,
    Label3.OBSERVATION,
    Label3.BACKGROUND,
]

EXAMPLE1_COMMENTS = [
    "Your discussion of the paper’s background has a good amount of detail.",
    "It might be useful to outline the Techniques the model uses in a bit more detail.",
    "It may be worth making sure that the discussion of the conclusions of the paper "
    "are clearer.",
]

# Seven-sentence abstract for the end-to-end marking example: observation
# dominated, technique underrepresented, classes in canonical order.
EXAMPLE2_ABSTRACT = (
    "To combat the issues of toxic chemicals and by-products, noble and precious metal "
    "catalysts, and expensive phosphorus ligands, a new method of alkylation of amines "
    "was devised. N-ethylation and N-methylation of a broad range of aliphatic and "
    "aromatic compounds were demonstrated using a (cyclopentadienone) iron tricarbonyl "
    "complex under basic conditions. These compounds were ethylated or methylated using "
    "ethanol or methanol. The use of methanol was more energetically demanding due to its "
    "higher enthalpy of dehydrogenation. Consequently, a change in hydrogen pressure was "
    "required for selective dehydration over dehydrogenation to methylate some compounds. "
    "The method shown produced mono- or dialkylated compounds in high yields. DFT "
    "calculations revealed potential pathways for the reaction and highlighted the role "
    "of hydrogen pressure in driving the equilibrium towards one intermediate and hence "
    "the reduction of imines."
)

EXAMPLE2_LABELS = [
    Label3.BACKGROUND,
    Label3.BACKGROUND,
    Label3.TECHNIQUE,
    Label3.OBSERVATION,
    Label3.OBSERVATION,
    Label3.OBSERVATION,
    Label3.OBSERVATION,
]

EXAMPLE2_COMMENTS = [
    "A more balanced discussion of the background of the paper, the techniques of the "
    "paper and the observations and conclusions the paper made might improve your work.",
    "It might be worth outlining the methods of the paper in greater detail.",
    "The abstract contains discussion of each aspect of the paper in a logical order.",
]

EXAMPLE2_RSC_REF = (
    "A. Lator, S. Gaillard, A. Poater and J.-L. Renaud, Organic Letters, 2018, 20, "
    "5985-5990."
)
EXAMPLE2_ACS_REF = (
    "Lator, A.; Gaillard, S.; Poater, A.; Renaud, J.-L. Well-Defined Phosphine-Free "
    "Iron-Catalyzed N-Ethylation and N-Methylation of Amines with Ethanol and Methanol. "
    "Organic Letters 2018, 20 (19), 5985-5990."
)

EXAMPLE2_SUBMISSION = {
    "submission_id": "ex2",
    "paper_id": "ol-2018-amines",
    "impact_factor": 6.005,
    "ref_rsc": EXAMPLE2_RSC_REF,
    "ref_acs": EXAMPLE2_ACS_REF,
    "times_cited": 10,
    "abstract": EXAMPLE2_ABSTRACT,
}

EXAMPLE2_KEY = {
    "paper_id": "ol-2018-amines",
    "impact_factor": 6.005,
    "ref_rsc": EXAMPLE2_RSC_REF,
    "ref_acs": EXAMPLE2_ACS_REF,
    "times_cited": 42,
}


def write_file(directory, content):
    """The path of a file in ``directory`` that now holds ``content``: bytes as given,
    text as UTF-8. The parsers read files, as the commands give them."""
    path = Path(directory) / "input"
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return path


def context_and_attention(params, ids):
    """The attention-pooled context vector and the attention weights of one token id
    sequence, read from the cache of the forward that training runs."""
    _, [(_, cache)] = _batch_forward(params, [np.asarray(ids, dtype=np.int64)], keep_cache=True)
    return cache["ctx"][0], cache["alpha"][0]


def oracle_table(abstract_sentences, labels):
    return {text: label.name for text, label in zip(abstract_sentences, labels)}


def labeled_abstract(labels) -> LabeledAbstract:
    """An abstract of placeholder sentences carrying ``labels``."""
    return LabeledAbstract(
        tuple(LabeledSentence(f"s{i}.", lbl, 1.0) for i, lbl in enumerate(labels))
    )


def one_row(labels) -> LabeledCohort:
    """The cohort of one abstract carrying ``labels`` (see labeled_abstract): its row 0
    holds the counts, shares and order flag that grade computes for that abstract."""
    return LabeledCohort.of([labeled_abstract(labels)])


@pytest.fixture(scope="session")
def tiny_vocab():
    corpus = [
        "the cat sat on the mat",
        "a dog ran in the park",
        "results show clear gains today",
        "methods use careful protocol steps",
        "background covers prior work well",
    ]
    return build_vocab(corpus, max_size=96, min_frequency=1)
