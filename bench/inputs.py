"""Seeded input generation for the benchmark workloads.

Every input the program sees is a file written here from ``afg.synthdata``
(and, for the grade-model fixtures, ``afg.nn.train``). The same seed gives
byte-identical files. Besides the files, each builder returns the ground
truth the output checks need: true sentence labels and the verdict each
numeric answer must receive.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from afg import ingest, nn, synthdata
from afg.structure import map_label
from afg.textproc import build_vocab

# Derived seeds keep the streams independent: stream k of run seed s is
# generator seed 16 * s + k, so no two (seed, stream) pairs share one.
_COHORT_ABSTRACTS, _COHORT_FIELDS, _CLASSIFIER_CORPUS, _SCORER_CORPUS, _TRAIN_CORPUS = range(5)

# (factor applied to the key value, verdict it must earn): 0%, 5%, 20% and
# 50% off the key, each well inside its band.
_NUMERIC_VARIANTS = (
    (1.0, "fully_correct"),
    (1.05, "fully_correct"),
    (1.2, "partially_correct"),
    (1.5, "incorrect"),
)

_SURNAMES = (
    "Lator Gaillard Poater Renaud Okafor Lindqvist Moreau Tanaka Novak Castillo "
    "Haddad Kowalski Brennan Iyer Sato Fischer Delgado Mensah Volkov Park"
).split()
_JOURNALS = (
    "Organic Letters", "Journal of the American Chemical Society", "Chemical Science",
    "Angewandte Chemie", "Green Chemistry", "Dalton Transactions",
)
_TITLE_WORDS = (
    "selective catalytic synthesis iron silver amines alkylation oxidation ligand "
    "free mild efficient route aromatic coupling hydrogen transfer"
).split()


SUBMISSIONS = "submissions.json"
KEYS = "keys.json"
ORACLE_LABELS = "oracle_labels.json"
CORPUS = "corpus.txt"


def model_files(name: str) -> tuple[str, str]:
    """(model file, vocabulary file) of fixture ``name``."""
    return f"{name}.afgm", f"{name}_vocab.txt"


def derived_seed(seed: int, stream: int) -> int:
    return 16 * seed + stream


def _sentence_text(abstract: ingest.RctAbstract) -> str:
    return " ".join(text for _, text in abstract.sentences)


@dataclass
class GradeInputs:
    """A generated cohort on disk plus the truth its outputs are checked against."""

    submission_ids: list[str]
    true_labels: dict[str, str]
    numeric_verdicts: dict[str, tuple[str, str]]
    exact_refs: dict[str, tuple[bool, bool]]
    n_sentences: int = 0


def _reference_pair(rng: np.random.Generator) -> tuple[str, str]:
    n_auth = int(rng.integers(2, 6))
    surnames = [_SURNAMES[int(i)] for i in rng.choice(len(_SURNAMES), n_auth, replace=False)]
    initials = [chr(ord("A") + int(rng.integers(26))) for _ in surnames]
    journal = _JOURNALS[int(rng.integers(len(_JOURNALS)))]
    year = int(rng.integers(1995, 2024))
    volume = int(rng.integers(1, 150))
    issue = int(rng.integers(1, 25))
    first = int(rng.integers(100, 9000))
    pages = f"{first}-{first + int(rng.integers(3, 15))}"
    title = " ".join(
        _TITLE_WORDS[int(i)] for i in rng.choice(len(_TITLE_WORDS), 7, replace=False)
    ).capitalize()
    rsc_authors = ", ".join(f"{i}. {s}" for i, s in zip(initials[:-1], surnames[:-1]))
    rsc = f"{rsc_authors} and {initials[-1]}. {surnames[-1]}, {journal}, {year}, {volume}, {pages}."
    acs_authors = "; ".join(f"{s}, {i}." for i, s in zip(initials, surnames))
    acs = f"{acs_authors} {title}. {journal} {year}, {volume} ({issue}), {pages}."
    return rsc, acs


def _varied_reference(rng: np.random.Generator, correct: str, other: str) -> tuple[str, bool]:
    """The key's reference, a damaged copy of it, or another paper's."""
    kind = int(rng.integers(3))
    if kind == 0:
        return correct, True
    if kind == 1:
        words = correct.split()
        keep = [w for w in words if rng.random() > 0.3] or words[:1]
        return " ".join(keep), False
    return other, False


def write_grade_inputs(work: Path, seed: int, n_submissions: int) -> GradeInputs:
    """Cohort JSON, answer keys and the oracle label table for the grade workloads."""
    rng = np.random.default_rng(derived_seed(seed, _COHORT_FIELDS))
    abstracts = synthdata.generate_rct_corpus(
        n_submissions, seed=derived_seed(seed, _COHORT_ABSTRACTS)
    )
    n_papers = max(2, n_submissions // 5)
    keys = []
    for p in range(n_papers):
        rsc, acs = _reference_pair(rng)
        keys.append({
            "paper_id": f"paper-{p:04d}",
            "impact_factor": round(float(rng.uniform(0.5, 15.0)), 3),
            "ref_rsc": rsc,
            "ref_acs": acs,
            "times_cited": int(rng.integers(20, 400)),
        })

    inputs = GradeInputs([], {}, {}, {})
    submissions = []
    for i, abstract in enumerate(abstracts):
        sid = f"s{i:05d}"
        key = keys[int(rng.integers(n_papers))]
        other = keys[int(rng.integers(n_papers))]
        f_impact, v_impact = _NUMERIC_VARIANTS[int(rng.integers(len(_NUMERIC_VARIANTS)))]
        f_cited, v_cited = _NUMERIC_VARIANTS[int(rng.integers(len(_NUMERIC_VARIANTS)))]
        ref_rsc, rsc_exact = _varied_reference(rng, key["ref_rsc"], other["ref_rsc"])
        ref_acs, acs_exact = _varied_reference(rng, key["ref_acs"], other["ref_acs"])
        submissions.append({
            "submission_id": sid,
            "paper_id": key["paper_id"],
            "impact_factor": round(key["impact_factor"] * f_impact, 3),
            "ref_rsc": ref_rsc,
            "ref_acs": ref_acs,
            "times_cited": int(round(key["times_cited"] * f_cited)),
            "abstract": _sentence_text(abstract),
        })
        inputs.submission_ids.append(sid)
        inputs.numeric_verdicts[sid] = (v_impact, v_cited)
        inputs.exact_refs[sid] = (rsc_exact, acs_exact)
        inputs.n_sentences += len(abstract.sentences)
        for label5, text in abstract.sentences:
            inputs.true_labels[text] = map_label(label5).name

    _write_json(work / SUBMISSIONS, submissions)
    _write_json(work / KEYS, keys)
    _write_json(work / ORACLE_LABELS, inputs.true_labels)
    return inputs


def write_model_fixtures(work: Path, seed: int, n_classifier_sentences: int,
                         n_scorer_abstracts: int) -> None:
    """Write classifier.afgm, scorer.afgm and their vocabularies for grade-model.

    Trained from corpora drawn on their own streams, so the graded cohort
    is held out from both models.
    """
    corpus = _corpus_with_sentences(
        n_classifier_sentences, derived_seed(seed, _CLASSIFIER_CORPUS)
    )
    pairs = [(text, int(label)) for text, label in synthdata.mapped_sentences(corpus)]
    pairs = pairs[:n_classifier_sentences]
    _train_fixture(work, "classifier", pairs, nn.CLASSIFICATION, 3, seed)

    abstracts = synthdata.generate_rct_corpus(
        n_scorer_abstracts, seed=derived_seed(seed, _SCORER_CORPUS)
    )
    # Any fixed score works for a throughput fixture; distinct-section
    # coverage gives the regression head a learnable target.
    scored = [(_sentence_text(a), len({lbl for lbl, _ in a.sentences}) / 5.0)
              for a in abstracts]
    _train_fixture(work, "scorer", scored, nn.REGRESSION, 0, seed)


def _train_fixture(work: Path, name: str, data, head: str, n_classes: int, seed: int) -> None:
    vocab = build_vocab([text for text, _ in data], max_size=512)
    config = nn.EncoderConfig(
        vocab_size=len(vocab), embed_dim=32, hidden_dim=32, attention_dim=16,
        head=head, n_classes=n_classes, seed=seed,
    )
    params, _ = nn.train(
        data, nn.TrainConfig(epochs=1, batch_size=64, learning_rate=1e-2, seed=seed),
        nn.init_params(config), vocab,
    )
    model_file, vocab_file = model_files(name)
    nn.save_model_file(work / model_file, params, config)
    vocab.save(work / vocab_file)


def _corpus_with_sentences(n_sentences: int, seed: int) -> list[ingest.RctAbstract]:
    """The shortest generated corpus prefix holding at least ``n_sentences``.

    Every generated abstract has at least three sentences.
    """
    corpus = synthdata.generate_rct_corpus(n_sentences // 3 + 1, seed=seed)
    total = 0
    for i, abstract in enumerate(corpus):
        total += len(abstract.sentences)
        if total >= n_sentences:
            return corpus[: i + 1]
    raise AssertionError("generated corpus is shorter than its guaranteed minimum")


def write_train_inputs(work: Path, seed: int, n_sentences: int) -> None:
    """The labelled RCT corpus file train-classifier reads."""
    corpus = _corpus_with_sentences(n_sentences, derived_seed(seed, _TRAIN_CORPUS))
    (work / CORPUS).write_text(ingest.serialize_rct(corpus), encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # python3 bench/inputs.py WORK SEED N_CLASSIFIER_SENTENCES N_SCORER_ABSTRACTS
    # (with src/ on PYTHONPATH) trains the grade-model fixtures in a process
    # of their own, so training memory stays out of the benchmark's peak RSS.
    work_dir, run_seed, n_sentences, n_abstracts = sys.argv[1:]
    write_model_fixtures(Path(work_dir), int(run_seed), int(n_sentences), int(n_abstracts))
