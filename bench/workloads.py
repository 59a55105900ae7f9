"""The three benchmark workloads: their inputs, CLI arguments and output checks.

- grade-model: ``afg grade`` with trained classifier and scorer files, the
  paper's production path; nn inference and tokenization dominate it.
- grade-oracle: the same cohort shape with fixed-label and fixed-score
  oracles, so nn and tokenize never run; report writing, segmentation,
  rules and reference scoring dominate. It bypasses every nn change.
- train-classifier: ``afg train-classifier`` on a labelled corpus, the
  write side of the encoder (forward, backward, Adam update).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import afg
import inputs
from afg import ingest

# Sizes at scale 1, chosen so one command takes about a second on a 2-core
# machine and a 30 s run repeats it 20 to 60 times.
GRADE_MODEL_SUBMISSIONS = 125
GRADE_ORACLE_SUBMISSIONS = 500
FIXTURE_CLASSIFIER_SENTENCES = 1200
FIXTURE_SCORER_ABSTRACTS = 100
TRAIN_SENTENCES = 720
TRAIN_EPOCHS = 2
TRAIN_BATCH = 64
TRAIN_FRACTION = 0.8
# A rate at which two epochs separate the synthetic classes, so accuracy is
# a steady signal rather than noise from an undertrained model.
TRAIN_LEARNING_RATE = 1e-2
FIXTURE_TIMEOUT_S = 120
ORACLE_SCORE = 0.5
ORACLE_ABSTRACT_MARK = 3

LABELS = ("BACKGROUND", "TECHNIQUE", "OBSERVATION")


class CheckFailed(Exception):
    """A command's outputs are missing or wrong."""


@dataclass
class Workload:
    name: str
    config: Path
    command: str
    items: int  # submissions graded, or training sentence-passes, per command
    first_item: tuple[str, str]  # (module, function) whose first call ends set-up
    check: Callable[[Path, int, str], float]  # (out dir, exit code, stdout) -> label accuracy
    sizes: dict

    def argv(self, out: Path) -> list[str]:
        return ["--config", str(self.config), "--out", str(out), "--json", self.command]


def prepare(name: str, work: Path, seed: int, scale: float) -> Workload:
    """Write the workload's inputs under ``work`` and describe its command."""
    def scaled(n: int, floor: int) -> int:
        return max(floor, round(n * scale))

    config_path = work / "config.json"
    if name in ("grade-model", "grade-oracle"):
        n = scaled(GRADE_MODEL_SUBMISSIONS if name == "grade-model"
                   else GRADE_ORACLE_SUBMISSIONS, 2)
        cohort = inputs.write_grade_inputs(work, seed, n)
        sizes = {"submissions": n, "sentences": cohort.n_sentences}
        if name == "grade-model":
            _train_fixtures(work, seed, scaled(FIXTURE_CLASSIFIER_SENTENCES, 24),
                            scaled(FIXTURE_SCORER_ABSTRACTS, 2))
            scorer, classifier = _model_spec("scorer"), _model_spec("classifier")
        else:
            scorer = {"type": "fixed_score", "score": ORACLE_SCORE}
            classifier = {"type": "fixed_labels", "path": inputs.ORACLE_LABELS}
        config = {"seed": seed, "grade": {
            "submissions": inputs.SUBMISSIONS, "keys": inputs.KEYS,
            "scorer_model": scorer, "classifier_model": classifier, "format": "markdown",
        }}
        workload = Workload(name, config_path, "grade", n, ("scoring", "mark_submission"),
                            _grade_check(cohort, oracle=name == "grade-oracle"), sizes)
    elif name == "train-classifier":
        n = scaled(TRAIN_SENTENCES, 24)
        inputs.write_train_inputs(work, seed, n)
        split = ingest.split(range(n), TRAIN_FRACTION, seed)
        config = {"seed": seed, "classifier": {
            "corpus": inputs.CORPUS, "max_sentences": n, "fraction": TRAIN_FRACTION,
            "epochs": TRAIN_EPOCHS, "batch_size": TRAIN_BATCH,
            "learning_rate": TRAIN_LEARNING_RATE,
        }}
        n_train, n_eval = len(split.train), len(split.eval)
        sizes = {"sentences": n, "train": n_train, "eval": n_eval, "epochs": TRAIN_EPOCHS}
        workload = Workload(name, config_path, "train-classifier", n_train * TRAIN_EPOCHS,
                            ("nn", "batch_loss_and_grads"), _train_check(n_train, n_eval), sizes)
    else:
        raise ValueError(f"unknown workload {name!r}")
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return workload


def _model_spec(name: str) -> dict:
    model, vocab = inputs.model_files(name)
    return {"type": "file", "path": model, "vocab": vocab}


def _train_fixtures(work: Path, seed: int, n_sentences: int, n_abstracts: int) -> None:
    """Run inputs.write_model_fixtures in a child process and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(Path(afg.__file__).resolve().parent.parent))
    subprocess.run(
        [sys.executable, inputs.__file__, str(work), str(seed), str(n_sentences), str(n_abstracts)],
        env=env, check=True, timeout=FIXTURE_TIMEOUT_S,
    )


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _summary(rc: int, stdout: str) -> dict:
    _require(rc == 0, f"command exited with {rc}")
    lines = stdout.strip().splitlines()
    _require(bool(lines), "command printed no JSON summary")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise CheckFailed("command's last stdout line is not JSON") from None


def _grade_check(cohort: inputs.GradeInputs, oracle: bool):
    ids = cohort.submission_ids

    def check(out: Path, rc: int, stdout: str) -> float:
        _require(_summary(rc, stdout).get("graded") == len(ids), "summary graded count is wrong")
        reports = sorted(p.name for p in (out / "reports").iterdir())
        _require(reports == [f"{sid}.md" for sid in ids], "not one report per submission")
        marks = _load_json(out / "marks.json")
        feedback = _load_json(out / "feedback.json")["reports"]
        _require([m["submission_id"] for m in marks] == ids, "marks.json ids out of order")
        _require([r["submission_id"] for r in feedback] == ids, "feedback.json ids out of order")
        for m in marks:
            sid = m["submission_id"]
            mark = m["abstract_mark"]
            _require(isinstance(mark, int) and 0 <= mark <= 6, f"{sid}: abstract mark {mark}")
            _require(not oracle or mark == ORACLE_ABSTRACT_MARK, f"{sid}: oracle mark {mark}")
            impact, cited = cohort.numeric_verdicts[sid]
            _require(m["q1_impact"]["verdict"] == impact, f"{sid}: q1 verdict")
            _require(m["q4_cited"]["verdict"] == cited, f"{sid}: q4 verdict")
            for q, exact in zip(("q2_rsc", "q3_acs"), cohort.exact_refs[sid]):
                _require(not exact or m[q]["verdict"] == "fully_correct", f"{sid}: {q} verdict")
        right = total = 0
        for report in feedback:
            for sentence in report["labeled_abstract"]:
                label = sentence["label"]
                _require(label in LABELS, f"{report['submission_id']}: label {label!r}")
                truth = cohort.true_labels.get(sentence["text"])
                _require(not oracle or label == truth,
                         f"{report['submission_id']}: label differs from the oracle table")
                right += label == truth
                total += 1
        _require(total == cohort.n_sentences, f"{total} labelled sentences, {cohort.n_sentences} written")
        return right / total

    return check


def _train_check(n_train: int, n_eval: int):
    def check(out: Path, rc: int, stdout: str) -> float:
        _summary(rc, stdout)
        for name in ("classifier.afgm", "classifier_vocab.txt"):
            _require((out / name).is_file(), f"{name} missing")
        train_log = _load_json(out / "classifier_log.json")
        steps = TRAIN_EPOCHS * math.ceil(n_train / TRAIN_BATCH)
        _require(train_log["steps_total"] == steps == len(train_log["entries"]),
                 "training log step count is wrong")
        evaluation = _load_json(out / "classifier_eval.json")
        _require(evaluation["n_eval"] == n_eval, "eval split size is wrong")
        accuracy = evaluation["accuracy"]
        _require(0.0 <= accuracy <= 1.0, f"accuracy {accuracy} outside [0, 1]")
        return accuracy

    return check
