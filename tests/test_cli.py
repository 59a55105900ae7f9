"""End-to-end CLI runs on tiny synthetic data and the marking example."""

import errno
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from afg import cli, feedback, nn, structure, textproc
from afg.cli import main
from afg.errors import AfgError, ConfigError, DataError, RowError, TrainingDivergedError
from afg.feedback import DEFAULT_RULES, build_report, rules_to_json
from afg.ingest import load_answer_keys, load_submissions
from afg.ingest import serialize_rct
from afg.nn import (
    CLASSIFICATION,
    EncoderConfig,
    classify_sentence,
    init_params,
    save_model,
    save_model_file,
)
from afg.structure import Label3
from afg.objectives import weight_p, LossSchedule
from afg.scoring import mark_submission
from afg.synthdata import generate_rct_corpus, generate_regression_samples
from afg.textproc import build_vocab

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path: Path, body: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    return path


def scored_tsv(tmp_path: Path, n=24, seed=9) -> Path:
    rows = ["id\tset\tessay\tscore"]
    for i, (text, score) in enumerate(generate_regression_samples(n, seed=seed)):
        rows.append(f"e{i}\t1\t{text}\t{round(score * 6)}")
    path = tmp_path / "corpus.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def pretrain_config(tmp_path: Path, out: Path) -> dict:
    corpus = scored_tsv(tmp_path)
    return {
        "seed": 5,
        "out_dir": str(out),
        "model": {"embed_dim": 8, "hidden_dim": 8, "attention_dim": 6},
        "vocab": {"max_size": 160, "min_frequency": 1},
        "pretrain": {
            "corpora": [
                {"path": str(corpus), "score_ranges": {"1": [0, 6]}}
            ],
            "epochs": 2,
            "batch_size": 8,
            "learning_rate": 0.002,
            "schedule": {"a": 1.0, "b": 0.1, "c": 10.0},
        },
    }


class TestPretrain:
    def test_happy_path_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, pretrain_config(tmp_path, out))
        assert main(["--config", str(cfg), "--json", "pretrain"]) == 0
        assert (out / "pretrained.afgm").exists()
        assert (out / "vocab.txt").exists()
        log = json.loads((out / "pretrain_log.json").read_text())
        assert log["seed"] == 5
        summary = json.loads(capsys.readouterr().out)
        assert summary["seed"] == 5

    def test_log_weight_column_nonincreasing_and_matches_formula(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, pretrain_config(tmp_path, out))
        assert main(["--config", str(cfg), "pretrain"]) == 0
        log = json.loads((out / "pretrain_log.json").read_text())
        entries = log["entries"]
        ps = [e["p"] for e in entries]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        sched = LossSchedule(T=log["steps_total"])
        for e in entries:
            assert e["p"] == pytest.approx(weight_p(e["step"], sched), abs=1e-12)

    def test_missing_corpus_exits_2_with_path(self, tmp_path, capsys):
        out = tmp_path / "out"
        body = pretrain_config(tmp_path, out)
        missing = str(tmp_path / "nowhere.tsv")
        body["pretrain"]["corpora"][0]["path"] = missing
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "pretrain"]) == 2
        assert "nowhere.tsv" in capsys.readouterr().err

    def test_named_columns_train_the_same_model(self, tmp_path):
        out, renamed_out = tmp_path / "out", tmp_path / "renamed_out"
        body = pretrain_config(tmp_path, out)
        assert main(["--config", str(write_config(tmp_path, body)), "pretrain"]) == 0
        corpus = Path(body["pretrain"]["corpora"][0]["path"])
        renamed = tmp_path / "renamed.tsv"
        rows = corpus.read_text(encoding="utf-8").split("\n", 1)[1]
        renamed.write_text("ident\tprompt\ttext\tmark\n" + rows, encoding="utf-8")
        body["pretrain"]["corpora"][0].update(path=str(renamed), prompt_col="prompt",
                                              text_col="text", score_col="mark")
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(renamed_out), "pretrain"]) == 0
        model = (out / "pretrained.afgm").read_bytes()
        assert (renamed_out / "pretrained.afgm").read_bytes() == model

    def test_infinite_score_range_exits_2_before_writing(self, tmp_path, capsys):
        # [0, 1e400] used to read as [0.0, inf] and pretrain on targets all 0.0.
        out = tmp_path / "out"
        body = pretrain_config(tmp_path, out)
        body["pretrain"]["corpora"][0]["score_ranges"] = {"1": [0, "max"]}
        cfg = write_config(tmp_path, body)
        cfg.write_text(cfg.read_text(encoding="utf-8").replace('"max"', "1e400"),
                       encoding="utf-8")
        assert main(["--config", str(cfg), "pretrain"]) == 2
        assert "score_ranges.1[1]: inf is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_score_range_wider_than_a_float_exits_2_before_writing(self, tmp_path, capsys):
        # [-1e308, 1e308] has a width of inf: pretrain used to exit 4, "training diverged".
        out = tmp_path / "out"
        body = pretrain_config(tmp_path, out)
        body["pretrain"]["corpora"][0]["score_ranges"] = {"1": [-1e308, 1e308]}
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "pretrain"]) == 2
        assert "invalid pretrain.corpora[0].score_ranges.1: [-1e+308, 1e+308] is not" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_missing_config_section_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "out_dir": str(tmp_path / "o")})
        assert main(["--config", str(cfg), "pretrain"]) == 2

    def test_env_var_config_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, pretrain_config(tmp_path, out))
        monkeypatch.setenv("AFG_CONFIG", str(cfg))
        assert main(["pretrain"]) == 0

    def test_no_config_anywhere_exits_2(self, monkeypatch):
        monkeypatch.delenv("AFG_CONFIG", raising=False)
        assert main(["pretrain"]) == 2


def submissions_with_marks(tmp_path: Path, n=12, seed=3) -> Path:
    subs = []
    for i, (text, score) in enumerate(
        generate_regression_samples(n, seed=seed, family="B")
    ):
        subs.append(
            {
                "submission_id": f"s{i:02d}",
                "paper_id": "p1",
                "impact_factor": 4.5,
                "ref_rsc": "A. Author, J. Chem., 2020, 1, 1-2.",
                "ref_acs": "Author, A. J. Chem. 2020, 1, 1-2.",
                "times_cited": 7,
                "abstract": text.capitalize() + ".",
                "human_marks": {
                    "q1_impact": 1, "q2_rsc": 1, "q3_acs": 1, "q4_cited": 1,
                    "abstract_mark": round(score * 6),
                },
            }
        )
    path = tmp_path / "submissions.json"
    path.write_text(json.dumps(subs), encoding="utf-8")
    return path


class TestFinetuneAndEval:
    def test_finetune_then_eval(self, tmp_path):
        out = tmp_path / "out"
        base = pretrain_config(tmp_path, out)
        cfg = write_config(tmp_path, base)
        assert main(["--config", str(cfg), "pretrain"]) == 0

        subs = submissions_with_marks(tmp_path)
        body = {
            **base,
            "finetune": {
                "base_model": {
                    "path": str(out / "pretrained.afgm"),
                    "vocab": str(out / "vocab.txt"),
                },
                "submissions": str(subs),
                "fraction": 0.8,
                "epochs": 2,
                "batch_size": 4,
                "learning_rate": 0.001,
            },
            "eval": {
                "submissions": str(subs),
                "scorer_model": {
                    "type": "file",
                    "path": str(out / "finetuned.afgm"),
                    "vocab": str(out / "vocab.txt"),
                },
            },
        }
        cfg2 = write_config(tmp_path, body)
        assert main(["--config", str(cfg2), "finetune"]) == 0
        eval_json = json.loads((out / "finetune_eval.json").read_text())
        assert {"r2_paper", "r2_standard", "mae", "rmse", "max_error"} <= set(eval_json)

        assert main(["--config", str(cfg2), "eval"]) == 0
        report = json.loads((out / "eval.json").read_text())
        assert report["n"] == 12
        cm = report["confusion"]
        assert cm["n_classes"] == 7
        assert len(cm["counts"]) == 7 and all(len(row) == 7 for row in cm["counts"])
        assert sum(sum(row) for row in cm["counts"]) == 12

    def test_missing_base_model_exits_2(self, tmp_path):
        out = tmp_path / "out"
        subs = submissions_with_marks(tmp_path)
        body = {
            "seed": 1,
            "out_dir": str(out),
            "finetune": {
                "base_model": {"path": str(tmp_path / "missing.afgm"),
                               "vocab": str(tmp_path / "missing.txt")},
                "submissions": str(subs),
            },
        }
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "finetune"]) == 2

    def test_one_marked_submission_exits_3(self, tmp_path, capsys):
        subs = submissions_with_marks(tmp_path, n=1)
        vocab = build_vocab(["tiny corpus text"], max_size=40, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=4,
                               attention_dim=3)
        save_model_file(tmp_path / "base.afgm", init_params(config), config)
        vocab.save(tmp_path / "vocab.txt")
        body = {
            "seed": 1,
            "out_dir": str(tmp_path / "out"),
            "finetune": {
                "base_model": {"path": str(tmp_path / "base.afgm"),
                               "vocab": str(tmp_path / "vocab.txt")},
                "submissions": str(subs),
            },
        }
        assert main(["--config", str(write_config(tmp_path, body)), "finetune"]) == 3
        assert "need at least 2 samples" in capsys.readouterr().err

    def test_one_held_out_sample_exits_3_before_writing(self, tmp_path, capsys):
        # Five marked submissions at the default 0.8 split hold out one.
        subs = submissions_with_marks(tmp_path, n=5)
        vocab = build_vocab(["tiny corpus text"], max_size=40, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=4,
                               attention_dim=3)
        save_model_file(tmp_path / "base.afgm", init_params(config), config)
        vocab.save(tmp_path / "vocab.txt")
        body = {
            "seed": 1,
            "out_dir": str(tmp_path / "out"),
            "finetune": {
                "base_model": {"path": str(tmp_path / "base.afgm"),
                               "vocab": str(tmp_path / "vocab.txt")},
                "submissions": str(subs), "epochs": 1,
            },
        }
        assert main(["--config", str(write_config(tmp_path, body)), "finetune"]) == 3
        assert "need at least 2 elements, got 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_constant_scores_exit_3_before_writing(self, tmp_path, capsys):
        body = {
            "seed": 1,
            "out_dir": str(tmp_path / "out"),
            "eval": {"submissions": str(submissions_with_marks(tmp_path, n=2)),
                     "scorer_model": {"type": "fixed_score", "score": 0.5}},
        }
        assert main(["--config", str(write_config(tmp_path, body)), "eval"]) == 3
        assert "degenerate variance: constant predictions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTrainClassifier:
    def test_small_run_reports_accuracy(self, tmp_path):
        corpus = tmp_path / "rct.txt"
        corpus.write_text(serialize_rct(generate_rct_corpus(60, seed=4)), encoding="utf-8")
        out = tmp_path / "out"
        body = {
            "seed": 2,
            "out_dir": str(out),
            "model": {"embed_dim": 12, "hidden_dim": 12, "attention_dim": 8},
            "vocab": {"max_size": 220, "min_frequency": 1},
            "classifier": {
                "corpus": str(corpus),
                "fraction": 0.9,
                "epochs": 2,
                "batch_size": 16,
                "learning_rate": 0.002,
                "max_sentences": 300,
            },
        }
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "train-classifier"]) == 0
        report = json.loads((out / "classifier_eval.json").read_text())
        assert report["accuracy"] >= report["majority_baseline"]
        assert (out / "classifier.afgm").exists()

    def test_write_past_the_file_size_limit_names_the_model_file(self, tmp_path):
        # A child process under RLIMIT_FSIZE: the kernel refuses the model file's write
        # past 4 KiB with EFBIG (Python ignores SIGXFSZ), and the message names the file.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, command_config(tmp_path, "train-classifier", out))
        script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)); "
                  "from afg.cli import main; sys.exit(main(sys.argv[1:]))")
        run = subprocess.run(
            [sys.executable, "-c", script, "--config", str(cfg), "train-classifier"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent),
                     PYTHONDONTWRITEBYTECODE="1"))
        assert run.returncode == 2
        assert os.strerror(errno.EFBIG) in run.stderr
        assert str(out / "classifier.afgm") in run.stderr

    def test_deterministic_across_runs(self, tmp_path):
        corpus = tmp_path / "rct.txt"
        corpus.write_text(serialize_rct(generate_rct_corpus(40, seed=4)), encoding="utf-8")
        body = {
            "seed": 2,
            "model": {"embed_dim": 8, "hidden_dim": 8, "attention_dim": 6},
            "vocab": {"max_size": 200, "min_frequency": 1},
            "classifier": {"corpus": str(corpus), "epochs": 1, "batch_size": 16,
                           "max_sentences": 150},
        }
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "--out", str(out1), "train-classifier"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "train-classifier"]) == 0
        assert (out1 / "classifier.afgm").read_bytes() == (out2 / "classifier.afgm").read_bytes()

    def test_given_vocabulary_file_is_the_models(self, tmp_path):
        corpus = tmp_path / "rct.txt"
        corpus.write_text(serialize_rct(generate_rct_corpus(20, seed=4)), encoding="utf-8")
        # A vocabulary from other texts, which the corpus's own would not equal.
        given = tmp_path / "given_vocab.txt"
        build_vocab([text for abstract in generate_rct_corpus(10, seed=8)
                     for _, text in abstract.sentences], max_size=120, min_frequency=1).save(given)
        out = tmp_path / "out"
        body = {
            "seed": 2, "out_dir": str(out),
            "model": {"embed_dim": 8, "hidden_dim": 8, "attention_dim": 6},
            "vocab": {"path": str(given)},
            "classifier": {"corpus": str(corpus), "epochs": 1, "batch_size": 16},
        }
        assert main(["--config", str(write_config(tmp_path, body)), "train-classifier"]) == 0
        assert (out / "classifier_vocab.txt").read_bytes() == given.read_bytes()
        _, config = nn.load_model_file(out / "classifier.afgm")
        assert config.vocab_size == len(given.read_text(encoding="utf-8").splitlines())

    def test_one_sentence_corpus_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "rct.txt"
        corpus.write_text("###1\nMETHOD\tWe measured the samples twice.\n", encoding="utf-8")
        body = {"seed": 2, "out_dir": str(tmp_path / "out"), "classifier": {"corpus": str(corpus)}}
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "train-classifier"]) == 3
        assert "need at least 2 samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diverged_training_prints_only_the_error(self, tmp_path, capsys, recwarn):
        corpus = tmp_path / "rct.txt"
        corpus.write_text(serialize_rct(generate_rct_corpus(20, seed=4)), encoding="utf-8")
        body = {
            "seed": 2, "out_dir": str(tmp_path / "out"),
            "model": {"embed_dim": 8, "hidden_dim": 8, "attention_dim": 6},
            "vocab": {"max_size": 200, "min_frequency": 1},
            "classifier": {"corpus": str(corpus), "epochs": 2, "batch_size": 16,
                           "learning_rate": 1e300},
        }
        assert main(["--config", str(write_config(tmp_path, body)), "train-classifier"]) == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("training error: ") and "step" in line
        assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "out").exists()

    def test_weights_past_float32_exit_4_without_a_model(self, tmp_path, capsys):
        # One step over the whole train split: its loss is finite, but a learning
        # rate of 1e40 moves the weights past the float32 range.
        out = tmp_path / "out"
        body = command_config(tmp_path, "train-classifier", out)
        body["classifier"].update(epochs=1, batch_size=10_000, learning_rate=1e40)
        assert main(["--config", str(write_config(tmp_path, body)), "train-classifier"]) == 4
        assert capsys.readouterr().err == (
            "training error: training diverged at step 1 (non-finite float32 weights)\n")
        assert not out.exists()


# Every row of the parametrized tables below has an explicit id, so rewording a message
# or removing a row renames no other row. The rows that predate explicit ids keep the ids
# pytest generated for them, from their command, position, value and message.
BAD_CONFIG_VALUES = {
    "pretrain-keys0-0": ("pretrain", ("pretrain", "epochs"), 0),
    "pretrain-keys1-x": ("pretrain", ("pretrain", "epochs"), "x"),
    "pretrain-keys2-0": ("pretrain", ("pretrain", "batch_size"), 0),
    "pretrain-keys3--1": ("pretrain", ("pretrain", "learning_rate"), -1),
    "pretrain-keys4-0": ("pretrain", ("model", "embed_dim"), 0),
    "pretrain-keys5-2": ("pretrain", ("pretrain", "schedule", "a"), 2),
    "train-classifier-keys6-1.5": ("train-classifier", ("classifier", "fraction"), 1.5),
    "train-classifier-keys7-x": ("train-classifier", ("classifier", "max_sentences"), "x"),
    "pretrain-keys8-x": ("pretrain", ("seed",), "x"),
    "pretrain-keys9--1": ("pretrain", ("seed",), -1),
    "pretrain-keys10-9223372036854775808": ("pretrain", ("seed",), 2**63),
    "pretrain-keys11-x": ("pretrain", ("vocab", "max_size"), "x"),
    "pretrain-keys12-2": ("pretrain", ("vocab", "max_size"), 2),
    "pretrain-keys13-x": ("pretrain", ("vocab", "min_frequency"), "x"),
    "train-classifier-keys14-0.0": ("train-classifier", ("classifier", "fraction"), 0.0),
    "train-classifier-keys15-1.0": ("train-classifier", ("classifier", "fraction"), 1.0),
    "model.hidden_dim-0": ("pretrain", ("model", "hidden_dim"), 0),
    "model.attention_dim--1": ("pretrain", ("model", "attention_dim"), -1),
    "model.max_sequence_length-0": ("train-classifier", ("model", "max_sequence_length"), 0),
}


@pytest.mark.parametrize("command, keys, value", list(BAD_CONFIG_VALUES.values()),
                         ids=list(BAD_CONFIG_VALUES))
def test_bad_config_value_exits_2_before_writing(tmp_path, capsys, command, keys, value):
    out = tmp_path / "out"
    if command == "pretrain":
        body = pretrain_config(tmp_path, out)
    else:
        corpus = tmp_path / "rct.txt"
        corpus.write_text(serialize_rct(generate_rct_corpus(10, seed=4)), encoding="utf-8")
        body = {"seed": 2, "out_dir": str(out),
                "model": {"embed_dim": 8, "hidden_dim": 8, "attention_dim": 6},
                "classifier": {"corpus": str(corpus), "epochs": 1}}
    section = body
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    assert main(["--config", str(write_config(tmp_path, body)), command]) == 2
    assert "configuration error: invalid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section", [
    ("grade", None),
    ("grade", "grade"),
    ("grade", "model"),
    ("grade", "vocab"),
    ("grade", "segmenter"),
    ("train-classifier", "classifier"),
    ("train-classifier", "model"),
    ("train-classifier", "vocab"),
])
def test_non_object_config_exits_2_before_writing(tmp_path, capsys, command, section):
    out = tmp_path / "out"
    if command == "grade":
        body = grade_config(tmp_path, out)
    else:
        corpus = tmp_path / "rct.txt"
        corpus.write_text(serialize_rct(generate_rct_corpus(10, seed=4)), encoding="utf-8")
        body = {"seed": 2, "classifier": {"corpus": str(corpus), "epochs": 1}}
    if section is None:
        body = []
    else:
        body[section] = []
    cfg = write_config(tmp_path, body)
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert "is not a JSON object" in capsys.readouterr().err
    assert not out.exists()


def grade_config(tmp_path: Path, out: Path, fmt="markdown") -> dict:
    return {
        "seed": 7,
        "out_dir": str(out),
        "grade": {
            "submissions": str(DATA / "example_submissions.json"),
            "keys": str(DATA / "example_keys.json"),
            "scorer_model": {"type": "fixed_score", "score": 0.5},
            "classifier_model": {"type": "fixed_labels",
                                 "path": str(DATA / "oracle_labels.json")},
            "format": fmt,
        },
    }


class TestGrade:
    def test_marking_example_marks_and_feedback(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, grade_config(tmp_path, out))
        assert main(["--config", str(cfg), "grade"]) == 0
        marks = json.loads((out / "marks.json").read_text())
        assert isinstance(marks, list) and len(marks) == 1
        sheet = marks[0]
        assert sheet["q1_impact"]["value"] == 1
        assert sheet["q2_rsc"]["value"] == 1
        assert sheet["q3_acs"]["value"] == 1
        assert sheet["q4_cited"]["value"] == 0
        assert sheet["abstract_mark"] == 3
        feedback = json.loads((out / "feedback.json").read_text())["reports"][0]
        assert feedback["abstract_comments"] == [
            "A more balanced discussion of the background of the paper, the techniques "
            "of the paper and the observations and conclusions the paper made might "
            "improve your work.",
            "It might be worth outlining the methods of the paper in greater detail.",
            "The abstract contains discussion of each aspect of the paper in a logical "
            "order.",
        ]
        assert (out / "reports" / "ex2.md").exists()

    def test_a_submission_graded_alone_gets_what_it_gets_in_the_cohort(self, tmp_path):
        # Abstracts of varied label mixes, some shuffled out of order and one used
        # twice, so the cohort's rows fire different rule sets.
        rng = np.random.default_rng(4)
        example = json.loads((DATA / "example_submissions.json").read_text())[0]
        subs, table = [], {}
        for i, abstract in enumerate(generate_rct_corpus(24, seed=4)):
            n = len(abstract.sentences)
            kept = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            picked = [abstract.sentences[k] for k in (rng.permutation(kept) if i % 3 else kept)]
            table.update((text, structure.map_label(label).name) for label, text in picked)
            subs.append(dict(example, submission_id=f"c{i:02d}", times_cited=10 + i,
                             abstract=" ".join(text for _, text in picked)))
        subs.append(dict(subs[5], submission_id="c99"))
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(table), encoding="utf-8")

        def grade(name: str, cohort: list) -> tuple[Path, list[str], list[str]]:
            out = tmp_path / name
            body = grade_config(tmp_path, out)
            body["grade"]["submissions"] = str(self._grade_subs(tmp_path, cohort))
            body["grade"]["classifier_model"]["path"] = str(labels)
            assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 0
            records = [[line.rstrip(",") for line in (out / file).read_text().splitlines()[1:-1]]
                       for file in ("marks.json", "feedback.json")]
            return out, *records

        out, marks, reports = grade("cohort", subs)
        assert len({tuple(json.loads(r)["abstract_comments"]) for r in reports}) > 3
        for i, sub in enumerate(sorted(subs, key=lambda s: s["submission_id"])):
            alone, alone_marks, alone_reports = grade(sub["submission_id"], [sub])
            assert (alone_marks, alone_reports) == ([marks[i]], [reports[i]])
            report = f"reports/{sub['submission_id']}.md"
            assert (alone / report).read_bytes() == (out / report).read_bytes()

    def test_empty_submission_file_exits_3(self, tmp_path):
        out = tmp_path / "out"
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(empty)
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 3

    def _grade_subs(self, tmp_path, subs) -> Path:
        path = tmp_path / "subs.json"
        path.write_text(json.dumps(subs), encoding="utf-8")
        return path

    def test_missing_answer_key_exits_3_before_writing(self, tmp_path):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["paper_id"] = "no-such-paper"
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 3
        assert not out.exists()

    def test_duplicate_submission_id_exits_3_before_writing(self, tmp_path):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs.append(dict(subs[0], times_cited=3))
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("scorer", [
        {"type": "fixed_score", "score": 1.5},
        {"type": "fixed_score", "score": -0.25},
        {"type": "fixed_score", "score": "high"},
        {"type": "fixed_score"},
    ])
    def test_bad_fixed_score_exits_2(self, tmp_path, scorer):
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["scorer_model"] = scorer
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 2
        assert not out.exists()

    def test_bad_rule_file_exits_2_before_writing(self, tmp_path):
        # An unknown comparator used to raise only when the rule was first
        # evaluated, after reports/ had been created.
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"id": "r", "class": "background", "comparator": "zz",
                                      "threshold": 0.4, "template": "t", "priority": 1}]),
                         encoding="utf-8")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["rules"] = str(rules)
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 2
        assert not out.exists()

    def test_json_outputs_hold_one_record_per_line(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(write_config(tmp_path, grade_config(tmp_path, out))),
                     "grade"]) == 0
        # The objects grade builds, assembled here from the library calls.
        keys = load_answer_keys(DATA / "example_keys.json")
        classify = structure.make_fixed_classifier(
            json.loads((DATA / "oracle_labels.json").read_text()))
        marks, reports = [], []
        for sub in sorted(load_submissions(DATA / "example_submissions.json"),
                          key=lambda s: s.submission_id):
            sheet = mark_submission(sub, keys[sub.paper_id], lambda text: 0.5)
            sentences = textproc.segment_sentences(sub.abstract)
            labeled = structure.classify_abstract(sentences, classify)
            marks.append({"submission_id": sub.submission_id, **sheet.to_json_dict()})
            reports.append(build_report(sub.submission_id, sheet, labeled).to_json_dict())
        feedback = {"seed": 7, "reports": reports}
        for name, built in (("marks.json", marks), ("feedback.json", feedback)):
            assert json.loads((out / name).read_text()) == json.loads(json.dumps(built, indent=2))
        assert (out / "marks.json").read_text() == (
            "[\n" + ",\n".join(map(json.dumps, marks)) + "\n]\n")
        assert (out / "feedback.json").read_text() == (
            '{"seed": 7, "reports": [\n' + ",\n".join(map(json.dumps, reports)) + "\n]}\n")

    def test_json_outputs_match_the_goldens(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(write_config(tmp_path, grade_config(tmp_path, out))),
                     "grade"]) == 0
        for name in ("marks.json", "feedback.json"):
            assert (out / name).read_bytes() == (GOLDEN / f"example_{name}").read_bytes()

    def test_blank_reference_exits_3_before_writing(self, tmp_path):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["ref_rsc"] = "  "
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 3
        assert not out.exists()

    def test_fractional_citation_count_exits_3_before_writing(self, tmp_path):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["times_cited"] = 3.9
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 3
        assert not out.exists()

    def test_classifier_truncates_at_the_model_length(self, tmp_path):
        words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
        vocab = build_vocab([" ".join(words)], max_size=200, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               attention_dim=6, head=CLASSIFICATION, n_classes=3, seed=1,
                               max_sequence_length=4)
        params = init_params(config)
        save_model_file(tmp_path / "clf.afgm", params, config)
        vocab.save(tmp_path / "clf_vocab.txt")
        sentence = " ".join(words).capitalize()
        prefix = " ".join(words[:4]).capitalize()
        expected = classify_sentence(prefix, nn.Predictor(params, config, vocab))
        best = int(np.argmax(expected))
        # Seed 1 makes the untruncated sentence get another label.
        untruncated = nn.Predictor(params, replace(config, max_sequence_length=512), vocab)
        assert int(np.argmax(classify_sentence(sentence, untruncated))) != best

        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["abstract"] = sentence
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        body["grade"]["classifier_model"] = {
            "type": "file", "path": str(tmp_path / "clf.afgm"),
            "vocab": str(tmp_path / "clf_vocab.txt"),
        }
        cfg = write_config(tmp_path, body)
        with pytest.warns(UserWarning, match="truncated"):
            assert main(["--config", str(cfg), "grade"]) == 0
        labeled = json.loads((out / "feedback.json").read_text())["reports"][0]["labeled_abstract"]
        assert [s["label"] for s in labeled] == [Label3(best).name]
        assert labeled[0]["confidence"] == pytest.approx(expected[best], abs=1e-12)

    def test_model_classifier_segments_each_abstract_once(self, tmp_path, monkeypatch):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs.append(dict(subs[0], submission_id="ex3",
                         abstract="Another abstract. It has two sentences."))
        vocab = build_vocab([s["abstract"] for s in subs], max_size=200, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               attention_dim=6, head=CLASSIFICATION, n_classes=3, seed=1)
        save_model_file(tmp_path / "clf.afgm", init_params(config), config)
        vocab.save(tmp_path / "clf_vocab.txt")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        body["grade"]["classifier_model"] = {
            "type": "file", "path": str(tmp_path / "clf.afgm"),
            "vocab": str(tmp_path / "clf_vocab.txt"),
        }
        segmented = []

        def counting(text, abbreviations=textproc.DEFAULT_ABBREVIATIONS):
            segmented.append(text)
            return textproc.segment_sentences(text, abbreviations)

        monkeypatch.setattr(cli, "segment_sentences", counting)
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 0
        assert sorted(segmented) == sorted(s["abstract"] for s in subs)
        labeled = json.loads((out / "feedback.json").read_text())["reports"][1]
        assert [s["text"] for s in labeled["labeled_abstract"]] == [
            "Another abstract.", "It has two sentences.",
        ]

    @pytest.mark.parametrize("problem,message", [
        ("five_classes", "clf.afgm has a 5-wide head, 3 needed"),
        ("regression_head", "clf.afgm has a 1-wide head, 3 needed"),
        ("short_vocabulary", "clf_vocab.txt has"),
    ])
    def test_mismatched_classifier_model_exits_2_before_writing(self, tmp_path, capsys,
                                                                problem, message):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        vocab = build_vocab([s["abstract"] for s in subs], max_size=200, min_frequency=1)
        head = {"five_classes": {"head": CLASSIFICATION, "n_classes": 5},
                "regression_head": {},
                "short_vocabulary": {"head": CLASSIFICATION, "n_classes": 3}}[problem]
        config = EncoderConfig(vocab_size=len(vocab) + (problem == "short_vocabulary"),
                               embed_dim=8, hidden_dim=8, attention_dim=6, seed=1, **head)
        params = init_params(config)
        # Class 4 wins every sentence, a label the three-class scheme lacks.
        params.head_b[-1] = 10.0
        save_model_file(tmp_path / "clf.afgm", params, config)
        vocab.save(tmp_path / "clf_vocab.txt")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["classifier_model"] = {
            "type": "file", "path": str(tmp_path / "clf.afgm"),
            "vocab": str(tmp_path / "clf_vocab.txt"),
        }
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "reports").exists()

    @pytest.mark.parametrize("problem,message", [
        ("repeated_token", "duplicate tokens in vocabulary file"),
        ("head_code_7", "unknown head code 7"),
        ("vocab_size_0", "vocab_size must be positive"),
    ])
    def test_unreadable_classifier_files_exit_3_before_writing(self, tmp_path, capsys,
                                                               problem, message):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        vocab = build_vocab([s["abstract"] for s in subs], max_size=200, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               attention_dim=6, head=CLASSIFICATION, n_classes=3, seed=1)
        blob = bytearray(save_model(init_params(config), config))
        # The config block follows the 5-byte header, eight int64 fields in
        # EncoderConfig order: vocab_size is field 0 and the head code field 4.
        field, value = {"head_code_7": (4, 7), "vocab_size_0": (0, 0)}.get(problem, (None, 0))
        if field is not None:
            blob[5 + 8 * field : 13 + 8 * field] = struct.pack("<q", value)
            blob[-8:] = hashlib.blake2b(bytes(blob[5:-8]), digest_size=8).digest()
        (tmp_path / "clf.afgm").write_bytes(blob)
        vocab.save(tmp_path / "clf_vocab.txt")
        if problem == "repeated_token":
            with open(tmp_path / "clf_vocab.txt", "a", encoding="utf-8") as f:
                f.write(vocab.id_to_token[-1] + "\n")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["classifier_model"] = {
            "type": "file", "path": str(tmp_path / "clf.afgm"),
            "vocab": str(tmp_path / "clf_vocab.txt"),
        }
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unlabelled_sentence_in_a_later_submission_writes_nothing(self, tmp_path, capsys):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs.append(dict(subs[0], submission_id="zz-2",
                         abstract=subs[0]["abstract"] + " This sentence has no fixed label."))
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        assert "no fixed label for sentence 'This sentence" in capsys.readouterr().err
        assert not out.exists()

    def test_each_model_pass_gets_its_texts_in_input_order_once(self, tmp_path, monkeypatch):
        # A pass's length-bucketed chunks, and so its output bits, follow the
        # batch order: each text once, at its first occurrence in the input.
        example = json.loads((DATA / "example_submissions.json").read_text())[0]
        a = "Alkylation of amines matters. We heated the amines. Yields were high."
        b = "We heated the amines. Ethanol was used. Methanol was slower."
        c = "Catalysts are costly. Yields were high."
        subs = [dict(example, submission_id=sid, abstract=text,
                     human_marks={"q1_impact": 1, "q2_rsc": 1, "q3_acs": 1, "q4_cited": 1,
                                  "abstract_mark": mark})
                for sid, text, mark in (("zz", a, 1), ("aa", b, 5), ("mm", a, 3), ("bb", c, 2))]
        vocab = build_vocab([a, b, c], max_size=200, min_frequency=1)
        vocab.save(tmp_path / "vocab.txt")
        models = {}
        for name, head in (("scorer", {}), ("classifier", {"head": CLASSIFICATION,
                                                             "n_classes": 3})):
            config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                                   attention_dim=6, seed=1, **head)
            save_model_file(tmp_path / f"{name}.afgm", init_params(config), config)
            models[name] = {"type": "file", "path": str(tmp_path / f"{name}.afgm"),
                            "vocab": str(tmp_path / "vocab.txt")}
        body = grade_config(tmp_path, tmp_path / "out")
        body["grade"].update(submissions=str(self._grade_subs(tmp_path, subs)),
                             scorer_model=models["scorer"],
                             classifier_model=models["classifier"])
        body["eval"] = {"submissions": body["grade"]["submissions"],
                        "scorer_model": models["scorer"]}
        batches = []

        def recording(method):
            def record(self, texts):
                batches.append((method.__name__, list(texts)))
                return method(self, texts)
            return record

        for name in ("scores", "probabilities"):
            monkeypatch.setattr(nn.Predictor, name, recording(getattr(nn.Predictor, name)))
        cfg = str(write_config(tmp_path, body))
        assert main(["--config", cfg, "grade"]) == 0
        sentences = list(dict.fromkeys(
            t for text in (a, b, c) for t in textproc.segment_sentences(text)))
        assert sentences == ["Alkylation of amines matters.", "We heated the amines.",
                             "Yields were high.", "Ethanol was used.", "Methanol was slower.",
                             "Catalysts are costly."]
        assert batches == [("scores", [a, b, c]), ("probabilities", sentences)]
        batches.clear()
        assert main(["--config", cfg, "eval"]) == 0
        assert batches == [("scores", [a, b, c])]

    def test_non_ascii_abstract_grades_with_models_and_keeps_its_text(self, tmp_path):
        # Chemistry abstracts hold units and symbols outside ASCII; "İ" is one of
        # the characters whose lowercase is longer, which tokenizing keeps as is.
        sentences = ["The α-helix bound the ligand at 3 µM.",
                     "Samples from İzmir were stirred at 25 °C.",
                     "Yields rose by 12 % (Δ = 0.4 kJ/mol)."]
        abstract = " ".join(sentences)
        example = json.loads((DATA / "example_submissions.json").read_text())[0]
        subs = [dict(example, abstract=abstract)]
        vocab = build_vocab([abstract], max_size=200, min_frequency=1)
        vocab.save(tmp_path / "vocab.txt")
        body = grade_config(tmp_path, tmp_path / "out")
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        for name, head in (("scorer", {}), ("classifier", {"head": CLASSIFICATION,
                                                             "n_classes": 3})):
            config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                                   attention_dim=6, seed=1, **head)
            save_model_file(tmp_path / f"{name}.afgm", init_params(config), config)
            body["grade"][f"{name}_model"] = {"type": "file",
                                              "path": str(tmp_path / f"{name}.afgm"),
                                              "vocab": str(tmp_path / "vocab.txt")}
        outputs = []
        for run in ("first", "second"):
            body["out_dir"] = str(tmp_path / run)
            assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 0
            out = tmp_path / run
            outputs.append({str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        report = json.loads(outputs[0]["feedback.json"])["reports"][0]
        assert [s["text"] for s in report["labeled_abstract"]] == sentences
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("spec", ["scorer_model", "classifier_model"])
    def test_non_finite_model_weight_exits_3_before_writing(self, tmp_path, capsys, spec):
        # At float32 the head bias is NaN; the file's checksum is valid.
        subs = json.loads((DATA / "example_submissions.json").read_text())
        vocab = build_vocab([s["abstract"] for s in subs], max_size=200, min_frequency=1)
        head = {"head": CLASSIFICATION, "n_classes": 3} if spec == "classifier_model" else {}
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               attention_dim=6, seed=1, **head)
        params = init_params(config)
        params.head_b[0] = np.nan
        save_model_file(tmp_path / "model.afgm", params, config)
        vocab.save(tmp_path / "vocab.txt")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"][spec] = {"type": "file", "path": str(tmp_path / "model.afgm"),
                               "vocab": str(tmp_path / "vocab.txt")}
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        assert "non-finite weight" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["scorer_model", "classifier_model"])
    def test_non_finite_model_output_exits_3_before_writing(self, tmp_path, capsys, spec):
        # Every weight is a finite float32, but the saturated gates and a head of
        # 3e38 overflow the logits in any summation order: unchecked, the scorer's
        # sigmoid gave a NaN score, the classifier NaN confidences.
        subs = json.loads((DATA / "example_submissions.json").read_text())
        vocab = build_vocab([s["abstract"] for s in subs], max_size=200, min_frequency=1)
        head = {"head": CLASSIFICATION, "n_classes": 3} if spec == "classifier_model" else {}
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               attention_dim=6, seed=1, **head)
        params = init_params(config)
        params.fw_b[:] = params.bw_b[:] = 50.0
        params.head_w[:] = 3e38
        save_model_file(tmp_path / "model.afgm", params, config)
        vocab.save(tmp_path / "vocab.txt")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"][spec] = {"type": "file", "path": str(tmp_path / "model.afgm"),
                               "vocab": str(tmp_path / "vocab.txt")}
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        err = capsys.readouterr().err
        assert "non-finite model output for text" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", [
        "../escaped", "zz/sub", "a\\b", "", ".", "..", "a\x00b", "a\ud800", "a\nb",
        "\u00e9" * 127,
    ])
    def test_id_that_cannot_name_a_report_exits_3_before_writing(self, tmp_path, capsys,
                                                                  bad_id):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs.append(dict(subs[0], submission_id=bad_id))
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        assert "cannot name a report file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        pytest.param("submission_id", 10**299, id="submission_id-int"),
        ("submission_id", None), ("submission_id", [1]), ("paper_id", True),
    ])
    def test_id_that_is_not_a_string_exits_3_before_writing(self, tmp_path, capsys, field,
                                                            value):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs.append(dict(subs[0], **{field: value}))
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        assert f"submission #1: {field} " in capsys.readouterr().err
        assert not out.exists()

    def test_id_of_a_255_byte_file_name_is_graded(self, tmp_path):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["submission_id"] = "\u00e9" * 126  # 252 bytes, then ".md"
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 0
        assert (out / "reports" / ("\u00e9" * 126 + ".md")).exists()

    def _grade_citations(self, tmp_path, given, correct) -> tuple[int, Path]:
        """Grade the example with these citation counts in the submission and the key."""
        subs = json.loads((DATA / "example_submissions.json").read_text())
        keys = json.loads((DATA / "example_keys.json").read_text())
        subs[0]["times_cited"], keys[0]["times_cited"] = given, correct
        (tmp_path / "keys.json").write_text(json.dumps(keys), encoding="utf-8")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"].update(submissions=str(self._grade_subs(tmp_path, subs)),
                             keys=str(tmp_path / "keys.json"))
        return main(["--config", str(write_config(tmp_path, body)), "grade"]), out

    @pytest.mark.parametrize("given, correct", [(10**399, 42), (10, 10**399)])
    def test_citation_count_beyond_float_range_exits_3_before_writing(self, tmp_path, capsys,
                                                                      given, correct):
        code, out = self._grade_citations(tmp_path, given, correct)
        assert code == 3
        assert "is not an integer within float range" in capsys.readouterr().err
        assert not out.exists()

    def test_citation_difference_beyond_float_range_is_incorrect(self, tmp_path):
        code, out = self._grade_citations(tmp_path, 10**308, 1)
        assert code == 0
        [sheet] = json.loads((out / "marks.json").read_text())
        assert sheet["q4_cited"] == {"value": 0, "verdict": "incorrect",
                                     "evidence": "percentage difference inf%"}

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("times_cited", -(10**308), "negative citation count",
                     id="times_cited--1e308"),
        ("times_cited", -5, "negative citation count"),
        ("impact_factor", -3, "impact factor must be > 0"),
        ("impact_factor", 0, "impact factor must be > 0"),
        ("paper_id", True, "paper_id True is not a string"),
    ])
    def test_answer_key_checked_like_a_submission_exits_3_before_writing(
            self, tmp_path, capsys, field, value, message):
        keys = json.loads((DATA / "example_keys.json").read_text())
        keys[0][field] = value
        (tmp_path / "keys.json").write_text(json.dumps(keys), encoding="utf-8")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["keys"] = str(tmp_path / "keys.json")
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        err = capsys.readouterr().err
        assert "answer key #0: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt, flags, golden", [
        ("markdown", [], "example2_report.md"),
        ("html", [], "example2_report.html"),
        ("terminal", ["--no-color"], "example2_report.txt"),
        ("terminal", [], "example2_report_color.txt"),
    ])
    def test_written_report_matches_the_golden(self, tmp_path, fmt, flags, golden):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, grade_config(tmp_path, out, fmt))
        assert main(["--config", str(cfg), *flags, "grade"]) == 0
        [report] = (out / "reports").iterdir()
        assert report.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_short_writes_give_the_same_files(self, tmp_path, monkeypatch):
        def grade(out: Path) -> dict:
            cfg = write_config(tmp_path, grade_config(tmp_path, out))
            assert main(["--config", str(cfg), "grade"]) == 0
            return {path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*")) if path.is_file()}

        whole = grade(tmp_path / "whole")
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
        assert grade(tmp_path / "short") == whole
        assert len(whole) == 4 and all(whole.values())

    def test_failed_write_names_its_file(self, tmp_path, capsys, monkeypatch):
        def full(fd, data):
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        monkeypatch.setattr(os, "write", full)
        out = tmp_path / "out"
        assert main(["--config", str(write_config(tmp_path, grade_config(tmp_path, out))),
                     "grade"]) == 2
        err = capsys.readouterr().err
        assert os.strerror(errno.EFBIG) in err and str(out / "reports" / "ex2.md") in err

    def test_out_dir_of_bytes_utf8_cannot_decode_is_written(self, tmp_path):
        # Python hands the byte 0x80 of a path on as "\udc80", and os.fsencode
        # turns it back; only a lone surrogate it cannot encode is refused.
        out = f"{tmp_path}/o\udc80"
        cfg = write_config(tmp_path, grade_config(tmp_path, tmp_path / "unused"))
        assert main(["--config", str(cfg), "--out", out, "--json", "grade"]) == 0
        assert os.listdir(os.fsencode(f"{out}/reports")) == [b"ex2.md"]

    def test_lone_surrogate_in_an_abstract_exits_3_before_writing(self, tmp_path, capsys):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["abstract"] = "We measure \ud800 things."
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({subs[0]["abstract"]: "TECHNIQUE"}), encoding="utf-8")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(self._grade_subs(tmp_path, subs))
        body["grade"]["classifier_model"]["path"] = str(labels)
        assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
        assert "submission #0: submission ex2: a text field holds a lone surrogate" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_reports_stable_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path, grade_config(tmp_path, out1))
        assert main(["--config", str(cfg1), "grade"]) == 0
        cfg2 = tmp_path / "config2.json"
        cfg2.write_text(json.dumps(grade_config(tmp_path, out2), indent=2), encoding="utf-8")
        assert main(["--config", str(cfg2), "grade"]) == 0
        for name in ("marks.json", "feedback.json", "reports/ex2.md"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_html_and_terminal_formats(self, tmp_path):
        for fmt, ext in (("html", "html"), ("terminal", "txt")):
            out = tmp_path / f"out_{fmt}"
            cfg = write_config(tmp_path, grade_config(tmp_path, out, fmt))
            assert main(["--config", str(cfg), "--no-color", "grade"]) == 0
            assert (out / "reports" / f"ex2.{ext}").exists()

    def test_batch_order_is_stable(self, tmp_path):
        subs = json.loads((DATA / "example_submissions.json").read_text())
        sub2 = dict(subs[0], submission_id="aa_first")
        multi = tmp_path / "multi.json"
        multi.write_text(json.dumps([subs[0], sub2]), encoding="utf-8")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(multi)
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 0
        marks = json.loads((out / "marks.json").read_text())
        assert [m["submission_id"] for m in marks] == ["aa_first", "ex2"]
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["seed"] == 7

    def test_custom_abbreviations_affect_segmentation(self, tmp_path):
        abbrev = tmp_path / "abbrev.txt"
        abbrev.write_text("Fig.\nSec.\n", encoding="utf-8")
        labels = {
            "A method described in Sec. 2 was used.": "TECHNIQUE",
            "Results in Fig. 3 look strong.": "OBSERVATION",
        }
        labels_path = tmp_path / "labels.json"
        labels_path.write_text(json.dumps(labels), encoding="utf-8")
        subs = json.loads((DATA / "example_submissions.json").read_text())
        subs[0]["abstract"] = (
            "A method described in Sec. 2 was used. Results in Fig. 3 look strong."
        )
        subs_path = tmp_path / "subs.json"
        subs_path.write_text(json.dumps(subs), encoding="utf-8")
        out = tmp_path / "out"
        body = grade_config(tmp_path, out)
        body["grade"]["submissions"] = str(subs_path)
        body["grade"]["classifier_model"] = {"type": "fixed_labels",
                                             "path": str(labels_path)}
        body["segmenter"] = {"abbreviations": str(abbrev)}
        cfg = write_config(tmp_path, body)
        assert main(["--config", str(cfg), "grade"]) == 0
        feedback = json.loads((out / "feedback.json").read_text())["reports"][0]
        assert len(feedback["labeled_abstract"]) == 2


def command_config(tmp_path: Path, command: str, out: Path) -> dict:
    """A small valid config for ``command``."""
    if command == "grade":
        return grade_config(tmp_path, out)
    if command == "pretrain":
        return pretrain_config(tmp_path, out)
    corpus = tmp_path / "rct.txt"
    corpus.write_text(serialize_rct(generate_rct_corpus(10, seed=4)), encoding="utf-8")
    return {"seed": 2, "out_dir": str(out),
            "model": {"embed_dim": 8, "hidden_dim": 8, "attention_dim": 6},
            "classifier": {"corpus": str(corpus), "epochs": 1}}


# A command's config is checked whole, so any command can carry a bad value of any section.
SCHEMA_VIOLATIONS = {
    "grade-keys0-value0-invalid grade.scorer_model":
        ("grade", ("grade", "scorer_model"), [], "invalid grade.scorer_model"),
    "grade-keys1-value1-invalid out_dir": ("grade", ("out_dir",), [], "invalid out_dir"),
    "grade-keys2-value2-invalid grade.format":
        ("grade", ("grade", "format"), [], "invalid grade.format"),
    "grade-keys3-5-invalid grade.submissions":
        ("grade", ("grade", "submissions"), 5, "invalid grade.submissions"),
    "grade-keys4-value4-invalid segmenter.abbreviations":
        ("grade", ("segmenter", "abbreviations"), [], "invalid segmenter.abbreviations"),
    "grade-keys5-html-did you mean 'format'":
        ("grade", ("grade", "fromat"), "html", "did you mean 'format'"),
    "train-classifier-keys6-1-did you mean 'epochs'":
        ("train-classifier", ("classifier", "epoch"), 1, "did you mean 'epochs'"),
    "pretrain-keys7-3-invalid pretrain.epochs":
        ("pretrain", ("pretrain", "epochs"), "3", "invalid pretrain.epochs"),
    "pretrain-keys8-2.5-invalid pretrain.epochs":
        ("pretrain", ("pretrain", "epochs"), 2.5, "invalid pretrain.epochs"),
    "pretrain-keys9-value9-invalid pretrain.corpora[0].score_ranges: [[0, 6]] is not a JSON object":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), [[0, 6]],
         "invalid pretrain.corpora[0].score_ranges: [[0, 6]] is not a JSON object"),
    "pretrain-keys10-value10-invalid pretrain.corpora: {} is not a JSON array":
        ("pretrain", ("pretrain", "corpora"), {}, "invalid pretrain.corpora: {} is not a JSON array"),
    "grade-keys11-o\ud800-invalid out_dir: 'utf-8' codec can't encode":
        ("grade", ("out_dir",), "o\ud800", "invalid out_dir: 'utf-8' codec can't encode"),
    "pretrain-keys12-x-invalid pretrain.corpora[0].score_ranges: 'x' is not a JSON object":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), "x",
         "invalid pretrain.corpora[0].score_ranges: 'x' is not a JSON object"),
    "pretrain-keys13-None-invalid pretrain.corpora[0].score_ranges: None is not a JSON object":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), None,
         "invalid pretrain.corpora[0].score_ranges: None is not a JSON object"),
    "grade-keys14-pdf-invalid grade.format: 'pdf' is not terminal or html or markdown":
        ("grade", ("grade", "format"), "pdf",
         "invalid grade.format: 'pdf' is not terminal or html or markdown"),
    "pretrain-keys15-1.5-invalid pretrain.schedule.b: 1.5 is not in [0, 1]":
        ("pretrain", ("pretrain", "schedule", "b"), 1.5,
         "invalid pretrain.schedule.b: 1.5 is not in [0, 1]"),
    "pretrain-keys16--1-invalid pretrain.schedule.c: -1.0 is not >= 0":
        ("pretrain", ("pretrain", "schedule", "c"), -1,
         "invalid pretrain.schedule.c: -1.0 is not >= 0"),
    "pretrain-keys17-0-invalid pretrain.learning_rate: 0.0 is not > 0":
        ("pretrain", ("pretrain", "learning_rate"), 0,
         "invalid pretrain.learning_rate: 0.0 is not > 0"),
    "pretrain-keys18-2-invalid vocab.max_size: 2 is not at least 3":
        ("pretrain", ("vocab", "max_size"), 2, "invalid vocab.max_size: 2 is not at least 3"),
    "pretrain-keys19-value19-invalid pretrain.corpora: [] is not a non-empty list":
        ("pretrain", ("pretrain", "corpora"), [],
         "invalid pretrain.corpora: [] is not a non-empty list"),
    "finetune-keys20-1.0-invalid finetune.fraction: 1.0 is not in (0, 1)":
        ("finetune", ("finetune", "fraction"), 1.0, "invalid finetune.fraction: 1.0 is not in (0, 1)"),
    "finetune-keys21-0-invalid finetune.epochs: 0 is not at least 1":
        ("finetune", ("finetune", "epochs"), 0, "invalid finetune.epochs: 0 is not at least 1"),
    "finetune-keys22--4-invalid finetune.batch_size: -4 is not at least 1":
        ("finetune", ("finetune", "batch_size"), -4,
         "invalid finetune.batch_size: -4 is not at least 1"),
    "finetune-keys23--0.5-invalid finetune.learning_rate: -0.5 is not > 0":
        ("finetune", ("finetune", "learning_rate"), -0.5,
         "invalid finetune.learning_rate: -0.5 is not > 0"),
    "finetune-keys24-0-invalid finetune.schedule.a: 0.0 is not in (0, 1]":
        ("finetune", ("finetune", "schedule", "a"), 0,
         "invalid finetune.schedule.a: 0.0 is not in (0, 1]"),
    "finetune-keys25--0.1-invalid finetune.schedule.b: -0.1 is not in [0, 1]":
        ("finetune", ("finetune", "schedule", "b"), -0.1,
         "invalid finetune.schedule.b: -0.1 is not in [0, 1]"),
    "finetune-keys26--2.5-invalid finetune.schedule.c: -2.5 is not >= 0":
        ("finetune", ("finetune", "schedule", "c"), -2.5,
         "invalid finetune.schedule.c: -2.5 is not >= 0"),
    "train-classifier-keys27-1-invalid classifier.max_sentences: 1 is not at least 2":
        ("train-classifier", ("classifier", "max_sentences"), 1,
         "invalid classifier.max_sentences: 1 is not at least 2"),
    "train-classifier-keys28-0-invalid classifier.epochs: 0 is not at least 1":
        ("train-classifier", ("classifier", "epochs"), 0,
         "invalid classifier.epochs: 0 is not at least 1"),
    "train-classifier-keys29-0-invalid classifier.batch_size: 0 is not at least 1":
        ("train-classifier", ("classifier", "batch_size"), 0,
         "invalid classifier.batch_size: 0 is not at least 1"),
    "train-classifier-keys30-0-invalid classifier.learning_rate: 0.0 is not > 0":
        ("train-classifier", ("classifier", "learning_rate"), 0,
         "invalid classifier.learning_rate: 0.0 is not > 0"),
    "grade-keys31-fixed_labels-invalid grade.scorer_model.type: 'fixed_labels' is not file or fixed_score":
        ("grade", ("grade", "scorer_model", "type"), "fixed_labels",
         "invalid grade.scorer_model.type: 'fixed_labels' is not file or fixed_score"),
    "grade-keys32-1.5-invalid grade.scorer_model.score: 1.5 is not in [0, 1]":
        ("grade", ("grade", "scorer_model", "score"), 1.5,
         "invalid grade.scorer_model.score: 1.5 is not in [0, 1]"),
    "grade-keys33-fixed_score-invalid grade.classifier_model.type: 'fixed_score' is not file or fixed_labels":
        ("grade", ("grade", "classifier_model", "type"), "fixed_score",
         "invalid grade.classifier_model.type: 'fixed_score' is not file or fixed_labels"),
    "eval-keys34-model-invalid eval.scorer_model.type: 'model' is not file or fixed_score":
        ("eval", ("eval", "scorer_model", "type"), "model",
         "invalid eval.scorer_model.type: 'model' is not file or fixed_score"),
    "eval-keys35--0.5-invalid eval.scorer_model.score: -0.5 is not in [0, 1]":
        ("eval", ("eval", "scorer_model", "score"), -0.5,
         "invalid eval.scorer_model.score: -0.5 is not in [0, 1]"),
    "pretrain-keys36-value36-invalid pretrain.corpora[0].score_ranges.1: [5.0, 5.0] is not [min, max] with min < max and a finite max - min":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges", "1"), [5, 5],
         "invalid pretrain.corpora[0].score_ranges.1: [5.0, 5.0] is not [min, max] with min < max "
         "and a finite max - min"),
    # Each used to load: "06" as (0.0, 6.0), true as 1.0, strings as numbers, a third
    # item was ignored, and 1e400 (read as inf) gave targets all 0.0.
    "pretrain-keys37-value37-invalid pretrain.corpora[0].score_ranges.1: '06' is not a JSON array":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), {"1": "06"},
         "invalid pretrain.corpora[0].score_ranges.1: '06' is not a JSON array"),
    "pretrain-keys38-value38-invalid pretrain.corpora[0].score_ranges.1[0]: True is not a finite number":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), {"1": [True, 5]},
         "invalid pretrain.corpora[0].score_ranges.1[0]: True is not a finite number"),
    "pretrain-keys39-value39-invalid pretrain.corpora[0].score_ranges.1[0]: '0' is not a finite number":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), {"1": ["0", "6"]},
         "invalid pretrain.corpora[0].score_ranges.1[0]: '0' is not a finite number"),
    "pretrain-keys40-value40-invalid pretrain.corpora[0].score_ranges.1: [0.0, 6.0, 9.0] is not [min, max]":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), {"1": [0, 6, 9]},
         "invalid pretrain.corpora[0].score_ranges.1: [0.0, 6.0, 9.0] is not [min, max]"),
    "pretrain-keys41-value41-invalid pretrain.corpora[0].score_ranges.1[1]: inf is not a finite number":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), {"1": [0, float("inf")]},
         "invalid pretrain.corpora[0].score_ranges.1[1]: inf is not a finite number"),
    "grade-keys42-0-invalid vocab.min_frequency: 0 is not at least 1":
        ("grade", ("vocab", "min_frequency"), 0, "invalid vocab.min_frequency: 0 is not at least 1"),
    "grade-model.embed_dim-0":
        ("grade", ("model", "embed_dim"), 0, "invalid model.embed_dim: 0 is not at least 1"),
}


@pytest.mark.parametrize("command, keys, value, message", list(SCHEMA_VIOLATIONS.values()),
                         ids=list(SCHEMA_VIOLATIONS))
def test_config_checked_against_schema_before_writing(tmp_path, capsys, command, keys, value,
                                                      message):
    out = tmp_path / "out"
    body = command_config(tmp_path, command, out)
    section = body
    for key in keys[:-1]:
        section = section[key] if type(key) is int else section.setdefault(key, {})
    section[keys[-1]] = value
    assert main(["--config", str(write_config(tmp_path, body)), "--out", str(out), command]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _ranged_key_paths(kind, path=()):
    """(key path, entry) of each ``_SCHEMA`` key with a range; 0 steps into an array, and
    ``str`` into an object of any keys."""
    if isinstance(kind, list):
        yield from _ranged_key_paths(kind[0], path + (0,))
    elif isinstance(kind, dict):
        for key, entry in kind.items():
            entry = entry if isinstance(entry, cli._Key) else cli._Key(entry)
            if entry.range:
                yield path + (key,), entry
            yield from _ranged_key_paths(entry.kind, path + (key,))


def _out_of_range(entry: cli._Key, value) -> bool:
    """Whether ``value`` is of the kind of ``entry`` but fails its range."""
    try:
        checked = cli._check(value, entry.kind, "", Path())
    except ConfigError:
        return False
    return not entry.range[1](checked)


def test_every_schema_range_has_a_bad_value_row():
    rows = [row[1:3] for row in [*BAD_CONFIG_VALUES.values(), *SCHEMA_VIOLATIONS.values()]]

    def on(row_keys, keys) -> bool:  # a row's string key steps into an object of any keys
        return len(row_keys) == len(keys) and all(
            k == key or (key is str and type(k) is str) for k, key in zip(row_keys, keys))

    assert [".".join(map(str, keys)) for keys, entry in _ranged_key_paths(cli._SCHEMA)
            if not any(on(k, keys) and _out_of_range(entry, v) for k, v in rows)] == []


TSV_HEADER = "id\tset\tessay\tscore\n"
UNMARKED = str(DATA / "example_submissions.json")
BLANK_ABSTRACTS = json.dumps([dict(sub, abstract="   ") for sub in json.loads(
    (DATA / "example_submissions.json").read_text(encoding="utf-8"))])
UNCITED_KEYS = json.dumps([dict(key, times_cited=0) for key in json.loads(
    (DATA / "example_keys.json").read_text(encoding="utf-8"))])


# A (name, text) value is a file of that text in the config's directory; None drops the
# key. Relative paths resolve against the config's directory.
UNUSABLE_INPUTS = {
    "train-classifier-keys0-value0-3-no abstracts in":
        ("train-classifier", ("classifier", "corpus"), ("input.txt", ""), 3, "no abstracts in"),
    "train-classifier-keys1-value1-3-line 2: empty sentence":
        ("train-classifier", ("classifier", "corpus"), ("input.txt", "###1\nBACKGROUND\t   \n"),
         3, "line 2: empty sentence"),
    "pretrain-keys2-value2-3-no training samples":
        ("pretrain", ("pretrain", "corpora", 0, "path"), ("input.tsv", TSV_HEADER),
         3, "no training samples"),
    "pretrain-keys3-value3-3-line 2: expected 4 columns, got 3":
        ("pretrain", ("pretrain", "corpora", 0, "path"), ("input.tsv", TSV_HEADER + "e0\t1\tx\n"),
         3, "line 2: expected 4 columns, got 3"),
    "pretrain-keys4-None-2-config missing pretrain.corpora[0].score_ranges":
        ("pretrain", ("pretrain", "corpora", 0, "score_ranges"), None,
         2, "config missing pretrain.corpora[0].score_ranges"),
    "eval-keys5-value5-3-no submissions with human marks":
        ("eval", ("eval",), {"submissions": UNMARKED,
                             "scorer_model": {"type": "fixed_score", "score": 0.5}},
         3, "no submissions with human marks"),
    "finetune-keys6-value6-3-no submissions carry human marks":
        ("finetune", ("finetune",), {"submissions": UNMARKED,
                                     "base_model": {"path": "scorer.afgm", "vocab": "vocab.txt"}},
         3, "no submissions carry human marks"),
    "grade-keys7-value7-3-missing reserved token [UNK]":
        ("grade", ("grade", "scorer_model"),
         {"type": "file", "path": "scorer.afgm", "vocab": "no_unk.txt"},
         3, "missing reserved token [UNK]"),
    "grade-keys8-value8-3-empty abstract":
        ("grade", ("grade", "submissions"), ("input.json", BLANK_ABSTRACTS), 3, "empty abstract"),
    "grade-keys9-value9-3-submission file must be a JSON array":
        ("grade", ("grade", "submissions"), ("input.json", '{"submission_id": "ex1"}'),
         3, "submission file must be a JSON array"),
    "pretrain-keys10-value10-3-line 3: empty text":
        ("pretrain", ("pretrain", "corpora", 0, "path"),
         ("input.tsv", TSV_HEADER + "1\t1\tA short essay.\t4\n2\t1\t   \t3\n"),
         3, "line 3: empty text"),
    "grade-keys11-value11-3-answer key #0: paper 'ol-2018-amines' has 0 citations":
        ("grade", ("grade", "keys"), ("input.json", UNCITED_KEYS),
         3, "answer key #0: paper 'ol-2018-amines' has 0 citations"),
}


@pytest.mark.parametrize("command, keys, value, code, message", list(UNUSABLE_INPUTS.values()),
                         ids=list(UNUSABLE_INPUTS))
def test_unusable_input_exits_with_its_code_before_writing(tmp_path, capsys, command, keys,
                                                           value, code, message):
    vocab = build_vocab(["tiny corpus text"], max_size=40, min_frequency=1)
    vocab.save(tmp_path / "vocab.txt")
    lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines()
    (tmp_path / "no_unk.txt").write_text(
        "".join(f"{line}\n" for line in lines if line != "[UNK]"), encoding="utf-8")
    config = EncoderConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=4, attention_dim=3)
    save_model_file(tmp_path / "scorer.afgm", init_params(config), config)
    out = tmp_path / "out"
    body = command_config(tmp_path, command, out)
    section = body
    for key in keys[:-1]:
        section = section[key]
    if value is None:
        del section[keys[-1]]
    elif isinstance(value, tuple):
        (tmp_path / value[0]).write_text(value[1], encoding="utf-8")
        section[keys[-1]] = value[0]
    else:
        section[keys[-1]] = value
    assert main(["--config", str(write_config(tmp_path, body)), command]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_flag_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, grade_config(tmp_path, out))
    assert main(["--config", str(cfg), "--seed", "-1", "grade"]) == 2
    assert "invalid seed" in capsys.readouterr().err
    assert not out.exists()


def _error_classes(cls=AfgError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


_EXIT_CODES = {ConfigError: 2, DataError: 3, RowError: 3, TrainingDivergedError: 4}
_ERROR_ARGS = {RowError: ("bad row", 7), TrainingDivergedError: (5, "loss")}


@pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch, error):
    # A class without an exit code in the table fails here.
    assert set(_error_classes()) == set(_EXIT_CODES)
    exc = error(*_ERROR_ARGS.get(error, ("boom",)))

    def command(cfg, args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "grade", command)
    cfg = write_config(tmp_path, grade_config(tmp_path, tmp_path / "out"))
    assert main(["--config", str(cfg), "grade"]) == _EXIT_CODES[error]
    err = capsys.readouterr().err
    assert err.endswith(f": {exc}\n") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["{", '["BACKGROUND"]', '{"A sentence.": "NOPE"}'])
def test_bad_fixed_labels_file_exits_2_before_writing(tmp_path, text):
    labels = tmp_path / "labels.json"
    labels.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    body = grade_config(tmp_path, out)
    body["grade"]["classifier_model"]["path"] = str(labels)
    assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 2
    assert not out.exists()


def test_non_utf8_abbreviation_file_exits_3_before_writing(tmp_path, capsys):
    abbrev = tmp_path / "abbrev.txt"
    abbrev.write_bytes("Fig.\nCaf\u00e9.\n".encode("latin-1"))
    out = tmp_path / "out"
    body = grade_config(tmp_path, out)
    body["segmenter"] = {"abbreviations": str(abbrev)}
    assert main(["--config", str(write_config(tmp_path, body)), "grade"]) == 3
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6,
)


def _key_paths(node, prefix=()):
    """Every key path in a config; the empty path is the whole config."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _key_paths(value, prefix + (key,))


GRADE_KEY_PATHS = list(_key_paths(grade_config(DATA, DATA / "out")))


@settings(max_examples=120, deadline=None)
@given(path=st.sampled_from(GRADE_KEY_PATHS), new_key=st.none() | st.text(max_size=8),
       value=JSON_VALUES)
@example(path=("grade", "submissions"), new_key=None, value="a\x00b")
@example(path=("grade", "submissions"), new_key=None, value="a\ud800")
@example(path=("out_dir",), new_key=None, value="o\ud800")
@example(path=("grade", "keys"), new_key=None, value="..")
@example(path=("grade", "scorer_model", "score"), new_key=None, value=float("nan"))
@example(path=("seed",), new_key=None, value=10**400)
def test_any_json_value_anywhere_in_the_config_exits_cleanly(path, new_key, value):
    """Config-side twin of the parser fuzzing: ``value`` replaces the one at
    ``path``, or goes under ``new_key`` when ``path`` holds an object."""
    body = grade_config(DATA, DATA / "out")
    parent, node = None, body
    for key in path:
        parent, node = node, node[key]
    if new_key is not None and isinstance(node, dict):
        node[new_key] = value
    elif parent is None:
        body = value
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), body)
        assert main(["--config", str(cfg), "--out", str(Path(tmp) / "out"), "grade"]) in (0, 2, 3)


RULE_FILE_ENTRIES = json.loads(rules_to_json(DEFAULT_RULES))
RULE_FILE_KEYS = sorted({key for entry in RULE_FILE_ENTRIES for key in entry})


def _grade_with_rules(tmp: Path, entries: list) -> tuple[int, Path]:
    """``grade`` on the example files with ``entries`` as the rule file: its exit code and out."""
    body, out = grade_config(DATA, DATA / "out"), tmp / "out"
    (tmp / "rules.json").write_text(json.dumps(entries), encoding="utf-8")
    body["grade"]["rules"] = str(tmp / "rules.json")
    return main(["--config", str(write_config(tmp, body)), "--out", str(out), "grade"]), out


# Each exited 0: the null template printed the comment "None", the id 7 read
# as "7", and the "guards" key was ignored, so balance_suggest lost its guard.
# The lone surrogate, which UTF-8 cannot encode, crashed the report write.
@pytest.mark.parametrize("entry", [
    {**RULE_FILE_ENTRIES[0], "template": None},
    {**RULE_FILE_ENTRIES[0], "id": 7},
    {"guards" if key == "guard" else key: value for key, value in RULE_FILE_ENTRIES[0].items()},
    {**RULE_FILE_ENTRIES[0], "template": "a\ud800"},
], ids=["null template", "integer id", "guards key", "lone surrogate template"])
def test_mistyped_or_unknown_rule_key_exits_2_before_writing(tmp_path, capsys, entry):
    code, out = _grade_with_rules(tmp_path, [entry, *RULE_FILE_ENTRIES[1:]])
    assert code == 2
    assert "rule" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, len(RULE_FILE_ENTRIES) - 1),
       key=st.sampled_from(RULE_FILE_KEYS) | st.text(max_size=8), value=JSON_VALUES)
@example(index=0, key="template", value=None)
@example(index=0, key="id", value=7)
@example(index=0, key="guards", value=RULE_FILE_ENTRIES[0]["guard"])
@example(index=0, key="template", value="a\ud800")
def test_any_json_value_in_any_rule_field_exits_cleanly(index, key, value):
    """Rule-file twin of the data fuzzing: ``value`` replaces one field of one
    default rule, or goes under a new key. A failed ``grade`` writes nothing;
    a finished one comments on each abstract only with the file's templates
    or the engine's fallback sentence."""
    entries = json.loads(json.dumps(RULE_FILE_ENTRIES))
    entries[index][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        code, out = _grade_with_rules(Path(tmp), entries)
        assert code in (0, 2)
        if code == 2:
            assert not list(out.rglob("*"))
            return
        templates = {entry.get("template") for entry in entries}
        for report in json.loads((out / "feedback.json").read_text())["reports"]:
            for comment in report["abstract_comments"]:
                assert comment in templates or comment == feedback._FALLBACK_COMMENT


EXAMPLE_FILES = {"submissions": json.loads((DATA / "example_submissions.json").read_text()),
                 "keys": json.loads((DATA / "example_keys.json").read_text())}
DATA_FIELDS = [(name, key) for name, records in EXAMPLE_FILES.items() for key in records[0]]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(DATA_FIELDS),
       value=JSON_VALUES | st.integers(10**300, 10**320))
@example(field=("submissions", "submission_id"), value="../escaped")
@example(field=("submissions", "submission_id"), value="zz/sub")
@example(field=("submissions", "submission_id"), value=10**299)
@example(field=("submissions", "submission_id"), value="a\ud800")
@example(field=("submissions", "abstract"), value="a\ud800")
@example(field=("keys", "ref_acs"), value="a\ud800")
@example(field=("submissions", "times_cited"), value=10**399)
@example(field=("keys", "times_cited"), value=10**399)
@example(field=("keys", "times_cited"), value=-(10**308))
@example(field=("keys", "impact_factor"), value=-3)
@example(field=("submissions", "submission_id"), value=None)
@example(field=("submissions", "paper_id"), value=True)
@example(field=("keys", "paper_id"), value=[1])
def test_any_json_value_in_any_data_field_exits_cleanly(field, value):
    """Data-side twin of the config fuzzing: ``value`` replaces one field of
    the example submission or answer key. A failed ``grade`` writes nothing;
    a finished one writes only its JSON files and reports, all strict JSON."""
    files = json.loads(json.dumps(EXAMPLE_FILES))
    files[field[0]][0][field[1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp, body = Path(tmp), grade_config(DATA, DATA / "out")
        for name, records in files.items():
            (tmp / f"{name}.json").write_text(json.dumps(records), encoding="utf-8")
            body["grade"][name] = str(tmp / f"{name}.json")
        out = tmp / "out"
        code = main(["--config", str(write_config(tmp, body)), "--out", str(out), "grade"])
        assert code in (0, 3)
        written = [path.relative_to(out) for path in out.rglob("*") if path.is_file()]
        if code == 3:
            assert not list(out.rglob("*"))
        for path in written:
            assert path.parts[0] == "reports" and len(path.parts) == 2 or (
                len(path.parts) == 1 and path.suffix == ".json")
            if path.suffix == ".json":
                json.loads((out / path).read_text(), parse_constant=_reject_constant)
