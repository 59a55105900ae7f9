"""Command-line entry point wiring the whole pipeline.

Subcommands: pretrain, finetune, train-classifier, grade, eval. One JSON
config file drives a run (``--config`` or the AFG_CONFIG environment
variable); ``--seed`` and ``--out`` flags override the config. All
randomness flows from the single run seed, which is recorded in the JSON
artifacts, so reruns with the same config are byte-identical apart from the
timestamp in training-log headers.

``_SCHEMA`` is the config reference: each section's keys, their JSON types,
defaults and ranges. ``RunConfig.load`` checks the whole file against it
before any command runs; a wrong type, a value out of range and an unknown
key (named with the closest known key) are configuration errors. ``_SCHEMA``
holds every range. The report formats, and the file extension of each, are
``feedback.REPORT_FORMATS``. The three training commands share one skeleton.

``grade`` works over the whole cohort in stages, in submission-id order:
mark every submission, segment each abstract once, run one classifier
pass, label and count every sentence at once (``structure.label_cohort``),
evaluate each rule once over the cohort to build every report, render them,
and only then write the reports and the JSON files, so a failure before the
writes leaves no output. Each model runs once, on its texts in input order,
each text once. The scorer's pass runs inside the first
``scoring.mark_submission`` call, because the benchmark's set-up time ends
there; run earlier, it would count as set-up. ``textproc.write_file`` writes
every output, model files and vocabularies too; an OSError names the file.

Every JSON output file comes from the C encoder with its default
separators and ASCII escaping, not indented. Each item of a top-level
array, or of an array-valued member of a top-level object, sits on its own
line: ``marks.json`` is ``[``, one mark sheet per line, ``]``, and
``feedback.json`` is ``{"seed": ..., "reports": [``, one report per line,
``]}``.

Exit codes: 0 ok, 2 configuration problem, 3 bad or empty data,
4 training diverged.
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import feedback as fb
from . import ingest, nn, objectives, scoring, structure
from .errors import ConfigError, DataError, TrainingDivergedError
from .textproc import (
    DEFAULT_ABBREVIATIONS,
    Vocabulary,
    build_vocab,
    is_number,
    load_abbreviations,
    read_json,
    segment_sentences,
    write_file,
)

log = logging.getLogger("afg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


class _Key(NamedTuple):
    """A config key: its kind, its default (None: none) and (description, test) of its range."""

    kind: object
    default: object = None
    range: tuple[str, Callable] | None = None


# Scalar kinds: what a value must be, and the test. A Path is a string taken
# relative to the config file's directory; a dict is any JSON object.
_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", is_number),
    bool: ("true or false", lambda v: type(v) is bool),
    str: ("a string", lambda v: type(v) is str),
    Path: ("a printable path", lambda v: type(v) is str and v.isprintable()),
    dict: ("a JSON object", lambda v: type(v) is dict),
}


def _one_of(*values: str) -> tuple[str, Callable]:
    return " or ".join(values), values.__contains__


_TRAIN_SHARE = ("in (0, 1)", lambda f: 0.0 < f < 1.0)
_AT_LEAST_1 = ("at least 1", lambda n: n >= 1)
# The nn.TrainConfig fields a training section sets.
_TRAIN = {"epochs": _Key(int, 5, _AT_LEAST_1), "batch_size": _Key(int, 64, _AT_LEAST_1),
          "learning_rate": _Key(float, None, ("> 0", lambda r: r > 0.0))}
# The objectives.LossSchedule constants.
_SCHEDULE = _Key({"a": _Key(float, None, ("in (0, 1]", lambda a: 0.0 < a <= 1.0)),
                  "b": _Key(float, None, ("in [0, 1]", lambda b: 0.0 <= b <= 1.0)),
                  "c": _Key(float, None, (">= 0", lambda c: c >= 0.0))}, {})
# A prompt's score range; normalizing divides by its width, so that is finite too.
_SCORE_RANGE = _Key([float], None, ("[min, max] with min < max and a finite max - min",
                                    lambda r: len(r) == 2 and 0.0 < r[1] - r[0] < float("inf")))
_MODEL_FILE = {"path": Path, "vocab": Path}
_SCORER = _Key({**_MODEL_FILE, "type": _Key(str, "file", _one_of("file", "fixed_score")),
                "score": _Key(float, None, ("in [0, 1]", lambda s: 0.0 <= s <= 1.0))}, {})

# A nested dict is a JSON object with those keys, or with any keys if its one key is
# ``str``; a one-item list is an array of such objects.
_SCHEMA = {
    # The model file stores the seed as a signed 64-bit field.
    "seed": _Key(int, 0, ("in [0, 2**63)", lambda s: 0 <= s < 2**63)),
    "out_dir": _Key(str, "out"),
    "model": _Key(dict.fromkeys(("embed_dim", "hidden_dim", "attention_dim",
                                 "max_sequence_length"), _Key(int, None, _AT_LEAST_1)), {}),
    # build_vocab's two reserved tokens and at least one more.
    "vocab": _Key({"path": Path, "max_size": _Key(int, 512, ("at least 3", lambda n: n >= 3)),
                   "min_frequency": _Key(int, None, _AT_LEAST_1)}, {}),
    "segmenter": _Key({"abbreviations": Path}, {}),
    "pretrain": {
        "corpora": _Key([{"path": Path, "score_ranges": {str: _SCORE_RANGE},
                          "prompt_col": _Key(str, "set"), "text_col": _Key(str, "essay"),
                          "score_col": _Key(str, "score")}],
                        None, ("a non-empty list", bool)),
        **_TRAIN, "schedule": _SCHEDULE,
    },
    "finetune": {
        "base_model": _MODEL_FILE, "submissions": Path,
        "fraction": _Key(float, 0.8, _TRAIN_SHARE), **_TRAIN, "schedule": _SCHEDULE,
    },
    "classifier": {
        "corpus": Path, "max_sentences": _Key(int, None, ("at least 2", lambda n: n >= 2)),
        "fraction": _Key(float, 0.9, _TRAIN_SHARE), **_TRAIN,
    },
    "grade": {
        "submissions": Path, "keys": Path, "scorer_model": _SCORER,
        "classifier_model": _Key(
            {**_MODEL_FILE, "type": _Key(str, "file", _one_of("file", "fixed_labels"))}, {}),
        "rules": Path, "format": _Key(str, "markdown", _one_of(*fb.REPORT_FORMATS)),
    },
    "eval": {"submissions": Path, "scorer_model": _SCORER},
}


class _Section(dict):
    """A checked config object; reading a key it lacks is a ConfigError naming the key."""

    def __init__(self, where: str):
        super().__init__()
        self.where = where

    def __missing__(self, key: str):
        raise ConfigError(f"config missing {self.where}.{key}" if self.where
                          else f"config missing section {key!r}")


def _check(value, kind, where: str, base_dir: Path):
    """``value`` checked against ``kind``, with defaults filled in and paths resolved."""
    if isinstance(kind, list):
        if type(value) is not list:
            raise ConfigError(f"invalid {where}: {value!r:.40} is not a JSON array")
        return [_check(item, kind[0], f"{where}[{i}]", base_dir) for i, item in enumerate(value)]
    if not isinstance(kind, dict):
        what, test = _KINDS[kind]
        if not test(value):
            raise ConfigError(f"invalid {where}: {value!r:.40} is not {what}")
        return base_dir / value if kind is Path else kind(value)
    if type(value) is not dict:
        raise ConfigError(f"invalid {where or 'config'}: {value!r:.40} is not a JSON object")
    kind = dict.fromkeys(value, kind[str]) if str in kind else kind
    prefix = f"{where}." if where else ""
    for key in value:
        if key not in kind:
            near = difflib.get_close_matches(key, kind, n=1)
            hint = f"did you mean {near[0]!r}?" if near else "known keys: " + ", ".join(kind)
            raise ConfigError(f"unknown config key {prefix + key!r} ({hint})")
    checked = _Section(where)
    for key, entry in kind.items():
        entry = entry if isinstance(entry, _Key) else _Key(entry)
        if key in value:
            checked[key] = _check(value[key], entry.kind, prefix + key, base_dir)
            if entry.range and not entry.range[1](checked[key]):
                raise ConfigError(f"invalid {prefix + key}: {checked[key]!r:.40} is not "
                                  f"{entry.range[0]}")
        elif entry.default is not None:
            checked[key] = _check(entry.default, entry.kind, prefix + key, base_dir)
    return checked


@dataclass
class RunConfig:
    seed: int
    out_dir: Path
    sections: dict  # the checked config

    @classmethod
    def load(cls, path: str | None, seed: int | None, out: str | None) -> "RunConfig":
        path = path if path is not None else os.environ.get("AFG_CONFIG")
        if path is None:
            raise ConfigError("no config file: pass --config or set AFG_CONFIG")
        raw = read_json(path, f"config {path}", ConfigError)
        checked = _check(raw, _SCHEMA, "", Path(path).parent)
        overrides = {key: v for key, v in (("seed", seed), ("out_dir", out)) if v is not None}
        try:  # JSON can spell a lone surrogate; argv, decoded from bytes, always encodes back.
            os.fsencode(checked["out_dir"])
        except ValueError as exc:
            raise ConfigError(f"invalid out_dir: {exc}") from None
        checked.update(_check(overrides, {key: _SCHEMA[key] for key in overrides}, "", Path()))
        return cls(seed=checked["seed"], out_dir=Path(checked["out_dir"]), sections=checked)


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as one-record-per-line JSON (see the module docstring)."""

    def records(value) -> str:
        if type(value) is not list:
            return json.dumps(value)
        return "[" + ",".join("\n" + json.dumps(item) for item in value) + "\n]"

    # No indent: with one, json falls back from its C encoder to pure Python.
    if type(obj) is dict:
        members = (f"{json.dumps(key)}: {records(value)}" for key, value in obj.items())
        text = "{" + ", ".join(members) + "}"
    else:
        text = records(obj)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_file(path, (text + "\n").encode())


def _emit(args, payload: dict, human: str) -> None:
    print(json.dumps(payload) if args.json else human)


# ---------------------------------------------------------------------------
# Model specs: trained files or fixed oracles (testing seam)
# ---------------------------------------------------------------------------

def _model_from_spec(spec: dict, what: str) -> Callable[[list[str]], list]:
    """A ``scorer`` or ``classifier`` spec as a function: a list of texts in, outputs out."""
    if spec["type"] == "fixed_score":
        value = spec["score"]
        return lambda texts: [value] * len(texts)
    if spec["type"] == "fixed_labels":
        classify = structure.make_fixed_classifier(
            read_json(spec["path"], "fixed-labels file", ConfigError)
        )
        return lambda texts: list(map(classify, texts))
    if what == "scorer":
        return nn.Predictor.from_file(spec["path"], spec["vocab"], 1).scores
    return nn.Predictor.from_file(spec["path"], spec["vocab"], len(structure.Label3)).probabilities


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _train_and_write(cfg: RunConfig, args, name: str, model_file: str, train: Sequence,
                     held_out: Sequence, *, n_classes: int = 0, base: nn.Predictor | None = None,
                     vocab_file: str | None = None, evaluate: Callable | None = None) -> int:
    """Train the model of ``base`` or a new one, evaluate, write.

    A new model gets a vocabulary of the training texts, saved as
    ``vocab_file``, and a regression head if ``n_classes`` is 0.
    ``evaluate(predictor, held_out)`` returns the eval file's fields and the
    summary's headline figures. Section ``name`` names the log and eval files.
    """
    section = cfg.sections[name]
    if base is None:
        spec = cfg.sections["vocab"]
        vocab = (Vocabulary.load(spec["path"]) if "path" in spec
                 else build_vocab([text for text, _ in train], **spec))
        config = nn.EncoderConfig(
            vocab_size=len(vocab), head=nn.CLASSIFICATION if n_classes else nn.REGRESSION,
            n_classes=n_classes, seed=cfg.seed, **cfg.sections["model"],
        )
        base = nn.Predictor(nn.init_params(config), config, vocab)
    train_config = nn.TrainConfig(
        seed=cfg.seed, **{key: section[key] for key in _TRAIN if key in section},
        schedule=objectives.LossSchedule(**section["schedule"]) if "schedule" in section else None,
    )
    params, train_log = nn.train(list(train), train_config, base.params, base.vocab,
                                 max_sequence_length=base.config.max_sequence_length)
    evaluation, headline = (evaluate(nn.Predictor(params, base.config, base.vocab), held_out)
                            if evaluate else (None, {}))

    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    nn.save_model_file(out / model_file, params, base.config)
    summary = {"model": str(out / model_file), "seed": cfg.seed, "steps": train_log["steps_total"]}
    if vocab_file is not None:
        base.vocab.save(out / vocab_file)
        summary["vocab"] = str(out / vocab_file)
    _write_json(out / f"{name}_log.json", {"created_at": datetime.now(timezone.utc).isoformat(),
                                           "seed": cfg.seed, **train_log})
    if evaluation is not None:
        _write_json(out / f"{name}_eval.json", {"seed": cfg.seed, **evaluation})
        summary["eval"] = str(out / f"{name}_eval.json")
    figures = "".join(f", {key} {value:.3f}" for key, value in headline.items())
    _emit(args, {**summary, **headline}, f"{name} model written to {summary['model']}{figures}")
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig, args) -> int:
    section = cfg.sections["pretrain"]
    data = []
    for entry in section["corpora"]:
        data.extend(ingest.parse_scored_tsv(entry["path"], entry))
    if not data:
        raise DataError("no training samples in the configured corpora")
    log.info("pretraining on %d samples", len(data))
    return _train_and_write(cfg, args, "pretrain", "pretrained.afgm", data, [],
                            vocab_file="vocab.txt")


def _evaluate_scores(scores: Sequence[float], targets: Sequence[float]):
    """The eval file's regression fields and headline r2; a degenerate sample is a DataError."""
    try:
        report = objectives.evaluate_regression(scores, targets)
    except ValueError as exc:  # fewer than two samples, or constant scores or targets
        raise DataError(f"cannot evaluate the scores: {exc}") from None
    return report, {"r2_paper": report["r2_paper"]}


def cmd_finetune(cfg: RunConfig, args) -> int:
    section = cfg.sections["finetune"]
    base = nn.Predictor.from_file(section["base_model"]["path"], section["base_model"]["vocab"], 1)
    data = [
        (s.abstract, s.human_marks.abstract_mark / 6.0)
        for s in ingest.load_submissions(section["submissions"])
        if s.human_marks is not None
    ]
    if not data:
        raise DataError("no submissions carry human marks to fine-tune on")
    ds = ingest.split(data, section["fraction"], cfg.seed)
    log.info("fine-tuning on %d samples, evaluating on %d", len(ds.train), len(ds.eval))
    return _train_and_write(
        cfg, args, "finetune", "finetuned.afgm", ds.train, ds.eval, base=base,
        evaluate=lambda predictor, held_out: _evaluate_scores(
            predictor.scores([text for text, _ in held_out]), [y for _, y in held_out]))


def cmd_train_classifier(cfg: RunConfig, args) -> int:
    section = cfg.sections["classifier"]
    abstracts = ingest.parse_rct(section["corpus"])
    if not abstracts:
        raise DataError(f"no abstracts in {section['corpus']}")
    pairs = [(text, int(structure.map_label(label5)))
             for a in abstracts for label5, text in a.sentences]
    if "max_sentences" in section:
        pairs = pairs[: section["max_sentences"]]
    ds = ingest.split(pairs, section["fraction"], cfg.seed)
    log.info("training classifier on %d sentences, evaluating on %d",
             len(ds.train), len(ds.eval))

    def evaluate(predictor: nn.Predictor, held_out: Sequence[tuple[str, int]]):
        pred = [max(structure.LABELS, key=probs.__getitem__)
                for probs in predictor.probabilities([text for text, _ in held_out])]
        true = [label for _, label in held_out]
        acc = objectives.accuracy(pred, true)
        baseline = max(map(true.count, structure.LABELS)) / len(true)
        return {
            "accuracy": acc,
            "majority_baseline": baseline,
            "n_eval": len(true),
            "confusion": objectives.confusion(pred, true, list(structure.LABEL_NAMES)),
        }, {"accuracy": acc, "baseline": baseline}

    return _train_and_write(cfg, args, "classifier", "classifier.afgm", ds.train, ds.eval,
                            n_classes=len(structure.Label3), vocab_file="classifier_vocab.txt",
                            evaluate=evaluate)


def cmd_grade(cfg: RunConfig, args) -> int:
    section = cfg.sections["grade"]
    subs = ingest.load_submissions(section["submissions"])
    if not subs:
        raise DataError(f"submission file {section['submissions']} is empty")
    keys = ingest.load_answer_keys(section["keys"])
    fmt = section["format"]
    ext = fb.REPORT_FORMATS[fmt].extension
    seen = set()
    for sub in subs:
        sid = sub.submission_id
        # isprintable() first: a lone surrogate cannot be encoded.
        if (sid in ("", ".", "..") or "/" in sid or "\\" in sid or not sid.isprintable()
                or len(f"{sid}.{ext}".encode()) > 255):
            raise DataError(f"submission id {sid!r:.60} cannot name a report file")
        if sid in seen:
            raise DataError(f"duplicate submission id {sid!r}")
        seen.add(sid)
        if sub.paper_id not in keys:
            raise DataError(f"no answer key for paper {sub.paper_id!r}")
    segmenter = cfg.sections["segmenter"]
    abbreviations = (load_abbreviations(segmenter["abbreviations"])
                     if "abbreviations" in segmenter else DEFAULT_ABBREVIATIONS)
    score = _model_from_spec(section["scorer_model"], "scorer")
    classify = _model_from_spec(section["classifier_model"], "classifier")
    rules = fb.load_rules(section["rules"]) if "rules" in section else fb.DEFAULT_RULES

    cohort = sorted(subs, key=lambda s: s.submission_id)
    # Each model pass takes its texts in input order, each once: its length-bucketed
    # chunks, and so its outputs, follow that order. The scorer's pass is the one lazy
    # pass, because the benchmark's set-up time ends at the first mark_submission call;
    # the keys of ``scores`` then hold the abstracts in that order for the later stages.
    scores = {}

    def score_of(abstract: str) -> float:
        if not scores:
            abstracts = list(dict.fromkeys(s.abstract for s in subs))
            scores.update(zip(abstracts, score(abstracts)))
        return scores[abstract]

    sheets = [scoring.mark_submission(sub, keys[sub.paper_id], score_of) for sub in cohort]
    sentences = {text: segment_sentences(text, abbreviations) for text in scores}
    batch = list(dict.fromkeys(t for group in sentences.values() for t in group))
    labeled = structure.label_cohort([sentences[sub.abstract] for sub in cohort],
                                     dict(zip(batch, classify(batch))))
    reports = fb.build_reports([sub.submission_id for sub in cohort], sheets, labeled, rules)
    rendered = [fb.render_report(report, fmt, color=not args.no_color) for report in reports]

    reports_dir = f"{cfg.out_dir}/reports"
    os.makedirs(reports_dir, exist_ok=True)
    for sub, text in zip(cohort, rendered):
        write_file(f"{reports_dir}/{sub.submission_id}.{ext}", text.encode())
    # marks.json is a bare array ordered by submission id (the documented
    # interchange shape); the run seed lives in the manifest and feedback.
    feedback = [report.to_json_dict() for report in reports]
    _write_json(cfg.out_dir / "marks.json", [
        {"submission_id": d["submission_id"], **d["marks"]} for d in feedback])
    _write_json(cfg.out_dir / "feedback.json", {"seed": cfg.seed, "reports": feedback})
    _write_json(cfg.out_dir / "run.json",
                {"command": "grade", "seed": cfg.seed, "format": fmt, "graded": len(subs)})
    _emit(args, {"graded": len(subs), "out": str(cfg.out_dir), "seed": cfg.seed},
          f"graded {len(subs)} submissions into {cfg.out_dir}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    section = cfg.sections["eval"]
    subs = [
        s for s in ingest.load_submissions(section["submissions"]) if s.human_marks is not None
    ]
    if not subs:
        raise DataError("no submissions with human marks to evaluate against")
    abstracts = list(dict.fromkeys(s.abstract for s in subs))
    scores = dict(zip(abstracts, _model_from_spec(section["scorer_model"], "scorer")(abstracts)))

    machine01 = [scores[s.abstract] for s in subs]
    machine_marks = [scoring.abstract_mark(v) for v in machine01]
    human_marks = [s.human_marks.abstract_mark for s in subs]
    human01 = [m / 6.0 for m in human_marks]

    abstract_score, headline = _evaluate_scores(machine01, human01)
    acc = objectives.accuracy(machine_marks, human_marks)

    eval_path = cfg.out_dir / "eval.json"
    _write_json(
        eval_path,
        {
            "seed": cfg.seed,
            "n": len(subs),
            "abstract_score": abstract_score,
            "exact_mark_agreement": acc,
            "confusion": objectives.confusion(machine_marks, human_marks, list(range(7))),
        },
    )
    _emit(args, {"eval": str(eval_path), "n": len(subs), "seed": cfg.seed, **headline},
          f"evaluation of {len(subs)} submissions written to {eval_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "train-classifier": cmd_train_classifier,
    "grade": cmd_grade,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afg", description="Grading and structure-feedback pipeline"
    )
    parser.add_argument("--config", help="path to the JSON run config (or set AFG_CONFIG)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON summary to stdout")
    parser.add_argument("--no-color", action="store_true",
                        help="plain [B]/[T]/[O] tags instead of terminal colors")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.seed, args.out)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, OSError) as exc:
        # An OSError is a configured path that cannot be read or written.
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
