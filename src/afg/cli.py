"""Command-line entry point wiring the whole pipeline.

Subcommands: pretrain, finetune, train-classifier, grade, eval. One JSON
config file drives a run (``--config`` or the AFG_CONFIG environment
variable); ``--seed`` and ``--out`` flags override the config. All
randomness flows from the single run seed, which is recorded in the JSON
artifacts, so reruns with the same config are byte-identical apart from
the timestamp in training-log headers.

``grade`` runs each trained model once over the whole cohort, in length-
bucketed batches, at the model's first use (the first submission's mark or
labels) rather than at start-up. So the config and inputs are all checked
before any model work, and set-up costs no more than reading the files.

Exit codes: 0 ok, 2 configuration problem, 3 bad or empty data,
4 training diverged.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from . import feedback as fb
from . import ingest, nn, objectives, scoring, structure
from .errors import ConfigError, DataError, TrainingDivergedError
from .textproc import (
    DEFAULT_ABBREVIATIONS,
    Vocabulary,
    build_vocab,
    load_abbreviations,
    segment_sentences,
)

log = logging.getLogger("afg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


@dataclass
class RunConfig:
    seed: int
    out_dir: Path
    raw: dict
    base_dir: Path

    @classmethod
    def load(cls, path: str | None, seed: int | None, out: str | None) -> "RunConfig":
        if path is None:
            path = os.environ.get("AFG_CONFIG")
        if path is None:
            raise ConfigError("no config file: pass --config or set AFG_CONFIG")
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in config {p}: {exc}") from exc
        # The model file stores the seed as a signed 64-bit field.
        run_seed = _config_value(
            "seed (an integer in [0, 2**63))",
            lambda: int(seed if seed is not None else raw.get("seed", 0)),
            lambda value: 0 <= value < 2**63,
        )
        out_dir = Path(out) if out is not None else Path(raw.get("out_dir", "out"))
        return cls(seed=run_seed, out_dir=out_dir, raw=raw, base_dir=p.parent)

    def section(self, name: str) -> dict:
        if name not in self.raw:
            raise ConfigError(f"config missing section {name!r}")
        return self.raw[name]

    def resolve(self, path_str: str) -> Path:
        p = Path(path_str)
        return p if p.is_absolute() else self.base_dir / p


def _require_path(cfg: RunConfig, section: dict, key: str, what: str) -> Path:
    if key not in section:
        raise ConfigError(f"config missing {what} ({key!r})")
    path = cfg.resolve(section[key])
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _config_value(what: str, build: Callable, valid: Callable = lambda value: True):
    """``build()``, with a value it cannot convert or ``valid`` rejects as a ConfigError."""
    try:
        value = build()
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from None
    if not valid(value):
        raise ConfigError(f"invalid {what}: {value!r}")
    return value


def _encoder_config(cfg: RunConfig, vocab_size: int, head: str, n_classes: int = 0):
    model = cfg.raw.get("model", {})
    return _config_value("model settings", lambda: nn.EncoderConfig(
        vocab_size=vocab_size,
        embed_dim=int(model.get("embed_dim", 32)),
        hidden_dim=int(model.get("hidden_dim", 32)),
        attention_dim=int(model.get("attention_dim", 16)),
        head=head,
        n_classes=n_classes,
        seed=cfg.seed,
        max_sequence_length=int(model.get("max_sequence_length", nn.DEFAULT_MAX_SEQUENCE_LENGTH)),
    ))


def _train_config(cfg: RunConfig, section: dict, with_schedule: bool) -> nn.TrainConfig:
    schedule = None
    if with_schedule:
        s = section.get("schedule", {})
        schedule = _config_value("loss schedule", lambda: objectives.LossSchedule(
            a=float(s.get("a", 1.0)), b=float(s.get("b", 0.1)), c=float(s.get("c", 10.0))
        ))
    return _config_value("training settings", lambda: nn.TrainConfig(
        epochs=int(section.get("epochs", 5)),
        batch_size=int(section.get("batch_size", 64)),
        learning_rate=float(section.get("learning_rate", 1e-3)),
        schedule=schedule,
        seed=cfg.seed,
    ))


def _fraction(section: dict, default: float) -> float:
    return _config_value(
        "fraction (train share, in (0, 1))",
        lambda: float(section.get("fraction", default)),
        lambda f: 0.0 < f < 1.0,
    )


def _get_abbreviations(cfg: RunConfig):
    spec = cfg.raw.get("segmenter", {})
    if "abbreviations" in spec:
        return load_abbreviations(_require_path(cfg, spec, "abbreviations",
                                                "abbreviation list"))
    return DEFAULT_ABBREVIATIONS


def _get_vocab(cfg: RunConfig, texts: list[str]) -> Vocabulary:
    spec = cfg.raw.get("vocab", {})
    if "path" in spec:
        return Vocabulary.load(_require_path(cfg, spec, "path", "vocabulary file"))
    return _config_value("vocab settings", lambda: build_vocab(
        texts,
        max_size=int(spec.get("max_size", 512)),
        min_frequency=int(spec.get("min_frequency", 2)),
    ))


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _write_train_log(path: Path, train_log: nn.TrainLog, seed: int) -> None:
    payload = {"created_at": datetime.now(timezone.utc).isoformat(), "seed": seed}
    payload.update(train_log.to_json_dict())
    _write_json(path, payload)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


# ---------------------------------------------------------------------------
# Model specs: trained files or fixed oracles (testing seam)
# ---------------------------------------------------------------------------

def _load_model_with_vocab(cfg: RunConfig, spec: dict, what: str, head: str):
    path = _require_path(cfg, spec, "path", f"{what} model file")
    params, config = nn.load_model_file(path)
    if config.head != head:
        raise ConfigError(f"{what} model does not have a {head} head")
    vocab = Vocabulary.load(_require_path(cfg, spec, "vocab", f"{what} vocabulary"))
    if len(vocab) != config.vocab_size:
        raise ConfigError(
            f"{what}: vocabulary has {len(vocab)} tokens, model expects {config.vocab_size}"
        )
    return params, config, vocab


def _primed(predict: Callable[[Sequence[str]], list], texts: Callable[[], list[str]]):
    """A text -> output callable that runs ``predict`` over ``texts()`` at first use.

    The first call runs one batched pass over the whole run; later calls
    are look-ups. A text outside the run gets a pass of its own.
    """
    table = None

    def lookup(text: str):
        nonlocal table
        if table is None:
            batch = list(dict.fromkeys(texts()))
            table = dict(zip(batch, predict(batch)))
        if text not in table:
            table[text] = predict([text])[0]
        return table[text]

    return lookup


def _fixed_score(spec: dict) -> float:
    if "score" not in spec:
        raise ConfigError("fixed_score scorer needs a 'score'")
    try:
        value = float(spec["score"])
    except (TypeError, ValueError):
        raise ConfigError(f"fixed score {spec['score']!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"fixed score {value} outside [0, 1]")
    return value


def _scorer_from_spec(cfg: RunConfig, spec: dict, abstracts: Callable[[], list[str]]):
    """Abstract -> [0,1] score; a model file is primed with ``abstracts()``."""
    kind = spec.get("type", "file")
    if kind == "fixed_score":
        value = _fixed_score(spec)
        return lambda text: value
    if kind == "file":
        predictor = nn.Predictor(*_load_model_with_vocab(cfg, spec, "scorer", nn.REGRESSION))
        return _primed(predictor.scores, abstracts)
    raise ConfigError(f"unknown scorer model type {kind!r}")


def _classifier_from_spec(cfg: RunConfig, spec: dict, sentences: Callable[[], list[str]]):
    """Sentence -> class probabilities; a model file is primed with ``sentences()``."""
    kind = spec.get("type", "file")
    if kind == "fixed_labels":
        path = _require_path(cfg, spec, "path", "fixed-labels file")
        table = json.loads(path.read_text(encoding="utf-8"))
        return structure.make_fixed_classifier(table)
    if kind == "file":
        predictor = nn.Predictor(
            *_load_model_with_vocab(cfg, spec, "classifier", nn.CLASSIFICATION)
        )
        return _primed(predictor.probabilities, sentences)
    raise ConfigError(f"unknown classifier model type {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pretrain(cfg: RunConfig, args) -> int:
    section = cfg.section("pretrain")
    corpora = section.get("corpora")
    if not corpora:
        raise ConfigError("pretrain section needs a non-empty 'corpora' list")
    samples = []
    for entry in corpora:
        path = _require_path(cfg, entry, "path", "scored corpus")
        schema = ingest.TsvSchema.from_dict(entry)
        with open(path, "rb") as fh:
            samples.extend(ingest.parse_scored_tsv(fh, schema))
    if not samples:
        raise DataError("no training samples in the configured corpora")
    normalized = ingest.normalize_scores(samples)
    log.info("pretraining on %d samples", len(normalized))

    vocab = _get_vocab(cfg, [s.text for s in normalized])
    config = _encoder_config(cfg, len(vocab), nn.REGRESSION)
    params = nn.init_params(config)
    tc = _train_config(cfg, section, with_schedule=True)
    params, train_log = nn.train(
        [(s.text, s.score01) for s in normalized], tc, params, vocab,
        max_sequence_length=config.max_sequence_length,
    )

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    model_path = cfg.out_dir / "pretrained.afgm"
    vocab_path = cfg.out_dir / "vocab.txt"
    nn.save_model_file(model_path, params, config)
    vocab.save(vocab_path)
    _write_train_log(cfg.out_dir / "pretrain_log.json", train_log, cfg.seed)
    _emit(args, {"model": str(model_path), "vocab": str(vocab_path), "seed": cfg.seed,
                 "steps": train_log.steps_total},
          f"pretrained model written to {model_path}")
    return EXIT_OK


def _finetune_dataset(subs: list[ingest.Submission]) -> list[tuple[str, float]]:
    data = [
        (s.abstract, s.human_marks.abstract_mark / 6.0)
        for s in subs
        if s.human_marks is not None
    ]
    if not data:
        raise DataError("no submissions carry human marks to fine-tune on")
    return data


def cmd_finetune(cfg: RunConfig, args) -> int:
    section = cfg.section("finetune")
    base = section.get("base_model", {})
    params, config, vocab = _load_model_with_vocab(cfg, base, "base", nn.REGRESSION)
    subs_path = _require_path(cfg, section, "submissions", "submission file")
    subs = ingest.load_submissions(subs_path)
    if not subs:
        raise DataError(f"submission file {subs_path} is empty")
    data = _finetune_dataset(subs)
    ds = ingest.split(data, _fraction(section, 0.8), cfg.seed)
    log.info("fine-tuning on %d samples, evaluating on %d", len(ds.train), len(ds.eval))

    tc = _train_config(cfg, section, with_schedule=True)
    params, train_log = nn.train(
        list(ds.train), tc, params, vocab,
        max_sequence_length=config.max_sequence_length,
    )

    preds = nn.Predictor(params, config, vocab).scores([text for text, _ in ds.eval])
    targets = [y for _, y in ds.eval]
    report = objectives.evaluate_regression(preds, targets)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    model_path = cfg.out_dir / "finetuned.afgm"
    nn.save_model_file(model_path, params, config)
    _write_train_log(cfg.out_dir / "finetune_log.json", train_log, cfg.seed)
    eval_path = cfg.out_dir / "finetune_eval.json"
    _write_json(eval_path, {"seed": cfg.seed, **json.loads(report.to_json())})
    _emit(args, {"model": str(model_path), "eval": str(eval_path), "seed": cfg.seed,
                 "r2_paper": report.r2_paper},
          f"fine-tuned model written to {model_path} (eval r2 {report.r2_paper:.3f})")
    return EXIT_OK


def cmd_train_classifier(cfg: RunConfig, args) -> int:
    section = cfg.section("classifier")
    corpus_path = _require_path(cfg, section, "corpus", "labelled abstract corpus")
    with open(corpus_path, "rb") as fh:
        abstracts = ingest.parse_rct(fh)
    if not abstracts:
        raise DataError(f"no abstracts in {corpus_path}")
    # Default: map corpus labels to the three-class scheme before training.
    # five_class keeps the native labels and maps predictions afterwards,
    # for comparing the two routes.
    five_class = bool(section.get("five_class", False))
    label5_list = list(ingest.Label5)
    if five_class:
        pairs = [
            (text, label5_list.index(label5))
            for a in abstracts
            for label5, text in a.sentences
        ]
    else:
        pairs = [
            (text, int(structure.map_label(label5)))
            for a in abstracts
            for label5, text in a.sentences
        ]
    limit = section.get("max_sentences")
    if limit is not None:
        pairs = pairs[: _config_value(
            "max_sentences (at least 2)", lambda: int(limit), lambda n: n >= 2
        )]
    ds = ingest.split(pairs, _fraction(section, 0.9), cfg.seed)
    log.info("training classifier on %d sentences, evaluating on %d",
             len(ds.train), len(ds.eval))

    vocab = _get_vocab(cfg, [text for text, _ in ds.train])
    n_out = 5 if five_class else 3
    config = _encoder_config(cfg, len(vocab), nn.CLASSIFICATION, n_classes=n_out)
    params = nn.init_params(config)
    tc = _train_config(cfg, section, with_schedule=False)
    params, train_log = nn.train(
        [(t, int(lbl)) for t, lbl in ds.train], tc, params, vocab,
        max_sequence_length=config.max_sequence_length,
    )

    def to_label3(idx: int) -> int:
        return int(structure.map_label(label5_list[idx])) if five_class else idx

    pred = [
        to_label3(max(range(n_out), key=probs.__getitem__))
        for probs in nn.Predictor(params, config, vocab).probabilities([t for t, _ in ds.eval])
    ]
    true = [to_label3(int(lbl)) for _, lbl in ds.eval]
    acc = objectives.accuracy(pred, true)
    counts = [true.count(k) for k in range(3)]
    baseline = max(counts) / len(true)
    cm = objectives.confusion(pred, true, 3)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    model_path = cfg.out_dir / "classifier.afgm"
    vocab_path = cfg.out_dir / "classifier_vocab.txt"
    nn.save_model_file(model_path, params, config)
    vocab.save(vocab_path)
    _write_train_log(cfg.out_dir / "classifier_log.json", train_log, cfg.seed)
    _write_json(
        cfg.out_dir / "classifier_eval.json",
        {
            "seed": cfg.seed,
            "accuracy": acc,
            "majority_baseline": baseline,
            "n_eval": len(true),
            "confusion": json.loads(cm.to_json([l.name for l in structure.Label3])),
        },
    )
    _emit(args, {"model": str(model_path), "accuracy": acc, "baseline": baseline,
                 "seed": cfg.seed},
          f"classifier written to {model_path} (accuracy {acc:.3f}, baseline {baseline:.3f})")
    return EXIT_OK


def cmd_grade(cfg: RunConfig, args) -> int:
    section = cfg.section("grade")
    subs_path = _require_path(cfg, section, "submissions", "submission file")
    subs = ingest.load_submissions(subs_path)
    if not subs:
        raise DataError(f"submission file {subs_path} is empty")
    keys = ingest.load_answer_keys(_require_path(cfg, section, "keys", "answer-key file"))
    seen = set()
    for sub in subs:
        if sub.submission_id in seen:
            raise DataError(f"duplicate submission id {sub.submission_id!r}")
        seen.add(sub.submission_id)
        if sub.paper_id not in keys:
            raise DataError(f"no answer key for paper {sub.paper_id!r}")
    abbreviations = _get_abbreviations(cfg)
    score_fn = _scorer_from_spec(
        cfg, section.get("scorer_model", {}), lambda: [s.abstract for s in subs]
    )
    classify_fn = _classifier_from_spec(
        cfg, section.get("classifier_model", {}),
        lambda: [t for s in subs for t in segment_sentences(s.abstract, abbreviations)],
    )
    rules = (
        fb.load_rules(_require_path(cfg, section, "rules", "rule config"))
        if "rules" in section
        else fb.default_rules()
    )
    fmt = section.get("format", "markdown")
    ext = {"terminal": "txt", "html": "html", "markdown": "md"}.get(fmt)
    if ext is None:
        raise ConfigError(f"unknown report format {fmt!r}")

    reports_dir = cfg.out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    marks_out = []
    feedback_out = []
    for sub in sorted(subs, key=lambda s: s.submission_id):
        sheet = scoring.mark_submission(sub, keys[sub.paper_id], score_fn)
        labeled = structure.classify_abstract(
            sub.abstract, classify_fn, abbreviations=abbreviations
        )
        report = fb.build_report(sub.submission_id, sheet, labeled, rules)
        rendered = fb.render_report(report, fmt, color=not args.no_color)
        (reports_dir / f"{sub.submission_id}.{ext}").write_text(rendered, encoding="utf-8")
        marks_out.append({"submission_id": sub.submission_id, **sheet.to_json_dict()})
        feedback_out.append(report.to_json_dict())

    # marks.json is a bare array ordered by submission id (the documented
    # interchange shape); the run seed lives in the manifest and feedback.
    _write_json(cfg.out_dir / "marks.json", marks_out)
    _write_json(cfg.out_dir / "feedback.json", {"seed": cfg.seed, "reports": feedback_out})
    _write_json(
        cfg.out_dir / "run.json",
        {"command": "grade", "seed": cfg.seed, "format": fmt, "graded": len(subs)},
    )
    _emit(args, {"graded": len(subs), "out": str(cfg.out_dir), "seed": cfg.seed},
          f"graded {len(subs)} submissions into {cfg.out_dir}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, args) -> int:
    section = cfg.section("eval")
    subs_path = _require_path(cfg, section, "submissions", "submission file")
    subs = [s for s in ingest.load_submissions(subs_path) if s.human_marks is not None]
    if not subs:
        raise DataError("no submissions with human marks to evaluate against")
    score_fn = _scorer_from_spec(
        cfg, section.get("scorer_model", {}), lambda: [s.abstract for s in subs]
    )

    machine01 = [float(score_fn(s.abstract)) for s in subs]
    machine_marks = [scoring.abstract_mark(v) for v in machine01]
    human_marks = [s.human_marks.abstract_mark for s in subs]
    human01 = [m / 6.0 for m in human_marks]

    report = objectives.evaluate_regression(machine01, human01)
    cm = objectives.confusion(machine_marks, human_marks, 7)
    acc = objectives.accuracy(machine_marks, human_marks)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    eval_path = cfg.out_dir / "eval.json"
    _write_json(
        eval_path,
        {
            "seed": cfg.seed,
            "n": len(subs),
            "abstract_score": json.loads(report.to_json()),
            "exact_mark_agreement": acc,
            "confusion": json.loads(cm.to_json(list(range(7)))),
        },
    )
    _emit(args, {"eval": str(eval_path), "n": len(subs), "seed": cfg.seed,
                 "r2_paper": report.r2_paper},
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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: missing file {exc.filename}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
