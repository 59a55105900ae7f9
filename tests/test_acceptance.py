"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its headline numbers; the heavier ones
(classifier learning, transfer trend) train real models and take about a
minute each. Brute-force oracles here are deliberately independent of
the library implementations: plain Python loops and ``math`` only.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from afg import nn, objectives
from afg.feedback import build_report, cohort_feedback, render_report
from afg.ingest import AnswerKey, Submission, parse_rct, serialize_rct, split
from afg.scoring import (
    Verdict,
    band_for_percent_diff,
    band_for_similarity,
    mark_submission,
)
from afg.structure import (
    Label3,
    LabeledCohort,
    classify_abstract,
    make_fixed_classifier,
    map_label,
)
from afg.synthdata import (
    generate_rct_corpus,
    generate_regression_samples,
    mapped_sentences,
)
from afg.textproc import build_vocab, cosine_similarity, segment_sentences, tokenize
from conftest import (
    EXAMPLE1_ABSTRACT,
    EXAMPLE1_COMMENTS,
    EXAMPLE1_LABELS,
    EXAMPLE2_ABSTRACT,
    EXAMPLE2_COMMENTS,
    EXAMPLE2_KEY,
    EXAMPLE2_LABELS,
    EXAMPLE2_SUBMISSION,
    context_and_attention,
    one_row,
    oracle_table,
    write_file,
)

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Criterion 1: formula fidelity against brute-force oracles
# ---------------------------------------------------------------------------

def _b_mean(v):
    return sum(v) / len(v)


def _b_std(v):
    m = _b_mean(v)
    return math.sqrt(sum((x - m) ** 2 for x in v) / len(v))


def _b_mse(p, t):
    return sum((a - b) ** 2 for a, b in zip(p, t)) / len(p)


def _b_mae(p, t):
    return sum(abs(a - b) for a, b in zip(p, t)) / len(p)


def _b_max(p, t):
    return max(abs(a - b) for a, b in zip(p, t))


def _b_weight(t, a, b, c, T):
    return min(a, a * math.exp(-c * (t / T - b)))


def _b_r2_paper(p, t):
    m = _b_mean(p)
    return 1.0 - sum((a - b) ** 2 for a, b in zip(p, t)) / sum((a - m) ** 2 for a in p)


def _b_r2_standard(p, t):
    m = _b_mean(t)
    return 1.0 - sum((a - b) ** 2 for a, b in zip(p, t)) / sum((b - m) ** 2 for b in t)


def test_criterion_1_formula_oracles():
    start = time.time()
    rng = np.random.default_rng(12345)
    tol = 1e-9
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        preds = [float(x) for x in rng.uniform(0, 1, n)]
        targets = [float(x) for x in rng.uniform(0, 1, n)]
        a = float(rng.uniform(0.05, 1.0))
        b = float(rng.uniform(0.0, 1.0))
        c = float(rng.uniform(0.0, 20.0))
        T = int(rng.integers(1, 500))
        t = int(rng.integers(0, T + 1))
        sched = objectives.LossSchedule(a=a, b=b, c=c, T=T)

        assert objectives.mse(preds, targets) == pytest.approx(_b_mse(preds, targets), abs=tol)
        assert objectives.mae(preds, targets) == pytest.approx(_b_mae(preds, targets), abs=tol)
        assert objectives.rmse(preds, targets) == pytest.approx(
            math.sqrt(_b_mse(preds, targets)), abs=tol
        )
        assert objectives.max_error(preds, targets) == pytest.approx(
            _b_max(preds, targets), abs=tol
        )
        assert objectives.stde(preds, targets) == pytest.approx(
            abs(_b_std(targets) - _b_std(preds)), abs=tol
        )
        pw = objectives.weight_p(t, sched)
        assert pw == pytest.approx(_b_weight(t, a, b, c, T), abs=tol)
        expected = pw * abs(_b_std(targets) - _b_std(preds)) + (1 - pw) * _b_mse(preds, targets)
        assert objectives.combined_loss(preds, targets, t, sched) == pytest.approx(
            expected, abs=tol
        )
        assert objectives.r2(preds, targets, "paper") == pytest.approx(
            _b_r2_paper(preds, targets), abs=tol
        )
        assert objectives.r2(preds, targets, "standard") == pytest.approx(
            _b_r2_standard(preds, targets), abs=tol
        )
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS criterion 1: 1000 random vectors, tol 1e-9, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness on five seeded configs
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_checks(tiny_vocab):
    start = time.time()
    reg_samples = [
        ("the cat sat on mat park", 0.3),
        ("dog ran in the park", 0.8),
        ("results show clear gains", 0.55),
    ]
    cls_samples = [("the cat sat", 0), ("dog ran in park", 1), ("results show gains", 2)]
    worst = 0.0
    for seed in range(5):
        hidden = 6 + seed
        reg_cfg = nn.EncoderConfig(
            vocab_size=len(tiny_vocab), embed_dim=8, hidden_dim=hidden,
            attention_dim=6, head=nn.REGRESSION, seed=seed,
        )
        reg_params = nn.init_params(reg_cfg)
        for p_weight in (0.0, 0.5, 1.0):
            err = nn.grad_check(reg_params, reg_samples, tiny_vocab, p_weight,
                                n_weights=200, seed=seed)
            assert err < 1e-4, f"seed {seed} p_weight {p_weight}: {err:.2e}"
            worst = max(worst, err)
        cls_cfg = nn.EncoderConfig(
            vocab_size=len(tiny_vocab), embed_dim=8, hidden_dim=hidden,
            attention_dim=6, head=nn.CLASSIFICATION, n_classes=3, seed=seed,
        )
        cls_params = nn.init_params(cls_cfg)
        err = nn.grad_check(cls_params, cls_samples, tiny_vocab, n_weights=200, seed=seed)
        assert err < 1e-4, f"seed {seed} cross_entropy: {err:.2e}"
        worst = max(worst, err)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE PASS criterion 2: worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: rubric band boundaries and the marking example
# ---------------------------------------------------------------------------

def test_criterion_3_rubric_boundaries():
    numeric = {
        9.999: Verdict.FULLY_CORRECT,
        10.0: Verdict.FULLY_CORRECT,
        10.001: Verdict.PARTIALLY_CORRECT,
        25.0: Verdict.PARTIALLY_CORRECT,
        25.001: Verdict.INCORRECT,
    }
    for d, expected in numeric.items():
        assert band_for_percent_diff(d) is expected, d
    similarity = {
        0.6499: Verdict.INCORRECT,
        0.65: Verdict.PARTIALLY_CORRECT,
        0.8999: Verdict.PARTIALLY_CORRECT,
        0.9: Verdict.FULLY_CORRECT,
        0.9001: Verdict.FULLY_CORRECT,
    }
    for s, expected in similarity.items():
        assert band_for_similarity(s) is expected, s

    sub = Submission(**EXAMPLE2_SUBMISSION)
    key = AnswerKey(**EXAMPLE2_KEY)
    sheet = mark_submission(sub, key, lambda text: 0.5)
    values = (sheet.q1_impact.value, sheet.q2_rsc.value, sheet.q3_acs.value,
              sheet.q4_cited.value)
    assert values == (1.0, 1.0, 1.0, 0.0)
    print("\nACCEPTANCE PASS criterion 3: 10 boundary bands + example marks 1/1/1/0")


# ---------------------------------------------------------------------------
# Criterion 4: five-to-three label mapping
# ---------------------------------------------------------------------------

def test_criterion_4_label_mapping():
    from afg.ingest import Label5

    assert map_label(Label5.BACKGROUND) is Label3.BACKGROUND
    assert map_label(Label5.OBJECTIVE) is Label3.BACKGROUND
    assert map_label(Label5.METHOD) is Label3.TECHNIQUE
    assert map_label(Label5.RESULT) is Label3.OBSERVATION
    assert map_label(Label5.CONCLUSION) is Label3.OBSERVATION
    print("\nACCEPTANCE PASS criterion 4: label mapping matches on all 5 classes")


# ---------------------------------------------------------------------------
# Criterion 5: worked examples, verbatim comments, golden files
# ---------------------------------------------------------------------------

def test_criterion_5_worked_examples_golden():
    start = time.time()

    sents1 = segment_sentences(EXAMPLE1_ABSTRACT)
    assert len(sents1) == 6
    oracle1 = make_fixed_classifier(oracle_table(sents1, EXAMPLE1_LABELS))
    labeled1 = classify_abstract(sents1, oracle1)

    sents2 = segment_sentences(EXAMPLE2_ABSTRACT)
    assert len(sents2) == 7
    oracle2 = make_fixed_classifier(oracle_table(sents2, EXAMPLE2_LABELS))
    labeled2 = classify_abstract(sents2, oracle2)

    cohort = LabeledCohort.of([labeled1, labeled2])
    shares1, shares2 = cohort.shares().tolist()
    assert shares1 == pytest.approx((4 / 6, 1 / 6, 1 / 6))
    assert shares2 == pytest.approx((2 / 7, 1 / 7, 4 / 7))
    comments1, comments2 = map(list, cohort_feedback(cohort.shares(), cohort.in_order))
    assert comments1 == EXAMPLE1_COMMENTS
    assert comments2 == EXAMPLE2_COMMENTS

    golden_struct = json.loads((GOLDEN / "structure_example.json").read_text("utf-8"))
    assert golden_struct["labels"] == [s.label.name for s in labeled1.sentences]
    assert golden_struct["comments"] == comments1

    sheet = mark_submission(
        Submission(**EXAMPLE2_SUBMISSION), AnswerKey(**EXAMPLE2_KEY), lambda t: 0.5
    )
    report = build_report("ex2", sheet, labeled2)
    assert render_report(report, "markdown") == (GOLDEN / "example2_report.md").read_text("utf-8")
    assert render_report(report, "html") == (GOLDEN / "example2_report.html").read_text("utf-8")

    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS criterion 5: both worked examples verbatim, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 6: classifier learning on the synthetic corpus
# ---------------------------------------------------------------------------

def test_criterion_6_classifier_learning():
    start = time.time()
    corpus = generate_rct_corpus(950, seed=100)
    pairs = mapped_sentences(corpus)[:6000]
    ds = split(pairs, 5000 / 6000, seed=42)
    assert len(ds.train) == 5000 and len(ds.eval) == 1000

    vocab = build_vocab([t for t, _ in ds.train], max_size=512, min_frequency=2)
    config = nn.EncoderConfig(
        vocab_size=len(vocab), embed_dim=32, hidden_dim=32, attention_dim=16,
        head=nn.CLASSIFICATION, n_classes=3, seed=0,
    )
    tc = nn.TrainConfig(epochs=5, batch_size=64, learning_rate=2e-3, seed=0)
    params, _ = nn.train(
        [(t, int(l)) for t, l in ds.train], tc, nn.init_params(config), vocab
    )

    pred = [
        int(np.argmax(nn.classify_sentence(t, params, vocab))) for t, _ in ds.eval
    ]
    true = [int(l) for _, l in ds.eval]
    acc = objectives.accuracy(pred, true)
    baseline = max(true.count(k) for k in range(3)) / len(true)
    elapsed = time.time() - start
    assert acc >= 0.75, f"accuracy {acc:.3f}"
    assert acc >= baseline + 0.10, f"accuracy {acc:.3f} vs baseline {baseline:.3f}"
    assert elapsed < 900.0
    print(
        f"\nACCEPTANCE PASS criterion 6: accuracy {acc:.3f} "
        f"(baseline {baseline:.3f}), {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 7: pretraining-then-fine-tuning beats both alternatives
# ---------------------------------------------------------------------------

def test_criterion_7_pretrain_finetune_trend():
    start = time.time()
    pre_data = generate_regression_samples(2000, seed=500, family="A")
    fine_data = generate_regression_samples(200, seed=501, family="B")
    vocab = build_vocab([t for t, _ in pre_data], max_size=512, min_frequency=2)
    sched = objectives.LossSchedule(a=1.0, b=0.1, c=10.0)

    def eval_r2(params, eval_set):
        preds = [nn.predict_score(t, params, vocab) for t, _ in eval_set]
        return objectives.r2(preds, [y for _, y in eval_set], "paper")

    rows = []
    for seed in range(5):
        config = nn.EncoderConfig(
            vocab_size=len(vocab), embed_dim=32, hidden_dim=32, attention_dim=16,
            head=nn.REGRESSION, seed=seed,
        )
        pre_tc = nn.TrainConfig(epochs=3, batch_size=32, learning_rate=2e-3,
                                schedule=sched, seed=seed)
        pre_params, _ = nn.train(pre_data, pre_tc, nn.init_params(config), vocab)

        ds = split(fine_data, 0.8, seed=seed)
        ft_tc = nn.TrainConfig(epochs=4, batch_size=16, learning_rate=1e-3,
                               schedule=sched, seed=seed)
        ft_params, _ = nn.train(list(ds.train), ft_tc, pre_params, vocab)
        scratch_params, _ = nn.train(list(ds.train), ft_tc, nn.init_params(config), vocab)

        rows.append((eval_r2(pre_params, ds.eval), eval_r2(ft_params, ds.eval),
                     eval_r2(scratch_params, ds.eval)))

    arr = np.array(rows)
    ft_wins = int((arr[:, 1] > arr[:, 0]).sum())
    mean_pre, mean_ft, mean_scratch = arr.mean(axis=0)
    elapsed = time.time() - start
    assert ft_wins >= 4, f"fine-tuning beat pretraining in only {ft_wins}/5 seeds"
    assert mean_scratch < mean_pre, (mean_scratch, mean_pre)
    assert mean_scratch < mean_ft, (mean_scratch, mean_ft)
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE PASS criterion 7: ft>pre in {ft_wins}/5 seeds; mean r2 "
        f"pre {mean_pre:.2f} / ft {mean_ft:.2f} / scratch {mean_scratch:.2f}, {elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# Criterion 8: property suites, 1000 cases each
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites(tiny_vocab):
    start = time.time()
    rng = np.random.default_rng(777)

    for _ in range(1000):  # metric ordering
        n = int(rng.integers(1, 65))
        p = rng.uniform(0, 1, n)
        t = rng.uniform(0, 1, n)
        assert objectives.mae(p, t) <= objectives.rmse(p, t) + 1e-12
        assert objectives.rmse(p, t) <= objectives.max_error(p, t) + 1e-12

    config = nn.EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=6, hidden_dim=6,
                              attention_dim=4, seed=9)
    params = nn.init_params(config)
    for _ in range(1000):  # attention normalization
        n = int(rng.integers(1, 12))
        ids = rng.integers(0, len(tiny_vocab), n)
        _, alpha = context_and_attention(params, ids)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-6)
        assert (alpha >= 0).all()

    for _ in range(1000):  # split partition
        n = int(rng.integers(2, 40))
        items = [int(x) for x in rng.integers(0, 1000, n)]
        fraction = float(rng.uniform(0.05, 0.95))
        ds = split(items, fraction, int(rng.integers(0, 2**62)))
        assert sorted(ds.train + ds.eval) == sorted(items)

    from afg.ingest import RawSample

    for _ in range(1000):  # normalization is affine and monotone
        lo = float(rng.uniform(-10, 10))
        hi = lo + float(rng.uniform(0.5, 20))
        raw_a, raw_b = sorted(rng.uniform(lo, hi, 2))
        na = RawSample("a", "p", "t", float(raw_a), lo, hi)
        nb = RawSample("b", "p", "t", float(raw_b), lo, hi)
        assert 0.0 <= na.score01 <= 1.0
        expected = (raw_a - lo) / (hi - lo)
        assert na.score01 == pytest.approx(expected, abs=1e-12)
        if raw_a < raw_b:
            assert na.score01 < nb.score01

    terms = "abcdefghij"
    for _ in range(1000):  # cosine symmetry and scale invariance
        va = {terms[i]: int(rng.integers(1, 30)) for i in rng.integers(0, 10, 4)}
        vb = {terms[i]: int(rng.integers(1, 30)) for i in rng.integers(0, 10, 4)}
        k = int(rng.integers(2, 9))
        assert cosine_similarity(va, vb) == pytest.approx(cosine_similarity(vb, va), abs=1e-12)
        scaled = {t: c * k for t, c in va.items()}
        assert cosine_similarity(scaled, vb) == pytest.approx(
            cosine_similarity(va, vb), abs=1e-9
        )

    for _ in range(1000):  # schedule plateau and monotone decay
        sched = objectives.LossSchedule(
            a=float(rng.uniform(0.05, 1.0)), b=float(rng.uniform(0, 1)),
            c=float(rng.uniform(0, 15)), T=int(rng.integers(1, 200)),
        )
        t1 = int(rng.integers(0, sched.T + 1))
        t2 = int(rng.integers(t1, sched.T + 1))
        p1, p2 = objectives.weight_p(t1, sched), objectives.weight_p(t2, sched)
        assert p1 <= sched.a and p2 <= p1 + 1e-15
        if t2 / sched.T <= sched.b:
            assert p2 == sched.a

    for _ in range(1000):  # distribution shares sum to one
        n = int(rng.integers(1, 30))
        labels = [Label3(int(k)) for k in rng.integers(0, 3, n)]
        row = one_row(labels)
        assert row.shares()[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert row.counts[0].sum() == n

    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE PASS criterion 8: 7 property suites x 1000 cases, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 9: serialization round trips and output stability
# ---------------------------------------------------------------------------

def test_criterion_9_roundtrips_and_stability(tiny_vocab, tmp_path):
    # model save/load is bit-identical
    config = nn.EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=8, hidden_dim=8,
                              attention_dim=6, seed=21)
    params = nn.init_params(config)
    loaded, loaded_cfg = nn.load_model(nn.save_model(params, config))
    assert loaded_cfg == config
    for a, b in zip(params.arrays().values(), loaded.arrays().values()):
        assert np.array_equal(a, b)

    # labelled-corpus parse/serialize identity
    corpus = generate_rct_corpus(40, seed=17)
    text = serialize_rct(corpus)
    assert parse_rct(write_file(tmp_path, text)) == corpus
    assert serialize_rct(parse_rct(write_file(tmp_path, text))) == text

    # graded reports are byte-stable across two CLI runs with one seed
    from afg.cli import main as cli_main

    body = {
        "seed": 7,
        "grade": {
            "submissions": str(DATA / "example_submissions.json"),
            "keys": str(DATA / "example_keys.json"),
            "scorer_model": {"type": "fixed_score", "score": 0.5},
            "classifier_model": {"type": "fixed_labels",
                                 "path": str(DATA / "oracle_labels.json")},
            "format": "markdown",
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(body), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["--config", str(cfg_path), "--out", str(out1), "grade"]) == 0
    assert cli_main(["--config", str(cfg_path), "--out", str(out2), "grade"]) == 0
    for name in ("marks.json", "feedback.json", "reports/ex2.md"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # and the rendered report matches the frozen golden file
    assert (out1 / "reports/ex2.md").read_bytes() == (
        GOLDEN / "example2_report.md"
    ).read_bytes()
    print("\nACCEPTANCE PASS criterion 9: round trips and stable outputs")
