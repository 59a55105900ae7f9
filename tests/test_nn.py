"""Encoder, heads, training loop, gradient checks and serialization."""

import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from afg import nn
from afg.errors import AfgError, ConfigError, DataError, TrainingDivergedError
from afg.nn import (
    CLASSIFICATION,
    REGRESSION,
    TOKEN_BUDGET,
    EncoderConfig,
    Predictor,
    TrainConfig,
    _batch_forward,
    _backward,
    _chunks,
    _encode_texts,
    _groups,
    _loss_and_dlogits,
    _sigmoid,
    _softmax,
    _zero_grads,
    batch_loss,
    batch_loss_and_grads,
    classify_sentence,
    grad_check,
    init_params,
    load_model,
    load_model_file,
    max_grad_error,
    predict_score,
    save_model,
    save_model_file,
    train,
)
from afg.objectives import LossSchedule
from afg.scoring import abstract_mark
from afg.synthdata import (
    SEPARABLE_SENTENCES,
    generate_rct_corpus,
    generate_regression_samples,
    mapped_sentences,
)
from afg.textproc import Vocabulary, build_vocab, tokenize
from conftest import context_and_attention


def _lstm_forward_padded(x: np.ndarray, wx, wh, b):
    """One direction over time-major (T, B, E) inputs, every row through all T steps."""
    t_len, n, _ = x.shape
    h_dim = wh.shape[0]
    gates = x @ wx + b
    hs = np.zeros((t_len + 1, n, h_dim), dtype=gates.dtype)
    cs = np.zeros_like(hs)
    for t in range(t_len):
        z = gates[t]
        z += hs[t] @ wh
        g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        z[:, 2 * h_dim : 3 * h_dim] = g
        np.multiply(z[:, h_dim : 2 * h_dim], cs[t], out=cs[t + 1])
        cs[t + 1] += z[:, :h_dim] * g
        np.tanh(cs[t + 1], out=hs[t + 1])
        hs[t + 1] *= z[:, 3 * h_dim :]
    return {"hs": hs, "cs": cs, "gates": gates}


def _in_input_order(bw, lengths):
    """The backward direction's histories, moved from each row's reversed valid
    prefix into ``nn``'s input-order slots, padded slots exactly zero.

    ``nn`` steps position t by reading state slot t + 1 and writing slot t, so a
    row of length n gets slots n..0 of its reversed run in slots 0..n. Backprop
    passes a row's start-state gradient on into its padded slots, where zero
    gates stop it. Backprop's products round by the arrays' memory layout, so
    each keeps its input's time-major layout; fancy indexing could make it
    batch-major.
    """
    out = {k: np.zeros_like(v) for k, v in bw.items()}
    for row, n in enumerate(lengths):
        for k in ("hs", "cs"):
            out[k][: n + 1, row] = bw[k][n::-1, row]
        out["gates"][:n, row] = bw["gates"][n - 1 :: -1, row]
    return out


def _forward(ids: np.ndarray, lengths: np.ndarray, p):
    """The reference forward of one right-padded (B, T) chunk, padded steps included.

    The backward direction runs over each row's valid prefix reversed, then its
    padding. A one-row chunk runs its recurrence as two copies of its row and
    keeps row 0, so every recurrent product has two rows or more, as in ``nn``.
    Returns the chunk cache that ``nn._backward`` reads.
    """
    rows = np.arange(len(ids))[:, None]
    steps = np.arange(ids.shape[1])
    valid = steps < lengths[:, None]
    rev = np.where(valid, lengths[:, None] - 1 - steps, steps)
    ids_fw, ids_bw = ids, ids[rows, rev]
    if len(ids) == 1:
        ids_fw, ids_bw = np.repeat(ids_fw, 2, axis=0), np.repeat(ids_bw, 2, axis=0)
    fw = _lstm_forward_padded(p.embed[ids_fw.T], p.fw_wx, p.fw_wh, p.fw_b)
    bw_rev = _lstm_forward_padded(p.embed[ids_bw.T], p.bw_wx, p.bw_wh, p.bw_b)
    bw = _in_input_order(bw_rev, lengths)
    fw, bw = ({k: v[:, : len(ids)] for k, v in d.items()} for d in (fw, bw))
    h_fw, h_bw = fw["hs"][1:].swapaxes(0, 1), bw_rev["hs"][1:, : len(ids)].swapaxes(0, 1)
    h_cat = np.concatenate([h_fw, h_bw[rows, rev]], axis=2)
    u = np.tanh(h_cat @ p.att_w)
    alpha = _softmax(np.where(valid, u @ p.att_v, -np.inf))
    ctx = (alpha[:, None, :] @ h_cat)[:, 0]
    logits = np.einsum("bk,kc->bc", ctx, p.head_w) + p.head_b
    return {
        "ids": ids, "fw": fw, "bw": bw, "h_cat": h_cat,
        "u": u, "alpha": alpha, "ctx": ctx, "logits": logits,
    }


def _reference_loss_and_grads(p, seqs, targets, p_weight):
    """Logits, loss and gradients with every ``_chunks`` chunk run by the reference forward."""
    logits = np.empty((len(seqs), p.head_dim))
    caches = []
    for idx in _chunks([len(s) for s in seqs]):
        lengths = np.array([len(seqs[i]) for i in idx])
        ids = np.zeros((len(idx), lengths.max()), dtype=np.int64)
        for row, i in enumerate(idx):
            ids[row, : lengths[row]] = seqs[i]
        caches.append((idx, _forward(ids, lengths, p)))
        logits[idx] = caches[-1][1]["logits"]
    loss, dlogits = _loss_and_dlogits(logits, targets, p_weight)
    grads = _zero_grads(p)
    for idx, cache in caches:
        _backward(cache, dlogits[idx], p, grads)
    return logits, float(loss), grads


def _forward_one(ids: np.ndarray, params, dtype=np.float64):
    """The reference forward of ``ids`` alone, at ``dtype``."""
    return _forward(ids[None], np.array([ids.shape[0]]), params.astype(dtype))


@pytest.fixture(scope="module")
def reg_setup(tiny_vocab):
    config = EncoderConfig(
        vocab_size=len(tiny_vocab), embed_dim=8, hidden_dim=8, attention_dim=6,
        head=REGRESSION, seed=3,
    )
    return config, init_params(config), tiny_vocab


@pytest.fixture(scope="module")
def cls_setup(tiny_vocab):
    config = EncoderConfig(
        vocab_size=len(tiny_vocab), embed_dim=8, hidden_dim=8, attention_dim=6,
        head=CLASSIFICATION, n_classes=3, seed=3,
    )
    return config, init_params(config), tiny_vocab


def _predictor(setup) -> Predictor:
    """A fixture's (config, params, vocab) as a Predictor."""
    config, params, vocab = setup
    return Predictor(params, config, vocab)


class TestInitParams:
    def test_deterministic_bit_identical(self, reg_setup):
        config, params, _ = reg_setup
        again = init_params(config)
        for a, b in zip(params.arrays().values(), again.arrays().values()):
            assert np.array_equal(a, b)

    def test_biases_zero(self, reg_setup):
        _, params, _ = reg_setup
        for name in ("fw_b", "bw_b", "head_b"):
            assert not params.arrays()[name].any()

    def test_shapes(self, reg_setup):
        config, params, _ = reg_setup
        assert params.embed.shape == (config.vocab_size, config.embed_dim)
        assert params.fw_wx.shape == (config.embed_dim, 4 * config.hidden_dim)
        assert params.att_w.shape == (2 * config.hidden_dim, config.attention_dim)
        assert params.head_w.shape == (2 * config.hidden_dim, 1)

    def test_glorot_bound_respected(self, reg_setup):
        config, params, _ = reg_setup
        bound = np.sqrt(6.0 / (config.embed_dim + 4 * config.hidden_dim))
        assert np.abs(params.fw_wx).max() <= bound

    def test_weights_are_float32(self, reg_setup):
        _, params, _ = reg_setup
        assert all(a.dtype == np.float32 for a in params.arrays().values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=0)
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=5, head=CLASSIFICATION, n_classes=1)

    def test_draw_order_pinned(self):
        # Pinned digest of the initial weights: any change to the draw order,
        # the Glorot bounds or the zero biases changes it.
        config = EncoderConfig(vocab_size=20, embed_dim=4, hidden_dim=3, attention_dim=2,
                               head=CLASSIFICATION, n_classes=3, seed=7)
        blob = save_model(init_params(config), config)
        assert hashlib.blake2b(blob, digest_size=16).hexdigest() == (
            "e8744ee8d1692687d8c4550ac2c852ba"
        )


class TestEncode:
    def test_singleton_attention_weight_is_one(self, reg_setup):
        _, params, _ = reg_setup
        _, alpha = context_and_attention(params, [3])
        assert alpha.shape == (1,)
        assert alpha[0] == pytest.approx(1.0, abs=1e-12)

    def test_attention_sums_to_one(self, reg_setup):
        _, params, vocab = reg_setup
        for text in ("the cat sat on the mat", "dog park", "results show clear gains today"):
            _, alpha = context_and_attention(params, tokenize(text, vocab).token_ids)
            assert alpha.sum() == pytest.approx(1.0, abs=1e-6)
            assert (alpha >= 0).all()

    def test_order_sensitivity(self, reg_setup):
        _, params, _ = reg_setup
        fwd, _ = context_and_attention(params, [3, 7])
        rev, _ = context_and_attention(params, [7, 3])
        assert not np.allclose(fwd, rev)

    def test_context_dimension(self, reg_setup):
        config, params, _ = reg_setup
        ctx, _ = context_and_attention(params, [2, 4, 5])
        assert ctx.shape == (2 * config.hidden_dim,)

    def test_long_sequence_truncated_with_warning(self, reg_setup):
        _, _, vocab = reg_setup
        with pytest.warns(UserWarning, match="truncated"):
            [ids] = _encode_texts(["the cat " * 20], vocab, max_sequence_length=8)
        [first_eight] = _encode_texts(["the cat " * 4], vocab, max_sequence_length=8)
        assert len(first_eight) == 8
        assert np.array_equal(ids, first_eight)


class TestBatchedForward:
    """The padded batch forward against the same sequences run one at a time."""

    ONE_TO_FORTY = [17, 3, 40, 1, 29, 8, 35, 12, 22, 5, 38, 14, 26, 2, 31, 9, 19, 36, 6, 24,
                    11, 33, 4, 27, 15, 39, 7, 21, 30, 10, 37, 13, 25, 18, 32, 16, 28, 20, 34, 23]

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=ONE_TO_FORTY, seed=0)
    def test_rows_match_batch_of_one(self, cls_setup, lengths, seed):
        config, params, _ = cls_setup
        p64 = params.astype(np.float64)
        rng = np.random.default_rng(seed)
        seqs = [rng.integers(0, config.vocab_size, n) for n in lengths]
        singles = [_forward_one(seq, params) for seq in seqs]

        # Chunked over the token budget, logits come back in input order.
        logits, _ = _batch_forward(p64, seqs)
        for row, single in zip(logits, singles):
            np.testing.assert_allclose(row, single["logits"][0], rtol=0, atol=1e-12)

        # One padded batch: padding gets no attention at all.
        ids = np.zeros((len(seqs), max(lengths)), dtype=np.int64)
        for row, seq in zip(ids, seqs):
            row[: len(seq)] = seq
        cache = _forward(ids, np.array(lengths), p64)
        for k, (n, single) in enumerate(zip(lengths, singles)):
            assert (cache["alpha"][k, n:] == 0.0).all()
            np.testing.assert_allclose(cache["alpha"][k, :n], single["alpha"][0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache["logits"][k], single["logits"][0],
                                       rtol=0, atol=1e-12)

    def test_example_spans_several_chunks(self):
        assert sum(self.ONE_TO_FORTY) > TOKEN_BUDGET
        chunks = list(_chunks(self.ONE_TO_FORTY))
        assert len(chunks) > 1
        assert sorted(i for chunk in chunks for i in chunk) == list(range(40))
        assert all(len(c) * max(self.ONE_TO_FORTY[i] for i in c) <= TOKEN_BUDGET for c in chunks)


class TestBatchedBackward:
    """Chunked backprop against every sequence backpropagated as its own chunk."""

    @settings(max_examples=25, deadline=None)
    @given(
        # Repeated until the total exceeds the budget, so there are several chunks.
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=40).map(
            lambda ls: ls * (TOKEN_BUDGET // sum(ls) + 1)),
        seed=st.integers(0, 2**32 - 1),
        task=st.sampled_from([REGRESSION, CLASSIFICATION]),
    )
    @example(lengths=TestBatchedForward.ONE_TO_FORTY, seed=0, task=CLASSIFICATION)
    @example(lengths=TestBatchedForward.ONE_TO_FORTY, seed=0, task=REGRESSION)
    def test_gradients_match_one_chunk_per_sequence(self, reg_setup, cls_setup, lengths,
                                                    seed, task):
        config, params, _ = cls_setup if task == CLASSIFICATION else reg_setup
        p64 = params.astype(np.float64)
        rng = np.random.default_rng(seed)
        # No sequence holds id 0, the padding id, so its row gets no gradient.
        seqs = [rng.integers(1, config.vocab_size, n) for n in lengths]
        if task == CLASSIFICATION:
            targets = rng.integers(0, config.n_classes, len(seqs))
        else:
            targets = rng.uniform(0.0, 1.0, len(seqs))
        assert len(list(_chunks(lengths))) > 1
        loss, grads = batch_loss_and_grads(p64, seqs, targets, 0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "TOKEN_BUDGET", 1)
            assert len(list(_chunks(lengths))) == len(lengths)
            ref_loss, ref_grads = batch_loss_and_grads(p64, seqs, targets, 0.5)
        assert loss == pytest.approx(ref_loss, rel=1e-10, abs=1e-12)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-10, atol=1e-12,
                                       err_msg=name)
        assert (grads["embed"][0] == 0.0).all()


class TestGroupedRecurrence:
    """The recurrence over groups of chunks, stepping only the rows still inside their
    sequence, against every chunk run on its own with every row through every step."""

    @settings(max_examples=60, deadline=None)
    @given(
        # A unique longest row, so that the last steps have one active row.
        lengths=st.lists(st.integers(1, 59), min_size=1, max_size=28).map(
            lambda ls: ls + [max(ls) + 1]),
        seed=st.integers(0, 2**32 - 1),
        task=st.sampled_from([REGRESSION, CLASSIFICATION]),
        # Small budgets make one-row chunks, and groups of several chunks.
        budget=st.sampled_from([8, 64, TOKEN_BUDGET]),
        # Hidden sizes with 4H % 8 == 4, and inner sizes below and above 8.
        dims=st.tuples(st.sampled_from([2, 5, 8, 13]), st.sampled_from([1, 2, 3, 5, 8]),
                       st.sampled_from([3, 6, 10])),
        one_id=st.booleans(),
    )
    @example(lengths=[3, 5, 9], seed=0, task=CLASSIFICATION, budget=TOKEN_BUDGET,
             dims=(8, 8, 6), one_id=False)
    @example(lengths=[10, 10, 300, 301], seed=1, task=REGRESSION, budget=TOKEN_BUDGET,
             dims=(8, 8, 6), one_id=False)
    @example(lengths=TestBatchedForward.ONE_TO_FORTY, seed=2, task=CLASSIFICATION,
             budget=TOKEN_BUDGET, dims=(13, 3, 10), one_id=False)
    # A multi-row group whose every token has the same id: a one-id gate table.
    @example(lengths=[24, 24, 24, 24, 24, 24], seed=3, task=REGRESSION, budget=TOKEN_BUDGET,
             dims=(5, 3, 6), one_id=True)
    # Rows over half the budget: one-row chunks sharing a group, then a group left
    # with one row, the unique longest.
    @example(lengths=[257, 300, 300, 411, 480, 480, 500, 500, 512], seed=4,
             task=CLASSIFICATION, budget=TOKEN_BUDGET, dims=(8, 8, 6), one_id=False)
    # One hidden unit, rows of different lengths in one group: the products over the
    # attention input round by its memory layout, which must be batch-major.
    @example(lengths=[3, 5, 9], seed=5, task=CLASSIFICATION, budget=TOKEN_BUDGET,
             dims=(2, 1, 3), one_id=False)
    def test_logits_and_gradients_equal_the_reference(self, tiny_vocab, lengths, seed, task,
                                                      budget, dims, one_id):
        embed_dim, hidden_dim, attention_dim = dims
        config = EncoderConfig(
            vocab_size=len(tiny_vocab), embed_dim=embed_dim, hidden_dim=hidden_dim,
            attention_dim=attention_dim, head=task,
            n_classes=3 if task == CLASSIFICATION else 0, seed=3,
        )
        p64 = init_params(config).astype(np.float64)
        rng = np.random.default_rng(seed)
        # Spread the weights well beyond their initial range, as training does.
        for arr in p64.arrays().values():
            arr += rng.normal(0.0, 0.5, arr.shape)
        if one_id:
            # Id 0 is also the padding id: then rows of any lengths have one id.
            token = rng.integers(0, 2)
            seqs = [np.full(n, token) for n in lengths]
        else:
            seqs = [rng.integers(0, config.vocab_size, n) for n in lengths]
        if task == CLASSIFICATION:
            targets = rng.integers(0, config.n_classes, len(seqs))
        else:
            targets = rng.uniform(0.0, 1.0, len(seqs))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "TOKEN_BUDGET", budget)
            ref_logits, ref_loss, ref_grads = _reference_loss_and_grads(p64, seqs, targets, 0.5)
            logits, _ = _batch_forward(p64, seqs)
            loss, grads = batch_loss_and_grads(p64, seqs, targets, 0.5)
        assert np.array_equal(logits, ref_logits)
        assert loss == ref_loss
        for name, ref in ref_grads.items():
            assert np.array_equal(grads[name], ref), name

    LENGTHS = TestBatchedForward.ONE_TO_FORTY + [300, 300, 10, 10]

    @staticmethod
    def _assert_greedy_runs(groups, lengths, limit):
        """Each group is a run of whole ``_chunks`` chunks of at most ``limit`` padded
        tokens, a lone chunk aside, and the next chunk would take it over ``limit``."""
        assert [chunk for group in groups for chunk in group] == list(_chunks(lengths))
        for group, after in zip(groups, groups[1:] + [None]):
            rows = sum(len(chunk) for chunk in group)
            if len(group) > 1:
                assert rows * lengths[group[-1][-1]] <= limit
            if after is not None:
                assert (rows + len(after[0])) * lengths[after[0][-1]] > limit

    def test_groups_keep_whole_chunks_within_the_values_budget(self):
        # A cached padded token keeps 6 values per hidden unit, an uncached one 1.
        cached = list(_groups(self.LENGTHS, 6))
        uncached = list(_groups(self.LENGTHS, 1))
        self._assert_greedy_runs(cached, self.LENGTHS, 8 * TOKEN_BUDGET)
        self._assert_greedy_runs(uncached, self.LENGTHS, 48 * TOKEN_BUDGET)
        assert any(len(group) > 1 for group in cached)
        # One-row chunks share groups like any other chunk.
        assert any(len(group) > 1 and any(len(chunk) == 1 for chunk in group)
                   for group in cached)
        assert list(_groups([300] * 8, 6)) == [[[i] for i in range(8)]]
        assert list(_groups([300] * 8, 1)) == [[[i] for i in range(8)]]
        assert list(_groups([300] * 82, 1)) == [[[i] for i in range(81)], [[81]]]
        padded = [sum(map(len, group)) * self.LENGTHS[group[-1][-1]] for group in uncached]
        assert max(padded) > 8 * TOKEN_BUDGET
        # The benchmark's grade passes, each one uncached group: 125 abstracts of
        # 25-103 tokens, and their 870 sentences of at most 12.
        for lengths in ([25 + i % 79 for i in range(125)], [1 + i % 12 for i in range(870)]):
            assert len(list(_groups(lengths, 1))) == 1
            assert len(list(_groups(lengths, 6))) > 1

    @pytest.mark.parametrize("budget", [8, TOKEN_BUDGET])
    def test_inference_logits_equal_the_cached_forward(self, cls_setup, monkeypatch, budget):
        # Without a cache one gate slot and one cell slot serve every step.
        config, params, _ = cls_setup
        p64 = params.astype(np.float64)
        rng = np.random.default_rng(budget)
        for arr in p64.arrays().values():
            arr += rng.normal(0.0, 0.5, arr.shape)
        seqs = [rng.integers(0, config.vocab_size, n) for n in self.LENGTHS]
        monkeypatch.setattr(nn, "TOKEN_BUDGET", budget)
        assert any(len(group) > 1 for group in _groups(self.LENGTHS, 6))
        assert list(_groups(self.LENGTHS, 1)) != list(_groups(self.LENGTHS, 6))
        # A batch of one text is a one-row group.
        for batch in (seqs, seqs[:1]):
            logits, caches = _batch_forward(p64, batch)
            cached, _ = _batch_forward(p64, batch, keep_cache=True)
            assert caches is None
            assert np.array_equal(logits, cached)

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 600), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        hidden_dim=st.integers(1, 8),
        attention_dim=st.sampled_from([3, 10]),
        budget=st.integers(8, TOKEN_BUDGET),
    )
    def test_inference_logits_equal_the_cached_forward_on_drawn_batches(
            self, tiny_vocab, lengths, seed, hidden_dim, attention_dim, budget):
        config = EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=4, hidden_dim=hidden_dim,
                               attention_dim=attention_dim, head=CLASSIFICATION, n_classes=3,
                               seed=3)
        p64 = init_params(config).astype(np.float64)
        rng = np.random.default_rng(seed)
        for arr in p64.arrays().values():
            arr += rng.normal(0.0, 0.5, arr.shape)
        seqs = [rng.integers(0, config.vocab_size, n) for n in lengths]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "TOKEN_BUDGET", budget)
            logits, _ = _batch_forward(p64, seqs)
            cached, _ = _batch_forward(p64, seqs, keep_cache=True)
        assert np.array_equal(logits, cached)

    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_inference_peak_memory_stays_within_twice_the_states(self, head):
        # The benchmark's grade cohorts at its model size. An uncached group keeps
        # its (T+1, B, H) states per direction; a gate or cell history kept at
        # inference would be about six times that.
        config = EncoderConfig(vocab_size=500, embed_dim=32, hidden_dim=32, attention_dim=16,
                               head=head, n_classes=3 if head == CLASSIFICATION else 0, seed=1)
        params = init_params(config)
        rng = np.random.default_rng(7)
        lengths = ([25 + i % 79 for i in range(125)] if head == REGRESSION
                   else [1 + i % 12 for i in range(870)])
        seqs = [rng.integers(0, config.vocab_size, n) for n in lengths]
        states = 2 * (max(lengths) + 1) * len(seqs) * config.hidden_dim * params.embed.itemsize
        tracemalloc.start()
        try:
            _batch_forward(params, seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * states


class TestPredictor:
    TEXTS = ["the cat sat on the mat", "dog", "results show clear gains today", "a dog ran"]

    def test_probabilities_match_single_calls_in_input_order(self, cls_setup):
        model = _predictor(cls_setup)
        probs = model.probabilities(self.TEXTS)
        assert len(probs) == len(self.TEXTS)
        for text, row in zip(self.TEXTS, probs):
            assert row == pytest.approx(classify_sentence(text, model), abs=1e-12)

    def test_scores_match_single_calls_in_input_order(self, reg_setup):
        model = _predictor(reg_setup)
        scores = model.scores(self.TEXTS)
        for text, score in zip(self.TEXTS, scores):
            assert score == pytest.approx(predict_score(text, model), abs=1e-12)

    def test_truncates_at_the_model_length(self, cls_setup):
        config, params, vocab = cls_setup
        short = replace(config, max_sequence_length=2)
        text = "results show clear gains today"
        with pytest.warns(UserWarning, match="truncated"):
            (row,) = Predictor(params, short, vocab).probabilities([text])
        ids = tokenize(text, vocab).token_ids
        assert len(ids) > 2
        assert row == pytest.approx(tuple(_softmax_ref(ids[:2], params)), abs=1e-12)

    def test_one_text_helpers_equal_a_one_text_call_bit_for_bit(self, reg_setup, cls_setup):
        scorer, classifier = _predictor(reg_setup), _predictor(cls_setup)
        for text in self.TEXTS:
            (score,) = scorer.scores([text])
            assert predict_score(text, scorer) == score
            (probs,) = classifier.probabilities([text])
            assert classify_sentence(text, classifier) == probs

    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_one_text_helpers_truncate_at_the_model_length(self, head):
        text = ("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
                "omicron pi")
        vocab = build_vocab([text], max_size=200, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=8,
                               attention_dim=4, head=head,
                               n_classes=3 if head == CLASSIFICATION else 0, seed=3,
                               max_sequence_length=6)
        model = Predictor(init_params(config), config, vocab)
        helper, batch = ((predict_score, model.scores) if head == REGRESSION
                         else (classify_sentence, model.probabilities))
        with pytest.warns(UserWarning, match="truncated to 6") as caught:
            one = helper(text, model)
        assert len(caught) == 1
        with pytest.warns(UserWarning, match="truncated to 6"):
            assert [one] == batch([text])
        untruncated = Predictor(model.params, replace(config, max_sequence_length=512), vocab)
        assert one != helper(text, untruncated)

    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_from_file_equals_the_model_and_vocabulary_loaded_by_hand(
            self, tmp_path, monkeypatch, reg_setup, cls_setup, head):
        config, params, vocab = reg_setup if head == REGRESSION else cls_setup
        model, vocab_file = tmp_path / "model.afgm", tmp_path / "vocab.txt"
        save_model_file(model, params, config)
        vocab.save(vocab_file)
        loads = []
        monkeypatch.setattr(nn, "load_model_file",
                            lambda path: loads.append(path) or load_model_file(path))
        predictor = Predictor.from_file(model, vocab_file, config.head_dim)
        assert loads == [model]
        by_hand = Predictor(*load_model_file(model), Vocabulary.load(vocab_file))
        assert predictor.config == by_hand.config == config
        assert np.array_equal(predictor.logits(self.TEXTS), by_hand.logits(self.TEXTS))

    def test_from_file_rejects_a_wrong_width_or_a_short_vocabulary(self, tmp_path, cls_setup):
        config, params, vocab = cls_setup
        model, vocab_file = tmp_path / "model.afgm", tmp_path / "vocab.txt"
        save_model_file(model, params, config)
        vocab.save(vocab_file)
        for width in (1, 2, 4):
            with pytest.raises(ConfigError, match=f"model.afgm has a 3-wide head, {width} needed"):
                Predictor.from_file(model, vocab_file, width)
        short = tmp_path / "short.txt"
        short.write_text("".join(f"{token}\n" for token in vocab.id_to_token[:-1]),
                         encoding="utf-8")
        with pytest.raises(ConfigError, match=f"short.txt has {len(vocab) - 1} tokens, "
                                              f"model .*model.afgm expects {len(vocab)}"):
            Predictor.from_file(model, short, 3)


def _softmax_ref(ids, params) -> np.ndarray:
    """Inference's reference: the forward at the weights' dtype, the softmax at float64."""
    logits = _forward_one(np.asarray(ids), params, params.embed.dtype)["logits"][0]
    logits = logits.astype(np.float64)
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestInferencePrecision:
    """Inference runs the forward at the weights' dtype and the heads at float64.
    Training steps run the forward and backward at float32 and update float64
    master weights; the gradient check runs at float64."""

    @pytest.fixture(scope="class")
    def trained(self):
        """A small trained classifier and scorer, float32 as ``train`` returns them."""
        sentences = [(text, int(label)) for text, label in
                     mapped_sentences(generate_rct_corpus(24, seed=5))]
        samples = generate_regression_samples(120, seed=6)
        models = {}
        for head, data in ((CLASSIFICATION, sentences), (REGRESSION, samples)):
            vocab = build_vocab([text for text, _ in data], max_size=200, min_frequency=1)
            config = EncoderConfig(vocab_size=len(vocab), embed_dim=12, hidden_dim=12,
                                   attention_dim=6, head=head,
                                   n_classes=3 if head == CLASSIFICATION else 0, seed=1)
            params, _ = train(data, TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2,
                                                seed=2), init_params(config), vocab)
            models[head] = (config, params, vocab, [text for text, _ in data])
        return models

    def test_logits_keep_the_weights_dtype(self, cls_setup):
        config, params, vocab = cls_setup
        texts = TestPredictor.TEXTS
        assert Predictor(params, config, vocab).logits(texts).dtype == np.float32
        wide = Predictor(params.astype(np.float64), config, vocab).logits(texts)
        assert wide.dtype == np.float64

    def test_training_steps_run_at_float32_and_the_gradient_check_at_float64(
            self, reg_setup, monkeypatch):
        _, params, vocab = reg_setup
        seen = []

        def recording(p, *args):
            loss, grads = batch_loss_and_grads(p, *args)
            dtypes = {a.dtype.name for a in p.arrays().values()}
            seen.append((dtypes, {g.dtype.name for g in grads.values()}, type(loss)))
            return loss, grads

        monkeypatch.setattr(nn, "batch_loss_and_grads", recording)
        samples = TestGradCheck.SAMPLES
        trained, _ = train(samples, TrainConfig(epochs=1, batch_size=2), params, vocab)
        assert seen == [({"float32"}, {"float32"}, float)] * 2
        assert {a.dtype.name for a in trained.arrays().values()} == {"float32"}
        seen.clear()
        grad_check(params, samples, vocab, n_weights=4)
        assert seen == [({"float64"}, {"float64"}, float)]

    @pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
    def test_float32_gradients_track_float64_ones(self, head):
        # One 64-sample batch at the bench's encoder size; the combined loss's
        # standard-deviation term is on at p_weight 0.5.
        if head == CLASSIFICATION:
            data = [(text, int(label)) for text, label in
                    mapped_sentences(generate_rct_corpus(12, seed=5))][:64]
        else:
            data = generate_regression_samples(64, seed=6)
        assert len(data) == 64
        vocab = build_vocab([text for text, _ in data], max_size=400, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=32, hidden_dim=32,
                               attention_dim=16, head=head,
                               n_classes=3 if head == CLASSIFICATION else 0, seed=4)
        params = init_params(config)
        seqs = [np.asarray(tokenize(text, vocab).token_ids) for text, _ in data]
        targets = np.array([y for _, y in data])
        _, g32 = batch_loss_and_grads(params, seqs, targets, 0.5)
        _, g64 = batch_loss_and_grads(params.astype(np.float64), seqs, targets, 0.5)
        err = sum(float(np.sum((g32[k] - g64[k]) ** 2)) for k in g64)
        norm = sum(float(np.sum(g ** 2)) for g in g64.values())
        assert math.sqrt(err / norm) < 1e-5

    def test_float32_and_float64_inference_agree(self, trained):
        config, params, vocab, texts = trained[CLASSIFICATION]
        probs32 = np.array(Predictor(params, config, vocab).probabilities(texts))
        probs64 = np.array(Predictor(params.astype(np.float64), config, vocab)
                           .probabilities(texts))
        assert len(set(probs64.argmax(axis=1).tolist())) == 3
        assert np.array_equal(probs32.argmax(axis=1), probs64.argmax(axis=1))
        np.testing.assert_allclose(probs32, probs64, rtol=0, atol=1e-6)
        config, params, vocab, texts = trained[REGRESSION]
        scores32 = Predictor(params, config, vocab).scores(texts)
        scores64 = Predictor(params.astype(np.float64), config, vocab).scores(texts)
        assert len({abstract_mark(s) for s in scores64}) > 2
        assert [abstract_mark(s) for s in scores32] == [abstract_mark(s) for s in scores64]
        np.testing.assert_allclose(scores32, scores64, rtol=0, atol=1e-6)

    def test_heads_run_on_widened_logits(self, reg_setup, cls_setup):
        # At float32, exp overflows for a sigmoid logit below about -88 and underflows
        # to 0 for a softmax gap above about 104. At float64 the sigmoid's exp overflows
        # below about -709, so a logit of -1000 is clamped.
        config, params, vocab = reg_setup
        text = "the cat sat on the mat"
        for bias in (-100.0, -1000.0):
            low = params.astype(np.float32)
            low.head_b[:] = bias
            model = Predictor(low, config, vocab)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scores = [predict_score(text, model), *model.scores([text, "dog"])]
            assert all(0.0 < s < 1e-40 for s in scores), bias
        config, params, vocab = cls_setup
        spread = params.astype(np.float32)
        spread.head_b[:] = [-100.0, 0.0, 100.0]
        model = Predictor(spread, config, vocab)
        for probs in (classify_sentence(text, model), *model.probabilities([text, "dog"])):
            assert 0.0 < min(probs) < 1e-80


@pytest.mark.parametrize("head", [REGRESSION, CLASSIFICATION])
def test_overflowing_logits_are_corrupt_in_every_inference_entry(tiny_vocab, head):
    # Every weight is a finite float32, but the saturated gates and a head of 3e38
    # overflow the logits in any summation order.
    config = EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=8, hidden_dim=8,
                           attention_dim=6, head=head,
                           n_classes=3 if head == CLASSIFICATION else 0, seed=1)
    params = init_params(config)
    params.fw_b[:] = params.bw_b[:] = 50.0
    params.head_w[:] = 3e38
    one_text = predict_score if head == REGRESSION else classify_sentence
    model = Predictor(params, config, tiny_vocab)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite model output"):
            one_text("the cat sat", model)
        with pytest.raises(DataError, match="non-finite model output"):
            model.logits(["dog", "the cat sat"])


class TestPredictScore:
    def test_open_interval(self, reg_setup):
        s = predict_score("the cat sat", _predictor(reg_setup))
        assert 0.0 < s < 1.0

    def test_deterministic(self, reg_setup):
        model = _predictor(reg_setup)
        text = "results show clear gains"
        assert predict_score(text, model) == predict_score(text, model)

    def test_zeroed_head_gives_half(self, reg_setup):
        config, params, vocab = reg_setup
        zeroed = params.astype(np.float32)
        zeroed.head_w[:] = 0
        zeroed.head_b[:] = 0
        score = predict_score("any words at all", Predictor(zeroed, config, vocab))
        assert score == pytest.approx(0.5)


class TestClassifySentence:
    def test_zeroed_head_is_uniform(self, cls_setup):
        config, params, vocab = cls_setup
        zeroed = params.astype(np.float32)
        zeroed.head_w[:] = 0
        zeroed.head_b[:] = 0
        probs = classify_sentence("any words", Predictor(zeroed, config, vocab))
        assert probs == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_probabilities_normalized(self, cls_setup):
        probs = classify_sentence("the cat sat on the mat", _predictor(cls_setup))
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)
        assert all(p > 0 for p in probs)


class TestTrain:
    def test_step_count_matches_ceil(self, tiny_vocab):
        config = EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=4, hidden_dim=4,
                               attention_dim=4, seed=0)
        data = [(f"cat number {i}", 0.5) for i in range(100)]
        tc = TrainConfig(epochs=5, batch_size=64, learning_rate=1e-3,
                         schedule=LossSchedule(), seed=0)
        _, log = train(data, tc, init_params(config), tiny_vocab)
        assert log["steps_total"] == 10  # 5 epochs x ceil(100/64)
        assert len(log["entries"]) == 10
        assert log["schedule"]["T"] == 10

    def test_deterministic_final_params(self, tiny_vocab):
        config = EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=6, hidden_dim=6,
                               attention_dim=4, seed=1)
        data = [("the cat sat", 0.2), ("dog ran far", 0.9), ("results show gains", 0.6)]
        tc = TrainConfig(epochs=4, batch_size=2, learning_rate=1e-2, seed=5)
        p1, _ = train(data, tc, init_params(config), tiny_vocab)
        p2, _ = train(data, tc, init_params(config), tiny_vocab)
        for a, b in zip(p1.arrays().values(), p2.arrays().values()):
            assert np.array_equal(a, b)

    def test_scheduled_weight_logged_nonincreasing(self, tiny_vocab):
        config = EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=4, hidden_dim=4,
                               attention_dim=4, seed=0)
        data = [(f"word {i} here", (i % 5) / 5) for i in range(30)]
        tc = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3,
                         schedule=LossSchedule(a=1.0, b=0.1, c=10.0), seed=2)
        _, log = train(data, tc, init_params(config), tiny_vocab)
        ps = [e["p"] for e in log["entries"]]
        assert all(x >= y for x, y in zip(ps, ps[1:]))
        assert max(ps) <= 1.0

    def test_separable_fixture_reaches_perfect_train_accuracy(self):
        sentences = [text for text, _ in SEPARABLE_SENTENCES]
        vocab = build_vocab(sentences, max_size=220, min_frequency=1)
        config = EncoderConfig(vocab_size=len(vocab), embed_dim=16, hidden_dim=16,
                               attention_dim=8, head=CLASSIFICATION, n_classes=3, seed=0)
        data = [(text, int(label)) for text, label in SEPARABLE_SENTENCES]
        tc = TrainConfig(epochs=60, batch_size=4, learning_rate=5e-3, seed=0)
        params, log = train(data, tc, init_params(config), vocab)
        model = Predictor(params, config, vocab)
        correct = sum(
            int(np.argmax(classify_sentence(text, model))) == int(label)
            for text, label in SEPARABLE_SENTENCES
        )
        assert correct == len(SEPARABLE_SENTENCES)
        first, last = ([e["loss"] for e in log["entries"] if e["epoch"] == epoch]
                       for epoch in (1, tc.epochs))
        assert np.mean(last) < np.mean(first)

    def test_diverged_training_reports_step(self, tiny_vocab):
        config = EncoderConfig(vocab_size=len(tiny_vocab), embed_dim=4, hidden_dim=4,
                               attention_dim=4, seed=0)
        params = init_params(config)
        params.head_w[:] = np.float32(np.inf)
        data = [("the cat", 0.5), ("a dog", 0.4)]
        tc = TrainConfig(epochs=1, batch_size=2, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingDivergedError, match="at step 1 "):
            train(data, tc, params, tiny_vocab)

    def test_grad_norm_is_the_widened_gradients_norm(self, reg_setup):
        _, params, vocab = reg_setup
        data = TestGradCheck.SAMPLES * 3
        tc = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2, seed=7)
        _, log = train(data, tc, params, vocab)
        assert [list(e) for e in log["entries"]] == [["step", "epoch", "loss", "grad_norm"]] * 6
        assert all(math.isfinite(e["grad_norm"]) and e["grad_norm"] > 0 for e in log["entries"])
        # Step 1's batch: the first batch_size indices of the seed's first permutation.
        batch = np.random.default_rng(tc.seed).permutation(len(data))[: tc.batch_size]
        seqs = [np.asarray(tokenize(data[i][0], vocab).token_ids) for i in batch]
        targets = np.array([data[i][1] for i in batch])
        _, grads = batch_loss_and_grads(params, seqs, targets)
        widened = [g.astype(np.float64) for g in grads.values()]
        assert log["entries"][0]["grad_norm"] == math.sqrt(
            sum(float(np.sum(g * g)) for g in widened))

    def test_same_model_bytes_at_one_and_two_blas_threads(self):
        # OpenBLAS splits a product of a few hundred summed rows or more between
        # threads, which can change its rounding. 46 texts of 10 one-letter tokens are
        # one 460-token chunk, so each LSTM weight-gradient product sums 460 rows, a
        # count at which one and two threads round differently; at 64 wide, att_w's
        # product does too. (On a one-core machine both runs use one thread.)
        script = """if True:
            import sys
            from afg import nn
            from afg.textproc import build_vocab
            data = [(" ".join("abcdefghijklmnop"[(i + k) % 16] for k in range(10)), i % 3)
                    for i in range(46)]
            vocab = build_vocab([text for text, _ in data], max_size=40)
            config = nn.EncoderConfig(vocab_size=len(vocab), attention_dim=64,
                                      head=nn.CLASSIFICATION, n_classes=3, seed=3)
            params, _ = nn.train(data, nn.TrainConfig(epochs=3, batch_size=64, seed=3),
                                 nn.init_params(config), vocab)
            sys.stdout.buffer.write(nn.save_model(params, config))
        """
        src = str(Path(nn.__file__).resolve().parent.parent)
        models = [subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True, timeout=120,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                     PYTHONPATH=src),
        ).stdout for threads in ("1", "2")]
        assert len(models[0]) > 0 and models[0] == models[1]


class TestLoss:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_cross_entropy_matches_the_row_loop(self, n, c, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=5.0, size=(n, c))
        targets = rng.integers(0, c, n)
        loss, dlogits = _loss_and_dlogits(logits, targets, 0.0)
        # Reference: one row at a time; the vectorised log and mean may round
        # differently, so equality holds to a few float64 ulps.
        tol = 64 * np.finfo(np.float64).eps
        ref_loss = 0.0
        for j, row in enumerate(logits):
            z = row - row.max()
            log_probs = z - math.log(np.exp(z).sum())
            ref_loss -= log_probs[targets[j]]
            grad = np.exp(log_probs)
            grad[targets[j]] -= 1.0
            np.testing.assert_allclose(dlogits[j], grad / n, rtol=tol, atol=tol / n)
        assert loss == pytest.approx(ref_loss / n, rel=tol, abs=tol)

    # Head width 1 takes the regression loss, any wider width cross-entropy.
    HEAD_DIMS = [pytest.param(1, id=REGRESSION), pytest.param(3, id=CLASSIFICATION)]

    @staticmethod
    def _logits_and_targets(head_dim, dtype):
        logits = np.linspace(-1.0, 1.0, 4 * head_dim, dtype=dtype).reshape(4, head_dim)
        return logits, np.full(4, 0.5) if head_dim == 1 else np.array([0, 2, 1, 2])

    @pytest.mark.parametrize("head_dim", HEAD_DIMS)
    def test_loss_keeps_the_logits_dtype(self, head_dim):
        logits, targets = self._logits_and_targets(head_dim, np.longdouble)
        loss, dlogits = _loss_and_dlogits(logits, targets, 0.5)
        assert loss.dtype == np.longdouble
        assert dlogits.shape == (4, head_dim)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    @pytest.mark.parametrize("head_dim", HEAD_DIMS)
    def test_logit_gradient_keeps_the_logits_dtype(self, head_dim, dtype):
        logits, targets = self._logits_and_targets(head_dim, dtype)
        _, dlogits = _loss_and_dlogits(logits, targets, 0.5)
        assert dlogits.dtype == dtype


class TestGradCheck:
    SAMPLES = [
        ("the cat sat on mat park", 0.3),
        ("dog ran in the park", 0.8),
        ("results show clear gains", 0.55),
    ]

    def test_regression_all_regimes(self, reg_setup):
        _, params, vocab = reg_setup
        for p_weight in (0.0, 0.5, 1.0):
            err = grad_check(params, self.SAMPLES, vocab, p_weight, n_weights=200, seed=0)
            assert err < 1e-4, f"p_weight {p_weight}: {err}"

    def test_classification(self, cls_setup):
        _, params, vocab = cls_setup
        samples = [("the cat sat", 0), ("dog ran in park", 1), ("results show gains", 2)]
        err = grad_check(params, samples, vocab, n_weights=200, seed=0)
        assert err < 1e-4

    # Token lengths 2, 3, 6, 7 and 8; a 16-token budget cuts them into the
    # chunks [2, 3], [6, 7] and [8], two of them padded.
    MIXED_TEXTS = ["the cat", "a dog", "dog ran in", "results show clear gains",
                     "the cat sat on mat"]

    @pytest.mark.parametrize("head_dim, targets", [
        pytest.param(3, [0, 1, 2, 0, 1], id=CLASSIFICATION),
        pytest.param(1, [0.3, 0.8, 0.55, 0.1, 0.65], id=REGRESSION),
    ])
    def test_padded_chunks(self, reg_setup, cls_setup, monkeypatch, head_dim, targets):
        _, params, vocab = reg_setup if head_dim == 1 else cls_setup
        monkeypatch.setattr(nn, "TOKEN_BUDGET", 16)
        lengths = [len(tokenize(t, vocab).token_ids) for t in self.MIXED_TEXTS]
        padded = [c for c in _chunks(lengths) if len({lengths[i] for i in c}) > 1]
        assert len(padded) >= 2
        err = grad_check(params, list(zip(self.MIXED_TEXTS, targets)), vocab, p_weight=0.5,
                         n_weights=200, seed=0)
        assert err < 1e-4, f"head width {head_dim}: {err}"

    def test_single_sample_accepted(self, reg_setup):
        _, params, vocab = reg_setup
        err = grad_check(params, [("the cat sat", 0.4)], vocab)
        assert err < 1e-4

    def test_corrupted_gradient_detected(self, reg_setup):
        _, params, vocab = reg_setup
        p64 = params.astype(np.float64)
        seqs = [np.asarray(tokenize(t, vocab).token_ids) for t, _ in self.SAMPLES]
        targets = np.array([y for _, y in self.SAMPLES])
        _, grads = batch_loss_and_grads(p64, seqs, targets)
        grads["att_w"] = -grads["att_w"]  # sign flip on one matrix
        err = max_grad_error(p64, grads, lambda p: batch_loss(p, seqs, targets),
                             n_weights=400, seed=0)
        assert err > 1e-1

    def test_zero_loss_sample_has_zero_head_gradient(self, reg_setup):
        _, params, vocab = reg_setup
        text = "the cat sat on the mat"
        p64 = params.astype(np.float64)
        seqs = [np.asarray(tokenize(text, vocab).token_ids)]
        target = _sigmoid(_batch_forward(p64, seqs)[0][:, 0])[0]  # exact stationary point
        _, grads = batch_loss_and_grads(p64, seqs, np.array([target]))
        assert np.abs(grads["head_w"]).max() < 1e-12
        assert np.abs(grads["head_b"]).max() < 1e-12


class TestSerialization:
    def test_roundtrip_bit_identical(self, reg_setup):
        config, params, _ = reg_setup
        blob = save_model(params, config)
        loaded, loaded_config = load_model(blob)
        assert loaded_config == config
        for a, b in zip(params.arrays().values(), loaded.arrays().values()):
            assert np.array_equal(a, b)

    def test_wrong_magic(self, reg_setup):
        config, params, _ = reg_setup
        blob = bytearray(save_model(params, config))
        blob[:4] = b"NOPE"
        with pytest.raises(DataError, match="bad magic bytes"):
            load_model(bytes(blob))

    def test_wrong_version(self, reg_setup):
        config, params, _ = reg_setup
        blob = bytearray(save_model(params, config))
        blob[4] = 9
        with pytest.raises(DataError, match="unsupported model version"):
            load_model(bytes(blob))

    def test_truncated_stream(self, reg_setup):
        config, params, _ = reg_setup
        blob = save_model(params, config)
        # Half a file still holds a full header, so the checksum catches it.
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(blob[: len(blob) // 2])

    def test_flipped_payload_byte(self, reg_setup):
        config, params, _ = reg_setup
        blob = bytearray(save_model(params, config))
        blob[100] ^= 0xFF
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(bytes(blob))

    def test_shape_mismatch(self, reg_setup):
        config, params, _ = reg_setup
        import struct

        blob = bytearray(save_model(params, config))
        # overwrite hidden_dim in the config block (offset 5 + 2*8)
        blob[5 + 16 : 5 + 24] = struct.pack("<q", 999)
        # recompute the checksum so only the shape check can fire
        import hashlib

        payload = bytes(blob[5:-8])
        blob[-8:] = hashlib.blake2b(payload, digest_size=8).digest()
        with pytest.raises(DataError, match="payload holds .* weight bytes"):
            load_model(bytes(blob))

    @pytest.mark.parametrize("name, value", [
        ("head_b", np.nan), ("embed", np.inf), ("fw_wh", -np.inf),
    ])
    def test_non_finite_weight_is_corrupt(self, reg_setup, name, value):
        # The checksum is valid: only the weights themselves are wrong.
        config, params, _ = reg_setup
        broken = params.astype(np.float32)
        getattr(broken, name).flat[0] = value
        with pytest.raises(DataError, match="non-finite"):
            load_model(save_model(broken, config))


def _checksummed(payload: bytes) -> bytes:
    return b"AFGM\x01" + payload + hashlib.blake2b(payload, digest_size=8).digest()


@given(st.binary(max_size=200), st.booleans())
@example(struct.pack("<8q", 2**40, 2**40, 1, 1, 0, 0, 0, 1), True)
def test_load_model_raises_only_afg_errors(data, checksummed):
    # With a valid header and checksum, the bytes reach the config and
    # payload checks instead of stopping at the checksum.
    try:
        load_model(_checksummed(data) if checksummed else data)
    except AfgError:
        pass
