"""Trainable core: bidirectional LSTM encoder with additive attention.

One encoder architecture serves both tasks, behind either a sigmoid
regression head (abstract scoring) or a softmax classification head
(sentence roles). Weights are stored as 32-bit floats, and the forward
keeps the dtype of the weights it is given. ``Predictor.from_file`` loads a
model file with its vocabulary and checks its head width. Inference runs
through ``Predictor``, whose one-text calls are ``predict_score`` and
``classify_sentence``, on the weights as loaded, at 32-bit, truncating at the
model's ``max_sequence_length``. ``scores`` and ``probabilities`` apply the
sigmoid or softmax to the logits widened to 64-bit, the sigmoid's logit
clamped at -700 so that its ``exp`` stays finite. Training is mixed
precision (arXiv:1710.03740): a step's forward and backward run at 32-bit on a
copy of 64-bit master weights, which ``_adam_step`` updates with its moments at
64-bit. The gradient check runs at 64-bit and its probes at extended precision.

One batched forward, ``_batch_forward``, serves inference, training and the
gradient check; a single text runs as a batch of one. Sequences are sorted
by length and cut into chunks of at most TOKEN_BUDGET padded tokens (rows x
longest row), and runs of consecutive chunks into groups that keep at most
48 x TOKEN_BUDGET state values per hidden unit (see ``_groups``). The LSTM
recurrence runs over a group, the attention and head over each chunk. A
group is a (B, T) id array, right-padded, rows in ascending length, so every
row's valid tokens come first:
  - each direction's input pre-activations are a table, one product of
    the embeddings of the group's distinct ids with the input weights, and
    step t gathers its rows of the table into a gate slot;
  - the forward direction steps the group from t = 0 up, the backward one
    from the last step down; at step t the rows still inside their sequence
    are a suffix of the rows, and only those are updated, so padded states
    stay exact zeros. Going forward, step t reads state slot t and writes
    slot t + 1; going backward, it reads slot t + 1 and writes slot t, so a
    row's first step reads the zero state of its first padded slot;
  - each chunk reads its block of the group's states (its rows, its own
    longest T) as views; padded positions score -inf before the attention
    softmax, so their weight is exactly 0.
A step costs about the same in numpy calls for a handful of rows as for
dozens, so grouping chunks cuts the steps, not the arithmetic. Training keeps
every step's gate and cell slots, the (T, B, 4H) and (T+1, B, H) histories
that backprop reads: six values per padded token and hidden unit with the
states. Inference reuses one (B, 4H) and one (B, H) slot and keeps only the
(T+1, B, H) states that the attention reads, one value per padded token, so
its groups hold six times the padded tokens of a training group in the same
memory. The result is bit-identical to running each chunk alone, every row
through every step, a one-row chunk as two copies:
  - numpy runs a one-row product as a gemv, whose rounding differs from a
    gemm's, and a row of a 4H-wide gemm with two or more rows does not
    depend on the other rows. So every recurrent product has at least two
    rows: a step multiplies at least two, a table of one distinct id repeats
    it, and a one-row group (a batch of one text, or a group left with one
    row) runs as two copies of its row, whose chunk reads row 0. That row
    independence does not hold for every width: with OpenBLAS, a row of a
    product whose output width n has n % 8 in {1, 2, 3} can depend on the
    row count. So the head, 1 or C wide, is an ``einsum``, which sums each
    row on its own whatever the row count; the one-wide attention score
    ``u @ att_v`` can still depend on it;
  - so the attention and head run over a chunk, not a group; a chunk's
    softmax and attention-weighted sum run over its padded T, and their
    summation order depends on T. So the chunks, and with them
    TOKEN_BUDGET, stay as they are; a larger budget changes the bytes of
    the confidences ``grade`` writes.
Results come back in input order. Backprop runs each chunk as a whole from
its cache: one time loop per direction over (B, H) rows, against the
direction's step order, each weight gradient summed over the chunk's T x B
steps. It needs no mask: padded positions get exactly zero gradient
from the attention and their gate slots hold zeros, so the dh and dc they
pass on are exact zeros. Gradients are summed chunk by chunk in ``_chunks``
order and in blocks of SUM_ROWS steps (see ``_add_products``), a fixed order,
so the same inputs give the same bytes at any BLAS thread count.
One loss function serves training and the gradient probes, and the head's
width picks it: a 1-wide head trains on the STDE/MSE blend of its sigmoid
outputs against scores in [0, 1], a C-wide one on cross-entropy against
classes in [0, C).

Layout conventions (the ModelParams field order, also the serialization order):
  embed [V, E]            token embeddings
  fw_wx/bw_wx [E, 4H]     input weights, gate blocks ordered i|f|g|o
  fw_wh/bw_wh [H, 4H]     recurrent weights
  fw_b/bw_b [4H]          gate biases
  att_w [2H, A], att_v [A]   additive attention: softmax(tanh(h W) v)
  head_w [2H, C], head_b [C] output head (C = 1 for regression)
"""

from __future__ import annotations

import hashlib
import math
import struct
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError
from .objectives import LossSchedule, blend_terms, blended_loss_grad, weight_p
from .textproc import Vocabulary, tokenize, write_file

DEFAULT_MAX_SEQUENCE_LENGTH = 512

REGRESSION = "regression"
CLASSIFICATION = "classification"

@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    embed_dim: int = 32
    hidden_dim: int = 32
    attention_dim: int = 16
    head: str = REGRESSION
    n_classes: int = 0
    seed: int = 0
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "attention_dim",
                     "max_sequence_length"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.head == CLASSIFICATION and self.n_classes < 2:
            raise ValueError("classification head needs n_classes >= 2")

    @property
    def head_dim(self) -> int:
        return 1 if self.head == REGRESSION else self.n_classes


def _shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    v, e, h, a = (config.vocab_size, config.embed_dim,
                  config.hidden_dim, config.attention_dim)
    c = config.head_dim
    return {
        "embed": (v, e),
        "fw_wx": (e, 4 * h),
        "fw_wh": (h, 4 * h),
        "fw_b": (4 * h,),
        "bw_wx": (e, 4 * h),
        "bw_wh": (h, 4 * h),
        "bw_b": (4 * h,),
        "att_w": (2 * h, a),
        "att_v": (a,),
        "head_w": (2 * h, c),
        "head_b": (c,),
    }


@dataclass(eq=False)
class ModelParams:
    embed: np.ndarray
    fw_wx: np.ndarray
    fw_wh: np.ndarray
    fw_b: np.ndarray
    bw_wx: np.ndarray
    bw_wh: np.ndarray
    bw_b: np.ndarray
    att_w: np.ndarray
    att_v: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(**{k: v.astype(dtype) for k, v in self.arrays().items()})

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.arrays().values())

    @property
    def hidden_dim(self) -> int:
        return self.fw_wh.shape[0]

    @property
    def head_dim(self) -> int:
        return self.head_w.shape[1]


def init_params(config: EncoderConfig) -> ModelParams:
    """Glorot-uniform weights (per matrix), zero biases, seeded draw order."""
    rng = np.random.default_rng(config.seed)
    arrays = {}
    for name, shape in _shapes(config).items():
        if name.endswith("_b"):
            arrays[name] = np.zeros(shape, dtype=np.float32)
        else:
            fan_in, fan_out = shape if len(shape) == 2 else (shape[0], 1)
            s = math.sqrt(6.0 / (fan_in + fan_out))
            arrays[name] = rng.uniform(-s, s, shape).astype(np.float32)
    return ModelParams(**arrays)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

# Padded tokens (rows x longest row) per chunk; a group of chunks keeps at most 48
# times as many state values per hidden unit. It bounds the padding work of a
# chunk and the memory of its cache.
TOKEN_BUDGET = 512


def _sigmoid(x):
    # exp(-x) overflows at float64 below about -709; a logit at or above -700 keeps its bits.
    return 1.0 / (1.0 + np.exp(-np.maximum(x, -700.0)))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis; a -inf entry gets weight exactly 0."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _lstm_forward(x: np.ndarray, idx: np.ndarray, lengths: np.ndarray, wx, wh, b,
                  keep_cache: bool, reverse: bool):
    """Run one direction over a group, rows in ascending length.

    ``x`` holds the embeddings of the ids of the group's gate table (see
    ``_gate_table``) and the time-major (T, B) ``idx`` picks step t's rows of
    the table. Each row's valid steps come before its padding, so the rows
    still inside their sequence at step t are a suffix ``[lo:]`` of the rows,
    and step t updates only those; padded states stay exact zeros. Forward,
    step t reads state slot t and writes t + 1; backward (``reverse``, t from
    T - 1 down), it reads slot t + 1 and writes t. Returns the time-major
    states (T+1, B, H) and, with ``keep_cache``, the gate and cell histories.
    """
    t_len, n = idx.shape
    h_dim = wh.shape[0]
    g_lo, g_hi = 2 * h_dim, 3 * h_dim
    src, dst = (1, 0) if reverse else (0, 1)
    proj = (x @ wx).reshape(len(x), 4 * h_dim)
    proj += b
    hs = np.zeros((t_len + 1, n, h_dim), dtype=proj.dtype)
    # Step t gathers its input pre-activations into gate slot s and turns them
    # into gate activations in place. Backprop reads every step's slots, padded
    # ones as zeros; without it one slot of each serves every step, the cell
    # state updated in place. Time-major slots keep a step's active rows contiguous.
    gates = np.zeros((t_len if keep_cache else 1, n, 4 * h_dim), dtype=proj.dtype)
    cs = np.zeros((t_len + 1 if keep_cache else 1, n, h_dim), dtype=proj.dtype)
    active = enumerate(np.searchsorted(lengths, np.arange(t_len), side="right").tolist())
    for t, lo in reversed(list(active)) if reverse else active:
        s = t if keep_cache else 0
        z = gates[s, lo:]
        np.take(proj, idx[t, lo:], axis=0, out=z, mode="clip")
        # Numpy runs a one-row product as a gemv, whose rounding differs from a
        # gemm's, and a row of a 4H-wide gemm does not depend on the other rows.
        # So the product takes at least two rows, and each active row gets the
        # bits it would get with every row in the product.
        mm = min(lo, n - 2)
        z += (hs[t + src, mm:] @ wh)[lo - mm :]
        g = np.tanh(z[:, g_lo:g_hi])
        # In-place sigmoid, 1 / (1 + exp(-z)), over all four blocks.
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        z[:, g_lo:g_hi] = g
        c = cs[s + dst * keep_cache, lo:]
        np.multiply(z[:, h_dim:g_lo], cs[s + src * keep_cache, lo:], out=c)
        c += z[:, :h_dim] * g
        h = hs[t + dst, lo:]
        np.tanh(c, out=h)
        h *= z[:, g_hi:]
    return {"hs": hs, "cs": cs, "gates": gates} if keep_cache else {"hs": hs}


# OpenBLAS 0.3.31 splits a product's summed rows between threads for some counts from
# 385 on, which changes its rounding; no product of at most 384 rows differed.
SUM_ROWS = 256


def _add_products(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Add ``a.T @ b``, each flattened to rows, into ``out`` in blocks of SUM_ROWS rows."""
    a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
    for lo in range(0, len(a), SUM_ROWS):
        out += a[lo : lo + SUM_ROWS].T @ b[lo : lo + SUM_ROWS]


def _lstm_backward(dh_out: np.ndarray, x: np.ndarray, cache, wx, wh, grads, prefix, reverse):
    """Backprop one direction over time-major (T, B, H) output gradients.

    ``x`` holds the (T, B, E) inputs. Forward, step t read state slot t and
    wrote t + 1; backward (``reverse``), it read slot t + 1 and wrote t. Adds the
    weight gradients over all T x B steps; returns the gradient wrt ``x``.
    """
    hs, cs, gates = cache["hs"], cache["cs"], cache["gates"]
    t_len, n, h_dim = dh_out.shape
    before, after = (slice(None, -1), slice(1, None))[:: -1 if reverse else 1]
    i, f, g, o = (gates[..., k * h_dim : (k + 1) * h_dim] for k in range(4))
    tc = np.tanh(cs[after])
    # Each gate's pre-activation gradient is dc (i, f, g) or dh (o) times a
    # factor known from the forward; step t scales its factors in place.
    dz = np.empty((t_len, n, 4, h_dim), dtype=gates.dtype)
    np.multiply(g, i * (1.0 - i), out=dz[:, :, 0])
    np.multiply(cs[before], f * (1.0 - f), out=dz[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=dz[:, :, 2])
    np.multiply(tc, o * (1.0 - o), out=dz[:, :, 3])
    dc_dh = o * (1.0 - tc * tc)
    dh_next = np.zeros((n, h_dim), dtype=dh_out.dtype)
    dc_next = np.zeros_like(dh_next)
    for t in range(t_len)[::1 if reverse else -1]:
        dh = dh_out[t] + dh_next
        dc = dh * dc_dh[t]
        dc += dc_next
        dz[t, :, :3] *= dc[:, None]
        dz[t, :, 3] *= dh
        dc_next = dc * f[t]
        dh_next = dz[t].reshape(n, 4 * h_dim) @ wh.T
    dz = dz.reshape(t_len * n, 4 * h_dim)
    _add_products(x, dz, grads[prefix + "_wx"])
    _add_products(hs[before], dz, grads[prefix + "_wh"])
    grads[prefix + "_b"] += dz.sum(axis=0)
    return (dz @ wx.T).reshape(t_len, n, -1)


def _forward(ids: np.ndarray, lengths: np.ndarray, fw, bw, p: ModelParams):
    """Attention and head of one chunk, from its block of its group's states.

    Returns the chunk cache that ``_backward`` reads.
    """
    # Batch-major in memory, as the products over it round by its layout; a plain
    # concatenate of the time-major states would be laid out time-major.
    h_cat = np.empty((*ids.shape, 2 * p.hidden_dim), fw["hs"].dtype)
    np.concatenate([fw["hs"][1:], bw["hs"][:-1]], axis=2, out=h_cat.swapaxes(0, 1))
    u = np.tanh(h_cat @ p.att_w)
    valid = np.arange(ids.shape[1]) < lengths[:, None]
    alpha = _softmax(np.where(valid, u @ p.att_v, -np.inf))
    ctx = (alpha[:, None, :] @ h_cat)[:, 0]
    # Not ``ctx @ head_w``: a row of that product can depend on the row count
    # (see the module docstring), so a text's logits would follow its chunk.
    logits = np.einsum("bk,kc->bc", ctx, p.head_w) + p.head_b
    return {
        "ids": ids, "fw": fw, "bw": bw, "h_cat": h_cat,
        "u": u, "alpha": alpha, "ctx": ctx, "logits": logits,
    }


def _backward(cache, dlogits: np.ndarray, p: ModelParams, grads):
    """Backprop one chunk's cache for its (B, C) logit gradient, adding into ``grads``."""
    ctx, alpha, h_cat, u = cache["ctx"], cache["alpha"], cache["h_cat"], cache["u"]
    grads["head_w"] += ctx.T @ dlogits
    grads["head_b"] += dlogits.sum(axis=0)
    dctx = dlogits @ p.head_w.T

    dalpha = (h_cat @ dctx[:, :, None])[:, :, 0]
    dh_cat = alpha[:, :, None] * dctx[:, None, :]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    grads["att_v"] += np.tensordot(dscores, u, axes=2)
    dpre = dscores[:, :, None] * p.att_v * (1.0 - u * u)
    _add_products(h_cat, dpre, grads["att_w"])
    dh_cat += dpre @ p.att_w.T

    dh_fw, dh_bw = np.split(dh_cat.swapaxes(0, 1), 2, axis=2)
    x = p.embed[cache["ids"].T]
    dx = _lstm_backward(dh_fw, x, cache["fw"], p.fw_wx, p.fw_wh, grads, "fw", reverse=False)
    dx += _lstm_backward(dh_bw, x, cache["bw"], p.bw_wx, p.bw_wh, grads, "bw", reverse=True)
    np.add.at(grads["embed"], cache["ids"], dx.swapaxes(0, 1))


def _chunks(lengths: Sequence[int]) -> Iterator[list[int]]:
    """Indices sorted by length, cut into runs of at most TOKEN_BUDGET padded tokens.

    A sequence longer than the budget is a chunk of its own.
    """
    chunk: list[int] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and (len(chunk) + 1) * lengths[i] > TOKEN_BUDGET:
            yield chunk
            chunk = []
        chunk.append(i)
    if chunk:
        yield chunk


def _groups(lengths: Sequence[int], values_per_token: int) -> Iterator[list[list[int]]]:
    """``_chunks`` cut into runs that keep at most 48 * TOKEN_BUDGET state values
    per hidden unit, ``values_per_token`` for each padded token (rows x longest row).

    A padded token keeps 6 values with the training cache (4 gate, 1 cell, 1
    state), so a cached group holds at most 8 * TOKEN_BUDGET padded tokens, and
    1 without it (its state), so an uncached group holds six times as many. A
    chunk larger than that is a group of its own.
    """
    group: list[list[int]] = []
    rows = 0
    for chunk in _chunks(lengths):
        rows += len(chunk)
        if group and rows * lengths[chunk[-1]] * values_per_token > 48 * TOKEN_BUDGET:
            yield group
            group, rows = [], len(chunk)
        group.append(chunk)
    if group:
        yield group


def _gate_table(ids: np.ndarray):
    """The token ids of a group's gate tables and the (T, B) index into them.

    The table holds the group's distinct ids, at least two of them (one is
    repeated), so its product is a gemm. Both directions share the index.
    """
    tok, inv = np.unique(ids, return_inverse=True)
    if len(tok) == 1:
        tok = np.repeat(tok, 2)
    return tok, inv.reshape(ids.shape).T.copy()


def _direction_block(direction: dict, t_len: int, lo: int, hi: int) -> dict:
    """Rows ``lo:hi`` and the first ``t_len`` steps of a direction's group cache, as views."""
    return {k: v[: t_len + (k in ("hs", "cs")), lo:hi] for k, v in direction.items()}


def _batch_forward(p: ModelParams, seqs: Sequence[np.ndarray], keep_cache: bool = False):
    """Logits of ``seqs`` in list order, run over length-sorted padded chunks.

    The recurrence runs over each group of chunks, the attention and head over
    each chunk. A one-row group runs as two copies of its row, and its chunk
    reads row 0. With ``keep_cache`` the second result lists each chunk's
    (indices into ``seqs``, chunk cache) in ``_chunks`` order; otherwise it is
    None and each group's states are dropped once its logits are read.
    """
    logits = np.empty((len(seqs), p.head_dim), dtype=p.embed.dtype)
    caches = [] if keep_cache else None
    seq_lengths = [len(s) for s in seqs]
    for group in _groups(seq_lengths, 6 if keep_cache else 1):
        rows = [i for chunk in group for i in chunk]
        if len(rows) == 1:
            rows *= 2
        lengths = np.array([seq_lengths[i] for i in rows])
        # Padding reuses id 0: the recurrence never steps a padded position.
        ids = np.zeros((len(rows), lengths[-1]), dtype=np.int64)
        for row, i in enumerate(rows):
            ids[row, : lengths[row]] = seqs[i]
        tok, idx = _gate_table(ids)
        x = p.embed[tok]
        fw = _lstm_forward(x, idx, lengths, p.fw_wx, p.fw_wh, p.fw_b, keep_cache, reverse=False)
        bw = _lstm_forward(x, idx, lengths, p.bw_wx, p.bw_wh, p.bw_b, keep_cache, reverse=True)
        lo = 0
        for chunk in group:
            hi = lo + len(chunk)
            t_len = lengths[hi - 1]
            cache = _forward(ids[lo:hi, :t_len], lengths[lo:hi],
                             _direction_block(fw, t_len, lo, hi),
                             _direction_block(bw, t_len, lo, hi), p)
            logits[chunk] = cache["logits"]
            if keep_cache:
                caches.append((chunk, cache))
            lo = hi
        del fw, bw, cache  # else they stay alive while the next group runs
    return logits, caches


def _encode_texts(texts: Sequence[str], vocab: Vocabulary, max_sequence_length: int):
    """Token id arrays of non-blank ``texts``, truncated to ``max_sequence_length``
    with a warning."""
    seqs = []
    for text in texts:
        ids = tokenize(text, vocab).token_ids
        if len(ids) > max_sequence_length:
            warnings.warn(f"sequence of {len(ids)} tokens truncated to {max_sequence_length}",
                          stacklevel=2)
            ids = ids[:max_sequence_length]
        seqs.append(np.array(ids, dtype=np.int64))
    return seqs


def _encode_samples(samples, vocab: Vocabulary, head_dim: int, max_sequence_length: int):
    """Token id arrays and a target vector for (text, target) samples whose targets
    fit the head: float scores in [0, 1] for a 1-wide head, int classes in
    [0, head_dim) for a wider one."""
    seqs = _encode_texts([text for text, _ in samples], vocab, max_sequence_length)
    targets = np.array([y for _, y in samples], dtype=np.float64)
    return seqs, targets if head_dim == 1 else targets.astype(np.int64)


class Predictor:
    """A trained model bound to its vocabulary: a list of texts in, outputs out.

    It runs the forward on the weights as given, float32 for a loaded model,
    with no copy, and truncates at the model's own ``max_sequence_length``.
    Texts are tokenized and sorted by length. The recurrence keeps no gate
    or cell history, only one state value per padded token and hidden unit,
    so it steps over groups of up to 48 x TOKEN_BUDGET padded tokens, at
    least two rows each; the attention and head run over chunks of at most
    TOKEN_BUDGET. Outputs are returned in input order, and their bits depend
    on the chunks (see the module docstring). ``from_file`` checks the head
    width and vocabulary size, ``load_model`` the shapes, ``logits`` the outputs.
    """

    def __init__(self, params: ModelParams, config: EncoderConfig, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        self.params = params

    @classmethod
    def from_file(cls, path, vocab_path, head_dim: int) -> "Predictor":
        """The model file at ``path`` with its vocabulary. A head not ``head_dim``
        wide (1 for a scorer, the class count for a classifier) or a vocabulary of
        another size than the model's is a ConfigError."""
        params, config = load_model_file(path)
        if config.head_dim != head_dim:
            raise ConfigError(f"model {path} has a {config.head_dim}-wide head, {head_dim} needed")
        vocab = Vocabulary.load(vocab_path)
        if len(vocab) != config.vocab_size:
            raise ConfigError(f"vocabulary {vocab_path} has {len(vocab)} tokens, "
                              f"model {path} expects {config.vocab_size}")
        return cls(params, config, vocab)

    def logits(self, texts: Sequence[str]) -> np.ndarray:
        """(len(texts), head_dim) head outputs before the sigmoid or softmax, in
        the dtype of the weights. Finite weights can still overflow: a text whose
        outputs are not all finite is a DataError."""
        seqs = _encode_texts(texts, self.vocab, self.config.max_sequence_length)
        with np.errstate(over="ignore", invalid="ignore"):
            logits = _batch_forward(self.params, seqs)[0]
        bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
        if bad.size:
            raise DataError(f"non-finite model output for text {texts[bad[0]]!r:.60}")
        return logits

    def scores(self, texts: Sequence[str]) -> list[float]:
        """Regression-head scores in (0, 1): the sigmoid of the logits widened to float64."""
        return _sigmoid(self.logits(texts).astype(np.float64)[:, 0]).tolist()

    def probabilities(self, texts: Sequence[str]) -> list[tuple[float, ...]]:
        """Classification-head class probabilities: the softmax of the logits widened
        to float64."""
        return list(map(tuple, _softmax(self.logits(texts).astype(np.float64)).tolist()))


def predict_score(text: str, model: Predictor) -> float:
    """``model``'s score of one text (see ``Predictor.scores``)."""
    return model.scores([text])[0]


def classify_sentence(sentence: str, model: Predictor) -> tuple[float, ...]:
    """``model``'s class probabilities of one sentence (see ``Predictor.probabilities``)."""
    return model.probabilities([sentence])[0]


# ---------------------------------------------------------------------------
# Batch loss
# ---------------------------------------------------------------------------

def _zero_grads(p: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in p.arrays().items()}


def _loss_and_dlogits(logits: np.ndarray, targets: np.ndarray, p_weight: float):
    """Mean batch loss, in the dtype of ``logits``, and its gradient wrt the logits.

    The logits' width picks the loss: one column blends STDE and MSE on the
    sigmoid outputs at weight ``p_weight``; C columns are mean cross-entropy
    over the rows, and ``p_weight`` is unused.
    """
    if logits.shape[1] == 1:
        preds = _sigmoid(logits[:, 0])
        y = np.asarray(targets, dtype=logits.dtype)
        dlogits = blended_loss_grad(preds, y, p_weight) * preds * (1.0 - preds)
        return blend_terms(preds, y, p_weight), dlogits.astype(logits.dtype)[:, None]
    n = len(logits)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    picked = (np.arange(n), targets)
    dlogits = np.exp(log_probs)
    dlogits[picked] -= 1.0
    return -log_probs[picked].mean(), dlogits / n


def batch_loss_and_grads(
    p: ModelParams,
    seqs: Sequence[np.ndarray],
    targets: np.ndarray,
    p_weight: float = 0.0,
):
    """Loss plus gradients for one mini-batch, in the dtype of ``p`` (float32 to train).

    The head's width picks the loss (see ``_loss_and_dlogits``). The forward
    runs over length-sorted padded chunks and each chunk is backpropagated
    as a whole from its cache. Gradients are summed in a fixed order, chunk
    by chunk in ``_chunks`` order and then block by block inside each chunk's
    matmuls: same inputs, same bytes, at any BLAS thread count.
    """
    logits, caches = _batch_forward(p, seqs, keep_cache=True)
    loss, dlogits = _loss_and_dlogits(logits, targets, p_weight)
    grads = _zero_grads(p)
    for idx, cache in caches:
        _backward(cache, dlogits[idx], p, grads)
    return float(loss), grads


def batch_loss(p: ModelParams, seqs, targets, p_weight: float = 0.0):
    """Batch loss as a scalar in the parameter dtype, picked by the head's width.

    Gradient probes evaluate this at extended precision and subtract two
    nearly equal values, so no stage may round back to float64.
    """
    return _loss_and_dlogits(_batch_forward(p, seqs)[0], targets, p_weight)[0]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator epsilon.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def _adam_step(params: ModelParams, grads, m, v, step: int, learning_rate: float) -> float:
    """Adam on float64 master weights and moments, in place, with each gradient widened
    to float64; returns their global L2 norm, summed array by array in field order."""
    b1c = 1.0 - _ADAM_BETA1**step
    b2c = 1.0 - _ADAM_BETA2**step
    sq = 0.0
    for name, arr in params.arrays().items():
        g, mn, vn = grads[name].astype(np.float64), m[name], v[name]
        sq += float(np.sum(g * g))
        mn *= _ADAM_BETA1
        mn += (1.0 - _ADAM_BETA1) * g
        vn *= _ADAM_BETA2
        vn += (1.0 - _ADAM_BETA2) * g * g
        arr -= learning_rate * (mn / b1c) / (np.sqrt(vn / b2c) + _ADAM_EPS)
    return math.sqrt(sq)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    schedule: LossSchedule | None = None
    seed: int = 0


# A diverging run overflows before its loss turns non-finite. The loss check and
# the final weights check report it; numpy's warnings on the way would be noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    data: Sequence[tuple[str, float | int]],
    config: TrainConfig,
    params: ModelParams,
    vocab: Vocabulary,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> tuple[ModelParams, dict]:
    """Mini-batch Adam training; returns updated float32 params and the log file's dict:
    the run's settings, ``schedule`` when one is set, and one entry per step.

    The task follows the head shape: 1 output unit trains as regression
    with the scheduled STDE/MSE blend, anything wider as cross-entropy
    classification; ``data`` is non-empty and its targets fit the head (see
    ``_encode_samples``). The schedule horizon is fixed to the actual number
    of update steps before training starts. A step runs
    ``batch_loss_and_grads`` on a float32 copy of the float64 master weights,
    then ``_adam_step``.
    """
    seqs, targets = _encode_samples(data, vocab, params.head_dim, max_sequence_length)
    task = REGRESSION if params.head_dim == 1 else CLASSIFICATION

    n = len(data)
    steps_per_epoch = math.ceil(n / config.batch_size)
    steps_total = config.epochs * steps_per_epoch
    schedule = None
    if task == REGRESSION and config.schedule is not None:
        schedule = replace(config.schedule, T=steps_total)

    p64 = params.astype(np.float64)
    m = _zero_grads(p64)
    v = _zero_grads(p64)
    rng = np.random.default_rng(config.seed)
    log = {"seed": config.seed, "task": task, "epochs": config.epochs,
           "batch_size": config.batch_size, "steps_total": steps_total}
    if schedule is not None:
        log["schedule"] = asdict(schedule)
    entries = log["entries"] = []

    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            step += 1
            batch = order[lo : lo + config.batch_size]
            p_weight = weight_p(step, schedule) if schedule is not None else 0.0
            loss, grads = batch_loss_and_grads(
                p64.astype(np.float32), [seqs[i] for i in batch], targets[batch], p_weight
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(step, "loss")
            grad_norm = _adam_step(p64, grads, m, v, step, config.learning_rate)
            entry = {"step": step, "epoch": epoch, "loss": loss, "grad_norm": grad_norm}
            if schedule is not None:
                entry["p"] = p_weight
            entries.append(entry)

    out = p64.astype(np.float32)
    if not out.all_finite():
        raise TrainingDivergedError(step, "float32 weights")
    return out, log


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

# Central-difference step of the gradient probes.
_GRAD_CHECK_EPSILON = 1e-4


def max_grad_error(
    p64: ModelParams,
    grads: dict[str, np.ndarray],
    loss_fn,
    n_weights: int,
    seed: int,
) -> float:
    """Compare analytic grads to central differences, step ``_GRAD_CHECK_EPSILON``,
    on ``n_weights`` weights drawn with ``seed``.

    Probe losses run at the platform's widest float (80-bit on x86), which
    suppresses the rounding component of (L(w+e) - L(w-e)) / 2e and leaves
    only the deterministic O(e^2) truncation term; elsewhere longdouble
    degrades to float64 and the comparison still holds with less margin.
    """
    probe = p64.astype(np.longdouble)
    names = list(probe.arrays())
    sizes = [getattr(probe, name).size for name in names]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_weights, total), replace=False)
    offsets = np.cumsum([0] + sizes)
    worst = 0.0
    eps = np.longdouble(_GRAD_CHECK_EPSILON)
    for flat in sorted(int(i) for i in picks):
        k = int(np.searchsorted(offsets, flat, side="right") - 1)
        arr = getattr(probe, names[k])
        idx = flat - offsets[k]
        w0 = arr.flat[idx]
        arr.flat[idx] = w0 + eps
        loss_hi = loss_fn(probe)
        arr.flat[idx] = w0 - eps
        loss_lo = loss_fn(probe)
        arr.flat[idx] = w0
        numeric = float((loss_hi - loss_lo) / (2 * eps))
        analytic = grads[names[k]].flat[idx]
        err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def grad_check(
    params: ModelParams,
    samples,
    vocab: Vocabulary,
    p_weight: float = 0.0,
    n_weights: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and numeric gradients of the loss
    that ``train`` would use for the head of ``params``, at 64-bit.

    ``samples`` is a non-empty list of (text, target) pairs whose targets fit the head
    (see ``_encode_samples``). A 1-wide head blends STDE and MSE at weight
    ``p_weight``; the loss runs over the whole batch, so the blend's
    standard-deviation term is exercised when two or more samples are given.
    """
    seqs, targets = _encode_samples(samples, vocab, params.head_dim,
                                    DEFAULT_MAX_SEQUENCE_LENGTH)
    p64 = params.astype(np.float64)
    _, grads = batch_loss_and_grads(p64, seqs, targets, p_weight)
    return max_grad_error(p64, grads, lambda p: batch_loss(p, seqs, targets, p_weight),
                          n_weights, seed)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"AFGM"
_VERSION = 1
_HEAD_CODE = {REGRESSION: 0, CLASSIFICATION: 1}
_HEAD_NAME = {v: k for k, v in _HEAD_CODE.items()}
_CONFIG_STRUCT = struct.Struct("<8q")


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=8).digest()


def save_model(params: ModelParams, config: EncoderConfig) -> bytes:
    """Serialize params + config; see the module docstring for field order. ``params``
    has the shapes of ``config``, as ``init_params`` and ``load_model`` give them."""
    # The config block holds the EncoderConfig fields in declaration order.
    values = asdict(config)
    values["head"] = _HEAD_CODE[config.head]
    cfg = _CONFIG_STRUCT.pack(*values.values())
    body = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for arr in params.arrays().values()
    )
    payload = cfg + body
    return _MAGIC + bytes([_VERSION]) + payload + _checksum(payload)


def load_model(data: bytes) -> tuple[ModelParams, EncoderConfig]:
    """Params and config from the bytes ``save_model`` writes; any fault is a DataError."""
    if len(data) < len(_MAGIC) + 1:
        raise DataError("file shorter than header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise DataError(f"bad magic bytes {data[:len(_MAGIC)]!r}")
    version = data[len(_MAGIC)]
    if version != _VERSION:
        raise DataError(f"unsupported model version {version}")
    rest = data[len(_MAGIC) + 1 :]
    if len(rest) < _CONFIG_STRUCT.size + 8:
        raise DataError("truncated model file")
    payload, checksum = rest[:-8], rest[-8:]
    if _checksum(payload) != checksum:
        raise DataError("checksum mismatch")
    values = dict(zip((f.name for f in fields(EncoderConfig)),
                      _CONFIG_STRUCT.unpack(payload[: _CONFIG_STRUCT.size])))
    if values["head"] not in _HEAD_NAME:
        raise DataError(f"unknown head code {values['head']}")
    values["head"] = _HEAD_NAME[values["head"]]
    try:
        config = EncoderConfig(**values)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    shapes = _shapes(config)
    expected = sum(math.prod(s) for s in shapes.values()) * 4
    body = payload[_CONFIG_STRUCT.size :]
    if len(body) != expected:
        raise DataError(
            f"payload holds {len(body)} weight bytes, config implies {expected}"
        )
    if not np.isfinite(np.frombuffer(body, dtype="<f4")).all():
        raise DataError("non-finite weight")
    arrays = {}
    offset = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        arrays[name] = np.frombuffer(
            body, dtype="<f4", count=count, offset=offset
        ).reshape(shape).copy()
        offset += count * 4
    return ModelParams(**arrays), config


def save_model_file(path, params: ModelParams, config: EncoderConfig) -> None:
    write_file(path, save_model(params, config))


def load_model_file(path) -> tuple[ModelParams, EncoderConfig]:
    return load_model(Path(path).read_bytes())
