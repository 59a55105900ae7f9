"""Trainable core: bidirectional LSTM encoder with additive attention.

One encoder architecture serves both tasks, behind either a sigmoid
regression head (abstract scoring) or a softmax classification head
(sentence roles). Weights are stored as 32-bit floats; every forward,
backward and update computation runs in 64-bit, which keeps the
finite-difference gradient check meaningful. The forward keeps the dtype
of the weights it is given, so gradient probes run it at extended precision.

One batched forward serves inference, training and the gradient check.
Sequences are sorted by length and cut into chunks of at most
TOKEN_BUDGET padded tokens (rows x longest row). A chunk is a (B, T) id
array, right-padded, so every row's valid tokens come first:
  - the forward direction runs over it as is; padded steps come after
    all valid ones and never feed a valid state;
  - the backward direction runs over each row's valid prefix reversed,
    gathered with one index array that leaves the padding at the end,
    and its outputs are put back in order with the same array;
  - padded positions score -inf before the attention softmax, so their
    weight is exactly 0.
Results come back in input order. Row k of a chunk's cache, cut to the
row's length, is that sequence's own cache; backprop runs one sequence
at a time from it, in list order, so gradient sums keep a fixed order.

Layout conventions (fixed, also the serialization order):
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
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    CorruptModelError,
    ShapeMismatchError,
    TrainingDivergedError,
    VersionMismatchError,
)
from .objectives import LossSchedule, blend_terms, blended_loss, blended_loss_grad, weight_p
from .textproc import TokenSequence, Vocabulary, tokenize

DEFAULT_MAX_SEQUENCE_LENGTH = 512

REGRESSION = "regression"
CLASSIFICATION = "classification"

_FIELD_ORDER = (
    "embed",
    "fw_wx",
    "fw_wh",
    "fw_b",
    "bw_wx",
    "bw_wh",
    "bw_b",
    "att_w",
    "att_v",
    "head_w",
    "head_b",
)


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
        if self.head not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown head {self.head!r}")
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
        return {name: getattr(self, name) for name in _FIELD_ORDER}

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(**{k: v.astype(dtype) for k, v in self.arrays().items()})

    def copy(self) -> "ModelParams":
        return ModelParams(**{k: v.copy() for k, v in self.arrays().items()})

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(v)) for v in self.arrays().values())

    @property
    def hidden_dim(self) -> int:
        return self.fw_wh.shape[0]

    @property
    def head_dim(self) -> int:
        return self.head_w.shape[1]


def validate_shapes(params: ModelParams, config: EncoderConfig) -> None:
    expected = _shapes(config)
    for name, arr in params.arrays().items():
        if tuple(arr.shape) != expected[name]:
            raise ShapeMismatchError(
                f"{name}: expected shape {expected[name]}, got {tuple(arr.shape)}"
            )


def init_params(config: EncoderConfig) -> ModelParams:
    """Glorot-uniform weights (per matrix), zero biases, seeded draw order."""
    rng = np.random.default_rng(config.seed)
    shapes = _shapes(config)

    def glorot(name: str, fan_in: int, fan_out: int) -> np.ndarray:
        s = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, shapes[name])

    v, e = shapes["embed"]
    h4 = shapes["fw_wx"][1]
    h = h4 // 4
    a = config.attention_dim
    arrays = {
        "embed": glorot("embed", v, e),
        "fw_wx": glorot("fw_wx", e, h4),
        "fw_wh": glorot("fw_wh", h, h4),
        "fw_b": np.zeros(shapes["fw_b"]),
        "bw_wx": glorot("bw_wx", e, h4),
        "bw_wh": glorot("bw_wh", h, h4),
        "bw_b": np.zeros(shapes["bw_b"]),
        "att_w": glorot("att_w", 2 * h, a),
        "att_v": glorot("att_v", a, 1),
        "head_w": glorot("head_w", 2 * h, config.head_dim),
        "head_b": np.zeros(shapes["head_b"]),
    }
    return ModelParams(**{k: arr.astype(np.float32) for k, arr in arrays.items()})


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

# Padded tokens (rows x longest row) per batched forward call. It bounds the
# padding work of a chunk and the memory of its cache.
TOKEN_BUDGET = 512


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis; a -inf entry gets weight exactly 0."""
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _lstm_forward(x: np.ndarray, wx, wh, b):
    """Run one direction over time-major (T, B, E) inputs.

    Each row's valid steps come before its padding, so no valid state ever
    depends on a padded step and the recurrence needs no masking. Returns
    the states and backprop cache as batch-major (B, T[+1], ...) views.
    """
    t_len, n, _ = x.shape
    h_dim = wh.shape[0]
    g_lo, g_hi = 2 * h_dim, 3 * h_dim
    # Step t turns its input pre-activations into its gate activations in
    # place. Time-major storage keeps each step's rows contiguous.
    gates = x @ wx
    gates += b
    hs = np.zeros((t_len + 1, n, h_dim), dtype=gates.dtype)
    cs = np.zeros_like(hs)
    for t in range(t_len):
        z = gates[t]
        z += hs[t] @ wh
        g = np.tanh(z[:, g_lo:g_hi])
        # In-place sigmoid, 1 / (1 + exp(-z)), over all four blocks.
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
        z[:, g_lo:g_hi] = g
        c = cs[t + 1]
        np.multiply(z[:, h_dim:g_lo], cs[t], out=c)
        c += z[:, :h_dim] * g
        h = hs[t + 1]
        np.tanh(c, out=h)
        h *= z[:, g_hi:]
    gates = gates.swapaxes(0, 1)
    return {
        "x": x.swapaxes(0, 1), "hs": hs.swapaxes(0, 1), "cs": cs.swapaxes(0, 1),
        "i": gates[..., :h_dim], "f": gates[..., h_dim:g_lo],
        "g": gates[..., g_lo:g_hi], "o": gates[..., g_hi:],
    }


def _lstm_backward(dh_out: np.ndarray, cache, wx, wh, grads, prefix: str):
    """Backprop one direction of one sequence; returns the gradient wrt the inputs x."""
    x, hs, cs = cache["x"], cache["hs"], cache["cs"]
    gi, gf, gg, go = cache["i"], cache["f"], cache["g"], cache["o"]
    t_len, h_dim = dh_out.shape
    dz_all = np.empty((t_len, 4 * h_dim))
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)
    for t in range(t_len - 1, -1, -1):
        dh = dh_out[t] + dh_next
        tc = np.tanh(cs[t + 1])
        do = dh * tc
        dc = dh * go[t] * (1.0 - tc * tc) + dc_next
        df = dc * cs[t]
        di = dc * gg[t]
        dg = dc * gi[t]
        dc_next = dc * gf[t]
        dz = dz_all[t]
        dz[:h_dim] = di * gi[t] * (1.0 - gi[t])
        dz[h_dim : 2 * h_dim] = df * gf[t] * (1.0 - gf[t])
        dz[2 * h_dim : 3 * h_dim] = dg * (1.0 - gg[t] * gg[t])
        dz[3 * h_dim :] = do * go[t] * (1.0 - go[t])
        dh_next = wh @ dz
    grads[prefix + "_wx"] += x.T @ dz_all
    grads[prefix + "_wh"] += hs[:-1].T @ dz_all
    grads[prefix + "_b"] += dz_all.sum(axis=0)
    return dz_all @ wx.T


def _forward(ids: np.ndarray, lengths: np.ndarray, p: ModelParams):
    """Forward pass over right-padded (B, T) token ids, in the dtype of ``p``.

    Returns the batch cache. Row k of each array, cut to ``lengths[k]``
    steps, is that sequence's own cache (see ``_seq_cache``).
    """
    n, t_len = ids.shape
    rows = np.arange(n)[:, None]
    steps = np.arange(t_len)
    valid = steps < lengths[:, None]
    # Reverses each row's valid prefix and keeps its padding at the end; the
    # permutation is its own inverse, so the same array undoes it.
    rev = np.where(valid, lengths[:, None] - 1 - steps, steps)
    fw = _lstm_forward(p.embed[ids.T], p.fw_wx, p.fw_wh, p.fw_b)
    bw = _lstm_forward(p.embed[ids[rows, rev].T], p.bw_wx, p.bw_wh, p.bw_b)
    h_cat = np.concatenate([fw["hs"][:, 1:], bw["hs"][:, 1:][rows, rev]], axis=2)
    u = np.tanh(h_cat @ p.att_w)
    alpha = _softmax(np.where(valid, u @ p.att_v, -np.inf))
    ctx = (alpha[:, None, :] @ h_cat)[:, 0]
    logits = ctx @ p.head_w + p.head_b
    return {
        "ids": ids, "lengths": lengths, "fw": fw, "bw": bw, "h_cat": h_cat,
        "u": u, "alpha": alpha, "ctx": ctx, "logits": logits,
    }


def _seq_cache(cache, k: int):
    """Row ``k`` of a batch cache cut to its length: the cache _backward_seq reads."""
    n = int(cache["lengths"][k])

    def direction(c):
        return {name: arr[k, : n + 1 if name in ("hs", "cs") else n] for name, arr in c.items()}

    return {
        "ids": cache["ids"][k, :n], "fw": direction(cache["fw"]), "bw": direction(cache["bw"]),
        "h_cat": cache["h_cat"][k, :n], "u": cache["u"][k, :n],
        "alpha": cache["alpha"][k, :n], "ctx": cache["ctx"][k],
    }


def _backward_seq(cache, dlogits: np.ndarray, p: ModelParams, grads):
    ctx, alpha, h_cat, u = cache["ctx"], cache["alpha"], cache["h_cat"], cache["u"]
    grads["head_w"] += np.outer(ctx, dlogits)
    grads["head_b"] += dlogits
    dctx = p.head_w @ dlogits

    dalpha = h_cat @ dctx
    dh_cat = np.outer(alpha, dctx)
    dscores = alpha * (dalpha - float(alpha @ dalpha))
    grads["att_v"] += u.T @ dscores
    dpre = np.outer(dscores, p.att_v) * (1.0 - u * u)
    grads["att_w"] += h_cat.T @ dpre
    dh_cat += dpre @ p.att_w.T

    h_dim = p.hidden_dim
    dx = _lstm_backward(dh_cat[:, :h_dim], cache["fw"], p.fw_wx, p.fw_wh, grads, "fw")
    dx_bw = _lstm_backward(dh_cat[:, h_dim:][::-1], cache["bw"], p.bw_wx, p.bw_wh, grads, "bw")
    dx += dx_bw[::-1]
    np.add.at(grads["embed"], cache["ids"], dx)


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


def _batch_forward(p: ModelParams, seqs: Sequence[np.ndarray], keep_cache: bool = False):
    """Logits of ``seqs`` in list order, run over length-sorted padded chunks.

    With ``keep_cache`` the second result is each sequence's own cache, in
    list order; otherwise it is None and each chunk's cache is dropped once
    its logits are read.
    """
    logits = np.empty((len(seqs), p.head_dim), dtype=p.embed.dtype)
    caches = [None] * len(seqs) if keep_cache else None
    for idx in _chunks([len(s) for s in seqs]):
        lengths = np.array([len(seqs[i]) for i in idx])
        # Padding reuses id 0: padded steps never reach a valid output.
        ids = np.zeros((len(idx), lengths.max()), dtype=np.int64)
        for row, i in enumerate(idx):
            ids[row, : lengths[row]] = seqs[i]
        cache = _forward(ids, lengths, p)
        logits[idx] = cache["logits"]
        if keep_cache:
            for row, i in enumerate(idx):
                caches[i] = _seq_cache(cache, row)
        del cache  # else it stays alive while the next chunk runs
    return logits, caches


def _prepare_ids(tokens, max_sequence_length: int) -> np.ndarray:
    if isinstance(tokens, TokenSequence):
        ids = np.asarray(tokens.token_ids, dtype=np.int64)
    else:
        ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] == 0:
        raise ValueError("token sequence must be non-empty and one-dimensional")
    if ids.shape[0] > max_sequence_length:
        warnings.warn(
            f"sequence of {ids.shape[0]} tokens truncated to {max_sequence_length}",
            stacklevel=2,
        )
        ids = ids[:max_sequence_length]
    return ids


def _forward_one(ids: np.ndarray, params: ModelParams):
    return _forward(ids[None], np.array([ids.shape[0]]), params.astype(np.float64))


def encode(
    tokens,
    params: ModelParams,
    return_weights: bool = False,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
):
    """Encode a token sequence into one attention-pooled context vector."""
    cache = _forward_one(_prepare_ids(tokens, max_sequence_length), params)
    if return_weights:
        return cache["ctx"][0], cache["alpha"][0]
    return cache["ctx"][0]


def _tokenize_nonempty(text: str, vocab: Vocabulary) -> TokenSequence:
    if not text or not text.strip():
        raise ValueError("text must be non-empty")
    return tokenize(text, vocab)


def predict_score(
    text: str,
    params: ModelParams,
    vocab: Vocabulary,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> float:
    """Score free text in (0, 1) with the regression head."""
    if params.head_dim != 1:
        raise ValueError("predict_score needs a regression head")
    ids = _prepare_ids(_tokenize_nonempty(text, vocab), max_sequence_length)
    return float(_sigmoid(_forward_one(ids, params)["logits"][0, 0]))


def classify_sentence(
    sentence: str,
    params: ModelParams,
    vocab: Vocabulary,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> tuple[float, ...]:
    """Class probabilities for one sentence from the classification head."""
    if params.head_dim < 2:
        raise ValueError("classify_sentence needs a classification head")
    ids = _prepare_ids(_tokenize_nonempty(sentence, vocab), max_sequence_length)
    return tuple(float(v) for v in _softmax(_forward_one(ids, params)["logits"][0]))


class Predictor:
    """A trained model bound to its vocabulary: a list of texts in, outputs out.

    It converts the weights to float64 once and truncates at the model's
    own ``max_sequence_length``. Texts are tokenized, run in length-sorted
    chunks of at most TOKEN_BUDGET padded tokens, and returned in input order.
    """

    def __init__(self, params: ModelParams, config: EncoderConfig, vocab: Vocabulary):
        validate_shapes(params, config)
        if len(vocab) != config.vocab_size:
            raise ValueError(
                f"vocabulary has {len(vocab)} tokens, model expects {config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        self._p64 = params.astype(np.float64)

    def logits(self, texts: Sequence[str]) -> np.ndarray:
        """(len(texts), head_dim) head outputs before the sigmoid or softmax."""
        seqs = [
            _prepare_ids(_tokenize_nonempty(text, self.vocab), self.config.max_sequence_length)
            for text in texts
        ]
        return _batch_forward(self._p64, seqs)[0]

    def scores(self, texts: Sequence[str]) -> list[float]:
        """Regression-head scores in (0, 1)."""
        if self.config.head != REGRESSION:
            raise ValueError("scores need a regression head")
        return [float(s) for s in _sigmoid(self.logits(texts)[:, 0])]

    def probabilities(self, texts: Sequence[str]) -> list[tuple[float, ...]]:
        """Classification-head class probabilities."""
        if self.config.head != CLASSIFICATION:
            raise ValueError("probabilities need a classification head")
        return [tuple(float(v) for v in row) for row in _softmax(self.logits(texts))]


# ---------------------------------------------------------------------------
# Batch loss
# ---------------------------------------------------------------------------

def _zero_grads(p: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in p.arrays().items()}


def _regression_loss_and_dlogits(logits: np.ndarray, targets: np.ndarray, p_weight: float):
    preds = _sigmoid(logits[:, 0])
    loss = blended_loss(preds, targets, p_weight)
    dpred = blended_loss_grad(preds, targets, p_weight)
    return loss, (dpred * preds * (1.0 - preds))[:, None]


def _classification_loss_and_dlogits(logits: np.ndarray, targets: np.ndarray):
    n = len(logits)
    loss = 0.0
    dlogits = []
    for j, row in enumerate(logits):
        z = row - row.max()
        log_probs = z - math.log(np.exp(z).sum())
        loss -= log_probs[targets[j]]
        grad = np.exp(log_probs)
        grad[targets[j]] -= 1.0
        dlogits.append(grad / n)
    return loss / n, dlogits


def batch_loss_and_grads(
    p: ModelParams,
    seqs: Sequence[np.ndarray],
    targets: np.ndarray,
    task: str,
    p_weight: float = 0.0,
):
    """Loss plus parameter gradients for one mini-batch (64-bit params).

    The forward runs batched; backprop then runs one sequence at a time in
    list order, which pins the floating-point sum order of the gradients
    and with it run-to-run determinism.
    """
    logits, caches = _batch_forward(p, seqs, keep_cache=True)
    if task == REGRESSION:
        loss, dlogits = _regression_loss_and_dlogits(logits, targets, p_weight)
    else:
        loss, dlogits = _classification_loss_and_dlogits(logits, targets)
    grads = _zero_grads(p)
    for cache, dl in zip(caches, dlogits):
        _backward_seq(cache, dl, p, grads)
    return float(loss), grads


def batch_loss(p: ModelParams, seqs, targets, task: str, p_weight: float = 0.0):
    """Batch loss as a scalar in the parameter dtype.

    Gradient probes evaluate this at extended precision and subtract two
    nearly equal values, so no stage may round back to float64.
    """
    logits, _ = _batch_forward(p, seqs)
    if task == REGRESSION:
        preds = _sigmoid(logits[:, 0])
        return blend_terms(preds, np.asarray(targets, dtype=p.embed.dtype), p_weight)
    loss = p.embed.dtype.type(0.0)
    for j, row in enumerate(logits):
        z = row - row.max()
        loss -= (z - np.log(np.exp(z).sum()))[targets[j]]
    return loss / len(logits)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    schedule: LossSchedule | None = None
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class TrainLog:
    seed: int
    task: str
    epochs: int
    batch_size: int
    steps_total: int
    schedule: LossSchedule | None = None
    entries: list[dict] = field(default_factory=list)

    def epoch_mean_losses(self) -> list[float]:
        by_epoch: dict[int, list[float]] = {}
        for e in self.entries:
            by_epoch.setdefault(e["epoch"], []).append(e["loss"])
        return [float(np.mean(by_epoch[k])) for k in sorted(by_epoch)]

    def to_json_dict(self) -> dict:
        head = {
            "seed": self.seed,
            "task": self.task,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "steps_total": self.steps_total,
        }
        if self.schedule is not None:
            head["schedule"] = {
                "a": self.schedule.a, "b": self.schedule.b,
                "c": self.schedule.c, "T": self.schedule.T,
            }
        head["entries"] = self.entries
        return head


def train(
    data: Sequence[tuple[str, float | int]],
    config: TrainConfig,
    params: ModelParams,
    vocab: Vocabulary,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> tuple[ModelParams, TrainLog]:
    """Mini-batch Adam training; returns updated params and a step log.

    The task follows the head shape: 1 output unit trains as regression
    with the scheduled STDE/MSE blend, anything wider as cross-entropy
    classification. The schedule horizon is fixed to the actual number of
    update steps before training starts.
    """
    if not data:
        raise ValueError("training data must be non-empty")
    task = REGRESSION if params.head_dim == 1 else CLASSIFICATION
    seqs = [
        _prepare_ids(_tokenize_nonempty(text, vocab), max_sequence_length)
        for text, _ in data
    ]
    if task == REGRESSION:
        targets = np.array([float(y) for _, y in data])
    else:
        targets = np.array([int(y) for _, y in data], dtype=np.int64)
        if targets.min() < 0 or targets.max() >= params.head_dim:
            raise ValueError("class label outside [0, n_classes)")

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
    log = TrainLog(
        seed=config.seed, task=task, epochs=config.epochs,
        batch_size=config.batch_size, steps_total=steps_total, schedule=schedule,
    )

    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            step += 1
            batch = order[lo : lo + config.batch_size]
            p_weight = weight_p(step, schedule) if schedule is not None else 0.0
            loss, grads = batch_loss_and_grads(
                p64, [seqs[i] for i in batch], targets[batch], task, p_weight
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(step)
            b1c = 1.0 - config.beta1**step
            b2c = 1.0 - config.beta2**step
            for name, arr in p64.arrays().items():
                g = grads[name]
                m[name] = config.beta1 * m[name] + (1.0 - config.beta1) * g
                v[name] = config.beta2 * v[name] + (1.0 - config.beta2) * g * g
                arr -= config.learning_rate * (m[name] / b1c) / (
                    np.sqrt(v[name] / b2c) + config.adam_eps
                )
            entry = {"step": step, "epoch": epoch, "loss": loss}
            if schedule is not None:
                entry["p"] = p_weight
            log.entries.append(entry)

    out = p64.astype(np.float32)
    if not out.all_finite():
        raise TrainingDivergedError(step)
    return out, log


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def _resolve_loss_spec(loss) -> tuple[str, float]:
    if loss == "mse":
        return REGRESSION, 0.0
    if loss == "stde":
        return REGRESSION, 1.0
    if loss == "cross_entropy":
        return CLASSIFICATION, 0.0
    if isinstance(loss, tuple) and len(loss) == 2 and loss[0] == "combined":
        return REGRESSION, float(loss[1])
    raise ValueError(f"unknown loss spec {loss!r}")


def max_grad_error(
    p64: ModelParams,
    grads: dict[str, np.ndarray],
    loss_fn,
    epsilon: float,
    n_weights: int,
    seed: int,
) -> float:
    """Compare analytic grads to central differences on sampled weights.

    Probe losses run at the platform's widest float (80-bit on x86), which
    suppresses the rounding component of (L(w+e) - L(w-e)) / 2e and leaves
    only the deterministic O(e^2) truncation term; elsewhere longdouble
    degrades to float64 and the comparison still holds with less margin.
    """
    probe = p64.astype(np.longdouble)
    names = list(_FIELD_ORDER)
    sizes = [getattr(probe, name).size for name in names]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_weights, total), replace=False)
    offsets = np.cumsum([0] + sizes)
    worst = 0.0
    eps = np.longdouble(epsilon)
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
    loss="mse",
    epsilon: float = 1e-4,
    n_weights: int = 200,
    seed: int = 0,
    max_sequence_length: int = DEFAULT_MAX_SEQUENCE_LENGTH,
) -> float:
    """Max relative error between analytic and numeric gradients.

    ``samples`` is one (text, target) pair or a list of them; the loss is
    computed over the whole batch, so the standard-deviation term of the
    combined loss is exercised when two or more samples are given.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must be in [1e-6, 1e-3]")
    if isinstance(samples, tuple) and len(samples) == 2 and isinstance(samples[0], str):
        samples = [samples]
    task, p_weight = _resolve_loss_spec(loss)
    seqs = [
        _prepare_ids(_tokenize_nonempty(text, vocab), max_sequence_length)
        for text, _ in samples
    ]
    if task == REGRESSION:
        targets = np.array([float(y) for _, y in samples])
    else:
        targets = np.array([int(y) for _, y in samples], dtype=np.int64)

    p64 = params.astype(np.float64)
    _, grads = batch_loss_and_grads(p64, seqs, targets, task, p_weight)
    return max_grad_error(
        p64, grads,
        lambda p: batch_loss(p, seqs, targets, task, p_weight),
        epsilon, n_weights, seed,
    )


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
    """Serialize params + config; see the module docstring for field order."""
    validate_shapes(params, config)
    cfg = _CONFIG_STRUCT.pack(
        config.vocab_size, config.embed_dim, config.hidden_dim,
        config.attention_dim, _HEAD_CODE[config.head], config.n_classes,
        config.seed, config.max_sequence_length,
    )
    body = b"".join(
        np.ascontiguousarray(arr, dtype="<f4").tobytes()
        for arr in params.arrays().values()
    )
    payload = cfg + body
    return _MAGIC + bytes([_VERSION]) + payload + _checksum(payload)


def load_model(data) -> tuple[ModelParams, EncoderConfig]:
    if hasattr(data, "read"):
        data = data.read()
    if len(data) < len(_MAGIC) + 1:
        raise CorruptModelError("file shorter than header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise BadMagicError(f"bad magic bytes {data[:len(_MAGIC)]!r}")
    version = data[len(_MAGIC)]
    if version != _VERSION:
        raise VersionMismatchError(f"unsupported model version {version}")
    rest = data[len(_MAGIC) + 1 :]
    if len(rest) < _CONFIG_STRUCT.size + 8:
        raise CorruptModelError("truncated model file")
    payload, checksum = rest[:-8], rest[-8:]
    if _checksum(payload) != checksum:
        raise CorruptModelError("checksum mismatch")
    fields = _CONFIG_STRUCT.unpack(payload[: _CONFIG_STRUCT.size])
    head_code = fields[4]
    if head_code not in _HEAD_NAME:
        raise ShapeMismatchError(f"unknown head code {head_code}")
    try:
        config = EncoderConfig(
            vocab_size=fields[0], embed_dim=fields[1], hidden_dim=fields[2],
            attention_dim=fields[3], head=_HEAD_NAME[head_code],
            n_classes=fields[5], seed=fields[6], max_sequence_length=fields[7],
        )
    except ValueError as exc:
        raise ShapeMismatchError(str(exc)) from exc
    shapes = _shapes(config)
    expected = sum(int(np.prod(s)) for s in shapes.values()) * 4
    body = payload[_CONFIG_STRUCT.size :]
    if len(body) != expected:
        raise ShapeMismatchError(
            f"payload holds {len(body)} weight bytes, config implies {expected}"
        )
    arrays = {}
    offset = 0
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        arrays[name] = np.frombuffer(
            body, dtype="<f4", count=count, offset=offset
        ).reshape(shape).copy()
        offset += count * 4
    return ModelParams(**arrays), config


def save_model_file(path, params: ModelParams, config: EncoderConfig) -> None:
    from pathlib import Path

    Path(path).write_bytes(save_model(params, config))


def load_model_file(path) -> tuple[ModelParams, EncoderConfig]:
    from pathlib import Path

    return load_model(Path(path).read_bytes())
