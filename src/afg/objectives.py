"""Loss functions and evaluation metrics for the abstract scorer.

The training loss blends two terms with a time-dependent weight: an error
on the standard deviation of the predictions (keeps the model from
collapsing to the mean early on) and plain mean squared error. The weight
p(t) = min(a, a * exp(-c * (t/T - b))) stays at its plateau value ``a``
for the first ``b`` fraction of training and then decays exponentially.

Everything here is pure. The metrics and the gradient are computed in
64-bit floats; ``blend_terms`` keeps the dtype of its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossSchedule:
    """Constants of the dynamic loss weight and the training horizon T.

    ``cli._SCHEMA`` checks a in (0, 1], b in [0, 1] and c >= 0; ``nn.train`` sets T >= 1.
    """

    a: float = 1.0
    b: float = 0.1
    c: float = 10.0
    T: int = 1


def weight_p(t: int, s: LossSchedule) -> float:
    """Dynamic loss weight at step t in [0, T]; plateaus at ``a`` then decays."""
    return min(s.a, s.a * math.exp(-s.c * (t / s.T - s.b)))


def _pair(preds, targets, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and targets of one length as float64 arrays; fewer than ``min_len``
    is a ValueError."""
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape[0] < min_len:
        raise ValueError(f"need at least {min_len} elements, got {p.shape[0]}")
    return p, t


def stde(preds, targets) -> float:
    """Absolute difference of the population standard deviations."""
    p, t = _pair(preds, targets, min_len=2)
    return abs(float(np.std(t)) - float(np.std(p)))


def mse(preds, targets) -> float:
    p, t = _pair(preds, targets)
    return float(np.mean((p - t) ** 2))


def mae(preds, targets) -> float:
    p, t = _pair(preds, targets)
    return float(np.mean(np.abs(p - t)))


def rmse(preds, targets) -> float:
    return math.sqrt(mse(preds, targets))


def max_error(preds, targets) -> float:
    p, t = _pair(preds, targets)
    return float(np.max(np.abs(p - t)))


def combined_loss(preds, targets, t: int, s: LossSchedule) -> float:
    """The blend at the scheduled weight p(t); needs at least two predictions."""
    return float(blend_terms(*_pair(preds, targets, min_len=2), weight_p(t, s)))


def blend_terms(x, y, p: float):
    """p*STDE + (1 - p)*MSE, preserving the input dtype (the one copy of the formula).

    Tolerates single-element batches: the standard-deviation term of one
    value is zero by convention, so the loss degrades to (1-p)*MSE.
    """
    sd_term = np.abs(np.std(y) - np.std(x))
    return p * sd_term + (1.0 - p) * np.mean((x - y) ** 2)


def blended_loss_grad(preds, targets, p: float) -> np.ndarray:
    """Gradient of ``blend_terms`` with respect to the predictions.

    At sigma(preds) == 0 or sigma(targets) == sigma(preds) the STDE term is
    not differentiable; the zero subgradient is used.
    """
    x, y = _pair(preds, targets)
    n = x.shape[0]
    grad = (1.0 - p) * 2.0 * (x - y) / n
    sp = float(np.std(x))
    if p != 0.0 and sp > 0.0:
        diff = float(np.std(y)) - sp
        if diff != 0.0:
            grad = grad - p * math.copysign(1.0, diff) * (x - x.mean()) / (n * sp)
    return grad


def evaluate_regression(preds, targets) -> dict:
    """The regression fields of an eval file: r2 two ways, MAE, RMSE, max error and n.

    ``r2_paper`` divides the residual sum of squares by the spread of the
    *predictions* around their mean, ``r2_standard`` by the targets'. Both
    are reported side by side because they can differ a lot. Constant
    predictions or targets are a ValueError.
    """
    p, t = _pair(preds, targets, min_len=2)
    residual = float(np.sum((p - t) ** 2))
    report = {}
    for key, v, what in (("r2_paper", p, "predictions"), ("r2_standard", t, "targets")):
        denom = float(np.sum((v - v.mean()) ** 2))
        if denom == 0.0:
            raise ValueError(f"degenerate variance: constant {what}")
        report[key] = 1.0 - residual / denom
    return {**report, "mae": mae(p, t), "rmse": rmse(p, t), "max_error": max_error(p, t),
            "n": int(p.shape[0])}


def confusion(pred_labels, true_labels, labels: list) -> dict:
    """The confusion counts over ``labels``: rows are true labels, columns predictions."""
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    np.add.at(counts, (np.asarray(true_labels, dtype=np.int64),
                       np.asarray(pred_labels, dtype=np.int64)), 1)
    return {"n_classes": len(labels), "labels": labels, "counts": counts.tolist()}


def accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    return float(np.mean(pred == true))
