"""Loss functions and evaluation metrics for the abstract scorer.

The training loss blends two terms with a time-dependent weight: an error
on the standard deviation of the predictions (keeps the model from
collapsing to the mean early on) and plain mean squared error. The weight
p(t) = min(a, a * exp(-c * (t/T - b))) stays at its plateau value ``a``
for the first ``b`` fraction of training and then decays exponentially.

Everything here is pure and computed in 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossSchedule:
    """Constants of the dynamic loss weight and the training horizon T."""

    a: float = 1.0
    b: float = 0.1
    c: float = 10.0
    T: int = 1

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"a must be in (0, 1], got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.c < 0.0:
            raise ValueError(f"c must be >= 0, got {self.c}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")


def weight_p(t: int, s: LossSchedule) -> float:
    """Dynamic loss weight at step t; plateaus at ``a`` then decays."""
    if t < 0 or t > s.T:
        raise ValueError(f"step t={t} outside [0, {s.T}]")
    return min(s.a, s.a * math.exp(-s.c * (t / s.T - s.b)))


def _pair(preds, targets, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} targets")
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


def r2(preds, targets, variant: str = "paper") -> float:
    """Coefficient of determination.

    variant="paper" uses the mean and variance of the *predictions* in the
    denominator; variant="standard" uses the targets'. Both are reported
    side by side in evaluation output because they can differ a lot.
    """
    p, t = _pair(preds, targets, min_len=2)
    residual = float(np.sum((p - t) ** 2))
    if variant == "paper":
        denom = float(np.sum((p - p.mean()) ** 2))
        if denom == 0.0:
            raise ValueError("degenerate variance: constant predictions")
    elif variant == "standard":
        denom = float(np.sum((t - t.mean()) ** 2))
        if denom == 0.0:
            raise ValueError("degenerate variance: constant targets")
    else:
        raise ValueError(f"unknown r2 variant {variant!r}")
    return 1.0 - residual / denom


@dataclass(frozen=True)
class EvalReport:
    """Regression evaluation summary over one prediction/target set."""

    r2_paper: float
    r2_standard: float
    mae: float
    rmse: float
    max_error: float
    n: int


def evaluate_regression(preds, targets) -> EvalReport:
    p, t = _pair(preds, targets, min_len=2)
    return EvalReport(
        r2_paper=r2(p, t, "paper"),
        r2_standard=r2(p, t, "standard"),
        mae=mae(p, t),
        rmse=rmse(p, t),
        max_error=max_error(p, t),
        n=int(p.shape[0]),
    )


@dataclass(frozen=True)
class ConfusionMatrix:
    """Integer count matrix; rows are true labels, columns predictions."""

    n_classes: int
    counts: np.ndarray

    def to_json_dict(self, labels: list | None = None) -> dict:
        return {
            "n_classes": self.n_classes,
            "labels": labels if labels is not None else list(range(self.n_classes)),
            "counts": self.counts.tolist(),
        }


def confusion(pred_labels, true_labels, n_classes: int) -> ConfusionMatrix:
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    for name, v in (("pred", pred), ("true", true)):
        if v.min() < 0 or v.max() >= n_classes:
            raise ValueError(f"{name} label out of range [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true, pred), 1)
    return ConfusionMatrix(n_classes=n_classes, counts=counts)


def accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    return float(np.mean(pred == true))
