"""Mini-batch Adam training with per-epoch evaluation and keep-best selection.

Everything is driven by one 64-bit seed: parameter init consumes
default_rng(seed), epoch shuffles consume default_rng(seed + 1), so the
whole trajectory is reproducible bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .features import FeatureCache, FeatureSet, NormStats
from .layers import softmax, softmax_cross_entropy_batch
from .metrics import accuracy_of, confusion, macro_prf
from .model import ModelParams, ModelSpec, backward_batch, forward_batch, init_model, predict_batch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (0 < self.learning_rate < float("inf") and 0 < self.adam_eps < float("inf")):
            raise ValueError("learning_rate and adam_eps must be finite and positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in (0, 1)")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    test_precision: float
    test_recall: float
    test_f1: float


@dataclass
class TrainRun:
    epochs: list[EpochStats]
    best_epoch: int


class AdamState:
    """Bias-corrected first/second moment accumulators, one pair per array."""

    def __init__(self, params: ModelParams):
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.arrays.items()}


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, cfg: TrainConfig
) -> None:
    """One in-place Adam update; state.t counts completed steps.

    arr -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in that order but
    in place on the two bias-corrected copies.
    """
    state.t += 1
    t = state.t
    lr, b1, b2, eps = cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps
    for name, arr in params.arrays.items():
        g = grads[name].astype(arr.dtype, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        g2 = (1.0 - b2) * g
        g2 *= g
        v += g2
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        m_hat *= lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += eps
        m_hat /= v_hat
        arr -= m_hat


def split_metrics(params: ModelParams, features) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) of the model on a FeatureSet or an open FeatureCache.

    A window's prediction is the argmax of the softmax probabilities of
    predict_batch's logits, the probabilities the evaluate report scores.
    """
    probs = softmax(predict_batch(params, features))
    cm = confusion(np.argmax(probs, axis=1) + 1, features.labels)
    p, r, f1 = macro_prf(cm)
    return accuracy_of(cm), p, r, f1


def train(
    train_set: FeatureSet | FeatureCache,
    test_set: FeatureSet | FeatureCache,
    spec: ModelSpec,
    cfg: TrainConfig,
    norm: NormStats,
    on_epoch: Callable[[EpochStats], None] | None = None,
) -> tuple[ModelParams, TrainRun]:
    """Train on raw features; returns the best-test-accuracy params.

    Each split is a FeatureSet in memory or an open FeatureCache, and a
    step reads its batch's rows through rows() in the permutation's order,
    the order the weight gradients sum them in, so both give the same bits.
    The model carries the training-split stats `norm` and normalizes every
    batch with them. Both sets must have the stats' widths, which is
    checked before the first step; the caller's arrays are left unchanged.
    `on_epoch`, when given, gets each epoch's stats as that epoch ends.
    An epoch's train_loss and train_acc are the means over its steps' windows
    of each step's cross-entropy and correctness, taken before that step's
    update; only the test split is scored after the epoch.
    """
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("cannot train on an empty split")
    for features in (train_set, test_set):
        norm.check_shapes(*features.rows(slice(0, 0)))
    n = len(train_set)
    params = init_model(spec, cfg.seed, norm=norm)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    adam = AdamState(params)
    train_labels0 = train_set.labels - 1

    history: list[EpochStats] = []
    best = params.copy()
    best_epoch = 0
    best_acc = -1.0
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            labels0 = train_labels0[batch]
            logits, cache = forward_batch(params, *train_set.rows(batch), want_cache=True)
            losses, d_logits, probs = softmax_cross_entropy_batch(logits, labels0)
            loss_sum += float(losses.sum(dtype=np.float64))
            correct += int(np.count_nonzero(np.argmax(probs, axis=1) == labels0))
            grads = backward_batch(params, cache, d_logits / len(batch))
            adam_step(params, grads, adam, cfg)

        test_acc, test_p, test_r, test_f1 = split_metrics(params, test_set)
        stats = EpochStats(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=correct / n,
            test_acc=test_acc,
            test_precision=test_p,
            test_recall=test_r,
            test_f1=test_f1,
        )
        history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
        if test_acc > best_acc:
            best = params.copy()
            best_epoch = epoch
            best_acc = test_acc

    return best, TrainRun(epochs=history, best_epoch=best_epoch)
