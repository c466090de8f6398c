"""Mini-batch Adam training with per-epoch evaluation and keep-best selection.

Everything is driven by one 64-bit seed: parameter init consumes
default_rng(seed), epoch shuffles consume default_rng(seed + 1), so the
whole trajectory is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .features import FeatureSet, NormStats
from .layers import softmax_cross_entropy_batch
from .metrics import accuracy_of, confusion, macro_prf_lenient
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
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in (0, 1)")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


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
        self.m = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, cfg: TrainConfig
) -> None:
    """One in-place Adam update; state.t counts completed steps."""
    state.t += 1
    t = state.t
    lr, b1, b2, eps = cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps
    for name, arr in params.named_arrays():
        g = grads[name].astype(arr.dtype, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


def split_metrics(params: ModelParams, features: FeatureSet) -> tuple[float, float, float, float, float]:
    """(loss, accuracy, precision, recall, f1) of normalized features."""
    probs = predict_batch(params, features.freq, features.power)
    rows = np.arange(len(features))
    true_idx = features.labels - 1
    loss = float(np.mean(-np.log(np.maximum(probs[rows, true_idx], 1e-30))))
    preds = np.argmax(probs, axis=1) + 1
    cm = confusion(preds, features.labels)
    p, r, f1 = macro_prf_lenient(cm)
    return loss, accuracy_of(cm), p, r, f1


def train(
    train_set: FeatureSet,
    test_set: FeatureSet,
    spec: ModelSpec,
    cfg: TrainConfig,
    norm: NormStats | None = None,
) -> tuple[ModelParams, TrainRun]:
    """Train on normalized feature sets; returns the best-test-accuracy params.

    Both feature sets must already be normalized with the training-split
    stats (pass those stats as `norm` so they travel with the model).
    """
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("cannot train on an empty split")
    n = len(train_set)
    params = init_model(
        spec,
        freq_bins=train_set.freq.shape[-1],
        power_bins=train_set.power.shape[-1],
        seed=cfg.seed,
        norm=norm,
    )
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    adam = AdamState(params)
    train_labels0 = train_set.labels - 1

    history: list[EpochStats] = []
    best = params.copy()
    best_epoch = 0
    best_acc = -1.0
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            logits, _, cache = forward_batch(
                params, train_set.freq[batch], train_set.power[batch], want_cache=True
            )
            _, d_logits, _ = softmax_cross_entropy_batch(logits, train_labels0[batch])
            grads = backward_batch(params, cache, d_logits / len(batch))
            adam_step(params, grads, adam, cfg)

        train_loss, train_acc, *_ = split_metrics(params, train_set)
        _, test_acc, test_p, test_r, test_f1 = split_metrics(params, test_set)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                train_acc=train_acc,
                test_acc=test_acc,
                test_precision=test_p,
                test_recall=test_r,
                test_f1=test_f1,
            )
        )
        if test_acc > best_acc:
            best = params.copy()
            best_epoch = epoch
            best_acc = test_acc

    return best, TrainRun(epochs=history, best_epoch=best_epoch)
