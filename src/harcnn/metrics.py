"""Evaluation: confusion matrix, macro precision/recall/F1, per-class
accuracy, and one-vs-rest ROC curves with AUC."""

from __future__ import annotations

import numpy as np

from .dataset import N_CLASSES, Activity


def confusion(preds, truth) -> np.ndarray:
    """6x6 count matrix, rows = true class, columns = predicted class (ids 1..6)."""
    preds = np.asarray(preds, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if preds.shape != truth.shape or preds.ndim != 1:
        raise ValueError(f"prediction/truth length mismatch: {preds.shape} vs {truth.shape}")
    if preds.size == 0:
        raise ValueError("cannot build a confusion matrix from zero samples")
    for name, arr in (("prediction", preds), ("truth", truth)):
        if arr.min() < 1 or arr.max() > N_CLASSES:
            raise ValueError(f"{name} ids must be in 1..{N_CLASSES}")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (truth - 1, preds - 1), 1)
    return cm


def accuracy_of(cm: np.ndarray) -> float:
    return float(np.trace(cm) / cm.sum())


def per_class_accuracy(cm: np.ndarray) -> np.ndarray:
    """Each class's recall: the share of its true instances predicted as it."""
    return _per_class_precision_recall(cm)[1]


def _per_class_precision_recall(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diag = np.diag(cm).astype(np.float64)
    col_sums = cm.sum(axis=0)
    row_sums = cm.sum(axis=1)
    precision = np.where(col_sums > 0, diag / np.maximum(col_sums, 1), 0.0)
    recall = np.where(row_sums > 0, diag / np.maximum(row_sums, 1), 0.0)
    return precision, recall


def macro_prf(cm: np.ndarray) -> tuple[float, float, float]:
    """Unweighted macro precision/recall and their harmonic-mean F1.

    Both means run over the classes present in the truth, so a training
    subset that lacks a class still scores. Precision of a class with an
    empty predicted column counts as 0.
    """
    present = cm.sum(axis=1) > 0
    precision, recall = _per_class_precision_recall(cm)
    p = float(precision[present].mean())
    r = float(recall[present].mean())
    f1 = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def f1_macro_per_class(cm: np.ndarray) -> float:
    """Mean of the per-class F1 scores (secondary report field)."""
    precision, recall = _per_class_precision_recall(cm)
    denom = precision + recall
    per_class = np.where(denom > 0, 2.0 * precision * recall / np.maximum(denom, 1e-300), 0.0)
    return float(per_class.mean())


def roc_curve(probs: np.ndarray, truth, activity: Activity) -> tuple[np.ndarray, float]:
    """One-vs-rest ROC points and trapezoid AUC for one class.

    probs is (n, 6); ties in the class score enter the sweep as one
    threshold group, so the curve is deterministic.
    """
    probs = np.asarray(probs, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    scores = probs[:, activity.value - 1]
    positive = truth == activity.value
    n_pos = int(positive.sum())
    n_neg = int(positive.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"cannot compute ROC for {activity.short}: {n_pos} positives, {n_neg} negatives"
        )
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order]
    # Last index of each tie group in the descending sweep.
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0)
    group_ends = np.append(boundaries, scores.size - 1)
    tp = np.cumsum(sorted_pos)[group_ends]
    fp = (group_ends + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    points = np.column_stack([fpr, tpr])
    auc = float(np.trapezoid(tpr, fpr))
    return points, auc


def report_from_predictions(probs: np.ndarray, truth) -> tuple[dict, dict[str, np.ndarray]]:
    """report.json's object (before the caller adds the split) for class probabilities and
    true ids, and each class's ROC points, keyed by short name as the report's `auc` is."""
    preds = np.argmax(probs, axis=1) + 1
    cm = confusion(preds, truth)
    missing = [Activity(i + 1).short for i in np.flatnonzero(cm.sum(axis=1) == 0)]
    if missing:
        raise ValueError(f"classes without true instances: {', '.join(missing)}")
    p, r, f1 = macro_prf(cm)
    roc_points, auc = {}, {}
    for activity in Activity:
        roc_points[activity.short], auc[activity.short] = roc_curve(probs, truth, activity)
    per_class = per_class_accuracy(cm)
    zero_cols = np.flatnonzero(cm.sum(axis=0) == 0)
    report = {
        "accuracy": accuracy_of(cm),
        "confusion": cm.tolist(),
        "class_order": [a.short for a in Activity],
        "per_class_accuracy": {a.short: float(per_class[a.value - 1]) for a in Activity},
        "macro_precision": p,
        "macro_recall": r,
        "macro_f1": f1,
        "f1_macro_per_class": f1_macro_per_class(cm),
        "auc": auc,
        "zero_precision_classes": [Activity(i + 1).short for i in zero_cols],
    }
    return report, roc_points
