import numpy as np
import pytest

from harcnn.dataset import Activity, EXPECTED_COUNTS
from harcnn.metrics import (
    accuracy_of,
    confusion,
    f1_macro_per_class,
    macro_prf,
    per_class_accuracy,
    report_from_predictions,
    roc_curve,
)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        truth = np.repeat(np.arange(1, 7), 3)
        cm = confusion(truth, truth)
        assert np.array_equal(np.diag(cm), np.full(6, 3))
        assert cm.sum() == np.trace(cm)

    def test_single_misrouted_sample(self):
        cm = confusion(preds=[Activity.STANDING.value], truth=[Activity.SITTING.value])
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[3, 4] = 1  # Sit row, Stn column
        assert np.array_equal(cm, expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion([1, 2], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero samples"):
            confusion([], [])

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="must be in 1..6"):
            confusion([7], [1])

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(1, 7, size=200)
        truth = rng.integers(1, 7, size=200)
        perm = rng.permutation(200)
        assert np.array_equal(confusion(preds, truth), confusion(preds[perm], truth[perm]))


class TestMacroMetrics:
    def test_perfect_matrix_scores_one(self):
        cm = np.diag([4, 5, 6, 7, 8, 9])
        assert macro_prf(cm) == (1.0, 1.0, 1.0)
        assert f1_macro_per_class(cm) == 1.0
        assert np.allclose(per_class_accuracy(cm), 1.0)

    def test_hand_computed_toy(self):
        # Class 1: one correct, one predicted as class 2. Class 2: one correct.
        # Classes 3..6: one correct each.
        cm = np.diag([1, 1, 1, 1, 1, 1])
        cm[0, 1] = 1
        precision = [1.0, 0.5, 1.0, 1.0, 1.0, 1.0]
        recall = [0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
        p, r, f1 = macro_prf(cm)
        assert p == pytest.approx(np.mean(precision))
        assert r == pytest.approx(np.mean(recall))
        assert f1 == pytest.approx(2 * p * r / (p + r))

    def test_per_class_accuracy_is_recall_as_row_share(self):
        rng = np.random.default_rng(4)
        cm = rng.integers(0, 50, size=(6, 6))
        cm[2] = 0  # a class without true instances scores 0
        rows = cm.sum(axis=1)
        expected = np.where(rows > 0, np.diag(cm) / np.maximum(rows, 1), 0.0)
        assert np.array_equal(per_class_accuracy(cm), expected)
        assert per_class_accuracy(cm)[2] == 0.0

    def test_two_present_classes_toy(self):
        # Only classes 1 and 2 occur: recall_1 = 0.5, precision_1 = 1.0,
        # recall_2 = 1.0, precision_2 = 0.5 -> both macros 0.75.
        cm = np.zeros((6, 6), dtype=np.int64)
        cm[0, 0] = 1
        cm[0, 1] = 1
        cm[1, 1] = 1
        p, r, f1 = macro_prf(cm)
        assert p == pytest.approx(0.75)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx(0.75)

    def test_empty_predicted_column_gives_zero_precision(self):
        cm = np.diag([2, 2, 2, 2, 2, 0])
        cm[5, 0] = 2  # class 6 exists but is never predicted
        p, r, f1 = macro_prf(cm)
        assert 0.0 < p < 1.0
        assert np.isfinite(f1)

    def test_missing_true_class_rejected_by_the_report(self):
        truth = np.array([1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="^classes without true instances: Lay$"):
            report_from_predictions(one_hot_scores(truth), truth)

    def test_class_imbalance_leaves_macros_unchanged(self):
        cm = np.array(
            [
                [8, 2, 0, 0, 0, 0],
                [1, 9, 0, 0, 0, 0],
                [0, 0, 10, 0, 0, 0],
                [0, 0, 0, 10, 0, 0],
                [0, 0, 0, 0, 10, 0],
                [0, 0, 0, 0, 0, 10],
            ]
        )
        scaled = cm.copy()
        scaled[2] *= 5  # duplicate samples of one class; per-class rates fixed
        base = macro_prf(cm)
        assert macro_prf(scaled)[1] == pytest.approx(base[1])


def one_hot_scores(truth, hot=0.9):
    probs = np.full((len(truth), 6), (1 - hot) / 5)
    probs[np.arange(len(truth)), np.asarray(truth) - 1] = hot
    return probs


class TestRocCurve:
    def test_perfect_separation(self):
        truth = np.array([1] * 5 + [2] * 5)
        probs = one_hot_scores(truth)
        points, auc = roc_curve(probs, truth, Activity.WALKING)
        assert auc == 1.0
        assert any(np.allclose(pt, [0.0, 1.0]) for pt in points)

    def test_inverted_scores(self):
        truth = np.array([1] * 5 + [2] * 5)
        probs = np.zeros((10, 6))
        probs[:5, 0] = 0.1
        probs[5:, 0] = 0.9
        _, auc = roc_curve(probs, truth, Activity.WALKING)
        assert auc == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(2024)
        truth = rng.integers(1, 7, size=2000)
        probs = rng.uniform(size=(2000, 6))
        _, auc = roc_curve(probs, truth, Activity.SITTING)
        assert abs(auc - 0.5) <= 0.03

    def test_curve_monotone_from_origin_to_corner(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(1, 7, size=300)
        probs = rng.uniform(size=(300, 6))
        points, auc = roc_curve(probs, truth, Activity.LAYING)
        assert np.allclose(points[0], [0.0, 0.0])
        assert np.allclose(points[-1], [1.0, 1.0])
        assert np.all(np.diff(points[:, 0]) >= 0)
        assert np.all(np.diff(points[:, 1]) >= 0)
        assert 0.0 <= auc <= 1.0

    def test_all_tied_scores_collapse_to_one_group(self):
        truth = np.array([1, 1, 2, 2])
        probs = np.full((4, 6), 1 / 6)
        points, auc = roc_curve(probs, truth, Activity.WALKING)
        assert np.array_equal(points, [[0.0, 0.0], [1.0, 1.0]])
        assert auc == pytest.approx(0.5)

    def test_degenerate_membership_rejected(self):
        truth = np.array([1, 1, 1])
        probs = np.full((3, 6), 1 / 6)
        with pytest.raises(ValueError, match="0 negatives"):
            roc_curve(probs, truth, Activity.WALKING)
        with pytest.raises(ValueError, match="0 positives"):
            roc_curve(probs, truth, Activity.LAYING)


class TestReport:
    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(5)
        truth = np.concatenate([np.full(20, a.value) for a in Activity])
        probs = rng.uniform(size=(len(truth), 6))
        probs /= probs.sum(axis=1, keepdims=True)
        report, _ = report_from_predictions(probs, truth)
        cm = np.array(report["confusion"])
        assert report["accuracy"] == accuracy_of(cm)
        assert cm.sum() == len(truth)

    def test_always_predicting_lay_on_published_test_ratios(self):
        truth = np.concatenate(
            [np.full(n, a.value) for a, n in EXPECTED_COUNTS["test"].items()]
        )
        probs = np.zeros((len(truth), 6))
        probs[:, Activity.LAYING.value - 1] = 1.0
        report, _ = report_from_predictions(probs, truth)
        assert report["accuracy"] == pytest.approx(537 / 2947)
        assert report["per_class_accuracy"][Activity.LAYING.short] == 1.0
        assert set(report["zero_precision_classes"]) == {"Wlk", "WUp", "WDn", "Sit", "Stn"}

    def test_json_dict_is_self_consistent(self):
        rng = np.random.default_rng(9)
        truth = np.concatenate([np.full(30, a.value) for a in Activity])
        probs = one_hot_scores(truth) + rng.uniform(0, 0.05, size=(len(truth), 6))
        d, _ = report_from_predictions(probs, truth)
        cm = np.array(d["confusion"])
        assert d["accuracy"] == np.trace(cm) / cm.sum()
        for a in Activity:
            row = cm[a.value - 1]
            assert d["per_class_accuracy"][a.short] == row[a.value - 1] / row.sum()
