"""Tests for the metrics module against hand counts and brute-force oracles."""

import numpy as np
import pytest

import scalar_reference as ref
from antdistill import metrics
from antdistill.errors import (
    EmptyMatrix,
    IndexOutOfRange,
    InvalidDistribution,
    InvalidShape,
    LengthMismatch,
)
from antdistill.metrics import (
    class_report,
    confusion,
    micro_auc_ap,
    report_csv,
    summary_csv,
)


def brute_force_auc(scores, hits):
    """P(score+ > score-) + 0.5 P(tie), over every positive-negative pair."""
    pos = [s for s, h in zip(scores, hits) if h]
    neg = [s for s, h in zip(scores, hits) if not h]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_ap(scores, hits):
    """Recompute precision/recall from scratch at every distinct threshold."""
    n_pos = sum(hits)
    prev_recall = 0.0
    ap = 0.0
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, h in zip(scores, hits) if s >= t and h)
        fp = sum(1 for s, h in zip(scores, hits) if s >= t and not h)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def flatten(probs, labels):
    probs = np.asarray(probs)
    scores = probs.ravel().tolist()
    hits = []
    for i, y in enumerate(labels):
        hits.extend(j == y for j in range(probs.shape[1]))
    return scores, hits


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        counts = confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(counts, np.diag([1, 2, 1]))

    def test_hand_count(self):
        counts = confusion([0, 1, 1, 1], [0, 0, 1, 1], 2)
        np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])
        assert counts.dtype == np.int64

    def test_empty_input(self):
        counts = confusion([], [], 2)
        assert counts.shape == (2, 2) and counts.dtype == np.int64
        assert counts.sum() == 0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0], 2)
        with pytest.raises(IndexOutOfRange):
            confusion([0, 2], [0, 1], 2)


class TestClassReport:
    def test_hand_case(self):
        rep = class_report(np.array([[1, 1], [0, 2]]))
        assert rep.precision[0] == 1.0
        assert rep.recall[0] == 0.5
        assert abs(rep.f1[0] - 2 / 3) < 1e-12
        assert abs(rep.precision[1] - 2 / 3) < 1e-12
        assert rep.recall[1] == 1.0
        assert rep.accuracy == 0.75

    def test_diagonal_is_all_ones(self):
        rep = class_report(np.diag([3, 4, 5]))
        assert np.all(rep.precision == 1.0)
        assert np.all(rep.recall == 1.0)
        assert np.all(rep.f1 == 1.0)
        assert rep.accuracy == 1.0

    def test_absent_class_flagged_undefined(self):
        # class 2 never appears as truth or prediction
        rep = class_report(confusion([0, 1], [0, 1], 3))
        assert rep.precision[2] == 0.0 and rep.recall[2] == 0.0
        assert rep.undefined[2]
        assert not rep.undefined[0]

    def test_micro_identity_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            counts = rng.integers(0, 20, size=(c, c))
            if counts.sum() == 0:
                counts[0, 0] = 1
            rep = class_report(counts)
            assert abs(rep.micro_precision - rep.accuracy) < 1e-12
            assert abs(rep.micro_recall - rep.accuracy) < 1e-12

    def test_f1_harmonic_mean_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            counts = rng.integers(0, 15, size=(3, 3))
            if counts.sum() == 0:
                continue
            rep = class_report(counts)
            for k in range(3):
                p, r, f = rep.precision[k], rep.recall[k], rep.f1[k]
                assert f <= min(2 * p, 2 * r) + 1e-12
                assert (f == 0.0) == (p * r == 0.0)

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            class_report(np.zeros((2, 2), dtype=np.int64))


class TestRocAuc:
    def test_perfect_ranking(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        labels = [0, 0, 1, 1]
        assert abs(micro_auc_ap(probs, labels)[0] - 1.0) < 1e-12

    def test_constant_scores_give_half(self):
        probs = np.full((4, 2), 0.5)
        assert abs(micro_auc_ap(probs, [0, 1, 0, 1])[0] - 0.5) < 1e-12

    def test_four_sample_hand_case_vs_pairwise_oracle(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5], [0.3, 0.7]])
        labels = [0, 0, 1, 1]
        got = micro_auc_ap(probs, labels)[0]
        scores, hits = flatten(probs, labels)
        assert abs(got - brute_force_auc(scores, hits)) < 1e-9

    def test_random_sets_vs_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            c = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(c), size=n)
            if rng.random() < 0.3:  # force ties sometimes
                probs = np.round(probs, 1)
                probs = probs / probs.sum(axis=1, keepdims=True)
            labels = rng.integers(0, c, size=n)
            got = micro_auc_ap(probs, labels)[0]
            scores, hits = flatten(probs, labels)
            assert abs(got - brute_force_auc(scores, hits)) < 1e-9

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=20)
        labels = rng.integers(0, 3, size=20)
        scores, hits = flatten(probs, labels)
        hits = np.asarray(hits)
        n_pos = int(hits.sum())

        def auc_ap(s):
            groups = metrics._threshold_groups(s, hits)
            return ref.auc_ap(*groups, n_pos, hits.size - n_pos)

        base = auc_ap(np.asarray(scores))
        assert [v.hex() for v in micro_auc_ap(probs, labels)] == [v.hex() for v in base]
        for transform in (lambda s: s * 10.0, np.exp):
            assert np.allclose(auc_ap(transform(np.asarray(scores))), base, rtol=0, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=15)
        labels = rng.integers(0, 3, size=15)
        perm = rng.permutation(15)
        assert abs(
            micro_auc_ap(probs, labels)[0] - micro_auc_ap(probs[perm], labels[perm])[0]
        ) < 1e-12


class TestAveragePrecision:
    def test_perfect_ranking(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert abs(micro_auc_ap(probs, [0, 1])[1] - 1.0) < 1e-12

    def test_four_sample_hand_case_vs_sweep_oracle(self):
        probs = np.array([[0.7, 0.3], [0.4, 0.6], [0.5, 0.5], [0.3, 0.7]])
        labels = [0, 0, 1, 1]
        got = micro_auc_ap(probs, labels)[1]
        scores, hits = flatten(probs, labels)
        assert abs(got - brute_force_ap(scores, hits)) < 1e-9

    def test_random_sets_vs_sweep_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            c = int(rng.integers(2, 4))
            probs = rng.dirichlet(np.ones(c), size=n)
            labels = rng.integers(0, c, size=n)
            got = micro_auc_ap(probs, labels)[1]
            scores, hits = flatten(probs, labels)
            assert abs(got - brute_force_ap(scores, hits)) < 1e-9

    @pytest.mark.parametrize("probs, labels, error, message", [
        ([0.4, 0.6], [0, 1], LengthMismatch, r"^\(2,\) probabilities vs \(2,\) labels$"),
        ([[0.4, 0.6], [0.5, 0.5]], [0], LengthMismatch,
         r"^\(2, 2\) probabilities vs \(1,\) labels$"),
        ([[[0.4, 0.6]], [[0.5, 0.5]]], [0, 1], LengthMismatch,
         r"^\(2, 1, 2\) probabilities vs \(2,\) labels$"),
        ([[0.4, 0.6]], [1], InvalidShape, "^need at least 2 samples$"),
        ([[0.4, 0.6], [0.5, 0.5]], [0, 2], IndexOutOfRange, r"^label outside \[0, 2\)$"),
        ([[0.4, 0.6], [0.5, 0.5]], [-1, 0], IndexOutOfRange, r"^label outside \[0, 2\)$"),
        ([[0.4, 0.6], [np.nan, 0.5]], [0, 1], InvalidDistribution,
         "^distribution contains NaN or Inf$"),
        ([[np.inf, 0.0], [0.5, 0.5]], [0, 1], InvalidDistribution,
         "^distribution contains NaN or Inf$"),
    ])
    def test_micro_curves_reject_bad_input(self, probs, labels, error, message):
        with pytest.raises(error, match=message):
            micro_auc_ap(probs, labels)


class TestCsvExport:
    def test_report_csv_shape(self):
        rep = class_report(np.array([[1, 1], [0, 2]]))
        text = report_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "name,precision,recall,f1,undefined"
        assert len(lines) == 1 + 2 + 2  # header + classes + macro/micro
        assert lines[-1].startswith("micro,")

    def test_summary_csv(self):
        rep = class_report(np.array([[1, 1], [0, 2]]))
        text = summary_csv(rep)
        assert "accuracy,0.75" in text
