import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lupus.metrics import (
    ConfusionCounts,
    EvalReport,
    confusion,
    evaluate,
    roc_auc,
)

FIXTURE = ConfusionCounts(tp=3, tn=4, fp=1, fn=2)


def brute_force_auc(y_true, scores):
    """Oracle: mean over all positive-negative pairs, ties worth one half."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_all_positive(self):
        c = confusion([1, 1, 1, 1], [1, 1, 1, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (4, 0, 0, 0)

    def test_hand_count(self):
        y_true = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 0, 0, 0, 0, 0, 1]
        c = confusion(y_true, y_pred)
        assert (c.tp, c.tn, c.fp, c.fn) == (3, 4, 1, 2)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    def test_swap_exchanges_fp_fn(self, pairs):
        yt = [a for a, _ in pairs]
        yp = [b for _, b in pairs]
        c = confusion(yt, yp)
        swapped = confusion(yp, yt)
        assert (c.fp, c.fn) == (swapped.fn, swapped.fp)
        assert (c.tp, c.tn) == (swapped.tp, swapped.tn)

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])
        with pytest.raises(ValueError):
            confusion([], [])
        with pytest.raises(ValueError):
            confusion([2, 0], [1, 0])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    def test_counts_partition_samples(self, pairs):
        c = confusion([a for a, _ in pairs], [b for _, b in pairs])
        assert c.total == len(pairs)


def report_for(c):
    """evaluate() on labels and 0/1 scores whose confusion counts are ``c``."""
    y_true = [1] * c.tp + [0] * c.tn + [0] * c.fp + [1] * c.fn
    scores = [1.0] * c.tp + [0.0] * c.tn + [1.0] * c.fp + [0.0] * c.fn
    report = evaluate(y_true, scores)
    assert report.counts == c
    return report


class TestRatioMetrics:
    def test_fixture_values(self):
        report = report_for(FIXTURE)
        assert report.accuracy == pytest.approx(0.7, abs=1e-9)
        assert report.precision == pytest.approx(0.75, abs=1e-9)
        assert report.recall == pytest.approx(0.6, abs=1e-9)
        assert report.f1 == pytest.approx(0.666667, abs=1e-6)
        assert report.degenerate == ()

    def test_perfect_classifier(self):
        report = report_for(ConfusionCounts(tp=3, tn=2, fp=0, fn=0))
        assert report.accuracy == 1.0
        assert report.f1 == 1.0

    def test_degenerate_precision_flagged(self):
        # No positive predictions; evaluate needs both classes, hence fn=1.
        report = report_for(ConfusionCounts(tp=0, tn=5, fp=0, fn=1))
        assert report.precision == 0.0
        assert report.degenerate == ("precision", "f1")

    def test_degenerate_f1_flagged(self):
        report = report_for(ConfusionCounts(tp=0, tn=1, fp=1, fn=1))
        assert report.f1 == 0.0
        assert report.degenerate == ("f1",)

    @given(tp=st.integers(0, 500), fp=st.integers(0, 500), fn=st.integers(0, 500))
    def test_f1_equals_counts_form(self, tp, fp, fn):
        c = ConfusionCounts(tp=tp, tn=1, fp=fp, fn=fn)
        if tp == 0:
            return
        assert abs(report_for(c).f1 - 2.0 * tp / (2.0 * tp + fp + fn)) < 1e-12

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    def test_accuracy_invariant_under_relabeling(self, pairs):
        # One correct prediction per class keeps both classes present for
        # evaluate; flipping maps those two pairs onto each other.
        pairs = pairs + [(0, 0), (1, 1)]
        yt = [a for a, _ in pairs]
        yp = [float(b) for _, b in pairs]
        flipped = evaluate([1 - a for a in yt], [1.0 - b for b in yp]).accuracy
        assert evaluate(yt, yp).accuracy == pytest.approx(flipped, abs=1e-12)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.2]) == 1.0

    def test_three_of_four_pairs(self):
        assert roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.3, 0.2]) == pytest.approx(0.75, abs=1e-12)

    def test_all_ties_is_half(self):
        assert roc_auc([1, 0, 1, 0], [0.4, 0.4, 0.4, 0.4]) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            roc_auc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 201))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # quantized scores produce plenty of ties
            s = np.round(rng.random(n), 2)
            assert abs(roc_auc(y, s) - brute_force_auc(y, s)) < 1e-12

    def test_complement_under_score_negation(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, size=50)
        y[0], y[1] = 0, 1
        s = rng.permutation(np.linspace(0.01, 0.99, 50))  # tie-free
        assert roc_auc(y, s) + roc_auc(y, -s) == pytest.approx(1.0, abs=1e-12)

    @given(st.data())
    def test_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(4, 40))
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if sum(y) in (0, n):
            y[0] = 1 - y[0]
        s = data.draw(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                               min_size=n, max_size=n))
        # quantize so the float transform cannot merge distinct scores
        s = np.round(np.asarray(s), 3)
        transformed = np.exp(0.5 * s) + np.arctan(s)  # strictly increasing
        assert roc_auc(y, s) == pytest.approx(roc_auc(y, transformed), abs=1e-12)


class TestEvaluate:
    def test_threshold_tie_predicts_positive(self):
        report = evaluate([1, 0], [0.5, 0.1], threshold=0.5)
        assert report.counts.tp == 1 and report.counts.tn == 1

    def test_report_consistency(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=80)
        y[0], y[1] = 0, 1
        s = rng.random(80)
        report = evaluate(y, s)
        c = report.counts
        assert report.accuracy == pytest.approx((c.tp + c.tn) / c.total)
        if report.precision + report.recall > 0:
            expected = (2 * report.precision * report.recall
                        / (report.precision + report.recall))
            assert abs(report.f1 - expected) < 1e-12
        for value in (report.accuracy, report.auc, report.precision,
                      report.recall, report.f1):
            assert 0.0 <= value <= 1.0

    def test_degenerate_flagged_not_raised(self):
        report = evaluate([1, 0], [0.1, 0.2], threshold=0.5)  # no positive predictions
        assert report.precision == 0.0
        assert "precision" in report.degenerate

    def test_csv_row_matches_table_order(self):
        report = evaluate([1, 0], [0.9, 0.1])
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "ACC,AUC,PRE,Recall,F1"
        assert [float(v) for v in lines[1].split(",")] == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_json_round_trip(self):
        report = evaluate([1, 0, 1], [0.9, 0.2, 0.6])
        payload = json.loads(report.to_json())
        assert payload["accuracy"] == report.accuracy
        assert payload["counts"]["tp"] == report.counts.tp

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            evaluate([1, 0], [0.5, 0.5], threshold=1.0)
