import numpy as np
import pytest

from locallearn.core import LabelMap
from locallearn.errors import IdMismatch, UnknownClassName
from locallearn.report import (
    evaluate,
    render_comparison_csv,
    render_comparison_text,
    render_csv,
    render_text,
)

LM = LabelMap(("a", "b", "c"))


class TestEvaluate:
    def test_all_correct(self):
        truth = {"s0": "a", "s1": "b", "s2": "c"}
        rep = evaluate(truth, truth, LM)
        assert rep.accuracy == 1.0
        assert np.array_equal(rep.confusion, np.eye(3, dtype=np.int64))

    def test_half_right(self):
        truth = {"s0": "a", "s1": "a"}
        pred = {"s0": "a", "s1": "b"}
        rep = evaluate(pred, truth, LM)
        assert rep.accuracy == 0.5
        assert rep.confusion[0, 1] == 1

    def test_disjoint_ids(self):
        with pytest.raises(IdMismatch):
            evaluate({"x": "a"}, {"y": "a"}, LM)

    def test_unknown_class_name(self):
        with pytest.raises(UnknownClassName):
            evaluate({"s0": "zzz"}, {"s0": "a"}, LM)

    def test_confusion_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        names = LM.names
        truth = {f"s{i}": names[rng.integers(0, 3)] for i in range(50)}
        pred = {k: names[rng.integers(0, 3)] for k in truth}
        rep = evaluate(pred, truth, LM)
        for i, name in enumerate(names):
            assert rep.confusion[i].sum() == sum(1 for v in truth.values() if v == name)
        assert rep.accuracy == np.trace(rep.confusion) / 50

    def test_precision_recall_zero_guard(self):
        truth = {"s0": "a"}
        pred = {"s0": "a"}
        rep = evaluate(pred, truth, LM)
        assert rep.precision[1] == 0.0 and rep.recall[2] == 0.0


class TestRendering:
    def _report(self):
        truth = {"s0": "a", "s1": "b", "s2": "b"}
        pred = {"s0": "a", "s1": "b", "s2": "a"}
        return evaluate(pred, truth, LM)

    def test_text_deterministic_and_timing_free(self):
        text = render_text(self._report())
        assert text == render_text(self._report())
        assert "tim" not in text and "_s" not in text
        assert "accuracy 0.666667" in text

    def test_csv_shape(self):
        csv = render_csv(self._report())
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("confusion,") for line in lines)

    def test_comparison(self):
        reports = {"global-svm": self._report(), "knn": self._report()}
        text = render_comparison_text(reports)
        assert "global-svm" in text and "knn" in text
        csv = render_comparison_csv(reports)
        assert csv.splitlines()[0] == "method,accuracy,samples"
