"""Accuracy, per-class precision/recall, and confusion-matrix reporting.

Rendered reports (text and CSV) are deterministic byte-for-byte for
identical inputs: they hold no timings (those go to ``timing.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import LabelMap
from .errors import IdMismatch, UnknownClassName


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (n_classes, n_classes), rows = true class
    label_names: tuple[str, ...]
    n_samples: int

    @property
    def precision(self) -> np.ndarray:
        col = self.confusion.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            p = np.diag(self.confusion) / col
        return np.where(col == 0, 0.0, p)

    @property
    def recall(self) -> np.ndarray:
        row = self.confusion.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.diag(self.confusion) / row
        return np.where(row == 0, 0.0, r)

    @property
    def support(self) -> np.ndarray:
        return self.confusion.sum(axis=1)


def evaluate(
    predicted: Mapping[str, str], truth: Mapping[str, str], label_map: LabelMap
) -> EvalReport:
    """Confusion matrix and accuracy of predictions against ground truth.

    Both mappings go from sample id to class name and must cover the same
    id set.
    """
    pred_ids, true_ids = set(predicted), set(truth)
    if pred_ids != true_ids:
        diff = pred_ids ^ true_ids
        raise IdMismatch(
            f"prediction and truth id sets differ on {len(diff)} id(s)", missing=diff
        )
    n = label_map.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    for sid in truth:
        t = label_map.id_of(truth[sid])
        p = label_map.id_of(predicted[sid])
        confusion[t, p] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    return EvalReport(
        accuracy=accuracy,
        confusion=confusion,
        label_names=label_map.names,
        n_samples=total,
    )


def render_text(report: EvalReport) -> str:
    """Human-readable report; it holds no timings, so output is reproducible."""
    lines = [
        f"samples  {report.n_samples}",
        f"accuracy {report.accuracy:.6f}",
        "",
        f"{'class':<16} {'precision':>9} {'recall':>9} {'support':>8}",
    ]
    for i, name in enumerate(report.label_names):
        lines.append(
            f"{name:<16} {report.precision[i]:>9.6f} {report.recall[i]:>9.6f}"
            f" {int(report.support[i]):>8}"
        )
    lines.append("")
    lines.append("confusion (rows = true, cols = predicted)")
    header = f"{'':<16}" + "".join(f"{n:>12}" for n in report.label_names)
    lines.append(header)
    for i, name in enumerate(report.label_names):
        row = "".join(f"{int(v):>12}" for v in report.confusion[i])
        lines.append(f"{name:<16}{row}")
    return "\n".join(lines) + "\n"


def render_csv(report: EvalReport) -> str:
    lines = ["metric,value", f"samples,{report.n_samples}", f"accuracy,{report.accuracy:.6f}"]
    lines.append("class,precision,recall,support")
    for i, name in enumerate(report.label_names):
        lines.append(
            f"{name},{report.precision[i]:.6f},{report.recall[i]:.6f},{int(report.support[i])}"
        )
    lines.append("confusion," + ",".join(report.label_names))
    for i, name in enumerate(report.label_names):
        lines.append(name + "," + ",".join(str(int(v)) for v in report.confusion[i]))
    return "\n".join(lines) + "\n"


def render_comparison_text(reports: Mapping[str, EvalReport]) -> str:
    lines = [f"{'method':<16} {'accuracy':>9} {'samples':>8}"]
    for method in reports:
        r = reports[method]
        lines.append(f"{method:<16} {r.accuracy:>9.6f} {r.n_samples:>8}")
    return "\n".join(lines) + "\n"


def render_comparison_csv(reports: Mapping[str, EvalReport]) -> str:
    lines = ["method,accuracy,samples"]
    for method in reports:
        r = reports[method]
        lines.append(f"{method},{r.accuracy:.6f},{r.n_samples}")
    return "\n".join(lines) + "\n"
