"""Manifest-driven end-to-end runs: ingest, fuse, train and compare the
global SVM, the local SVM, and the k-NN baseline on the declared splits.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .core import (
    DatasetManifest,
    FeatureMatrix,
    FeatureRows,
    LabelMap,
    attach_labels,
    balanced_downsample,
    check_workers,
    read_labels,
    read_splits,
    split_ranges,
)
from .errors import ValidationError
from .features import fuse
from .local import BatchTiming, LocalLearnerConfig, local_predict_batch
from .report import EvalReport, evaluate
from .svm import SvmConfig, predict_ova_batch, train_ova


@dataclass
class IngestResult:
    """Everything the learning stages need, keyed by split."""

    label_map: LabelMap
    fused: dict[str, FeatureMatrix]  # split -> labeled fused matrix


def _seed(manifest: DatasetManifest, seed: int | None) -> int:
    """``seed``, else the manifest's; a negative seed is a ValidationError."""
    seed = manifest.seed if seed is None else seed
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return seed


def ingest_and_fuse(manifest: DatasetManifest, seed: int | None = None) -> IngestResult:
    """Read the manifest's labels and splits, fuse its sources into one
    labeled matrix with rows grouped by split, and split it.

    Each source is streamed from its file into its column block of the
    fused matrix (``fuse``), and each split is a row-slice view of it, so
    ingest needs memory for about one fused matrix.  The train split is
    capped per class if the manifest says so, which copies it.
    """
    seed = _seed(manifest, seed)
    label_map = LabelMap.from_file(manifest.labelmap_path)
    labels = read_labels(manifest.labels_path)
    splits = read_splits(manifest.splits_path)
    with ExitStack() as files:
        fused = fuse(
            [(s.name, files.enter_context(FeatureRows(s.path, s.expected_dim)), s.normalize)
             for s in manifest.sources],
            renormalize=manifest.renormalize, splits=splits,
        )
    fused = attach_labels(fused, labels, label_map)
    by_split = {split: fused.view(*rows) for split, rows in split_ranges(splits).items()}
    if "train" in by_split and manifest.cap is not None:
        by_split["train"] = balanced_downsample(by_split["train"], manifest.cap, seed)
    return IngestResult(label_map=label_map, fused=by_split)


@dataclass
class PipelineResult:
    reports: dict[str, EvalReport]  # method -> report
    predictions: dict[str, dict[str, str]]  # method -> sample id -> class name
    local_timing: BatchTiming
    global_train_s: float  # wall time of the global OvA training
    global_nonconverged: int  # global binary models stopped at max_passes


def run_pipeline(
    manifest: DatasetManifest,
    k: int = 200,
    C: float = 100.0,
    workers: int = 1,
    seed: int | None = None,
) -> PipelineResult:
    """Train and evaluate {global SVM, local SVM, k-NN} on the manifest's
    train/test splits, returning one report per method.  The k-NN baseline
    is the majority vote over the local SVM's own neighborhoods."""
    check_workers(workers)
    seed = _seed(manifest, seed)
    svm_cfg = SvmConfig(C=C, seed=seed)
    local_cfg = LocalLearnerConfig(k=k, svm=svm_cfg)
    data = ingest_and_fuse(manifest, seed=seed)
    if "train" not in data.fused or "test" not in data.fused:
        raise ValidationError("pipeline needs non-empty train and test splits")
    train, test = data.fused["train"], data.fused["test"]
    label_map = data.label_map
    truth = label_map.named(test.sample_ids, test.labels)

    t_global = time.perf_counter()
    ova, infos = train_ova(train, train.labels, svm_cfg, return_infos=True)
    global_train_s = time.perf_counter() - t_global
    global_pred = predict_ova_batch(ova, test)

    local_pred, knn_pred, timing = local_predict_batch(train, test, local_cfg, workers=workers)

    predictions, reports = {}, {}
    for method, pred in (("global-svm", global_pred), ("local-svm", local_pred), ("knn", knn_pred)):
        predictions[method] = label_map.named(test.sample_ids, pred)
        reports[method] = evaluate(predictions[method], truth, label_map)
    return PipelineResult(reports, predictions, timing, global_train_s,
                          sum(not info["converged"] for info in infos))
