"""Local learning: per test sample, train a one-versus-all SVM on its k
cosine-nearest training samples and predict that single sample.

A linear base learner wrapped this way yields a globally non-linear
decision function, because every query gets its own hyperplanes fitted to
its neighborhood.  Each query's neighbor rows go to the solver in one
call of ``svm.train_ova_rows``, in ascending original row order, so with
k >= n_train the local model is the global one bit for bit, and
``svm.decisions`` scores it as the global model.

Each query is searched once: the same k nearest rows give the local SVM
its training set and the cosine k-NN baseline its vote.  The search runs
over tiles of ``neighbors._TILE`` queries and keeps only each query's k
rows and its vote; a query's neighbors and vote are the same whatever
tile or worker it lands in.

Classes absent from a neighborhood cannot be predicted (decision -inf);
a single-class neighborhood returns that class with a +inf sentinel and
never invokes the solver.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix
from .errors import MissingLabels, ValidationError
from .neighbors import _TILE, CosineIndex, top_k_batch
from .svm import SvmConfig, predict_ova_batch, train_ova_rows


@dataclass(frozen=True)
class LocalLearnerConfig:
    """Neighborhood size and the solver settings for the per-query SVM."""

    k: int = 200
    svm: SvmConfig = field(default_factory=lambda: SvmConfig(C=100.0))

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")


@dataclass
class BatchTiming:
    """Per-stage wall-clock seconds for a batch of local predictions, and
    the binary models fitted and those left unconverged at max_passes."""

    search_s: float = 0.0
    train_s: float = 0.0
    predict_s: float = 0.0
    total_s: float = 0.0
    n_queries: int = 0
    solves: int = 0
    nonconverged: int = 0


def _require_labels(train: FeatureMatrix) -> np.ndarray:
    if train.labels is None:
        raise MissingLabels("local learning requires a labeled training matrix")
    if train.n_samples == 0:
        raise ValidationError("cannot train on an empty dataset")
    return train.labels


def _search(index: CosineIndex, labels: np.ndarray, queries: np.ndarray, k: int):
    """One top-k search of the query rows: each query's neighbor rows in
    ascending order, and their majority vote.  Vote ties break by the class
    with the highest summed similarity, then by the lowest class id."""
    rows, sims = top_k_batch(index, queries, k)
    votes = np.empty(len(rows), dtype=np.int64)
    for j, (hits, weights) in enumerate(zip(rows, sims)):
        classes = labels[hits]
        counts = np.bincount(classes)
        sim_sums = np.bincount(classes, weights=weights)
        best = np.flatnonzero(counts == counts.max())
        votes[j] = best[np.argmax(sim_sums[best])]
    rows.sort(axis=1)
    return rows, votes


def local_predict_batch(
    train: FeatureMatrix,
    queries: FeatureMatrix,
    cfg: LocalLearnerConfig,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, BatchTiming]:
    """Local predictions and k-NN votes (k = ``cfg.k``) for the query rows,
    in input order.

    ``workers`` fans tiles of queries out over a thread pool for the
    search, then single queries for the solver; the training matrix and
    index are shared read-only, so results are identical for any worker
    count.  Stage timings are summed across workers; the vote is part of
    the search stage.
    """
    labels = _require_labels(train)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    timing = BatchTiming(n_queries=queries.n_samples)
    t_start = time.perf_counter()
    index = CosineIndex(train)
    rows = np.empty((queries.n_samples, min(cfg.k, train.n_samples)), dtype=np.int64)
    knn = np.empty(queries.n_samples, dtype=np.int64)

    def search(s):
        t0 = time.perf_counter()
        rows[s:s + _TILE], knn[s:s + _TILE] = _search(index, labels, queries.values[s:s + _TILE], cfg.k)
        return time.perf_counter() - t0

    def predict(j):
        t0 = time.perf_counter()
        model, infos = train_ova_rows(train.values, labels, rows[j], cfg.svm)
        t1 = time.perf_counter()
        pred = predict_ova_batch(model, queries.values[j:j + 1])[0]
        return pred, BatchTiming(
            train_s=t1 - t0, predict_s=time.perf_counter() - t1,
            solves=len(infos), nonconverged=sum(not info["converged"] for info in infos),
        )

    # One worker runs in the calling thread: memory freed in a pool thread's
    # own malloc arena stayed resident and raised the bench's peak RSS.
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        fan_out = pool.map if pool else map
        timing.search_s = sum(fan_out(search, range(0, queries.n_samples, _TILE)))
        parts = list(fan_out(predict, range(queries.n_samples)))
    local = np.array([pred for pred, _ in parts], dtype=np.int64)
    for name in ("train_s", "predict_s", "solves", "nonconverged"):
        setattr(timing, name, sum(getattr(part, name) for _, part in parts))
    timing.total_s = time.perf_counter() - t_start
    return local, knn, timing


def knn_classify_batch(
    train: FeatureMatrix, queries: FeatureMatrix, k: int
) -> np.ndarray:
    """Majority vote over each query row's k cosine-nearest labels, with
    the tie rule of ``local_predict_batch``'s votes."""
    return _search(CosineIndex(train), _require_labels(train), queries.values, k)[1]
