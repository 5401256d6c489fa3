"""Local learning: per test sample, train a one-versus-all SVM on its k
cosine-nearest training samples and predict that single sample.

A linear base learner wrapped this way yields a globally non-linear
decision function, because every query gets its own hyperplanes fitted to
its neighborhood.  Each distinct set of neighbor rows goes to the solver
in one call of ``svm.train_ova_rows``, in ascending original row order,
and that model scores every query that chose the set.  So with
k >= n_train all queries share one model, the global one bit for bit, and
``svm.decisions`` scores it as the global model.

Each query is searched once: one ``top_k_batch`` call per batch gives
every query its k nearest rows, the local SVM's training set and the
cosine k-NN baseline's vote alike.  A query's neighbors and vote do not
depend on the batch it is searched in.  Workers spread only the solves
of the distinct neighbor sets.

Classes absent from a neighborhood cannot be predicted (decision -inf);
a single-class neighborhood gets that class with zero weights, so it
predicts that class, and never invokes the solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, check_workers, fan_out
from .errors import MissingLabels, ValidationError
from .neighbors import CosineIndex, top_k_batch
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
    """Wall-clock seconds of the search and solve stages and of the whole
    batch, and the binary models fitted and those left unconverged at
    max_passes."""

    search_s: float = 0.0
    solve_s: float = 0.0
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

    Queries whose neighbor rows are the same set share one model: each
    distinct set is solved once and its model scores all of its queries.
    The whole batch is searched in one call; ``workers`` fans the distinct
    sets out over threads for the solver.  The training matrix and index
    are shared read-only, so results are identical for any worker count.
    Stage times are wall-clock; the vote is part of the search stage.
    """
    check_workers(workers)
    labels = _require_labels(train)
    timing = BatchTiming(n_queries=queries.n_samples)
    t_start = time.perf_counter()
    rows, knn = _search(CosineIndex(train), labels, queries.values, cfg.k)
    t_search = time.perf_counter()
    local = np.empty(queries.n_samples, dtype=np.int64)

    def solve(hits, members):
        model, infos = train_ova_rows(train.values, labels, hits, cfg.svm)
        local[members] = predict_ova_batch(model, queries.values[members])
        return infos

    sets, which = np.unique(rows, axis=0, return_inverse=True)
    which = which.ravel()
    # each distinct set's queries, in input order
    members = np.split(np.argsort(which, kind="stable"), np.cumsum(np.bincount(which))[:-1])
    with fan_out(workers) as fan:
        infos = [info for part in fan(solve, sets, members) for info in part]
    timing.search_s = t_search - t_start
    timing.solve_s = time.perf_counter() - t_search
    timing.solves = len(infos)
    timing.nonconverged = sum(not info["converged"] for info in infos)
    timing.total_s = time.perf_counter() - t_start
    return local, knn, timing


def knn_classify_batch(
    train: FeatureMatrix, queries: FeatureMatrix, k: int
) -> np.ndarray:
    """Majority vote over each query row's k cosine-nearest labels, with
    the tie rule of ``local_predict_batch``'s votes."""
    return _search(CosineIndex(train), _require_labels(train), queries.values, k)[1]
