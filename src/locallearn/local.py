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
depend on the batch it is searched in.

Queries that look alike choose overlapping sets, which share their Gram
products.  Walking the distinct sets in ``np.unique`` order, and skipping
those of one class (no solve) and those above ``svm._GRAM_LIMIT`` rows
(no Gram matrix), a set s joins the current group, of rows U, while the
union V of U and s has |V|^2 <= |U|^2 + |s|^2 (one product over V costs no
more than the two apart) and |V| <= 2|s|; otherwise s starts a new group.
Each group computes ``svm.gram`` of its rows once, and each of its sets
solves on its block of it.  A group of one set computes exactly the set's
own product, so k >= n_train still gives the global model bit for bit.  A
block of a wider product can differ from the set's own in the last bit,
so a set's model bits can depend on the other sets of its batch.  The
groups are formed before the workers start and each worker takes whole
groups, so results are the same at any worker count.

Classes absent from a neighborhood cannot be predicted (decision -inf);
a single-class neighborhood gets that class with zero weights, so it
predicts that class, and never invokes the solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import svm
from .core import FeatureMatrix, check_workers, fan_out
from .errors import MissingLabels, ValidationError
from .neighbors import CosineIndex, top_k_batch
from .svm import SvmConfig, gram, predict_ova_batch, train_ova_rows


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
    batch, the binary models fitted and those left unconverged at
    max_passes, and the entries of the batch's Gram products (the sum of
    |U|^2 over their row unions U)."""

    search_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    n_queries: int = 0
    solves: int = 0
    nonconverged: int = 0
    gram_entries: int = 0


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


def _gram_groups(sets: np.ndarray, labels: np.ndarray) -> list[list]:
    """The distinct neighbor sets (rows of ``sets``, each ascending) as solve
    tasks ``[union, set indices]``, by the rule of the module docstring.  A
    set that builds no Gram matrix is a task of its own with union None."""
    shared = (labels[sets] != labels[sets[:, :1]]).any(axis=1) & (sets.shape[1] <= svm._GRAM_LIMIT)
    tasks, group = [], None
    for s, hits in enumerate(sets):
        if not shared[s]:
            tasks.append([None, [s]])
            continue
        if group is not None:
            union = np.union1d(group[0], hits)
            if union.size ** 2 <= group[0].size ** 2 + hits.size ** 2 and union.size <= 2 * hits.size:
                group[0] = union
                group[1].append(s)
                continue
        group = [hits, [s]]
        tasks.append(group)
    return tasks


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
    The whole batch is searched in one call; ``workers`` fans the groups
    of sets that share a Gram product out over threads for the solver.
    Stage times are wall-clock; the vote is part of the search stage.
    """
    check_workers(workers)
    labels = _require_labels(train)
    timing = BatchTiming(n_queries=queries.n_samples)
    t_start = time.perf_counter()
    rows, knn = _search(CosineIndex(train), labels, queries.values, cfg.k)
    t_search = time.perf_counter()
    local = np.empty(queries.n_samples, dtype=np.int64)
    sets, which = np.unique(rows, axis=0, return_inverse=True)
    which = which.ravel()
    # each distinct set's queries, in input order
    members = np.split(np.argsort(which, kind="stable"), np.cumsum(np.bincount(which))[:-1])

    def solve(task):
        union, group = task
        G, infos = None if union is None else gram(train.values[union]), []
        for s in group:
            K = None
            if G is not None:  # the block in C order, as the set's own: K @ v rounds by layout
                at = np.searchsorted(union, sets[s])
                K = G[at].take(at, axis=1)
            model, part = train_ova_rows(train.values, labels, sets[s], cfg.svm, K)
            local[members[s]] = predict_ova_batch(model, queries.values[members[s]])
            infos += part
        return infos

    tasks = _gram_groups(sets, labels)
    with fan_out(workers) as fan:
        infos = [info for part in fan(solve, tasks) for info in part]
    timing.search_s = t_search - t_start
    timing.solve_s = time.perf_counter() - t_search
    timing.solves = len(infos)
    timing.nonconverged = sum(not info["converged"] for info in infos)
    timing.gram_entries = sum(union.size ** 2 for union, _ in tasks if union is not None)
    timing.total_s = time.perf_counter() - t_start
    return local, knn, timing


def knn_classify_batch(
    train: FeatureMatrix, queries: FeatureMatrix, k: int
) -> np.ndarray:
    """Majority vote over each query row's k cosine-nearest labels, with
    the tie rule of ``local_predict_batch``'s votes."""
    return _search(CosineIndex(train), _require_labels(train), queries.values, k)[1]
