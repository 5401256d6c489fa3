"""Exact cosine top-k search.

The cosine index is exact: the local learner needs a deterministic
neighbor set, and desk-scale training sets do not warrant approximation.
Ties break by ascending row id.  (Visual-word assignment, a Euclidean
nearest-centroid search, lives in ``bovw``.)

Queries are searched in tiles of ``_TILE`` rows, the last one zero-padded:
each tile is one matrix-matrix product against the index.  BLAS gives a
column of a product of fixed width the same bits at any position, so a
query's similarities never depend on how many queries it was searched
with, on its neighbors in the batch, or on the worker that searched it.
Each query's row is ranked by a partial sort, and only the rows at or
above its k-th similarity, every row tied there included, are sorted.
"""

from __future__ import annotations

import numpy as np

from .core import FeatureMatrix
from .errors import DimMismatch, ValidationError
from .features import l2_normalize_rows, max_abs_scaled

_TILE = 32  # query rows per matrix-matrix product


class CosineIndex:
    """Read-only cosine-similarity index over a feature matrix."""

    def __init__(self, matrix):
        if isinstance(matrix, FeatureMatrix):
            self.values = matrix.values
        else:
            self.values = np.ascontiguousarray(matrix, dtype=np.float64)
            if self.values.ndim != 2:
                raise ValidationError("index matrix must be 2-D")
        self.norms = np.empty(self.n)
        for start in range(0, self.n, _TILE):  # never a scaled copy of every row
            _, norms, scale = max_abs_scaled(self.values[start:start + _TILE])
            self.norms[start:start + _TILE] = (scale * norms)[:, 0]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def similarities(self, tile: np.ndarray) -> np.ndarray:
        """Cosine similarities (_TILE, n) of a (_TILE, dim) tile of query
        rows against every indexed row; rows or queries with zero norm
        score 0."""
        sims = (self.values @ l2_normalize_rows(tile).T).T
        sims /= np.where(self.norms == 0.0, 1.0, self.norms)
        return sims


def top_k_batch(index: CosineIndex, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, similarities), each (m, min(k, n)): for each of the m query
    rows, its nearest indexed rows by descending similarity, ties broken
    by ascending row id."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise DimMismatch(f"query shape {queries.shape} vs index dim {index.dim}")
    k = min(k, index.n)
    rows = np.empty((len(queries), k), dtype=np.int64)
    sims = np.empty((len(queries), k))
    tile = np.empty((_TILE, index.dim))
    for start in range(0, len(queries), _TILE):
        part = queries[start:start + _TILE]
        tile[:len(part)] = part
        tile[len(part):] = 0.0
        scores = index.similarities(tile)[:len(part)]
        kth = np.partition(scores, index.n - k, axis=1)[:, index.n - k]
        for j, (row, cut) in enumerate(zip(scores, kth), start):
            candidates = np.flatnonzero(row >= cut)
            rows[j] = candidates[np.argsort(-row[candidates], kind="stable")[:k]]
            sims[j] = row[rows[j]]
    return rows, sims


def top_k(index: CosineIndex, q: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exactly min(k, n) (row id, similarity) pairs of one query, sorted by
    descending similarity with ties broken by ascending row id."""
    rows, sims = top_k_batch(index, np.asarray(q, dtype=np.float64)[None], k)
    return list(zip(rows[0].tolist(), sims[0].tolist()))
