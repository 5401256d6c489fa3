"""Exact cosine top-k search.

The cosine index is exact: the local learner needs a deterministic
neighbor set, and desk-scale training sets do not warrant approximation.
Ties break by ascending row id.  (Visual-word assignment, a Euclidean
nearest-centroid search, lives in ``bovw``.)

Queries are searched in tiles of ``_TILE`` rows, the last one zero-padded:
each tile is one matrix-matrix product against the index, ``values @ q'``,
with the queries as its columns.  BLAS gives a column of a product of
fixed width the same bits at any position, so a query's similarities
never depend on how many queries it was searched with or on its neighbors
in the batch.  (The row-major form ``q @ values'`` is faster, but does not
hold this: at one BLAS thread and n = 1,500, rows 24-31 of a 32-row tile
get other bits than at the head of the tile.)
Each query's similarities are copied out of the tile's block and ranked by
a partial sort; only the rows at or above its k-th similarity, every row
tied there included, are sorted.  The previous tile's block is dropped
before the next product, so the search holds one (n, ``_TILE``) block of
similarities at a time, besides its (m, k) results.
"""

from __future__ import annotations

import numpy as np

from .core import FeatureMatrix, check_finite
from .errors import DimMismatch, ValidationError
from .features import l2_normalize_rows, max_abs_scaled

# Query rows per matrix-matrix product.  Each product streams the whole
# index from memory, so a wider tile streams it less often: on a
# 4,200 x 2,112 index at one BLAS thread, 420 queries' products take
# 0.35 s at 32 and 0.28 s at 64.  128 is no faster (0.27 s) and makes the
# one live block, n x _TILE floats, twice as large.
_TILE = 64


class CosineIndex:
    """Read-only cosine-similarity index over a feature matrix, or over a
    2-D array whose values must be finite (``NonFiniteValue``); a
    ``FeatureMatrix`` was checked when it was built."""

    def __init__(self, matrix):
        if isinstance(matrix, FeatureMatrix):
            self.values = matrix.values
        else:
            self.values = np.ascontiguousarray(matrix, dtype=np.float64)
            if self.values.ndim != 2:
                raise ValidationError("index matrix must be 2-D")
            check_finite(self.values, "index: ")
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
        rows against every indexed row, a transposed view of the (n, _TILE)
        product; rows or queries with zero norm score 0."""
        sims = self.values @ l2_normalize_rows(tile).T
        sims /= np.where(self.norms == 0.0, 1.0, self.norms)[:, None]
        return sims.T


def top_k_batch(index: CosineIndex, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, similarities), each (m, min(k, n)): for each of the m query
    rows, its nearest indexed rows by descending similarity, ties broken
    by ascending row id.  Query values must be finite (``NonFiniteValue``)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise DimMismatch(f"query shape {queries.shape} vs index dim {index.dim}")
    check_finite(queries, "query: ")
    k = min(k, index.n)
    rows = np.empty((len(queries), k), dtype=np.int64)
    sims = np.empty((len(queries), k))
    if not k:  # an empty index
        return rows, sims
    tile = np.empty((_TILE, index.dim))
    for start in range(0, len(queries), _TILE):
        part = queries[start:start + _TILE]
        tile[:len(part)] = part
        tile[len(part):] = 0.0
        scores = index.similarities(tile)
        for j in range(len(part)):
            row = np.ascontiguousarray(scores[j])
            cut = np.partition(row, index.n - k)[index.n - k]
            candidates = np.flatnonzero(row >= cut)
            rows[start + j] = candidates[np.argsort(-row[candidates], kind="stable")[:k]]
            sims[start + j] = row[rows[start + j]]
        del scores  # before the next tile's product, so one block is alive at a time
    return rows, sims


def top_k(index: CosineIndex, q: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exactly min(k, n) (row id, similarity) pairs of one query, sorted by
    descending similarity with ties broken by ascending row id."""
    rows, sims = top_k_batch(index, np.asarray(q, dtype=np.float64)[None], k)
    return list(zip(rows[0].tolist(), sims[0].tolist()))
