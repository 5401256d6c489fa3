"""Exact cosine top-k search.

The cosine index is exact: the local learner needs a deterministic
neighbor set.  Ties break by ascending row id.  (Visual-word assignment,
a Euclidean nearest-centroid search, lives in ``bovw``.)

Queries are searched in tiles of ``_TILE`` rows, the last one zero-padded:
each tile is one matrix-matrix product against the index, ``values @ q'``,
with the queries as its columns.  BLAS gives a column of a product of
fixed width the same bits at any position, so a query's similarities do
not depend on the batch it was searched with; the row-major form
``q @ values'`` does not hold this.  Each query's similarities are ranked
by a partial sort that keeps every row tied at its k-th similarity, and
the search holds one (n, ``_TILE``) block of similarities at a time.
"""

from __future__ import annotations

import numpy as np

from .core import as_rows
from .errors import ValidationError
from .features import l2_normalize_rows, max_abs_scaled

# Query rows per matrix-matrix product.  Each product streams the whole
# index from memory, so a wider tile streams it less often; 128 was no
# faster than 64 and doubles the one live block, n x _TILE floats.
_TILE = 64


class CosineIndex:
    """Read-only cosine-similarity index over the rows of a feature matrix
    or an array, which pass ``core.as_rows`` (prefix ``index: ``)."""

    def __init__(self, matrix):
        self.values = np.ascontiguousarray(as_rows(matrix, "index: "))
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
    by ascending row id.  The queries pass ``core.as_rows`` (prefix
    ``query: ``) at the index's width."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    queries = as_rows(queries, "query: ", index.dim)
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
