"""Exact cosine top-k search.

The cosine index is exact: the local learner needs a deterministic
neighbor set, and desk-scale training sets do not warrant approximation.
Ties break by ascending row id.  (Visual-word assignment, a Euclidean
nearest-centroid search, lives in ``bovw``.)
"""

from __future__ import annotations

import numpy as np

from .core import FeatureMatrix
from .errors import DimMismatch, ValidationError
from .features import max_abs_scaled


class CosineIndex:
    """Read-only cosine-similarity index over a feature matrix."""

    def __init__(self, matrix):
        if isinstance(matrix, FeatureMatrix):
            self.values = matrix.values
        else:
            self.values = np.ascontiguousarray(matrix, dtype=np.float64)
            if self.values.ndim != 2:
                raise ValidationError("index matrix must be 2-D")
        _, norms, scale = max_abs_scaled(self.values)
        self.norms = (scale * norms)[:, 0]

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def similarities(self, q: np.ndarray) -> np.ndarray:
        """Cosine similarity of q against every indexed row; rows or queries
        with zero norm score 0."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise DimMismatch(f"query dim {q.shape} vs index dim {self.dim}")
        scaled, qn, _ = max_abs_scaled(q)
        if qn[0] == 0.0:
            return np.zeros(self.n)
        sims = self.values @ (scaled / qn)
        nz = self.norms != 0.0
        sims[nz] /= self.norms[nz]
        sims[~nz] = 0.0
        return sims


def top_k(index: CosineIndex, q: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exactly min(k, n) (row id, similarity) pairs, sorted by descending
    similarity with ties broken by ascending row id."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    sims = index.similarities(q)
    order = np.lexsort((np.arange(index.n), -sims))[: min(k, index.n)]
    return [(int(i), float(sims[i])) for i in order]
