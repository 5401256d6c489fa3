"""Exact cosine top-k search and a randomized kd-tree forest.

The cosine index is exact: the local learner needs a deterministic
neighbor set, and desk-scale training sets do not warrant approximation.
The kd-forest serves visual-word quantization.  Its search is best-first
across all trees under one shared node-visit budget; with a budget at
least the total node count the result is exact, below that it is
approximate and the budget only shapes the visiting order.

Ties break by ascending row/point id everywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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


@dataclass(frozen=True)
class KdForestParams:
    """Forest shape: trees, leaf size, search budget, split randomness.

    Split dims are drawn uniformly among the ``top_variance_dims`` highest
    variance dims of each node; split values are medians.
    """

    n_trees: int = 4
    leaf_capacity: int = 96
    backtrack_budget: int = 512
    top_variance_dims: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.leaf_capacity < 1 or self.backtrack_budget < 1:
            raise ValidationError("forest params must be positive")


class _Node:
    __slots__ = ("split_dim", "split_val", "left", "right", "point_ids")

    def __init__(self, split_dim=-1, split_val=0.0, left=None, right=None, point_ids=None):
        self.split_dim = split_dim
        self.split_val = split_val
        self.left = left
        self.right = right
        self.point_ids = point_ids  # populated on leaves only

    @property
    def is_leaf(self) -> bool:
        return self.point_ids is not None


class KdForest:
    """Randomized kd-trees over one immutable point set."""

    def __init__(self, points: np.ndarray, params: KdForestParams):
        self.points = points
        self.params = params
        self.trees: list[_Node] = []
        self.node_count = 0
        self.max_depth = 0
        for t in range(params.n_trees):
            rng = np.random.default_rng([params.seed, t])
            root = self._build(np.arange(points.shape[0], dtype=np.intp), rng, 0)
            self.trees.append(root)

    def _build(self, ids: np.ndarray, rng, depth: int) -> _Node:
        self.node_count += 1
        self.max_depth = max(self.max_depth, depth)
        params = self.params
        if ids.size <= params.leaf_capacity:
            return _Node(point_ids=ids)
        pts = self.points[ids]
        variances = pts.var(axis=0)
        if not np.any(variances > 0.0):
            return _Node(point_ids=ids)  # all points identical along every dim
        candidates = np.argsort(-variances, kind="stable")[: params.top_variance_dims]
        candidates = candidates[variances[candidates] > 0.0]
        dim = int(candidates[rng.integers(candidates.size)])
        col = pts[:, dim]
        split = float(np.median(col))
        left_mask = col < split
        if not left_mask.any() or left_mask.all():
            # Median landed on the min or max; fall back to the midpoint,
            # which is guaranteed to separate since the dim has variance.
            split = float((col.min() + col.max()) / 2.0)
            left_mask = col < split
        left = self._build(ids[left_mask], rng, depth + 1)
        right = self._build(ids[~left_mask], rng, depth + 1)
        return _Node(split_dim=dim, split_val=split, left=left, right=right)


def kdforest_build(points, params: KdForestParams | None = None) -> KdForest:
    """Build a forest; deterministic given params.seed."""
    if isinstance(points, FeatureMatrix):
        points = points.values
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValidationError("need a non-empty 2-D point set")
    return KdForest(points, params or KdForestParams())


def kdforest_nn(
    forest: KdForest, q: np.ndarray, budget: int | None = None
) -> tuple[int, float]:
    """Approximate Euclidean nearest neighbor under a backtracking budget.

    Every tree is first descended greedily to the query's own leaf (so a
    query equal to an indexed point scores an exact hit at any budget);
    backtracking then pops further nodes from a priority queue shared by
    all trees, ordered by an accumulated split-plane distance heuristic,
    until ``budget`` node visits are spent.  The heuristic only orders the
    visits, nothing is pruned, so a budget covering every node returns the
    exact nearest neighbor.  Ties in distance go to the lowest point id.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (forest.points.shape[1],):
        raise DimMismatch(
            f"query dim {q.shape} vs indexed dim {forest.points.shape[1]}"
        )
    if budget is None:
        budget = forest.params.backtrack_budget
    pts = forest.points
    best_id = -1
    best_d2 = np.inf

    def scan_leaf(node):
        nonlocal best_id, best_d2
        ids = node.point_ids
        diffs = pts[ids] - q
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        for d, pid in zip(d2, ids):
            if d < best_d2 or (d == best_d2 and pid < best_id):
                best_d2 = float(d)
                best_id = int(pid)

    heap: list[tuple[float, int, _Node]] = []
    counter = 0
    for root in forest.trees:
        node, bound = root, 0.0
        while not node.is_leaf:
            off = q[node.split_dim] - node.split_val
            near, far = (node.left, node.right) if off < 0.0 else (node.right, node.left)
            heapq.heappush(heap, (bound + off * off, counter, far))
            counter += 1
            node = near
        scan_leaf(node)
    visits = 0
    while heap and visits < budget:
        bound, _, node = heapq.heappop(heap)
        visits += 1
        if node.is_leaf:
            scan_leaf(node)
        else:
            off = q[node.split_dim] - node.split_val
            near, far = (node.left, node.right) if off < 0.0 else (node.right, node.left)
            heapq.heappush(heap, (bound, counter, near))
            counter += 1
            heapq.heappush(heap, (bound + off * off, counter, far))
            counter += 1
    return best_id, float(np.sqrt(best_d2))
