"""L2 normalization and feature fusion by concatenation.

Each source block is normalized independently (per row), then blocks are
concatenated in source order.  Normalizing the final concatenation is
available behind ``renormalize`` and is off by default.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import FeatureMatrix
from .errors import IdMismatch, ValidationError

_ROWS = 256  # rows gathered at a time by fuse and by svm's feature-space products


def max_abs_scaled(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each row (last axis) of ``values`` into scale * scaled rows.

    The scale is the row's max-abs entry (1 for a zero row), so scaled
    entries lie in [-1, 1] and their squares neither underflow nor
    overflow.  Returns (scaled, norm of each scaled row, scale), the last
    two with the row axis kept; a row's norm is scale * scaled norm.
    """
    values = np.asarray(values, dtype=np.float64)
    scale = np.maximum(values.max(axis=-1, keepdims=True, initial=0.0),
                       -values.min(axis=-1, keepdims=True, initial=0.0))
    scale[scale == 0.0] = 1.0
    scaled = values / scale
    return scaled, np.sqrt(np.einsum("...i,...i->...", scaled, scaled))[..., None], scale


def l2_normalize_rows(values: np.ndarray) -> np.ndarray:
    """Scale each row (last axis) to unit Euclidean norm; zero rows pass
    through unchanged (empty presence bins are legitimate)."""
    scaled, norms, _ = max_abs_scaled(values)
    scaled /= np.where(norms == 0.0, 1.0, norms)
    return scaled


def fuse(
    sources: Sequence[tuple[str, FeatureMatrix, bool]], renormalize: bool = False
) -> FeatureMatrix:
    """Concatenate ordered ``(name, matrix, normalize)`` sources, each block
    L2-normalized per row where its flag says so.

    Names must be unique and all sources must share one sample id set.
    Rows follow the first source's order, so a single source with
    normalization off keeps its values, in a new matrix.  The output is
    filled and normalized ``_ROWS`` rows at a time, so no temporary as
    large as a block is made.  The output carries no labels; attach them
    by id.
    """
    if not sources:
        raise ValidationError("fusion needs at least one source")
    names = [name for name, _, _ in sources]
    if len(set(names)) != len(names):
        raise ValidationError(f"fusion source names must be unique, got {names}")
    order = sources[0][1].sample_ids
    dims = [m.dim for _, m, _ in sources]
    fused = np.empty((len(order), sum(dims)))
    for (name, m, normalize), end in zip(sources, np.cumsum(dims)):
        diff = set(m.sample_ids) ^ set(order)
        if diff:
            raise IdMismatch(
                f"source {name!r} disagrees on {len(diff)} sample id(s)", missing=diff
            )
        rows = np.arange(len(order)) if m.sample_ids == order else [m.row_of(s) for s in order]
        for start in range(0, len(order), _ROWS):
            part = m.values[rows[start:start + _ROWS]]
            fused[start:start + _ROWS, end - m.dim:end] = l2_normalize_rows(part) if normalize else part
    if renormalize:
        for start in range(0, len(order), _ROWS):
            fused[start:start + _ROWS] = l2_normalize_rows(fused[start:start + _ROWS])
    return FeatureMatrix(fused, order)
