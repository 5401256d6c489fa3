"""L2 normalization and feature fusion by concatenation.

Each source is written, row by row, into its column block of one output
matrix, in source order, and the block is normalized independently (per
row) in place.  Normalizing the final concatenation is available behind
``renormalize`` and is off by default.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .core import FeatureMatrix, FeatureRows, split_ranges
from .errors import IdMismatch, ValidationError

# Rows per tile: fuse normalizes a block in place this many rows at a time,
# and svm's feature-space products gather this many rows at a time.
_ROWS = 256


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
    sources: Sequence[tuple[str, FeatureMatrix | FeatureRows, bool]],
    renormalize: bool = False,
    splits: Mapping[str, str] | None = None,
) -> FeatureMatrix:
    """Concatenate ordered ``(name, rows, normalize)`` sources, each block
    L2-normalized per row where its flag says so.

    ``rows`` is a ``FeatureMatrix`` or an open ``core.FeatureRows``.  The
    output is allocated once; each source's rows are written into its
    column block as they are read, and the block is then normalized in
    place ``_ROWS`` rows at a time, so no copy of a source and no
    block-sized temporary is made.  Rows follow the first source's order,
    grouped by split (in ``SPLIT_NAMES`` order) when ``splits`` maps each
    sample id to its split: the first source places each row by its split,
    the others by sample id.  Names must be unique, and the splits and every
    source must have the first source's ids (``IdMismatch`` with the
    symmetric difference).  The output carries no labels; attach them by id.
    """
    if not sources:
        raise ValidationError("fusion needs at least one source")
    names = [name for name, _, _ in sources]
    if len(set(names)) != len(names):
        raise ValidationError(f"fusion source names must be unique, got {names}")
    if splits is None:  # one group, None, in the first source's order
        next_row, n = {None: 0}, sources[0][1].n_samples
    else:
        next_row, n = {split: start for split, (start, _) in split_ranges(splits).items()}, len(splits)
    ids: list = [None] * n
    row_of: dict[str, int] = {}

    def first_row(sid):
        group = None if splits is None else splits.get(sid)
        if group not in next_row:
            return None
        row = row_of[sid] = next_row[group]
        next_row[group] += 1
        ids[row] = sid
        return row

    dims = [rows.dim for _, rows, _ in sources]
    fused = np.empty((n, sum(dims)))
    for i, ((name, rows, normalize), end) in enumerate(zip(sources, np.cumsum(dims))):
        place = row_of.get if i else first_row
        block = fused[:, end - rows.dim:end]
        unknown, filled = set(), np.zeros(n, dtype=bool)
        for sid, values in rows.items():
            row = place(sid)
            if row is None:
                unknown.add(sid)
            else:
                block[row] = values
                filled[row] = True
        if unknown or not filled.all():
            where = f"source {name!r}" + (f" ({rows.path})" if isinstance(rows, FeatureRows) else "")
            if i:
                diff = unknown | {ids[r] for r in np.flatnonzero(~filled)}
                raise IdMismatch(f"{where} disagrees on {len(diff)} sample id(s)", missing=diff)
            diff = unknown | (set(splits) - row_of.keys())
            raise IdMismatch(f"split assignment and {where} disagree on {len(diff)} sample id(s)",
                             missing=diff)
        if normalize:
            _normalize_in_place(block)
    if renormalize:
        _normalize_in_place(fused)
    return FeatureMatrix._trusted(fused, ids)


def _normalize_in_place(block: np.ndarray) -> None:
    """L2-normalize each row of ``block``, ``_ROWS`` rows at a time."""
    for start in range(0, block.shape[0], _ROWS):
        tile = block[start:start + _ROWS]
        tile[...] = l2_normalize_rows(tile)
