"""L2 normalization and feature fusion by concatenation.

Each source block is normalized independently (per row), then blocks are
concatenated in spec order.  Normalizing the final concatenation is
available behind ``FusionSpec.renormalize`` and is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import FeatureMatrix
from .errors import IdMismatch, NonFiniteValue, UnknownSource, ValidationError


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


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm; the zero vector is returned
    unchanged (empty presence bins are legitimate)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        idx = int(np.argwhere(~np.isfinite(v.ravel()))[0][0])
        raise NonFiniteValue(f"non-finite entry at index {idx}", col=idx)
    return l2_normalize_rows(v)


def l2_normalize_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise l2_normalize; zero rows pass through unchanged."""
    scaled, norms, _ = max_abs_scaled(values)
    scaled /= np.where(norms == 0.0, 1.0, norms)
    return scaled


@dataclass(frozen=True)
class FusionSpec:
    """Ordered fusion recipe: which sources, and whether to normalize each.

    ``normalize`` defaults every source to on; list a source in
    ``skip_normalize`` to pass its block through raw.
    """

    sources: tuple[str, ...]
    skip_normalize: frozenset[str] = field(default_factory=frozenset)
    renormalize: bool = False

    def __post_init__(self):
        if not self.sources:
            raise ValidationError("fusion spec needs at least one source")
        if len(set(self.sources)) != len(self.sources):
            raise ValidationError("fusion spec sources must be unique")
        unknown = self.skip_normalize - set(self.sources)
        if unknown:
            raise UnknownSource(f"skip_normalize names unknown sources {sorted(unknown)}")

    def normalizes(self, name: str) -> bool:
        return name not in self.skip_normalize


def fuse(spec: FusionSpec, sources: Mapping[str, FeatureMatrix]) -> FeatureMatrix:
    """Concatenate per-source rows (optionally L2-normalized) in spec order.

    All sources must share one sample id set.  Rows follow the first
    source's order, so a single source with normalization off keeps its
    values, in a new matrix.  Each block is filled and normalized in place
    in the output, so at most one block-sized temporary is alive at a time.
    The output carries no labels; attach them by id.
    """
    missing = [n for n in spec.sources if n not in sources]
    if missing:
        raise UnknownSource(f"sources not provided: {missing}")
    order = sources[spec.sources[0]].sample_ids
    dims = [sources[n].dim for n in spec.sources]
    fused = np.empty((len(order), sum(dims)))
    for name, end in zip(spec.sources, np.cumsum(dims)):
        m = sources[name]
        diff = set(m.sample_ids) ^ set(order)
        if diff:
            raise IdMismatch(
                f"source {name!r} disagrees on {len(diff)} sample id(s)", missing=diff
            )
        block = fused[:, end - m.dim:end]
        block[:] = m.values if m.sample_ids == order else m.values[[m.row_of(s) for s in order]]
        if spec.normalizes(name):
            block[:] = l2_normalize_rows(block)
    if spec.renormalize:
        fused = l2_normalize_rows(fused)
    return FeatureMatrix(fused, order)
