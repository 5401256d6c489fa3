"""Handcrafted feature pipeline: dense multi-scale upright SIFT, k-means
vocabularies per pyramid level, and binary word-presence encoding over a
spatial pyramid.

Descriptors are the classic 4x4x8 gradient-orientation histograms with
trilinear binning and Gaussian spatial weighting, extracted upright (no
orientation assignment) on a regular grid at several bin sizes.  Low
contrast descriptors are zeroed.  A window's spatial weight is the outer
product of one 1-D profile (bin interpolation times the Gaussian) with
itself, so its sums are separable: one along x, then one along y, over
strided views of the orientation maps.  A spatial bin's interpolation
weight is a triangle of half-width bin_size, so each bin's sums run over
its support, the at most 2 * bin_size taps where its weight is nonzero,
and skip the exact zeros outside it.  Each pyramid level owns a k-means
vocabulary; a cell's bit for a word is set iff some descriptor centered in
the cell has that word as its nearest centroid at that level.

A descriptor's word is the lowest-id argmin over centroids of the float64
squared distance summed elementwise, Σ(s·c - s·p)², for a power of two s
(1 unless the data lie far outside unit scale).  One helper, ``_nearest``,
makes that decision for both k-means and encoding: a float32 product
proposes the few centroids within its rounding bound of the row's best,
and the elementwise sum, which no BLAS kernel touches, picks among them.
So a word is the same at any chunking, worker count and BLAS kernel.

Default vocabulary sizes follow the full-scale recipe (17000/14000/11000/
8000 over 1x1..4x4 grids); ``DESK_VOCAB_SIZES`` ships a small profile for
tests and experiments.

Images are 8-bit grayscale arrays; ``read_pgm``/``write_pgm`` handle the
only supported container (binary PGM, P5).  The vocabulary serializes to
a ``core.BinaryFile``: magic ``LLVB``, u32 version (2), u32 level count,
the extraction settings, then per level u32 grid, u32 k, u32 dim and the
centroid rows as little-endian f64.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import BinaryFile, as_rows, check_finite, check_workers, fan_out, reading
from .errors import DimMismatch, ImageTooSmall, LevelMismatch, MalformedFile, ValidationError

VOCAB_MAGIC = b"LLVB"
FULL_VOCAB_SIZES = (17000, 14000, 11000, 8000)
DESK_VOCAB_SIZES = (100, 80, 60, 40)
SUBSAMPLE_CAP = 200_000  # descriptors sampled for k-means, by default
_CHUNK_BYTES = 16 * 2**20  # float32 distance block per chunk; 4,000 x 340 k-means rows fit one
_U32 = 2.0**-24  # float32 unit roundoff
_TINY32 = float(np.finfo(np.float32).tiny)
_SAFE32 = 2.0**120  # (|p| + max|c|)² below this: no float32 partial sum overflows


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit grayscale PGM into a (H, W) uint8 array."""
    blob = Path(path).read_bytes()
    if blob[:2] != b"P5":
        raise MalformedFile(f"{path}: not a binary PGM (P5)")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(blob[start:pos]))
        except ValueError:
            raise MalformedFile(f"{path}: bad PGM header token {blob[start:pos]!r}")
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if min(fields) < 0:
        raise MalformedFile(f"{path}: negative PGM header field in {fields}")
    if maxval > 255:
        raise MalformedFile(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    data = blob[pos : pos + width * height]
    if len(data) != width * height:
        raise MalformedFile(f"{path}: pixel data truncated")
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValidationError("image must be 2-D")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


@dataclass(frozen=True)
class DenseSiftConfig:
    """Dense upright SIFT extraction settings.

    One descriptor per (grid point, bin size); a descriptor window covers
    spatial_bins * bin_size pixels per side.  Descriptors whose
    pre-normalization norm falls below ``contrast_threshold`` are zeroed.
    """

    bin_sizes: tuple[int, ...] = (4, 6, 8, 10)
    step: int = 2
    orientations: int = 8
    spatial_bins: int = 4
    contrast_threshold: float = 0.005

    def __post_init__(self):
        if not self.bin_sizes or min(self.bin_sizes) < 1:
            raise ValidationError("bin_sizes must be positive")
        if self.step < 1:
            raise ValidationError("step must be >= 1")
        if self.orientations < 1 or self.spatial_bins < 1:
            raise ValidationError("orientations and spatial_bins must be >= 1")
        if not (np.isfinite(self.contrast_threshold) and self.contrast_threshold > 0):
            raise ValidationError(
                f"contrast_threshold must be finite and > 0, got {self.contrast_threshold}"
            )

    @property
    def descriptor_dim(self) -> int:
        return self.spatial_bins * self.spatial_bins * self.orientations


@dataclass
class DescriptorSet:
    """Column-oriented batch of descriptors from one image."""

    vectors: np.ndarray  # (n, dim)
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _orientation_maps(img01: np.ndarray, n_orient: int) -> np.ndarray:
    """(n_orient, H, W) gradient magnitude split linearly across the two
    adjacent orientation bins: one scatter into each pixel's lower bin, then
    one add into its upper bin (the same bin when n_orient is 1)."""
    gy, gx = np.gradient(img01)
    mag = np.hypot(gx, gy)
    ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    pos = ang * n_orient / (2.0 * np.pi)
    lo = np.floor(pos)
    frac = pos - lo
    lo = lo.astype(np.intp) % n_orient
    pixel = np.indices(img01.shape, sparse=True)
    maps = np.zeros((n_orient,) + img01.shape)
    maps[(lo,) + pixel] = mag * (1.0 - frac)
    maps[((lo + 1) % n_orient,) + pixel] += mag * frac
    return maps


def _axis_weights(bin_size: int, n_bins: int) -> np.ndarray:
    """(n_bins, window) weight of each pixel offset along one side of a
    window: bilinear bin interpolation times a Gaussian window.  The 2-D
    weight of pixel (i, j) for spatial bin (r, c) is the product of row r's
    weight at i and row c's at j."""
    side = n_bins * bin_size
    p = np.arange(side) + 0.5
    u = p / bin_size - 0.5  # bin coordinates; centers at 0..n_bins-1
    tri = np.maximum(0.0, 1.0 - np.abs(u[None, :] - np.arange(n_bins)[:, None]))
    sigma = side / 2.0
    gauss = np.exp(-((p - side / 2.0) ** 2) / (2.0 * sigma**2))
    return tri * gauss[None, :]


@functools.lru_cache(maxsize=32)
def _window_grid(shape: tuple[int, ...], cfg: DenseSiftConfig) -> tuple:
    """The descriptor windows of an image of ``shape``, in ``dense_sift``'s
    order: per bin size, (bin size, row starts, column starts, axis
    weights, supports), then the x and y of every window's centre.  A
    spatial bin's support is the tap range [lo, hi) outside which its axis
    weights are 0.0, at most 2 * bin size taps.  Cached per (shape,
    config); the arrays are read-only."""
    if len(shape) != 2:
        raise ValidationError("image must be a 2-D grayscale array")
    h, w = shape
    largest = cfg.spatial_bins * max(cfg.bin_sizes)
    if h < largest or w < largest:
        raise ImageTooSmall(
            f"image {w}x{h} cannot fit a {largest}x{largest} descriptor window"
        )
    grid, xs, ys = [], [], []
    for b in cfg.bin_sizes:
        side = cfg.spatial_bins * b
        starts_y = np.arange(0, h - side + 1, cfg.step)
        starts_x = np.arange(0, w - side + 1, cfg.step)
        axis = _axis_weights(b, cfg.spatial_bins)
        supports = tuple((int(t[0]), int(t[-1]) + 1) for t in map(np.flatnonzero, axis))
        grid.append((b, starts_y, starts_x, axis, supports))
        gy, gx = np.meshgrid(starts_y + side // 2, starts_x + side // 2, indexing="ij")
        xs.append(gx.ravel())
        ys.append(gy.ravel())
    centres = (np.concatenate(xs), np.concatenate(ys))
    for array in [a for entry in grid for a in entry[1:4]] + list(centres):
        array.setflags(write=False)
    return tuple(grid), centres


def dense_sift(img: np.ndarray, cfg: DenseSiftConfig = DenseSiftConfig()) -> DescriptorSet:
    """Extract upright dense SIFT descriptors on a regular grid.

    Descriptors are L2-normalized, clamped at 0.2, renormalized; windows
    with pre-normalization norm below the contrast threshold yield the
    zero vector.  Order: bin sizes in config order, then row-major grid.
    Each spatial bin's separable sums run over its support alone, in
    numpy's own einsum loops, not in BLAS, whose kernels differ by CPU in
    the last bits.  A NaN or infinite pixel raises ``NonFiniteValue``
    before any arithmetic.
    """
    img = np.asarray(img)
    grid, (xs, ys) = _window_grid(img.shape, cfg)
    img01 = img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else img.astype(np.float64)
    check_finite(img01, "image: ")
    omaps = _orientation_maps(img01, cfg.orientations)
    n_bins = cfg.spatial_bins
    desc = np.empty((xs.size, cfg.descriptor_dim))  # a new array per call: workers share none
    start = 0
    for b, starts_y, starts_x, axis, supports in grid:
        side = n_bins * b
        ny, nx = starts_y.size, starts_x.size
        # No `optimize`: with it, einsum may hand a contraction to BLAS.
        cols = sliding_window_view(omaps, side, axis=2)[:, :, :: cfg.step]  # (O, H, nx, side)
        across = np.empty(cols.shape[:3] + (n_bins,))
        for c, (lo, hi) in enumerate(supports):
            np.einsum("oyxj,j->oyx", cols[..., lo:hi], axis[c, lo:hi], out=across[..., c])
        rows = sliding_window_view(across, side, axis=1)[:, :: cfg.step]  # (O, ny, nx, c, side)
        out = desc[start : start + ny * nx].reshape(ny, nx, n_bins, n_bins, cfg.orientations)
        for r, (lo, hi) in enumerate(supports):
            out[:, :, r] = np.einsum("oyxci,i->yxco", rows[..., lo:hi], axis[r, lo:hi])
        start += ny * nx
    norms = np.linalg.norm(desc, axis=1)
    low = norms < cfg.contrast_threshold
    desc[low] = 0.0
    norms[low] = 1.0  # a zeroed row is divided by 1
    desc /= norms[:, None]
    np.minimum(desc, 0.2, out=desc)
    renorm = np.linalg.norm(desc, axis=1)
    renorm[low] = 1.0
    desc /= renorm[:, None]
    return DescriptorSet(vectors=desc, x=xs.copy(), y=ys.copy())


def kmeans(
    points: np.ndarray,
    k: int,
    seed,
    max_iters: int = 100,
    workers: int = 1,
) -> np.ndarray:
    """Euclidean k-means with k-means++ seeding; deterministic given seed.

    A point's word is its ``_nearest`` word, scaled by the power of two of
    the points (a centroid, their mean, is no longer than the longest);
    the points' scaled, float32 and norm forms are built once per call.

    Seeding recomputes a point's D² only where the new seed can be closer
    than its nearest one (triangle inequality, with margins for rounding),
    so every draw equals a full update's.  Lloyd's iterations measure only
    the points whose word can change (Hamerly's bounds): a point keeps its
    word unmeasured when an upper bound on its distance to its centroid,
    plus a margin for the rounding of an elementwise squared distance, is
    below both a lower bound on its distance to every other centroid and
    half its centroid's distance to the nearest other one.  The lower
    bounds come from ``_nearest``'s float32 pass, less its error bound.
    Only clusters whose members changed are re-averaged, over the same rows
    in the same order, so the centroids are those of a loop that measures
    every point.

    Empty clusters are repaired by stealing the farthest point of the
    cluster with the largest within-cluster sum of squares; a repair resets
    every bound.  When k exceeds the point count, every point becomes a
    centroid and the remaining slots are filled with copies of the points
    farthest from the data mean.  It stops when an assignment repeats an
    earlier one, from which the iterations would cycle (as they do with
    fewer distinct points than k).  The assignment step's row chunks are
    mapped by one ``core.fan_out(workers)`` per call; a word does not
    depend on the chunk that holds its row, so the outcome is the same at
    any worker count.  The points pass ``core.as_rows`` (prefix ``points: ``).
    """
    points = as_rows(points, "points: ")
    if points.shape[0] < 1:
        raise ValidationError("need a non-empty point set")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    with fan_out(workers) as fan:
        if k >= n:
            extra = k - n
            centroids = points.copy()
            if extra:
                dist_from_mean = np.linalg.norm(points - points.mean(axis=0), axis=1)
                order = np.lexsort((np.arange(n), -dist_from_mean))
                fill = points[np.resize(order, extra)]
                centroids = np.vstack([centroids, fill])
            return centroids
        centroids = points[_kmeanspp(points, k, rng)]
        assign, seen = np.full(n, -1, dtype=np.intp), set()
        upper, lower = np.empty(n), np.empty(n)
        shift = _shift(points)
        scaled = _Scaled(points, shift)  # bounds are in these units
        # Four times Higham's bound γ_{d+2}·(|p| + |c|)² on the rounding of an
        # elementwise squared distance, as a centroid (a mean of points, or a
        # point) is no longer than the longest point; `tiny` covers underflow.
        err = (8.0 * (points.shape[1] + 2) * np.finfo(float).eps * scaled.norm_max**2
               + np.finfo(float).tiny)
        margin = np.sqrt(2.0 * err)
        measure_all = True
        for _ in range(max_iters):
            stale = None
            cents = _Scaled(centroids, shift, centroids=True)
            if not measure_all:
                _, _, gap2 = _nearest(_Scaled(centroids, shift), cents, fan, workers, bounds=True)
                half_gap = 0.5 * np.sqrt(np.maximum(gap2, 0.0))
                settled = upper + margin < np.maximum(lower, half_gap[assign])
                stale = np.flatnonzero(~settled)  # NaN bounds are measured too
            words, d2_min, d2_next = _nearest(scaled, cents, fan, workers, stale, bounds=True)
            at = slice(None) if stale is None else stale
            new_assign = assign.copy()
            new_assign[at] = words
            upper[at] = np.sqrt(d2_min + err)
            lower[at] = np.sqrt(np.maximum(d2_next, 0.0))
            key = hashlib.blake2b(new_assign).digest()
            if np.array_equal(new_assign, assign) or key in seen:
                break
            seen.add(key)
            moved = np.flatnonzero(new_assign != assign)
            dirty = np.unique(np.concatenate([assign[moved], new_assign[moved]]))
            dirty = dirty[dirty >= 0]
            assign = new_assign
            counts = np.bincount(assign, minlength=k)
            before = cents.exact[dirty]
            # stable order keeps each cluster's rows in index order
            order = np.argsort(assign, kind="stable")
            ends = np.cumsum(counts)
            for c in dirty[counts[dirty] > 0]:
                centroids[c] = points[order[ends[c] - counts[c]:ends[c]]].mean(axis=0)
            before -= np.ldexp(centroids[dirty], shift)
            drift = np.zeros(k)
            drift[dirty] = np.sqrt(np.einsum("ij,ij->i", before, before) + err)
            del before, order  # not held through the repair and next assignment
            upper += drift[assign]
            lower -= drift.max()
            empty = np.flatnonzero(counts == 0)
            for e in empty:
                costs = np.linalg.norm(points - centroids[assign], axis=1)
                per_cluster = np.zeros(k)
                np.add.at(per_cluster, assign, costs**2)
                donor = int(np.argmax(per_cluster))
                donor_rows = np.flatnonzero(assign == donor)
                far = donor_rows[int(np.argmax(costs[donor_rows]))]
                centroids[e] = points[far]
                assign[far] = e
                centroids[donor] = points[assign == donor].mean(axis=0)
            measure_all = empty.size > 0
    return centroids


def _kmeanspp(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    centres = np.empty((k, points.shape[1]))  # the chosen rows, in draw order
    chosen[0] = rng.integers(n)
    centres[0] = points[chosen[0]]
    d2 = _sq_diffs(points - centres[0])
    near = np.zeros(n, dtype=np.intp)  # position in chosen of each point's nearest centre
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at chosen points; take lowest unchosen index
            mask = np.ones(n, dtype=bool)
            mask[chosen[:j]] = False
            chosen[j] = int(np.flatnonzero(mask)[0])
        else:
            chosen[j] = rng.choice(n, p=d2 / total)
        c = centres[j]
        c[:] = points[chosen[j]]
        # |x - c| >= |c - a| - |x - a|; the margins cover rounding, subnormal too
        reach = _sq_diffs(centres[:j] - c)
        rows = np.flatnonzero(reach[near] < 4.0 * (1.0 + 1e-9) * d2 + np.finfo(float).tiny)
        block = points[rows]
        block -= c
        new = _sq_diffs(block)
        del block  # not held through the next draw's gather
        closer = new < d2[rows]  # where np.minimum(d2, new) would take new
        d2[rows[closer]], near[rows[closer]] = new[closer], j
    return chosen


def _sq_diffs(diffs: np.ndarray) -> np.ndarray:
    """Row sums of squares of a difference block, squared in place."""
    np.square(diffs, out=diffs)
    return diffs.sum(axis=1)


def _shift(values: np.ndarray) -> int:
    """The exponent of the power of two that scales ``values`` for a
    nearest-centroid search: 0 while the largest magnitude lies in
    [2^-32, 2^32] (or is 0), else the one that brings it into [1/2, 1)."""
    top = float(np.abs(values).max(initial=0.0))
    if top == 0.0 or 2.0**-32 <= top <= 2.0**32:
        return 0
    return -int(np.frexp(top)[1])


class _Scaled:
    """Rows times 2**shift, as ``_nearest`` reads them: ``exact`` in float64,
    for the elementwise distances that decide a word, their squared norms
    ``sq``, and ``single``, a float32 copy with one more column for the
    candidate pass.  As points that column is 1; as centroids the row is
    -2c and the column |c|², stored transposed, so one product gives
    |c|² - 2p·c."""

    def __init__(self, values: np.ndarray, shift: int, centroids: bool = False):
        exact = np.ldexp(values, shift) if shift else np.ascontiguousarray(values, np.float64)
        n, dim = exact.shape
        self.shift, self.exact = shift, exact
        self.sq = np.einsum("ij,ij->i", exact, exact)
        self.norm_max = float(np.sqrt(self.sq.max(initial=0.0)))
        single = np.empty((n, dim + 1), dtype=np.float32)
        with np.errstate(over="ignore"):  # rows past float32's range keep every centroid
            if centroids:
                np.multiply(exact, -2.0, out=single[:, :dim], casting="same_kind")
                single[:, dim] = self.sq
            else:
                single[:, :dim] = exact
                single[:, dim] = 1.0
        self.single = np.ascontiguousarray(single.T) if centroids else single


def _nearest(
    points: _Scaled,
    centroids: _Scaled,
    fan=map,
    workers: int = 1,
    rows: np.ndarray | None = None,
    bounds: bool = False,
):
    """Each point's word; with ``bounds``, also (words, the squared
    distance to the word, a lower bound on the squared distance to every
    other centroid), all in units of the scaled rows.

    A word is the lowest-id argmin over centroids of the float64 sum
    Σ(s·c - s·p)², squared and summed elementwise (no BLAS), with s =
    2**shift shared by both sides.  A float32 product first gives every
    centroid's |c|² - 2p·c, which differs from the squared distance by the
    same |p|² for all of them, to within E = 8(d+2)·u₃₂·(|p| + max|c|)² +
    8(d+2)·tiny₃₂: Higham's γ term for the product and its sums, the
    float32 conversion and underflow, and the float64 rounding.  So the
    word is among the centroids whose float32 value lies within 2E of the
    row's float32 minimum: a row with one such centroid has it as its word
    without further work, and the rows with more (and any whose float32
    sums could overflow) are decided by the elementwise sum over those
    centroids alone.  The float32 pass only prunes; it cannot change a
    word, so a word does not depend on the chunking, the worker count or
    the BLAS kernel.  The distance returned is the word's elementwise
    value; the bound is the second float32 value less E, 0 on rows the
    elementwise pass decided (infinite when k is 1).

    Rows are taken in chunks whose float32 block stays within
    ``_CHUNK_BYTES``, and of at most ceil(n / workers) rows, mapped by
    ``fan`` (a ``core.fan_out`` map for threads).  ``rows`` restricts the
    search to those rows of ``points``, gathered a chunk at a time; a
    gathered chunk's float32 rows and its block fit the block that all n
    rows would use.
    """
    n, dim = points.exact.shape
    k = centroids.exact.shape[0]
    m = n if rows is None else rows.size
    words = np.empty(m, dtype=np.intp)
    d2_min = np.empty(m) if bounds else None
    d2_next = np.empty(m) if bounds else None
    step = min(_CHUNK_BYTES // (4 * k), -(-n // workers))
    if rows is not None:
        step = step * k // (k + dim + 1)
    step = max(1, min(step, -(-m // workers)))

    def chunk(start: int) -> None:
        stop = min(start + step, m)
        at = slice(start, stop) if rows is None else rows[start:stop]
        i = np.arange(stop - start)
        reach = (np.sqrt(points.sq[at]) + centroids.norm_max) ** 2
        err = 8.0 * (dim + 2) * (_U32 * reach + _TINY32)
        safe = reach < _SAFE32  # no float32 partial sum can overflow
        with np.errstate(over="ignore", invalid="ignore"):  # unsafe rows keep every centroid
            y = points.single[at] @ centroids.single  # |c|² - 2p·c
            w = np.argmin(y, axis=1)
            limit = np.nextafter((y[i, w] + 2.0 * err).astype(np.float32), np.float32(np.inf))
            y[i, w] = np.inf
            runner_up = y.min(axis=1)
        many = np.flatnonzero(~(safe & (runner_up > limit)))
        if many.size:
            close = y[many] <= limit[many, None]
            close[np.arange(many.size), w[many]] = True
            close[~safe[many]] = True
            r, c = np.divmod(np.flatnonzero(close), k)  # row-major, as np.nonzero, but faster
            at_many = start + many if rows is None else rows[start + many]
            d2 = _sq_diffs(centroids.exact[c] - points.exact[at_many[r]])
            # by row, then distance; stable, so ties keep the lowest id first
            first = np.lexsort((d2, r))[np.flatnonzero(np.diff(r, prepend=-1))]
            w[many] = c[first]
        words[start:stop] = w
        if bounds:
            d2_min[start:stop] = _sq_diffs(centroids.exact[w] - points.exact[at])
            d2_next[start:stop] = runner_up + points.sq[at] - err
            d2_next[start + many] = 0.0

    list(fan(chunk, range(0, m, step)))
    return (words, d2_min, d2_next) if bounds else words


@dataclass(frozen=True)
class PyramidConfig:
    """Spatial pyramid grids and the vocabulary size per level."""

    levels: tuple[int, ...] = (1, 2, 3, 4)
    vocab_sizes: tuple[int, ...] = FULL_VOCAB_SIZES

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("pyramid needs at least one level")
        if len(self.levels) != len(self.vocab_sizes):
            raise ValidationError("levels and vocab_sizes lengths differ")
        if min(self.levels) < 1 or min(self.vocab_sizes) < 1:
            raise ValidationError("grids and vocab sizes must be >= 1")

    @property
    def encoded_dim(self) -> int:
        return sum(g * g * k for g, k in zip(self.levels, self.vocab_sizes))


@dataclass
class VocabularyLevel:
    """One pyramid level's grid and centroid rows.  The centroids are
    frozen (read-only), so the search form ``_nearest`` reads, derived from
    them once, cannot go stale; it is neither compared nor saved."""

    grid: int
    centroids: np.ndarray

    def __post_init__(self):
        self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float64)
        self.centroids.setflags(write=False)

    @functools.cached_property
    def _search(self) -> _Scaled:
        return _Scaled(self.centroids, _shift(self.centroids), centroids=True)


@dataclass
class Vocabulary:
    """Per-level centroid matrices plus the SIFT settings the centroids
    were built from."""

    levels: list[VocabularyLevel]
    sift: DenseSiftConfig

    def __post_init__(self):
        for lv in self.levels:
            if not np.isfinite(lv.centroids).all():
                raise ValidationError("vocabulary centroids must be finite")

    @property
    def pyramid(self) -> PyramidConfig:
        """The pyramid the levels encode: each one's grid and word count."""
        return PyramidConfig(tuple(lv.grid for lv in self.levels),
                             tuple(lv.centroids.shape[0] for lv in self.levels))


def _sample_ids(n: int, cap: int, seed) -> np.ndarray:
    """Sorted ids of a uniform without-replacement sample of ``cap`` of ``n``
    rows; every id when n <= cap."""
    if cap < 1:
        raise ValidationError(f"subsample cap must be >= 1, got {cap}")
    if n <= cap:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=cap, replace=False))


def build_vocab(
    images,
    sift: DenseSiftConfig,
    pyramid: PyramidConfig,
    seed: int,
    subsample_cap: int = SUBSAMPLE_CAP,
    workers: int = 1,
) -> Vocabulary:
    """Cluster descriptors of all training images into one vocabulary per
    pyramid level.

    The sample is the ``_sample_ids`` rows of every image's descriptors
    stacked, without the stack: its row ids are drawn first from the count
    the window grid gives, and each image keeps only its drawn rows as it
    is extracted.  Level ``li`` is ``kmeans`` of the sample, seeded
    ``[seed, 23, li]``.
    """
    check_workers(workers)
    if not images:
        raise ValidationError("need at least one training image")
    counts = [_window_grid(np.shape(img), sift)[1][0].size for img in images]  # windows' x
    ends = np.cumsum(counts)
    ids = _sample_ids(int(ends[-1]), subsample_cap, [seed, 17])
    sample = np.empty((ids.size, sift.descriptor_dim))
    for img, first, end in zip(images, ends - counts, ends):
        lo, hi = np.searchsorted(ids, (first, end))
        sample[lo:hi] = dense_sift(img, sift).vectors[ids[lo:hi] - first]
    levels = [VocabularyLevel(grid, kmeans(sample, k, seed=[seed, 23, li], workers=workers))
              for li, (grid, k) in enumerate(zip(pyramid.levels, pyramid.vocab_sizes))]
    return Vocabulary(levels=levels, sift=sift)


def _cell_index(coord, extent: int, grid: int):
    """Grid cell of pixel coordinates (a scalar or an array, truncated to
    integers); exact boundaries fall to the lower cell."""
    u = np.asarray(coord, dtype=np.intp) * grid
    c = u // extent
    c -= (c > 0) & (u % extent == 0)
    return np.minimum(c, grid - 1)


def encode(
    descriptors: DescriptorSet,
    vocab: Vocabulary,
    pyramid: PyramidConfig,
    image_size: tuple[int, int],
) -> np.ndarray:
    """Binary word-presence vector over the spatial pyramid.

    Output blocks follow pyramid level order; within a level, cells in
    row-major order; within a cell, word index.  Entry is 1 iff some
    descriptor centered in the cell has the word as its ``_nearest`` word
    at that level (scaled by the power of two of the level's centroids):
    its exact nearest centroid by the elementwise squared distance, ties
    to the lowest word id.
    """
    if vocab.pyramid != pyramid:
        raise LevelMismatch(f"vocabulary pyramid {vocab.pyramid} does not match {pyramid}")
    for lv in vocab.levels:
        if lv.centroids.shape[1] != descriptors.vectors.shape[1]:
            raise DimMismatch(
                f"descriptor dim {descriptors.vectors.shape[1]} vs vocabulary "
                f"dim {lv.centroids.shape[1]}"
            )
    width, height = image_size
    out = np.zeros(pyramid.encoded_dim)
    offset = 0
    points = {}  # the descriptors scaled as each level's centroids, one form per shift
    for lv in vocab.levels:
        grid, k = lv.grid, lv.centroids.shape[0]
        shift = lv._search.shift
        if shift not in points:
            points[shift] = _Scaled(descriptors.vectors, shift)
        words = _nearest(points[shift], lv._search)
        cells = (_cell_index(descriptors.y, height, grid) * grid
                 + _cell_index(descriptors.x, width, grid))
        out[offset + cells * k + words] = 1.0
        offset += grid * grid * k
    return out


def save_vocab(vocab: Vocabulary, path) -> None:
    s = vocab.sift
    with open(path, "wb") as fh:
        fh.write(VOCAB_MAGIC + struct.pack(f"<III{len(s.bin_sizes)}I", 2, len(vocab.levels),
                                           len(s.bin_sizes), *s.bin_sizes))
        fh.write(struct.pack("<IIId", s.step, s.orientations, s.spatial_bins,
                             s.contrast_threshold))
        for lv in vocab.levels:
            k, dim = lv.centroids.shape
            fh.write(struct.pack("<III", lv.grid, k, dim))
            fh.write(lv.centroids.astype("<f8").tobytes())


def load_vocab(path) -> Vocabulary:
    """Read a version-2 vocabulary file; a file whose levels state no
    pyramid (no level, or a level of no word) fails here, not at first use."""
    with open(path, "rb") as fh, reading(path):
        f = BinaryFile(fh, path, "vocabulary", VOCAB_MAGIC, 2)
        n_levels, n_bins = f.read("<II")
        bin_sizes = f.read(f"<{n_bins}I")
        sift = DenseSiftConfig(bin_sizes, *f.read("<IIId"))
        levels = []
        for _ in range(n_levels):
            grid, k, dim = f.read("<III")
            levels.append(VocabularyLevel(grid, f.floats(k * dim).reshape(k, dim)))
        f.end()
        vocab = Vocabulary(levels=levels, sift=sift)
        vocab.pyramid  # raises where the levels state none
    return vocab
