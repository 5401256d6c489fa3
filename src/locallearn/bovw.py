"""Handcrafted feature pipeline: dense multi-scale upright SIFT, k-means
vocabularies per pyramid level, and binary word-presence encoding over a
spatial pyramid.

Descriptors are the classic 4x4x8 gradient-orientation histograms with
trilinear binning and Gaussian spatial weighting, extracted upright (no
orientation assignment) on a regular grid at several bin sizes.  Low
contrast descriptors are zeroed.  A window's spatial weight is the outer
product of one 1-D profile (bin interpolation times the Gaussian) with
itself, so its sums are separable: one along x, then one along y, over
strided views of the orientation maps, with no window copied.  Both are
two-operand einsums, which numpy sums in its own loops and not in BLAS,
whose kernels differ by CPU in the last bits; so descriptor bits do not
depend on the BLAS kernel.  Each pyramid level owns a k-means vocabulary;
a cell's bit for a word is set iff some descriptor centered in the cell
has that word as its exact nearest centroid at that level.  One helper,
``_nearest``, makes that decision for both k-means and encoding.

Default vocabulary sizes follow the full-scale recipe (17000/14000/11000/
8000 over 1x1..4x4 grids); ``DESK_VOCAB_SIZES`` ships a small profile for
tests and experiments.

Images are 8-bit grayscale arrays; ``read_pgm``/``write_pgm`` handle the
only supported container (binary PGM, P5).  The vocabulary serializes to
a binary format: magic ``LLVB``, u32 version (2), u32 level count, the
extraction settings, then per level u32 grid, u32 k, u32 dim and the
centroid rows as little-endian f64.  Version 1 files, which also hold a
24-byte forest block after the level count, still load.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import check_finite, check_workers, fan_out
from .errors import DimMismatch, ImageTooSmall, LevelMismatch, MalformedFile, ValidationError

VOCAB_MAGIC = b"LLVB"
FULL_VOCAB_SIZES = (17000, 14000, 11000, 8000)
DESK_VOCAB_SIZES = (100, 80, 60, 40)
_CHUNK_BYTES = 16 * 2**20  # distance block per chunk; 4,000 x 340 k-means rows fit one


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
    scale: np.ndarray

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _orientation_maps(img01: np.ndarray, n_orient: int) -> np.ndarray:
    """(n_orient, H, W) gradient magnitude split linearly across the two
    adjacent orientation bins."""
    gy, gx = np.gradient(img01)
    mag = np.hypot(gx, gy)
    ang = np.mod(np.arctan2(gy, gx), 2.0 * np.pi)
    pos = ang * n_orient / (2.0 * np.pi)
    lo = np.floor(pos).astype(np.intp) % n_orient
    frac = pos - np.floor(pos)
    maps = np.zeros((n_orient,) + img01.shape)
    for b in range(n_orient):
        maps[b] += np.where(lo == b, mag * (1.0 - frac), 0.0)
        maps[b] += np.where((lo + 1) % n_orient == b, mag * frac, 0.0)
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


def dense_sift(img: np.ndarray, cfg: DenseSiftConfig = DenseSiftConfig()) -> DescriptorSet:
    """Extract upright dense SIFT descriptors on a regular grid.

    Descriptors are L2-normalized, clamped at 0.2, renormalized; windows
    with pre-normalization norm below the contrast threshold yield the
    zero vector.  Order: bin sizes in config order, then row-major grid.
    Each descriptor is two separable weighted window sums (along x, then
    along y) in numpy's own einsum loops, not in BLAS, so its bits do not
    depend on the BLAS kernel.  A NaN or infinite pixel raises
    ``NonFiniteValue`` before any arithmetic.
    """
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValidationError("image must be a 2-D grayscale array")
    h, w = img.shape
    largest = cfg.spatial_bins * max(cfg.bin_sizes)
    if h < largest or w < largest:
        raise ImageTooSmall(
            f"image {w}x{h} cannot fit a {largest}x{largest} descriptor window"
        )
    img01 = img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else img.astype(np.float64)
    check_finite(img01, "image: ")
    omaps = _orientation_maps(img01, cfg.orientations)
    vec_blocks, xs_all, ys_all, sc_all = [], [], [], []
    for b in cfg.bin_sizes:
        side = cfg.spatial_bins * b
        half = side // 2
        starts_y = np.arange(0, h - side + 1, cfg.step)
        starts_x = np.arange(0, w - side + 1, cfg.step)
        n_windows = starts_y.size * starts_x.size
        axis = _axis_weights(b, cfg.spatial_bins)
        # No `optimize`: with it, einsum may hand a contraction to BLAS.
        cols = sliding_window_view(omaps, side, axis=2)[:, :, :: cfg.step]  # (O, H, nx, side)
        across = np.einsum("oyxj,cj->oyxc", cols, axis)
        rows = sliding_window_view(across, side, axis=1)[:, :: cfg.step]  # (O, ny, nx, c, side)
        desc = np.einsum("oyxci,ri->yxrco", rows, axis).reshape(n_windows, cfg.descriptor_dim)
        norms = np.linalg.norm(desc, axis=1)
        low = norms < cfg.contrast_threshold
        desc[low] = 0.0
        keep = ~low
        desc[keep] /= norms[keep, None]
        np.minimum(desc, 0.2, out=desc)
        renorm = np.linalg.norm(desc[keep], axis=1)
        desc[keep] /= renorm[:, None]
        gy, gx = np.meshgrid(starts_y + half, starts_x + half, indexing="ij")
        vec_blocks.append(desc)
        xs_all.append(gx.ravel())
        ys_all.append(gy.ravel())
        sc_all.append(np.full(n_windows, b, dtype=np.intp))
    return DescriptorSet(
        vectors=np.vstack(vec_blocks),
        x=np.concatenate(xs_all),
        y=np.concatenate(ys_all),
        scale=np.concatenate(sc_all),
    )


def kmeans(
    points: np.ndarray,
    k: int,
    seed,
    max_iters: int = 100,
    return_history: bool = False,
    workers: int = 1,
):
    """Euclidean k-means with k-means++ seeding; deterministic given seed.

    A new seed c recomputes D² only where a point's nearest seed a has
    |c - a|² < 4·D² (triangle inequality, with margins for rounding) and
    keeps it where strictly smaller, so each D² and seed equals a full update's.

    Empty clusters are repaired by stealing the farthest point of the
    cluster with the largest within-cluster sum of squares.  When k exceeds
    the point count, every point becomes a centroid and the remaining slots
    are filled with copies of the points farthest from the data mean.
    Nearest-centroid ties break to the lowest centroid id.  It stops when
    an assignment repeats the repaired one before it or any earlier one,
    from which the iterations would cycle (as they do with fewer distinct
    points than k).  The assignment step's row chunks are mapped by one
    ``core.fan_out(workers)`` per call (a ``workers`` < 1 is rejected,
    even where k >= n); every row's answer is independent of the
    chunking, so the outcome is identical for any count.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValidationError("need a non-empty 2-D point set")
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
            return (centroids, [0.0]) if return_history else centroids
        centroids = points[_kmeanspp(points, k, rng)].copy()
        assign, seen = np.full(n, -1, dtype=np.intp), set()
        history: list[float] = []
        for _ in range(max_iters):
            new_assign, d2_min = _nearest(points, centroids, fan, workers)
            history.append(float(d2_min.sum()))
            key = hashlib.blake2b(new_assign).digest()
            if np.array_equal(new_assign, assign) or key in seen:
                break
            seen.add(key)
            assign = new_assign
            counts = np.bincount(assign, minlength=k)
            # stable grouping keeps each cluster's rows in index order
            grouped = points[np.argsort(assign, kind="stable")]
            ends = np.cumsum(counts)
            for c in np.flatnonzero(counts):
                centroids[c] = grouped[ends[c] - counts[c]:ends[c]].mean(axis=0)
            del grouped  # an n x d copy: not kept through the repair and next assignment
            for e in np.flatnonzero(counts == 0):
                costs = np.linalg.norm(points - centroids[assign], axis=1)
                per_cluster = np.zeros(k)
                np.add.at(per_cluster, assign, costs**2)
                donor = int(np.argmax(per_cluster))
                donor_rows = np.flatnonzero(assign == donor)
                far = donor_rows[int(np.argmax(costs[donor_rows]))]
                centroids[e] = points[far]
                assign[far] = e
                centroids[donor] = points[assign == donor].mean(axis=0)
    return (centroids, history) if return_history else centroids


def _kmeanspp(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = rng.integers(n)
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
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
        c = points[chosen[j]]
        # |x - c| >= |c - a| - |x - a|; the margins cover rounding, subnormal too
        reach = np.sum((points[chosen[:j]] - c) ** 2, axis=1)
        rows = np.flatnonzero(reach[near] < 4.0 * (1.0 + 1e-9) * d2 + np.finfo(float).tiny)
        new = np.sum((points[rows] - c) ** 2, axis=1)
        closer = new < d2[rows]  # where np.minimum(d2, new) would take new
        d2[rows[closer]], near[rows[closer]] = new[closer], j
    return chosen


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d2 = points @ centroids.T
    d2 *= -2.0
    d2 += p2
    d2 += c2
    np.maximum(d2, 0.0, out=d2)
    return d2


def _nearest(
    points: np.ndarray, centroids: np.ndarray, fan=map, workers: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Each point's exact nearest centroid and the squared distance to it.

    Ties go to the lowest centroid id.  Rows are taken in chunks whose
    distance block stays within ``_CHUNK_BYTES``, and of at most
    ceil(n / workers) rows, mapped by ``fan`` (a ``core.fan_out`` map for
    threads).  Every row's answer is independent of the chunking.
    """
    n = points.shape[0]
    words = np.empty(n, dtype=np.intp)
    d2_min = np.empty(n)
    step = max(1, min(_CHUNK_BYTES // (8 * centroids.shape[0]), -(-n // workers)))

    def chunk(start: int) -> None:
        d2 = _sq_dists(points[start : start + step], centroids)
        w = np.argmin(d2, axis=1)
        words[start : start + w.size] = w
        d2_min[start : start + w.size] = d2[np.arange(w.size), w]

    list(fan(chunk, range(0, n, step)))
    return words, d2_min


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
    grid: int
    centroids: np.ndarray


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


def subsample_rows(points: np.ndarray, cap: int, seed) -> np.ndarray:
    """Uniform without-replacement row subsample (identity when under cap);
    surviving rows keep their relative order."""
    if cap < 1:
        raise ValidationError(f"subsample cap must be >= 1, got {cap}")
    n = points.shape[0]
    if n <= cap:
        return points
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(n, size=cap, replace=False))
    return points[rows]


def build_vocab(
    images,
    sift: DenseSiftConfig,
    pyramid: PyramidConfig,
    seed: int,
    subsample_cap: int = 200_000,
    workers: int = 1,
) -> Vocabulary:
    """Cluster descriptors of all training images into one vocabulary per
    pyramid level."""
    check_workers(workers)
    if not images:
        raise ValidationError("need at least one training image")
    pooled = np.vstack([dense_sift(img, sift).vectors for img in images])
    return build_vocab_from_descriptors(pooled, sift, pyramid, seed, subsample_cap, workers)


def build_vocab_from_descriptors(
    descriptors: np.ndarray,
    sift: DenseSiftConfig,
    pyramid: PyramidConfig,
    seed: int,
    subsample_cap: int = 200_000,
    workers: int = 1,
) -> Vocabulary:
    sample = subsample_rows(descriptors, subsample_cap, [seed, 17])
    levels = []
    for li, (grid, k) in enumerate(zip(pyramid.levels, pyramid.vocab_sizes)):
        centroids = kmeans(sample, k, seed=[seed, 23, li], workers=workers)
        levels.append(VocabularyLevel(grid, centroids))
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
    descriptor centered in the cell has the word as its nearest centroid
    at that level (ties to the lowest word id).
    """
    if len(vocab.levels) != len(pyramid.levels):
        raise LevelMismatch(
            f"vocabulary has {len(vocab.levels)} levels, pyramid {len(pyramid.levels)}"
        )
    for lv, (grid, k) in zip(vocab.levels, zip(pyramid.levels, pyramid.vocab_sizes)):
        if lv.grid != grid or lv.centroids.shape[0] != k:
            raise LevelMismatch(
                f"vocabulary level (grid {lv.grid}, k {lv.centroids.shape[0]}) does "
                f"not match pyramid level (grid {grid}, k {k})"
            )
        if lv.centroids.shape[1] != descriptors.vectors.shape[1]:
            raise DimMismatch(
                f"descriptor dim {descriptors.vectors.shape[1]} vs vocabulary "
                f"dim {lv.centroids.shape[1]}"
            )
    width, height = image_size
    out = np.zeros(pyramid.encoded_dim)
    offset = 0
    for lv in vocab.levels:
        grid, k = lv.grid, lv.centroids.shape[0]
        words, _ = _nearest(descriptors.vectors, lv.centroids)
        cells = (_cell_index(descriptors.y, height, grid) * grid
                 + _cell_index(descriptors.x, width, grid))
        out[offset + cells * k + words] = 1.0
        offset += grid * grid * k
    return out


def save_vocab(vocab: Vocabulary, path) -> None:
    s = vocab.sift
    with open(path, "wb") as fh:
        fh.write(VOCAB_MAGIC)
        fh.write(struct.pack("<II", 2, len(vocab.levels)))
        fh.write(struct.pack("<I", len(s.bin_sizes)))
        for b in s.bin_sizes:
            fh.write(struct.pack("<I", b))
        fh.write(struct.pack("<IIId", s.step, s.orientations, s.spatial_bins,
                             s.contrast_threshold))
        for lv in vocab.levels:
            k, dim = lv.centroids.shape
            fh.write(struct.pack("<III", lv.grid, k, dim))
            fh.write(lv.centroids.astype("<f8").tobytes())


def load_vocab(path) -> Vocabulary:
    blob = Path(path).read_bytes()
    if blob[:4] != VOCAB_MAGIC:
        raise MalformedFile(f"{path}: bad vocabulary magic")
    try:
        version, n_levels = struct.unpack_from("<II", blob, 4)
        if version not in (1, 2):
            raise MalformedFile(f"{path}: unsupported vocabulary version {version}")
        off = 12 if version == 2 else 36  # v1 holds a 24-byte kd-forest block here
        (n_bins,) = struct.unpack_from("<I", blob, off)
        off += 4
        bin_sizes = struct.unpack_from(f"<{n_bins}I", blob, off)
        off += 4 * n_bins
        step, orient, sbins, contrast = struct.unpack_from("<IIId", blob, off)
        off += struct.calcsize("<IIId")
        sift = DenseSiftConfig(tuple(bin_sizes), step, orient, sbins, contrast)
        levels = []
        for _ in range(n_levels):
            grid, k, dim = struct.unpack_from("<III", blob, off)
            off += 12
            if len(blob) - off < 8 * k * dim:
                raise MalformedFile(f"{path}: truncated vocabulary centroid block")
            cents = np.frombuffer(blob, dtype="<f8", count=k * dim, offset=off)
            off += k * dim * 8
            levels.append(VocabularyLevel(grid, cents.reshape(k, dim).copy()))
    except struct.error as exc:
        raise MalformedFile(f"{path}: truncated vocabulary file: {exc}")
    if off != len(blob):
        raise MalformedFile(f"{path}: {len(blob) - off} trailing bytes")
    return Vocabulary(levels=levels, sift=sift)
