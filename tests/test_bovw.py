import dataclasses
import functools
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from locallearn import bovw
from locallearn.bovw import (
    DESK_VOCAB_SIZES,
    DenseSiftConfig,
    DescriptorSet,
    PyramidConfig,
    Vocabulary,
    VocabularyLevel,
    _cell_index,
    _kmeanspp,
    _nearest,
    build_vocab,
    dense_sift,
    encode,
    kmeans,
    load_vocab,
    read_pgm,
    save_vocab,
    write_pgm,
)
from locallearn.errors import (
    DimMismatch,
    ImageTooSmall,
    LevelMismatch,
    MalformedFile,
    NonFiniteValue,
    ValidationError,
)

from locallearn.cli import main as cli_main
from locallearn.core import fan_out
from locallearn.synth import texture_corpus

from oracles import (
    brute_dense_sift,
    brute_nn_euclidean,
    brute_words,
    kmeans_full,
    kmeanspp_full,
    search_shift,
)

ROOT = Path(__file__).resolve().parent.parent


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (20, 30), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", img)
        assert np.array_equal(read_pgm(tmp_path / "a.pgm"), img)

    def test_comment_in_header(self, tmp_path):
        img = np.zeros((2, 2), dtype=np.uint8)
        raw = b"P5\n# a comment\n2 2\n255\n" + img.tobytes()
        (tmp_path / "c.pgm").write_bytes(raw)
        assert np.array_equal(read_pgm(tmp_path / "c.pgm"), img)

    def test_rejects_16bit(self, tmp_path):
        (tmp_path / "b.pgm").write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(MalformedFile):
            read_pgm(tmp_path / "b.pgm")

    def test_rejects_truncated(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\n\x00")
        with pytest.raises(MalformedFile):
            read_pgm(tmp_path / "t.pgm")


class TestDenseSift:
    def test_constant_image_all_zero(self):
        img = np.full((24, 24), 77, dtype=np.uint8)
        descs = dense_sift(img, DenseSiftConfig(bin_sizes=(4,), step=4))
        assert len(descs) > 0
        assert np.all(descs.vectors == 0.0)

    def test_descriptor_dim_128(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        descs = dense_sift(img, DenseSiftConfig(bin_sizes=(4, 6), step=4))
        assert descs.vectors.shape[1] == 128

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        descs = dense_sift(img, DenseSiftConfig(bin_sizes=(4, 8), step=6))
        assert descs.vectors.min() >= 0.0
        assert descs.vectors.max() <= 1.0 + 1e-12

    def test_vertical_edge_mass_in_horizontal_gradient_bins(self):
        # A vertical step edge has purely horizontal gradients, i.e.
        # orientations 0 or pi, which are orientation bins 0 and 4 of 8.
        img = np.zeros((16, 16), dtype=np.uint8)
        img[:, 8:] = 255
        descs = dense_sift(img, DenseSiftConfig(bin_sizes=(4,), step=16))
        vec = descs.vectors[0].reshape(16, 8)
        by_orientation = vec.sum(axis=0)
        mass = by_orientation.sum()
        assert mass > 0
        assert (by_orientation[0] + by_orientation[4]) / mass > 0.99
        # oracle: dominant gradient direction computed directly
        gy, gx = np.gradient(img.astype(float) / 255.0)
        assert np.abs(gx).sum() > 0 and np.abs(gy).sum() == 0.0

    def test_image_too_small(self):
        with pytest.raises(ImageTooSmall):
            dense_sift(np.zeros((15, 40), dtype=np.uint8), DenseSiftConfig(bin_sizes=(4,)))

    def test_window_side_follows_spatial_bins(self):
        # A window is spatial_bins * bin_size pixels wide: 5 * 10 = 50 does
        # not fit a 48x48 image, and 2 * 13 = 26 does.
        img = texture_corpus(1, size=48, seed=0)[0][0]
        with pytest.raises(ImageTooSmall, match="50x50"):
            dense_sift(img, DenseSiftConfig(spatial_bins=5))
        cfg = DenseSiftConfig(bin_sizes=(13,), step=4, spatial_bins=2)
        descs = dense_sift(img, cfg)
        assert descs.vectors.shape == (((48 - 26) // 4 + 1) ** 2, cfg.descriptor_dim)

    @pytest.mark.parametrize("name,value", [
        ("contrast_threshold", 0.0), ("contrast_threshold", float("nan")),
        ("contrast_threshold", -1.0), ("contrast_threshold", float("inf")),
        ("orientations", 0), ("spatial_bins", 0),
    ])
    def test_config_rejects_bad_settings(self, name, value):
        # A zero or NaN threshold let flat windows divide by a zero norm.
        with pytest.raises(ValidationError):
            DenseSiftConfig(**{name: value})

    def test_grid_positions_and_scales(self):
        img = np.zeros((20, 26), dtype=np.uint8)
        descs = dense_sift(img, DenseSiftConfig(bin_sizes=(4,), step=2))
        assert descs.x.min() == 8 and descs.x.max() == 18
        assert descs.y.min() == 8 and descs.y.max() == 12
        assert len(descs) == 6 * 3
        assert descs.vectors.shape[1] == 128

    @pytest.mark.parametrize("bin_sizes", [(4,), (4, 6, 8, 10), (1, 3, 5)])
    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    @pytest.mark.parametrize("spatial_bins, orientations",
                             [(2, 4), (2, 8), (4, 4), (4, 8), (1, 8), (3, 4), (4, 1)])
    def test_matches_window_by_window_oracle(self, bin_sizes, step, spatial_bins, orientations):
        # 53x61: w - side is not a multiple of every step.  Bin size 1 has
        # one-tap supports, spatial_bins 1 a whole-window one, and odd bin
        # sizes supports that end next to an exact zero.
        cfg = DenseSiftConfig(bin_sizes=bin_sizes, step=step, spatial_bins=spatial_bins,
                              orientations=orientations)
        rng = np.random.default_rng([step, spatial_bins, orientations, len(bin_sizes)])
        for shape in ((48, 48), (53, 61)):
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            got = dense_sift(img, cfg)
            vectors, x, y = brute_dense_sift(img, cfg)
            assert got.vectors.shape == vectors.shape
            np.testing.assert_array_equal((got.vectors == 0).all(axis=1), (vectors == 0).all(axis=1))
            assert np.abs(got.vectors - vectors).max() <= 1e-12
            for a, b in ((got.x, x), (got.y, y)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spatial_bins", range(1, 7))
    def test_supports_hold_every_nonzero_axis_weight(self, spatial_bins):
        cfg = DenseSiftConfig(bin_sizes=tuple(range(1, 13)), spatial_bins=spatial_bins)
        grid, _ = bovw._window_grid((72, 72), cfg)
        for b, _, _, axis, supports in grid:
            assert len(supports) == spatial_bins
            for row, (lo, hi) in zip(axis, supports):
                assert 0 <= lo < hi <= row.size and hi - lo <= 2 * b
                assert row[lo] != 0.0 and row[hi - 1] != 0.0
                assert not row[:lo].any() and not row[hi:].any()

    def test_descriptors_never_share_a_buffer(self):
        # `encode --workers` runs dense_sift in pool threads: a cached
        # output array would be overwritten by another thread's image.
        imgs = texture_corpus(4, size=48, seed=3)[0]
        serial = [dense_sift(img).vectors for img in imgs]
        with fan_out(4) as fan:
            pooled = [d.vectors for d in fan(dense_sift, imgs)]
        assert [v.tobytes() for v in pooled] == [v.tobytes() for v in serial]
        for i, a in enumerate(serial + pooled):
            for b in (serial + pooled)[i + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        # One NaN pixel used to give NaN descriptors, which encode maps to
        # word 0 (argmin of a NaN row).
        img = np.random.default_rng(4).uniform(0.0, 1.0, (48, 48))
        img[17, 30] = bad
        with pytest.raises(NonFiniteValue) as info:
            dense_sift(img)
        assert (info.value.row, info.value.col) == (17, 30)

    @pytest.mark.parametrize("n_orient", [1, 2, 3, 8])
    def test_orientation_maps_equal_a_pass_per_bin(self, n_orient):
        # Two scatters fill the maps that 2 * n_orient masked passes did.
        img = np.random.default_rng(n_orient).uniform(0.0, 1.0, (23, 31))
        gy, gx = np.gradient(img)
        mag = np.hypot(gx, gy)
        pos = np.mod(np.arctan2(gy, gx), 2.0 * np.pi) * n_orient / (2.0 * np.pi)
        lo = np.floor(pos).astype(np.intp) % n_orient
        frac = pos - np.floor(pos)
        want = np.zeros((n_orient,) + img.shape)
        for b in range(n_orient):
            want[b] += np.where(lo == b, mag * (1.0 - frac), 0.0)
            want[b] += np.where((lo + 1) % n_orient == b, mag * frac, 0.0)
        assert bovw._orientation_maps(img, n_orient).tobytes() == want.tobytes()

    def test_descriptor_bits_do_not_depend_on_the_blas_kernel(self):
        # The window sums run in numpy's einsum loops, not in BLAS, whose
        # kernels (chosen per CPU, or forced) differ in the last bits.
        digests = {_digest_in_fresh_process("sift_digest", coretype)
                   for coretype in (None, "Prescott")}
        assert digests == {sift_digest()}


def sift_digest() -> str:
    """blake2b of the descriptor bytes of three fixed images, two of them
    non-square, at the default settings and at step 3 over bins of 4 and 6."""
    rng = np.random.default_rng(31)
    h = hashlib.blake2b()
    for shape in ((48, 48), (53, 61), (61, 44)):
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        for cfg in (DenseSiftConfig(), DenseSiftConfig(bin_sizes=(4, 6), step=3)):
            h.update(dense_sift(img, cfg).vectors.tobytes())
    return h.hexdigest()


def _digest_in_fresh_process(name: str, coretype: str | None) -> str:
    """``test_bovw.<name>()`` in a fresh process, under OpenBLAS's default
    kernel or, if given, one forced to ``coretype`` (read at start-up)."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run([sys.executable, "-c", f"import test_bovw; print(test_bovw.{name}())"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestKmeans:
    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 4))
        cents = kmeans(pts, 6, seed=0)
        assert sorted(map(tuple, cents.tolist())) == sorted(map(tuple, pts.tolist()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [2, 3])  # k-means++ draws, and k covering the points
    def test_non_finite_point_names_its_row_and_column(self, bad, k):
        # A NaN or infinity escaped from the k-means++ draw as a raw ValueError.
        points = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        points[2, 1] = bad
        with pytest.raises(NonFiniteValue, match="non-finite value at row 2, col 1") as exc:
            kmeans(points, k, seed=0)
        assert (exc.value.row, exc.value.col) == (2, 1)

    def test_workers_below_one_rejected_where_k_covers_points(self):
        with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
            kmeans(np.eye(4), 5, seed=0, workers=0)

    def test_two_blobs_recover_means(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.01, (50, 3))
        b = rng.normal(10.0, 0.01, (60, 3))
        cents = kmeans(np.vstack([a, b]), 2, seed=1)
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(cents.tolist(), key=lambda m: m[0])
        assert np.allclose(got[0], means[0], atol=1e-6)
        assert np.allclose(got[1], means[1], atol=1e-6)

    def test_wcss_non_increasing(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 8))
        # the cost of the centroids after each iteration, through the last
        _, iterations = kmeans_full(pts, 10, seed=2)
        costs = []
        for i in range(1, iterations + 1):
            cents = kmeans(pts, 10, seed=2, max_iters=i)
            costs.append(sum(np.sum((cents - p) ** 2, axis=1).min() for p in pts))
        for prev, nxt in zip(costs, costs[1:]):
            assert nxt <= prev * (1.0 + 1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(100, 5))
        assert np.array_equal(kmeans(pts, 7, seed=9), kmeans(pts, 7, seed=9))

    def test_k_exceeds_n_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        cents = kmeans(pts, 5, seed=0)
        assert cents.shape == (5, 2)
        assert np.array_equal(cents[:3], pts)
        for extra in cents[3:]:
            assert any(np.array_equal(extra, p) for p in pts)

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(500, 6))
        assert np.array_equal(kmeans(pts, 8, seed=3, workers=1), kmeans(pts, 8, seed=3, workers=4))

    def test_fewer_distinct_points_than_k_stops(self, monkeypatch):
        # The empty-cluster repair moves a duplicate onto an empty centroid
        # and the next assignment sends it back to the lowest id at its spot:
        # the loop must still stop when the assignment repeats.
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(6, 5))[np.arange(600) % 6]
        passes = _count_passes(monkeypatch, pts)
        cents = kmeans(pts, 30, seed=4, max_iters=100)
        assert len(passes) < 100
        assert np.array_equal(kmeans(pts, 30, seed=4, max_iters=100, workers=2), cents)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("case", ["sift", "duplicated", "tight clusters", "lattice",
                                      "subnormal", "fewer distinct than k", "near ties"])
    def test_pruned_matches_full_loop(self, monkeypatch, case, workers):
        # Skipping a point must never change a word: the centroids are the
        # full loop's, byte for byte, after as many iterations.
        points, k = _kmeans_cases()[case]
        passes = _count_passes(monkeypatch, points)
        got = kmeans(points, k, seed=[7, k], workers=workers)
        want, iterations = kmeans_full(points, k, seed=[7, k])
        assert got.tobytes() == want.tobytes()
        assert len(passes) == iterations

    @pytest.mark.parametrize("case, k", [("tight clusters", 12), ("tight clusters", 16),
                                         ("subnormal", 10), ("subnormal", 20),
                                         ("subnormal", 40)])
    def test_distances_below_rounding_of_a_product_still_converge(self, monkeypatch, case, k):
        # 1e-9 noise around unit-scale clusters, and points at 1e-161, are
        # lost in the cancellation of |p|² + |c|² - 2p·c: there the words
        # never repeated, and all 100 iterations ran.
        points = _seeding_cases()[case][0]
        passes = _count_passes(monkeypatch, points)
        got = kmeans(points, k, seed=[7, k], max_iters=100)
        assert len(passes) <= 10
        want, iterations = kmeans_full(points, k, seed=[7, k])
        assert got.tobytes() == want.tobytes() and len(passes) == iterations

    def test_pruned_loop_measures_fewer_rows(self, monkeypatch):
        points, k = _kmeans_cases()["sift"]
        passes = _count_passes(monkeypatch, points)
        kmeans(points, k, seed=[7, k])
        assert passes[0] == len(points)  # the first pass measures every point
        assert sum(passes) < len(passes) * len(points) / 2


def _count_passes(monkeypatch, points) -> list[int]:
    """Patch ``bovw._nearest`` to record the rows each pass over ``points``
    measures (not the centroid-to-centroid gaps); returns the record."""
    passes, nearest = [], bovw._nearest

    def counting(rows_of, centroids, *args, **kwargs):
        out = nearest(rows_of, centroids, *args, **kwargs)
        if len(rows_of.exact) == len(points):  # the gaps' call has k < n rows
            passes.append(len(out[0]))
        return out

    monkeypatch.setattr(bovw, "_nearest", counting)
    return passes


@functools.cache
def _kmeans_cases():
    """The seeding cases' points, each with a k at which the loop skips
    points, and fewer distinct points than k."""
    seeding = _seeding_cases()
    cases = {name: (seeding[name][0], k) for name, k in (
        ("sift", 20), ("duplicated", 10), ("tight clusters", 10), ("lattice", 40),
        ("subnormal", 40))}
    # 6 distinct points for k = 30: empty-cluster repairs, then a cycle
    cases["fewer distinct than k"] = (
        np.random.default_rng(16).normal(size=(6, 5))[np.arange(600) % 6], 30)
    # a disc of points on the bisector of two centroids, split 6 ways: as the
    # centroids drift, points come within a rounding of a tie between two of
    # them, where a lower bound 3E too high skips a point whose word changes
    cases["near ties"] = (_bisector_set(200, 2, 3)[0], 6)
    return cases


@functools.cache
def _seeding_cases():
    rng = np.random.default_rng(17)
    images, _ = texture_corpus(2, size=40, seed=5)
    sift = np.vstack([dense_sift(img).vectors for img in images])
    blobs = rng.normal(size=(60, 5))
    return {
        "sift": (sift[rng.permutation(len(sift))[:500]], 60),
        "duplicated": (rng.normal(size=(12, 4))[np.arange(240) % 12], 20),
        "identical": (np.full((15, 3), 0.25), 6),
        "one-dim": (rng.normal(size=(80, 1)), 25),
        "k=n-1": (blobs, 59),
        "tight clusters": (np.repeat(rng.normal(size=(8, 6)), 25, axis=0)
                           + rng.normal(scale=1e-9, size=(200, 6)), 30),
        # collinear lattice points sit on the bound, where rounding decides
        "lattice": (rng.integers(0, 40, size=(300, 2)) * 0.1, 80),
        # squared distances below the normal range round absolutely
        "subnormal": (rng.normal(size=(150, 2)) * 10.0**-161.5, 40),
    }


class _RecordingRng:
    """A generator that keeps every probability vector drawn from."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def integers(self, n):
        return self.rng.integers(n)

    def choice(self, n, p):
        self.draws.append(p.copy())
        return self.rng.choice(n, p=p)


class TestKmeansppSeeding:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", list(_seeding_cases()))
    def test_every_draw_equals_full_recompute(self, case, seed):
        # Equal probability vectors mean equal D² at every draw, bit for bit.
        points, k = _seeding_cases()[case]
        assert k < len(points)
        got, want = _RecordingRng(seed), _RecordingRng(seed)
        assert _kmeanspp(points, k, got).tolist() == kmeanspp_full(points, k, want).tolist()
        assert len(got.draws) == len(want.draws)
        assert all(np.array_equal(g, w) for g, w in zip(got.draws, want.draws))


def _search(points, centroids, **kwargs):
    """``_nearest`` as ``encode`` calls it: both sides scaled by the
    centroids' power of two."""
    shift = bovw._shift(centroids)
    return _nearest(bovw._Scaled(points, shift), bovw._Scaled(centroids, shift, centroids=True),
                    **kwargs)


def _brute(points, centroids):
    return brute_words(points, centroids, search_shift(centroids))


@functools.cache
def _bisector_set(n: int = 4000, k: int = 340, dim: int = 128):
    """(points, centroids): unit centroids, and points each equidistant from
    two of them up to rounding (a random pair's midpoint plus 0.05 along a
    unit direction perpendicular to their difference), built elementwise,
    without BLAS."""
    rng = np.random.default_rng(41)
    cents = rng.random((k, dim))
    cents /= np.sqrt((cents * cents).sum(axis=1))[:, None]
    a = rng.integers(0, k, n)
    b = (a + rng.integers(1, k, n)) % k
    u = cents[b] - cents[a]
    t = rng.normal(size=(n, dim))
    t -= ((t * u).sum(axis=1) / (u * u).sum(axis=1))[:, None] * u
    t /= np.sqrt((t * t).sum(axis=1))[:, None]
    return (cents[a] + cents[b]) / 2.0 + 0.05 * t, cents


def near_tie_digest() -> str:
    """blake2b of the words of the bisector set."""
    points, cents = _bisector_set()
    return hashlib.blake2b(_search(points, cents).tobytes()).hexdigest()


class TestNearest:
    def test_matches_oracle_at_every_chunking(self, monkeypatch):
        rng = np.random.default_rng(15)
        cents = rng.normal(size=(37, 6))
        pts = rng.normal(size=(200, 6))
        oracle = [brute_nn_euclidean(cents, q) for q in pts]
        for chunk_bytes in (bovw._CHUNK_BYTES, 4 * 37 * 7, 1):  # 1, 29 and 200 chunks
            monkeypatch.setattr(bovw, "_CHUNK_BYTES", chunk_bytes)
            words, d2, _ = _search(pts, cents, bounds=True)
            assert words.tolist() == [w for w, _ in oracle]
            assert np.allclose(np.sqrt(d2), [d for _, d in oracle], atol=1e-12)

    def test_ties_go_to_lowest_id(self):
        cents = np.array([[1.0, 1.0]] * 5 + [[3.0, 3.0]] * 5)
        words, d2, _ = _search(np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]), cents, bounds=True)
        assert words.tolist() == [0, 5, 0]  # the last query is equidistant
        assert d2.tolist() == [0.0, 0.0, 2.0]

    def test_near_ties_exact_at_any_chunking_rows_workers_and_blas_kernel(self, monkeypatch):
        # Each point is equidistant from two centroids up to rounding, so a
        # distance rounded by a BLAS product would pick its word by the
        # block's shape and the kernel; the elementwise decision cannot.
        points, cents = _bisector_set()
        want = _brute(points, cents)
        subsets = (np.arange(len(points))[::-1], np.arange(1, len(points), 3))
        for rows_per_chunk in (1, 7, 64, len(points)):
            monkeypatch.setattr(bovw, "_CHUNK_BYTES", 4 * len(cents) * rows_per_chunk)
            for workers in (1, 2, 3) if rows_per_chunk > 1 else (1,):
                with fan_out(workers) as fan:
                    got = _search(points, cents, fan=fan, workers=workers)
                    assert np.array_equal(got, want), (rows_per_chunk, workers)
                    for rows in subsets:
                        got = _search(points, cents, fan=fan, workers=workers, rows=rows)
                        assert np.array_equal(got, want[rows]), (rows_per_chunk, workers)
        digest = hashlib.blake2b(want.tobytes()).hexdigest()
        assert {_digest_in_fresh_process("near_tie_digest", coretype)
                for coretype in (None, "Prescott")} == {digest}

    @pytest.mark.parametrize("scale", [1e-160, 1e-150, 1.0, 1e150])  # 1e-160: subnormal squares
    def test_matches_brute_force_at_every_scale(self, scale):
        points, cents = _bisector_set(300, 40, 16)
        rng = np.random.default_rng(43)
        points = np.vstack([points, rng.random((100, 16)), np.zeros((3, 16))]) * scale
        cents = cents * scale
        assert bovw._shift(cents) != 0 or scale == 1.0  # the scaled path runs
        words, d2, _ = _search(points, cents, bounds=True)
        assert np.array_equal(words, _brute(points, cents))
        assert np.all(d2 > 0.0)  # no squared distance underflows

    def test_zero_descriptors_take_the_shortest_centroid(self):
        cents = np.array([[3.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        assert _search(np.zeros((4, 2)), cents).tolist() == [3] * 4
        assert _search(np.ones((2, 2)), np.zeros((3, 2))).tolist() == [0, 0]

    def test_duplicate_centroids_tie_to_the_lowest_id(self):
        points, cents = _bisector_set(300, 40, 16)
        cents = cents.copy()
        cents[[9, 17, 30]] = cents[[2, 2, 5]]
        near = np.vstack([points, cents, cents + 1e-9])
        words = _search(near, cents)
        assert np.array_equal(words, _brute(near, cents))
        assert not np.isin(words, [9, 17, 30]).any()

    def test_centroids_one_ulp_apart(self):
        rng = np.random.default_rng(44)
        base = rng.random((20, 8))
        cents = np.vstack([base, np.nextafter(base, np.inf)])  # word i and i + 20 differ by an ulp
        points = np.vstack([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf),
                            np.nextafter(np.nextafter(base, np.inf), np.inf)])
        words = _search(points, cents)
        assert np.array_equal(words, _brute(points, cents))
        assert np.array_equal(words[:40], np.tile(np.arange(20), 2))
        assert np.array_equal(words[40:], np.tile(np.arange(20, 40), 2))

    def test_single_centroid(self):
        points = np.random.default_rng(45).normal(size=(50, 4))
        words, d2, bound = _search(points, np.ones((1, 4)), bounds=True)
        assert words.tolist() == [0] * 50
        assert np.array_equal(d2, np.sum((1.0 - points) ** 2, axis=1))
        assert np.all(bound == np.inf)  # no other centroid

    def test_empty_rows(self):
        points, cents = _bisector_set(300, 40, 16)
        empty = np.array([], dtype=np.intp)
        assert _search(points, cents, rows=empty).shape == (0,)
        words, d2, bound = _search(points, cents, rows=empty, bounds=True)
        assert words.shape == d2.shape == bound.shape == (0,)


class TestEncode:
    def _toy_vocab(self, centroids_per_level, grids):
        levels = [
            VocabularyLevel(grid, np.asarray(cents, dtype=np.float64))
            for cents, grid in zip(centroids_per_level, grids)
        ]
        return Vocabulary(levels=levels, sift=DenseSiftConfig())

    def _descset(self, vectors, xs, ys):
        vectors = np.asarray(vectors, dtype=np.float64)
        return DescriptorSet(vectors=vectors, x=np.asarray(xs), y=np.asarray(ys))

    def test_toy_example_exact_bits(self):
        # 2 words, levels {1x1, 2x2}; one descriptor in the top-left
        # quadrant quantizing to word 0 -> dim 10 with exactly two ones.
        words = [[0.0, 0.0], [10.0, 10.0]]
        vocab = self._toy_vocab([words, words], [1, 2])
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(2, 2))
        descs = self._descset([[0.1, 0.0]], [5], [7])
        out = encode(descs, vocab, pyr, (32, 32))
        assert out.shape == (10,)
        expected = np.zeros(10)
        expected[0] = 1.0  # level 0, cell 0, word 0
        expected[2] = 1.0  # level 1, cell (0,0), word 0
        assert np.array_equal(out, expected)

    def test_zero_descriptors_zero_vector(self):
        vocab = self._toy_vocab([[[0.0], [1.0]]], [1])
        pyr = PyramidConfig(levels=(1,), vocab_sizes=(2,))
        descs = self._descset(np.zeros((0, 1)), [], [])
        assert np.array_equal(encode(descs, vocab, pyr, (16, 16)), np.zeros(2))

    def test_output_binary_and_dim_fixed(self):
        rng = np.random.default_rng(7)
        words = rng.normal(size=(3, 2))
        vocab = self._toy_vocab([words, words], [1, 2])
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(3, 3))
        for n in (1, 5, 20):
            descs = self._descset(
                rng.normal(size=(n, 2)),
                rng.integers(0, 32, n),
                rng.integers(0, 32, n),
            )
            out = encode(descs, vocab, pyr, (32, 32))
            assert out.shape == (pyr.encoded_dim,)
            assert set(np.unique(out)) <= {0.0, 1.0}

    def test_level_mismatch(self):
        vocab = self._toy_vocab([[[0.0], [1.0]]], [1])
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(2, 2))
        with pytest.raises(LevelMismatch):
            encode(self._descset([[0.5]], [1], [1]), vocab, pyr, (16, 16))

    def test_descriptor_dim_mismatch(self):
        vocab = self._toy_vocab([[[0.0, 0.0], [1.0, 1.0]]], [1])
        pyr = PyramidConfig(levels=(1,), vocab_sizes=(2,))
        with pytest.raises(DimMismatch):
            encode(self._descset([[0.5, 0.5, 0.5]], [1], [1]), vocab, pyr, (16, 16))

    def test_full_scale_dim_closed_form(self):
        pyr = PyramidConfig()  # full-scale defaults: 1..4 grids, 17k/14k/11k/8k
        assert pyr.encoded_dim == 1 * 17000 + 4 * 14000 + 9 * 11000 + 16 * 8000
        assert pyr.encoded_dim == 300000
        desk = PyramidConfig(vocab_sizes=DESK_VOCAB_SIZES)
        assert desk.encoded_dim == 1 * 100 + 4 * 80 + 9 * 60 + 16 * 40 == 1600

    def test_boundary_descriptor_goes_to_lower_cell(self):
        # x = 16 on a 32-wide image with a 2x2 grid sits exactly on the
        # cell boundary -> belongs to column 0.
        assert _cell_index(16, 32, 2) == 0
        assert _cell_index(17, 32, 2) == 1
        assert _cell_index(0, 32, 2) == 0
        assert _cell_index(31, 32, 2) == 1
        # arrays follow the same rule element by element
        coords = np.arange(-3, 52)
        cells = _cell_index(coords, 48, 3)
        assert cells.tolist() == [_cell_index(int(c), 48, 3) for c in coords]

    def test_matches_brute_force_nearest_centroid(self):
        rng = np.random.default_rng(8)
        # Real-valued data, then small integers with duplicated centroids:
        # there every distance is exact, so ties are real and must go to
        # the lowest word id.
        lattice = rng.integers(-2, 3, size=(17, 3)).astype(float)
        lattice[[9, 13]] = lattice[[2, 5]]
        cases = [
            (rng.normal(size=(17, 6)), rng.normal(size=(30, 6))),
            (lattice, rng.integers(-2, 3, size=(60, 3)).astype(float)),
        ]
        ties = 0
        for words, vectors in cases:
            n = len(vectors)
            vocab = self._toy_vocab([words], [2])
            pyr = PyramidConfig(levels=(2,), vocab_sizes=(17,))
            descs = self._descset(vectors, rng.integers(0, 48, n), rng.integers(0, 48, n))
            out = encode(descs, vocab, pyr, (48, 48))
            expected = np.zeros(pyr.encoded_dim)
            for i in range(n):
                word, _ = brute_nn_euclidean(words, descs.vectors[i])
                d2 = np.sum((words - descs.vectors[i]) ** 2, axis=1)
                ties += np.count_nonzero(d2 == d2.min()) > 1
                row = _cell_index(int(descs.y[i]), 48, 2)
                col = _cell_index(int(descs.x[i]), 48, 2)
                expected[(row * 2 + col) * 17 + word] = 1.0
            assert np.array_equal(out, expected)
        assert ties > 0


class TestVocabulary:
    def test_build_sizes_contract(self):
        rng = np.random.default_rng(9)
        imgs = [rng.integers(0, 256, (24, 24), dtype=np.uint8) for _ in range(2)]
        sift = DenseSiftConfig(bin_sizes=(4,), step=4)
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(4, 3))
        vocab = build_vocab(imgs, sift, pyr, seed=0)
        assert [lv.centroids.shape[0] for lv in vocab.levels] == [4, 3]

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        imgs = [rng.integers(0, 256, (24, 24), dtype=np.uint8) for _ in range(2)]
        sift = DenseSiftConfig(bin_sizes=(4,), step=4)
        pyr = PyramidConfig(levels=(1,), vocab_sizes=(5,))
        v1 = build_vocab(imgs, sift, pyr, seed=3)
        v2 = build_vocab(imgs, sift, pyr, seed=3)
        assert np.array_equal(v1.levels[0].centroids, v2.levels[0].centroids)

    def test_subsample_cap_respected(self):
        ids = bovw._sample_ids(5000, 1200, seed=4)
        assert ids.shape == (1200,)
        assert np.all(np.diff(ids) > 0) and 0 <= ids[0] and ids[-1] < 5000  # distinct, sorted
        assert np.array_equal(bovw._sample_ids(100, 1200, seed=4), np.arange(100))
        with pytest.raises(ValidationError):
            bovw._sample_ids(5000, -1, seed=4)

    @pytest.mark.parametrize("cap", [700, 5000])
    def test_build_vocab_equals_vocab_of_stacked_descriptors(self, cap):
        # 4 images of 289 windows each: caps below and above the 1,156 rows
        imgs = texture_corpus(2, size=48, seed=8)[0][:4]
        sift = DenseSiftConfig(bin_sizes=(4,))
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(12, 8))
        stacked = np.vstack([dense_sift(img, sift).vectors for img in imgs])
        assert len(stacked) == 4 * 289
        if len(stacked) > cap:
            stacked = stacked[np.sort(np.random.default_rng([2, 17]).choice(len(stacked), cap,
                                                                             replace=False))]
        got = build_vocab(imgs, sift, pyr, seed=2, subsample_cap=cap)
        assert [lv.grid for lv in got.levels] == [1, 2]
        for li, (lv, k) in enumerate(zip(got.levels, pyr.vocab_sizes)):
            assert lv.centroids.tobytes() == kmeans(stacked, k, seed=[2, 23, li]).tobytes()

    def test_build_vocab_keeps_only_the_sample(self):
        # Stacking every image's descriptors held 2x their bytes at once.
        imgs = texture_corpus(10, size=48, seed=9)[0]
        sift = DenseSiftConfig()
        pooled_bytes = sum(len(dense_sift(img, sift)) for img in imgs) * 8 * sift.descriptor_dim
        pyr = PyramidConfig(levels=(1,), vocab_sizes=(4,))
        tracemalloc.start()
        try:
            build_vocab(imgs, sift, pyr, seed=1, subsample_cap=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pooled_bytes / 2

    def _small_vocab(self):
        descs = np.random.default_rng(12).normal(size=(300, 16))
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(6, 4))
        levels = [VocabularyLevel(g, kmeans(descs, k, seed=[5, 23, li]))
                  for li, (g, k) in enumerate(zip(pyr.levels, pyr.vocab_sizes))]
        return Vocabulary(levels, DenseSiftConfig(bin_sizes=(4, 6), step=3)), pyr

    def test_save_load_roundtrip(self, tmp_path):
        vocab, pyr = self._small_vocab()
        save_vocab(vocab, tmp_path / "v.llvb")
        assert (tmp_path / "v.llvb").read_bytes()[4:8] == struct.pack("<I", 2)
        back = load_vocab(tmp_path / "v.llvb")
        assert back.sift == vocab.sift
        assert len(back.levels) == 2
        for lv, lv2 in zip(vocab.levels, back.levels):
            assert lv.grid == lv2.grid
            assert np.array_equal(lv.centroids, lv2.centroids)
        # the loaded vocabulary encodes identically
        rng = np.random.default_rng(13)
        descs = DescriptorSet(rng.normal(size=(50, 16)), rng.integers(0, 32, 50),
                              rng.integers(0, 32, 50))
        assert np.array_equal(encode(descs, vocab, pyr, (32, 32)),
                              encode(descs, back, pyr, (32, 32)))

    def test_pyramid_is_derived_from_the_levels(self):
        vocab, pyr = self._small_vocab()
        assert vocab.pyramid == pyr
        with pytest.raises(AttributeError):
            vocab.pyramid = PyramidConfig()
        descs = DescriptorSet(np.zeros((1, 16)), np.zeros(1, int), np.zeros(1, int))
        for other in (PyramidConfig((1, 3), (6, 4)), PyramidConfig((1, 2), (6, 5)),
                      PyramidConfig((1,), (6,))):
            with pytest.raises(LevelMismatch, match="does not match"):
                encode(descs, vocab, other, (32, 32))

    def test_centroids_are_read_only_and_search_form_is_neither_compared_nor_saved(self, tmp_path):
        vocab, pyr = self._small_vocab()
        level = vocab.levels[0]
        with pytest.raises(ValueError, match="read-only"):
            level.centroids[0, 0] = 1.0
        save_vocab(vocab, tmp_path / "before.llvb")
        rng = np.random.default_rng(13)
        encode(DescriptorSet(rng.normal(size=(5, 16)), rng.integers(0, 32, 5),
                             rng.integers(0, 32, 5)), vocab, pyr, (32, 32))
        assert "_search" in vars(level)  # derived once, on first use
        save_vocab(vocab, tmp_path / "after.llvb")
        assert (tmp_path / "after.llvb").read_bytes() == (tmp_path / "before.llvb").read_bytes()
        assert [f.name for f in dataclasses.fields(level)] == ["grid", "centroids"]
        assert level == VocabularyLevel(level.grid, level.centroids)
        assert "_search" not in repr(level)

    def test_version_1_is_malformed(self, tmp_path, capsys):
        # Only version 2 is written; version 1 also held a kd-forest block.
        vocab, _ = self._small_vocab()
        path = tmp_path / "v1.llvb"
        save_vocab(vocab, path)
        path.write_bytes(path.read_bytes().replace(struct.pack("<4sI", b"LLVB", 2),
                                                   struct.pack("<4sI", b"LLVB", 1), 1))
        with pytest.raises(MalformedFile, match="unsupported vocabulary version 1$"):
            load_vocab(path)
        (tmp_path / "imgs").mkdir()
        write_pgm(tmp_path / "imgs" / "a.pgm", np.zeros((32, 32), dtype=np.uint8))
        assert cli_main(["encode", "--images", str(tmp_path / "imgs"), "--vocab", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: MalformedFile: {path}: unsupported vocabulary version 1\n")
        assert not (tmp_path / "out").exists()

    def test_nan_contrast_header_rejected(self, tmp_path):
        vocab, _ = self._small_vocab()
        save_vocab(vocab, tmp_path / "v.llvb")
        blob = (tmp_path / "v.llvb").read_bytes()
        good = struct.pack("<d", vocab.sift.contrast_threshold)
        assert blob.count(good) == 1
        (tmp_path / "bad.llvb").write_bytes(blob.replace(good, struct.pack("<d", np.nan)))
        with pytest.raises(ValidationError, match="contrast_threshold"):
            load_vocab(tmp_path / "bad.llvb")

    def test_truncated_file_is_malformed_at_every_length(self, tmp_path):
        vocab, _ = self._small_vocab()
        save_vocab(vocab, tmp_path / "v2.llvb")
        path = tmp_path / "cut.llvb"
        blob = (tmp_path / "v2.llvb").read_bytes()
        for length in range(len(blob)):
            path.write_bytes(blob[:length])
            with pytest.raises(MalformedFile):
                load_vocab(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(MalformedFile, match="trailing"):
            load_vocab(path)

    def test_flip_invariance_on_symmetric_image(self):
        # A horizontally symmetric image equals its flip, so the whole
        # encoding (including the 1x1 level) is trivially flip-invariant.
        x = np.arange(32)
        wave = (127.5 + 100.0 * np.cos((x - 15.5) * 0.7)).astype(np.uint8)
        img = np.tile(wave[None, :], (32, 1))
        assert np.array_equal(img, img[:, ::-1])
        sift = DenseSiftConfig(bin_sizes=(4,), step=4)
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(5, 5))
        vocab = build_vocab([img], sift, pyr, seed=6)
        d1 = dense_sift(img, sift)
        d2 = dense_sift(img[:, ::-1], sift)
        e1 = encode(d1, vocab, pyr, (32, 32))
        e2 = encode(d2, vocab, pyr, (32, 32))
        assert np.array_equal(e1, e2)
