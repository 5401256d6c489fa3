import functools
import hashlib
import os
import struct
import subprocess
import sys
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
    build_vocab_from_descriptors,
    dense_sift,
    encode,
    kmeans,
    load_vocab,
    read_pgm,
    save_vocab,
    subsample_rows,
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

from locallearn.synth import texture_corpus

from oracles import brute_dense_sift, brute_nn_euclidean, kmeanspp_full

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
        assert set(descs.scale.tolist()) == {4}
        assert descs.vectors.shape[1] == 128

    @pytest.mark.parametrize("bin_sizes", [(4,), (4, 6, 8, 10)])
    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    @pytest.mark.parametrize("spatial_bins, orientations", [(2, 4), (2, 8), (4, 4), (4, 8)])
    def test_matches_window_by_window_oracle(self, bin_sizes, step, spatial_bins, orientations):
        # 53x61: w - side is not a multiple of every step.
        cfg = DenseSiftConfig(bin_sizes=bin_sizes, step=step, spatial_bins=spatial_bins,
                              orientations=orientations)
        rng = np.random.default_rng([step, spatial_bins, orientations, len(bin_sizes)])
        for shape in ((48, 48), (53, 61)):
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            got = dense_sift(img, cfg)
            vectors, x, y, scale = brute_dense_sift(img, cfg)
            assert got.vectors.shape == vectors.shape
            np.testing.assert_array_equal((got.vectors == 0).all(axis=1), (vectors == 0).all(axis=1))
            assert np.abs(got.vectors - vectors).max() <= 1e-12
            for a, b in ((got.x, x), (got.y, y), (got.scale, scale)):
                np.testing.assert_array_equal(a, b)

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

    def test_descriptor_bits_do_not_depend_on_the_blas_kernel(self):
        # The window sums run in numpy's einsum loops, not in BLAS, whose
        # kernels (chosen per CPU, or forced) differ in the last bits.
        digests = {_sift_digest_in_fresh_process(coretype) for coretype in (None, "Prescott")}
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


def _sift_digest_in_fresh_process(coretype: str | None) -> str:
    """``sift_digest`` in a fresh process, under OpenBLAS's default kernel or,
    if given, one forced to ``coretype`` (read at start-up)."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run([sys.executable, "-c", "import test_bovw; print(test_bovw.sift_digest())"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestKmeans:
    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 4))
        cents = kmeans(pts, 6, seed=0)
        assert sorted(map(tuple, cents.tolist())) == sorted(map(tuple, pts.tolist()))

    def test_workers_below_one_rejected_where_k_covers_points(self):
        with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
            kmeans(np.eye(4), 5, seed=0, workers=0)

    def test_two_blobs_recover_means(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.01, (50, 3))
        b = rng.normal(10.0, 0.01, (60, 3))
        cents, _ = kmeans(np.vstack([a, b]), 2, seed=1, return_history=True)
        means = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda m: m[0])
        got = sorted(cents.tolist(), key=lambda m: m[0])
        assert np.allclose(got[0], means[0], atol=1e-6)
        assert np.allclose(got[1], means[1], atol=1e-6)

    def test_wcss_non_increasing(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 8))
        _, history = kmeans(pts, 10, seed=2, return_history=True)
        for prev, nxt in zip(history, history[1:]):
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
        a, history_a = kmeans(pts, 8, seed=3, workers=1, return_history=True)
        b, history_b = kmeans(pts, 8, seed=3, workers=4, return_history=True)
        assert np.array_equal(a, b)
        assert history_a == history_b  # one cost sum, whatever the chunking

    def test_fewer_distinct_points_than_k_stops(self):
        # The empty-cluster repair moves a duplicate onto an empty centroid
        # and the next assignment sends it back to the lowest id at its spot:
        # the loop must still stop when the assignment repeats.
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(6, 5))[np.arange(600) % 6]
        _, history = kmeans(pts, 30, seed=4, max_iters=100, return_history=True)
        assert len(history) < 100
        _, history_2 = kmeans(pts, 30, seed=4, max_iters=100, return_history=True, workers=2)
        assert history_2 == history


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


class TestNearest:
    def test_matches_oracle_at_every_chunking(self, monkeypatch):
        rng = np.random.default_rng(15)
        cents = rng.normal(size=(37, 6))
        pts = rng.normal(size=(200, 6))
        oracle = [brute_nn_euclidean(cents, q) for q in pts]
        for chunk_bytes in (bovw._CHUNK_BYTES, 8 * 37 * 7, 1):  # 1, 29 and 200 chunks
            monkeypatch.setattr(bovw, "_CHUNK_BYTES", chunk_bytes)
            words, d2 = _nearest(pts, cents)
            assert words.tolist() == [w for w, _ in oracle]
            assert np.allclose(np.sqrt(d2), [d for _, d in oracle], atol=1e-12)

    def test_ties_go_to_lowest_id(self):
        cents = np.array([[1.0, 1.0]] * 5 + [[3.0, 3.0]] * 5)
        words, d2 = _nearest(np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]]), cents)
        assert words.tolist() == [0, 5, 0]  # the last query is equidistant
        assert d2.tolist() == [0.0, 0.0, 2.0]


class TestEncode:
    def _toy_vocab(self, centroids_per_level, grids):
        levels = [
            VocabularyLevel(grid, np.asarray(cents, dtype=np.float64))
            for cents, grid in zip(centroids_per_level, grids)
        ]
        return Vocabulary(levels=levels, sift=DenseSiftConfig())

    def _descset(self, vectors, xs, ys):
        vectors = np.asarray(vectors, dtype=np.float64)
        return DescriptorSet(
            vectors=vectors,
            x=np.asarray(xs),
            y=np.asarray(ys),
            scale=np.full(len(xs), 4),
        )

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
        rng = np.random.default_rng(11)
        pool = rng.normal(size=(5000, 8))
        sub = subsample_rows(pool, 1200, seed=4)
        assert sub.shape == (1200, 8)
        rows_as_set = {tuple(r) for r in sub}
        all_rows = {tuple(r) for r in pool}
        assert rows_as_set <= all_rows
        under = subsample_rows(pool[:100], 1200, seed=4)
        assert np.array_equal(under, pool[:100])
        with pytest.raises(ValidationError):
            subsample_rows(pool, -1, seed=4)

    def _small_vocab(self):
        rng = np.random.default_rng(12)
        descs = rng.normal(size=(300, 16))
        sift = DenseSiftConfig(bin_sizes=(4, 6), step=3)
        pyr = PyramidConfig(levels=(1, 2), vocab_sizes=(6, 4))
        return build_vocab_from_descriptors(descs, sift, pyr, seed=5), pyr

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
                              rng.integers(0, 32, 50), np.full(50, 4))
        assert np.array_equal(encode(descs, vocab, pyr, (32, 32)),
                              encode(descs, back, pyr, (32, 32)))

    @staticmethod
    def _pack_v1(vocab) -> bytes:
        """A version-1 file: as version 2, plus the kd-forest settings block
        (trees, leaf capacity, budget, top-variance dims, seed) that
        version 1 kept after the level count."""
        s = vocab.sift
        blob = b"LLVB" + struct.pack("<II", 1, len(vocab.levels))
        blob += struct.pack("<IIIIq", 4, 96, 512, 5, 7)
        blob += struct.pack("<I", len(s.bin_sizes))
        blob += struct.pack(f"<{len(s.bin_sizes)}I", *s.bin_sizes)
        blob += struct.pack("<IIId", s.step, s.orientations, s.spatial_bins,
                            s.contrast_threshold)
        for lv in vocab.levels:
            blob += struct.pack("<III", lv.grid, *lv.centroids.shape)
            blob += lv.centroids.astype("<f8").tobytes()
        return blob

    def test_loads_version_1(self, tmp_path):
        vocab, _ = self._small_vocab()
        (tmp_path / "v1.llvb").write_bytes(self._pack_v1(vocab))
        back = load_vocab(tmp_path / "v1.llvb")
        assert back.sift == vocab.sift
        for lv, lv2 in zip(vocab.levels, back.levels):
            assert lv.grid == lv2.grid
            assert np.array_equal(lv.centroids, lv2.centroids)

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
        for blob in ((tmp_path / "v2.llvb").read_bytes(), self._pack_v1(vocab)):
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
