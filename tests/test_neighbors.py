import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import locallearn.core as core_mod
from locallearn.core import FeatureMatrix
from locallearn.errors import DimMismatch, NonFiniteValue, ValidationError
from locallearn.features import max_abs_scaled
from locallearn.local import LocalLearnerConfig, local_predict_batch
from locallearn.neighbors import _TILE, CosineIndex, top_k, top_k_batch
from locallearn.svm import SvmConfig
from locallearn.synth import as_feature_matrix

from oracles import brute_cosine_topk

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestTopK:
    def test_cached_norms_match_recomputed(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(20, 6))
        index = CosineIndex(rows)
        assert np.allclose(index.norms, np.linalg.norm(rows, axis=1), atol=1e-12)

    def test_norms_bit_equal_to_one_scaled_pass(self):
        # The index scales a tile of rows at a time; its norms must be the
        # bits of one max_abs_scaled pass over every row, so that no
        # similarity, and no top-k order, can move.
        rng = np.random.default_rng(13)
        n = 3 * _TILE + 5
        rows = rng.normal(size=(n, 37)) * np.logspace(-150, 150, n)[:, None]
        rows[4] = 0.0
        _, norms, scale = max_abs_scaled(rows)
        assert np.array_equal(CosineIndex(rows).norms, (scale * norms)[:, 0])

    def test_self_similarity_first(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(10, 4))
        index = CosineIndex(rows)
        rid, sim = top_k(index, rows[3].copy(), 1)[0]
        assert rid == 3 and abs(sim - 1.0) < 1e-12

    def test_analytic_cosines(self):
        index = CosineIndex(np.array([[0.0, 1.0], [1.0, 1.0]]))
        result = top_k(index, np.array([1.0, 0.0]), 2)
        assert [r for r, _ in result] == [1, 0]
        assert abs(result[0][1] - np.sqrt(0.5)) < 1e-12
        assert result[1][1] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(300, 16))
        index = CosineIndex(rows)
        q = rng.normal(size=16)
        mine = top_k(index, q, 40)
        ref = brute_cosine_topk(rows, q, 40)
        assert [i for i, _ in mine] == [i for i, _ in ref]

    def test_k_at_least_n_is_total_order(self):
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(25, 3))
        index = CosineIndex(rows)
        q = rng.normal(size=3)
        mine = top_k(index, q, 100)
        assert len(mine) == 25
        sims = [s for _, s in mine]
        assert sims == sorted(sims, reverse=True)

    def test_zero_norm_rows_and_query(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0]])
        index = CosineIndex(rows)
        out = top_k(index, np.array([0.0, 1.0]), 2)
        assert dict(out)[0] == 0.0
        out_zero_q = top_k(index, np.zeros(2), 2)
        assert all(s == 0.0 for _, s in out_zero_q)
        # all-zero similarities: ties resolve by ascending row id
        assert [i for i, _ in out_zero_q] == [0, 1]

    def test_dim_mismatch(self):
        index = CosineIndex(np.ones((2, 3)))
        with pytest.raises(DimMismatch):
            top_k(index, np.ones(4), 1)

    def test_k_validation(self):
        index = CosineIndex(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            top_k(index, np.ones(3), 0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(40, 5))
        index = CosineIndex(rows)
        q = rng.normal(size=5)
        base = [i for i, _ in top_k(index, q, 10)]
        scaled = [i for i, _ in top_k(index, c * q, 10)]
        assert base == scaled


class TestTopKBatch:
    def test_ties_at_the_kth_row_match_brute_force(self):
        # Duplicated and zero-norm rows make many rows tie at the k-th
        # similarity; the partial sort must keep every tied row a candidate
        # so that the lowest row ids win, as in the full scan.
        rng = np.random.default_rng(5)
        base = rng.normal(size=(6, 4))
        rows = np.vstack([base[rng.integers(0, 6, 40)], np.zeros((8, 4)), base[rng.integers(0, 6, 20)]])
        queries = np.vstack([rng.normal(size=(40, 4)), np.zeros((1, 4)), base])
        index = CosineIndex(rows)
        for k in (1, 3, 7, 20, 47, 68, 100):
            ids, sims = top_k_batch(index, queries, k)
            assert ids.shape == sims.shape == (len(queries), min(k, len(rows)))
            for q, q_ids, q_sims in zip(queries, ids, sims):
                ref = brute_cosine_topk(rows, q, k)
                assert q_ids.tolist() == [i for i, _ in ref]
                assert np.allclose(q_sims, [s for _, s in ref], atol=1e-12)
        zero_ids, zero_sims = top_k_batch(index, np.zeros((1, 4)), 5)
        assert zero_ids.tolist() == [[0, 1, 2, 3, 4]] and not zero_sims.any()

    def test_no_queries(self):
        ids, sims = top_k_batch(CosineIndex(np.ones((4, 3))), np.empty((0, 3)), 2)
        assert ids.shape == sims.shape == (0, 2)

    def test_empty_index(self):
        # (m, min(k, n)) with n = 0: each query has no neighbours.
        for rows in (np.empty((0, 3)), FeatureMatrix(np.empty((0, 3)), [])):
            ids, sims = top_k_batch(CosineIndex(rows), np.ones((2, 3)), 4)
            assert ids.shape == sims.shape == (2, 0) and ids.dtype == np.int64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query(self, bad):
        queries = np.ones((3, 4))
        queries[2, 1] = bad
        with pytest.raises(NonFiniteValue, match="query: non-finite value at row 2, col 1") as exc:
            top_k_batch(CosineIndex(np.ones((5, 4))), queries, 2)
        assert (exc.value.row, exc.value.col) == (2, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_index_row(self, bad):
        rows = np.ones((5, 4))
        rows[3, 0] = bad
        with pytest.raises(NonFiniteValue, match="index: non-finite value at row 3, col 0") as exc:
            CosineIndex(rows)
        assert (exc.value.row, exc.value.col) == (3, 0)

    def test_feature_matrix_index_is_not_checked_again(self, monkeypatch):
        matrix = FeatureMatrix(np.ones((5, 4)), [f"s{i}" for i in range(5)])
        checked = []
        monkeypatch.setattr(core_mod, "check_finite", lambda *a: checked.append(a[1]))
        top_k_batch(CosineIndex(matrix), np.ones((1, 4)), 2)
        assert checked == ["query: "]

    def test_dim_mismatch(self):
        index = CosineIndex(np.ones((2, 3)))
        for bad in (np.ones((5, 4)), np.ones(3), np.ones((1, 1, 3))):
            with pytest.raises(DimMismatch):
                top_k_batch(index, bad, 1)

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            top_k_batch(CosineIndex(np.ones((2, 3))), np.ones((4, 3)), 0)

    def test_one_tile_block_alive_at_a_time(self):
        # The search's transient memory is about one (n, _TILE) block of
        # similarities: the previous tile's block is dropped before the next
        # product, and each query's k-th cut comes from its own row, not a
        # partitioned copy of the tile.
        rng = np.random.default_rng(14)
        index = CosineIndex(rng.normal(size=(4000, 512)))
        queries = rng.normal(size=(200, 512))
        tracemalloc.start()
        try:
            top_k_batch(index, queries, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = _TILE * index.n * 8
        assert peak <= 2.5 * block, f"peak {peak / block:.2f} blocks"

    @pytest.mark.parametrize("threads", ["default", "1"])
    def test_similarities_independent_of_batch(self, threads):
        # The tiled search relies on BLAS giving a query's column of a
        # fixed-width product the same bits at any position of the tile, at
        # the BLAS thread count in use.  Each thread count runs in a fresh
        # process, because BLAS reads it at start-up.
        env = {name: value for name, value in os.environ.items() if name not in BLAS_ENV}
        if threads != "default":
            env.update(dict.fromkeys(BLAS_ENV, threads))
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
        proc = subprocess.run(
            [sys.executable, "-c", "import test_neighbors; test_neighbors.check_similarities_independent_of_batch()"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


def query_similarity_rows(q, run):
    """Every similarity row that the index computes for query q while
    ``run()`` executes, as bytes."""
    found = []
    similarities = CosineIndex.similarities

    def recording(self, tile):
        sims = similarities(self, tile)
        found.extend(sims[i].tobytes() for i in np.flatnonzero((tile == q).all(axis=1)))
        return sims

    CosineIndex.similarities = recording
    try:
        run()
    finally:
        CosineIndex.similarities = similarities
    return found


def check_similarities_independent_of_batch():
    """One query's similarity row is bit-equal searched alone, at every
    position of a tile, in batches of 3, and through
    ``local_predict_batch`` on 1 and 4 workers.  The index is large enough
    for a multi-threaded BLAS to split the product, and its width is no
    multiple of a SIMD vector."""
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(1500, 301))
    queries = rng.normal(size=(2 * _TILE + 5, 301))
    q = queries[7]
    others = np.delete(queries, 7, axis=0)
    index = CosineIndex(rows)
    train = as_feature_matrix(rows, rng.integers(0, 3, len(rows)), "t")
    cfg = LocalLearnerConfig(k=10, svm=SvmConfig(C=1.0, seed=0))

    def every_case():
        top_k(index, q, 10)
        for pos in range(_TILE):
            top_k_batch(index, np.vstack([others[:pos], q, others[pos:pos + _TILE + 3]]), 10)
        for s in range(0, len(queries), 3):
            top_k_batch(index, queries[s:s + 3], 10)
        for workers in (1, 4):
            local_predict_batch(train, as_feature_matrix(queries, prefix="q"), cfg, workers=workers)

    seen = query_similarity_rows(q, every_case)
    assert len(seen) == 1 + _TILE + 1 + 2, len(seen)
    assert len(set(seen)) == 1, f"{len(set(seen))} distinct similarity rows for one query"
