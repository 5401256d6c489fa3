import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locallearn.errors import DimMismatch, ValidationError
from locallearn.neighbors import CosineIndex, top_k

from oracles import brute_cosine_topk


class TestTopK:
    def test_cached_norms_match_recomputed(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(20, 6))
        index = CosineIndex(rows)
        assert np.allclose(index.norms, np.linalg.norm(rows, axis=1), atol=1e-12)

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
