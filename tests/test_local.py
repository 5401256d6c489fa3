import numpy as np
import pytest

import locallearn.local as local_mod
import locallearn.svm as svm_mod
from locallearn.core import FeatureMatrix
from locallearn.errors import MissingLabels, ValidationError
from locallearn.local import (
    LocalLearnerConfig,
    knn_classify_batch,
    local_predict_batch,
)
from locallearn.neighbors import CosineIndex, top_k
from locallearn.svm import (
    SvmConfig,
    predict_ova_batch,
    train_ova,
)
from locallearn.synth import as_feature_matrix, gaussian_blobs, two_arcs


def labeled(X, y, prefix="s"):
    return as_feature_matrix(np.asarray(X, dtype=np.float64), np.asarray(y), prefix)


def local_one(train, q, cfg):
    """local_predict_batch on a one-row query matrix."""
    queries = as_feature_matrix(np.asarray(q, dtype=np.float64)[None, :], prefix="q")
    return local_predict_batch(train, queries, cfg)[0][0]


class TestDegeneracy:
    def test_k_covering_train_equals_global(self, monkeypatch):
        self.check_k_covering_train_equals_global(monkeypatch, d=4)

    def test_k_covering_train_equals_global_through_newton_retries(self, monkeypatch):
        self.check_k_covering_train_equals_global(monkeypatch, d=16)

    def test_k_covering_train_equals_global_without_gram(self, monkeypatch):
        # With the Gram limit below the set's 30 rows no Gram product is
        # built: local and global both take Newton's blocks from the cache.
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 20)
        self.check_k_covering_train_equals_global(monkeypatch, d=16)

    @staticmethod
    def check_k_covering_train_equals_global(monkeypatch, d):
        # With k >= n_train the local problem is the global problem: all 8
        # queries share one model, equal to the global one bit for bit, and
        # so do the predictions.  30 rows are more than d + 1, so Newton
        # cannot start and every problem goes on to coordinate ascent; at
        # d = 16 a Newton finish retried during the ascent certifies each
        # one, at d = 4 mostly the ascent.  The one set is a Gram group of
        # its own, 30^2 entries, unless it is above the Gram limit.
        gram_entries = 30 ** 2 if 30 <= svm_mod._GRAM_LIMIT else 0
        fitted = []
        train_ova_rows = local_mod.train_ova_rows

        def capture(*args):
            out = train_ova_rows(*args)
            fitted.append(out[0])
            return out

        monkeypatch.setattr(local_mod, "train_ova_rows", capture)
        rng = np.random.default_rng(0)
        for trial in range(5):
            X = rng.normal(size=(30, d))
            y = rng.integers(0, 3, 30)
            train = labeled(X, y)
            cfg = LocalLearnerConfig(k=50, svm=SvmConfig(C=10.0, seed=trial))
            ova = train_ova(X, y, cfg.svm)
            queries = rng.normal(size=(8, d))
            fitted.clear()
            batch, _, timing = local_predict_batch(train, as_feature_matrix(queries, prefix="q"), cfg)
            assert len(fitted) == 1 and timing.gram_entries == gram_entries
            for name in ("classes", "W", "b"):
                assert np.array_equal(getattr(fitted[0], name), getattr(ova, name))
            assert np.array_equal(batch, predict_ova_batch(ova, queries))


class TestSingleClassNeighborhood:
    def test_short_circuit(self, monkeypatch):
        # A single-class neighbourhood gets a zero row and never reaches the
        # solver.
        solved = []
        monkeypatch.setattr(svm_mod, "_solve_rows", lambda *a: solved.append(a))
        X = np.vstack([np.full((5, 2), 10.0) + np.eye(5, 2) * 0.01,
                       -np.full((5, 2), 10.0)])
        y = np.array([0] * 5 + [1] * 5)
        train = labeled(X, y)
        cfg = LocalLearnerConfig(k=3, svm=SvmConfig(C=1.0))
        queries = as_feature_matrix(np.array([[10.0, 10.0], [9.0, 11.0]]), prefix="q")
        preds, _, timing = local_predict_batch(train, queries, cfg)
        assert preds.tolist() == [0, 0]
        assert timing.solves == 0 and solved == []

    def test_absent_class_never_predicted(self):
        rng = np.random.default_rng(1)
        X, y = gaussian_blobs(30, n_classes=3, spread=0.3, seed=2)
        train = labeled(X, y)
        cfg = LocalLearnerConfig(k=10, svm=SvmConfig(C=10.0))
        q = X[y == 2].mean(axis=0)
        neighbours = [i for i, _ in top_k(CosineIndex(train), q, 10)]
        assert local_one(train, q, cfg) in set(y[neighbours])


class TestLocality:
    def test_non_neighbor_perturbation_is_invisible(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        train = labeled(X, y)
        cfg = LocalLearnerConfig(k=10, svm=SvmConfig(C=5.0, seed=0))
        q = rng.normal(size=3)
        neighbor_ids = {i for i, _ in top_k(CosineIndex(train), q, 10)}
        outsider = next(i for i in range(40) if i not in neighbor_ids)
        X2 = X.copy()
        X2[outsider] = X2[outsider] * 0.5 + 100.0  # stays outside the top-k cone
        train2 = labeled(X2, y)
        neighbor_ids2 = {i for i, _ in top_k(CosineIndex(train2), q, 10)}
        assert neighbor_ids2 == neighbor_ids
        assert local_one(train, q, cfg) == local_one(train2, q, cfg)

    def test_query_scale_invariance_of_neighbors(self):
        # Cosine selection ignores the query's magnitude, so the id set is
        # identical for c*q; decision values are not claimed invariant.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 4))
        train = labeled(X, rng.integers(0, 2, 50))
        index = CosineIndex(train)
        q = rng.normal(size=4)
        for c in (0.01, 3.5, 1000.0):
            assert [i for i, _ in top_k(index, q, 7)] == [
                i for i, _ in top_k(index, c * q, 7)
            ]


class TestBatch:
    def test_empty_queries(self):
        train = labeled(np.eye(3), [0, 1, 0])
        queries = FeatureMatrix(np.zeros((0, 3)), [])
        preds, votes, timing = local_predict_batch(train, queries, LocalLearnerConfig(k=2))
        assert preds.shape == votes.shape == (0,)
        assert timing.n_queries == 0

    def test_singleton_matches_one(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        y[:2] = [0, 1]
        train = labeled(X, y)
        cfg = LocalLearnerConfig(k=5, svm=SvmConfig(C=2.0, seed=1))
        q = rng.normal(size=3)
        queries = FeatureMatrix(q[None, :], ["q0"])
        preds, _, _ = local_predict_batch(train, queries, cfg)
        assert preds[0] == local_one(train, q, cfg)

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(6)
        Xtr, ytr = two_arcs(300, seed=31)
        Xte, _ = two_arcs(40, seed=32)
        train = labeled(Xtr, ytr)
        queries = as_feature_matrix(Xte, prefix="q")
        cfg = LocalLearnerConfig(k=25, svm=SvmConfig(C=100.0, seed=0, max_passes=200))
        p1, _, _ = local_predict_batch(train, queries, cfg, workers=1)
        p4, _, _ = local_predict_batch(train, queries, cfg, workers=4)
        assert np.array_equal(p1, p4)

    def test_worker_invariance_of_solver_counts(self):
        # d=16, k=30: one and four workers give identical predictions and
        # solver counts.
        rng = np.random.default_rng(8)
        train = labeled(rng.normal(size=(120, 16)), rng.integers(0, 4, 120))
        queries = as_feature_matrix(rng.normal(size=(40, 16)), prefix="q")
        cfg = LocalLearnerConfig(k=30, svm=SvmConfig(C=1.0, seed=3))
        p1, _, t1 = local_predict_batch(train, queries, cfg, workers=1)
        p4, _, t4 = local_predict_batch(train, queries, cfg, workers=4)
        assert np.array_equal(p1, p4)
        assert t1.solves == t4.solves > 40
        assert t1.nonconverged == t4.nonconverged == 0
        assert t1.gram_entries == t4.gram_entries > 0

    def test_identical_queries_share_one_solve(self):
        rng = np.random.default_rng(10)
        train = labeled(rng.normal(size=(80, 16)), rng.integers(0, 3, 80))
        q = rng.normal(size=16)
        cfg = LocalLearnerConfig(k=20, svm=SvmConfig(C=1.0, seed=0))
        p1, _, t1 = local_predict_batch(train, as_feature_matrix(q[None, :], prefix="q"), cfg)
        p2, _, t2 = local_predict_batch(train, as_feature_matrix(np.vstack([q, q]), prefix="q"), cfg)
        assert t1.solves > 0 and t2.solves == t1.solves
        assert p2.tolist() == [p1[0], p1[0]]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_stage_times_are_wall_clock(self, workers):
        rng = np.random.default_rng(11)
        train = labeled(rng.normal(size=(120, 16)), rng.integers(0, 4, 120))
        queries = as_feature_matrix(rng.normal(size=(40, 16)), prefix="q")
        cfg = LocalLearnerConfig(k=30, svm=SvmConfig(C=1.0, seed=3))
        _, _, timing = local_predict_batch(train, queries, cfg, workers=workers)
        assert timing.search_s > 0 and timing.solve_s > 0
        assert timing.search_s + timing.solve_s <= timing.total_s

    def test_solver_stops_are_counted(self):
        rng = np.random.default_rng(9)
        train = labeled(rng.normal(size=(60, 16)), rng.integers(0, 3, 60))
        queries = as_feature_matrix(rng.normal(size=(5, 16)), prefix="q")
        cfg = LocalLearnerConfig(k=20, svm=SvmConfig(C=100.0, max_passes=1))
        _, _, timing = local_predict_batch(train, queries, cfg)
        assert timing.solves > 0 and timing.nonconverged == timing.solves

    @pytest.mark.parametrize("workers", [1, 4])
    def test_one_search_per_batch(self, workers, monkeypatch):
        # 70 queries, more than two of the search's tiles, enter it together.
        searched, search = [], local_mod.top_k_batch
        monkeypatch.setattr(local_mod, "top_k_batch", lambda *a: searched.append(len(a[1])) or search(*a))
        rng = np.random.default_rng(12)
        train = labeled(rng.normal(size=(120, 16)), rng.integers(0, 4, 120))
        queries = as_feature_matrix(rng.normal(size=(70, 16)), prefix="q")
        _, _, timing = local_predict_batch(train, queries, LocalLearnerConfig(k=30), workers=workers)
        assert searched == [70] and timing.solves > 0

    def test_bad_workers_rejected_before_search(self, monkeypatch):
        searched = []
        monkeypatch.setattr(local_mod, "top_k_batch", lambda *a: searched.append(a))
        train = labeled(np.eye(3), [0, 1, 0])
        with pytest.raises(ValidationError, match="workers must be >= 1, got 0"):
            local_predict_batch(train, train, LocalLearnerConfig(k=1), workers=0)
        assert searched == []

    def test_requires_labels(self):
        train = FeatureMatrix(np.eye(3), ["a", "b", "c"])
        with pytest.raises(MissingLabels):
            local_predict_batch(train, train, LocalLearnerConfig(k=1))


class TestSharedGram:
    # Overlapping neighbourhoods share one Gram product over the union of
    # their rows; each set solves on its block of it.
    CFG = LocalLearnerConfig(k=30, svm=SvmConfig(C=1.0, seed=3))

    @staticmethod
    def jittered():
        """Ten queries jittered around each of four training rows (d = 16):
        the neighbourhoods of a row's queries overlap but differ."""
        rng = np.random.default_rng(13)
        X = rng.normal(size=(120, 16))
        train = labeled(X, rng.integers(0, 4, 120))
        queries = (X[[3, 40, 77, 101]][:, None, :] + 0.3 * rng.normal(size=(4, 10, 16))).reshape(-1, 16)
        return train, as_feature_matrix(queries, prefix="q")

    @staticmethod
    def spy(monkeypatch):
        """Record each ``train_ova_rows`` call of the local stage as (rows,
        K, model), and the row count of each Gram product it builds."""
        fitted, products = [], []
        train_ova_rows, gram = local_mod.train_ova_rows, local_mod.gram

        def capture(X, labels, rows, cfg, K):
            out = train_ova_rows(X, labels, rows, cfg, K)
            fitted.append((rows, K, out[0]))
            return out

        monkeypatch.setattr(local_mod, "train_ova_rows", capture)
        monkeypatch.setattr(local_mod, "gram", lambda Xs: products.append(len(Xs)) or gram(Xs))
        return fitted, products

    def test_overlapping_sets_share_a_product_and_agree_with_their_own(self, monkeypatch):
        train, queries = self.jittered()
        fitted, products = self.spy(monkeypatch)
        preds, _, timing = local_predict_batch(train, queries, self.CFG)
        solved = [rows for rows, _, model in fitted if model.classes.size > 1]
        assert timing.gram_entries == sum(n * n for n in products)
        assert 0 < timing.gram_entries < sum(rows.size ** 2 for rows in solved)
        alone = {}
        for rows, K, model in fitted:
            own, _ = svm_mod.train_ova_rows(train.values, train.labels, rows, self.CFG.svm)
            shared, theirs = svm_mod.decisions(model, queries), svm_mod.decisions(own, queries)
            assert np.array_equal(model.classes, own.classes)
            assert np.abs(shared - theirs).max() <= 1e-9 * np.abs(theirs).max()
            alone[rows.tobytes()] = own
        rows, _ = local_mod._search(CosineIndex(train), train.labels, queries.values, self.CFG.k)
        expected = [predict_ova_batch(alone[r.tobytes()], q[None, :])[0] for r, q in zip(rows, queries.values)]
        assert preds.tolist() == expected

    def test_no_union_exceeds_twice_a_set(self, monkeypatch):
        train, queries = self.jittered()
        _, products = self.spy(monkeypatch)
        local_predict_batch(train, queries, self.CFG)
        assert max(products) > self.CFG.k  # some sets did share
        assert max(products) <= 2 * self.CFG.k

    def test_disjoint_sets_solve_alone_bit_for_bit(self, monkeypatch):
        # Four clusters of 30 rows along four axes, queried at their centres
        # with k = 30: each neighbourhood is one whole cluster, so no two
        # sets overlap and each builds its own product.
        rng = np.random.default_rng(14)
        X = (10.0 * np.eye(16)[:4, None, :] + rng.normal(size=(4, 30, 16))).reshape(-1, 16)
        train = labeled(X, rng.integers(0, 3, 120))
        queries = as_feature_matrix(10.0 * np.eye(16)[:4], prefix="q")
        fitted, products = self.spy(monkeypatch)
        _, _, timing = local_predict_batch(train, queries, self.CFG)
        assert products == [30] * 4 and timing.gram_entries == 4 * 30 ** 2
        for rows, K, model in fitted:
            assert np.array_equal(rows, np.arange(rows[0], rows[0] + 30))
            own, _ = svm_mod.train_ova_rows(train.values, train.labels, rows, self.CFG.svm)
            for name in ("classes", "W", "b"):
                assert np.array_equal(getattr(model, name), getattr(own, name))


class TestTwoArcs:
    def test_local_beats_global_linear(self):
        # Compact version of the acceptance geometry: points deep in the
        # interleaved region flip to correct under local learning.
        Xtr, ytr = two_arcs(800, seed=41)
        Xte, yte = two_arcs(120, seed=42)
        train = labeled(Xtr, ytr)
        cfg = SvmConfig(C=100.0, seed=0, tolerance=1e-3, max_passes=300)
        ova = train_ova(Xtr, ytr, cfg)
        from locallearn.svm import predict_ova_batch

        global_acc = np.mean(predict_ova_batch(ova, Xte) == yte)
        local_pred, _, _ = local_predict_batch(
            train, as_feature_matrix(Xte, prefix="t"),
            LocalLearnerConfig(k=40, svm=cfg),
        )
        local_acc = np.mean(local_pred == yte)
        assert local_acc > global_acc

    def test_misclassified_overlap_point_fixed_locally(self):
        Xtr, ytr = two_arcs(2000, seed=43)
        train = labeled(Xtr, ytr)
        cfg = SvmConfig(C=100.0, seed=0, tolerance=1e-3, max_passes=300)
        ova = train_ova(Xtr, ytr, cfg)
        from locallearn.svm import predict_ova_batch

        # The tip of the lower arc (t near sweep*pi) curls deep into the
        # upper arc's territory; find such test points and check the local
        # model recovers at least one the global hyperplane misses.
        Xte, yte = two_arcs(300, seed=44)
        gp = predict_ova_batch(ova, Xte)
        wrong = np.flatnonzero(gp != yte)
        assert wrong.size > 0
        local_cfg = LocalLearnerConfig(k=50, svm=cfg)
        fixed = 0
        for i in wrong[:20]:
            fixed += local_one(train, Xte[i], local_cfg) == yte[i]
        assert fixed > 0


def knn_one(train, q, k):
    """knn_classify_batch on a one-row query matrix."""
    return knn_classify_batch(train, as_feature_matrix(np.asarray(q)[None, :], prefix="q"), k)[0]


class TestKnn:
    def test_k1_nearest_label(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        train = labeled(X, [0, 1])
        assert knn_one(train, [0.9, 0.1], 1) == 0

    def test_majority(self):
        X = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        train = labeled(X, [0, 0, 1])
        assert knn_one(train, [1.0, 0.05], 3) == 0

    def test_tie_broken_by_summed_similarity(self):
        # Two votes each; class 1's neighbors are more similar to q.
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.2], [0.8, 0.25]])
        y = [0, 0, 1, 1]
        train = labeled(X, y)
        assert knn_one(train, [1.0, 0.2], 4) == 1

    def test_tie_final_fallback_lowest_class(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        train = labeled(X, [1, 0])
        assert knn_one(train, [1.0, 0.0], 2) == 0

    def test_local_batch_votes_match_knn_batch(self):
        # The local learner's votes over its own neighborhoods are the k-NN
        # baseline at the same k, on one and on four workers.  Small integer
        # features make vote and similarity ties common.
        rng = np.random.default_rng(7)
        train = labeled(rng.integers(-2, 3, size=(60, 3)), rng.integers(0, 4, 60))
        queries = as_feature_matrix(rng.integers(-2, 3, size=(25, 3)).astype(float), prefix="q")
        for k in (1, 6, 7, 60):
            cfg = LocalLearnerConfig(k=k, svm=SvmConfig(C=1.0, seed=0))
            knn = knn_classify_batch(train, queries, k)
            for workers in (1, 4):
                _, votes, _ = local_predict_batch(train, queries, cfg, workers=workers)
                assert np.array_equal(votes, knn)
