import numpy as np
import pytest

import locallearn.svm as svm_mod
from locallearn.errors import (
    DimMismatch,
    MalformedFile,
    NoTrainedClasses,
    SingleClass,
    ValidationError,
)
from locallearn.svm import (
    OvaModel,
    SvmConfig,
    decisions,
    load_ova,
    predict_ova_batch,
    save_ova,
    train_binary,
    train_ova,
)
from locallearn.synth import gaussian_blobs

from oracles import box_qp_max, svm_dual_gram, svm_dual_value

TIGHT = SvmConfig(C=1.0, tolerance=1e-10, max_passes=200_000)

PAIR_X = np.array([[0.0, 0.0], [2.0, 2.0]])
PAIR_Y = np.array([-1.0, 1.0])


class TestTrainBinary:
    def test_pair_problem_matches_qp_optimum(self):
        # Oracle-derived optimum of the bias-augmented dual at C=1:
        # alpha = (1, 2/9), w = (4/9, 4/9), b = -7/9, dual objective 13/18.
        w, b, alpha, info = train_binary(PAIR_X, PAIR_Y, TIGHT)
        assert info["converged"]
        assert np.allclose(w, [4.0 / 9.0, 4.0 / 9.0], atol=1e-8)
        assert abs(b - (-7.0 / 9.0)) < 1e-8
        mine = svm_dual_value(PAIR_X, PAIR_Y, alpha)
        oracle, _ = box_qp_max(svm_dual_gram(PAIR_X, PAIR_Y), 1.0)
        assert abs(mine - oracle) <= 1e-6 * max(1.0, abs(oracle))
        assert abs(mine - 13.0 / 18.0) < 1e-8

    def test_large_c_hard_margin(self):
        cfg = SvmConfig(C=1e4, tolerance=1e-10, max_passes=200_000)
        w, b, _, _ = train_binary(PAIR_X, PAIR_Y, cfg)
        # Hard margin on two points: decision values exactly -1 / +1 and
        # margin 2/||w|| equals the point distance.
        values = decisions(OvaModel([1], w[None, :], [b]), PAIR_X)[:, 0]
        assert abs(values[0] + 1.0) < 1e-6
        assert abs(values[1] - 1.0) < 1e-6
        margin = 2.0 / np.linalg.norm(w)
        assert abs(margin - np.linalg.norm(PAIR_X[1] - PAIR_X[0])) < 1e-5

    def test_random_problem_matches_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        y = rng.choice([-1.0, 1.0], size=10)
        y[0] = -y[1]
        _, _, alpha, info = train_binary(X, y, TIGHT)
        assert info["converged"]
        mine = svm_dual_value(X, y, alpha)
        oracle, _ = box_qp_max(svm_dual_gram(X, y), 1.0)
        assert abs(mine - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_dual_feasibility_and_reconstruction(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(15, 4))
        y = np.where(rng.random(15) > 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = SvmConfig(C=100.0, tolerance=1e-8, max_passes=200_000, seed=3)
        w, b, alpha, _ = train_binary(X, y, cfg)
        assert np.all(alpha >= 0.0) and np.all(alpha <= cfg.C)
        Xa = np.hstack([X, np.ones((15, 1))])
        w_aug = (alpha * y) @ Xa
        assert np.allclose(w_aug[:-1], w, atol=1e-8)
        assert abs(w_aug[-1] - b) < 1e-8

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 4))
        y = np.where(rng.random(30) > 0.4, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = SvmConfig(C=10.0, seed=77)
        w1, b1, _, _ = train_binary(X, y, cfg)
        w2, b2, _, _ = train_binary(X, y, cfg)
        assert np.array_equal(w1, w2) and b1 == b2

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train_binary(np.ones((3, 2)), np.ones(3), TIGHT)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            train_binary(np.ones((2, 2)), np.array([0.0, 1.0]), TIGHT)

    @pytest.mark.parametrize("shape", [(12, 2), (30, 20)])
    def test_every_solver_path_matches_oracle(self, shape, monkeypatch):
        # Both shapes take the lockstep Gram core, and with _GRAM_LIMIT
        # forced down the same problem takes the feature-space loop; both
        # loops must land on the same QP optimum.
        n, d = shape
        rng = np.random.default_rng(n * d)
        X = rng.normal(size=(n, d))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        cfg = SvmConfig(C=100.0, tolerance=1e-9, max_passes=300_000)
        oracle, _ = box_qp_max(svm_dual_gram(X, y), 100.0)

        _, _, alpha, info = train_binary(X, y, cfg)
        assert info["converged"]
        assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))

        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 1)
        _, _, alpha2, info2 = train_binary(X, y, cfg)
        assert info2["converged"]
        assert abs(svm_dual_value(X, y, alpha2) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_scaling_argmax_invariance(self):
        # Scaling features by c with C rescaled to C/c^2 keeps predictions
        # on clearly separable data.
        Xtr, ytr = gaussian_blobs(20, n_classes=3, spread=0.4, seed=21)
        Xte, _ = gaussian_blobs(10, n_classes=3, spread=0.4, seed=22)
        base = predict_ova_batch(
            train_ova(Xtr, ytr, SvmConfig(C=10.0, seed=1)), Xte
        )
        for c in (0.5, 2.0, 10.0):
            scaled = predict_ova_batch(
                train_ova(c * Xtr, ytr, SvmConfig(C=10.0 / c**2, seed=1)), c * Xte
            )
            assert np.array_equal(base, scaled)


def _neighbourhood_sets(seed: int, n_sets: int = 6, n: int = 24, d: int = 10):
    """Row sets of one size over a d-dim matrix, with 2, 3 and 4 classes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    sets = []
    for j in range(n_sets):
        rows = np.sort(rng.choice(60, n, replace=False))
        n_cls = 2 + j % 3
        labels = rng.integers(0, n_cls, n)
        labels[:n_cls] = np.arange(n_cls)
        sets.append((rows, np.where(labels == np.arange(n_cls)[:, None], 1.0, -1.0)))
    return X, sets


class TestLockstepCore:
    # n <= _GRAM_LIMIT: every problem goes to the lockstep core.

    def test_every_problem_of_a_block_matches_oracle(self):
        X, sets = _neighbourhood_sets(31)
        cfg = SvmConfig(C=10.0, tolerance=1e-9, max_passes=200_000, seed=4)
        for (rows, Y), (W, alphas, infos) in zip(sets, svm_mod._solve_sets(X, sets, cfg)):
            assert W.shape == (Y.shape[0], X.shape[1] + 1)
            for y, alpha, info in zip(Y, alphas, infos):
                assert info["converged"] and info["kkt_gap"] <= 1e-9
                oracle, _ = box_qp_max(svm_dual_gram(X[rows], y), 10.0)
                mine = svm_dual_value(X[rows], y, alpha)
                assert abs(mine - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_alone_and_in_block_bit_identical(self):
        X, sets = _neighbourhood_sets(32)
        cfg = SvmConfig(C=100.0, tolerance=1e-6, seed=5)
        block = svm_mod._solve_sets(X, sets, cfg)
        for (rows, Y), (W, alphas, infos) in zip(sets, block):
            for p in range(Y.shape[0]):
                [(W1, alpha1, info1)] = svm_mod._solve_sets(X, [(rows, Y[p:p + 1])], cfg)
                assert np.array_equal(alpha1[0], alphas[p])
                assert np.array_equal(W1[0], W[p])
                assert info1 == [infos[p]]

    def test_max_passes_reported_not_converged(self):
        X, sets = _neighbourhood_sets(33)
        cfg = SvmConfig(C=100.0, tolerance=1e-9, max_passes=1)
        for _, _, infos in svm_mod._solve_sets(X, sets, cfg):
            for info in infos:
                assert info["passes"] == 1 and not info["converged"]
                assert info["kkt_gap"] > 1e-9

    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_ova_models_equal_binary_solves(self, n_classes):
        # Two classes are solved once and mirrored; five step in lockstep.
        rng = np.random.default_rng(34)
        X = rng.normal(size=(40, 12))
        labels = rng.integers(0, n_classes, 40)
        cfg = SvmConfig(C=10.0, seed=2)
        ova = train_ova(X, labels, cfg)
        assert ova.classes.tolist() == list(range(n_classes))
        for cls, w, b in zip(ova.classes, ova.W, ova.b):
            alone_w, alone_b, _, _ = train_binary(X, np.where(labels == cls, 1.0, -1.0), cfg)
            assert np.array_equal(alone_w, w) and alone_b == b


class TestDecision:
    def test_dot_product(self):
        m = OvaModel([0], [[1.0, 0.0]], [0.0])
        assert decisions(m, [[3.0, 7.0]]).tolist() == [[3.0]]

    def test_on_hyperplane(self):
        m = OvaModel([0], [[1.0, 1.0]], [-2.0])
        assert decisions(m, [[1.0, 1.0]]).tolist() == [[0.0]]

    def test_dim_mismatch(self):
        m = OvaModel([0], [[1.0, 0.0]], [0.0])
        with pytest.raises(DimMismatch):
            decisions(m, [[1.0, 2.0, 3.0]])

    def test_model_must_be_finite(self):
        with pytest.raises(ValidationError):
            OvaModel([0], [[np.nan]], [0.0])
        with pytest.raises(ValidationError):
            OvaModel([0], [[1.0]], [np.inf])

    @pytest.mark.parametrize("classes, W, b", [
        ([0, 1], [[1.0]], [0.0, 0.0]),  # one row for two classes
        ([0], [[1.0]], [0.0, 0.0]),  # two biases for one class
        ([0], [1.0], [0.0]),  # W not 2-D
        ([1, 0], [[1.0], [2.0]], [0.0, 0.0]),  # descending ids
        ([1, 1], [[1.0], [2.0]], [0.0, 0.0]),  # repeated id
    ])
    def test_model_shapes_and_class_order_checked(self, classes, W, b):
        with pytest.raises(ValidationError):
            OvaModel(classes, W, b)

    def test_weights_stored_c_contiguous(self):
        W = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        m = OvaModel([0, 1], W, [0.0, 0.0])
        assert m.W.flags.c_contiguous and np.array_equal(m.W, W)

    def test_row_bit_equal_alone_and_in_batch(self):
        # One W @ x + b per row: a row's values never depend on the rows
        # around it, which a single product over the batch would not promise.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(90, 37))
        model = train_ova(X, rng.integers(0, 5, 90), SvmConfig(C=10.0, seed=1))
        batch = decisions(model, X)
        assert batch.shape == (90, 5)
        for i in range(X.shape[0]):
            assert np.array_equal(decisions(model, X[i:i + 1])[0], batch[i])
        assert np.array_equal(decisions(model, X[7:40]), batch[7:40])


class TestOva:
    def test_one_model_per_present_class(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, 30)
        model = train_ova(X, labels, SvmConfig(C=1.0))
        assert model.classes.tolist() == [0, 1, 2]
        assert model.W.shape == (3, 3) and model.b.shape == (3,)

    def test_single_class_constant_model(self):
        X = np.random.default_rng(0).normal(size=(5, 2))
        model = train_ova(X, np.full(5, 3), SvmConfig(), n_classes=7)
        assert model.constant_class == 3 and model.classes.tolist() == [3]
        assert predict_ova_batch(model, X).tolist() == [3] * 5
        assert decisions(model, X[:1]).tolist() == [[np.inf]]

    def test_separable_four_class_recovers_labels(self):
        X, y = gaussian_blobs(3, n_classes=4, spread=0.15, seed=13)
        model = train_ova(X, y, SvmConfig(C=100.0, tolerance=1e-6, max_passes=100_000))
        assert np.array_equal(predict_ova_batch(model, X), y)

    def test_argmax_and_tie_rules(self):
        ova = OvaModel([0, 1], [[1.0], [2.0]], [0.0, 0.0], n_classes=3)
        assert predict_ova_batch(ova, [[1.0]]).tolist() == [1]
        tie = OvaModel([0, 2], [[1.0], [1.0]], [0.0, 0.0], n_classes=3)
        assert predict_ova_batch(tie, [[0.5]]).tolist() == [0]

    def test_one_trained_class_always_wins(self):
        ova = OvaModel([1], [[1.0, 1.0]], [-100.0], n_classes=4)
        assert predict_ova_batch(ova, [[0.0, 0.0]]).tolist() == [1]

    def test_no_trained_classes(self):
        with pytest.raises(NoTrainedClasses):
            predict_ova_batch(OvaModel([], np.zeros((0, 1)), [], n_classes=2), [[1.0]])

    def test_labels_must_fit_n_classes(self):
        # Otherwise save_ova would write a model that load_ova rejects.
        X = np.random.default_rng(3).normal(size=(6, 2))
        with pytest.raises(ValidationError):
            train_ova(X, [0, 1, 2, 0, 1, 2], SvmConfig(), n_classes=2)
        with pytest.raises(ValidationError):
            train_ova(X, [0, 1, -1, 0, 1, -1], SvmConfig())

    def test_empty_batch(self):
        model = OvaModel([0, 1], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        preds = predict_ova_batch(model, np.zeros((0, 2)))
        assert preds.shape == (0,) and preds.dtype == np.int64

    def test_wrong_query_dim(self):
        model = OvaModel([0, 1], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(DimMismatch):
            predict_ova_batch(model, np.zeros((2, 3)))


def _write_model(tmp_path, text):
    path = tmp_path / "m.ova"
    path.write_text("#locallearn-ova v1\n" + text)
    return path


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, 20)
        model = train_ova(X, labels, SvmConfig(C=1.0), class_names=("a", "b", "c"))
        path = tmp_path / "model.ova"
        save_ova(model, path)
        back = load_ova(path)
        assert back.class_names == ("a", "b", "c")
        assert back.n_classes == model.n_classes
        for name in ("classes", "W", "b"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_roundtrip_decisions_bit_equal(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 11))
        model = train_ova(X, rng.integers(0, 4, 60), SvmConfig(C=100.0, seed=2))
        save_ova(model, tmp_path / "m.ova")
        back = load_ova(tmp_path / "m.ova")
        assert np.array_equal(decisions(back, X), decisions(model, X))

    def test_constant_roundtrip(self, tmp_path):
        model = OvaModel([2], np.zeros((1, 0)), [0.0], n_classes=5, constant_class=2)
        save_ova(model, tmp_path / "m.ova")
        back = load_ova(tmp_path / "m.ova")
        assert back.constant_class == 2 and back.n_classes == 5
        assert predict_ova_batch(back, np.ones((2, 4))).tolist() == [2, 2]

    def test_bad_header(self, tmp_path):
        (tmp_path / "m.ova").write_text("#not-a-model\n")
        with pytest.raises(MalformedFile):
            load_ova(tmp_path / "m.ova")

    @pytest.mark.parametrize("line", ["#n_classes abc", "#constant abc"])
    def test_non_integer_header(self, tmp_path, line):
        (tmp_path / "m.ova").write_text(f"#locallearn-ova v1\n{line}\n0 0.5 1.0\n")
        with pytest.raises(MalformedFile, match=":2:"):
            load_ova(tmp_path / "m.ova")

    def test_header_only_model_has_no_trained_classes(self, tmp_path):
        model = load_ova(_write_model(tmp_path, "#n_classes 3\n"))
        with pytest.raises(NoTrainedClasses):
            predict_ova_batch(model, [[1.0]])

    def test_repeated_class_id(self, tmp_path):
        path = _write_model(tmp_path, "0 0.5 1.0 1.0\n1 0.0 1.0 0.0\n0 -9 1.0 1.0\n")
        with pytest.raises(MalformedFile, match=":4: repeated class id 0"):
            load_ova(path)

    def test_constant_model_with_weight_lines(self, tmp_path):
        path = _write_model(tmp_path, "#constant 1\n0 0.5 1.0\n")
        with pytest.raises(MalformedFile, match=":3: weight line"):
            load_ova(path)

    @pytest.mark.parametrize("text, line", [
        ("0 0.5 1.0\n-1 0.5 1.0\n", 3),
        ("#n_classes 2\n0 0.5 1.0\n2 0.5 1.0\n", 4),
    ])
    def test_class_id_out_of_range(self, tmp_path, text, line):
        with pytest.raises(MalformedFile, match=f":{line}: class id -?\\d+ out of range"):
            load_ova(_write_model(tmp_path, text))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SvmConfig(C=0.0)
        with pytest.raises(ValidationError):
            SvmConfig(tolerance=0.0)
        for bad in (np.nan, np.inf, -np.inf, -1.0):
            with pytest.raises(ValidationError):
                SvmConfig(C=bad)
            with pytest.raises(ValidationError):
                SvmConfig(tolerance=bad)
        for passes in (0, -1):
            with pytest.raises(ValidationError):
                SvmConfig(max_passes=passes)
        SvmConfig(C=1e-300, tolerance=1e-300, max_passes=1)
