import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import locallearn.svm as svm_mod
from locallearn.core import LabelMap, load_features, save_features
from locallearn.errors import (
    DimMismatch,
    MalformedFile,
    NonFiniteValue,
    NoTrainedClasses,
    SingleClass,
    UnknownClassName,
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
from locallearn.synth import gaussian_blobs, two_arcs

from oracles import box_qp_max, svm_dual_gram, svm_dual_value

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
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
        # Newton cannot start either shape from alpha = 0 on the Gram
        # matrix, so coordinate ascent goes on with Newton retried from the
        # Gram matrix; with _GRAM_LIMIT forced down the same problem skips
        # the first Newton and retries it from the Gram cache.  Both must
        # land on the same QP optimum.
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


def _neighbourhood_sets(seed: int, n_sets: int = 6, d: int = 10):
    """Row sets over a d-dim matrix with 2, 3 and 4 classes: 24 rows, more
    than the augmented dimension, alternating with 8 rows, fewer."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    sets = []
    for j in range(n_sets):
        rows = np.sort(rng.choice(60, 24 if j % 2 else 8, replace=False))
        n_cls = 2 + j % 3
        labels = rng.integers(0, n_cls, rows.size)
        labels[:n_cls] = np.arange(n_cls)
        sets.append((rows, np.where(labels == np.arange(n_cls)[:, None], 1.0, -1.0)))
    return X, sets


def _spy(monkeypatch, name):
    """Record the result of every call of the solver function ``name``."""
    calls, original = [], getattr(svm_mod, name)

    def spy(*args, **kw):
        out = original(*args, **kw)
        calls.append(out)
        return out

    monkeypatch.setattr(svm_mod, name, spy)
    return calls


def _first_newton(monkeypatch):
    """Record, in problem order, whether each Newton try from alpha = 0 (the
    one before the first pass, on a set with a Gram matrix) certified."""
    certified, original = [], svm_mod._newton

    def spy(alpha, *args, **kw):
        out = original(alpha, *args, **kw)
        if not alpha.any():
            certified.append(out[1]["converged"])
        return out

    monkeypatch.setattr(svm_mod, "_newton", spy)
    return certified


def _agrees_with_alone(Xs, y, cfg, in_set, alone, certified_first):
    """A problem that Newton certifies before the first pass has the same
    bits, (w, b, alpha, info), solved alone and with its row set; one
    certified later lands on the QP optimum in both (c01's tolerance), and
    one that stops at ``max_passes`` is reported unconverged."""
    if certified_first:
        (w, b, alpha, info), (w1, b1, alpha1, info1) = in_set, alone
        assert np.array_equal(alpha1, alpha) and np.array_equal(w1, w) and b1 == b
        assert info1 == info and info["converged"]
        return
    oracle, _ = box_qp_max(svm_dual_gram(Xs, y), cfg.C)
    for _, _, alpha, info in (in_set, alone):
        if info["converged"]:
            assert info["kkt_gap"] <= cfg.tolerance
            assert abs(svm_dual_value(Xs, y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))
        else:
            assert info["passes"] == cfg.max_passes and info["kkt_gap"] > cfg.tolerance


class TestRowSets:
    # n <= _GRAM_LIMIT: Newton starts every problem on the set's Gram
    # matrix, and the ones it does not certify share one coordinate ascent.

    def test_every_problem_of_a_row_set_matches_oracle(self, monkeypatch):
        X, sets = _neighbourhood_sets(31)
        cfg = SvmConfig(C=10.0, tolerance=1e-9, max_passes=200_000, seed=4)
        first = _first_newton(monkeypatch)
        for rows, Y in sets:
            W, b, alphas, infos = svm_mod._solve_rows(X, rows, Y, cfg)
            assert W.shape == (Y.shape[0], X.shape[1]) and b.shape == (Y.shape[0],)
            for y, alpha, info in zip(Y, alphas, infos):
                assert info["converged"] and info["kkt_gap"] <= 1e-9
                oracle, _ = box_qp_max(svm_dual_gram(X[rows], y), 10.0)
                mine = svm_dual_value(X[rows], y, alpha)
                assert abs(mine - oracle) <= 1e-6 * max(1.0, abs(oracle))
        assert len(first) == sum(Y.shape[0] for _, Y in sets)
        assert 0 < first.count(False) < len(first)

    def test_alone_and_with_its_row_set_bit_identical(self, monkeypatch):
        # Bit for bit where Newton certifies before the first pass; the
        # others share the set's ascent order, which alone they do not.
        X, sets = _neighbourhood_sets(32)
        cfg = SvmConfig(C=100.0, tolerance=1e-6, seed=5)
        first = _first_newton(monkeypatch)
        later = 0
        for rows, Y in sets:
            first.clear()
            W, b, alphas, infos = svm_mod._solve_rows(X, rows, Y, cfg)
            certified_first = list(first)
            for p in range(Y.shape[0]):
                W1, b1, alpha1, info1 = svm_mod._solve_rows(X, rows, Y[p:p + 1], cfg)
                _agrees_with_alone(X[rows], Y[p], cfg, (W[p], b[p], alphas[p], infos[p]),
                                   (W1[0], b1[0], alpha1[0], info1[0]), certified_first[p])
                later += not certified_first[p] and infos[p]["converged"] and info1[0]["converged"]
        assert later > 0

    def test_uncertified_problems_retry_newton_on_the_gram_matrix(self, monkeypatch):
        # 24 rows in 11 augmented dimensions: Newton cannot start from
        # alpha = 0, and its retries during the shared ascent take Q_FF and
        # the gradient from the set's Gram matrix, never from the
        # feature-space cache or gradient.
        X, sets = _neighbourhood_sets(31)
        rows, Y = sets[5]
        first = _first_newton(monkeypatch)
        newton = _spy(monkeypatch, "_newton")
        caches, grads = _spy(monkeypatch, "_gram_cache"), _spy(monkeypatch, "_feature_grad")
        cfg = SvmConfig(C=10.0, tolerance=1e-9, max_passes=200_000, seed=4)
        _, _, alphas, infos = svm_mod._solve_rows(X, rows, Y, cfg)
        assert Y.shape[0] == 4 and first.count(False) >= 2
        assert len(newton) > len(first) and caches == [] and grads == []
        for y, alpha, info in zip(Y, alphas, infos):
            assert info["converged"] and info["kkt_gap"] <= 1e-9
            oracle, _ = box_qp_max(svm_dual_gram(X[rows], y), 10.0)
            assert abs(svm_dual_value(X[rows], y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_retry_that_cannot_start_multiplies_nothing(self, monkeypatch):
        # A retry during the ascent starts from the gradient the last pass
        # computed, so one that frees more indices than the 11 augmented
        # dimensions stops before its first step without calling grad
        # (K @ v) or block; the retries that start still certify.
        X, sets = _neighbourhood_sets(31)
        rows, Y = sets[5]
        cfg = SvmConfig(C=10.0, tolerance=1e-9, max_passes=200_000, seed=4)
        width, original, idle, started = X.shape[1] + 1, svm_mod._newton, [], []

        def counting(alpha, g, y, grad, block, diag, *args, **kw):
            calls = []

            def counted(f):
                def wrapped(*a):
                    calls.append(f)
                    return f(*a)
                return wrapped

            out = original(alpha, g, y, counted(grad), counted(block), diag, *args, **kw)
            if alpha.any():
                free = np.count_nonzero(svm_mod._sets(alpha, g, diag, cfg.C) == 1)
                (idle if free > width else started).append(len(calls))
            return out

        monkeypatch.setattr(svm_mod, "_newton", counting)
        _, _, alphas, infos = svm_mod._solve_rows(X, rows, Y, cfg)
        assert idle and set(idle) == {0}
        assert started and min(started) > 0
        for y, alpha, info in zip(Y, alphas, infos):
            assert info["converged"] and info["kkt_gap"] <= 1e-9
            oracle, _ = box_qp_max(svm_dual_gram(X[rows], y), 10.0)
            assert abs(svm_dual_value(X[rows], y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("m", [3, 9])
    def test_one_first_step_solve_for_the_row_set(self, m, monkeypatch):
        # The gradient at alpha = 0 is -1 in every problem, so Newton's
        # first step frees the same rows in all of them: the set solves
        # their G_FF once, for every right-hand side in zero-padded blocks
        # of _RHS_BLOCK columns, before any problem's own steps.
        rng = np.random.default_rng(35)
        X = rng.normal(size=(30, 40))
        Y = np.where(np.arange(30) % m == np.arange(m)[:, None], 1.0, -1.0)
        shapes, original = [], np.linalg.solve

        def spy(a, b):
            shapes.append(np.shape(b))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        *_, infos = svm_mod._solve_rows(X, slice(None), Y, SvmConfig(C=100.0, tolerance=1e-8))
        width = svm_mod._RHS_BLOCK * -(-m // svm_mod._RHS_BLOCK)
        assert shapes[0] == (30, width) and len(shapes) > 1
        assert all(len(shape) == 1 for shape in shapes[1:])
        assert all(info["converged"] for info in infos)

    def test_max_passes_reported_not_converged(self):
        X, sets = _neighbourhood_sets(33)
        cfg = SvmConfig(C=100.0, tolerance=1e-9, max_passes=1)
        for rows, Y in sets:
            for info in svm_mod._solve_rows(X, rows, Y, cfg)[3]:
                assert info["passes"] == 1 and not info["converged"]
                assert info["kkt_gap"] > 1e-9

    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_ova_models_equal_binary_solves(self, n_classes, monkeypatch):
        # Two classes are solved once and mirrored: one problem, so bit for
        # bit its binary solve.  Five share one Gram matrix and one ascent,
        # so only the problems Newton certifies before the first pass keep
        # their binary solve's bits.
        rng = np.random.default_rng(34)
        X = rng.normal(size=(40, 12))
        labels = rng.integers(0, n_classes, 40)
        cfg = SvmConfig(C=10.0, seed=2)
        first = _first_newton(monkeypatch)
        solved = _spy(monkeypatch, "_solve_rows")
        ova, infos = train_ova(X, labels, cfg, return_infos=True)
        certified_first, ((_, _, alphas, _),) = list(first), solved
        assert ova.classes.tolist() == list(range(n_classes))
        for cls, w, b, info in zip(ova.classes, ova.W, ova.b, infos):
            y = np.where(labels == cls, 1.0, -1.0)
            alone = train_binary(X, y, cfg)
            if n_classes == 2:
                assert np.array_equal(alone[0], w) and alone[1] == b and alone[3] == info
            else:
                _agrees_with_alone(X, y, cfg, (w, b, alphas[cls], info), alone, certified_first[cls])
        if n_classes == 5:
            assert not all(certified_first) and any(info["converged"] for info in infos)


class TestNewtonFinish:
    def test_certificate_is_box_aware(self):
        # An entry outside [0, C] is no optimum, whatever its gradient.
        G = np.zeros(3)
        assert not svm_mod._kkt_gap(np.array([-1e-3, 0.5, 0.5]), G, 1.0) <= 1e-4
        assert not svm_mod._kkt_gap(np.array([0.5, 1.0 + 1e-3, 0.5]), G, 1.0) <= 1e-4
        assert svm_mod._kkt_gap(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0, -1.0]), 1.0) == 0.0

    def test_repeated_sets_without_certificate_are_not_kept(self):
        # A free block 1% off Q (as from an inaccurate solve) leaves the
        # free gradient near -0.01: the sets repeat, the certificate fails,
        # and the start comes back uncertified.
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        start = np.zeros(2)
        alpha, info = svm_mod._newton(start, -np.ones(2), np.ones(2), lambda a: Q @ a - 1.0,
                                      lambda F: 1.01 * Q[np.ix_(F, F)], np.diag(Q), 3, SvmConfig(C=100.0), 10)
        assert alpha is start and not info["converged"] and info["passes"] == 1

    @pytest.mark.parametrize("gram_limit", [2048, 1])
    def test_k_below_d_takes_the_newton_finish(self, gram_limit, monkeypatch):
        # Fewer samples than dimensions: Newton certifies the optimum, from
        # alpha = 0 on the Gram matrix or after the feature-space warm start,
        # and coordinate ascent never finishes the problem.
        rng = np.random.default_rng(41)
        X = rng.normal(size=(30, 60))
        y = np.where(rng.random(30) > 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", gram_limit)
        newton = _spy(monkeypatch, "_newton")
        cfg = SvmConfig(C=100.0, tolerance=1e-9, max_passes=300_000)
        _, _, alpha, info = train_binary(X, y, cfg)
        assert [out[1]["converged"] for out in newton] == [True]
        assert info["converged"] and info["kkt_gap"] <= 1e-9
        warm = 0 if gram_limit > 30 else svm_mod._WARM_PASSES
        assert info["passes"] <= warm + svm_mod._NEWTON_STEPS
        oracle, _ = box_qp_max(svm_dual_gram(X, y), 100.0)
        assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_rank_deficient_certifies_through_the_fallback(self, monkeypatch):
        # Two-arcs has d = 2, so rank(Q) <= 3 while far more indices are free
        # at alpha = 0: Newton cannot start there, and coordinate ascent,
        # with its Newton retries, certifies the optimum on both paths.
        X, labels = two_arcs(200, seed=3)
        y = np.where(labels == 1, 1.0, -1.0)
        cfg = SvmConfig(C=100.0, tolerance=1e-4, max_passes=100_000)
        oracle, _ = box_qp_max(svm_dual_gram(X, y), 100.0)
        for gram_limit in (2048, 1):
            monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", gram_limit)
            _, _, alpha, info = train_binary(X, y, cfg)
            assert info["converged"] and info["kkt_gap"] <= 1e-4
            assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * abs(oracle)

    def test_ascent_retries_newton(self):
        # 64 samples in 33 augmented dimensions at C = 100: Newton cannot
        # start from alpha = 0, and 1,000 passes of coordinate ascent alone
        # stop short of the tolerance; a Newton finish retried during the
        # ascent certifies the optimum.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 32))
        y = np.where(np.repeat([0, 1], 32) == 1, 1.0, -1.0)
        cfg = SvmConfig(C=100.0)
        _, _, alpha, info = train_binary(X, y, cfg)
        assert info["converged"] and info["kkt_gap"] <= cfg.tolerance
        assert info["passes"] < cfg.max_passes
        oracle, _ = box_qp_max(svm_dual_gram(X, y), 100.0)
        assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * abs(oracle)

    @pytest.mark.parametrize("threads", ["default", "1"])
    def test_alone_and_in_block_bit_identical(self, threads):
        _in_fresh_process("check_alone_and_in_block", threads)

    @pytest.mark.parametrize("threads, coretype", [("default", None), ("1", None), ("default", "Prescott")])
    def test_first_step_alone_and_at_every_block_position_bit_identical(self, threads, coretype):
        # A lone vector solve may differ in the last bits from a column of a
        # multi-column one, and under Prescott's kernel a width-2 column from
        # a width-8 one; at a fixed width of 8 a column's bits do not depend
        # on its position or on the other columns.
        _in_fresh_process("check_first_step_columns", threads, coretype)


def _in_fresh_process(check: str, threads: str, coretype: str | None = None):
    """Run ``check`` of this module in a fresh process, with ``threads`` BLAS
    threads ("default": as BLAS chooses) and, if given, OpenBLAS's kernel
    forced to ``coretype``: BLAS reads both at start-up."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_ENV}
    if threads != "default":
        env.update(dict.fromkeys(BLAS_ENV, threads))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    proc = subprocess.run([sys.executable, "-c", f"import test_svm; test_svm.{check}()"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def check_first_step_columns():
    """Each problem's first-step beta has the same bits in every column of
    the shared solve, whatever the other problems, and alone (its column
    padded with zeros): sets of 60 and 150 rows in 301 dimensions with 8 and
    9 problems (8 and 16 columns), at a C above every 1/Q_ii (every index
    free) and at one below some (those start at C)."""
    rng = np.random.default_rng(12)
    for n, m in ((60, 8), (150, 9)):
        X = rng.normal(size=(n, 301)) * rng.uniform(0.05, 1.0, size=(n, 1))
        K = svm_mod.gram(X)
        diag = np.diagonal(K)
        Y = np.where(rng.random((m, n)) < 0.5, 1.0, -1.0)
        for C in (100.0, 0.05):
            cfg = SvmConfig(C=C)
            assert (1.0 / diag >= C).any() == (C < 1.0)
            steps = lambda Ys: svm_mod._first_steps(lambda y: svm_mod._gram_grad(K, y), lambda F: K[F][:, F],
                                                    Ys, diag, 302, cfg)
            alone = [steps(Y[p:p + 1])[0] for p in range(m)]
            for shift in range(svm_mod._RHS_BLOCK):
                order = np.roll(np.arange(m), shift)
                for p, beta in zip(order, steps(Y[order])):
                    assert np.array_equal(beta, alone[p]), (n, m, C, shift, p)


def check_alone_and_in_block():
    """Every problem that Newton certifies from alpha = 0 has bit-equal
    alpha, weights and info solved alone and with the other class problems
    of its row set, sets of 120 rows in 301 dimensions; Newton certifies
    most.  In every third set each row appears twice, so Q_FF is singular
    and the problems go on to the set's shared ascent, which lands each on
    the QP optimum, as it does alone."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(400, 301))
    sets = []
    for j in range(6):
        n_cls = 2 + j % 3
        rows = np.sort(rng.choice(400, 120 if n_cls < 4 else 60, replace=False))
        labels = rng.integers(0, n_cls, rows.size)
        labels[:n_cls] = np.arange(n_cls)
        if n_cls == 4:
            rows, labels = np.repeat(rows, 2), np.repeat(labels, 2)
        sets.append((rows, np.where(labels == np.arange(n_cls)[:, None], 1.0, -1.0)))
    cfg = SvmConfig(C=100.0, tolerance=1e-6, seed=5)
    solved = []
    with pytest.MonkeyPatch.context() as mp:
        first = _first_newton(mp)
        for rows, Y in sets:
            solved.append((svm_mod._solve_rows(X, rows, Y, cfg), list(first)))
            first.clear()
    assert 0 < sum(f.count(False) for _, f in solved) < 18
    for (rows, Y), ((W, b, alphas, infos), certified_first) in zip(sets, solved):
        for p in range(Y.shape[0]):
            W1, b1, alpha1, info1 = svm_mod._solve_rows(X, rows, Y[p:p + 1], cfg)
            assert infos[p]["converged"] and info1[0]["converged"]
            _agrees_with_alone(X[rows], Y[p], cfg, (W[p], b[p], alphas[p], infos[p]),
                               (W1[0], b1[0], alpha1[0], info1[0]), certified_first[p])


def check_gradient_layout():
    """W @ X.T is bit-equal to (X @ W.T).T for 1 to 7 problems, row counts
    on both sides of BLAS block sizes and widths from 2 to the fused 2,112;
    with one problem, both are bit-equal to X @ w.  (A row of a product of
    several problems may differ from X @ w in the last bits.)"""
    rng = np.random.default_rng(19)
    for n in (7, 25, 200, 201, 1500, 1501, 3000, 3001, 4200):
        for d in (2, 16, 33, 301, 2112):
            X = rng.normal(size=(n, d))
            for m in (1, 2, 3, 7):
                W = rng.normal(size=(m, d))
                rows = W @ X.T
                assert np.array_equal(rows, (X @ W.T).T), (m, n, d)
                if m == 1:
                    assert np.array_equal(rows[0], X @ W[0]), (n, d)


class _TrackedRows(np.ndarray):
    """A matrix whose row gathers remember their row ids, and which records
    the row ids of both sides of every product of two matrices in
    ``products`` and counts every product at all in ``calls``."""

    products: list = []
    calls: list = []

    def __array_finalize__(self, obj):
        self.rows = getattr(obj, "rows", None)

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
            out.rows = self.rows[key]
        return out

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _TrackedRows.calls.append(1)
            if all(isinstance(a, _TrackedRows) and a.ndim == 2 for a in inputs):
                _TrackedRows.products.append((inputs[0].rows, inputs[1].rows))
        inputs = [np.asarray(a) if isinstance(a, _TrackedRows) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestFeatureSpaceNewton:
    # Problems above _GRAM_LIMIT rows: Newton's Q_FF comes from a Gram
    # cache of the rows free in any step of the problem, and its gradient
    # from the rows of nonzero alpha.

    def test_cache_blocks_equal_direct_product_each_row_multiplied_once(self, monkeypatch):
        rng = np.random.default_rng(51)
        n = 60
        X = rng.normal(size=(n, 40))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        tracked = X.view(_TrackedRows)
        tracked.rows = np.arange(n)
        free_sets = [
            np.arange(20),                           # every row new
            np.arange(30),                           # grows
            np.arange(5, 25),                        # shrinks
            np.arange(5, 25),                        # repeats
            np.setdiff1d(np.arange(5, 25), [10]),    # row 10 leaves
            np.r_[np.arange(5, 25), 40:45],          # row 10 comes back, with new rows
            np.array([3, 41, 59]),                   # scattered, one new
        ]
        seen, original = [], svm_mod._newton

        def driving(alpha, g, labels, grad, block, diag, width, cfg, steps, **kw):
            if not seen:
                _TrackedRows.products.clear()
                for F in free_sets:
                    direct = X[F] @ X[F].T + 1.0
                    G = block(F)
                    assert np.abs(G - direct).max() <= 1e-12 * np.abs(direct).max()
                seen.append(list(_TrackedRows.products))
            return original(alpha, g, labels, grad, block, diag, width, cfg, steps, **kw)

        monkeypatch.setattr(svm_mod, "_newton", driving)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 1)
        *_, (info,) = svm_mod._solve_rows(tracked, slice(None), y[None, :],
                                          SvmConfig(C=100.0, tolerance=1e-8, max_passes=100_000))
        assert info["converged"]
        # every dot product of two rows is computed at most once, and those
        # of every free set are computed
        count = np.zeros((n, n), dtype=np.int64)
        for left, right in seen[0]:
            pairs = np.zeros((n, n), dtype=bool)
            pairs[np.ix_(left, right)] = True
            count += pairs | pairs.T
        assert count.max() == 1
        for F in free_sets:
            assert count[np.ix_(F, F)].min() == 1
        # and no row outside the free sets is multiplied
        assert sorted(np.unique(np.concatenate([r for _, r in seen[0]]))) == \
            sorted(np.unique(np.concatenate(free_sets)))

    def test_cache_memory_within_two_blocks_and_two_tiles(self):
        # The cache holds each product once, as bands, and copies none: its
        # traced peak stays within the first block, the largest later one
        # and two tiles of rows, through a 900-row block, one with 100 new
        # rows, a subset of it and one spread over both bands with 200 new.
        rng = np.random.default_rng(54)
        n, d = 1500, 512
        X = rng.normal(size=(n, d))
        F0 = np.sort(rng.choice(n, 900, replace=False))
        rest = np.setdiff1d(np.arange(n), F0)
        F1 = np.union1d(F0, rest[:100])
        free_sets = [F0, F1, F1[::3], np.union1d(F1[::4], rest[100:300])]
        directs = [X[F] @ X[F].T + 1.0 for F in free_sets]
        peak = 0
        tracemalloc.start()
        try:
            block = svm_mod._gram_cache(X)
            for F, direct in zip(free_sets, directs):
                tracemalloc.reset_peak()
                G = block(F)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                assert np.abs(G - direct).max() <= 1e-12 * np.abs(direct).max()
                del G
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * ((F0.size ** 2 + F1.size ** 2) * 8 + 2 * svm_mod._ROWS * d * 8)

    def test_sparse_gradient_equals_dense_formula(self, monkeypatch):
        rng = np.random.default_rng(52)
        n = 700  # more than one tile of nonzero rows
        X = rng.normal(size=(n, 30))
        y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
        tracked = X.view(_TrackedRows)
        tracked.rows = np.arange(n)
        grads, original = [], svm_mod._newton

        def capture(alpha, g, labels, grad, block, diag, width, cfg, steps, **kw):
            grads.append(grad)
            return original(alpha, g, labels, grad, block, diag, width, cfg, steps, **kw)

        monkeypatch.setattr(svm_mod, "_newton", capture)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 1)
        svm_mod._solve_rows(tracked, slice(None), y[None, :], SvmConfig(C=10.0, max_passes=12))
        grad = grads[0]
        for density in (1.0, 0.5, 0.02):
            alpha = rng.uniform(0.0, 10.0, n) * (rng.random(n) < density)
            alpha[:3] = 10.0  # some at C
            ay = alpha * y
            dense = y * (X @ (ay @ X) + ay.sum()) - 1.0
            assert np.abs(grad(alpha) - dense).max() <= 1e-12 * np.abs(dense).max()
        _TrackedRows.calls.clear()
        assert np.array_equal(grad(np.zeros(n)), -np.ones(n))
        assert _TrackedRows.calls == []

    def test_duplicated_rows_certify_on_feature_space_path(self, monkeypatch):
        # Each row twice: Q, and every Q_FF holding both copies of a row, is
        # singular; the Newton finish or the ascent behind it must still
        # reach the QP optimum.
        rng = np.random.default_rng(53)
        X0 = rng.normal(size=(40, 50))
        y0 = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        X, y = np.repeat(X0, 2, axis=0), np.repeat(y0, 2)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 1)
        first, caches = _first_newton(monkeypatch), _spy(monkeypatch, "_gram_cache")
        cfg = SvmConfig(C=10.0, tolerance=1e-9, max_passes=300_000)
        _, _, alpha, info = train_binary(X, y, cfg)
        assert first == [] and caches
        assert info["converged"] and info["kkt_gap"] <= 1e-9
        oracle, _ = box_qp_max(svm_dual_gram(X, y), 10.0)
        assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))


class TestJointAscent:
    # A row set above _GRAM_LIMIT rows: one coordinate ascent for all of its
    # class problems, each row visited once per pass for all of them.

    @staticmethod
    def _blobs(n_classes=4, seed=2, d=2):
        """Blobs in the first two of d dimensions, noise in the others."""
        X, labels = gaussian_blobs(40, n_classes=n_classes, spread=1.0, seed=seed)
        X = np.hstack([X, np.random.default_rng(7).normal(size=(X.shape[0], d - 2))])
        return X, labels, np.where(labels == np.arange(n_classes)[:, None], 1.0, -1.0)

    @pytest.mark.parametrize("C, d", [(1.0, 2), (100.0, 40)])
    def test_every_problem_certifies_and_matches_oracle(self, C, d, monkeypatch):
        # d = 2: Newton cannot start (more free rows than 3 dimensions) and
        # the ascent certifies; d = 40: the Newton retries certify.
        X, labels, Y = self._blobs(d=d)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 16)
        first, gaps = _first_newton(monkeypatch), _spy(monkeypatch, "_kkt_gap")
        cfg = SvmConfig(C=C, tolerance=1e-9, max_passes=100_000)
        W, b, alphas, infos = svm_mod._solve_rows(X, slice(None), Y, cfg)
        # no Newton before the first pass, which every problem shares
        assert first == [] and gaps[0].shape == (Y.shape[0],)
        for y, w, bias, alpha, info in zip(Y, W, b, alphas, infos):
            assert info["converged"] and info["kkt_gap"] <= 1e-9
            assert np.all(alpha >= 0.0) and np.all(alpha <= C)
            assert np.allclose(w, (alpha * y) @ X, atol=1e-9) and np.isclose(bias, alpha @ y, atol=1e-9)
            oracle, _ = box_qp_max(svm_dual_gram(X, y), C)
            assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    def test_two_class_set_equals_binary_solve(self, monkeypatch):
        X, labels, _ = self._blobs(n_classes=2, seed=4)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 16)
        cfg = SvmConfig(C=10.0, tolerance=1e-8, seed=3)
        model, infos = train_ova(X, labels, cfg, return_infos=True)
        w, b, _, info = train_binary(X, np.where(labels == 1, 1.0, -1.0), cfg)
        assert np.array_equal(model.W[1], w) and model.b[1] == b
        assert np.array_equal(model.W[0], -w) and model.b[0] == -b
        assert infos == [info, info] and info["converged"]

    def test_exhausted_problem_does_not_stop_its_siblings(self, monkeypatch):
        # Problem 0's Newton tries spend every step they may and never
        # certify, so it reaches max_passes after about 70 passes of the
        # set; the others keep going until they certify.
        X, labels, Y = self._blobs()
        original = svm_mod._newton

        def burning(alpha, g, y, grad, block, diag, width, cfg, steps, **kw):
            if np.array_equal(y, Y[0]):
                return alpha, {"passes": steps, "converged": False, "kkt_gap": np.inf}
            return original(alpha, g, y, grad, block, diag, width, cfg, steps, **kw)

        monkeypatch.setattr(svm_mod, "_newton", burning)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 16)
        cfg = SvmConfig(C=1.0, tolerance=1e-6, max_passes=250)
        _, _, alphas, infos = svm_mod._solve_rows(X, slice(None), Y, cfg)
        assert infos[0]["passes"] == 250 and not infos[0]["converged"]
        for y, alpha, info in zip(Y[1:], alphas[1:], infos[1:]):
            assert info["converged"] and 100 < info["passes"] < 250
            oracle, _ = box_qp_max(svm_dual_gram(X, y), 1.0)
            assert abs(svm_dual_value(X, y, alpha) - oracle) <= 1e-6 * max(1.0, abs(oracle))

    @pytest.mark.parametrize("threads", ["default", "1"])
    def test_gradient_rows_bit_equal_in_either_layout(self, threads):
        # Each pass takes every live problem's gradient from one W @ X.T, so
        # the solver's bits stay those of (X @ W.T).T; with one problem (a
        # binary or two-class set) they are also those of X @ w.
        _in_fresh_process("check_gradient_layout", threads)

    def test_one_newton_cache_alive_at_a_time(self, monkeypatch):
        # Every problem tries Newton at least once and some several times.
        X, labels, Y = self._blobs(d=40)
        attempts, original = [], svm_mod._newton

        def watching(alpha, g, y, grad, block, diag, width, cfg, steps, **kw):
            problem = int(np.flatnonzero((Y == y).all(axis=1))[0])
            assert all(ref() is None for p, ref in attempts if p != problem)
            attempts.append((problem, weakref.ref(block)))
            return original(alpha, g, y, grad, block, diag, width, cfg, steps, **kw)

        monkeypatch.setattr(svm_mod, "_newton", watching)
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", 16)
        *_, infos = svm_mod._solve_rows(X, slice(None), Y, SvmConfig(C=100.0, tolerance=1e-8, max_passes=100_000))
        assert all(info["converged"] for info in infos)
        assert len({p for p, _ in attempts}) == Y.shape[0] and len(attempts) > Y.shape[0]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_rejected(self, bad):
        # A NaN row's decisions were [nan, nan], and it was predicted class 0.
        m = OvaModel([0, 1], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(NonFiniteValue, match="non-finite value at row 1, col 0"):
            predict_ova_batch(m, [[1.0, 2.0], [bad, 0.0]])

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

    def test_return_infos_reports_global_nonconvergence(self):
        # Global two-arcs at C = 100 stops at max_passes short of the tolerance.
        X, y = two_arcs(100, seed=100)
        cfg = SvmConfig(C=100.0)
        model, infos = train_ova(X, y, cfg, return_infos=True)
        assert [info["converged"] for info in infos] == [False, False]
        assert all(info["passes"] == cfg.max_passes and info["kkt_gap"] > cfg.tolerance
                   for info in infos)
        plain = train_ova(X, y, cfg)
        assert np.array_equal(plain.W, model.W) and np.array_equal(plain.b, model.b)

    @pytest.mark.parametrize("gram_limit", [svm_mod._GRAM_LIMIT, 1], ids=["gram", "feature-space"])
    def test_rows_overflowing_float64_rejected_before_any_solve(self, gram_limit, monkeypatch):
        # At 1e160 a squared norm overflows: the Gram path used to warn and
        # return a finite model of accuracy 1/3 with every problem unconverged.
        monkeypatch.setattr(svm_mod, "_GRAM_LIMIT", gram_limit)
        X, y = gaussian_blobs(30, 3, seed=1)
        cfg = SvmConfig(C=100.0)
        first, newton = _spy(monkeypatch, "_first_steps"), _spy(monkeypatch, "_newton")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="a row's squared norm overflows float64"):
                train_ova(X * 1e160, y, cfg)
            assert first == [] and newton == []
            model = train_ova(X * 1e150, y, cfg)
        assert (predict_ova_batch(model, X * 1e150) == y).mean() > 0.9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_as_non_finite(self, bad):
        # They were reported as "a row's squared norm overflows float64".
        X, y = gaussian_blobs(10, 2, seed=1)
        X[3, 1] = bad
        for train in (lambda: train_ova(X, y, SvmConfig()),
                      lambda: train_binary(X, np.where(y == 0, -1.0, 1.0), SvmConfig())):
            with pytest.raises(NonFiniteValue, match="non-finite value at row 3, col 1"):
                train()

    def test_single_class_constant_model(self):
        # One class gets one zero row and a zero bias: it wins every row
        # with a decision of 0.
        X = np.random.default_rng(0).normal(size=(5, 2))
        model, infos = train_ova(X, np.full(5, 3), SvmConfig(), return_infos=True)
        assert model.classes.tolist() == [3] and infos == []
        assert model.W.tolist() == [[0.0, 0.0]] and model.b.tolist() == [0.0]
        assert predict_ova_batch(model, X).tolist() == [3] * 5
        assert decisions(model, X).tolist() == [[0.0]] * 5

    def test_separable_four_class_recovers_labels(self):
        X, y = gaussian_blobs(3, n_classes=4, spread=0.15, seed=13)
        model = train_ova(X, y, SvmConfig(C=100.0, tolerance=1e-6, max_passes=100_000))
        assert np.array_equal(predict_ova_batch(model, X), y)

    def test_argmax_and_tie_rules(self):
        ova = OvaModel([0, 1], [[1.0], [2.0]], [0.0, 0.0])
        assert predict_ova_batch(ova, [[1.0]]).tolist() == [1]
        tie = OvaModel([0, 2], [[1.0], [1.0]], [0.0, 0.0])
        assert predict_ova_batch(tie, [[0.5]]).tolist() == [0]

    def test_one_trained_class_always_wins(self):
        ova = OvaModel([1], [[1.0, 1.0]], [-100.0])
        assert predict_ova_batch(ova, [[0.0, 0.0]]).tolist() == [1]

    def test_no_trained_classes(self):
        with pytest.raises(NoTrainedClasses):
            predict_ova_batch(OvaModel([], np.zeros((0, 1)), []), [[1.0]])

    def test_negative_labels_rejected(self):
        X = np.random.default_rng(3).normal(size=(6, 2))
        with pytest.raises(ValidationError, match="labels must be non-negative class ids"):
            train_ova(X, [0, 1, -1, 0, 1, -1], SvmConfig())

    def test_empty_batch(self):
        model = OvaModel([0, 1], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        preds = predict_ova_batch(model, np.zeros((0, 2)))
        assert preds.shape == (0,) and preds.dtype == np.int64

    def test_wrong_query_dim(self):
        model = OvaModel([0, 1], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(DimMismatch):
            predict_ova_batch(model, np.zeros((2, 3)))


MAP = LabelMap(("a", "b", "c", "d", "e"))


def _write_model(tmp_path, text):
    path = tmp_path / "m.ova"
    path.write_text(text, encoding="utf-8")
    return path


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        model = train_ova(X, rng.integers(0, 3, 20), SvmConfig(C=1.0))
        save_ova(model, MAP, tmp_path / "model.ova")
        for given, names in ((MAP, MAP.names), (None, ("a", "b", "c"))):
            back, label_map = load_ova(tmp_path / "model.ova", given)
            assert label_map.names == names
            for name in ("classes", "W", "b"):
                assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_roundtrip_decisions_bit_equal(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 11))
        model = train_ova(X, rng.integers(0, 4, 60), SvmConfig(C=100.0, seed=2))
        save_ova(model, MAP, tmp_path / "m.ova")
        back, _ = load_ova(tmp_path / "m.ova")
        assert np.array_equal(decisions(back, X), decisions(model, X))

    def test_either_feature_format_loads(self, tmp_path):
        model = OvaModel([1, 3], [[1.0, -0.5], [-1.0, 0.5]], [0.25, -0.25])
        save_ova(model, MAP, tmp_path / "m.ova")
        save_features(load_features(tmp_path / "m.ova"), tmp_path / "m.bin", fmt="binary")
        back, _ = load_ova(tmp_path / "m.bin", MAP)
        assert back.classes.tolist() == [1, 3]
        assert np.array_equal(back.W, model.W) and np.array_equal(back.b, model.b)

    def test_constant_roundtrip(self, tmp_path):
        X = np.random.default_rng(6).normal(size=(4, 3))
        model = train_ova(X, np.full(4, 2), SvmConfig())
        save_ova(model, MAP, tmp_path / "m.ova")
        back, label_map = load_ova(tmp_path / "m.ova", MAP)
        assert back.classes.tolist() == [2] and label_map is MAP
        assert np.array_equal(decisions(back, X), decisions(model, X))
        back, label_map = load_ova(tmp_path / "m.ova")
        assert back.classes.tolist() == [0] and label_map.names == ("c",)

    def test_rows_take_their_ids_from_the_label_map(self, tmp_path):
        # Rows in another order than the map's become ascending class ids,
        # each with its own weights.
        path = _write_model(tmp_path, "#locallearn-features v1 dim=2\nd,0.5,1.0\nb,-0.5,2.0\n")
        model, _ = load_ova(path, MAP)
        assert model.classes.tolist() == [1, 3]
        assert model.W.tolist() == [[2.0], [1.0]] and model.b.tolist() == [-0.5, 0.5]

    def test_old_format_is_malformed(self, tmp_path):
        path = _write_model(tmp_path, "#locallearn-ova v1\n#n_classes 2\n0 0.5 1.0\n")
        with pytest.raises(MalformedFile, match="bad header '#locallearn-ova v1'"):
            load_ova(path)

    def test_bad_header(self, tmp_path):
        (tmp_path / "m.ova").write_text("#not-a-model\n")
        with pytest.raises(MalformedFile):
            load_ova(tmp_path / "m.ova")

    @pytest.mark.parametrize("given", [MAP, None], ids=["labelmap", "no-labelmap"])
    def test_header_only_model_has_no_trained_classes(self, tmp_path, given):
        path = _write_model(tmp_path, "#locallearn-features v1 dim=3\n")
        with pytest.raises(NoTrainedClasses,
                           match=f"^{re.escape(str(path))}: OvA model has no trained classes$"):
            load_ova(path, given)

    def test_repeated_class_name(self, tmp_path):
        path = _write_model(tmp_path,
                            "#locallearn-features v1 dim=2\na,0.5,1.0\nb,0.0,1.0\na,-9,1.0\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: duplicate sample id 'a'$"):
            load_ova(path)

    def test_class_id_out_of_range(self, tmp_path):
        # A class id the map does not name is refused before the file is
        # opened, so no model file is left behind.
        model = OvaModel([0, 5], [[1.0], [2.0]], [0.0, 0.0])
        with pytest.raises(UnknownClassName, match="class id 5 out of range"):
            save_ova(model, MAP, tmp_path / "m.ova")
        assert not (tmp_path / "m.ova").exists()

    def test_class_name_outside_the_label_map(self, tmp_path):
        path = _write_model(tmp_path, "#locallearn-features v1 dim=2\na,0.5,1.0\nz,0.0,1.0\n")
        with pytest.raises(UnknownClassName, match=f"^{re.escape(str(path))}: unknown class name 'z'$"):
            load_ova(path, MAP)


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
