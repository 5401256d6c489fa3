"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (visible with ``pytest -rA`` or -s).

Thresholds and tolerances are frozen here; the synthetic datasets and
seeds are fixed so every number is reproducible.
"""

import time

import numpy as np
import pytest

from locallearn.bovw import (
    DESK_VOCAB_SIZES,
    DenseSiftConfig,
    PyramidConfig,
    build_vocab_from_descriptors,
    dense_sift,
    encode,
)
from locallearn.cli import main as cli_main
from locallearn.core import FeatureMatrix, save_features, write_labels
from locallearn.dsd import (
    DsdPhase,
    DsdSchedule,
    SensitivityTable,
    TrainerConfig,
    dsd_train,
    init_mlp,
    select_rates,
    sensitivity_scan,
)
from locallearn.features import l2_normalize_rows
from locallearn.local import LocalLearnerConfig, local_predict_batch
from locallearn.neighbors import CosineIndex, top_k
from locallearn.svm import SvmConfig, predict_ova_batch, train_binary, train_ova
from locallearn.synth import as_feature_matrix, gaussian_blobs, texture_corpus, two_arcs

from oracles import box_qp_max, brute_cosine_topk, finite_diff_grads, max_rel_grad_err, svm_dual_gram, svm_dual_value


def report(line: str) -> None:
    print(f"PASS {line}")


def test_c01_svm_dual_matches_qp_oracle_on_50_problems():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        C = [1.0, 100.0][trial % 2]
        X = rng.normal(size=(n, d))
        y = rng.choice([-1.0, 1.0], size=n)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        cfg = SvmConfig(C=C, tolerance=1e-10, max_passes=300_000, seed=trial)
        _, _, alpha, info = train_binary(X, y, cfg)
        assert info["converged"], f"solver failed to certify on trial {trial}"
        mine = svm_dual_value(X, y, alpha)
        oracle, gap = box_qp_max(svm_dual_gram(X, y), C)
        rel = abs(mine - oracle) / max(abs(oracle), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-6, f"trial {trial}: rel error {rel}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion runtime {elapsed:.1f}s exceeds 10s"
    report(f"criterion 1: dual objective vs QP oracle, worst rel {worst:.2e}, "
           f"{elapsed:.1f}s for 50 problems")


def test_c02_local_with_full_coverage_equals_global():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, n_classes, n)
        y[:n_classes] = np.arange(n_classes)  # every class present
        train = as_feature_matrix(X, y)
        queries = as_feature_matrix(rng.normal(size=(10, d)), prefix="q")
        svm_cfg = SvmConfig(C=[1.0, 100.0][trial % 2], seed=trial)
        local_pred, _, _ = local_predict_batch(
            train, queries, LocalLearnerConfig(k=n + 5, svm=svm_cfg)
        )
        global_pred = predict_ova_batch(train_ova(X, y, svm_cfg), queries.values)
        assert np.array_equal(local_pred, global_pred), f"trial {trial} diverged"
    report("criterion 2: k >= n_train local predictions bit-identical to global "
           "OvA on 20 random datasets")


def test_c03_two_arcs_local_beats_global_by_ten_points():
    t0 = time.perf_counter()
    Xtr, ytr = two_arcs(2000, seed=7)
    Xte, yte = two_arcs(400, seed=8)
    train = as_feature_matrix(Xtr, ytr)
    test = as_feature_matrix(Xte, yte, prefix="t")
    global_cfg = SvmConfig(C=100.0, seed=0, tolerance=1e-2, max_passes=1000)
    ova = train_ova(train.values, train.labels, global_cfg)
    global_acc = float(np.mean(predict_ova_batch(ova, test.values) == yte))
    local_cfg = LocalLearnerConfig(
        k=50, svm=SvmConfig(C=100.0, seed=0, tolerance=1e-3, max_passes=200)
    )
    local_pred, _, _ = local_predict_batch(train, test, local_cfg, workers=1)
    local_acc = float(np.mean(local_pred == yte))
    elapsed = time.perf_counter() - t0
    assert local_acc >= 0.95, f"local accuracy {local_acc}"
    assert local_acc - global_acc >= 0.10, (
        f"gap {100 * (local_acc - global_acc):.1f} points"
    )
    assert elapsed < 60.0, f"criterion runtime {elapsed:.1f}s exceeds 60s"
    report(f"criterion 3: two-arcs local {local_acc:.4f} vs global {global_acc:.4f} "
           f"(gap {100 * (local_acc - global_acc):.1f} pts), {elapsed:.1f}s single-threaded")


def test_c04_method_ordering_local_above_knn_above_chance():
    cfg = SvmConfig(C=100.0, seed=0, tolerance=1e-3, max_passes=150)
    local_accs, knn_accs = [], []
    for s in range(5):
        Xtr, ytr = two_arcs(2000, seed=100 + s)
        Xte, yte = two_arcs(150, seed=200 + s)
        train = as_feature_matrix(Xtr, ytr)
        test = as_feature_matrix(Xte, yte, prefix="t")
        local_pred, knn_pred, _ = local_predict_batch(
            train, test, LocalLearnerConfig(k=200, svm=cfg)
        )
        local_accs.append(float(np.mean(local_pred == yte)))
        knn_accs.append(float(np.mean(knn_pred == yte)))
    local_med = float(np.median(local_accs))
    knn_med = float(np.median(knn_accs))
    assert local_med > knn_med > 0.5, (local_med, knn_med)
    report(f"criterion 4: median over 5 seeds local {local_med:.4f} > "
           f"knn(k=200) {knn_med:.4f} > chance 0.5")


def test_c05_neighbor_search_exactness():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(1000, 128))
    index = CosineIndex(rows)
    for k in (1, 200, 1000):
        q = rng.normal(size=128)
        mine = top_k(index, q, k)
        ref = brute_cosine_topk(rows, q, k)
        assert [i for i, _ in mine] == [i for i, _ in ref], f"top_k mismatch at k={k}"
    report("criterion 5: top_k exact for k in {1,200,1000}")


def test_c06_bovw_end_to_end_textures():
    images, labels = texture_corpus(100, size=48, seed=11)
    y = np.array([0 if l == "stripes" else 1 for l in labels])
    sift = DenseSiftConfig(bin_sizes=(4, 6, 8), step=3)
    pyramid = PyramidConfig(levels=(1, 2, 3, 4), vocab_sizes=DESK_VOCAB_SIZES)
    assert pyramid.encoded_dim == sum(
        g * g * k for g, k in zip(pyramid.levels, pyramid.vocab_sizes)
    )
    assert pyramid.encoded_dim == 1600
    full = PyramidConfig()
    assert full.encoded_dim == 1 * 17000 + 4 * 14000 + 9 * 11000 + 16 * 8000 == 300000
    desc_sets = [dense_sift(img, sift) for img in images]
    train_rows = [i for i in range(200) if i % 2 == 0]
    test_rows = [i for i in range(200) if i % 2 == 1]
    pooled = np.vstack([desc_sets[i].vectors for i in train_rows])
    vocab = build_vocab_from_descriptors(
        pooled, sift, pyramid, seed=5, subsample_cap=10_000,
    )
    feats = np.vstack(
        [encode(desc_sets[i], vocab, pyramid, (48, 48)) for i in range(200)]
    )
    assert feats.shape[1] == pyramid.encoded_dim
    assert set(np.unique(feats)) <= {0.0, 1.0}
    normalized = l2_normalize_rows(feats)
    ova = train_ova(normalized[train_rows], y[train_rows], SvmConfig(C=1.0, seed=0))
    acc = float(np.mean(predict_ova_batch(ova, normalized[test_rows]) == y[test_rows]))
    assert acc >= 0.95, f"BOVW accuracy {acc}"
    report(f"criterion 6: BOVW+SVM texture accuracy {acc:.4f}, encoded dim "
           f"{pyramid.encoded_dim} (full-scale closed form 300000)")


def test_c07_mlp_gradients_match_finite_differences():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.integers(3, 7))
        hidden = int(rng.integers(4, 9))
        k = int(rng.integers(2, 5))
        model = init_mlp([d, hidden, k], seed=trial, std=0.5)
        X = rng.normal(size=(8, d))
        y = rng.integers(0, k, 8)
        _, analytic = model.loss_and_grads(X, y)
        numeric = finite_diff_grads(model, X, y)
        worst = max(worst, max_rel_grad_err(analytic, numeric))
    assert worst < 1e-5, f"worst relative gradient error {worst}"
    report(f"criterion 7: gradient check over 10 configs, worst rel err {worst:.2e}")


def test_c08_sparse_phase_enforces_zero_fraction_floor():
    Xtr, ytr = gaussian_blobs(100, 4, spread=1.2, seed=21)
    Xv, yv = gaussian_blobs(60, 4, spread=1.2, seed=22)
    for rate in (0.1, 0.3, 0.6):
        sched = DsdSchedule((DsdPhase("dense", 2), DsdPhase("sparse", 3, rate)))
        model = init_mlp([2, 16, 4], seed=1)
        logs = dsd_train(
            model, (Xtr, ytr), (Xv, yv), sched,
            TrainerConfig(lr=0.1, batch_size=64, seed=1),
        )
        for entry in logs:
            if entry.phase == "sparse":
                for layer, frac in entry.zero_fracs.items():
                    assert frac >= rate, (rate, layer, frac)
    report("criterion 8: exact-zero fraction >= rate after every sparse epoch "
           "for rates {0.1, 0.3, 0.6}")


def test_c09_dsd_no_worse_than_dense_within_a_point():
    t0 = time.perf_counter()
    dsd_sched = DsdSchedule(
        (DsdPhase("dense", 30), DsdPhase("sparse", 10, 0.3), DsdPhase("dense", 10))
    )
    plain_sched = DsdSchedule((DsdPhase("dense", 50),))
    dsd_accs, plain_accs = [], []
    for s in range(5):
        Xtr, ytr = gaussian_blobs(150, 4, spread=1.6, seed=300 + s)
        Xv, yv = gaussian_blobs(150, 4, spread=1.6, seed=400 + s)
        cfg = TrainerConfig(lr=0.1, batch_size=64, seed=s)
        m_dsd = init_mlp([2, 16, 4], seed=s)
        dsd_accs.append(dsd_train(m_dsd, (Xtr, ytr), (Xv, yv), dsd_sched, cfg)[-1].val_acc)
        m_plain = init_mlp([2, 16, 4], seed=s)
        plain_accs.append(
            dsd_train(m_plain, (Xtr, ytr), (Xv, yv), plain_sched, cfg)[-1].val_acc
        )
    dsd_med = float(np.median(dsd_accs))
    plain_med = float(np.median(plain_accs))
    elapsed = time.perf_counter() - t0
    assert dsd_med >= plain_med - 0.01, (dsd_med, plain_med)
    assert elapsed < 120.0, f"criterion runtime {elapsed:.1f}s exceeds 120s"
    report(f"criterion 9: DSD median {dsd_med:.4f} vs plain {plain_med:.4f} "
           f"(allowed drop 1.0 pt), {elapsed:.1f}s")


def test_c10_sensitivity_scan_baseline_and_threshold_rule():
    Xtr, ytr = gaussian_blobs(100, 4, spread=1.0, seed=31)
    Xv, yv = gaussian_blobs(60, 4, spread=1.0, seed=32)
    model = init_mlp([2, 8, 4], seed=2)
    dsd_train(model, (Xtr, ytr), (Xv, yv), DsdSchedule((DsdPhase("dense", 10),)),
              TrainerConfig(lr=0.1, batch_size=64, seed=2))
    table = sensitivity_scan(model, Xv, yv)
    assert table.baseline == model.accuracy(Xv, yv)

    rates = (0.3, 0.4, 0.5, 0.6)

    def fixed(drops):
        return SensitivityTable(
            baseline=0.9, rates=rates,
            acc={"layer": {r: 0.9 - drops[r] / 100.0 for r in rates}},
        )

    case1 = fixed({0.3: 0.1, 0.4: 0.2, 0.5: 0.7, 0.6: 2.0})
    case2 = fixed({0.3: 0.6, 0.4: 0.8, 0.5: 1.0, 0.6: 3.0})
    case3 = fixed({0.3: 0.0, 0.4: 0.1, 0.5: 0.4, 0.6: 0.5})
    assert select_rates(case1) == {"layer": 0.4}
    assert select_rates(case2) == {"layer": 0.0}
    assert select_rates(case3) == {"layer": 0.6}
    report("criterion 10: scan baseline equals unpruned accuracy; threshold rule "
           "exact on 3 fixed tables")


def test_c11_pipeline_reports_byte_identical(tmp_path):
    Xtr, ytr = two_arcs(240, seed=60)
    Xte, yte = two_arcs(60, seed=61)
    names = ("lower", "upper")
    ids_tr = [f"tr{i}" for i in range(len(Xtr))]
    ids_te = [f"te{i}" for i in range(len(Xte))]
    matrix = FeatureMatrix(np.vstack([Xtr, Xte]), ids_tr + ids_te)
    save_features(matrix, tmp_path / "arcs.fv")
    labels = {s: names[l] for s, l in zip(ids_tr, ytr)}
    labels.update({s: names[l] for s, l in zip(ids_te, yte)})
    write_labels(labels, tmp_path / "labels.csv")
    (tmp_path / "classes.txt").write_text("lower\nupper\n")
    (tmp_path / "splits.csv").write_text(
        "\n".join([f"{s},train" for s in ids_tr] + [f"{s},test" for s in ids_te]) + "\n"
    )
    (tmp_path / "manifest.conf").write_text(
        "source arcs arcs.fv dim=2 normalize=off\n"
        "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\nseed 4\n"
    )
    blobs = []
    for run_name, workers in (("r1", 1), ("r2", 1), ("r8", 8)):
        out = tmp_path / run_name
        code = cli_main([
            "pipeline", "--manifest", str(tmp_path / "manifest.conf"),
            "--out", str(out), "-k", "20", "-C", "100",
            "--workers", str(workers), "--seed", "5",
        ])
        assert code == 0
        names_sorted = sorted(p.name for p in out.iterdir() if p.name != "timing.txt")
        blobs.append({n: (out / n).read_bytes() for n in names_sorted})
    assert blobs[0] == blobs[1], "same-seed reruns differ"
    assert blobs[0] == blobs[2], "worker count changed report bytes"
    report("criterion 11: pipeline reports byte-identical across reruns and "
           "worker counts 1 vs 8")
