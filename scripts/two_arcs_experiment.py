#!/usr/bin/env python3
"""Global SVM vs local SVM vs cosine k-NN on the two-arcs problem.

A single hyperplane cannot follow the interleaved arcs; training a fresh
one-vs-all SVM inside each query's neighborhood can.  Prints a method
comparison table and the local learner's stage timings.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

try:
    import locallearn  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from locallearn.local import LocalLearnerConfig, knn_classify_batch, local_predict_batch
from locallearn.svm import SvmConfig, predict_ova_batch, train_ova
from locallearn.synth import as_feature_matrix, two_arcs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-train", type=int, default=2000)
    parser.add_argument("--n-test", type=int, default=400)
    parser.add_argument("--noise", type=float, default=0.15)
    parser.add_argument("-k", type=int, default=50, help="local neighborhood size")
    parser.add_argument("--knn-k", type=int, default=200)
    parser.add_argument("-C", type=float, default=100.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    Xtr, ytr = two_arcs(args.n_train, noise=args.noise, seed=args.seed)
    Xte, yte = two_arcs(args.n_test, noise=args.noise, seed=args.seed + 1)
    train = as_feature_matrix(Xtr, ytr)
    test = as_feature_matrix(Xte, yte, prefix="t")

    t0 = time.perf_counter()
    global_cfg = SvmConfig(C=args.C, seed=args.seed, tolerance=1e-2, max_passes=1000)
    ova = train_ova(train.values, train.labels, global_cfg)
    global_pred = predict_ova_batch(ova, test.values)
    t_global = time.perf_counter() - t0

    local_cfg = LocalLearnerConfig(
        k=args.k, svm=SvmConfig(C=args.C, seed=args.seed, tolerance=1e-3, max_passes=200)
    )
    t0 = time.perf_counter()
    local_pred, _, timing = local_predict_batch(train, test, local_cfg, workers=args.workers)
    t_local = time.perf_counter() - t0

    t0 = time.perf_counter()
    knn_pred = knn_classify_batch(train, test, args.knn_k)
    t_knn = time.perf_counter() - t0

    rows = [
        ("global-svm", float(np.mean(global_pred == yte)), t_global),
        (f"local-svm(k={args.k})", float(np.mean(local_pred == yte)), t_local),
        (f"knn(k={args.knn_k})", float(np.mean(knn_pred == yte)), t_knn),
    ]
    print(f"{'method':<20} {'accuracy':>9} {'seconds':>8}")
    for name, acc, sec in rows:
        print(f"{name:<20} {acc:>9.4f} {sec:>8.2f}")
    print(f"\nlocal stages: search {timing.search_s:.2f}s  solve {timing.solve_s:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
