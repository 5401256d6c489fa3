#!/usr/bin/env python3
"""Bag-of-visual-words pipeline on a synthetic stripes-vs-checkerboard
corpus: dense SIFT, per-level k-means vocabularies, spatial-pyramid binary
encoding, then a global linear SVM.
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

from locallearn.bovw import (
    DESK_VOCAB_SIZES,
    DenseSiftConfig,
    PyramidConfig,
    build_vocab_from_descriptors,
    dense_sift,
    encode,
)
from locallearn.features import l2_normalize_rows
from locallearn.svm import SvmConfig, predict_ova_batch, train_ova
from locallearn.synth import texture_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--size", type=int, default=48)
    parser.add_argument("--bin-sizes", default="4,6,8")
    parser.add_argument("--step", type=int, default=3)
    parser.add_argument("--subsample-cap", type=int, default=10000)
    parser.add_argument("-C", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    images, labels = texture_corpus(args.per_class, size=args.size, seed=args.seed)
    y = np.array([0 if l == "stripes" else 1 for l in labels])
    sift = DenseSiftConfig(
        bin_sizes=tuple(int(b) for b in args.bin_sizes.split(",")), step=args.step
    )
    pyramid = PyramidConfig(levels=(1, 2, 3, 4), vocab_sizes=DESK_VOCAB_SIZES)
    print(f"corpus: {len(images)} images, encoded dim {pyramid.encoded_dim}")

    t0 = time.perf_counter()
    desc_sets = [dense_sift(img, sift) for img in images]
    print(f"descriptors: {sum(len(d) for d in desc_sets)} in "
          f"{time.perf_counter() - t0:.1f}s")

    n = len(images)
    train_rows = [i for i in range(n) if i % 2 == 0]
    test_rows = [i for i in range(n) if i % 2 == 1]
    t0 = time.perf_counter()
    pooled = np.vstack([desc_sets[i].vectors for i in train_rows])
    vocab = build_vocab_from_descriptors(
        pooled, sift, pyramid, seed=args.seed,
        subsample_cap=args.subsample_cap,
    )
    print(f"vocabulary built in {time.perf_counter() - t0:.1f}s")

    t0 = time.perf_counter()
    size = (args.size, args.size)
    feats = np.vstack([encode(d, vocab, pyramid, size) for d in desc_sets])
    print(f"encoded in {time.perf_counter() - t0:.1f}s")

    normalized = l2_normalize_rows(feats)
    ova = train_ova(normalized[train_rows], y[train_rows],
                    SvmConfig(C=args.C, seed=args.seed))
    acc = float(np.mean(predict_ova_batch(ova, normalized[test_rows]) == y[test_rows]))
    print(f"global SVM test accuracy: {acc:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
