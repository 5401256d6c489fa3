import numpy as np
import pytest

import locallearn.local as local_mod
import locallearn.pipeline as pipeline_mod
from locallearn.core import (
    FeatureMatrix, LabelMap, parse_manifest, save_features, write_labels,
)
from locallearn.errors import ValidationError
from locallearn.pipeline import IngestResult, ingest_and_fuse, run_pipeline
from locallearn.synth import gaussian_blobs, two_arcs
from oracles import ingest_by_copies

METHODS = ("global-svm", "local-svm", "knn")


def write_dataset(tmp_path, X, y, names, n_train, n_val=0, extra=""):
    n = len(X)
    ids = [f"s{i:04d}" for i in range(n)]
    save_features(FeatureMatrix(X, ids), tmp_path / "feats.fv")
    write_labels({s: names[c] for s, c in zip(ids, y)}, tmp_path / "labels.csv")
    (tmp_path / "classes.txt").write_text("".join(f"{n}\n" for n in names))
    splits = []
    for i, s in enumerate(ids):
        if i < n_train:
            splits.append(f"{s},train")
        elif i < n_train + n_val:
            splits.append(f"{s},val")
        else:
            splits.append(f"{s},test")
    (tmp_path / "splits.csv").write_text("\n".join(splits) + "\n")
    (tmp_path / "manifest.conf").write_text(
        "source feats feats.fv dim=2 normalize=off\n"
        "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\nseed 2\n"
        + extra
    )
    return tmp_path / "manifest.conf"


class TestRunPipeline:
    def test_three_class_toy_shapes(self, tmp_path):
        X, y = gaussian_blobs(40, n_classes=3, spread=0.5, seed=1)
        manifest = write_dataset(tmp_path, X, y, ("a", "b", "c"),
                                 n_train=90, n_val=10)
        result = run_pipeline(parse_manifest(manifest), k=15, C=10.0)
        assert set(result.reports) == set(METHODS)
        id_sets = [frozenset(result.predictions[m]) for m in METHODS]
        assert id_sets[0] == id_sets[1] == id_sets[2]
        for m in METHODS:
            assert result.reports[m].n_samples == len(id_sets[0])
        assert result.global_nonconverged == 0

    def test_two_arcs_local_beats_global_in_comparison(self, tmp_path):
        Xtr, ytr = two_arcs(600, seed=70)
        Xte, yte = two_arcs(100, seed=71)
        X = np.vstack([Xtr, Xte])
        y = np.concatenate([ytr, yte])
        manifest = write_dataset(tmp_path, X, y, ("lower", "upper"), n_train=600)
        result = run_pipeline(parse_manifest(manifest), k=30, C=100.0)
        assert result.reports["local-svm"].accuracy > result.reports["global-svm"].accuracy

    def test_rerun_same_seed_identical(self, tmp_path):
        X, y = gaussian_blobs(30, n_classes=2, spread=0.8, seed=3)
        manifest = parse_manifest(
            write_dataset(tmp_path, X, y, ("a", "b"), n_train=40)
        )
        r1 = run_pipeline(manifest, k=10, C=10.0)
        r2 = run_pipeline(manifest, k=10, C=10.0)
        for m in METHODS:
            assert r1.predictions[m] == r2.predictions[m]
            assert r1.reports[m].accuracy == r2.reports[m].accuracy

    def test_each_query_searched_once(self, tmp_path, monkeypatch):
        # The local SVM and the k-NN baseline share one index, and each test
        # query enters the batched search exactly once.
        X, y = gaussian_blobs(30, n_classes=3, spread=0.8, seed=6)
        manifest = parse_manifest(write_dataset(tmp_path, X, y, ("a", "b", "c"), n_train=70))
        indexes, searched = [], []
        index_cls, search = local_mod.CosineIndex, local_mod.top_k_batch

        def counted_index(*args):
            indexes.append(index_cls(*args))
            return indexes[-1]

        def recorded_search(index, queries, k):
            assert index is indexes[0]
            searched.extend(q.tobytes() for q in queries)
            return search(index, queries, k)

        monkeypatch.setattr(local_mod, "CosineIndex", counted_index)
        monkeypatch.setattr(local_mod, "top_k_batch", recorded_search)
        result = run_pipeline(manifest, k=9, C=10.0)
        test = ingest_and_fuse(manifest).fused["test"].values
        assert result.reports["knn"].n_samples == 20
        assert len(indexes) == 1
        assert sorted(searched) == sorted(q.tobytes() for q in test)
        assert len(set(searched)) == 20

    def test_missing_test_split_rejected(self, tmp_path):
        X, y = gaussian_blobs(10, n_classes=2, spread=0.5, seed=4)
        manifest = write_dataset(tmp_path, X, y, ("a", "b"), n_train=20)
        with pytest.raises(ValidationError):
            run_pipeline(parse_manifest(manifest), k=5)


class TestIngestAndFuse:
    def test_cap_applies_to_train_only(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        y = np.array([0] * 25 + [1] * 25 + [0] * 5 + [1] * 5)
        manifest = write_dataset(tmp_path, X, y, ("a", "b"), n_train=50,
                                 extra="cap 10\n")
        data = ingest_and_fuse(parse_manifest(manifest))
        assert data.fused["train"].n_samples == 20  # 10 per class
        assert data.fused["test"].n_samples == 10

    @pytest.mark.parametrize("call", [ingest_and_fuse, run_pipeline])
    def test_negative_seed_rejected_before_any_file_is_read(self, tmp_path, call):
        # ingest_and_fuse passed it on to np.random.default_rng, whose raw
        # ValueError came only after every file was read.
        X, y = gaussian_blobs(10, n_classes=2, spread=0.5, seed=4)
        manifest = parse_manifest(write_dataset(tmp_path, X, y, ("a", "b"), n_train=16,
                                                extra="cap 5\n"))
        for name in ("feats.fv", "labels.csv", "classes.txt", "splits.csv"):
            (tmp_path / name).unlink()
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            call(manifest, seed=-1)

    def test_fusion_order_and_normalization(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 12
        ids = [f"s{i:04d}" for i in range(n)]
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 2))
        save_features(FeatureMatrix(a, ids), tmp_path / "a.fv")
        save_features(FeatureMatrix(b, ids), tmp_path / "b.fv")
        write_labels({s: "x" for s in ids}, tmp_path / "labels.csv")
        (tmp_path / "classes.txt").write_text("x\n")
        (tmp_path / "splits.csv").write_text(
            "\n".join(f"{s},train" for s in ids) + "\n"
        )
        (tmp_path / "manifest.conf").write_text(
            "source a a.fv dim=3\n"
            "source b b.fv dim=2 normalize=off\n"
            "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n"
        )
        data = ingest_and_fuse(parse_manifest(tmp_path / "manifest.conf"))
        fused = data.fused["train"]
        assert fused.dim == 5
        # source a normalized, source b raw
        norms_a = np.linalg.norm(fused.values[:, :3], axis=1)
        assert np.allclose(norms_a, 1.0, atol=1e-12)
        row = fused.sample_ids.index(ids[0])
        assert np.array_equal(fused.values[row, 3:], b[0])


def write_two_sources(d, fmt="binary", b_normalize="on", extra=""):
    """Two sources of dims 13 and 6 (the fused dim, 19, is not a multiple
    of 8), the second row-permuted, and a splits file that lists the ids
    in an order unlike the first source's, with train, val and test."""
    rng = np.random.default_rng(8)
    n = 90
    ids = [f"s{i:03d}" for i in range(n)]
    a = rng.normal(size=(n, 13)) * 10.0 ** rng.integers(-100, 100, size=(n, 1))
    a[4] = 0.0
    b = rng.normal(size=(n, 6))
    perm = rng.permutation(n)
    save_features(FeatureMatrix(a, ids), d / "a.fv", fmt=fmt)
    save_features(FeatureMatrix(b[perm], [ids[i] for i in perm]), d / "b.fv", fmt=fmt)
    write_labels({s: "xyz"[i % 3] for i, s in enumerate(ids)}, d / "labels.csv")
    (d / "classes.txt").write_text("x\ny\nz\n")
    (d / "splits.csv").write_text("".join(
        f"{ids[i]},{('train', 'test', 'train', 'val')[i % 4]}\n" for i in rng.permutation(n)))
    (d / "m.conf").write_text(
        f"source a a.fv dim=13\nsource b b.fv normalize={b_normalize}\n"
        "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n" + extra)
    return parse_manifest(d / "m.conf")


class TestIngestOracle:
    @pytest.mark.parametrize("fmt, b_normalize, extra", [
        ("binary", "on", ""),
        ("text", "off", ""),
        ("binary", "off", "renormalize on\n"),
        ("text", "on", "cap 7\nseed 5\n"),
    ])
    def test_bit_equal_to_copying_ingest(self, tmp_path, fmt, b_normalize, extra):
        manifest = write_two_sources(tmp_path, fmt, b_normalize, extra)
        got = ingest_and_fuse(manifest).fused
        want = ingest_by_copies(manifest)
        assert got.keys() == want.keys() == {"train", "val", "test"}
        for split, expected in want.items():
            matrix = got[split]
            assert matrix.sample_ids == expected.sample_ids
            assert matrix.values.shape == expected.values.shape
            assert matrix.values.tobytes() == expected.values.tobytes()
            assert np.array_equal(matrix.labels, expected.labels)
        # The splits are views of one fused matrix; only cap copies train.
        base = got["test"].values.base
        assert base is not None and got["val"].values.base is base
        assert (got["train"].values.base is base) == ("cap" not in extra)

    def test_pipeline_equal_on_copied_splits(self, tmp_path, monkeypatch):
        # The split views' rows may sit at other memory alignments than a
        # copy's; every downstream result must still match bit for bit.
        manifest = write_two_sources(tmp_path)
        got = run_pipeline(manifest, k=15, C=10.0)
        monkeypatch.setattr(pipeline_mod, "ingest_and_fuse", lambda m, seed=None: IngestResult(
            LabelMap.from_file(m.labelmap_path), ingest_by_copies(m, seed)))
        want = run_pipeline(manifest, k=15, C=10.0)
        assert got.predictions == want.predictions
        for method, report in want.reports.items():
            assert got.reports[method].accuracy == report.accuracy
