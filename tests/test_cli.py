import argparse
import inspect
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from locallearn import bovw, cli, core, dsd, pipeline, svm
from locallearn.cli import build_parser, main
from locallearn.errors import ValidationError
from locallearn.synth import gaussian_blobs, texture_corpus, two_arcs

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def arcs_dataset(tmp_path):
    """Feature/label/map/manifest files for a small two-arcs problem."""
    Xtr, ytr = two_arcs(240, seed=50)
    Xte, yte = two_arcs(60, seed=51)
    names = ("lower", "upper")
    d = tmp_path / "data"
    d.mkdir()
    labels = {}
    splits = []
    ids_tr = [f"tr{i}" for i in range(len(Xtr))]
    ids_te = [f"te{i}" for i in range(len(Xte))]
    for sid, lab in zip(ids_tr, ytr):
        labels[sid] = names[lab]
        splits.append(f"{sid},train")
    for sid, lab in zip(ids_te, yte):
        labels[sid] = names[lab]
        splits.append(f"{sid},test")
    all_values = np.vstack([Xtr, Xte])
    matrix = core.FeatureMatrix(all_values, ids_tr + ids_te)
    core.save_features(matrix, d / "arcs.fv")
    core.save_features(matrix.take(range(len(Xtr))).with_labels(ytr), d / "train.fv")
    core.save_features(
        core.FeatureMatrix(Xte, ids_te), d / "test.fv"
    )
    core.write_labels(labels, d / "labels.csv")
    (d / "classes.txt").write_text("lower\nupper\n")
    (d / "splits.csv").write_text("\n".join(splits) + "\n")
    (d / "manifest.conf").write_text(
        "source arcs arcs.fv dim=2 normalize=off\n"
        "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\nseed 3\n"
    )
    truth_test = {sid: labels[sid] for sid in ids_te}
    return d, truth_test


def run(argv):
    return main([str(a) for a in argv])


class TestFuseCommand:
    def test_fuse_two_sources(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = [f"s{i}" for i in range(4)]
        a = core.FeatureMatrix(rng.normal(size=(4, 3)), ids)
        b = core.FeatureMatrix(rng.normal(size=(4, 2)), ids)
        core.save_features(a, tmp_path / "a.fv")
        core.save_features(b, tmp_path / "b.fv")
        out = tmp_path / "fused.fv"
        code = run(["fuse", "--source", f"a={tmp_path}/a.fv",
                    "--source", f"b={tmp_path}/b.fv", "--out", out])
        assert code == 0
        fused = core.load_features(out)
        assert fused.dim == 5

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run(["fuse", "--source", f"a={tmp_path}/nope.fv",
                    "--out", tmp_path / "o.fv"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: FileNotFoundError:") and err.count("\n") == 1
        # a validation failure must name the error on stderr
        bad = tmp_path / "bad.fv"
        bad.write_text("#wrong header\n")
        code = run(["fuse", "--source", f"a={bad}", "--out", tmp_path / "o.fv"])
        captured = capsys.readouterr()
        assert code == 2
        assert "MalformedFile" in captured.err

    @pytest.mark.parametrize("extra, error", [
        (["--source", "b={d}/a.fv", "--no-normalize", "zz"], "error: UnknownSource:"),
        (["--source", "a={d}/a.fv"], "error: ValidationError:"),
    ], ids=["no-normalize-unknown", "repeated-source"])
    def test_bad_source_list_exits_2(self, tmp_path, capsys, extra, error):
        core.save_features(core.FeatureMatrix(np.eye(2), ["x", "y"]), tmp_path / "a.fv")
        code = run(["fuse", "--source", f"a={tmp_path}/a.fv",
                    *[a.format(d=tmp_path) for a in extra], "--out", tmp_path / "o.fv"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(error) and err.count("\n") == 1
        assert not (tmp_path / "o.fv").exists()


class TestTrainPredictEval:
    def test_global_flow(self, arcs_dataset, tmp_path, capsys):
        d, truth = arcs_dataset
        model = tmp_path / "model.ova"
        assert run(["train-global", "--features", d / "train.fv",
                    "--labels", d / "labels.csv", "--labelmap", d / "classes.txt",
                    "-C", "100", "--seed", "0", "--out", model]) == 0
        assert capsys.readouterr().err == (
            "solver: 2 binary models, 2 stopped at max passes without converging\n")
        preds = tmp_path / "preds.csv"
        assert run(["predict-global", "--model", model,
                    "--features", d / "test.fv", "--out", preds]) == 0
        lines = preds.read_text().strip().splitlines()
        assert len(lines) == 60
        assert all(line.split(",")[1] in ("lower", "upper") for line in lines)
        assert run(["eval", "--predictions", preds, "--truth", d / "labels.csv",
                    "--labelmap", d / "classes.txt"]) == 2  # truth covers extra ids
        truth_file = tmp_path / "truth_test.csv"
        core.write_labels(truth, truth_file)
        out_prefix = tmp_path / "report"
        assert run(["eval", "--predictions", preds, "--truth", truth_file,
                    "--labelmap", d / "classes.txt", "--out", out_prefix]) == 0
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.csv").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_predict_global_same_with_and_without_labelmap(self, arcs_dataset, tmp_path):
        # The map names a class that no training row has, between the two
        # trained ones: the model file's rows take ids 0 and 2 from it, and
        # 0 and 1 without it, and every prediction names the same class.
        d, _ = arcs_dataset
        (tmp_path / "map.txt").write_text("lower\nmiddle\nupper\n")
        model = tmp_path / "m.ova"
        assert run(["train-global", "--features", d / "train.fv", "--labels", d / "labels.csv",
                    "--labelmap", tmp_path / "map.txt", "-C", "100", "--out", model]) == 0
        predict = ["predict-global", "--model", model, "--features", d / "test.fv"]
        assert run([*predict, "--labelmap", tmp_path / "map.txt", "--out", tmp_path / "with"]) == 0
        assert run([*predict, "--out", tmp_path / "without"]) == 0
        assert (tmp_path / "with").read_bytes() == (tmp_path / "without").read_bytes()
        assert {line.split(",")[1] for line in (tmp_path / "with").read_text().splitlines()} == {
            "lower", "upper"}

    def test_eval_names_classes_of_truth_and_predictions(self, tmp_path, capsys):
        # Without --labelmap, a predicted class that the truth never names
        # used to exit 2 with UnknownClassName.
        core.write_labels({"a": "x", "b": "y", "c": "y"}, tmp_path / "truth.csv")
        core.write_labels({"a": "x", "b": "y", "c": "z"}, tmp_path / "preds.csv")
        assert run(["eval", "--predictions", tmp_path / "preds.csv",
                    "--truth", tmp_path / "truth.csv"]) == 0
        out = capsys.readouterr().out
        assert "accuracy 0.666667" in out
        assert [line.split()[0] for line in out.splitlines()[4:7]] == ["x", "y", "z"]

    def test_local_and_knn_flow(self, arcs_dataset, tmp_path, capsys):
        d, truth = arcs_dataset
        for cmd, out_name in (("predict-local", "lp.csv"), ("knn-baseline", "kp.csv")):
            out = tmp_path / out_name
            args = [cmd, "--train", d / "train.fv", "--train-labels", d / "labels.csv",
                    "--labelmap", d / "classes.txt", "--test", d / "test.fv",
                    "-k", "20", "--out", out]
            if cmd == "predict-local":
                args += ["-C", "100", "--workers", "2", "--seed", "1"]
            assert run(args) == 0
            assert len(out.read_text().strip().splitlines()) == 60
            if cmd == "predict-local":
                solver = capsys.readouterr().err.splitlines()[-1]
                assert solver.startswith("solver: ") and solver.endswith(" Gram entries")


class TestIngestAndPipeline:
    def test_ingest(self, arcs_dataset, tmp_path):
        d, _ = arcs_dataset
        out_dir = tmp_path / "ingested"
        assert run(["ingest", "--manifest", d / "manifest.conf",
                    "--out-dir", out_dir]) == 0
        train = core.load_features(out_dir / "train.features")
        assert train.n_samples == 240 and train.dim == 2
        assert (out_dir / "test.labels").exists()
        assert (out_dir / "labelmap.txt").exists()

    def test_ingest_seed_falls_back_to_manifest(self, arcs_dataset, tmp_path, monkeypatch):
        d, _ = arcs_dataset
        monkeypatch.delenv("LOCALLEARN_SEED", raising=False)
        conf = (d / "manifest.conf").read_text().replace("seed 3\n", "cap 5\n")
        runs = {"m1": ("seed 1", []), "m2": ("seed 2", []), "m1-seed2": ("seed 1", ["--seed", "2"])}
        train = {}
        for name, (line, flags) in runs.items():
            (d / f"{name}.conf").write_text(f"{conf}{line}\n")
            out = tmp_path / name
            assert run(["ingest", "--manifest", d / f"{name}.conf", "--out-dir", out, *flags]) == 0
            train[name] = (out / "train.features").read_bytes()
        assert train["m1"] != train["m2"]
        assert train["m1-seed2"] == train["m2"]

    def test_pipeline_reports_and_determinism(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        outputs = []
        for run_dir in ("p1", "p2"):
            out = tmp_path / run_dir
            assert run(["pipeline", "--manifest", d / "manifest.conf",
                        "--out", out, "-k", "20", "-C", "100",
                        "--workers", "1", "--seed", "5"]) == 0
            blob = b"".join(
                (out / name).read_bytes()
                for name in sorted(p.name for p in out.iterdir())
                if name != "timing.txt"
            )
            outputs.append(blob)
        assert outputs[0] == outputs[1]
        comparison = (tmp_path / "p1" / "comparison.txt").read_text()
        assert "local-svm" in comparison and "global-svm" in comparison and "knn" in comparison

    def test_each_command_writes_the_pipeline_file(self, tmp_path):
        # The source lists its ids out of sorted order: the commands used to
        # write rows in that order, where the pipeline sorts by sample id.
        X, y = gaussian_blobs(20, 3, spread=1.5, seed=6)
        ids = [f"s{i}" for i in np.random.default_rng(6).permutation(len(X))]
        core.save_features(core.FeatureMatrix(X, ids), tmp_path / "a.fv")
        core.write_labels({sid: "uvw"[c] for sid, c in zip(ids, y)}, tmp_path / "labels.csv")
        (tmp_path / "classes.txt").write_text("u\nv\nw\n")
        (tmp_path / "splits.csv").write_text(
            "".join(f"{sid},{'test' if i % 4 == 0 else 'train'}\n" for i, sid in enumerate(ids)))
        (tmp_path / "m.conf").write_text("source a a.fv\nlabels labels.csv\nlabelmap classes.txt\n"
                                          "splits splits.csv\n")
        ing, pipe = tmp_path / "ingested", tmp_path / "pipeline"
        assert run(["ingest", "--manifest", tmp_path / "m.conf", "--out-dir", ing]) == 0
        test_ids = core.load_features(ing / "test.features").sample_ids
        assert list(test_ids) != sorted(test_ids)
        solver = ["-C", "100", "--seed", "4"]
        assert run(["pipeline", "--manifest", tmp_path / "m.conf", "--out", pipe, "-k", "10",
                    *solver]) == 0
        train = ["--train", ing / "train.features", "--train-labels", ing / "train.labels",
                 "--labelmap", ing / "labelmap.txt", "--test", ing / "test.features", "-k", "10"]
        assert run(["train-global", "--features", ing / "train.features", "--labels",
                    ing / "train.labels", "--labelmap", ing / "labelmap.txt", *solver,
                    "--out", tmp_path / "m.ova"]) == 0
        assert run(["predict-global", "--model", tmp_path / "m.ova", "--features",
                    ing / "test.features", "--out", tmp_path / "global-svm.predictions"]) == 0
        assert run(["predict-local", *train, *solver, "--out", tmp_path / "local-svm.predictions"]) == 0
        assert run(["knn-baseline", *train, "--out", tmp_path / "knn.predictions"]) == 0
        for name in ("global-svm.predictions", "local-svm.predictions", "knn.predictions"):
            assert (tmp_path / name).read_bytes() == (pipe / name).read_bytes(), name

    def test_timing_reports_global_training_within_wall_time(self, arcs_dataset, tmp_path):
        d, _ = arcs_dataset
        assert run(["pipeline", "--manifest", d / "manifest.conf", "--out", tmp_path / "p",
                    "-k", "20", "-C", "100"]) == 0
        timing = dict(line.split() for line in (tmp_path / "p" / "timing.txt").read_text().splitlines())
        stages = [float(timing[key]) for key in ("global_train_s", "local_search_s", "local_solve_s")]
        assert all(s >= 0.0 for s in stages)
        assert sum(stages) <= float(timing["wall_s"])
        assert timing["global_nonconverged"] == "2"  # two-arcs at C = 100
        assert int(timing["local_gram_entries"]) > 0


class TestBovwCommands:
    def test_build_vocab_then_encode(self, tmp_path):
        imgs, labels = texture_corpus(3, size=32, seed=0)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for i, img in enumerate(imgs):
            bovw.write_pgm(img_dir / f"img{i:03d}.pgm", img)
        cfg = tmp_path / "bovw.conf"
        cfg.write_text(
            "levels 1,2\nvocab 6,4\nbin-sizes 4,6\nstep 4\n"
            "subsample-cap 5000\n"
        )
        vocab_path = tmp_path / "vocab.llvb"
        assert run(["build-vocab", "--images", img_dir, "--config", cfg,
                    "--out", vocab_path, "--seed", "2"]) == 0
        feats = tmp_path / "bovw.fv"
        assert run(["encode", "--images", img_dir, "--vocab", vocab_path,
                    "--out", feats]) == 0
        m = core.load_features(feats)
        assert m.n_samples == 6
        assert m.dim == 1 * 6 + 4 * 4
        assert set(np.unique(m.values)) <= {0.0, 1.0}
        # worker fan-out must not change the encoding
        feats4 = tmp_path / "bovw4.fv"
        assert run(["encode", "--images", img_dir, "--vocab", vocab_path,
                    "--workers", "4", "--out", feats4]) == 0
        assert np.array_equal(core.load_features(feats4).values, m.values)
        # a vocabulary cut short is a malformed file, not a crash
        cut = tmp_path / "cut.llvb"
        cut.write_bytes(vocab_path.read_bytes()[:-8])
        assert run(["encode", "--images", img_dir, "--vocab", cut,
                    "--out", tmp_path / "cut.fv"]) == 2

    def test_encode_window_wider_than_image_exits_2(self, tmp_path, capsys):
        # The vocabulary's header names 5 spatial bins: a 5 * 10 = 50 pixel
        # window does not fit a 48x48 image.
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        bovw.write_pgm(img_dir / "a.pgm", texture_corpus(1, size=48, seed=0)[0][0])
        sift = bovw.DenseSiftConfig(spatial_bins=5)
        vocab = tmp_path / "v.llvb"
        bovw.save_vocab(bovw.Vocabulary(
            [bovw.VocabularyLevel(1, np.zeros((2, sift.descriptor_dim)))], sift), vocab)
        assert bovw.load_vocab(vocab).sift.spatial_bins == 5
        assert run(["encode", "--images", img_dir, "--vocab", vocab,
                    "--out", tmp_path / "out.fv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ImageTooSmall: ") and err.count("\n") == 1
        assert not (tmp_path / "out.fv").exists()

    def test_vocab_without_levels_exits_2_before_any_image_is_read(self, tmp_path, capsys,
                                                                  monkeypatch):
        vocab = tmp_path / "v.llvb"
        bovw.save_vocab(bovw.Vocabulary([], bovw.DenseSiftConfig()), vocab)
        bovw.write_pgm(tmp_path / "a.pgm", texture_corpus(1, size=32, seed=0)[0][0])
        read = []
        monkeypatch.setattr(bovw, "read_pgm", lambda *a: read.append(a))
        assert run(["encode", "--images", tmp_path, "--vocab", vocab,
                    "--out", tmp_path / "out.fv"]) == 2
        assert capsys.readouterr().err == f"error: ValidationError: {vocab}: pyramid needs at least one level\n"
        assert read == [] and not (tmp_path / "out.fv").exists()

    @pytest.mark.parametrize("line,detail", [
        ("vocab-size 5", ":3: unknown key 'vocab-size'"),
        ("trees 1", ":3: unknown key 'trees'"),
        ("leaf-capacity 8", ":3: unknown key 'leaf-capacity'"),
        ("budget 64", ":3: unknown key 'budget'"),
        ("step x", "invalid literal for int()"),
        ("contrast-threshold 0", "contrast_threshold must be finite and > 0, got 0.0"),
        ("contrast-threshold nan", "contrast_threshold must be finite and > 0, got nan"),
        ("contrast-threshold -1", "contrast_threshold must be finite and > 0, got -1.0"),
        ("vocab 3", ":3: duplicate key 'vocab'"),
        ("subsample-cap 0", "subsample cap must be >= 1, got 0"),
    ])
    def test_bad_config_line_exits_2(self, tmp_path, capsys, monkeypatch, line, detail):
        # The config is rejected, naming its file, before any image is read.
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        bovw.write_pgm(img_dir / "a.pgm", texture_corpus(1, size=32, seed=0)[0][0])
        cfg = tmp_path / "bovw.conf"
        cfg.write_text(f"levels 1\nvocab 2\n{line}\n")
        described = []
        monkeypatch.setattr(bovw, "dense_sift", lambda *a: described.append(a))
        assert run(["build-vocab", "--images", img_dir, "--config", cfg,
                    "--out", tmp_path / "v.llvb"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedFile: {cfg}:3: ") and detail in err
        assert described == [] and not (tmp_path / "v.llvb").exists()

    @pytest.mark.parametrize("text,detail", [
        ("levels 1,2\nvocab 5\n", "levels and vocab_sizes lengths differ"),
        ("levels 1,2\n", "levels and vocab_sizes lengths differ"),
    ])
    def test_fault_between_keys_names_the_file(self, tmp_path, capsys, text, detail):
        cfg = tmp_path / "bovw.conf"
        cfg.write_text(text)
        (tmp_path / "imgs").mkdir()
        assert run(["build-vocab", "--images", tmp_path / "imgs", "--config", cfg,
                    "--out", tmp_path / "v.llvb"]) == 2
        assert capsys.readouterr().err == f"error: MalformedFile: {cfg}: {detail}\n"

    def test_config_keys_override_the_library_defaults_alone(self, tmp_path):
        cfg = tmp_path / "bovw.conf"
        cfg.write_text("# nothing set\n")
        assert cli._read_bovw_config(cfg) == (
            bovw.DenseSiftConfig(), bovw.PyramidConfig(), bovw.SUBSAMPLE_CAP)
        cap = inspect.signature(bovw.build_vocab).parameters["subsample_cap"].default
        assert cap == bovw.SUBSAMPLE_CAP
        cfg.write_text("step 3\nvocab 9,8,7,6\n")
        assert cli._read_bovw_config(cfg) == (
            bovw.DenseSiftConfig(step=3), bovw.PyramidConfig(vocab_sizes=(9, 8, 7, 6)),
            bovw.SUBSAMPLE_CAP)

    def test_encode_one_worker_stays_in_main_thread(self, tmp_path, monkeypatch):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for i, img in enumerate(texture_corpus(1, size=32, seed=0)[0]):
            bovw.write_pgm(img_dir / f"img{i}.pgm", img)
        cfg = tmp_path / "bovw.conf"
        cfg.write_text("levels 1\nvocab 2\nbin-sizes 4\nstep 4\n")
        vocab = tmp_path / "v.llvb"
        assert run(["build-vocab", "--images", img_dir, "--config", cfg, "--out", vocab]) == 0
        threads = []
        encode = bovw.encode

        def spy(*args):
            threads.append(threading.current_thread())
            return encode(*args)

        monkeypatch.setattr(bovw, "encode", spy)
        assert run(["encode", "--images", img_dir, "--vocab", vocab, "--workers", "1",
                    "--out", tmp_path / "f.fv"]) == 0
        assert len(threads) == 2 and set(threads) == {threading.main_thread()}


# (argv, error) of a bad setting per command; {d} is an image directory and
# {g} a garbage file
_BAD_SETTINGS = [
    (["build-vocab", "--images", "{d}", "--config", "{g}", "--workers", "0"],
     "workers must be >= 1, got 0"),
    (["encode", "--images", "{d}", "--vocab", "{g}", "--workers", "0"],
     "workers must be >= 1, got 0"),
    (["train-global", "--features", "{g}", "--labels", "{g}", "-C", "-1"],
     "C must be finite and positive, got -1.0"),
    (["predict-local", "--train", "{g}", "--train-labels", "{g}", "--test", "{g}", "-k", "0"],
     "k must be >= 1, got 0"),
    (["predict-local", "--train", "{g}", "--train-labels", "{g}", "--test", "{g}",
      "--workers", "0"], "workers must be >= 1, got 0"),
    (["knn-baseline", "--train", "{g}", "--train-labels", "{g}", "--test", "{g}", "-k", "0"],
     "k must be >= 1, got 0"),
    *[(["dsd-train", "--features", "{g}", "--labels", "{g}", *flags], error) for flags, error in [
        (["--schedule", "D1", "--batch", "0"], "batch size must be >= 1"),
        (["--schedule", "S1@0.5"], "the first phase must be dense"),
        (["--schedule", "D1", "--hidden", "-1"], "--hidden must be >= 0, got -1"),
        (["--schedule", "D1", "--val-fraction", "0"], "--val-fraction must be in (0, 1), got 0.0"),
        (["--schedule", "D1", "--flip-augment", "4by4"], "--flip-augment expects ROWSxCOLS"),
        (["--schedule", "D1", "--flip-augment", "0x4"], "image sides must be >= 1, got 0x4"),
        (["--schedule", "D1", "--exclude", "fc3"], "--exclude names no layer of the model: fc3"),
    ]],
    *[(["sensitivity-scan", "--model", "{g}", "--features", "{g}", "--labels", "{g}", *flags],
       error) for flags, error in [
        (["--rates", "x"], "--rates expects comma-separated numbers, got 'x'"),
        (["--rates", "0.3,1.5"], "sparsity 1.5 outside [0, 1)"),
        (["--threshold", "nan"], "threshold must be finite and >= 0, got nan"),
    ]],
]


class TestMalformedInputExits2:
    def test_manifest_non_integer_dim(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        (d / "manifest.conf").write_text(
            "source arcs arcs.fv dim=x\n"
            "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n"
        )
        assert run(["pipeline", "--manifest", d / "manifest.conf",
                    "--out", tmp_path / "p"]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedFile:")

    def _predict(self, d, model, text):
        model.write_text(text)
        return run(["predict-global", "--model", model, "--features", d / "test.fv",
                    "--labelmap", d / "classes.txt", "--out", model.parent / "p.csv"])

    def test_old_model_format_exits_2_with_one_line(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        model = tmp_path / "m.ova"
        assert self._predict(d, model, "#locallearn-ova v1\n#n_classes 2\n0 0.5 1.0 1.0\n") == 2
        assert capsys.readouterr().err == (
            f"error: MalformedFile: {model}: bad header '#locallearn-ova v1'\n")
        assert not (tmp_path / "p.csv").exists()

    def test_model_repeated_class_name(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        model = tmp_path / "m.ova"
        assert self._predict(d, model, "#locallearn-features v1 dim=3\n"
                                       "lower,0.5,1.0,1.0\nlower,-9,1.0,1.0\n") == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: {model}: duplicate sample id 'lower'\n")
        assert not (tmp_path / "p.csv").exists()

    def test_model_without_class_rows_has_no_trained_classes(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        model = tmp_path / "m.ova"
        assert self._predict(d, model, "#locallearn-features v1 dim=3\n") == 2
        assert capsys.readouterr().err == (
            f"error: NoTrainedClasses: {model}: OvA model has no trained classes\n")
        assert not (tmp_path / "p.csv").exists()

    def test_class_outside_the_label_map_exits_2_without_output(self, arcs_dataset, tmp_path,
                                                                 capsys):
        # The map names lower and upper; the model's second row names neither.
        d, _ = arcs_dataset
        model = tmp_path / "m.ova"
        assert self._predict(d, model, "#locallearn-features v1 dim=3\n"
                                       "lower,-5,0,0\nmiddle,5,0,0\n") == 2
        assert capsys.readouterr().err == (
            f"error: UnknownClassName: {model}: unknown class name 'middle'\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["train-global", "predict-local"])
    def test_rows_overflowing_float64_exit_2(self, tmp_path, capsys, command):
        # Trained to a finite model of accuracy 1/3 and exit 0, or with a
        # traceback and exit 1 when RuntimeWarning is an error.
        X, y = gaussian_blobs(30, 3, seed=1)
        ids = [f"s{i}" for i in range(len(X))]
        core.save_features(core.FeatureMatrix(X * 1e160, ids), tmp_path / "f.fv")
        core.write_labels({sid: "uvw"[c] for sid, c in zip(ids, y)}, tmp_path / "l.csv")
        args = {"train-global": ["--features", tmp_path / "f.fv", "--labels", tmp_path / "l.csv"],
                "predict-local": ["--train", tmp_path / "f.fv", "--train-labels", tmp_path / "l.csv",
                                  "--test", tmp_path / "f.fv", "-k", "20"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([command, *args, "-C", "100", "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == "error: ValidationError: a row's squared norm overflows float64\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-global", "predict-local"])
    def test_nan_C_exits_2(self, arcs_dataset, tmp_path, capsys, command):
        d, _ = arcs_dataset
        args = {"train-global": ["--features", d / "train.fv", "--labels", d / "labels.csv"],
                "predict-local": ["--train", d / "train.fv", "--train-labels", d / "labels.csv",
                                  "--test", d / "test.fv", "-k", "20"]}[command]
        assert run([command, *args, "--labelmap", d / "classes.txt", "-C", "nan",
                    "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: C must be finite and positive")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["predict-local", "pipeline", "encode", "build-vocab"])
    def test_workers_below_one_exits_2(self, arcs_dataset, tmp_path, capsys, command):
        d, _ = arcs_dataset
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        bovw.write_pgm(img_dir / "a.pgm", texture_corpus(1, size=32, seed=0)[0][0])
        cfg = tmp_path / "bovw.conf"
        cfg.write_text("levels 1\nvocab 2\nbin-sizes 4\nstep 4\n")
        vocab = tmp_path / "v.llvb"
        assert run(["build-vocab", "--images", img_dir, "--config", cfg, "--out", vocab]) == 0
        args = {"predict-local": ["--train", d / "train.fv", "--train-labels", d / "labels.csv",
                                  "--labelmap", d / "classes.txt", "--test", d / "test.fv",
                                  "-k", "20"],
                "pipeline": ["--manifest", d / "manifest.conf", "-k", "20"],
                "encode": ["--images", img_dir, "--vocab", vocab],
                "build-vocab": ["--images", img_dir, "--config", cfg]}[command]
        assert run([command, *args, "--workers", "-3", "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: ValidationError: workers must be >= 1, got -3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, error", [
        ("--workers", "workers must be >= 1, got 0"),
        ("-k", "k must be >= 1, got 0"),
    ], ids=["workers", "k"])
    def test_pipeline_rejects_workers_before_global_training(self, arcs_dataset, tmp_path, capsys,
                                                             monkeypatch, flag, error):
        d, _ = arcs_dataset
        trained, ingested = [], []
        monkeypatch.setattr(pipeline, "train_ova", lambda *a, **k: trained.append(a))
        monkeypatch.setattr(pipeline, "ingest_and_fuse", lambda *a, **k: ingested.append(a))
        assert run(["pipeline", "--manifest", d / "manifest.conf", flag, "0",
                    "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: ValidationError: {error}\n"
        assert trained == [] and ingested == []

    @pytest.mark.parametrize("command", ["pipeline", "train-global", "dsd-train", "env"])
    def test_negative_seed_exits_2_before_any_file_is_read(self, tmp_path, capsys, monkeypatch,
                                                           command):
        # Every input path is missing: reading any of them first would report
        # a FileNotFoundError instead of the seed.
        missing = tmp_path / "missing"
        argv = {"pipeline": ["pipeline", "--manifest", missing, "--seed", "-5"],
                "train-global": ["train-global", "--features", missing, "--labels", missing,
                                 "--seed", "-1"],
                "dsd-train": ["dsd-train", "--features", missing, "--labels", missing,
                              "--schedule", "D1", "--seed", "-1"],
                "env": ["pipeline", "--manifest", missing]}[command]
        if command == "env":
            monkeypatch.setenv("LOCALLEARN_SEED", "-3")
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        seed = {"pipeline": -5, "env": -3}.get(command, -1)
        assert capsys.readouterr().err == f"error: ValidationError: seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_seed_only_on_commands_that_use_it(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seeded = {name for name, p in sub.choices.items()
                  if any("--seed" in a.option_strings for a in p._actions)}
        assert seeded == {"ingest", "build-vocab", "train-global", "predict-local", "dsd-train",
                          "pipeline"}
        assert len(sub.choices) == 12

    @pytest.mark.parametrize("argv", [
        ["encode", "--images", "{m}", "--vocab", "{m}"],
        ["fuse", "--source", "a={m}"],
        ["predict-global", "--model", "{m}", "--features", "{m}"],
        ["knn-baseline", "--train", "{m}", "--train-labels", "{m}", "--test", "{m}"],
        ["sensitivity-scan", "--model", "{m}", "--features", "{m}", "--labels", "{m}"],
        ["eval", "--predictions", "{m}", "--truth", "{m}"],
    ], ids=lambda argv: argv[0])
    def test_seed_rejected_before_any_file_is_read_where_unused(self, tmp_path, capsys, argv):
        # These commands draw no random numbers; `eval --seed -5` used to
        # accept the flag and go on to read its files.
        missing = tmp_path / "missing"
        with pytest.raises(SystemExit) as exc:
            run([*(a.format(m=missing) for a in argv), "--seed", "-5", "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed -5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_manifest_seed_exits_2_before_ingest(self, arcs_dataset, tmp_path, capsys,
                                                          monkeypatch):
        d, _ = arcs_dataset
        ingested = []
        monkeypatch.setattr(pipeline, "ingest_and_fuse", lambda *a, **k: ingested.append(a))
        (d / "manifest.conf").write_text(
            (d / "manifest.conf").read_text().replace("seed 3\n", "seed -1\n"))
        for command in ("pipeline", "ingest"):
            out = ["--out"] if command == "pipeline" else ["--out-dir"]
            assert run([command, "--manifest", d / "manifest.conf", *out, tmp_path / "o"]) == 2
            err = capsys.readouterr().err
            assert err == f"error: MalformedFile: {d / 'manifest.conf'}:5: seed: expected an integer >= 0, got '-1'\n"
        assert ingested == []

    @pytest.mark.parametrize("edit, error", [
        (("seed 3\n", "seed 3\ncap 0\n"), "MalformedFile: {manifest}:6: cap: expected an integer >= 1, got '0'"),
        (("dim=2", "dim=0"), "MalformedFile: {manifest}:1: source: dim: expected an integer >= 1, got '0'"),
    ], ids=["cap", "dim"])
    def test_manifest_count_below_one_exits_2_before_any_source_is_read(
            self, arcs_dataset, tmp_path, capsys, monkeypatch, edit, error):
        d, _ = arcs_dataset
        opened = []
        monkeypatch.setattr(pipeline, "FeatureRows", lambda *a, **k: opened.append(a))
        manifest = d / "manifest.conf"
        manifest.write_text(manifest.read_text().replace(*edit))
        for command, out in (("pipeline", "--out"), ("ingest", "--out-dir")):
            assert run([command, "--manifest", manifest, out, tmp_path / "out"]) == 2
            assert capsys.readouterr().err == "error: " + error.format(manifest=manifest) + "\n"
        assert opened == [] and not (tmp_path / "out").exists()

    def test_build_vocab_workers_below_one_exits_2_before_sift(self, tmp_path, capsys, monkeypatch):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        bovw.write_pgm(img_dir / "a.pgm", texture_corpus(1, size=32, seed=0)[0][0])
        cfg = tmp_path / "bovw.conf"
        cfg.write_text("levels 1\nvocab 2\nbin-sizes 4\nstep 4\n")
        described = []
        monkeypatch.setattr(bovw, "dense_sift", lambda *a: described.append(a))
        assert run(["build-vocab", "--images", img_dir, "--config", cfg, "--workers", "0",
                    "--out", tmp_path / "v.llvb"]) == 2
        assert capsys.readouterr().err == "error: ValidationError: workers must be >= 1, got 0\n"
        assert described == [] and not (tmp_path / "v.llvb").exists()

    @pytest.mark.parametrize("argv, error", _BAD_SETTINGS,
                             ids=[" ".join(a[:1] + a[-2:]) for a, _ in _BAD_SETTINGS])
    def test_bad_setting_exits_2_before_any_file_is_read(self, tmp_path, capsys, monkeypatch,
                                                         argv, error):
        # Every input is garbage: reading one first would report its fault
        # instead of the setting's.
        (tmp_path / "imgs").mkdir()
        for path in (tmp_path / "junk", tmp_path / "imgs" / "a.pgm"):
            path.write_bytes(b"\0garbage\n")
        read = []
        for module, name in ((core, "load_features"), (core, "read_labels"), (core, "read_lines"),
                             (bovw, "read_pgm"), (bovw, "load_vocab"), (dsd, "load_mlp")):
            monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), **k:
                                read.append(a) or _f(*a, **k))
        argv = [a.format(d=tmp_path / "imgs", g=tmp_path / "junk") for a in argv]
        assert run([*argv, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValidationError: {error}") and err.count("\n") == 1
        assert read == [] and not (tmp_path / "out").exists()

    def test_negative_seed_rejected_by_configs(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            svm.SvmConfig(seed=-1)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            dsd.TrainerConfig(seed=-1)


class TestDsdCommands:
    def _features(self, tmp_path):
        X, y = gaussian_blobs(40, 3, spread=1.0, seed=4)
        ids = [f"s{i}" for i in range(len(X))]
        names = ("u", "v", "w")
        core.save_features(core.FeatureMatrix(X, ids), tmp_path / "f.fv")
        core.write_labels({i: names[c] for i, c in zip(ids, y)}, tmp_path / "l.csv")
        (tmp_path / "map.txt").write_text("u\nv\nw\n")

    def test_train_scan_flow(self, tmp_path, capsys):
        self._features(tmp_path)
        model = tmp_path / "m.llmb"
        log = tmp_path / "log.csv"
        assert run(["dsd-train", "--features", tmp_path / "f.fv",
                    "--labels", tmp_path / "l.csv", "--labelmap", tmp_path / "map.txt",
                    "--schedule", "D5,S3@0.3,D2", "--hidden", "8",
                    "--lr", "0.1", "--batch", "32", "--seed", "0",
                    "--out", model, "--log", log]) == 0
        lines = log.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,phase,lr,train_loss,val_acc,zeros_")
        assert len(lines) == 11
        scan_csv = tmp_path / "scan.csv"
        assert run(["sensitivity-scan", "--model", model,
                    "--features", tmp_path / "f.fv", "--labels", tmp_path / "l.csv",
                    "--labelmap", tmp_path / "map.txt", "--out", scan_csv]) == 0
        assert scan_csv.read_text().startswith("layer,rate,val_acc")
        assert "fc1" in capsys.readouterr().out

    def test_flip_augment_flag(self, tmp_path):
        # 40 samples of dim 2 treated as 1x2 images; flipping doubles the
        # effective training set without erroring.
        self._features(tmp_path)
        assert run(["dsd-train", "--features", tmp_path / "f.fv",
                    "--labels", tmp_path / "l.csv", "--labelmap", tmp_path / "map.txt",
                    "--schedule", "D2", "--hidden", "4", "--lr", "0.1",
                    "--flip-augment", "1x2", "--out", tmp_path / "m.llmb"]) == 0
        assert run(["dsd-train", "--features", tmp_path / "f.fv",
                    "--labels", tmp_path / "l.csv", "--labelmap", tmp_path / "map.txt",
                    "--schedule", "D2", "--hidden", "4", "--lr", "0.1",
                    "--flip-augment", "junk", "--out", tmp_path / "m.llmb"]) == 2

    def _train(self, tmp_path, *extra):
        return run(["dsd-train", "--features", tmp_path / "f.fv",
                    "--labels", tmp_path / "l.csv", "--labelmap", tmp_path / "map.txt",
                    "--schedule", "D2", "--hidden", "4", *extra,
                    "--out", tmp_path / "m.llmb"])

    @staticmethod
    def _one_error_line(capsys, prefix):
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_one_row_file_exits_2(self, tmp_path, capsys):
        self._features(tmp_path)
        one = core.load_features(tmp_path / "f.fv").take([0])
        core.save_features(one, tmp_path / "f.fv")
        assert self._train(tmp_path) == 2
        self._one_error_line(capsys, "error: ValidationError: training set is empty")
        assert not (tmp_path / "m.llmb").exists()

    @pytest.mark.parametrize("extra, error", [
        *[(["--val-fraction", bad], "error: ValidationError: --val-fraction must be in (0, 1)")
          for bad in ("1.0", "0.0", "-0.5", "nan", "inf", "1.5")],
        (["--lr", "nan"], "error: ValidationError: lr must be finite and positive"),
        (["--lr", "inf"], "error: ValidationError: lr must be finite and positive"),
        (["--hidden", "-1"], "error: ValidationError: --hidden must be >= 0"),
        (["--patience", "-1"], "error: ValidationError: patience must be >= 0"),
        (["--exclude", "fc3"], "error: ValidationError: --exclude names no layer of the model: fc3"),
    ], ids=["val-fraction-1", "val-fraction-0", "val-fraction-negative", "val-fraction-nan",
            "val-fraction-inf", "val-fraction-above-1", "lr-nan", "lr-inf", "hidden-negative", "patience-negative",
            "exclude-unknown-layer"])
    def test_bad_training_setting_exits_2(self, tmp_path, capsys, extra, error):
        self._features(tmp_path)
        assert self._train(tmp_path, *extra) == 2
        self._one_error_line(capsys, error)
        assert not (tmp_path / "m.llmb").exists()

    @staticmethod
    def _widen(tmp_path, name, dim):
        """The rows of ``f.fv`` tiled to ``dim`` columns, saved as ``name``."""
        m = core.load_features(tmp_path / "f.fv")
        core.save_features(core.FeatureMatrix(np.tile(m.values, dim // 2), m.sample_ids), tmp_path / name)
        return tmp_path / name

    @pytest.mark.parametrize("flags, error", [
        (["--val-features", "wide.fv", "--val-labels", "l.csv"],
         "error: DimMismatch: X has shape (120, 4), model expects rows of dim 2"),
        (["--val-features", "wide.fv"],
         "error: ValidationError: --val-features and --val-labels must be given together"),
        (["--val-labels", "l.csv"],
         "error: ValidationError: --val-features and --val-labels must be given together"),
    ], ids=["val-dim", "val-features-alone", "val-labels-alone"])
    def test_bad_validation_set_exits_2(self, tmp_path, capsys, flags, error):
        self._features(tmp_path)
        self._widen(tmp_path, "wide.fv", 4)
        extra = [tmp_path / f if f.endswith((".fv", ".csv")) else f for f in flags]
        assert self._train(tmp_path, *extra) == 2
        self._one_error_line(capsys, error)
        assert not (tmp_path / "m.llmb").exists()

    def test_val_dim_rejected_before_any_training_step(self, tmp_path, capsys, monkeypatch):
        self._features(tmp_path)
        steps = []
        monkeypatch.setattr(dsd, "sgd_step", lambda *a, **k: steps.append(a) or 0.0)
        assert self._train(tmp_path, "--val-features", self._widen(tmp_path, "wide.fv", 4),
                           "--val-labels", tmp_path / "l.csv") == 2
        self._one_error_line(capsys, "error: DimMismatch: X has shape (120, 4), model expects rows of dim 2")
        assert steps == []

    def test_negative_flip_sides_exit_2(self, tmp_path, capsys):
        self._features(tmp_path)
        self._widen(tmp_path, "f.fv", 6)
        assert self._train(tmp_path, "--flip-augment=-2x-3") == 2
        self._one_error_line(capsys, "error: ValidationError: image sides must be >= 1, got -2x-3")
        assert not (tmp_path / "m.llmb").exists()

    def test_scan_of_other_dim_exits_2(self, tmp_path, capsys):
        self._features(tmp_path)
        assert self._train(tmp_path) == 0
        capsys.readouterr()
        assert run(["sensitivity-scan", "--model", tmp_path / "m.llmb",
                    "--features", self._widen(tmp_path, "wide.fv", 4), "--labels", tmp_path / "l.csv",
                    "--labelmap", tmp_path / "map.txt", "--out", tmp_path / "scan.csv"]) == 2
        self._one_error_line(capsys, "error: DimMismatch: X has shape (120, 4), model expects rows of dim 2")
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("rates", ["abc", "0.3,0.4,"])
    def test_bad_rates_exit_2(self, tmp_path, capsys, rates):
        self._features(tmp_path)
        assert self._train(tmp_path) == 0
        capsys.readouterr()
        assert run(["sensitivity-scan", "--model", tmp_path / "m.llmb",
                    "--features", tmp_path / "f.fv", "--labels", tmp_path / "l.csv",
                    "--labelmap", tmp_path / "map.txt", "--rates", rates,
                    "--out", tmp_path / "scan.csv"]) == 2
        self._one_error_line(capsys, "error: ValidationError: --rates expects")
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
    def test_bad_threshold_exits_2(self, tmp_path, capsys, threshold):
        # A NaN threshold used to pass every comparison as false and print
        # rate 0.0 for every layer, exit 0.
        self._features(tmp_path)
        assert self._train(tmp_path) == 0
        capsys.readouterr()
        assert run(["sensitivity-scan", "--model", tmp_path / "m.llmb",
                    "--features", tmp_path / "f.fv", "--labels", tmp_path / "l.csv",
                    "--labelmap", tmp_path / "map.txt", f"--threshold={threshold}",
                    "--out", tmp_path / "scan.csv"]) == 2
        self._one_error_line(capsys, "error: ValidationError: threshold must be finite and >= 0")
        assert not (tmp_path / "scan.csv").exists()

    def _two_class_subset(self, tmp_path):
        """The rows of classes v and w of ``f.fv``, as ``vw.fv`` and ``vw.csv``."""
        m, labels = core.load_features(tmp_path / "f.fv"), core.read_labels(tmp_path / "l.csv")
        rows = [i for i, sid in enumerate(m.sample_ids) if labels[sid] != "u"]
        sub = m.take(rows)
        core.save_features(sub, tmp_path / "vw.fv")
        core.write_labels({sid: labels[sid] for sid in sub.sample_ids}, tmp_path / "vw.csv")
        return tmp_path / "vw.fv", tmp_path / "vw.csv"

    def test_validation_file_takes_the_training_label_map(self, tmp_path, capsys):
        # 3 classes in training, 2 in validation: without --labelmap the
        # validation ids used to come from a map of their own, and every
        # validation accuracy read 0.
        self._features(tmp_path)
        val_features, val_labels = self._two_class_subset(tmp_path)
        finals = []
        for labelmap in ([], ["--labelmap", tmp_path / "map.txt"]):
            assert run(["dsd-train", "--features", tmp_path / "f.fv", "--labels", tmp_path / "l.csv",
                        *labelmap, "--schedule", "D20", "--hidden", "0", "--lr", "0.1", "--batch", "16",
                        "--val-features", val_features, "--val-labels", val_labels,
                        "--out", tmp_path / "m.llmb"]) == 0
            finals.append(capsys.readouterr().out)
        assert finals[0] == finals[1]
        assert float(finals[0].split()[-1]) > 0.5

    def test_scan_without_labelmap_checks_the_model_width(self, tmp_path, capsys):
        # A 2-class labels file would get ids 0 and 1 for v and w, which the
        # 3-output model calls 1 and 2: the baseline read 0.
        self._features(tmp_path)
        assert self._train(tmp_path) == 0
        features, labels = self._two_class_subset(tmp_path)
        capsys.readouterr()
        assert run(["sensitivity-scan", "--model", tmp_path / "m.llmb", "--features", features,
                    "--labels", labels, "--out", tmp_path / "scan.csv"]) == 2
        self._one_error_line(capsys, "error: ValidationError: the label map has 2 classes, the model 3 outputs")
        assert not (tmp_path / "scan.csv").exists()
        tables = []
        for labelmap in ([], ["--labelmap", tmp_path / "map.txt"]):
            assert run(["sensitivity-scan", "--model", tmp_path / "m.llmb", "--features", tmp_path / "f.fv",
                        "--labels", tmp_path / "l.csv", *labelmap, "--out", tmp_path / "scan.csv"]) == 0
            tables.append((tmp_path / "scan.csv").read_text())
        assert tables[0] == tables[1]

    def test_divergence_exits_3(self, tmp_path, capsys):
        self._features(tmp_path)
        code = run(["dsd-train", "--features", tmp_path / "f.fv",
                    "--labels", tmp_path / "l.csv", "--labelmap", tmp_path / "map.txt",
                    "--schedule", "D40", "--hidden", "8", "--lr", "1e18",
                    "--out", tmp_path / "m.llmb"])
        assert code == 3
        assert "NonFiniteGradient" in capsys.readouterr().err


class TestSeedEnvFallback:
    def test_env_seed_used(self, arcs_dataset, tmp_path, monkeypatch):
        d, _ = arcs_dataset
        monkeypatch.setenv("LOCALLEARN_SEED", "9")
        model = tmp_path / "m.ova"
        assert run(["train-global", "--features", d / "train.fv",
                    "--labels", d / "labels.csv", "--labelmap", d / "classes.txt",
                    "--out", model]) == 0
        monkeypatch.setenv("LOCALLEARN_SEED", "not-an-int")
        assert run(["train-global", "--features", d / "train.fv",
                    "--labels", d / "labels.csv", "--labelmap", d / "classes.txt",
                    "--out", model]) == 2


# Runs the command lines of a JSON list, each through ``main``.
_RUN_ALL = """
import json, sys
from locallearn.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit status != 0: {argv}")
"""


class TestBlasThreads:
    @staticmethod
    def _inputs(d):
        """A 600-row, 42-dim, 4-class fused set, and 16 textures."""
        rng = np.random.default_rng(8)
        y = np.arange(600) % 4
        X = rng.normal(size=(600, 42)) + 0.35 * rng.normal(size=(4, 42))[y]
        ids = [f"s{i:03d}" for i in range(600)]
        core.save_features(core.FeatureMatrix(X, ids), d / "f.fv")
        core.write_labels({sid: "abcd"[c] for sid, c in zip(ids, y)}, d / "labels.csv")
        (d / "classes.txt").write_text("a\nb\nc\nd\n")
        (d / "splits.csv").write_text("".join(f"{sid},{'test' if i % 5 == 0 else 'train'}\n"
                                              for i, sid in enumerate(ids)))
        (d / "m.conf").write_text("source f f.fv\nlabels labels.csv\nlabelmap classes.txt\n"
                                  "splits splits.csv\n")
        (d / "imgs").mkdir()
        for i, img in enumerate(texture_corpus(8, size=48, seed=3)[0]):
            bovw.write_pgm(d / "imgs" / f"i{i:02d}.pgm", img)
        (d / "bovw.conf").write_text("levels 1,2\nvocab 64,16\nbin-sizes 4,6\nstep 3\n")

    def test_outputs_byte_identical_at_one_and_two_threads(self, tmp_path):
        # OpenBLAS reads its thread count at start-up, so each count runs in
        # its own process; timing.txt holds wall times and is left out.
        d = tmp_path / "data"
        d.mkdir()
        self._inputs(d)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            jobs = [["pipeline", "--manifest", d / "m.conf", "--out", out / "pipeline", "-k", "60"],
                    ["build-vocab", "--images", d / "imgs", "--config", d / "bovw.conf",
                     "--out", out / "v.llvb"],
                    ["encode", "--images", d / "imgs", "--vocab", out / "v.llvb", "--out", out / "e.fv"],
                    ["dsd-train", "--features", d / "f.fv", "--labels", d / "labels.csv",
                     "--schedule", "D3,S2@0.5,D2", "--hidden", "64", "--batch", "64",
                     "--out", out / "m.llmb", "--log", out / "log.csv"]]
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-c", _RUN_ALL,
                                   json.dumps([[str(a) for a in job] for job in jobs])],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                            if p.is_file() and p.name != "timing.txt"})
        assert len(outputs[0]) == 15 and outputs[0] == outputs[1]
