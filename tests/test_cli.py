import numpy as np
import pytest

from locallearn import bovw, core
from locallearn.cli import main
from locallearn.synth import texture_corpus, two_arcs


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

    def test_local_and_knn_flow(self, arcs_dataset, tmp_path):
        d, truth = arcs_dataset
        for cmd, out_name in (("predict-local", "lp.csv"), ("knn-baseline", "kp.csv")):
            out = tmp_path / out_name
            args = [cmd, "--train", d / "train.fv", "--train-labels", d / "labels.csv",
                    "--labelmap", d / "classes.txt", "--test", d / "test.fv",
                    "-k", "20", "--out", out, "--seed", "1"]
            if cmd == "predict-local":
                args += ["-C", "100", "--workers", "2"]
            assert run(args) == 0
            assert len(out.read_text().strip().splitlines()) == 60


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
    ])
    def test_bad_config_line_exits_2(self, tmp_path, capsys, line, detail):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        bovw.write_pgm(img_dir / "a.pgm", texture_corpus(1, size=32, seed=0)[0][0])
        cfg = tmp_path / "bovw.conf"
        cfg.write_text(f"levels 1\nvocab 2\n{line}\n")
        assert run(["build-vocab", "--images", img_dir, "--config", cfg,
                    "--out", tmp_path / "v.llvb"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedFile:") and detail in err


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

    def test_model_non_integer_class_count(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        model = tmp_path / "m.ova"
        model.write_text("#locallearn-ova v1\n#n_classes abc\n0 0.5 1.0 1.0\n")
        assert run(["predict-global", "--model", model, "--features", d / "test.fv",
                    "--labelmap", d / "classes.txt", "--out", tmp_path / "p.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: MalformedFile:")

    def test_model_repeated_class_id(self, arcs_dataset, tmp_path, capsys):
        d, _ = arcs_dataset
        model = tmp_path / "m.ova"
        model.write_text("#locallearn-ova v1\n#n_classes 2\n0 0.5 1.0 1.0\n0 -9 1.0 1.0\n")
        assert run(["predict-global", "--model", model, "--features", d / "test.fv",
                    "--labelmap", d / "classes.txt", "--out", tmp_path / "p.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: MalformedFile:") and ":4: repeated class id 0" in err
        assert not (tmp_path / "p.csv").exists()

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


class TestDsdCommands:
    def _features(self, tmp_path):
        rng = np.random.default_rng(1)
        from locallearn.synth import gaussian_blobs

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
        (["--val-fraction", "1.0"], "error: ValidationError: training set is empty"),
        *[(["--val-fraction", bad], "error: ValidationError: --val-fraction must be finite and positive")
          for bad in ("0.0", "-0.5", "nan", "inf")],
        (["--lr", "nan"], "error: ValidationError: lr must be finite and positive"),
        (["--lr", "inf"], "error: ValidationError: lr must be finite and positive"),
        (["--hidden", "-1"], "error: ValidationError: --hidden must be >= 0"),
        (["--patience", "-1"], "error: ValidationError: patience must be >= 0"),
        (["--exclude", "fc3"], "error: ValidationError: --exclude names no layer of the model: fc3"),
    ], ids=["val-fraction-1", "val-fraction-0", "val-fraction-negative", "val-fraction-nan",
            "val-fraction-inf", "lr-nan", "lr-inf", "hidden-negative", "patience-negative",
            "exclude-unknown-layer"])
    def test_bad_training_setting_exits_2(self, tmp_path, capsys, extra, error):
        self._features(tmp_path)
        assert self._train(tmp_path, *extra) == 2
        self._one_error_line(capsys, error)
        assert not (tmp_path / "m.llmb").exists()

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
