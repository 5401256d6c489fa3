"""Every file reader maps malformed bytes to a ValidationError subclass.

Each reader starts from one valid file, which Hypothesis truncates, flips
bytes in and inserts bytes into.  Whatever comes out, the reader either
returns or raises a ``ValidationError`` subclass, never a raw ``ValueError``,
``UnicodeDecodeError``, ``IndexError`` or ``MemoryError``.  The CLI maps each
reader's malformed input to exit code 2 and a one-line ``error:``.  Feature
files also go through ingest, which streams them into the fused matrix, and
through the ``ingest`` and ``pipeline`` commands.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locallearn import bovw, cli, core, dsd, pipeline, svm
from locallearn.errors import IdMismatch, MalformedFile, NonFiniteValue, ValidationError
from locallearn.features import fuse
from locallearn.pipeline import ingest_and_fuse


def _write_seeds(d: Path) -> None:
    """One valid file per reader, plus the inputs the CLI cases need."""
    ids = ["a", "b", "c"]
    matrix = core.FeatureMatrix(np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]]), ids)
    core.save_features(matrix, d / "f.fv")
    core.save_features(matrix, d / "f.bin", fmt="binary")
    core.write_labels({"a": "x", "b": "y", "c": "x"}, d / "labels.csv")
    (d / "classes.txt").write_text("x\ny\n")
    (d / "splits.csv").write_text("a,train\nb,test\nc,validation\n")
    (d / "manifest.conf").write_text(
        "source deep f.fv dim=2 normalize=off  # deep features\n"
        "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n"
        "seed 3\ncap 5\nrenormalize off\n"
    )
    model = svm.OvaModel([0, 1], [[1.0, -0.5], [-1.0, 0.5]], [0.25, -0.25])
    svm.save_ova(model, core.LabelMap(("x", "y")), d / "model.ova")
    vocab = bovw.Vocabulary(
        levels=[bovw.VocabularyLevel(1, np.arange(8.0).reshape(2, 4)),
                bovw.VocabularyLevel(2, np.ones((1, 4)))],
        sift=bovw.DenseSiftConfig(bin_sizes=(4, 6), step=4),
    )
    bovw.save_vocab(vocab, d / "vocab.llvb")
    dsd.save_mlp(dsd.init_mlp([2, 3, 2], seed=0), d / "model.llmb")
    (d / "imgs").mkdir()
    bovw.write_pgm(d / "imgs" / "a.pgm", np.arange(12, dtype=np.uint8).reshape(3, 4))
    (d / "bovw.conf").write_text(
        "levels 1,2  # grids\nvocab 6,4\nbin-sizes 4,6\nstep 4\n"
        "contrast-threshold 0.01\nsubsample-cap 5000\n"
    )


# reader name -> (file it reads, reader, CLI arguments that read that file)
READERS = {
    "features-text": ("f.fv", core.load_features,
                      ["fuse", "--source", "a={d}/f.fv", "--out", "{d}/o.fv"]),
    "features-binary": ("f.bin", core.load_features,
                        ["fuse", "--source", "a={d}/f.bin", "--out", "{d}/o.fv"]),
    "labels": ("labels.csv", core.read_labels,
               ["eval", "--predictions", "{d}/labels.csv", "--truth", "{d}/labels.csv"]),
    "labelmap": ("classes.txt", core.LabelMap.from_file,
                 ["eval", "--predictions", "{d}/labels.csv", "--truth", "{d}/labels.csv",
                  "--labelmap", "{d}/classes.txt"]),
    "splits": ("splits.csv", core.read_splits,
               ["ingest", "--manifest", "{d}/manifest.conf", "--out-dir", "{d}/out"]),
    "manifest": ("manifest.conf", core.parse_manifest,
                 ["ingest", "--manifest", "{d}/manifest.conf", "--out-dir", "{d}/out"]),
    "ova": ("model.ova", svm.load_ova,
            ["predict-global", "--model", "{d}/model.ova", "--features", "{d}/f.fv",
             "--out", "{d}/p.csv"]),
    "vocab": ("vocab.llvb", bovw.load_vocab,
              ["encode", "--images", "{d}/imgs", "--vocab", "{d}/vocab.llvb",
               "--out", "{d}/e.fv"]),
    "mlp": ("model.llmb", dsd.load_mlp,
            ["sensitivity-scan", "--model", "{d}/model.llmb", "--features", "{d}/f.fv",
             "--labels", "{d}/labels.csv", "--labelmap", "{d}/classes.txt"]),
    "pgm": ("imgs/a.pgm", bovw.read_pgm,
            ["build-vocab", "--images", "{d}/imgs", "--config", "{d}/bovw.conf",
             "--out", "{d}/v.llvb"]),
    "bovw-conf": ("bovw.conf", cli._read_bovw_config,
                  ["build-vocab", "--images", "{d}/imgs", "--config", "{d}/bovw.conf",
                   "--out", "{d}/v.llvb"]),
}

with tempfile.TemporaryDirectory() as _tmp:
    _write_seeds(Path(_tmp))
    SEEDS = {name: (Path(_tmp) / file).read_bytes() for name, (file, _, _) in READERS.items()}


def _mlp(*layers) -> bytes:
    """An LLMB v1 file of ``(name bytes, rows, cols, f64 values)`` layers."""
    blob = b"LLMB" + struct.pack("<II", 1, len(layers))
    for name, rows, cols, values in layers:
        blob += (struct.pack("<H", len(name)) + name + struct.pack("<II", rows, cols)
                 + np.asarray(values, dtype="<f8").tobytes())
    return blob


def _mlp_layer(name: bytes, rows: int, cols: int, n_values: int) -> bytes:
    return _mlp((name, rows, cols, np.zeros(n_values)))


def _vocab(bin_sizes, settings, levels) -> bytes:
    """An LLVB v2 file: SIFT ``bin_sizes``, then ``settings`` (step,
    orientations, spatial bins, contrast threshold), then ``(grid,
    centroids)`` levels."""
    blob = (b"LLVB" + struct.pack("<III", 2, len(levels), len(bin_sizes))
            + struct.pack(f"<{len(bin_sizes)}I", *bin_sizes) + struct.pack("<IIId", *settings))
    for grid, centroids in levels:
        blob += struct.pack("<III", grid, *centroids.shape) + centroids.astype("<f8").tobytes()
    return blob


def _vocab_with_contrast(contrast: float) -> bytes:
    """A one-level LLVB v2 file whose SIFT settings carry ``contrast``."""
    return _vocab((4,), (4, 8, 4, contrast), [(1, np.zeros((1, 2)))])


# Malformed inputs that once escaped as raw exceptions (exit 1 at the CLI).
REGRESSIONS = {
    "features-text": b"#locallearn-features v1 dim=1\n\xff,1.0\n",
    "features-binary": b"LLFB" + struct.pack("<IIQ", 1, 2, 2**60),
    "labels": b"a,x\n\xffb,y\n",
    "labelmap": b"x\n\xff\n",
    "splits": b"a,train\n\xff,test\n",
    "manifest": b"source deep f.fv dim=x\nlabels l\nlabelmap m\nsplits s\n",
    "ova": b"#locallearn-ova v1\n#n_classes \n0 0.5 1.0 -1.0\n",  # the old model format
    "vocab": SEEDS["vocab"][:-8],
    "mlp": _mlp_layer(b"fc1", 2, 2, 5),
    "pgm": b"P5 -1 -1 255\n\x00",
    "bovw-conf": b"levels 1\nstep x\n",
}


@st.composite
def _mutated(draw, names=tuple(sorted(SEEDS))):
    """(reader name, a valid file of that reader after 1-3 byte edits)."""
    name = draw(st.sampled_from(names))
    blob = SEEDS[name]
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(("truncate", "flip", "insert")))
        if edit == "truncate":
            blob = blob[:pos]
        elif edit == "flip" and pos < len(blob):
            blob = blob[:pos] + bytes([blob[pos] ^ draw(st.integers(1, 255))]) + blob[pos + 1:]
        else:
            blob = blob[:pos] + draw(st.binary(min_size=1, max_size=8)) + blob[pos:]
    return name, blob


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=400, deadline=None)
@given(case=_mutated())
@example(case=("features-text", b"#locallearn-features v1 dim=99999999999999999999\n"))
@example(case=("features-text", b"#locallearn-features v1 dim=" + b"9" * 5000 + b"\n"))
@example(case=("features-binary", REGRESSIONS["features-binary"]))  # 2^60 rows asked for
@example(case=("features-binary", b"LLFB" + struct.pack("<IIQ", 1, 2**32 - 1, 0)))  # no rows, huge dim
@example(case=("features-binary", b"LLFB" + struct.pack("<IIQH", 1, 1, 1, 1) + b"\xff"
                + bytes(8)))  # sample id not UTF-8
@example(case=("labels", REGRESSIONS["labels"]))
@example(case=("labelmap", REGRESSIONS["labelmap"]))
@example(case=("splits", REGRESSIONS["splits"]))
@example(case=("manifest", b"labels \xff\n"))
@example(case=("manifest", REGRESSIONS["manifest"]))
@example(case=("ova", REGRESSIONS["ova"]))
@example(case=("ova", b"#locallearn-features v1 dim=3\n"))  # no class row
@example(case=("ova", b"#locallearn-features v1 dim=1\nx,0.5\n"))  # a bias and no weight
@example(case=("ova", b"#locallearn-features v1 dim=3\nx,0.5,\xff,1.0\n"))
@example(case=("vocab", REGRESSIONS["vocab"]))
@example(case=("vocab", _vocab_with_contrast(np.nan)))  # loaded, then NaN descriptors
@example(case=("mlp", REGRESSIONS["mlp"]))  # W block cut short
@example(case=("mlp", _mlp_layer(b"\xff", 1, 1, 2)))  # layer name not UTF-8
@example(case=("mlp", _mlp_layer(b"fc1", 2**32 - 1, 2**32 - 1, 0)))  # 2^64 weights asked for
@example(case=("vocab", b"LLVB" + struct.pack("<III", 2, 1, 2**32 - 1)))  # 2^32 bin sizes asked for
@example(case=("pgm", REGRESSIONS["pgm"]))
@example(case=("bovw-conf", b"levels 1\n\xff\n"))
def test_malformed_bytes_raise_only_validation_errors(fuzz_file, case):
    name, blob = case
    fuzz_file.write_bytes(blob)
    try:
        READERS[name][1](fuzz_file)
    except ValidationError:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
def test_cli_exits_2_with_one_line_error(tmp_path, capsys, name):
    _write_seeds(tmp_path)
    file, read, argv = READERS[name]
    (tmp_path / file).write_bytes(REGRESSIONS[name])
    with pytest.raises(ValidationError):
        read(tmp_path / file)
    assert cli.main([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{tmp_path / file}:" in err, err


def _manifest(old: str, new: str) -> bytes:
    return SEEDS["manifest"].replace(old.encode(), new.encode())


_SIFT = (4, 8, 4, 0.01)  # valid step, orientations, spatial bins, contrast threshold

# fault -> (reader whose file is replaced, its bytes, the error line after
# "error: ", with {f} the file); a manifest's value fault names its line and key
FILE_FAULTS = {
    "labelmap-repeated-name": ("labelmap", b"x\ny\nx\n",
                               "ValidationError: {f}: label map names must be unique"),
    "labelmap-no-name": ("labelmap", b"\n\n",
                         "ValidationError: {f}: label map must name at least one class"),
    "ova-nan-weight": ("ova", b"#locallearn-features v1 dim=3\nx,0.5,nan,1.0\ny,0.5,1.0,1.0\n",
                       "NonFiniteValue: {f}: non-finite value at row 0, col 1"),
    "vocab-nan-centroid": ("vocab", _vocab((4,), _SIFT, [(1, np.array([[0.0, np.nan]]))]),
                           "ValidationError: {f}: vocabulary centroids must be finite"),
    "vocab-nan-contrast": ("vocab", _vocab_with_contrast(np.nan), "ValidationError: {f}: "
                           "contrast_threshold must be finite and > 0, got nan"),
    "vocab-step-0": ("vocab", _vocab((4,), (0, 8, 4, 0.01), [(1, np.zeros((1, 2)))]),
                     "ValidationError: {f}: step must be >= 1"),
    "vocab-no-level": ("vocab", _vocab((4,), _SIFT, []),
                       "ValidationError: {f}: pyramid needs at least one level"),
    "vocab-k-0": ("vocab", _vocab((4,), _SIFT, [(1, np.zeros((0, 2)))]),
                  "ValidationError: {f}: grids and vocab sizes must be >= 1"),
    "mlp-no-layer": ("mlp", _mlp(), "ValidationError: {f}: model needs at least one layer"),
    "manifest-seed-x": ("manifest", _manifest("seed 3", "seed x"),
                        "MalformedFile: {f}:5: seed: expected an integer >= 0, got 'x'"),
    "manifest-seed-negative": ("manifest", _manifest("seed 3", "seed -1"),
                               "MalformedFile: {f}:5: seed: expected an integer >= 0, got '-1'"),
    "manifest-cap-0": ("manifest", _manifest("cap 5", "cap 0"),
                       "MalformedFile: {f}:6: cap: expected an integer >= 1, got '0'"),
    "manifest-cap-fraction": ("manifest", _manifest("cap 5", "cap 1.5"),
                              "MalformedFile: {f}:6: cap: expected an integer >= 1, got '1.5'"),
    "manifest-renormalize-maybe": ("manifest", _manifest("renormalize off", "renormalize maybe"),
                                   "MalformedFile: {f}:7: renormalize: expected on|off, got 'maybe'"),
    "manifest-labels-two-paths": ("manifest", _manifest("labels labels.csv", "labels a b"),
                                  "MalformedFile: {f}:2: labels: expected one path, got 'a b'"),
    "manifest-repeated-source-name": ("manifest", _manifest("cap 5", "cap 5\nsource deep f.bin"),
                                      "MalformedFile: {f}: duplicate source name in manifest"),
    "manifest-dim-0": ("manifest", _manifest("dim=2", "dim=0"),
                       "MalformedFile: {f}:1: source: dim: expected an integer >= 1, got '0'"),
    "manifest-no-source": ("manifest", _manifest("source deep f.fv dim=2", "# no source"),
                           "MalformedFile: {f}: manifest names no feature sources"),
}

# reader -> a command that reads its file before any data file
FIRST_READ = {
    "labelmap": ["predict-global", "--model", "{d}/model.ova", "--features", "{d}/f.fv",
                 "--labelmap", "{d}/classes.txt", "--out", "{d}/p.csv"],
    "mlp": [*READERS["mlp"][2], "--out", "{d}/scan.csv"],
    **{name: READERS[name][2] for name in ("ova", "vocab", "manifest")},
}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
def test_file_faults_name_their_file_and_exit_2_before_any_data_is_read(tmp_path, capsys,
                                                                        monkeypatch, fault):
    _write_seeds(tmp_path)
    name, blob, error = FILE_FAULTS[fault]
    file = tmp_path / READERS[name][0]
    file.write_bytes(blob)
    before = sorted(tmp_path.rglob("*"))
    read = []

    def spy(real):
        # A model file is a feature file: the faulty file itself is read.
        return lambda path, *a, **k: real(path, *a, **k) if Path(path) == file else read.append(path)

    for module, reader in ((core, "load_features"), (core, "FeatureRows"), (core, "read_labels"),
                           (core, "read_splits"), (bovw, "read_pgm"), (pipeline, "FeatureRows"),
                           (pipeline, "read_labels"), (pipeline, "read_splits")):
        monkeypatch.setattr(module, reader, spy(getattr(module, reader)))
    assert cli.main([a.format(d=tmp_path) for a in FIRST_READ[name]]) == 2
    assert capsys.readouterr().err == "error: " + error.format(f=file) + "\n"
    assert read == [] and sorted(tmp_path.rglob("*")) == before


FEATURES = ("features-binary", "features-text")
SECOND_IDS = ["c", "a", "b"]
SECOND = [[3.0, 1.0], [1.0, 2.0], [4.0, 4.0]]


def _binary(ids, rows) -> bytes:
    """A binary feature file, written by hand so that it can hold what
    ``FeatureMatrix`` refuses: a repeated id or a NaN."""
    blob = b"LLFB" + struct.pack("<IIQ", 1, len(rows[0]), len(ids))
    for sid, row in zip(ids, rows):
        raw = sid.encode("utf-8")
        blob += struct.pack("<H", len(raw)) + raw + np.asarray(row, dtype="<f8").tobytes()
    return blob


def _write_two_sources(d: Path) -> None:
    """The seeds, a second binary source with the ids in another order, and
    manifests that fuse the file ``input`` before or after it."""
    _write_seeds(d)
    (d / "second.bin").write_bytes(_binary(SECOND_IDS, SECOND))
    files = "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n"
    (d / "two.conf").write_text("source one f.bin\nsource two second.bin\n" + files)
    (d / "input-first.conf").write_text("source x input\nsource two second.bin\n" + files)
    (d / "input-second.conf").write_text("source one f.bin\nsource x input\n" + files)


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("stream")
    _write_two_sources(d)
    return d


@settings(max_examples=200, deadline=None)
@given(case=_mutated(FEATURES), first=st.booleans())
@example(case=("features-text", REGRESSIONS["features-text"]), first=True)
@example(case=("features-binary", REGRESSIONS["features-binary"]), first=False)
def test_malformed_feature_bytes_through_ingest(stream_dir, case, first):
    _, blob = case
    (stream_dir / "input").write_bytes(blob)
    manifest = stream_dir / ("input-first.conf" if first else "input-second.conf")
    try:
        ingest_and_fuse(core.parse_manifest(manifest))
    except ValidationError:
        pass
    for command, out in (("ingest", "--out-dir"), ("pipeline", "--out")):
        assert cli.main([command, "--manifest", str(manifest), out, str(stream_dir / "out")]) in (0, 2)


# fault -> (file replaced, its bytes, error, the file the error names, text in the error)
STREAM_FAULTS = {
    "truncated-last-row": ("second.bin", _binary(SECOND_IDS, SECOND)[:-3], MalformedFile,
                           "second.bin", "truncated at sample 2"),
    "trailing-bytes": ("second.bin", _binary(SECOND_IDS, SECOND) + b"\0\0", MalformedFile,
                       "second.bin", "2 trailing bytes"),
    "duplicate-id-in-second-source": ("second.bin", _binary(["c", "a", "c"], SECOND),
                                      ValidationError, "second.bin", "duplicate sample id 'c'"),
    "id-missing-from-splits": ("splits.csv", b"a,train\nb,test\n", IdMismatch, "f.bin",
                               "disagree on 1 sample id"),
    "nan-at-file-row-1-col-1": ("second.bin", _binary(SECOND_IDS, [[3, 1], [1, np.nan], [4, 4]]),
                                NonFiniteValue, "second.bin", "non-finite value at row 1, col 1"),
    "text-not-utf8": ("second.bin", REGRESSIONS["features-text"], MalformedFile, "second.bin",
                      "not UTF-8"),
    "rows-beyond-the-file": ("second.bin", REGRESSIONS["features-binary"], MalformedFile,
                             "second.bin", "more than the file holds"),
}


@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
def test_streamed_faults_name_their_file_and_exit_2(tmp_path, capsys, fault):
    _write_two_sources(tmp_path)
    file, blob, error, named, text = STREAM_FAULTS[fault]
    (tmp_path / file).write_bytes(blob)
    with pytest.raises(ValidationError) as exc:
        ingest_and_fuse(core.parse_manifest(tmp_path / "two.conf"))
    assert type(exc.value) is error
    assert str(tmp_path / named) in str(exc.value) and text in str(exc.value)
    if error is NonFiniteValue:  # the file's row and column; row 1 is fused row 0
        assert (exc.value.row, exc.value.col) == (1, 1)
    if error is IdMismatch:
        assert exc.value.missing == {"c"}
    for command, out in (("ingest", "--out-dir"), ("pipeline", "--out")):
        assert cli.main([command, "--manifest", str(tmp_path / "two.conf"),
                         out, str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error.__name__}: ") and err.count("\n") == 1, err
        assert str(tmp_path / named) in err
        assert not (tmp_path / "out").exists()


def test_split_id_no_source_has(tmp_path, capsys):
    # The other direction of "id-missing-from-splits": the splits name an
    # id, z, that no source has.
    _write_two_sources(tmp_path)
    (tmp_path / "splits.csv").write_text("a,train\nb,test\nc,val\nz,train\n")
    splits = core.read_splits(tmp_path / "splits.csv")
    for first in (core.load_features(tmp_path / "f.bin"), core.FeatureRows(tmp_path / "f.bin")):
        with pytest.raises(IdMismatch) as exc:
            fuse([("one", first, True), ("two", core.load_features(tmp_path / "second.bin"), True)],
                 splits=splits)
        assert exc.value.missing == {"z"} and "disagree on 1 sample id" in str(exc.value)
        if isinstance(first, core.FeatureRows):
            first.close()
    for command, out in (("ingest", "--out-dir"), ("pipeline", "--out")):
        assert cli.main([command, "--manifest", str(tmp_path / "two.conf"),
                         out, str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IdMismatch: ") and err.count("\n") == 1, err
        assert str(tmp_path / "f.bin") in err
        assert not (tmp_path / "out").exists()


# Every writer's bytes equal the hand packers' for the same content, with
# multi-byte UTF-8 ids and names, so no refactor of a writer moves a byte.
def test_binary_feature_writer_bytes(tmp_path):
    ids, rows = ["a", "é", "日本", "x\U0001d11e"], np.random.default_rng(3).normal(size=(4, 3))
    core.save_features(core.FeatureMatrix(rows, ids), tmp_path / "f.bin", fmt="binary")
    assert (tmp_path / "f.bin").read_bytes() == _binary(ids, rows)


def test_vocab_writer_bytes(tmp_path):
    rng = np.random.default_rng(4)
    levels = [(1, rng.normal(size=(3, 4))), (3, rng.normal(size=(2, 4)))]
    sift = bovw.DenseSiftConfig(bin_sizes=(4, 7, 9), step=3, orientations=6, spatial_bins=2,
                                contrast_threshold=0.0125)
    bovw.save_vocab(bovw.Vocabulary([bovw.VocabularyLevel(*lv) for lv in levels], sift),
                    tmp_path / "v.llvb")
    assert (tmp_path / "v.llvb").read_bytes() == _vocab((4, 7, 9), (3, 6, 2, 0.0125), levels)


def test_mlp_writer_bytes(tmp_path):
    model = dsd.init_mlp([3, 4, 2], seed=5)
    model.layers[0].name, model.layers[1].name = "fc1", "tête-λ"
    model.layers[1].b[:] = [0.5, -2.0]
    dsd.save_mlp(model, tmp_path / "m.llmb")
    assert (tmp_path / "m.llmb").read_bytes() == _mlp(
        *[(l.name.encode("utf-8"), *l.W.shape, np.concatenate([l.W.ravel(), l.b]))
          for l in model.layers])


def test_ova_writer_bytes(tmp_path):
    # A text feature file keyed by class name, rows in ascending class id.
    model = svm.OvaModel([0, 2], [[1.0, -0.5], [0.1, 3e-300]], [0.25, -2.0])
    svm.save_ova(model, core.LabelMap(("x", "unused", "tête-λ")), tmp_path / "m.ova")
    assert (tmp_path / "m.ova").read_bytes() == (
        "#locallearn-features v1 dim=3\nx,0.25,1.0,-0.5\ntête-λ,-2.0,0.1,3e-300\n".encode("utf-8"))
