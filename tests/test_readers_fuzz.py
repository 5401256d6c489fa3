"""Every file reader maps malformed bytes to a ValidationError subclass.

Each reader starts from one valid file, which Hypothesis truncates, flips
bytes in and inserts bytes into.  Whatever comes out, the reader either
returns or raises a ``ValidationError`` subclass, never a raw ``ValueError``,
``UnicodeDecodeError``, ``IndexError`` or ``MemoryError``.  The CLI maps each
reader's malformed input to exit code 2 and a one-line ``error:``.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from locallearn import bovw, cli, core, dsd, svm
from locallearn.errors import ValidationError


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
    model = svm.OvaModel(
        models={0: svm.SvmModel(np.array([1.0, -0.5]), 0.25),
                1: svm.SvmModel(np.array([-1.0, 0.5]), -0.25)},
        n_classes=2, class_names=("x", "y"),
    )
    svm.save_ova(model, d / "model.ova")
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


def _mlp_layer(name: bytes, rows: int, cols: int, n_values: int) -> bytes:
    return (b"LLMB" + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<II", rows, cols) + bytes(8 * n_values))


# Malformed inputs that once escaped as raw exceptions (exit 1 at the CLI).
REGRESSIONS = {
    "features-text": b"#locallearn-features v1 dim=1\n\xff,1.0\n",
    "features-binary": b"LLFB" + struct.pack("<IIQ", 1, 2, 2**60),
    "labels": b"a,x\n\xffb,y\n",
    "labelmap": b"x\n\xff\n",
    "splits": b"a,train\n\xff,test\n",
    "manifest": b"source deep f.fv dim=x\nlabels l\nlabelmap m\nsplits s\n",
    "ova": b"#locallearn-ova v1\n#n_classes \n0 0.5 1.0 -1.0\n",
    "vocab": SEEDS["vocab"][:-8],
    "mlp": _mlp_layer(b"fc1", 2, 2, 5),
    "pgm": b"P5 -1 -1 255\n\x00",
    "bovw-conf": b"levels 1\nstep x\n",
}


@st.composite
def _mutated(draw):
    """(reader name, a valid file of that reader after 1-3 byte edits)."""
    name = draw(st.sampled_from(sorted(SEEDS)))
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
@example(case=("features-binary", b"LLFB" + struct.pack("<IIQH", 1, 1, 1, 1) + b"\xff"
                + bytes(8)))  # sample id not UTF-8
@example(case=("labels", REGRESSIONS["labels"]))
@example(case=("labelmap", REGRESSIONS["labelmap"]))
@example(case=("splits", REGRESSIONS["splits"]))
@example(case=("manifest", b"labels \xff\n"))
@example(case=("manifest", REGRESSIONS["manifest"]))
@example(case=("ova", REGRESSIONS["ova"]))
@example(case=("ova", b"#locallearn-ova v1\n#classes \n"))
@example(case=("ova", b"#locallearn-ova v1\n#constant \n"))
@example(case=("ova", b"#locallearn-ova v1\n#n_classes abc\n"))
@example(case=("ova", b"#locallearn-ova v1\n0 0.5 \xff 1.0\n"))
@example(case=("vocab", REGRESSIONS["vocab"]))
@example(case=("mlp", REGRESSIONS["mlp"]))  # W block cut short
@example(case=("mlp", _mlp_layer(b"\xff", 1, 1, 2)))  # layer name not UTF-8
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
