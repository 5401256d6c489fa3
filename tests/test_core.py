import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import locallearn.core as core_mod
from locallearn.core import (
    FeatureMatrix,
    LabelMap,
    attach_labels,
    balanced_downsample,
    load_features,
    parse_manifest,
    read_labels,
    read_splits,
    save_features,
    split_ranges,
    write_labels,
)
from locallearn.errors import (
    DimMismatch,
    MalformedFile,
    MissingLabels,
    NonFiniteValue,
    UnknownClassName,
    ValidationError,
)


def make_matrix(values, ids=None, labels=None):
    values = np.asarray(values, dtype=np.float64)
    if ids is None:
        ids = [f"s{i}" for i in range(values.shape[0])]
    return FeatureMatrix(values, ids, labels)


class TestFeatureMatrix:
    def test_basic_shape(self):
        m = make_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.n_samples == 2 and m.dim == 2

    def test_rejects_nan_with_position(self):
        vals = np.zeros((4, 3))
        vals[3, 1] = np.nan
        with pytest.raises(NonFiniteValue) as exc:
            make_matrix(vals)
        assert exc.value.row == 3 and exc.value.col == 1

    def test_rejects_infinity(self):
        # the only guard in front of fusion's normalization
        with pytest.raises(NonFiniteValue) as exc:
            make_matrix([[1.0, np.inf]])
        assert exc.value.row == 0 and exc.value.col == 1

    def test_take_does_not_recheck_rows(self, monkeypatch):
        m = make_matrix(np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 1])
        calls = []
        monkeypatch.setattr(core_mod, "_check_id", lambda s: calls.append(s) or s)
        sub = m.take([2, 0])
        assert calls == []
        assert sub.sample_ids == ("s2", "s0") and sub.sample_ids.index("s0") == 1
        assert sub.values.tolist() == [[4.0, 5.0], [0.0, 1.0]] and sub.labels.tolist() == [0, 0]
        assert not sub.values.flags.writeable and not sub.labels.flags.writeable

    @pytest.mark.parametrize("rows", [[0, 0], [4], [-1], [[0, 1]]],
                             ids=["repeated", "past-the-end", "negative", "2-D"])
    def test_take_rejects_bad_rows(self, rows):
        with pytest.raises(ValidationError):
            make_matrix(np.zeros((4, 1))).take(rows)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_matrix(np.zeros((2, 1)), ids=["a", "a"])

    def test_rejects_comma_in_id(self):
        with pytest.raises(ValidationError):
            make_matrix(np.zeros((1, 1)), ids=["a,b"])

    def test_values_frozen(self):
        m = make_matrix([[1.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_labels_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_matrix(np.zeros((2, 1)), labels=[0, -1])

    def test_first_faulty_row_reported(self):
        # row 1's id comes before row 3's NaN, as it would in a file
        vals = np.zeros((4, 2))
        vals[3, 0] = np.nan
        with pytest.raises(ValidationError, match="sample id 'b,' contains ','"):
            make_matrix(vals, ids=["a", "b,", "c", "a"])


@st.composite
def _faulty_rows(draw):
    """(values, ids) of a small matrix with up to three faults: a NaN or
    infinite cell, an id that is empty or holds a forbidden character, or
    an id repeated from another row."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = np.arange(n * d, dtype=np.float64).reshape(n, d)
    ids = [f"s{i}" for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(("cell", "id", "duplicate")))
        if fault == "cell":
            values[row, draw(st.integers(0, d - 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        elif fault == "id":
            ids[row] = draw(st.sampled_from(("", "a,b", "a\nb", "\rb")))
        else:
            ids[row] = ids[draw(st.integers(0, n - 1))]
    return values, ids


def _fault(call):
    """(class, row, col, message) of the ValidationError ``call`` raises, or None."""
    try:
        call()
    except ValidationError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(case=_faulty_rows())
def test_matrix_and_file_report_the_same_fault(tmp_path_factory, case):
    # One row contract: the constructor and the reader of the same rows
    # raise the same error, the reader's message prefixed by its path.
    values, ids = case
    path = tmp_path_factory.mktemp("rows") / "f.bin"
    save_features(FeatureMatrix._trusted(values, ids), path, fmt="binary")
    built, read = _fault(lambda: FeatureMatrix(values, ids)), _fault(lambda: load_features(path))
    if built is None:
        assert read is None
    else:
        assert read == (*built[:3], f"{path}: {built[3]}")


class TestFeatureFiles:
    def test_header_echo(self, tmp_path):
        path = tmp_path / "f.fv"
        path.write_text("#locallearn-features v1 dim=4\na,1,2,3,4\nb,5,6,7,8\n")
        m = load_features(path)
        assert m.n_samples == 2 and m.dim == 4

    def test_nan_row_reported(self, tmp_path):
        path = tmp_path / "f.fv"
        rows = ["#locallearn-features v1 dim=2"]
        rows += [f"s{i},1,1" for i in range(3)] + ["s3,nan,1"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(NonFiniteValue) as exc:
            load_features(path)
        assert exc.value.row == 3

    def test_expected_dim_mismatch(self, tmp_path):
        path = tmp_path / "f.fv"
        path.write_text("#locallearn-features v1 dim=64\n" +
                        "\n".join(f"s{i}," + ",".join(["0"] * 64) for i in range(2)) + "\n")
        with pytest.raises(DimMismatch):
            load_features(path, expected_dim=128)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.fv"
        path.write_text("#something-else v1 dim=4\n")
        with pytest.raises(MalformedFile):
            load_features(path)

    @pytest.mark.parametrize("digits", ["4294967296", "9" * 20, "9" * 5000, "0" * 5000 + "4294967296"],
                             ids=["2^32", "20-nines", "5000-nines", "2^32-after-5000-zeros"])
    def test_dim_above_u32_out_of_range_at_any_digit_count(self, tmp_path, digits):
        # 5,000 digits read "expected an integer": int() refuses over 4,300.
        path = tmp_path / "f.fv"
        path.write_text(f"#locallearn-features v1 dim={digits}\n")
        with pytest.raises(MalformedFile, match=r": header dim=[1-9]\d*(\.\.\.)? is out of range$"):
            load_features(path)

    def test_dim_with_leading_zeros_keeps_its_value(self, tmp_path):
        path = tmp_path / "f.fv"
        path.write_text("#locallearn-features v1 dim=" + "0" * 5000 + "2\na,1,2\n")
        assert load_features(path).values.tolist() == [[1.0, 2.0]]

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "f.fv"
        path.write_text("#locallearn-features v1 dim=3\na,1,2\n")
        with pytest.raises(MalformedFile):
            load_features(path)

    def test_binary_truncation(self, tmp_path):
        m = make_matrix(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "f.llfb"
        save_features(m, path, fmt="binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(MalformedFile):
            load_features(path)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_roundtrip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        m = make_matrix(rng.normal(size=(5, 7)) * 10.0**rng.integers(-8, 8, (5, 7)))
        path = tmp_path / "f.dat"
        save_features(m, path, fmt=fmt)
        back = load_features(path)
        assert back.sample_ids == m.sample_ids
        assert np.array_equal(back.values, m.values)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=8,
        ),
        st.sampled_from(["text", "binary"]),
    )
    def test_roundtrip_property(self, tmp_path_factory, rows, fmt):
        tmp = tmp_path_factory.mktemp("rt")
        m = make_matrix(np.array(rows))
        path = tmp / "f.dat"
        save_features(m, path, fmt=fmt)
        back = load_features(path)
        assert np.array_equal(back.values, m.values)
        assert back.sample_ids == m.sample_ids


class TestBalancedDownsample:
    def test_min_rule(self):
        labels = np.array([0] * 5 + [1] * 2)
        m = make_matrix(np.zeros((7, 1)), labels=labels)
        out = balanced_downsample(m, cap=3, seed=0)
        assert np.sum(out.labels == 0) == 3 and np.sum(out.labels == 1) == 2

    def test_cap_at_least_max_is_identity(self):
        labels = np.array([0, 1, 1, 2])
        m = make_matrix(np.arange(4.0).reshape(4, 1), labels=labels)
        out = balanced_downsample(m, cap=10, seed=3)
        assert out.sample_ids == m.sample_ids
        assert np.array_equal(out.values, m.values)

    def test_preserves_relative_order(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        m = make_matrix(np.arange(8.0).reshape(8, 1), labels=labels)
        out = balanced_downsample(m, cap=2, seed=1)
        kept = [m.sample_ids.index(s) for s in out.sample_ids]
        assert kept == sorted(kept)

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2], 50)
        m = make_matrix(np.zeros((150, 1)), labels=labels)
        a = balanced_downsample(m, cap=10, seed=42)
        b = balanced_downsample(m, cap=10, seed=42)
        assert a.sample_ids == b.sample_ids

    def test_large_imbalanced_counts(self):
        # Heavily imbalanced 8-class distribution (287651 rows); with the
        # per-class cap of 15000 four classes saturate and the rest pass
        # through: 4*15000 + 14090 + 6378 + 3803 + 3750 = 88021 rows.
        counts = [74874, 134415, 25459, 14090, 6378, 3803, 24882, 3750]
        labels = np.repeat(np.arange(8), counts)
        m = make_matrix(np.zeros((sum(counts), 1)), labels=labels)
        out = balanced_downsample(m, cap=15000, seed=0)
        assert out.n_samples == 88021

    def test_requires_labels(self):
        m = make_matrix(np.zeros((2, 1)))
        with pytest.raises(MissingLabels):
            balanced_downsample(m, cap=1, seed=0)


class TestLabels:
    def test_labelmap_roundtrip(self, tmp_path):
        lm = LabelMap(("anger", "happy", "neutral"))
        lm.save(tmp_path / "map.txt")
        back = LabelMap.from_file(tmp_path / "map.txt")
        assert back == lm
        assert back.id_of("happy") == 1 and back.name_of(2) == "neutral"

    def test_unknown_class(self):
        lm = LabelMap(("a", "b"))
        with pytest.raises(UnknownClassName):
            lm.id_of("c")

    def test_labels_file_roundtrip(self, tmp_path):
        labels = {"s1": "a", "s0": "b"}
        write_labels(labels, tmp_path / "l.csv")
        assert read_labels(tmp_path / "l.csv") == labels

    def test_duplicate_label_line(self, tmp_path):
        (tmp_path / "l.csv").write_text("s0,a\ns0,b\n")
        with pytest.raises(MalformedFile, match=":2: duplicate sample id 's0'"):
            read_labels(tmp_path / "l.csv")

    def test_attach_labels(self):
        m = make_matrix(np.zeros((2, 1)), ids=["p", "q"])
        lm = LabelMap(("a", "b"))
        out = attach_labels(m, {"p": "b", "q": "a", "zz": "a"}, lm)
        assert out.labels.tolist() == [1, 0]

    def test_named_maps_sample_ids_to_class_names(self):
        lm = LabelMap(("a", "b"))
        assert lm.named(["p", "q", "r"], np.array([1, 0, 1])) == {"p": "b", "q": "a", "r": "b"}

    def test_attach_labels_missing(self):
        m = make_matrix(np.zeros((2, 1)), ids=["p", "q"])
        with pytest.raises(MissingLabels):
            attach_labels(m, {"p": "a"}, LabelMap(("a",)))


def test_reading_names_the_file_once_and_keeps_the_error():
    # A path that starts the message ("label" of "label map ...") is still prefixed.
    with pytest.raises(NonFiniteValue) as info, core_mod.reading("label"):
        raise NonFiniteValue("label map value at row 1, col 2", row=1, col=2)
    assert str(info.value) == "label: label map value at row 1, col 2"
    assert (info.value.row, info.value.col) == (1, 2)
    with pytest.raises(MalformedFile, match=r"^label:3: bad line$"), core_mod.reading("label"):
        raise MalformedFile("label:3: bad line")
    with pytest.raises(MalformedFile, match=r"^label: no source$"), \
            core_mod.reading("label", MalformedFile):
        raise ValidationError("no source")


class TestManifest:
    def test_parse(self, tmp_path):
        (tmp_path / "m.conf").write_text(
            "# demo manifest\n"
            "source deep feats/deep.fv dim=512\n"
            "source bovw feats/bovw.fv normalize=off\n"
            "labels labels.csv\n"
            "labelmap classes.txt\n"
            "splits splits.csv\n"
            "seed 7\n"
            "cap 15000\n"
        )
        man = parse_manifest(tmp_path / "m.conf")
        assert [s.name for s in man.sources] == ["deep", "bovw"]
        assert man.sources[0].expected_dim == 512
        assert man.sources[1].normalize is False
        assert man.seed == 7 and man.cap == 15000

    def test_unknown_directive(self, tmp_path):
        (tmp_path / "m.conf").write_text("bogus x\n")
        with pytest.raises(MalformedFile):
            parse_manifest(tmp_path / "m.conf")

    def test_missing_required(self, tmp_path):
        (tmp_path / "m.conf").write_text("source a b\nlabels l\nlabelmap m\n")
        with pytest.raises(MalformedFile):
            parse_manifest(tmp_path / "m.conf")

    @pytest.mark.parametrize("line", ["source a a.fv dim=x", "seed x", "cap 1.5"])
    def test_non_integer_value(self, tmp_path, line):
        (tmp_path / "m.conf").write_text(
            f"{line}\nlabels l\nlabelmap m\nsplits s\n"
        )
        with pytest.raises(MalformedFile, match="expected an integer"):
            parse_manifest(tmp_path / "m.conf")

    def test_splits(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,train\nb,validation\nc,test\n")
        assert read_splits(tmp_path / "s.csv") == {"a": "train", "b": "val", "c": "test"}

    def test_split_ranges_in_split_order_without_empty_splits(self):
        splits = {"a": "test", "b": "train", "c": "test", "d": "train", "e": "train"}
        assert split_ranges(splits) == {"train": (0, 3), "test": (3, 5)}
        assert split_ranges({}) == {}

    def test_split_double_assignment(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,train\n\na,test\n")
        with pytest.raises(MalformedFile, match=":3: duplicate sample id 'a'"):
            read_splits(tmp_path / "s.csv")

    def test_unknown_split_names_its_line(self, tmp_path):
        (tmp_path / "s.csv").write_text("a,train\nb,holdout\n")
        with pytest.raises(MalformedFile, match=":2: unknown split 'holdout'"):
            read_splits(tmp_path / "s.csv")
