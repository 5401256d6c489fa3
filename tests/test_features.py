import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locallearn.core import FeatureMatrix, parse_manifest, save_features, write_labels
from locallearn.errors import IdMismatch, ValidationError
from locallearn.features import fuse, l2_normalize_rows
from locallearn.pipeline import ingest_and_fuse


def fm(values, ids):
    return FeatureMatrix(np.asarray(values, dtype=np.float64), ids)


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]])

    def test_zero_vector_unchanged(self):
        v = np.zeros((1, 3))
        assert np.array_equal(l2_normalize_rows(v), v)

    def test_unit_vector_fixed_point(self):
        u = np.array([[0.0, 1.0, 0.0]])
        assert np.array_equal(l2_normalize_rows(u), u)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (1, 5), elements=st.floats(-1e6, 1e6)))
    @example(np.full((1, 5), 5.87e-162))  # squares underflow to subnormals
    def test_norm_is_one_or_zero(self, v):
        out = l2_normalize_rows(v)
        n = np.linalg.norm(out)
        assert n == 0.0 or abs(n - 1.0) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (1, 4), elements=st.floats(-1e3, 1e3)))
    def test_idempotent(self, v):
        once = l2_normalize_rows(v)
        assert np.allclose(l2_normalize_rows(once), once, atol=1e-12)


class TestFuse:
    def test_dim_additivity(self):
        a = fm([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ["x", "y"])
        b = fm([[2.0, 0.0], [0.0, 2.0]], ["x", "y"])
        out = fuse([("a", a, True), ("b", b, True)])
        assert out.dim == 5 and out.n_samples == 2

    def test_single_source_normalized(self):
        a = fm([[3.0, 4.0], [0.0, 0.0]], ["x", "y"])
        out = fuse([("a", a, True)])
        norms = np.linalg.norm(out.values, axis=1)
        assert abs(norms[0] - 1.0) < 1e-12 and norms[1] == 0.0

    def test_single_source_no_normalize_is_identity(self):
        a = fm([[3.0, 4.0], [5.0, 6.0]], ["y", "x"])  # unsorted ids on purpose
        out = fuse([("a", a, False)])
        assert out.sample_ids == a.sample_ids
        assert np.array_equal(out.values, a.values)

    def test_block_norms_at_most_one(self):
        rng = np.random.default_rng(0)
        a = fm(rng.normal(size=(4, 3)), [f"s{i}" for i in range(4)])
        b = fm(rng.normal(size=(4, 2)), [f"s{i}" for i in range(4)])
        out = fuse([("a", a, True), ("b", b, True)])
        assert np.all(np.linalg.norm(out.values[:, :3], axis=1) <= 1.0 + 1e-12)
        assert np.all(np.linalg.norm(out.values[:, 3:], axis=1) <= 1.0 + 1e-12)

    def test_five_sources_dim_sum(self):
        rng = np.random.default_rng(1)
        dims = (11, 7, 5, 3, 2)
        ids = [f"s{i}" for i in range(3)]
        sources = [
            (f"src{j}", fm(rng.normal(size=(3, d)), ids), True) for j, d in enumerate(dims)
        ]
        out = fuse(sources)
        assert out.dim == sum(dims)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        vals_a, vals_b = rng.normal(size=(4, 2)), rng.normal(size=(4, 3))
        ids = ["p", "q", "r", "s"]
        base = fuse([("a", fm(vals_a, ids), True), ("b", fm(vals_b, ids), True)])
        perm = [2, 0, 3, 1]
        permuted = fuse([
            ("a", fm(vals_a[perm], [ids[i] for i in perm]), True),
            ("b", fm(vals_b[perm], [ids[i] for i in perm]), True),
        ])
        for row, sid in enumerate(permuted.sample_ids):
            assert np.array_equal(
                permuted.values[row], base.values[base.sample_ids.index(sid)]
            )

    def test_id_mismatch(self):
        a = fm([[1.0]], ["x"])
        b = fm([[1.0], [2.0]], ["x", "y"])
        with pytest.raises(IdMismatch) as exc:
            fuse([("a", a, True), ("b", b, True)])
        assert exc.value.missing == {"y"}

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_bits_equal_hstack_of_blocks(self, renormalize):
        # Source b arrives row-permuted and source c is not normalized; the
        # fused values must be bit-equal to stacking each source's rows in
        # a's order, normalized on their own where the flag says so.
        rng = np.random.default_rng(3)
        ids = [f"s{i}" for i in range(40)]
        perm = rng.permutation(40)
        a = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-150, 150, size=(40, 1))
        a[5] = 0.0
        b, c = rng.normal(size=(40, 5)), rng.normal(size=(40, 3))
        sources = [
            ("a", fm(a, ids), True),
            ("b", fm(b[perm], [ids[i] for i in perm]), True),
            ("c", fm(c, ids), False),
        ]
        expected = np.hstack([l2_normalize_rows(a), l2_normalize_rows(b), c])
        if renormalize:
            expected = l2_normalize_rows(expected)
        out = fuse(sources, renormalize=renormalize)
        assert out.sample_ids == tuple(ids)
        assert np.array_equal(out.values, expected)

    def test_peak_memory_output_plus_one_block(self):
        rng = np.random.default_rng(4)
        ids = [f"s{i}" for i in range(2000)]
        perm = rng.permutation(2000)
        a = fm(rng.normal(size=(2000, 300)), ids)
        b = fm(rng.normal(size=(2000, 500)), [ids[i] for i in perm])
        tracemalloc.start()
        try:
            out = fuse([("a", a, True), ("b", b, True)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.values.nbytes + b.values.nbytes + 2**20

    def test_ingest_peak_memory_is_one_fused_matrix(self, tmp_path):
        # Two binary sources, the second row-permuted: ingest streams both
        # into one split-ordered fused matrix, and the splits are views of it.
        rng = np.random.default_rng(5)
        ids = [f"s{i:05d}" for i in range(2000)]
        perm = rng.permutation(2000)
        save_features(fm(rng.normal(size=(2000, 301)), ids), tmp_path / "a.fv", fmt="binary")
        save_features(fm(rng.normal(size=(2000, 200)), [ids[i] for i in perm]),
                      tmp_path / "b.fv", fmt="binary")
        write_labels({s: "xy"[i % 2] for i, s in enumerate(ids)}, tmp_path / "labels.csv")
        (tmp_path / "classes.txt").write_text("x\ny\n")
        (tmp_path / "splits.csv").write_text(
            "".join(f"{s},{('train', 'test', 'val')[i % 3]}\n" for i, s in enumerate(ids)))
        (tmp_path / "m.conf").write_text(
            "source a a.fv\nsource b b.fv\n"
            "labels labels.csv\nlabelmap classes.txt\nsplits splits.csv\n")
        manifest = parse_manifest(tmp_path / "m.conf")
        tracemalloc.start()
        try:
            data = ingest_and_fuse(manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(m.n_samples for m in data.fused.values()) == 2000
        assert peak <= 2000 * (301 + 200) * 8 + 2 * 2**20

    def test_renormalize_flag(self):
        a = fm([[3.0, 4.0]], ["x"])
        b = fm([[1.0, 1.0]], ["x"])
        out = fuse([("a", a, True), ("b", b, True)], renormalize=True)
        assert abs(np.linalg.norm(out.values[0]) - 1.0) < 1e-12

    def test_spec_validation(self):
        a = fm([[1.0]], ["x"])
        with pytest.raises(ValidationError):
            fuse([])
        with pytest.raises(ValidationError):
            fuse([("a", a, True), ("a", a, False)])

    def test_row_normalize_matches_vector_normalize(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(6, 4))
        vals[2] = 0.0
        rows = l2_normalize_rows(vals)
        for i in range(6):
            assert np.allclose(rows[i:i + 1], l2_normalize_rows(vals[i:i + 1]), atol=1e-15)
