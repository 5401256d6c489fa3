import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locallearn.dsd import (
    LR_DECAY,
    DsdPhase,
    DsdSchedule,
    SensitivityTable,
    TrainerConfig,
    dsd_train,
    flip_augment,
    init_mlp,
    load_mlp,
    make_velocity,
    parse_schedule,
    prune_mask,
    save_mlp,
    select_rates,
    sensitivity_scan,
    sgd_step,
)
from locallearn.errors import MalformedFile, NonFiniteGradient, ValidationError
from locallearn.synth import gaussian_blobs

from oracles import finite_diff_grads, max_rel_grad_err, prune_mask_sorted


class TestSgdStep:
    def test_zero_momentum_is_plain_sgd(self):
        model = init_mlp([3, 2], seed=0, std=0.1)
        X = np.random.default_rng(1).normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        _, grads = model.loss_and_grads(X, y)
        before = [l.W.copy() for l in model.layers]
        cfg = TrainerConfig(lr=0.1, momentum=0.0)
        sgd_step(model, X, y, cfg, make_velocity(model))
        for layer, w0, (gW, _) in zip(model.layers, before, grads):
            assert np.allclose(layer.W, w0 - 0.1 * gW, atol=1e-15)

    def test_zero_gradient_decays_velocity(self):
        model = init_mlp([2, 2], seed=0)
        velocity = make_velocity(model)
        velocity[0][0][:] = 1.0
        before = [l.W.copy() for l in model.layers]

        class FrozenLoss:
            layers = model.layers

            @staticmethod
            def loss_and_grads(X, y):
                return 0.0, [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in model.layers]

        cfg = TrainerConfig(lr=0.5, momentum=0.9)
        sgd_step(FrozenLoss, np.ones((1, 2)), np.zeros(1, dtype=int), cfg, velocity)
        # velocity decayed by 0.9 and applied to the params
        assert np.allclose(velocity[0][0], 0.9)
        assert np.allclose(model.layers[0].W, before[0] + 0.9)

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        model = init_mlp([4, 6, 3], seed=5, std=0.5)
        X = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        _, analytic = model.loss_and_grads(X, y)
        numeric = finite_diff_grads(model, X, y)
        assert max_rel_grad_err(analytic, numeric) < 1e-5

    def test_non_finite_loss_raises(self):
        model = init_mlp([2, 2], seed=0)
        model.layers[0].W[:] = 1.0
        X = np.full((1, 2), 1e308)
        with pytest.raises(NonFiniteGradient):
            sgd_step(model, X, np.zeros(1, dtype=int), TrainerConfig(lr=0.1),
                     make_velocity(model))


class TestPruneMask:
    def test_magnitude_ranking_example(self):
        w = np.array([0.1, -0.5, 0.3, 0.05])
        masked = w * prune_mask(w, 0.5)
        assert np.array_equal(masked, [0.0, -0.5, 0.3, 0.0])

    def test_zero_sparsity_all_ones(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert prune_mask(w, 0.0).all()

    def test_tie_breaks_to_lowest_flat_index(self):
        w = np.full(8, 0.7)
        mask = prune_mask(w, 0.25)
        assert np.array_equal(mask, [False, False, True, True, True, True, True, True])

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValidationError):
            prune_mask(np.ones(4), 1.0)

    def test_nan_weights_sort_last(self):
        w = np.array([[np.nan, 0.2, -0.1], [np.nan, 3.0, 0.2]])
        for s in (0.3, 0.5, 0.7, 0.9):
            assert np.array_equal(prune_mask(w, s), prune_mask_sorted(w, s))
        # 0.7 prunes ceil(4.2) = 5 entries: the four numbers, then the first NaN
        assert np.array_equal(prune_mask(w, 0.7), [[False] * 3, [True, False, False]])

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 12)),
               elements=st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, np.nan, np.inf, -np.inf])
               | st.floats(allow_nan=True, allow_infinity=True)),
        st.just(0.0) | st.floats(0.0, 0.999) | st.just(1.0 - 1e-12),
    )
    def test_equals_stable_argsort(self, w, s):
        # ties (exact zeros and -0.0 among them) to the lowest flat index, NaN last
        assert np.array_equal(prune_mask(w, s), prune_mask_sorted(w, s))

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 40), elements=st.floats(-10, 10)),
        st.floats(0.0, 0.99),
    )
    def test_zero_count_and_idempotence(self, w, s):
        mask = prune_mask(w, s)
        n_zero = int(np.ceil(s * w.size - 1e-12))
        assert (~mask).sum() == n_zero
        pruned = w * mask
        again = pruned * prune_mask(pruned, s)
        # re-pruning at the same rate keeps already-zeroed entries zeroed
        assert ((~prune_mask(pruned, s)) & (pruned != 0.0)).sum() == max(
            0, n_zero - (pruned == 0.0).sum()
        )
        assert np.count_nonzero(again) <= np.count_nonzero(pruned)


class TestSchedule:
    def test_parse(self):
        sched = parse_schedule("D300,S50@0.6,D50,S50@0.6,D50")
        kinds = [p.kind for p in sched.phases]
        assert kinds == ["dense", "sparse", "dense", "sparse", "dense"]
        assert sched.phases[1].rate == 0.6
        assert sched.total_epochs == 500

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedFile):
            parse_schedule("X10")
        with pytest.raises(MalformedFile):
            parse_schedule("S10")  # missing @rate

    def test_first_phase_must_be_dense(self):
        with pytest.raises(ValidationError):
            DsdSchedule((DsdPhase("sparse", 5, 0.3),))

    def test_dense_phase_rate_zero(self):
        with pytest.raises(ValidationError):
            DsdPhase("dense", 5, 0.3)

    def test_rate_range(self):
        with pytest.raises(ValidationError):
            DsdPhase("sparse", 5, 1.0)


def blob_data(seed):
    Xtr, ytr = gaussian_blobs(100, 4, spread=1.2, seed=seed)
    Xv, yv = gaussian_blobs(60, 4, spread=1.2, seed=seed + 1000)
    return (Xtr, ytr), (Xv, yv)


class TestDsdTrain:
    def test_single_dense_phase_is_plain_training(self):
        train, val = blob_data(0)
        cfg = TrainerConfig(lr=0.1, batch_size=64, seed=3)
        m1 = init_mlp([2, 8, 4], seed=1)
        dsd_train(m1, train, val, DsdSchedule((DsdPhase("dense", 1),)), cfg)
        # replicate manually: same shuffling, same steps, no pruning
        m2 = init_mlp([2, 8, 4], seed=1)
        velocity = make_velocity(m2)
        rng = np.random.default_rng([3, 977, 0])
        order = rng.permutation(train[0].shape[0])
        for start in range(0, len(order), 64):
            rows = order[start : start + 64]
            sgd_step(m2, train[0][rows], train[1][rows], cfg, velocity)
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.W, l2.W) and np.array_equal(l1.b, l2.b)

    def test_sparse_epochs_hold_sparsity_floor(self):
        train, val = blob_data(1)
        sched = DsdSchedule((DsdPhase("dense", 2), DsdPhase("sparse", 3, 0.6)))
        model = init_mlp([2, 16, 4], seed=2)
        logs = dsd_train(model, train, val, sched, TrainerConfig(lr=0.1, batch_size=64))
        for entry in logs:
            if entry.phase == "sparse":
                for frac in entry.zero_fracs.values():
                    assert frac >= 0.6
        # biases are never pruned: a pruned bias vector would be 60% zeros
        assert all(np.mean(layer.b == 0.0) < 0.6 for layer in model.layers)

    def test_excluded_layer_untouched(self):
        train, val = blob_data(2)
        sched = DsdSchedule(
            (DsdPhase("dense", 1), DsdPhase("sparse", 2, 0.5, exclude=frozenset({"fc1"})))
        )
        model = init_mlp([2, 8, 4], seed=4)
        logs = dsd_train(model, train, val, sched, TrainerConfig(lr=0.1, batch_size=64))
        assert logs[-1].zero_fracs["fc1"] == 0.0
        assert logs[-1].zero_fracs["fc2"] >= 0.5

    def test_deterministic_loss_sequence(self):
        train, val = blob_data(3)
        sched = parse_schedule("D3,S2@0.3")
        cfg = TrainerConfig(lr=0.1, batch_size=32, seed=9)
        runs = []
        for _ in range(2):
            model = init_mlp([2, 8, 4], seed=9)
            logs = dsd_train(model, train, val, sched, cfg)
            runs.append([e.train_loss for e in logs])
        assert runs[0] == runs[1]

    def test_loss_halves_on_separable_data(self):
        Xtr, ytr = gaussian_blobs(100, 3, spread=0.3, seed=7)
        sched = DsdSchedule((DsdPhase("dense", 40),))
        model = init_mlp([2, 8, 3], seed=7)
        logs = dsd_train(
            model, (Xtr, ytr), (Xtr, ytr), sched,
            TrainerConfig(lr=0.2, batch_size=32, seed=7),
        )
        assert logs[-1].train_loss < 0.5 * logs[0].train_loss

    def test_lr_decays_on_stagnation(self):
        train, val = blob_data(4)
        sched = DsdSchedule((DsdPhase("dense", 12),))
        model = init_mlp([2, 4, 4], seed=5)
        # lr tiny so accuracy freezes; patience 3 forces a decay within 12
        cfg = TrainerConfig(lr=1e-12, batch_size=64, patience=3, seed=5)
        logs = dsd_train(model, train, val, sched, cfg)
        assert logs[-1].lr < logs[0].lr
        ratios = [b.lr / a.lr for a, b in zip(logs, logs[1:]) if b.lr != a.lr]
        assert ratios == pytest.approx([LR_DECAY] * len(ratios), rel=1e-12)

    def test_flip_augment_doubles(self):
        X = np.arange(12.0).reshape(2, 6)  # two 2x3 images
        out = flip_augment(X, (2, 3))
        assert out.shape == (4, 6)
        assert np.array_equal(out[2].reshape(2, 3), X[0].reshape(2, 3)[:, ::-1])

    def test_flip_augment_in_training(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 2, 10)
        cfg = TrainerConfig(lr=0.1, batch_size=4, seed=1, flip_augment=True)
        model = init_mlp([6, 2], seed=1)
        with pytest.raises(ValidationError):
            dsd_train(model, (X, y), (X, y), parse_schedule("D1"), cfg)
        dsd_train(model, (X, y), (X, y), parse_schedule("D1"), cfg, image_shape=(2, 3))

    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_flip_per_batch_equals_materialised_set(self, batch_size):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(45, 12))  # 3x4 images, not left-right symmetric
        y = rng.integers(0, 3, 45)
        sched = parse_schedule("D2,S2@0.5,D1")
        materialised = (flip_augment(X, (3, 4)), np.concatenate([y, y]))
        runs = []
        for flip, train in ((True, (X, y)), (False, materialised)):
            model = init_mlp([12, 6, 3], seed=4)
            cfg = TrainerConfig(lr=0.1, batch_size=batch_size, seed=2, flip_augment=flip)
            logs = dsd_train(model, train, (X, y), sched, cfg, image_shape=(3, 4))
            runs.append((model, logs))
        (m1, logs1), (m2, logs2) = runs
        assert logs1 == logs2
        assert any(frac > 0.0 for e in logs1 for frac in e.zero_fracs.values())
        for l1, l2 in zip(m1.layers, m2.layers):
            assert np.array_equal(l1.W, l2.W) and np.array_equal(l1.b, l2.b)

    def test_flip_keeps_no_copy_of_the_set(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(2000, 64))  # 8x8 images, 1 MB against a 520-weight model
        y = rng.integers(0, 8, 2000)
        model = init_mlp([64, 8], seed=1)
        cfg = TrainerConfig(lr=0.01, batch_size=32, seed=1, flip_augment=True)
        tracemalloc.start()
        try:
            dsd_train(model, (X, y), (X[:100], y[:100]), parse_schedule("D1"), cfg,
                      image_shape=(8, 8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("n_train, n_val", [(20, 10), (7, 10), (10, 1), (10, 7)])
    def test_label_length_mismatch_rejected(self, flip, n_train, n_val):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 6))
        y = rng.integers(0, 2, 30)
        model = init_mlp([6, 2], seed=1)
        before = model.layers[0].W.copy()
        cfg = TrainerConfig(lr=0.1, batch_size=4, seed=1, flip_augment=flip)
        with pytest.raises(ValidationError, match="labels of shape"):
            dsd_train(model, (X, y[:n_train]), (X, y[:n_val]), parse_schedule("D1"), cfg,
                      image_shape=(2, 3))
        assert np.array_equal(model.layers[0].W, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_validation_set_rejected(self):
        # An empty set made every val_acc NaN and decayed the rate silently.
        train, (Xv, yv) = blob_data(5)
        model = init_mlp([2, 4, 4], seed=1)
        before = model.layers[0].W.copy()
        cfg = TrainerConfig(lr=0.1, batch_size=64, patience=0)
        with pytest.raises(ValidationError, match="validation set is empty"):
            dsd_train(model, train, (Xv[:0], yv[:0]), parse_schedule("D4"), cfg)
        assert np.array_equal(model.layers[0].W, before)

    @pytest.mark.parametrize("case", ["train-above", "train-negative", "val-above", "scan-above"])
    def test_class_ids_outside_the_output_width_rejected(self, case):
        # With 2 outputs, training ids up to 7 raised a raw IndexError,
        # negative ones trained on the last class, and out-of-range
        # validation or scan ids only scored as misses.
        rng = np.random.default_rng(14)
        X, y = rng.normal(size=(10, 6)), np.tile([0, 1], 5)
        bad = {"train-above": np.arange(10) % 8, "train-negative": y - 1}.get(case, y + 1)
        model = init_mlp([6, 2], seed=1)
        before = model.layers[0].W.copy()
        with pytest.raises(ValidationError, match=r"labels must be class ids in \[0, 2\)"):
            if case == "scan-above":
                sensitivity_scan(model, X, bad)
            else:
                train, val = ((X, bad), (X, y)) if case.startswith("train") else ((X, y), (X, bad))
                dsd_train(model, train, val, parse_schedule("D1"), TrainerConfig(batch_size=4))
        assert np.array_equal(model.layers[0].W, before)

    @pytest.mark.parametrize("n_labels", [1, 7, 11])
    def test_accuracy_rejects_label_length_mismatch(self, n_labels):
        model = init_mlp([6, 2], seed=1)
        X = np.zeros((10, 6))
        with pytest.raises(ValidationError, match="labels of shape"):
            model.accuracy(X, np.zeros(n_labels, dtype=int))
        assert model.accuracy(X, np.zeros(10, dtype=int)) in (0.0, 1.0)


class TestSensitivityScan:
    def test_baseline_equals_plain_accuracy(self):
        train, val = blob_data(5)
        model = init_mlp([2, 8, 4], seed=6)
        dsd_train(model, train, val, parse_schedule("D10"),
                  TrainerConfig(lr=0.2, batch_size=64, seed=6))
        table = sensitivity_scan(model, val[0], val[1])
        assert table.baseline == model.accuracy(val[0], val[1])

    def test_scan_restores_weights(self):
        train, val = blob_data(6)
        model = init_mlp([2, 8, 4], seed=7)
        before = [l.W.copy() for l in model.layers]
        sensitivity_scan(model, val[0], val[1])
        for layer, w0 in zip(model.layers, before):
            assert np.array_equal(layer.W, w0)

    def test_all_zero_layer_rate_has_no_effect(self):
        model = init_mlp([2, 4, 3], seed=8)
        model.layers[0].W[:] = 0.0
        X, y = gaussian_blobs(40, 3, spread=0.5, seed=9)
        table = sensitivity_scan(model, X, y)
        for rate in table.rates:
            assert table.acc["fc1"][rate] == table.baseline

    def test_rate_accuracy_non_increasing_mostly(self):
        train, val = blob_data(7)
        model = init_mlp([2, 16, 4], seed=10)
        dsd_train(model, train, val, parse_schedule("D15"),
                  TrainerConfig(lr=0.2, batch_size=64, seed=10))
        table = sensitivity_scan(model, val[0], val[1])
        ok = 0
        for layer in table.acc:
            accs = [table.acc[layer][r] for r in table.rates]
            ok += all(b <= a + 1e-12 for a, b in zip(accs, accs[1:]))
        assert ok >= int(0.9 * len(table.acc))


class TestSelectRates:
    def _table(self, drops_by_layer, baseline=0.9):
        rates = (0.3, 0.4, 0.5, 0.6)
        acc = {
            layer: {r: baseline - drops[r] / 100.0 for r in rates}
            for layer, drops in drops_by_layer.items()
        }
        return SensitivityTable(baseline=baseline, rates=rates, acc=acc)

    def test_threshold_rule(self):
        table = self._table({"fc1": {0.3: 0.1, 0.4: 0.2, 0.5: 0.7, 0.6: 2.0}})
        assert select_rates(table) == {"fc1": 0.4}

    def test_all_drops_exceed_threshold(self):
        table = self._table({"fc1": {0.3: 0.6, 0.4: 1.0, 0.5: 2.0, 0.6: 5.0}})
        assert select_rates(table) == {"fc1": 0.0}

    def test_all_drops_within_threshold(self):
        table = self._table({"fc1": {0.3: 0.0, 0.4: 0.1, 0.5: 0.3, 0.6: 0.5}})
        assert select_rates(table) == {"fc1": 0.6}

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.5])
    def test_bad_threshold_rejected(self, threshold):
        table = self._table({"fc1": {0.3: 0.0, 0.4: 0.1, 0.5: 0.3, 0.6: 0.5}})
        with pytest.raises(ValidationError, match="threshold must be finite and >= 0"):
            select_rates(table, max_drop_points=threshold)

    def test_zero_threshold_keeps_only_no_drop(self):
        table = self._table({"fc1": {0.3: 0.0, 0.4: 0.1, 0.5: 0.3, 0.6: 0.5}})
        assert select_rates(table, max_drop_points=0.0) == {"fc1": 0.3}


class TestModelIO:
    def test_roundtrip(self, tmp_path):
        model = init_mlp([5, 7, 3], seed=11, std=0.2)
        save_mlp(model, tmp_path / "m.llmb")
        back = load_mlp(tmp_path / "m.llmb")
        assert back.layer_names() == model.layer_names()
        for l1, l2 in zip(model.layers, back.layers):
            assert np.array_equal(l1.W, l2.W) and np.array_equal(l1.b, l2.b)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "m.llmb").write_bytes(b"JUNK")
        with pytest.raises(MalformedFile):
            load_mlp(tmp_path / "m.llmb")

    def test_layer_name_over_65535_bytes_is_validation_error(self, tmp_path):
        model = init_mlp([2, 2], seed=0)
        model.layers[0].name = "n" * 65_536
        with pytest.raises(ValidationError, match="layer name too long"):
            save_mlp(model, tmp_path / "m.llmb")
        model.layers[0].name = "é" * 32_767  # 65,534 bytes: the longest that fits
        save_mlp(model, tmp_path / "m.llmb")
        assert load_mlp(tmp_path / "m.llmb").layer_names() == [model.layers[0].name]
