"""Tests for the MLP, synthetic data, noise injection, and SGD training."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from antdistill import distill, numerics, tinynet
from antdistill.errors import (
    EmptySplit,
    IndexOutOfRange,
    InvalidShape,
    LevelOutOfRange,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
    UnknownNoiseKind,
)
from antdistill.temperature import ConstantPolicy, RuleBasedPolicy, UncertaintyLinearPolicy


def small_dataset(seed=0, complexity=0.0, n=300, c=3, d=4):
    return tinynet.generate_synthetic(n, c, d, complexity, seed)


def ce_loss(labels, n_classes):
    """Batch loss built row by row from the scalar numerics oracle; its one
    target is each row's index into labels."""
    def sample_loss(logits, i):
        p = numerics.stable_softmax(logits, 1.0)
        onehot = np.zeros(n_classes)
        onehot[labels[i]] = 1.0
        return numerics.cross_entropy(int(labels[i]), p), p - onehot

    def batch_loss(logits, idx):
        rows = [sample_loss(logits[j], i) for j, i in enumerate(idx)]
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])

    return batch_loss


def nan_loss(logits):
    """Batch loss whose every row is NaN."""
    return np.full(logits.shape[0], np.nan), np.zeros_like(logits)


class TestForward:
    def test_zero_model_gives_zero_logits(self):
        m = tinynet.init_mlp([4, 5, 3], seed=0)
        for w in m.weights:
            w[:] = 0.0
        logits = tinynet.forward_batch(m, np.ones((1, 4)))[0]
        np.testing.assert_array_equal(logits, np.zeros(3))
        np.testing.assert_allclose(numerics.stable_softmax(logits, 1.0), [1 / 3] * 3)

    def test_identity_single_layer(self):
        m = tinynet.init_mlp([3, 3], seed=0)
        m.weights[0] = np.eye(3)
        m.biases[0] = np.zeros(3)
        x = np.array([0.3, -1.2, 2.5])
        np.testing.assert_allclose(tinynet.forward_batch(m, x[None])[0], x, atol=1e-15)

    def test_matches_independent_matmul_oracle(self):
        rng = np.random.default_rng(5)
        m = tinynet.init_mlp([6, 8, 5, 4], seed=11)
        for _ in range(20):
            x = rng.normal(size=6)
            # second, straightforward evaluation of the same layers
            a = x.copy()
            for k in range(len(m.weights)):
                z = np.array([m.weights[k][r] @ a + m.biases[k][r] for r in range(len(m.biases[k]))])
                a = z if k == len(m.weights) - 1 else np.where(z > 0, z, 0.0)
            np.testing.assert_allclose(tinynet.forward_batch(m, x[None])[0], a, atol=1e-9)

    def test_shape_mismatch(self):
        m = tinynet.init_mlp([4, 3], seed=0)
        with pytest.raises(ShapeMismatch):
            tinynet.forward_batch(m, np.ones((1, 5)))


class TestLossGradients:
    def test_constant_loss_gives_zero_gradients(self):
        m = tinynet.init_mlp([4, 6, 3], seed=2)
        x = np.random.default_rng(0).normal(size=(5, 4))
        _, gw, gb = tinynet.loss_gradients(
            m, x, lambda logits: (np.ones(logits.shape[0]), np.zeros_like(logits)), ()
        )
        assert all(np.all(g == 0) for g in gw)
        assert all(np.all(g == 0) for g in gb)

    def test_nan_batch_loss_raises(self):
        m = tinynet.init_mlp([4, 6, 3], seed=2)
        x = np.random.default_rng(0).normal(size=(5, 4))
        with pytest.raises(NonFiniteLoss, match="^batch loss is nan$"):
            tinynet.loss_gradients(m, x, nan_loss, ())

    def test_duplicated_sample_equals_single(self):
        m = tinynet.init_mlp([4, 6, 3], seed=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4))
        labels = np.array([1])
        loss = ce_loss(np.array([1, 1, 1, 1]), 3)
        l1, gw1, gb1 = tinynet.loss_gradients(m, x, loss, (np.arange(1),))
        lk, gwk, gbk = tinynet.loss_gradients(m, np.repeat(x, 4, axis=0), loss, (np.arange(4),))
        assert abs(l1 - lk) < 1e-12
        for a, b in zip(gw1, gwk):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_finite_difference_agreement(self):
        # 100 randomly chosen parameters across layers, h = 1e-5
        rng = np.random.default_rng(42)
        m = tinynet.init_mlp([5, 8, 6, 4], seed=7)
        x = rng.normal(size=(6, 5))
        labels = rng.integers(0, 4, size=6)
        loss = ce_loss(labels, 4)

        def batch_loss(model):
            logits = tinynet.forward_batch(model, x)
            return float(np.mean(loss(logits, np.arange(6))[0]))

        _, gw, gb = tinynet.loss_gradients(m, x, loss, (np.arange(6),))
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            k = int(rng.integers(0, len(m.weights)))
            use_bias = rng.random() < 0.2
            probe = m.copy()
            if use_bias:
                r = int(rng.integers(0, probe.biases[k].size))
                probe.biases[k][r] += h
                up = batch_loss(probe)
                probe.biases[k][r] -= 2 * h
                down = batch_loss(probe)
                analytic = gb[k][r]
            else:
                r = int(rng.integers(0, probe.weights[k].shape[0]))
                s = int(rng.integers(0, probe.weights[k].shape[1]))
                probe.weights[k][r, s] += h
                up = batch_loss(probe)
                probe.weights[k][r, s] -= 2 * h
                down = batch_loss(probe)
                analytic = gw[k][r, s]
            fd = (up - down) / (2 * h)
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-4


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = small_dataset(seed=9)
        b = small_dataset(seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.split, b.split)

    def test_all_splits_have_all_classes(self):
        ds = small_dataset(seed=3, n=60, c=3)
        for split in tinynet.SPLITS:
            idx = ds.indices(split)
            assert set(ds.labels[idx]) == {0, 1, 2}

    def test_split_proportions(self):
        ds = small_dataset(seed=4, n=1000, c=4)
        n = ds.n_samples
        assert abs(ds.indices("train").size / n - 0.7) < 0.02
        assert abs(ds.indices("val").size / n - 0.1) < 0.02
        assert abs(ds.indices("test").size / n - 0.2) < 0.02

    def test_complexity_shrinks_center_distances(self):
        sep = small_dataset(seed=5, complexity=0.0, n=600, c=4, d=6)
        tight = small_dataset(seed=5, complexity=1.0, n=600, c=4, d=6)

        def mean_center_gap(ds):
            centers = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
            gaps = [
                np.linalg.norm(centers[i] - centers[j])
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            return float(np.mean(gaps))

        assert mean_center_gap(tight) < mean_center_gap(sep)

    def test_separable_data_trains_to_95(self):
        ds = small_dataset(seed=6, complexity=0.0, n=300, c=3, d=4)
        model = tinynet.init_mlp([4, 16, 16, 3], seed=1)
        trained, _ = tinynet.train_supervised(model, ds, tinynet.TrainConfig(epochs=30, seed=1))
        test_idx = ds.indices("test")
        acc = tinynet.accuracy(trained, ds.features[test_idx], ds.labels[test_idx])
        assert acc >= 0.95

    def test_precondition_errors(self):
        with pytest.raises(InvalidShape):
            tinynet.generate_synthetic(25, 3, 4, 0.0, 0)
        with pytest.raises(InvalidShape):
            tinynet.generate_synthetic(100, 3, 1, 0.0, 0)
        with pytest.raises(InvalidShape):
            tinynet.generate_synthetic(100, 3, 4, [0.0, 0.5], 0)
        for classes in (-1, 0, 1):
            with pytest.raises(InvalidShape, match=f"^n_classes must be >= 2, got {classes}$"):
                tinynet.generate_synthetic(60, classes, 8, 0.3, 0)
        for complexity in (float("nan"), [0.0, float("nan"), 0.5], 1.5, -0.1):
            with pytest.raises(InvalidShape, match="complexity"):
                tinynet.generate_synthetic(100, 3, 4, complexity, 0)
        # features, class directions and the orthonormal basis, each past the cap
        for n, c, d in ((10**12, 3, 8), (600, 10**12, 8), (600, 3, 10**7)):
            with pytest.raises(InvalidShape, match=f"must be <= {tinynet.MAX_DATASET_CELLS}, "):
                tinynet.generate_synthetic(n, c, d, 0.0, 0)


class TestInjectNoise:
    def test_level_zero_is_identity(self):
        ds = small_dataset(seed=1)
        for kind in tinynet.NOISE_KINDS:
            out = tinynet.inject_noise(ds, kind, 0.0, seed=2)
            np.testing.assert_array_equal(out.features, ds.features)
            assert np.all(out.noise_level == 0.0)

    def test_gaussian_variance(self):
        ds = small_dataset(seed=2, n=2000, c=4, d=8)  # 16k entries
        out = tinynet.inject_noise(ds, "gaussian", 0.5, seed=3)
        std = ds.features.std(axis=0)
        resid = (out.features - ds.features) / std
        assert abs(resid.var() - 0.25) < 0.025  # within 10% of (0.5)^2

    def test_salt_pepper_fraction(self):
        ds = small_dataset(seed=3, n=2000, c=4, d=8)
        out = tinynet.inject_noise(ds, "salt_pepper", 0.3, seed=4)
        altered = np.mean(out.features != ds.features)
        assert 0.27 <= altered <= 0.33

    def test_labels_and_splits_untouched(self):
        ds = small_dataset(seed=4)
        for kind in tinynet.NOISE_KINDS:
            out = tinynet.inject_noise(ds, kind, 0.8, seed=5)
            np.testing.assert_array_equal(out.labels, ds.labels)
            np.testing.assert_array_equal(out.split, ds.split)

    def test_fraction_half_marks_half_per_split(self):
        ds = small_dataset(seed=5, n=1000, c=4, d=6)
        out = tinynet.inject_noise(ds, "gaussian", 0.8, seed=6, fraction=0.5)
        for split in tinynet.SPLITS:
            idx = out.indices(split)
            noisy = np.sum(out.noise_level[idx] == 0.8)
            assert abs(noisy - idx.size / 2) <= 1

    def test_deterministic(self):
        ds = small_dataset(seed=6)
        a = tinynet.inject_noise(ds, "uniform", 0.4, seed=7)
        b = tinynet.inject_noise(ds, "uniform", 0.4, seed=7)
        np.testing.assert_array_equal(a.features, b.features)

    def test_errors(self):
        ds = small_dataset(seed=7)
        with pytest.raises(UnknownNoiseKind):
            tinynet.inject_noise(ds, "speckle", 0.5, seed=0)
        with pytest.raises(LevelOutOfRange):
            tinynet.inject_noise(ds, "gaussian", 1.5, seed=0)


class TestTrainSupervised:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(epochs=0), "epochs/batch_size must be >= 1 and learning_rate >= 0"),
        (dict(batch_size=0), "epochs/batch_size must be >= 1 and learning_rate >= 0"),
        (dict(learning_rate=-0.1), "epochs/batch_size must be >= 1 and learning_rate >= 0"),
        (dict(learning_rate=float("nan")), "epochs/batch_size must be >= 1 and learning_rate >= 0"),
        (dict(learning_rate=float("inf")), "learning_rate must be finite, got inf"),
    ])
    def test_invalid_train_config(self, kwargs, message):
        with pytest.raises(InvalidShape, match=f"^{message}$"):
            tinynet.TrainConfig(**kwargs)

    def test_zero_learning_rate_is_identity(self):
        ds = small_dataset(seed=8)
        model = tinynet.init_mlp([4, 8, 3], seed=3)
        trained, _ = tinynet.train_supervised(
            model, ds, tinynet.TrainConfig(epochs=3, learning_rate=0.0, seed=0)
        )
        for a, b in zip(model.weights, trained.weights):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_history(self):
        ds = small_dataset(seed=9)
        model = tinynet.init_mlp([4, 8, 3], seed=4)
        cfg = tinynet.TrainConfig(epochs=5, seed=12)
        _, h1 = tinynet.train_supervised(model, ds, cfg)
        _, h2 = tinynet.train_supervised(model, ds, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_accuracy == h2.val_accuracy

    def test_history_length(self):
        ds = small_dataset(seed=10)
        model = tinynet.init_mlp([4, 8, 3], seed=5)
        _, h = tinynet.train_supervised(model, ds, tinynet.TrainConfig(epochs=7, seed=0))
        assert len(h.train_loss) == 7 and len(h.val_accuracy) == 7

    def test_median_loss_nonincreasing_over_epochs(self):
        # weak monotonicity: median over 20 seeds at epochs 1,5,10,20,30
        checkpoints = [1, 5, 10, 20, 30]
        losses = np.empty((20, 30))
        for s in range(20):
            ds = small_dataset(seed=100 + s, complexity=0.0, n=120, c=3, d=4)
            model = tinynet.init_mlp([4, 16, 16, 3], seed=s)
            _, h = tinynet.train_supervised(model, ds, tinynet.TrainConfig(epochs=30, seed=s))
            losses[s] = h.train_loss
        medians = [float(np.median(losses[:, e - 1])) for e in checkpoints]
        assert all(b <= a for a, b in zip(medians, medians[1:]))

    def test_val_accuracy_on_separable_data(self):
        hits = 0
        for s in range(20):
            ds = small_dataset(seed=200 + s, complexity=0.0, n=300, c=3, d=4)
            model = tinynet.init_mlp([4, 16, 16, 3], seed=s)
            _, h = tinynet.train_supervised(model, ds, tinynet.TrainConfig(epochs=30, seed=s))
            hits += h.val_accuracy[-1] >= 0.95
        assert hits == 20

    @pytest.mark.parametrize("label", [3, -1])
    def test_train_label_outside_model_classes(self, label):
        ds = small_dataset(seed=11)
        ds.labels[ds.indices("train")[5]] = label
        model = tinynet.init_mlp([4, 8, 3], seed=6)
        with pytest.raises(IndexOutOfRange):
            tinynet.train_supervised(model, ds, tinynet.TrainConfig(epochs=1, seed=0))

    def test_nan_batch_loss_stops_training(self):
        ds = small_dataset(seed=3)
        m = tinynet.init_mlp([4, 8, 3], seed=0)
        with pytest.raises(NonFiniteLoss, match="^training loss became nan$"):
            tinynet.sgd_fit(m, ds, tinynet.TrainConfig(epochs=1), nan_loss, ())

    def test_diverging_learning_rate_raises_without_a_warning(self):
        # pytest turns a warning into an error, which would come first
        ds = small_dataset(seed=3)
        m = tinynet.init_mlp([4, 8, 3], seed=0)
        with pytest.raises(NonFiniteLoss, match="^training loss became nan$"):
            tinynet.train_supervised(m, ds, tinynet.TrainConfig(epochs=2, learning_rate=1e300))

    def test_overflowing_last_update_raises(self):
        # one batch: its loss is finite, and the update it makes overflows
        ds = tinynet.generate_synthetic(60, 2, 3, 0.0, seed=1)
        ds.features *= 1000.0
        m = tinynet.init_mlp([3, 2], seed=0)
        cfg = tinynet.TrainConfig(epochs=1, batch_size=100, learning_rate=1e306)
        with pytest.raises(NonFiniteLoss, match="^training left non-finite parameters$"):
            tinynet.train_supervised(m, ds, cfg)

    def test_missing_split_raises(self):
        ds = small_dataset(seed=11)
        ds.split[ds.split == "val"] = "train"
        model = tinynet.init_mlp([4, 8, 3], seed=6)
        with pytest.raises(EmptySplit):
            tinynet.train_supervised(model, ds, tinynet.TrainConfig(epochs=1, seed=0))

    def test_target_with_other_row_count_raises(self):
        ds = small_dataset(seed=3)
        m = tinynet.init_mlp([4, 8, 3], seed=0)
        with pytest.raises(ShapeMismatch, match="every target must have 300 rows"):
            tinynet.sgd_fit(m, ds, tinynet.TrainConfig(epochs=1),
                            tinynet._cross_entropy_rows, tinynet._one_hot(ds.labels[:-1], 3))


def model_arrays(model):
    return model.weights + model.biases


class TestParameterVector:
    """sgd_fit trains a copy whose arrays are views of one parameter vector."""

    def setup_method(self):
        self.model = tinynet.init_mlp([4, 6, 5, 3], seed=2)
        self.before = [a.tobytes() for a in model_arrays(self.model)]
        self.trained, _ = tinynet.train_supervised(self.model, small_dataset(seed=4),
                                                   tinynet.TrainConfig(epochs=2, seed=1))

    def test_caller_model_is_untouched(self):
        assert [a.tobytes() for a in model_arrays(self.model)] == self.before

    def test_trained_model_shares_no_memory_with_the_caller_model(self):
        for a in model_arrays(self.trained):
            assert not any(np.shares_memory(a, b) for b in model_arrays(self.model))

    def test_copy_of_trained_model_does_not_move_with_its_vector(self):
        vector = self.trained.weights[0].base
        assert vector.ndim == 1 and vector.size == sum(a.size for a in model_arrays(self.trained))
        assert all(np.shares_memory(a, vector) for a in model_arrays(self.trained))
        snapshot = self.trained.copy()
        before = [a.tobytes() for a in model_arrays(snapshot)]
        vector -= 0.5
        assert [a.tobytes() for a in model_arrays(snapshot)] == before
        assert all(not np.array_equal(a, b)
                   for a, b in zip(model_arrays(self.trained), model_arrays(snapshot)))


@st.composite
def training_runs(draw):
    """(policy or None, teacher, student, dataset, train config, t_base) of
    one small training run; policy None means supervised training.

    Up to 10 classes: numpy sums a row of 8 or more in another order. The
    teacher's weights are scaled by up to 300, which with temperatures down
    to 0.05 makes teacher probabilities of exactly 0.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    c, d = draw(st.integers(2, 10)), draw(st.integers(2, 5))
    ds = tinynet.generate_synthetic(draw(st.integers(10 * c, 10 * c + 40)), c, d,
                                    draw(st.floats(0.0, 1.0)), seed)
    ds = tinynet.inject_noise(ds, "gaussian", draw(st.sampled_from([0.0, 0.5, 1.0])), seed,
                              fraction=0.5)
    hidden = draw(st.lists(st.integers(1, 8), max_size=2))
    student = tinynet.init_mlp([d, *hidden, c], seed)
    teacher = tinynet.init_mlp([d, 6, c], seed + 1)
    scale = draw(st.sampled_from([1.0, 30.0, 300.0]))
    teacher.weights = [w * scale for w in teacher.weights]
    rows = ds.indices("train").size
    cfg = tinynet.TrainConfig(
        epochs=draw(st.integers(1, 4)),
        batch_size=draw(st.sampled_from([1, rows - 1, rows, rows + 3]) | st.integers(1, rows + 5)),
        learning_rate=draw(st.just(0.0) | st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    policy = draw(st.none()
                  | st.builds(ConstantPolicy, st.floats(0.05, 20.0))
                  | st.builds(UncertaintyLinearPolicy, st.floats(0.0, 10.0))
                  | st.builds(RuleBasedPolicy, base_temperature=st.floats(1.0, 8.0),
                              base_weight=st.floats(0.0, 0.9)))
    return policy, teacher, student, ds, cfg, draw(st.floats(0.0, 1.0))


def fit_outcome(fit):
    """(weights and biases as bytes, train_loss, val_accuracy), or the error raised."""
    try:
        model, history = fit()
    except NonFiniteLoss as exc:
        return repr(exc)
    return ([a.tobytes() for a in model_arrays(model)], history.train_loss,
            history.val_accuracy)


class TestSgdFitMatchesReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(run=training_runs())
    def test_bit_for_bit(self, run):
        policy, teacher, student, ds, cfg, t_base = run
        if policy is None:
            got = fit_outcome(lambda: tinynet.train_supervised(student, ds, cfg))
            want = fit_outcome(lambda: ref.train_supervised(student, ds, cfg))
        else:
            kd = distill.KdConfig(policy, t_base, cfg)
            # the report's train_loss and val_accuracy are the history's
            got = fit_outcome(lambda: distill.distill_train(teacher, student, ds, kd))
            want = fit_outcome(lambda: ref.distill_train(teacher, student, ds, kd))
        assert got == want


class TestDatasetFile:
    def test_bit_exact_roundtrip(self, tmp_path):
        ds = small_dataset(seed=12, complexity=[0.1, 0.5, 0.9])
        ds = tinynet.inject_noise(ds, "gaussian", 0.37, seed=13)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        tinynet.save_dataset(ds, p1)
        loaded = tinynet.load_dataset(p1)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.noise_level, ds.noise_level)
        np.testing.assert_array_equal(loaded.class_complexity, ds.class_complexity)
        np.testing.assert_array_equal(loaded.split, ds.split)
        tinynet.save_dataset(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("split,label\ntrain,0\n")
        with pytest.raises(ParseError):
            tinynet.load_dataset(p)


DATASET_HEAD = "# class_complexity=0.5,0.25\nsplit,label,noise_level,f0,f1\n"
# cells of a dataset file: valid values, and what the loader must reject
CELLS = st.sampled_from(
    ["0", "1", "2", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e400", "", "x", "train", "val",
     "99999999999999999999"]
) | st.floats().map(repr) | st.text(alphabet="0123456789.,-eEnaif# ", max_size=6)
ROWS = st.lists(st.sampled_from(["train", "val", "test", "dev"]).flatmap(
    lambda split: st.lists(CELLS, min_size=0, max_size=6).map(lambda c: ",".join([split, *c]))
), max_size=5)
COMPLEXITY = st.lists(CELLS, min_size=1, max_size=3).map(lambda c: ",".join(c))


class TestDatasetFileInputs:
    @pytest.mark.parametrize("row", [
        "train,0,0.0,nan,1.0", "train,0,0.0,1.0,inf", "val,1,0.0,-inf,1.0",
        "train,0,0.0,1e400,1.0", "train,0,nan,1.0,1.0", "test,1,inf,1.0,1.0",
        "train,0,1.5,1.0,1.0", "train,0,-0.5,1.0,1.0", "train,99999999999999999999,0.0,1,1",
    ])
    def test_non_finite_or_out_of_range_values_are_parse_errors(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD + "train,1,0.0,0.5,0.5\n" + row + "\n")
        with pytest.raises(ParseError):
            tinynet.load_dataset(path)

    @pytest.mark.parametrize("complexity", ["nan,0.5", "0.5,1.5", "inf,0.5"])
    def test_bad_class_complexity_is_parse_error(self, tmp_path, complexity):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD.replace("0.5,0.25", complexity) + "train,0,0.0,1,2\n\n")
        with pytest.raises(ParseError):
            tinynet.load_dataset(path)

    def test_undecodable_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(DATASET_HEAD.encode() + b"train,0,0.0,\xff\xfe,1\n")
        with pytest.raises(ParseError):
            tinynet.load_dataset(path)

    def test_header_without_feature_columns_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# class_complexity=0.5,0.25\nsplit,label,noise_level\ntrain,0,0.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no feature columns$"):
            tinynet.load_dataset(path)

    def test_one_class_complexity_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD.replace("0.5,0.25", "0.5") + "train,0,0.0,1,2\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: class_complexity has 1 "):
            tinynet.load_dataset(path)

    def test_no_data_rows_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD + "\n\n")
        with pytest.raises(ParseError):
            tinynet.load_dataset(path)

    @settings(max_examples=300, deadline=None)
    @given(complexity=COMPLEXITY, header=st.sampled_from(
        ["split,label,noise_level,f0,f1", "split,label,noise_level", "split,label"]), rows=ROWS)
    def test_any_file_gives_a_finite_dataset_or_parse_error(self, tmp_path_factory, complexity,
                                                           header, rows):
        path = tmp_path_factory.getbasetemp() / "fuzzed_dataset.csv"
        path.write_text("\n".join([f"# class_complexity={complexity}", header, *rows]) + "\n")
        try:
            ds = tinynet.load_dataset(path)
        except ParseError:
            return
        assert ds.n_features >= 1 and ds.n_classes >= 2
        assert np.all(np.isfinite(ds.features))
        assert np.all((ds.noise_level >= 0) & (ds.noise_level <= 1))
        assert np.all((ds.class_complexity >= 0) & (ds.class_complexity <= 1))
        assert ds.labels.min() >= 0 and ds.labels.max() < ds.n_classes
