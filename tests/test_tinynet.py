"""Tests for the MLP, synthetic data, noise injection, and SGD training."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from antdistill.temperature import (
    ConstantPolicy,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    apply_policy_rows,
)


def small_dataset(seed=0, complexity=0.0, n=300, c=3, d=4):
    return tinynet.generate_synthetic(n, c, d, complexity, seed)


def ce_loss(labels, n_classes):
    """Loss pair built row by row from the scalar reference; its one target
    is each row's index into labels, and its probabilities are the logits
    themselves."""
    def sample_loss(logits, i):
        p = ref.stable_softmax(logits, 1.0)
        onehot = np.zeros(n_classes)
        onehot[labels[i]] = 1.0
        return ref.cross_entropy(int(labels[i]), p), p - onehot

    def grad_rows(logits, idx):
        return logits, np.array([sample_loss(logits[j], i)[1] for j, i in enumerate(idx)])

    def loss_rows(logits, idx):
        return np.array([sample_loss(logits[j], i)[0] for j, i in enumerate(idx)])

    return grad_rows, loss_rows


# loss pair whose every row's loss is NaN
nan_loss = (lambda logits: (logits, np.zeros_like(logits)),
            lambda logits: np.full(logits.shape[0], np.nan))


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
        m.weights[0][:] = np.eye(3)
        m.biases[0][:] = np.zeros(3)
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


def step_gradients(model, x, loss, targets):
    """(mean batch loss, gradient model) of one sgd_fit mini-batch: the
    forward pass, the gradient half and the backward pass of tinynet._step,
    then the loss half on the probabilities it returned."""
    grads = tinynet.MlpModel(model.layer_dims, np.empty_like(model.params))
    probs = tinynet._step(model, x, loss[0], targets, grads)
    return float(np.mean(loss[1](probs, *targets))), grads


class TestLossGradients:
    def test_constant_loss_gives_zero_gradients(self):
        m = tinynet.init_mlp([4, 6, 3], seed=2)
        x = np.random.default_rng(0).normal(size=(5, 4))
        constant = (lambda logits: (logits, np.zeros_like(logits)),
                    lambda logits: np.ones(logits.shape[0]))
        _, grads = step_gradients(m, x, constant, ())
        assert np.all(grads.params == 0)

    def test_duplicated_sample_equals_single(self):
        m = tinynet.init_mlp([4, 6, 3], seed=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4))
        loss = ce_loss(np.array([1, 1, 1, 1]), 3)
        l1, g1 = step_gradients(m, x, loss, (np.arange(1),))
        lk, gk = step_gradients(m, np.repeat(x, 4, axis=0), loss, (np.arange(4),))
        assert abs(l1 - lk) < 1e-12
        for a, b in zip(g1.weights, gk.weights):
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
            return float(np.mean(loss[1](logits, np.arange(6))))

        _, grads = step_gradients(m, x, loss, (np.arange(6),))
        gw, gb = grads.weights, grads.biases
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
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(learning_rate=-0.1), "learning_rate must be >= 0, got -0.1"),
        (dict(learning_rate=float("nan")), "learning_rate must be finite, got nan"),
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
                            tinynet._CROSS_ENTROPY, tinynet._one_hot(ds.labels[:-1], 3))


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
        vector = self.trained.params
        assert vector.ndim == 1 and vector.size == sum(a.size for a in model_arrays(self.trained))
        assert all(np.shares_memory(a, vector) for a in model_arrays(self.trained))
        snapshot = self.trained.copy()
        before = [a.tobytes() for a in model_arrays(snapshot)]
        vector -= 0.5
        assert [a.tobytes() for a in model_arrays(snapshot)] == before
        assert all(not np.array_equal(a, b)
                   for a, b in zip(model_arrays(self.trained), model_arrays(snapshot)))


class TestModelVector:
    """A model is its parameter vector; its arrays are views of it."""

    DIMS = (4, 6, 5, 3)
    SIZE = 6 * 5 + 5 * 7 + 3 * 6

    def setup_method(self):
        self.model = tinynet.init_mlp(self.DIMS, seed=2)

    def test_only_fields_are_layer_dims_and_params(self):
        assert [f.name for f in dataclasses.fields(tinynet.MlpModel)] == ["layer_dims", "params"]
        assert self.model.params.shape == (self.SIZE,)

    def test_layout_is_each_layers_weights_row_major_then_its_biases(self):
        m = tinynet.MlpModel(self.DIMS, np.arange(float(self.SIZE)))
        at = 0
        for k, (fan_in, fan_out) in enumerate(zip(self.DIMS, self.DIMS[1:])):
            want_w = np.arange(at, at + fan_out * fan_in).reshape(fan_out, fan_in)
            at += fan_out * fan_in
            np.testing.assert_array_equal(m.weights[k], want_w)
            np.testing.assert_array_equal(m.weights_t[k], want_w.T)
            np.testing.assert_array_equal(m.biases[k], np.arange(at, at + fan_out))
            at += fan_out
        assert at == self.SIZE

    def test_arrays_share_memory_with_params(self):
        m = self.model
        for arrays in (m.weights, m.biases, m.weights_t):
            assert type(arrays) is tuple and len(arrays) == len(self.DIMS) - 1
            assert all(np.shares_memory(a, m.params) for a in arrays)
        m.weights[1][2, 3] = 7.0
        assert m.params[6 * 5 + 2 * 6 + 3] == 7.0 and m.weights_t[1][3, 2] == 7.0
        m.params[-1] = -7.0
        assert m.biases[-1][-1] == -7.0

    @pytest.mark.parametrize("name", ["layer_dims", "params", "weights", "biases", "weights_t"])
    def test_rebinding_raises(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.model, name, getattr(self.model, name))

    @pytest.mark.parametrize("name", ["weights", "biases", "weights_t"])
    def test_replacing_a_layer_array_raises(self, name):
        with pytest.raises(TypeError):
            getattr(self.model, name)[0] = getattr(self.model, name)[0].copy()

    def test_copy_shares_no_memory(self):
        m, c = self.model, self.model.copy()
        assert c.layer_dims == m.layer_dims and c.params.tobytes() == m.params.tobytes()
        for a in (c.params, *c.weights, *c.biases, *c.weights_t):
            assert not np.shares_memory(a, m.params)

    @pytest.mark.parametrize("shape", [(SIZE - 1,), (SIZE + 1,), (0,), (0, SIZE), (SIZE, 1), (),
                                       (2, 1, SIZE), (2, SIZE + 1)])
    def test_mis_sized_params_raise(self, shape):
        message = (f"params must have shape ({self.SIZE},) or (k >= 1, {self.SIZE}) for "
                   f"layer_dims {self.DIMS}, got {shape}")
        with pytest.raises(InvalidShape, match=f"^{re.escape(message)}$"):
            tinynet.MlpModel(self.DIMS, np.zeros(shape))

    @pytest.mark.parametrize("dims", [(3, 0, 2), (3,), (), (3, -1, 2), (0, 2)])
    def test_impossible_layer_dims_raise(self, dims):
        # (3, 0, 2) fits 2 parameters and (3,) fits 0
        size = sum(o * (i + 1) for i, o in zip(dims, dims[1:]))
        message = f"layer_dims must be >= 2 positive sizes, got {dims}"
        with pytest.raises(InvalidShape, match=f"^{re.escape(message)}$"):
            tinynet.MlpModel(dims, np.zeros(max(size, 0)))

    @pytest.mark.parametrize("params, name", [
        (np.zeros(SIZE, dtype=np.int64), "int64"), (np.zeros(SIZE, dtype=np.float32), "float32"),
        (np.zeros(SIZE, dtype=bool), "bool"), ([0.0] * SIZE, "list")])
    def test_params_that_are_not_float64_raise(self, params, name):
        message = f"params must be a float64 array, got {name}"
        with pytest.raises(InvalidShape, match=f"^{re.escape(message)}$"):
            tinynet.MlpModel(self.DIMS, params)

    @settings(max_examples=200, deadline=None)
    @given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_init_mlp_equals_the_per_layer_draws(self, dims, seed):
        model = tinynet.init_mlp(dims, seed)
        want = ref.init_params(dims, seed)
        assert model.params.dtype == want.dtype and model.params.tobytes() == want.tobytes()


class TestStackedModel:
    """A (k, P) params is a stack of k models, one per row: the arms."""

    DIMS = TestModelVector.DIMS
    SIZE = TestModelVector.SIZE

    def setup_method(self):
        self.models = [tinynet.init_mlp(self.DIMS, seed=s) for s in (2, 3, 4)]
        self.stack = tinynet.stack_models(self.models)

    def test_views_take_a_leading_arm_axis(self):
        stack = self.stack
        assert stack.params.shape == (3, self.SIZE) and stack.n_arms == 3
        for k, (fan_in, fan_out) in enumerate(zip(self.DIMS, self.DIMS[1:])):
            assert stack.weights[k].shape == (3, fan_out, fan_in)
            assert stack.weights_t[k].shape == (3, fan_in, fan_out)
            assert stack.biases[k].shape == (3, fan_out)
            for a, model in enumerate(self.models):
                assert stack.weights[k][a].tobytes() == model.weights[k].tobytes()
                assert stack.biases[k][a].tobytes() == model.biases[k].tobytes()
        for arrays in (stack.weights, stack.biases, stack.weights_t, stack.row_biases):
            assert all(np.shares_memory(a, stack.params) for a in arrays)
        stack.weights[1][2, 3, 4] = 7.0
        assert stack.params[2, 6 * 5 + 3 * 6 + 4] == 7.0

    def test_one_row_stack_is_accepted(self):
        stack = tinynet.stack_models(self.models[:1])
        assert stack.params.shape == (1, self.SIZE) and stack.n_arms == 1
        assert self.models[0].n_arms == 1

    @pytest.mark.parametrize("a", [0, 1, 2, -1])
    def test_arm_gives_back_that_models_parameters(self, a):
        arm = self.stack.arm(a)
        assert arm.layer_dims == self.DIMS and arm.params.shape == (self.SIZE,)
        assert arm.params.tobytes() == self.models[a].params.tobytes()
        assert arm.params.tobytes() == self.stack.params[a].tobytes()
        assert not np.shares_memory(arm.params, self.stack.params)

    def test_arm_of_one_model_is_its_copy(self):
        model = self.models[0]
        arm = model.arm(0)
        assert arm.params.tobytes() == model.params.tobytes()
        assert not np.shares_memory(arm.params, model.params)

    @settings(max_examples=100, deadline=None)
    @given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=5),
           k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_stacking_then_taking_each_arm_back_is_bit_exact(self, dims, k, seed):
        models = [tinynet.init_mlp(dims, seed + a) for a in range(k)]
        stack = tinynet.stack_models(models)
        for a, model in enumerate(models):
            assert stack.arm(a).params.tobytes() == model.params.tobytes()

    def test_one_model_functions_reject_a_stack(self):
        ds = small_dataset(seed=1, n=60)
        stack = tinynet.stack_models([tinynet.init_mlp([4, 5, 3], seed=0)] * 2)
        with pytest.raises(ShapeMismatch, match="^expected one model, got a stack of 2$"):
            tinynet.accuracy(stack, ds.features, ds.labels)
        with pytest.raises(ShapeMismatch, match="^expected one model, got a stack of 2$"):
            tinynet.train_supervised(stack, tinynet.stack_datasets([ds, ds]),
                                     tinynet.TrainConfig(epochs=1))

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_sgd_fit_returns_a_one_arm_model_and_history_per_arm(self, k):
        ds = small_dataset(seed=1, n=60)
        model = tinynet.init_mlp([4, 5, 3], seed=0)
        if k is not None:  # a stack of k
            model, ds = tinynet.stack_models([model] * k), tinynet.stack_datasets([ds] * k)
        fits = tinynet.sgd_fit(model, ds, tinynet.TrainConfig(epochs=2), tinynet._CROSS_ENTROPY,
                               tinynet._one_hot(ds.labels, 3))
        assert len(fits) == model.n_arms
        for trained, history in fits:
            assert trained.layer_dims == model.layer_dims and trained.n_arms == 1
            assert trained.params.shape == model.params.shape[-1:]
            assert len(history.train_loss) == len(history.val_accuracy) == 2

    def test_models_of_other_layer_dims_do_not_stack(self):
        with pytest.raises(ShapeMismatch, match="same layer_dims"):
            tinynet.stack_models([self.models[0], tinynet.init_mlp([4, 3], seed=0)])
        with pytest.raises(ShapeMismatch, match="same layer_dims"):
            tinynet.stack_models([])


class TestStackedDataset:
    def setup_method(self):
        self.ds = small_dataset(seed=5, n=60)
        self.noisy = tinynet.inject_noise(self.ds, "gaussian", 0.5, seed=6)

    def test_blocks_in_order(self):
        stacked = tinynet.stack_datasets([self.noisy, self.ds])
        n = self.ds.n_samples
        assert stacked.n_samples == 2 * n
        np.testing.assert_array_equal(stacked.features[:n], self.noisy.features)
        np.testing.assert_array_equal(stacked.features[n:], self.ds.features)
        np.testing.assert_array_equal(stacked.noise_level[:n], self.noisy.noise_level)
        np.testing.assert_array_equal(stacked.labels, np.tile(self.ds.labels, 2))
        np.testing.assert_array_equal(stacked.split, np.tile(self.ds.split, 2))
        np.testing.assert_array_equal(stacked.class_complexity, self.ds.class_complexity)

    @pytest.mark.parametrize("name", ["labels", "split", "class_complexity"])
    def test_blocks_that_differ_in_labels_splits_or_complexity_raise(self, name):
        other = self.ds.copy()
        if name == "labels":
            other.labels[0] = (other.labels[0] + 1) % self.ds.n_classes
        elif name == "split":
            other.split[0] = "test" if other.split[0] != "test" else "train"
        else:
            other.class_complexity[0] += 0.25
        with pytest.raises(ShapeMismatch, match=f"^stacked datasets must share their {name}$"):
            tinynet.stack_datasets([self.ds, other])

    def test_blocks_of_other_feature_width_or_none_raise(self):
        with pytest.raises(ShapeMismatch, match="feature width"):
            tinynet.stack_datasets([self.ds, small_dataset(seed=5, n=60, d=5)])
        with pytest.raises(ShapeMismatch, match="one or more datasets"):
            tinynet.stack_datasets([])

    @pytest.mark.parametrize("name", ["labels", "split"])
    def test_sgd_fit_rejects_blocks_that_differ_in_labels_or_splits(self, name):
        other = self.ds.copy()
        if name == "labels":
            other.labels[0] = (other.labels[0] + 1) % self.ds.n_classes
        else:
            other.split[0] = "test" if other.split[0] != "test" else "train"
        # one dataset of two blocks that stack_datasets would have refused
        two = tinynet.SyntheticDataset(*(np.concatenate([getattr(self.ds, f), getattr(other, f)])
                                         for f in ("features", "labels", "noise_level")),
                                       self.ds.class_complexity,
                                       np.concatenate([self.ds.split, other.split]))
        stack = tinynet.stack_models([tinynet.init_mlp([4, 3], seed=0)] * 2)
        with pytest.raises(ShapeMismatch, match=f"^stacked datasets must share their {name}$"):
            tinynet.sgd_fit(stack, two, tinynet.TrainConfig(epochs=1), tinynet._CROSS_ENTROPY,
                            tinynet._one_hot(two.labels, 3))

    @pytest.mark.parametrize("k, rows", [(2, 61), (3, 100), (4, 90)])
    def test_sgd_fit_rejects_rows_that_are_not_k_equal_blocks(self, k, rows):
        ds = small_dataset(seed=1, n=rows)
        stack = tinynet.stack_models([tinynet.init_mlp([4, 3], seed=0)] * k)
        with pytest.raises(ShapeMismatch, match=f"^a stack of {k} models needs {k} equal blocks "
                                                f"of rows, got {rows} rows$"):
            tinynet.sgd_fit(stack, ds, tinynet.TrainConfig(epochs=1), tinynet._CROSS_ENTROPY,
                            tinynet._one_hot(ds.labels, 3))


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
    for w in teacher.weights:
        w *= scale
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


def outcomes(run):
    """fit_outcome of the library's training and of the reference loop's."""
    policy, teacher, student, ds, cfg, t_base = run
    if policy is None:
        return (fit_outcome(lambda: tinynet.train_supervised(student, ds, cfg)),
                fit_outcome(lambda: ref.train_supervised(student, ds, cfg)))
    kd = distill.KdConfig(policy, t_base, cfg)
    # the report's train_loss and val_accuracy are the history's
    return (fit_outcome(lambda: distill.distill_train(teacher, student, ds, kd)),
            fit_outcome(lambda: ref.distill_train(teacher, student, ds, kd)))


# learning rates that make training diverge, at every order of magnitude;
# sampled_from draws the exponents evenly, where integers() favours small ones
DIVERGING_RATES = st.sampled_from([10.0**e for e in range(2, 301)]) | st.floats(1e2, 1e300)


class TestSgdFitMatchesReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(run=training_runs())
    def test_bit_for_bit(self, run):
        got, want = outcomes(run)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(run=training_runs(), learning_rate=DIVERGING_RATES, batches=st.integers(2, 6))
    def test_diverging_training_raises_the_reference_error(self, run, learning_rate, batches):
        # sgd_fit tallies the losses at the end of an epoch; the reference
        # raises before the update of the batch that made the sum non-finite
        policy, teacher, student, ds, cfg, t_base = run
        cfg = dataclasses.replace(cfg, learning_rate=learning_rate,
                                  batch_size=max(1, -(-ds.indices("train").size // batches)))
        got, want = outcomes((policy, teacher, student, ds, cfg, t_base))
        assert got == want

    @staticmethod
    def row_loss_outcomes(values, ds, cfg):
        """fit_outcome of sgd_fit and of the reference loop, as reprs, when
        every row's loss is its entry of values: repr tells -0.0 from 0.0."""
        model = tinynet.init_mlp([4, 3], seed=0)
        pair = (lambda logits, v: (logits, np.zeros_like(logits)), lambda logits, v: v)

        def batch_loss(logits, idx):
            return values[idx], np.zeros_like(logits)

        return (repr(fit_outcome(lambda: tinynet.sgd_fit(model, ds, cfg, pair, (values,))[0])),
                repr(fit_outcome(lambda: ref.sgd_fit(model, ds, cfg, batch_loss))))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_non_finite_row_losses_raise_the_reference_error(self, data):
        # inf and nan rows in different batches: the message is the sum
        # after the first batch that made it non-finite, not at the epoch end
        ds = small_dataset(seed=data.draw(st.integers(0, 99)), n=60)
        values = data.draw(hnp.arrays(np.float64, ds.n_samples, elements=st.sampled_from(
            [np.inf, -np.inf, np.nan, -0.0]) | st.floats(0.0, 10.0)))
        cfg = tinynet.TrainConfig(epochs=2, batch_size=data.draw(st.integers(1, 50)),
                                  seed=data.draw(st.integers(0, 99)))
        got, want = self.row_loss_outcomes(values, ds, cfg)
        assert got == want
        # the reference starts each epoch's sum at 0.0, so rows that all
        # lose -0.0 give a train_loss of 0.0, not -0.0
        got, want = self.row_loss_outcomes(np.full(ds.n_samples, -0.0), ds, cfg)
        assert got == want and "[0.0, 0.0]" in want

    def test_loss_that_turns_non_finite_in_a_middle_batch(self):
        ds = small_dataset(seed=3)
        model = tinynet.init_mlp([4, 8, 3], seed=0)
        cfg = tinynet.TrainConfig(epochs=2, learning_rate=1e300)
        labels, batches = ds.labels, []

        def batch_loss(logits, idx):
            batches.append(idx.size)
            return ref._cross_entropy_rows(logits, labels[idx])

        want = fit_outcome(lambda: ref.sgd_fit(model, ds, cfg, batch_loss))
        # the second of seven batches in the first epoch
        assert want == repr(NonFiniteLoss("training loss became nan"))
        assert len(batches) == 2 and ds.indices("train").size > 3 * cfg.batch_size
        assert fit_outcome(lambda: tinynet.train_supervised(model, ds, cfg)) == want


POLICIES = (st.builds(ConstantPolicy, st.floats(0.05, 20.0))
            | st.builds(UncertaintyLinearPolicy, st.floats(0.0, 10.0))
            | st.builds(RuleBasedPolicy, base_temperature=st.floats(1.0, 8.0),
                        base_weight=st.floats(0.0, 0.9)))


@st.composite
def lockstep_runs(draw, arms=st.integers(1, 4)):
    """(loss pair, student, k datasets, train config, k target tuples) of k
    arms that may train as one stack: the arms share labels, splits, the
    student's init and the train config; each has its own noise variant
    of the features and its own targets. The loss is cross-entropy, or
    distillation from one teacher under a policy drawn per arm."""
    policy, teacher, student, ds, cfg, t_base = draw(training_runs())
    datasets = [tinynet.inject_noise(ds, draw(st.sampled_from(tinynet.NOISE_KINDS)),
                                     draw(st.sampled_from([0.0, 0.3, 1.0])), cfg.seed + a,
                                     fraction=draw(st.sampled_from([0.5, 1.0])))
                for a in range(draw(arms))]
    if policy is None:
        targets = [tinynet._one_hot(d.labels, d.n_classes) for d in datasets]
        return tinynet._CROSS_ENTROPY, student, datasets, cfg, targets

    def kd_targets(d, arm_policy):
        logits = tinynet.forward_batch(teacher, d.features)
        temps, weights = apply_policy_rows(arm_policy, logits, d.noise_level,
                                           d.class_complexity[d.labels], base_weight=t_base)
        return distill._kd_targets(numerics.softmax_rows(logits, temps), d.labels, temps,
                                   weights)

    # arm 0 keeps the run's policy; every other arm draws its own
    targets = [kd_targets(d, draw(POLICIES) if a else policy) for a, d in enumerate(datasets)]
    return distill._KD_LOSS, student, datasets, cfg, targets


def arm_outcome(model, history):
    """(weights and biases, train_loss and val_accuracy) of one arm, as bytes."""
    return ([a.tobytes() for a in model_arrays(model)],
            np.array(history.train_loss).tobytes(), np.array(history.val_accuracy).tobytes())


def lockstep_outcomes(run):
    """(each arm's arm_outcome from one sgd_fit call on the stack, the same
    from one sgd_fit call per arm), or the NonFiniteLoss raised; the calls
    per arm stop at the first that raises, as a loop over them would."""
    loss, student, datasets, cfg, targets = run
    try:
        got = [arm_outcome(*fit) for fit in tinynet.sgd_fit(
            tinynet.stack_models([student] * len(datasets)), tinynet.stack_datasets(datasets),
            cfg, loss, [np.concatenate(parts) for parts in zip(*targets)])]
    except NonFiniteLoss as exc:
        got = repr(exc)
    want = []
    for d, t in zip(datasets, targets):
        try:
            [fit] = tinynet.sgd_fit(student, d, cfg, loss, t)
            want.append(arm_outcome(*fit))
        except NonFiniteLoss as exc:
            want = repr(exc)
            break
    return got, want


class TestLockstepEqualsSequentialRuns:
    """One sgd_fit call on a stack of k arms equals k calls, one per arm, bit
    for bit; this holds only while np.matmul over the stack rounds as np.dot
    does on each arm, so it is run under more than one BLAS kernel."""

    @settings(max_examples=300, deadline=None)
    @given(run=lockstep_runs())
    def test_bit_for_bit(self, run):
        got, want = lockstep_outcomes(run)
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(run=lockstep_runs(arms=st.sampled_from([2, 3])), learning_rate=DIVERGING_RATES,
           batches=st.integers(2, 6))
    def test_diverging_training_raises_the_sequential_error(self, run, learning_rate, batches):
        loss, student, datasets, cfg, targets = run
        cfg = dataclasses.replace(cfg, learning_rate=learning_rate,
                                  batch_size=max(1, -(-datasets[0].indices("train").size
                                                      // batches)))
        got, want = lockstep_outcomes((loss, student, datasets, cfg, targets))
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_non_finite_row_losses_raise_the_lowest_failing_arms_error(self, data):
        # each arm's row losses are its own target, inf and nan in some
        # rows of some arms: a later arm may fail in an earlier epoch
        ds = small_dataset(seed=data.draw(st.integers(0, 99)), n=60)
        k = data.draw(st.integers(1, 4))
        finite = st.floats(0.0, 10.0)
        targets = [(data.draw(hnp.arrays(np.float64, ds.n_samples, elements=data.draw(
            st.sampled_from([finite, finite | st.sampled_from([np.inf, -np.inf, np.nan])])))),)
            for _ in range(k)]
        cfg = tinynet.TrainConfig(epochs=data.draw(st.integers(1, 3)),
                                  batch_size=data.draw(st.integers(1, 50)),
                                  seed=data.draw(st.integers(0, 99)))
        pair = (lambda logits, v: (logits, np.zeros_like(logits)), lambda logits, v: v)
        got, want = lockstep_outcomes((pair, tinynet.init_mlp([4, 3], seed=0), [ds] * k, cfg,
                                       targets))
        assert got == want

    def test_an_arm_after_the_first_that_fails_raises_after_the_last_epoch(self):
        ds = small_dataset(seed=2, n=60)
        values = np.ones(ds.n_samples)
        pair = (lambda logits, v: (logits, np.zeros_like(logits)), lambda logits, v: v)
        epochs = []

        def counted(logits, v):
            epochs.append(1)
            return v

        bad = values.copy()
        bad[ds.indices("train")[0]] = np.inf
        cfg = tinynet.TrainConfig(epochs=3, batch_size=8)
        with pytest.raises(NonFiniteLoss, match="^training loss became inf$"):
            tinynet.sgd_fit(tinynet.stack_models([tinynet.init_mlp([4, 3], seed=0)] * 2),
                            tinynet.stack_datasets([ds, ds]), cfg, (pair[0], counted),
                            [np.concatenate([values, bad])])
        assert len(epochs) == 3
        epochs.clear()
        with pytest.raises(NonFiniteLoss, match="^training loss became inf$"):
            tinynet.sgd_fit(tinynet.stack_models([tinynet.init_mlp([4, 3], seed=0)] * 2),
                            tinynet.stack_datasets([ds, ds]), cfg, (pair[0], counted),
                            [np.concatenate([bad, values])])
        assert len(epochs) == 1


class TestDatasetFile:
    def test_bit_exact_roundtrip(self, tmp_path):
        # float() reads back each repr() bit for bit; the oracle reads the file
        ds = small_dataset(seed=12, complexity=[0.1, 0.5, 0.9])
        ds = tinynet.inject_noise(ds, "gaussian", 0.37, seed=13)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        p1.write_text(tinynet.dataset_text(ds), encoding="utf-8")
        loaded = ref.load_dataset(p1)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.noise_level, ds.noise_level)
        np.testing.assert_array_equal(loaded.class_complexity, ds.class_complexity)
        np.testing.assert_array_equal(loaded.split, ds.split)
        p2.write_text(tinynet.dataset_text(loaded), encoding="utf-8")
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("split,label\ntrain,0\n")
        with pytest.raises(ParseError):
            ref.load_dataset(p)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_dataset_reads_back_bit_for_bit(self, tmp_path_factory, data):
        # any finite features, -0.0 and subnormals too, and any noise level
        # and class complexity in [0, 1]: the oracle reads back every array
        # bit for bit, and what it read is written as the same bytes
        n, c, d = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 4)), data.draw(
            st.integers(1, 3))
        unit = st.floats(0.0, 1.0)
        ds = tinynet.SyntheticDataset(
            data.draw(hnp.arrays(np.float64, (n, d), elements=st.floats(allow_nan=False,
                                                                         allow_infinity=False))),
            data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1))),
            data.draw(hnp.arrays(np.float64, n, elements=unit)),
            data.draw(hnp.arrays(np.float64, c, elements=unit)),
            np.array(data.draw(st.lists(st.sampled_from(tinynet.SPLITS), min_size=n,
                                        max_size=n)), dtype="<U5"),
        )
        text = tinynet.dataset_text(ds)
        path = tmp_path_factory.getbasetemp() / "written_dataset.csv"
        path.write_text(text, encoding="utf-8")
        loaded = ref.load_dataset(path)
        for got, want in zip(dataclasses.astuple(loaded), dataclasses.astuple(ds)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert tinynet.dataset_text(loaded) == text

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(tinynet.NOISE_KINDS),
           level=st.floats(0.0, 1.0))
    def test_every_written_cell_is_plain_ascii(self, seed, kind, level):
        # int() and float() also read digits outside ASCII, `_` digit
        # separators and the separators 0x1c-0x1f as whitespace; the writer
        # writes none of them, only what every CSV reader reads alike
        ds = tinynet.inject_noise(small_dataset(seed=seed, n=30, complexity=[0.1, 0.5, 0.9]),
                                  kind, level, seed=seed + 1)
        comment, header, *rows = tinynet.dataset_text(ds).split("\n")
        assert rows.pop() == "" and header == "split,label,noise_level,f0,f1,f2,f3"
        assert {row.split(",", 1)[0] for row in rows} <= set(tinynet.SPLITS)
        cells = [*comment.removeprefix("# class_complexity=").split(","),
                 *(cell for row in rows for cell in row.split(",")[1:])]
        assert len(cells) == 3 + 30 * 6
        plain = re.compile(r"-?\d+(\.\d+)?(e[-+]\d+)?")
        assert [cell for cell in cells if not plain.fullmatch(cell)] == []

DATASET_HEAD = "# class_complexity=0.5,0.25\nsplit,label,noise_level,f0,f1\n"
# cells of a dataset file: valid values, and what the reader must reject
CELLS = st.sampled_from(
    ["0", "1", "2", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e400", "", "x", "train", "val",
     "99999999999999999999"]
) | st.floats().map(repr) | st.text(alphabet="0123456789.,-eEnaif# ", max_size=6)
ROWS = st.lists(st.sampled_from(["train", "val", "test", "dev"]).flatmap(
    lambda split: st.lists(CELLS, min_size=0, max_size=6).map(lambda c: ",".join([split, *c]))
), max_size=5)
COMPLEXITY = st.lists(CELLS, min_size=1, max_size=3).map(lambda c: ",".join(c))


class TestDatasetFileInputs:
    # the row-by-row reader in scalar_reference is the only reader of the
    # dataset file, and the round-trip tests rest on it: it must reject a
    # file whose values lie outside what a dataset holds

    @pytest.mark.parametrize("row", [
        "train,0,0.0,nan,1.0", "train,0,0.0,1.0,inf", "val,1,0.0,-inf,1.0",
        "train,0,0.0,1e400,1.0", "train,0,nan,1.0,1.0", "test,1,inf,1.0,1.0",
        "train,0,1.5,1.0,1.0", "train,0,-0.5,1.0,1.0", "train,99999999999999999999,0.0,1,1",
    ])
    def test_non_finite_or_out_of_range_values_are_parse_errors(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD + "train,1,0.0,0.5,0.5\n" + row + "\n")
        with pytest.raises(ParseError):
            ref.load_dataset(path)

    @pytest.mark.parametrize("complexity", ["nan,0.5", "0.5,1.5", "inf,0.5"])
    def test_bad_class_complexity_is_parse_error(self, tmp_path, complexity):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD.replace("0.5,0.25", complexity) + "train,0,0.0,1,2\n\n")
        with pytest.raises(ParseError):
            ref.load_dataset(path)

    def test_undecodable_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(DATASET_HEAD.encode() + b"train,0,0.0,\xff\xfe,1\n")
        with pytest.raises(ParseError):
            ref.load_dataset(path)

    def test_header_without_feature_columns_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# class_complexity=0.5,0.25\nsplit,label,noise_level\ntrain,0,0.0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no feature columns$"):
            ref.load_dataset(path)

    def test_one_class_complexity_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD.replace("0.5,0.25", "0.5") + "train,0,0.0,1,2\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: class_complexity has 1 "):
            ref.load_dataset(path)

    def test_no_data_rows_is_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD + "\n\n")
        with pytest.raises(ParseError):
            ref.load_dataset(path)

    @pytest.mark.parametrize("split", ["trainx", "trainxyz", "train\x00"])
    def test_split_is_not_cut_down_to_a_valid_name(self, tmp_path, split):
        path = tmp_path / "d.csv"
        path.write_text(DATASET_HEAD + "train,1,0.0,0.5,0.5\n" + split + ",0,0.0,1,2\n")
        message = f"{path}: bad row {split + ',0,0.0,1,2'!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            ref.load_dataset(path)

    @settings(max_examples=300, deadline=None)
    @given(complexity=COMPLEXITY, header=st.sampled_from(
        ["split,label,noise_level,f0,f1", "split,label,noise_level", "split,label"]), rows=ROWS)
    def test_any_file_gives_a_finite_dataset_or_parse_error(self, tmp_path_factory, complexity,
                                                           header, rows):
        path = tmp_path_factory.getbasetemp() / "fuzzed_dataset.csv"
        path.write_text("\n".join([f"# class_complexity={complexity}", header, *rows]) + "\n")
        try:
            ds = ref.load_dataset(path)
        except ParseError:
            return
        assert ds.n_features >= 1 and ds.n_classes >= 2
        assert np.all(np.isfinite(ds.features))
        assert np.all((ds.noise_level >= 0) & (ds.noise_level <= 1))
        assert np.all((ds.class_complexity >= 0) & (ds.class_complexity <= 1))
        assert ds.labels.min() >= 0 and ds.labels.max() < ds.n_classes
