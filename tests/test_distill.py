"""Tests for the distillation loss, its analytic gradient, and training."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdistill import numerics, tinynet
from antdistill.distill import (
    _KD_LOSS,
    DistillReport,
    KdConfig,
    _kd_targets,
    distill_arms,
    distill_train,
    kd_loss,
)
from antdistill.errors import (
    InvalidPolicyParameters,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveTemperature,
    ShapeMismatch,
)
from antdistill.temperature import ConstantPolicy, RuleBasedPolicy, UncertaintyLinearPolicy


def naive_softmax(z, t):
    e = [math.exp(v / t) for v in z]
    s = sum(e)
    return [x / s for x in e]


def kd_loss_grad(student_logits, teacher_logits, true_class, temperature, weight):
    """d(total)/d(student logits) of one sample, from the gradient half of
    the loss pair that training runs, on the targets distill_arms builds."""
    temps, weights = np.array([temperature]), np.array([weight])
    teacher_probs = numerics.softmax_rows(np.array([teacher_logits]), temps)
    targets = _kd_targets(teacher_probs, np.array([true_class]), temps, weights)
    return _KD_LOSS[0](np.array([student_logits], dtype=np.float64), *targets)[1][0]


class TestKdLoss:
    def test_student_equals_teacher_full_weight(self):
        for t in (0.5, 1.0, 2.0, 7.0):
            b = kd_loss([1.2, -0.3, 0.8], [1.2, -0.3, 0.8], 0, t, 1.0)
            assert abs(b.total) < 1e-9
            assert b.kl_term < 1e-12

    def test_weight_zero_ignores_teacher_and_temperature(self):
        a = kd_loss([1.0, 0.5], [9.0, -9.0], 1, 2.0, 0.0)
        b = kd_loss([1.0, 0.5], [-3.0, 3.0], 1, 11.0, 0.0)
        assert a.total == b.total  # bit-identical
        assert a.total == a.ce_term

    def test_hand_composed_oracle(self):
        # student [1, 0], teacher [2, -2], class 0, T=2, w=0.5
        ps1 = naive_softmax([1.0, 0.0], 1.0)
        ce = -math.log(ps1[0])
        pt = naive_softmax([2.0, -2.0], 2.0)
        ps = naive_softmax([1.0, 0.0], 2.0)
        kl = sum(p * math.log(p / q) for p, q in zip(pt, ps))
        expected = 0.5 * ce + 0.5 * 4.0 * kl
        b = kd_loss([1.0, 0.0], [2.0, -2.0], 0, 2.0, 0.5)
        assert abs(b.total - expected) < 1e-9
        assert abs(b.ce_term - ce) < 1e-9
        assert abs(b.kl_term - kl) < 1e-9

    def test_recomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(2, 6))
            s = rng.uniform(-5, 5, c)
            t = rng.uniform(-5, 5, c)
            temp = float(rng.uniform(0.2, 8))
            w = float(rng.random())
            b = kd_loss(s, t, int(rng.integers(0, c)), temp, w)
            recomposed = (1 - b.distill_weight_used) * b.ce_term + (
                b.distill_weight_used * b.temperature_used**2 * b.kl_term
            )
            assert abs(b.total - recomposed) < 1e-9
            assert b.kl_term >= 0.0

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            kd_loss([1.0, 2.0], [1.0, 2.0, 3.0], 0, 1.0, 0.5)
        with pytest.raises(NonPositiveTemperature):
            kd_loss([1.0, 2.0], [1.0, 2.0], 0, 0.0, 0.5)

    @pytest.mark.parametrize("weight", [math.nan, -0.1, 1.5, 7.0])
    def test_weight_outside_unit_interval_rejected(self, weight):
        message = re.escape(f"weight must lie in [0, 1], got {weight!r}")
        with pytest.raises(InvalidPolicyParameters, match=f"^{message}$"):
            kd_loss([1.0, 2.0], [2.0, 1.0], 0, 2.0, weight)

    @pytest.mark.parametrize("t_base", [math.nan, -0.1, 1.5, 7.0])
    def test_run_weight_outside_unit_interval_rejected(self, t_base):
        # the training path's weight: KdConfig.t_base, checked at the config
        message = re.escape(f"t_base must lie in [0, 1], got {t_base!r}")
        with pytest.raises(InvalidPolicyParameters, match=f"^{message}$"):
            KdConfig(ConstantPolicy(2.0), t_base=t_base)


class TestKdLossGrad:
    def test_zero_at_confident_match(self):
        z = [25.0, -25.0]
        g = kd_loss_grad(z, z, 0, 2.0, 0.7)
        assert np.max(np.abs(g)) < 1e-8

    def test_weight_zero_is_ce_gradient(self):
        s = np.array([0.4, -1.1, 2.0])
        g = kd_loss_grad(s, [5.0, 5.0, -5.0], 1, 3.0, 0.0)
        p = np.array(naive_softmax(s, 1.0))
        p[1] -= 1.0
        np.testing.assert_allclose(g, p, atol=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            c = int(rng.integers(2, 6))
            s = rng.uniform(-4, 4, c)
            t = rng.uniform(-4, 4, c)
            temp = float(rng.uniform(0.3, 6))
            w = float(rng.random())
            y = int(rng.integers(0, c))
            g = kd_loss_grad(s, t, y, temp, w)
            for j in range(c):
                up = s.copy()
                up[j] += h
                down = s.copy()
                down[j] -= h
                fd = (kd_loss(up, t, y, temp, w).total - kd_loss(down, t, y, temp, w).total) / (2 * h)
                rel = abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-4

    @pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("temperature", [0.25, 1.0, 8.0])
    def test_finite_difference_at_the_blend_corners(self, temperature, weight):
        # w = 0 is cross-entropy alone, w = 1 the T^2-scaled KL alone
        s = np.array([0.4, -1.1, 2.0, 0.3])
        t = np.array([1.5, 0.2, -0.7, 0.9])
        h = 1e-5
        grads = []
        for y in range(4):
            g = kd_loss_grad(s, t, y, temperature, weight)
            for j in range(4):
                up, down = s.copy(), s.copy()
                up[j] += h
                down[j] -= h
                fd = (kd_loss(up, t, y, temperature, weight).total
                      - kd_loss(down, t, y, temperature, weight).total) / (2 * h)
                assert abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-8) < 1e-4
            grads.append(g)
        if weight == 1.0:  # the label drops out of the gradient, bit for bit
            assert all(np.array_equal(g, grads[0]) for g in grads)


class TestDistillTrain:
    def make_setup(self, seed, complexity=0.0, n=300, c=3, d=4):
        ds = tinynet.generate_synthetic(n, c, d, complexity, seed)
        teacher = tinynet.init_mlp([d, 16, 16, c], seed=seed + 1000)
        teacher, _ = tinynet.train_supervised(
            teacher, ds, tinynet.TrainConfig(epochs=30, seed=seed)
        )
        student = tinynet.init_mlp([d, 16, 16, c], seed=seed + 2000)
        return ds, teacher, student

    def test_w0_t1_reduces_to_supervised(self):
        ds, teacher, student = self.make_setup(31)
        cfg = tinynet.TrainConfig(epochs=5, seed=77)
        sup_model, sup_hist = tinynet.train_supervised(student, ds, cfg)
        kd_model, report = distill_train(
            teacher, student, ds, KdConfig(ConstantPolicy(1.0), t_base=0.0, train=cfg)
        )
        assert report.train_loss == sup_hist.train_loss
        assert report.val_accuracy == sup_hist.val_accuracy
        for a, b in zip(sup_model.weights, kd_model.weights):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(sup_model.biases, kd_model.biases):
            assert a.tobytes() == b.tobytes()

    def test_constant_t2_reaches_090(self):
        hits = 0
        for s in range(20):
            ds, teacher, student = self.make_setup(400 + s, n=200)
            _, report = distill_train(
                teacher, student, ds,
                KdConfig(ConstantPolicy(2.0), t_base=0.5,
                         train=tinynet.TrainConfig(epochs=30, seed=s)),
            )
            hits += report.val_accuracy[-1] >= 0.90
        assert hits == 20

    def test_constant_policy_has_zero_temp_variance(self):
        ds, teacher, student = self.make_setup(32)
        _, report = distill_train(
            teacher, student, ds,
            KdConfig(ConstantPolicy(2.0), train=tinynet.TrainConfig(epochs=3, seed=0)),
        )
        assert report.temp_mean == report.temp_min == report.temp_max == 2.0

    def test_rule_based_hits_both_branches_on_half_noisy_data(self):
        ds, teacher, student = self.make_setup(33, n=400)
        noisy = tinynet.inject_noise(ds, "gaussian", 0.8, seed=5, fraction=0.5)
        pol = RuleBasedPolicy()
        _, report = distill_train(
            teacher, student, noisy,
            KdConfig(pol, train=tinynet.TrainConfig(epochs=2, seed=0)),
        )
        assert report.temp_max == pol.base_temperature + pol.raise_step
        assert report.temp_min == pol.base_temperature - pol.lower_step

    def test_report_json_is_deterministic(self):
        ds, teacher, student = self.make_setup(34)
        cfg = KdConfig(ConstantPolicy(2.0), train=tinynet.TrainConfig(epochs=2, seed=3))
        _, r1 = distill_train(teacher, student, ds, cfg)
        _, r2 = distill_train(teacher, student, ds, cfg)
        assert r1.to_json() == r2.to_json()
        assert '"seed": 3' in r1.to_json()

    def test_report_json_writes_each_train_loss_at_12_significant_digits(self):
        # only the file rounds: the report keeps each loss as trained
        ds, teacher, student = self.make_setup(34)
        cfg = KdConfig(ConstantPolicy(2.0), train=tinynet.TrainConfig(epochs=3, seed=3))
        report = distill_train(teacher, student, ds, cfg)[1]
        exact = list(report.train_loss)
        rounded = [float(f"{v:.12g}") for v in exact]
        assert rounded != exact
        assert json.loads(report.to_json()) == dataclasses.asdict(report) | {"train_loss": rounded}
        assert report.train_loss == exact

    def test_report_json_refuses_nan(self):
        ds, teacher, student = self.make_setup(34)
        cfg = KdConfig(ConstantPolicy(2.0), train=tinynet.TrainConfig(epochs=1, seed=3))
        report = distill_train(teacher, student, ds, cfg)[1]
        with pytest.raises(ValueError, match="not JSON compliant"):
            dataclasses.replace(report, temp_mean=float("nan")).to_json()


class TestDistillArms:
    """distill_arms trains k students in lockstep; each equals distill_train's."""

    def setup_method(self):
        self.ds, self.teacher, self.student = TestDistillTrain().make_setup(35, n=200)
        self.train = tinynet.TrainConfig(epochs=4, batch_size=16, seed=5)

    @pytest.mark.parametrize("policies", [
        [RuleBasedPolicy()] * 4,
        [ConstantPolicy(2.0), RuleBasedPolicy()],
        [UncertaintyLinearPolicy(), ConstantPolicy(0.5), RuleBasedPolicy(base_weight=0.2)],
        [RuleBasedPolicy()],
    ])
    def test_each_arm_equals_its_own_distill_train(self, policies):
        kinds = ["gaussian", "salt_pepper", "uniform"]
        arms = [(self.ds if a == 3 else tinynet.inject_noise(self.ds, kinds[a], 0.5, seed=a),
                 KdConfig(policy, 0.5, self.train)) for a, policy in enumerate(policies)]
        got = distill_arms(self.teacher, self.student, arms)
        assert len(got) == len(arms)
        for (model, report), (ds, cfg) in zip(got, arms):
            want_model, want_report = distill_train(self.teacher, self.student, ds, cfg)
            assert model.params.shape == want_model.params.shape
            assert model.params.tobytes() == want_model.params.tobytes()
            assert report == want_report

    def test_arms_need_one_train_config(self):
        other = dataclasses.replace(self.train, seed=6)
        arms = [(self.ds, KdConfig(RuleBasedPolicy(), 0.5, train))
                for train in (self.train, other)]
        with pytest.raises(ShapeMismatch, match="^arms trained in lockstep need one train config"):
            distill_arms(self.teacher, self.student, arms)
        with pytest.raises(ShapeMismatch, match="^arms trained in lockstep need one train config"):
            distill_arms(self.teacher, self.student, [])

    def test_arms_need_one_split(self):
        other = self.ds.copy()
        other.split[:] = other.split[::-1]
        arms = [(ds, KdConfig(RuleBasedPolicy(), 0.5, self.train)) for ds in (self.ds, other)]
        with pytest.raises(ShapeMismatch, match="^stacked datasets must share their"):
            distill_arms(self.teacher, self.student, arms)


@st.composite
def weight_zero_runs(draw):
    """(teacher, student, dataset, a noisy copy of it, train config, T) of
    one small training run. The teacher's weights are scaled by up to 300,
    as tests/test_tinynet.py's training runs do: at weight 0 it must not
    matter."""
    seed = draw(st.integers(0, 2**32 - 1))
    c, d = draw(st.integers(2, 10)), draw(st.integers(2, 5))
    ds = tinynet.generate_synthetic(draw(st.integers(10 * c, 10 * c + 40)), c, d,
                                    draw(st.floats(0.0, 1.0)), seed)
    noisy = tinynet.inject_noise(ds, draw(st.sampled_from(["gaussian", "salt_pepper", "uniform"])),
                                 draw(st.floats(0.0, 1.0)), seed, fraction=0.5)
    student = tinynet.init_mlp([d, *draw(st.lists(st.integers(1, 8), max_size=2)), c], seed)
    teacher = tinynet.init_mlp([d, 6, c], seed + 1)
    scale = draw(st.sampled_from([1.0, 30.0, 300.0]))
    for w in teacher.weights:
        w *= scale
    rows = ds.indices("train").size
    train = tinynet.TrainConfig(
        epochs=draw(st.integers(1, 4)),
        batch_size=draw(st.sampled_from([1, rows - 1, rows, rows + 3]) | st.integers(1, rows + 5)),
        learning_rate=draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return teacher, student, ds, noisy, train, draw(st.floats(0.05, 20.0))


class TestWeightZeroArmIsSupervisedTraining:
    """Supervised training is distillation at weight 0: a constant-temperature
    arm with t_base = 0 trains the cross-entropy student bit for bit, alone
    or as arm 0 of a stack, as distill --ablation table10's supervised arm
    does. The stack holds only while np.matmul over it rounds as np.dot does
    on one model, so this runs under more than one BLAS kernel."""

    @settings(max_examples=150, deadline=None)
    @given(run=weight_zero_runs())
    def test_bit_for_bit(self, run):
        teacher, student, ds, noisy, train, temperature = run
        want, history = tinynet.train_supervised(student, ds, train)
        arm = (ds, KdConfig(ConstantPolicy(temperature), t_base=0.0, train=train))
        rule = (noisy, KdConfig(RuleBasedPolicy(), train=train))
        for arms in ([arm], [arm, rule]):
            got, report = distill_arms(teacher, student, arms)[0]
            assert got.params.tobytes() == want.params.tobytes()
            assert np.array(report.train_loss).tobytes() == np.array(history.train_loss).tobytes()
            assert (np.array(report.val_accuracy).tobytes()
                    == np.array(history.val_accuracy).tobytes())


class TestDistillTrainChecksItsInputsOnce:
    """What the per-row loss used to reject is rejected at distill_train's entry."""

    def setup(self, c_teacher=3, c_student=3):
        ds = tinynet.generate_synthetic(90, 3, 4, 0.0, seed=1)
        teacher = tinynet.init_mlp([4, 8, c_teacher], seed=2)
        student = tinynet.init_mlp([4, 8, c_student], seed=3)
        return ds, teacher, student

    @pytest.mark.parametrize("t_base", [-0.1, 1.5, float("nan")])
    def test_t_base_outside_unit_interval(self, t_base):
        with pytest.raises(InvalidPolicyParameters, match="t_base"):
            KdConfig(ConstantPolicy(), t_base)

    def test_unknown_policy_type(self):
        with pytest.raises(InvalidPolicyParameters, match="^unknown policy type object$"):
            KdConfig(object())

    def test_teacher_and_student_class_counts_must_match(self):
        ds, teacher, student = self.setup(c_teacher=4)
        with pytest.raises(LengthMismatch):
            distill_train(teacher, student, ds, KdConfig(ConstantPolicy()))

    def test_non_finite_teacher_logits(self):
        ds, teacher, student = self.setup()
        teacher.biases[-1][0] = np.inf
        with pytest.raises(NonFiniteInput):
            distill_train(teacher, student, ds, KdConfig(ConstantPolicy()))

    @pytest.mark.parametrize("policy", [ConstantPolicy(), UncertaintyLinearPolicy(),
                                        RuleBasedPolicy()])
    @pytest.mark.parametrize("field", ["noise_level", "class_complexity"])
    def test_context_outside_unit_interval_for_every_policy(self, policy, field):
        ds, teacher, student = self.setup()
        getattr(ds, field)[1] = 1.5
        with pytest.raises(InvalidPolicyParameters):
            distill_train(teacher, student, ds, KdConfig(policy))
