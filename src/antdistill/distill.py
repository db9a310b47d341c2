"""Knowledge-distillation loss with analytic gradients, plus the
teacher-to-student training loop.

The per-sample loss blends hard-label cross-entropy with a
temperature-scaled KL term between teacher and student distributions:

    total = (1 - w) * ce + w * T^2 * kl

with per-sample (T, w) supplied by a temperature policy. The teacher is
frozen throughout; gradients flow only into the student. One row kernel
computes the loss and its gradient from the blend's per-row constants
1 - w, w * T^2 and w * T: distill_train computes them once per training
run and hands the kernel to sgd_fit, kd_loss_rows computes them per call,
and kd_loss and kd_loss_grad validate one sample and then call the kernel
on a batch of one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics, tinynet
from .errors import IndexOutOfRange, InvalidPolicyParameters, LengthMismatch
from .temperature import TemperaturePolicy, _check_unit, apply_policy_rows, policy_descriptor
from .temperature import compute_context  # noqa: F401  (perfbench/test_perfbench.py asserts it)


@dataclass(frozen=True)
class KdConfig:
    policy: TemperaturePolicy
    t_base: float = 0.5  # distillation weight for non-rule policies
    train: tinynet.TrainConfig = field(default_factory=tinynet.TrainConfig)

    def __post_init__(self):
        if not 0.0 <= self.t_base <= 1.0:
            raise InvalidPolicyParameters(f"t_base must lie in [0, 1], got {self.t_base!r}")


@dataclass(frozen=True)
class LossBreakdown:
    ce_term: float
    kl_term: float
    temperature_used: float
    distill_weight_used: float
    total: float


def _kd_weights(temperatures, weights):
    """The blend's per-row constants (1 - w, w * T^2, w * T)."""
    # float_power is libm's pow, as a Python float's temperature**2 is; ** on an
    # array squares, which can differ from pow in the last bit
    return 1.0 - weights, weights * np.float_power(temperatures, 2), weights * temperatures


def _kd_rows(student_logits, teacher_probs, labels, temperatures, ce_weight, kl_weight,
             grad_weight):
    """(total, grad, ce, kl) of each row; the three weights are _kd_weights's,
    the other inputs kd_loss_rows's."""
    ce, dce = tinynet.cross_entropy_rows(student_logits, labels)
    ps = numerics.softmax_rows(student_logits, temperatures)
    kl = numerics.kl_divergence_rows(teacher_probs, ps)
    total = ce_weight * ce + kl_weight * kl
    grad = ce_weight[:, None] * dce + grad_weight[:, None] * (ps - teacher_probs)
    return total, grad, ce, kl


def _kd_loss_rows(*rows):
    """_kd_rows's (total, grad): the loss_rows distill_train gives sgd_fit."""
    return _kd_rows(*rows)[:2]


def _kd_one(student_logits, teacher_logits, true_class, temperature, weight):
    """The kernel's outputs for one validated sample."""
    s = numerics.as_logits(student_logits)
    t = numerics.as_logits(teacher_logits)
    if s.shape != t.shape:
        raise LengthMismatch(f"student has {s.shape[0]} logits, teacher {t.shape[0]}")
    c = int(true_class)
    if c < 0 or c >= s.shape[0]:
        raise IndexOutOfRange(f"class {c} out of range for {s.shape[0]} classes")
    temps = np.array([numerics._check_temperature(temperature)])
    weights = np.array([_check_unit("weight", weight)])
    return _kd_rows(s[None, :], numerics.softmax_rows(t[None, :], temps), np.array([c]), temps,
                    *_kd_weights(temps, weights))


def kd_loss(student_logits, teacher_logits, true_class: int, temperature: float,
            weight: float) -> LossBreakdown:
    """Loss breakdown for one sample; teacher logits are constants."""
    total, _, ce, kl = _kd_one(student_logits, teacher_logits, true_class, temperature, weight)
    return LossBreakdown(float(ce[0]), float(kl[0]), float(temperature), float(weight),
                         float(total[0]))


def kd_loss_grad(student_logits, teacher_logits, true_class: int, temperature: float,
                 weight: float) -> np.ndarray:
    """d(total)/d(student_logits) = (1-w)(p1 - y) + w*T*(p_s - p_t)."""
    return _kd_one(student_logits, teacher_logits, true_class, temperature, weight)[1][0]


def kd_loss_rows(student_logits: np.ndarray, teacher_probs: np.ndarray, labels: np.ndarray,
                 temperatures: np.ndarray, weights: np.ndarray):
    """Distillation batch loss: (per-row kd_loss(...).total, per-row kd_loss_grad),
    for (n, C) student logits.

    teacher_probs holds each row's teacher softmax at its own temperature,
    softmax_rows(teacher_logits, temperatures). Inputs are not validated.
    """
    return _kd_loss_rows(student_logits, teacher_probs, labels, temperatures,
                         *_kd_weights(temperatures, weights))


@dataclass
class DistillReport:
    seed: int
    policy: dict
    t_base: float
    train_loss: list[float]
    val_accuracy: list[float]
    # realized temperatures over the train split; fixed before training starts
    temp_mean: float
    temp_min: float
    temp_max: float
    final_val_accuracy: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=False)


def distill_train(teacher: tinynet.MlpModel, student: tinynet.MlpModel,
                  dataset: tinynet.SyntheticDataset, cfg: KdConfig):
    """Distill a frozen teacher into the student; returns (student, report).

    Each sample gets its own (temperature, weight) from the policy, so a
    single batch can mix soft and hard targets. The teacher never sees
    gradients, which makes its logits, the contexts, the policy outputs
    and the teacher's softened targets constant across epochs; they are
    precomputed once, with the blend's per-row constants.
    """
    if teacher.n_classes != student.n_classes:
        raise LengthMismatch(
            f"student has {student.n_classes} classes, teacher {teacher.n_classes}"
        )
    teacher_logits = tinynet.forward_batch(teacher, dataset.features)
    temps, weights = apply_policy_rows(
        cfg.policy,
        teacher_logits,
        dataset.noise_level,
        dataset.class_complexity[dataset.labels],
        base_weight=cfg.t_base,
    )
    teacher_probs = numerics.softmax_rows(teacher_logits, temps)
    targets = (teacher_probs, dataset.labels, temps, *_kd_weights(temps, weights))
    trained, history = tinynet.sgd_fit(student, dataset, cfg.train, _kd_loss_rows, targets)
    train_temps = temps[dataset.indices("train")]
    report = DistillReport(
        seed=cfg.train.seed,
        policy=policy_descriptor(cfg.policy),
        t_base=cfg.t_base,
        train_loss=history.train_loss,
        val_accuracy=history.val_accuracy,
        temp_mean=float(train_temps.mean()),
        temp_min=float(train_temps.min()),
        temp_max=float(train_temps.max()),
        final_val_accuracy=history.val_accuracy[-1],
    )
    return trained, report
