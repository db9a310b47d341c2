"""Knowledge-distillation loss with analytic gradients, plus the
teacher-to-student training loop.

The per-sample loss blends hard-label cross-entropy with a
temperature-scaled KL term between teacher and student distributions:

    total = (1 - w) * ce + w * T^2 * kl

with per-sample (T, w) supplied by a temperature policy. The teacher is
frozen throughout; gradients flow only into the student. The loss is a
pair of row kernels on per-row targets that do not depend on the
student (_kd_targets): the teacher's probabilities and their floored
log, the one-hot labels, the divisors (1, T) and the blend's weights.
The gradient half returns the student's two softmaxes and the gradient;
the loss half turns those softmaxes into the blended loss. The kernels
index rows with `...`, so they take one student's (n, C) logits or a
stack's (k, n, C). distill_arms builds each arm's targets once per
training run and hands the pair to sgd_fit, which trains every arm in
one loop, calls the loss half once per epoch and returns one (student,
history) pair per arm; distill_train is the one-arm view. kd_loss
validates one sample, builds its targets and calls both halves on a
batch of one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numerics, tinynet
from .errors import IndexOutOfRange, InvalidPolicyParameters, LengthMismatch, ShapeMismatch
from .temperature import TemperaturePolicy, _check_unit, apply_policy_rows, policy_descriptor
from .temperature import compute_context  # noqa: F401  (perfbench/test_perfbench.py asserts it)


@dataclass(frozen=True)
class KdConfig:
    policy: TemperaturePolicy
    t_base: float = 0.5  # distillation weight for non-rule policies
    train: tinynet.TrainConfig = field(default_factory=tinynet.TrainConfig)

    def __post_init__(self):
        if not isinstance(self.policy, TemperaturePolicy):
            raise InvalidPolicyParameters(f"unknown policy type {type(self.policy).__name__}")
        if not 0.0 <= self.t_base <= 1.0:
            raise InvalidPolicyParameters(f"t_base must lie in [0, 1], got {self.t_base!r}")


@dataclass(frozen=True)
class LossBreakdown:
    ce_term: float
    kl_term: float
    temperature_used: float
    distill_weight_used: float
    total: float


def _kd_targets(teacher_probs, labels, temperatures, weights):
    """The loss pair's per-row targets, which do not depend on the student:

    - the subtrahends (onehot(label), p_t) of the two softmaxes' gradients
      as an (n, 2, C) array, p_t being _kl_target's teacher probabilities;
    - the teacher's half of the KL, log(max(p_t, EPS));
    - the labels as a mask;
    - the divisors (1, T) of the two student softmaxes as an (n, 2, 1) array;
    - the gradient weights (1 - w, w * T) as an (n, 2, 1) array;
    - the loss weights -(1 - w) and w * T^2 as (n, 1) columns.
    """
    mask, one_hot = tinynet._one_hot(labels, teacher_probs.shape[1])
    p_t, log_p_t = numerics._kl_target(teacher_probs)
    w, t = weights[:, None], temperatures[:, None]
    # float_power is libm's pow, as a Python float's temperature**2 is; ** on an
    # array squares, which can differ from pow in the last bit
    return (np.stack([one_hot, p_t], axis=1), log_p_t, mask,
            np.stack([np.ones_like(t), t], axis=1), np.stack([1.0 - w, w * t], axis=1),
            -(1.0 - w), w * np.float_power(t, 2))


def _kd_grad_rows(student_logits, subtrahends, _teacher_log, _mask, divisors, grad_weights,
                  *_loss_weights):
    """(q, grad) of each row: the gradient half of the distillation loss.
    The inputs after the (n, C) student logits are _kd_targets's; a stack
    of k students passes (k, n, C) logits and targets with the same
    leading axis.

    The softmax at T = 1 and the one at T run as one (n, 2, C) softmax,
    returned as q, and so do their gradients.
    """
    q = numerics._softmax(student_logits[..., None, :] / divisors)
    grads = q - subtrahends  # (p1 - onehot, p_s - p_t)
    grads *= grad_weights
    return q, grads[..., 0, :] + grads[..., 1, :]


def _kd_terms(q, subtrahends, teacher_log, mask):
    """(-ce, kl) of each row of _kd_grad_rows's q, as (..., n, 1) columns."""
    log_q = numerics._log_floor(q)
    kl = numerics._kl_rows(subtrahends[..., 1, :], teacher_log, log_q[..., 1, :])
    return log_q[..., 0, :][mask].reshape(kl.shape), kl


def _kd_loss_rows(q, subtrahends, teacher_log, mask, _divisors, _grad_weights, neg_ce_weight,
                  kl_weight):
    """The total of each row of _kd_grad_rows's q: the loss half of the
    distillation loss. -(1 - w) times -ce is (1 - w) * ce, bit for bit."""
    neg_ce, kl = _kd_terms(q, subtrahends, teacher_log, mask)
    return (neg_ce_weight * neg_ce + kl_weight * kl).ravel()


# the loss pair distill_train gives sgd_fit
_KD_LOSS = (_kd_grad_rows, _kd_loss_rows)


def kd_loss(student_logits, teacher_logits, true_class: int, temperature: float,
            weight: float) -> LossBreakdown:
    """Loss breakdown for one sample; teacher logits are constants."""
    s = numerics.as_logits(student_logits)
    t = numerics.as_logits(teacher_logits)
    if s.shape != t.shape:
        raise LengthMismatch(f"student has {s.shape[0]} logits, teacher {t.shape[0]}")
    c = int(true_class)
    if c < 0 or c >= s.shape[0]:
        raise IndexOutOfRange(f"class {c} out of range for {s.shape[0]} classes")
    temps = np.array([numerics._check_temperature(temperature)])
    weights = np.array([_check_unit("weight", weight)])
    targets = _kd_targets(numerics.softmax_rows(t[None, :], temps), np.array([c]), temps,
                          weights)
    q, _ = _kd_grad_rows(s[None, :], *targets)
    neg_ce, kl = _kd_terms(q, *targets[:3])
    return LossBreakdown(float(-neg_ce[0, 0]), float(kl[0, 0]), float(temperature),
                         float(weight), float(_kd_loss_rows(q, *targets)[0]))


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

    def to_json(self) -> str:
        """The report as JSON, with each train_loss at 12 significant digits:
        OpenBLAS kernels round the training products differently, which
        moves only a loss's last digits in every kernel tried."""
        fields = asdict(self) | {"train_loss": [float(f"{v:.12g}") for v in self.train_loss]}
        return json.dumps(fields, sort_keys=True, indent=2, allow_nan=False)


def distill_arms(teacher: tinynet.MlpModel, student: tinynet.MlpModel, arms):
    """Distill a frozen teacher into one copy of the student per arm, a
    (dataset, KdConfig) pair; returns [(student, report)] in arm order.

    The arms train in lockstep, as one stack in one sgd_fit call, so they
    must share their train config (and with it the shuffle) and their
    datasets' labels and splits; each has its own features, noise levels
    and policy. Every (student, report) equals distill_train's on that
    arm, bit for bit, and so does the error of a failing arm: that of the
    lowest-numbered one. One arm trains unstacked, as distill_train does.
    """
    datasets, cfgs = [ds for ds, _ in arms], [cfg for _, cfg in arms]
    if not arms or any(cfg.train != cfgs[0].train for cfg in cfgs):
        raise ShapeMismatch(f"arms trained in lockstep need one train config, got "
                            f"{[cfg.train for cfg in cfgs]}")
    if teacher.n_classes != student.n_classes:
        raise LengthMismatch(
            f"student has {student.n_classes} classes, teacher {teacher.n_classes}"
        )
    if len(arms) == 1:
        model, dataset = student, datasets[0]
    else:
        model = tinynet.stack_models([student] * len(arms))
        dataset = tinynet.stack_datasets(datasets)
    # the teacher never sees gradients, which makes its logits, the
    # contexts, the policy outputs and the loss targets constant across
    # epochs: the policy runs once per arm, and the targets are built once,
    # row by row, for the rows of all arms together
    rows = []  # (teacher logits, temperatures, weights) of each arm's rows
    for ds, cfg in arms:
        logits = tinynet.forward_batch(teacher, ds.features)
        rows.append((logits, *apply_policy_rows(cfg.policy, logits, ds.noise_level,
                                                ds.class_complexity[ds.labels],
                                                base_weight=cfg.t_base)))
    logits, temps, weights = (np.concatenate(parts) for parts in zip(*rows))
    targets = _kd_targets(numerics.softmax_rows(logits, temps), dataset.labels, temps, weights)
    # training holds the targets, and each arm's temperatures for its report
    temps = [t for _, t, _ in rows]
    del rows, logits, weights
    fits = tinynet.sgd_fit(model, dataset, cfgs[0].train, _KD_LOSS, targets)
    train_idx = datasets[0].indices("train")
    return [(s, DistillReport(
        seed=cfg.train.seed,
        policy=policy_descriptor(cfg.policy),
        t_base=cfg.t_base,
        train_loss=history.train_loss,
        val_accuracy=history.val_accuracy,
        temp_mean=float(t[train_idx].mean()),
        temp_min=float(t[train_idx].min()),
        temp_max=float(t[train_idx].max()),
    )) for (s, history), t, cfg in zip(fits, temps, cfgs)]


def distill_train(teacher: tinynet.MlpModel, student: tinynet.MlpModel,
                  dataset: tinynet.SyntheticDataset, cfg: KdConfig):
    """Distill a frozen teacher into the student; returns (student, report).

    Each sample gets its own (temperature, weight) from the policy, so a
    single batch can mix soft and hard targets. distill_arms with one arm.
    """
    return distill_arms(teacher, student, [(dataset, cfg)])[0]
