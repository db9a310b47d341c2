"""Per-sample temperature and distillation-weight policies.

Three interchangeable policies map sample context (noise level, teacher
confidence, class complexity, prediction uncertainty) to the softmax
temperature T and the distillation weight w used by the loss:

  constant            fixed T, weight taken from the run config
  uncertainty_linear  T = 1 + scale * uncertainty
  rule_based          threshold rules: raise T on noisy/low-confidence
                      samples, lower it on clean/confident ones, raise
                      the weight on complex classes

The rule steps are additive and clamped to [min_temperature,
max_temperature] / [0, max_weight], so outputs are always bounded.
compute_context and apply_policy evaluate one sample; apply_policy_rows
evaluates a whole dataset at once, through the same policy step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics
from .errors import InvalidPolicyParameters, InvalidShape, NonFiniteInput


def _check_unit(name: str, value: float) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise InvalidPolicyParameters(f"{name} must lie in [0, 1], got {value!r}")
    return v


def _check_finite(params, error: type[ValueError]) -> None:
    """Raise `error` naming the first field of dataclass `params` that is not finite."""
    for name, value in asdict(params).items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ContextFeatures:
    """All fields live in [0, 1]; uncertainty is 0 iff the teacher is one-hot."""

    noise_level: float
    teacher_confidence: float
    disease_complexity: float
    uncertainty: float

    def __post_init__(self):
        for name in ("noise_level", "teacher_confidence", "disease_complexity", "uncertainty"):
            _check_unit(name, getattr(self, name))


@dataclass(frozen=True)
class PolicyOutput:
    temperature: float
    distill_weight: float


@dataclass(frozen=True)
class ConstantPolicy:
    temperature: float = 2.0

    def __post_init__(self):
        if not self.temperature > 0.0:
            raise InvalidPolicyParameters(f"temperature must be > 0, got {self.temperature!r}")
        _check_finite(self, InvalidPolicyParameters)


@dataclass(frozen=True)
class UncertaintyLinearPolicy:
    """T = 1 + scale * uncertainty; scale 0 disables the adjustment."""

    scale: float = 2.0

    def __post_init__(self):
        if not self.scale >= 0.0:
            raise InvalidPolicyParameters(f"scale must be >= 0, got {self.scale!r}")
        _check_finite(self, InvalidPolicyParameters)


@dataclass(frozen=True)
class RuleBasedPolicy:
    base_temperature: float = 2.0
    raise_step: float = 2.0
    lower_step: float = 1.0
    min_temperature: float = 1.0
    max_temperature: float = 8.0
    noise_threshold: float = 0.5
    confidence_threshold: float = 0.7
    complexity_threshold: float = 0.6
    base_weight: float = 0.5
    weight_step: float = 0.2
    max_weight: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.min_temperature <= self.base_temperature <= self.max_temperature:
            raise InvalidPolicyParameters(
                "need 0 < min_temperature <= base_temperature <= max_temperature"
            )
        if self.raise_step < 0 or self.lower_step < 0 or self.weight_step < 0:
            raise InvalidPolicyParameters("rule steps must be >= 0")
        for name in ("noise_threshold", "confidence_threshold", "complexity_threshold"):
            _check_unit(name, getattr(self, name))
        if not 0.0 <= self.base_weight <= self.max_weight <= 1.0:
            raise InvalidPolicyParameters("need 0 <= base_weight <= max_weight <= 1")
        _check_finite(self, InvalidPolicyParameters)


TemperaturePolicy = ConstantPolicy | UncertaintyLinearPolicy | RuleBasedPolicy

# the [policy] variant name of each policy; a variant's keys are its class's fields
POLICIES = {
    "constant": ConstantPolicy,
    "uncertainty_linear": UncertaintyLinearPolicy,
    "rule_based": RuleBasedPolicy,
}


def compute_context(teacher_logits, sample_noise: float, sample_class_complexity: float
                    ) -> ContextFeatures:
    """Context from the teacher's unscaled prediction plus sample metadata."""
    probs = numerics.stable_softmax(teacher_logits, 1.0)
    return ContextFeatures(
        noise_level=float(sample_noise),
        teacher_confidence=float(probs.max()),
        disease_complexity=float(sample_class_complexity),
        uncertainty=numerics.normalized_entropy(probs),
    )


def _policy_rows(policy: TemperaturePolicy, confidence, uncertainty, noise, complexity,
                 base_weight) -> tuple[np.ndarray, np.ndarray]:
    """(temperatures, weights) for n contexts, given as arrays of n values."""
    n = confidence.shape[0]
    run_weight = np.full(n, float(base_weight))
    if isinstance(policy, ConstantPolicy):
        return np.full(n, float(policy.temperature)), run_weight
    if isinstance(policy, UncertaintyLinearPolicy):
        return 1.0 + policy.scale * uncertainty, run_weight
    if isinstance(policy, RuleBasedPolicy):
        noisy = noise >= policy.noise_threshold
        confident = confidence > policy.confidence_threshold
        raised = min(policy.max_temperature, policy.base_temperature + policy.raise_step)
        lowered = max(policy.min_temperature, policy.base_temperature - policy.lower_step)
        t = np.where(noisy & ~confident, raised,
                     np.where(~noisy & confident, lowered, policy.base_temperature))
        w = np.where(complexity >= policy.complexity_threshold,
                     min(policy.max_weight, policy.base_weight + policy.weight_step),
                     policy.base_weight)
        return t.astype(np.float64), w.astype(np.float64)
    raise InvalidPolicyParameters(f"unknown policy type {type(policy).__name__}")


def apply_policy(policy: TemperaturePolicy, ctx: ContextFeatures,
                 base_weight: float = 0.5) -> PolicyOutput:
    """Evaluate a policy on one sample's context.

    base_weight is the run-level distillation weight; it is what the
    constant and uncertainty_linear policies emit, while the rule_based
    policy manages its own weight (rule 3).
    """
    _check_unit("base_weight", base_weight)
    confidence, uncertainty, noise, complexity = np.array(
        [[ctx.teacher_confidence], [ctx.uncertainty], [ctx.noise_level], [ctx.disease_complexity]])
    t, w = _policy_rows(policy, confidence, uncertainty, noise, complexity, base_weight)
    return PolicyOutput(float(t[0]), float(w[0]))


def apply_policy_rows(policy: TemperaturePolicy, teacher_logits, noise_level, class_complexity,
                      base_weight: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """(temperatures, weights) of n samples at once.

    Row i equals apply_policy(policy, compute_context(teacher_logits[i],
    noise_level[i], class_complexity[i]), base_weight) bit for bit, and
    the inputs are checked as those calls check them, once for all rows.
    """
    z = np.asarray(teacher_logits, dtype=np.float64)
    noise = np.asarray(noise_level, dtype=np.float64)
    complexity = np.asarray(class_complexity, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2 or not noise.shape == complexity.shape == z.shape[:1]:
        raise InvalidShape(
            f"need (n, C >= 2) logits and n noise levels and complexities, got "
            f"{z.shape}, {noise.shape}, {complexity.shape}"
        )
    if not np.all(np.isfinite(z)):
        raise NonFiniteInput("teacher logits contain NaN or Inf")
    for name, values in (("noise_level", noise), ("class complexity", complexity)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise InvalidPolicyParameters(f"{name} must lie in [0, 1]")
    _check_unit("base_weight", base_weight)
    probs = numerics.softmax_rows(z)
    return _policy_rows(policy, probs.max(axis=1), numerics.normalized_entropy_rows(probs),
                        noise, complexity, base_weight)


def policy_descriptor(policy: TemperaturePolicy) -> dict:
    """JSON-friendly name + parameters, used in run reports."""
    for variant, cls in POLICIES.items():
        if isinstance(policy, cls):
            return {"variant": variant, **asdict(policy)}
    raise InvalidPolicyParameters(f"unknown policy type {type(policy).__name__}")
