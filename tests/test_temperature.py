"""Tests for context extraction and the three temperature policies."""

import dataclasses
import math

import numpy as np
import pytest

from antdistill import numerics
from antdistill.errors import InvalidPolicyParameters
from antdistill.temperature import (
    ConstantPolicy,
    ContextFeatures,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    apply_policy,
    compute_context,
    POLICIES,
    policy_descriptor,
)


def ctx(noise=0.0, conf=0.5, complexity=0.0, uncertainty=0.5):
    return ContextFeatures(noise, conf, complexity, uncertainty)


class TestComputeContext:
    def test_near_onehot_teacher(self):
        c = compute_context([10.0, -10.0], 0.2, 0.5)
        assert c.teacher_confidence > 0.999999
        assert c.uncertainty < 1e-6
        assert c.noise_level == 0.2 and c.disease_complexity == 0.5

    def test_uniform_teacher(self):
        c = compute_context([0.0, 0.0, 0.0], 0.0, 0.0)
        assert abs(c.teacher_confidence - 1 / 3) < 1e-12
        assert abs(c.uncertainty - 1.0) < 1e-12

    def test_worked_logits_match_oracles(self):
        z = [2.0, 0.5, -1.0]
        e = [math.exp(v) for v in z]
        p = [x / sum(e) for x in e]
        c = compute_context(z, 0.1, 0.2)
        assert abs(c.teacher_confidence - max(p)) < 1e-9
        oracle_u = -sum(x * math.log(x) for x in p) / math.log(3)
        assert abs(c.uncertainty - oracle_u) < 1e-9

    def test_out_of_range_metadata_rejected(self):
        with pytest.raises(InvalidPolicyParameters):
            compute_context([1.0, 0.0], 1.5, 0.0)


class TestConstantPolicy:
    def test_passthrough(self):
        out = apply_policy(ConstantPolicy(temperature=3.0), ctx(), base_weight=0.4)
        assert out.temperature == 3.0 and out.distill_weight == 0.4

    def test_invalid_temperature(self):
        with pytest.raises(InvalidPolicyParameters):
            ConstantPolicy(temperature=0.0)


class TestUncertaintyLinearPolicy:
    def test_worked_example(self):
        out = apply_policy(UncertaintyLinearPolicy(scale=2.0), ctx(uncertainty=0.3))
        assert out.temperature == 1.6

    def test_scale_zero_disables(self):
        for u in (0.0, 0.4, 1.0):
            out = apply_policy(UncertaintyLinearPolicy(scale=0.0), ctx(uncertainty=u))
            assert out.temperature == 1.0

    def test_monotone_in_uncertainty(self):
        pol = UncertaintyLinearPolicy(scale=1.7)
        temps = [apply_policy(pol, ctx(uncertainty=u)).temperature for u in np.linspace(0, 1, 11)]
        assert temps[0] == 1.0
        assert all(b > a for a, b in zip(temps, temps[1:]))


class TestRuleBasedPolicy:
    def test_rule1_noisy_unconfident_raises_t(self):
        out = apply_policy(RuleBasedPolicy(), ctx(noise=0.8, conf=0.4))
        assert out.temperature == 4.0  # 2 + 2

    def test_rule2_clean_confident_lowers_t(self):
        out = apply_policy(RuleBasedPolicy(), ctx(noise=0.1, conf=0.9))
        assert out.temperature == 1.0  # 2 - 1

    def test_no_rule_fires_keeps_base(self):
        out = apply_policy(RuleBasedPolicy(), ctx(noise=0.8, conf=0.9))
        assert out.temperature == 2.0
        out = apply_policy(RuleBasedPolicy(), ctx(noise=0.1, conf=0.4))
        assert out.temperature == 2.0

    def test_rule3_raises_weight_only(self):
        pol = RuleBasedPolicy()
        low = apply_policy(pol, ctx(complexity=0.2))
        high = apply_policy(pol, ctx(complexity=0.9))
        assert low.distill_weight == 0.5
        assert abs(high.distill_weight - 0.7) < 1e-12
        assert low.temperature == high.temperature

    def test_clamping(self):
        pol = RuleBasedPolicy(base_temperature=7.5, raise_step=3.0, max_temperature=8.0,
                              min_temperature=7.0, lower_step=3.0)
        assert apply_policy(pol, ctx(noise=1.0, conf=0.0)).temperature == 8.0
        assert apply_policy(pol, ctx(noise=0.0, conf=1.0)).temperature == 7.0
        pol = RuleBasedPolicy(base_weight=0.85, weight_step=0.3, max_weight=0.9)
        assert apply_policy(pol, ctx(complexity=1.0)).distill_weight == 0.9

    def test_rules_1_and_2_exclusive_and_monotone(self):
        pol = RuleBasedPolicy()
        rng = np.random.default_rng(0)
        for _ in range(500):
            c = ctx(noise=float(rng.random()), conf=float(rng.random()))
            rule1 = c.noise_level >= pol.noise_threshold and c.teacher_confidence <= pol.confidence_threshold
            rule2 = c.noise_level < pol.noise_threshold and c.teacher_confidence > pol.confidence_threshold
            assert not (rule1 and rule2)
            t = apply_policy(pol, c).temperature
            if rule1:
                assert t >= pol.base_temperature
            elif rule2:
                assert t <= pol.base_temperature
            else:
                assert t == pol.base_temperature

    def test_pure_and_deterministic(self):
        pol = RuleBasedPolicy()
        c = ctx(noise=0.6, conf=0.6, complexity=0.7)
        assert apply_policy(pol, c) == apply_policy(pol, c)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidPolicyParameters):
            RuleBasedPolicy(min_temperature=3.0, base_temperature=2.0)
        with pytest.raises(InvalidPolicyParameters):
            RuleBasedPolicy(base_weight=0.95, max_weight=0.9)
        with pytest.raises(InvalidPolicyParameters):
            RuleBasedPolicy(noise_threshold=1.2)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in POLICIES.values()
                                       for f in dataclasses.fields(cls)])
def test_non_finite_parameters_rejected(cls, name, value):
    with pytest.raises(InvalidPolicyParameters):
        cls(**{name: value})


class TestDescriptors:
    def test_roundtrippable_names(self):
        assert policy_descriptor(ConstantPolicy(2.0))["variant"] == "constant"
        assert policy_descriptor(UncertaintyLinearPolicy(1.0))["variant"] == "uncertainty_linear"
        d = policy_descriptor(RuleBasedPolicy())
        assert d["variant"] == "rule_based" and d["base_temperature"] == 2.0
        assert d == {"variant": "rule_based", **dataclasses.asdict(RuleBasedPolicy())}

    @pytest.mark.parametrize("cls", POLICIES.values())
    def test_each_class_is_the_policy_of_its_variant(self, cls):
        assert POLICIES[cls.variant] is cls
        assert "variant" not in {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize("policy", [
        ConstantPolicy(3.5), UncertaintyLinearPolicy(0.25),
        RuleBasedPolicy(base_temperature=3.0, raise_step=0.5, min_temperature=1.5,
                        noise_threshold=0.25, base_weight=0.1, max_weight=0.6)])
    def test_descriptor_rebuilds_its_policy(self, policy):
        d = policy_descriptor(policy)
        assert POLICIES[d.pop("variant")](**d) == policy
