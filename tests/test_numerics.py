"""Tests for the probability kernels.

Expected values were either derived by hand, frozen from a 50-digit
mpmath evaluation of exp/sum(exp), or recomputed inline with an
independent plain-Python oracle (math.exp / math.log loops, no shared
code with the implementation under test).
"""

import math

import numpy as np
import pytest

import scalar_reference as ref
from antdistill import numerics, tinynet
from antdistill.errors import (
    InvalidDistribution,
    InvalidShape,
    NonFiniteInput,
    NonPositiveTemperature,
)

# softmax([2.0, 0.5, -1.0], T=2), frozen from mpmath at 50 digits
SOFTMAX_T2 = [0.589797663657, 0.278600689196, 0.131601647147]
# softmax([2.0, 0.5, -1.0], T=1.6), same oracle
SOFTMAX_T16 = [0.647265699975, 0.253472890065, 0.099261409960]


def naive_softmax(z, t):
    """Independent oracle: direct exp/sum, no max-subtraction."""
    e = [math.exp(v / t) for v in z]
    s = sum(e)
    return [x / s for x in e]


def naive_entropy(p):
    return -sum(x * math.log(x) for x in p if x > 0.0)


def kl_divergence(p, q) -> float:
    """KL(p || q) by the kernels the distillation loss half runs."""
    p, q = np.asarray([p], dtype=np.float64), np.asarray([q], dtype=np.float64)
    return float(numerics._kl_rows(*numerics._kl_target(p), numerics._log_floor(q))[0, 0])


def cross_entropy(true_class, logits) -> float:
    """Cross-entropy of softmax(logits) at true_class, by both halves of the
    supervised loss pair."""
    grad_rows, loss_rows = tinynet._CROSS_ENTROPY
    targets = tinynet._one_hot(np.array([true_class]), len(logits))
    p, _ = grad_rows(np.asarray([logits], dtype=np.float64), *targets)
    return float(loss_rows(p, *targets)[0])


def normalized_entropy(p) -> float:
    return float(numerics.normalized_entropy_rows(np.asarray([p], dtype=np.float64))[0])


class TestStableSoftmax:
    def test_worked_logits_at_t2(self):
        p = numerics.stable_softmax([2.0, 0.5, -1.0], 2.0)
        np.testing.assert_allclose(p, SOFTMAX_T2, atol=1e-9)
        # spec-level check against the same quantity rounded elsewhere
        np.testing.assert_allclose(p, [0.58975, 0.27866, 0.13159], atol=1e-4)

    def test_worked_logits_at_t16(self):
        p = numerics.stable_softmax([2.0, 0.5, -1.0], 1.6)
        np.testing.assert_allclose(p, SOFTMAX_T16, atol=1e-9)

    def test_constant_logits_are_uniform(self):
        for c in (-7.0, 0.0, 3.5):
            p = numerics.stable_softmax([c, c, c], 0.7)
            np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.uniform(-8, 8, size=rng.integers(2, 9))
            t = float(rng.uniform(0.1, 10))
            np.testing.assert_allclose(
                numerics.stable_softmax(z, t), naive_softmax(z, t), atol=1e-12
            )

    def test_output_is_distribution(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            z = rng.uniform(-50, 50, size=rng.integers(2, 12))
            t = float(rng.uniform(1e-2, 1e3))
            p = numerics.stable_softmax(z, t)
            assert np.all(p >= 0) and np.all(p <= 1)
            assert abs(p.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_argmax_invariance(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            z = rng.uniform(-10, 10, size=rng.integers(2, 10))
            for t in (0.1, 0.5, 1.0, 2.0, 8.0, 100.0):
                assert np.argmax(numerics.stable_softmax(z, t)) == np.argmax(z)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            z = rng.uniform(-10, 10, size=5)
            c = float(rng.uniform(-1e3, 1e3))
            base = numerics.stable_softmax(z, 1.3)
            shifted = numerics.stable_softmax(z + c, 1.3)
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entropy_monotone_in_temperature(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            z = rng.uniform(-10, 10, size=6)
            temps = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
            ents = [normalized_entropy(numerics.stable_softmax(z, t)) for t in temps]
            assert all(b >= a - 1e-12 for a, b in zip(ents, ents[1:]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_high_temperature_limit_is_uniform(self, seed):
        rng = np.random.default_rng(seed)
        for c in (2, 5, 10):
            z = rng.uniform(-10, 10, size=c)
            p = numerics.stable_softmax(z, 1e6)
            assert np.max(np.abs(p - 1.0 / c)) < 1e-3

    def test_errors(self):
        with pytest.raises(NonPositiveTemperature):
            numerics.stable_softmax([1.0, 2.0], 0.0)
        with pytest.raises(NonPositiveTemperature):
            numerics.stable_softmax([1.0, 2.0], -3.0)
        with pytest.raises(NonFiniteInput):
            numerics.stable_softmax([1.0, np.nan], 1.0)
        with pytest.raises(NonFiniteInput):
            numerics.stable_softmax([1.0, np.inf], 1.0)
        with pytest.raises(InvalidShape):
            numerics.stable_softmax([1.0], 1.0)


class TestAsDistribution:
    @pytest.mark.parametrize("p, error", [
        ([0.5], InvalidShape),
        ([[0.5, 0.5]], InvalidShape),
        ([0.5, 0.6], InvalidDistribution),
        ([0.7, 0.7], InvalidDistribution),
        ([1.2, -0.2], InvalidDistribution),
        ([np.nan, 1.0], InvalidDistribution),
    ])
    def test_errors(self, p, error):
        with pytest.raises(error):
            numerics.as_distribution(p)

    def test_bad_sum_is_printed_as_a_plain_float(self):
        with pytest.raises(InvalidDistribution) as info:
            numerics.as_distribution([0.5, 0.6])
        assert "np.float64(" not in str(info.value)
        assert str(info.value) == "distribution sums to 1.1, not 1"


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_onehot_vs_uniform(self):
        assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-6

    def test_matches_direct_sum_oracle(self):
        p = [0.59, 0.28, 0.13]
        q = [0.33, 0.33, 0.34]
        oracle = sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        got = kl_divergence(p, q)
        assert got > 0
        assert abs(got - oracle) < 1e-9

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            c = rng.integers(2, 10)
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) < 1e-12

    @pytest.mark.parametrize("p, q", [
        ([0.5, 0.5], [0.5, 0.5]),
        ([1.0, 0.0], [0.5, 0.5]),
        ([0.5, 0.5], [1.0, 0.0]),  # a zero q is floored at EPS
        ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
        ([0.0, 1.0], [0.0, 1.0]),
        ([0.59, 0.28, 0.13], [0.33, 0.33, 0.34]),
    ])
    def test_edge_pairs_equal_the_reference(self, p, q):
        got = kl_divergence(p, q)
        assert got == ref.kl_divergence(p, q)
        assert got >= 0.0


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        eps = 1e-9
        assert cross_entropy(0, np.log([1.0 - eps, eps])) < 1e-8

    def test_onehot_uniform(self):
        assert abs(cross_entropy(1, [0.0, 0.0]) - math.log(2)) < 1e-12

    @pytest.mark.parametrize("true_class, logits", [
        (1, [0.0, 0.0]),
        (1, [1000.0, -1000.0]),  # the class's probability is 0, floored at EPS
        (0, [1000.0, -1000.0]),
        (2, [2.0, 0.5, -1.0]),
        (0, [-30.0, 30.0, 0.0]),
    ])
    def test_edge_logits_equal_the_reference(self, true_class, logits):
        want = ref.cross_entropy(true_class, ref.stable_softmax(logits, 1.0))
        assert cross_entropy(true_class, logits) == want
        assert 0.0 <= want <= -math.log(numerics.EPS)


class TestNormalizedEntropy:
    def test_onehot_is_zero(self):
        # +0.0, though the negated sum of zero terms is -0.0
        rows = numerics.normalized_entropy_rows(np.eye(3))
        assert np.all(rows == 0.0) and not np.any(np.signbit(rows))

    def test_uniform_is_one(self):
        for c in (2, 3, 7):
            assert abs(normalized_entropy(np.full(c, 1.0 / c)) - 1.0) < 1e-12

    def test_matches_direct_sum_oracle(self):
        p = [0.59, 0.28, 0.13]
        oracle = naive_entropy(p) / math.log(3)
        assert abs(normalized_entropy(p) - oracle) < 1e-9

    @pytest.mark.parametrize("p", [
        [1.0, 0.0, 0.0],
        [0.5, 0.5],
        [1 / 3, 1 / 3, 1 / 3],
        [1 / 7] * 7,
        [0.5, 0.5, 0.0],
        [1.0 - 1e-15, 1e-15],
        [0.59, 0.28, 0.13],
    ])
    def test_edge_rows_equal_the_reference(self, p):
        got = normalized_entropy(p)
        assert got == ref.normalized_entropy(p)
        assert 0.0 <= got <= 1.0
