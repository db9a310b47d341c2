"""The batched kernels against their validated 1-D references.

Training calls only the batch forms: `numerics.softmax_rows`,
`tinynet.cross_entropy_rows`, `distill.kd_loss_rows` and
`temperature.apply_policy_rows`. Evaluation validates a probability
matrix in one pass and sweeps it once for both micro curves
(`metrics.micro_curves`). Each must equal its scalar reference row by
row, bit for bit, and raise the error the reference raises, so that
outputs do not depend on which form computed them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from antdistill import metrics, numerics, tinynet
from antdistill.distill import kd_loss, kd_loss_grad, kd_loss_rows
from antdistill.errors import InvalidPolicyParameters, InvalidShape, NonFiniteInput
from antdistill.temperature import (
    ConstantPolicy,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    apply_policy,
    apply_policy_rows,
    compute_context,
)

LOGITS = st.floats(-60.0, 60.0, allow_nan=False)
TEMPERATURES = st.floats(0.05, 50.0)
UNIT = st.floats(0.0, 1.0)
# noise levels, complexities and rule thresholds: values likely to tie
# (1/2 is also the teacher confidence of two equal logits)
CONTEXT_VALUES = st.sampled_from([0.0, 0.5, 0.6, 1.0]) | UNIT


@st.composite
def batches(draw, max_rows=24, max_classes=12):
    """(logits, second logits, labels, temperatures, weights) of one batch."""
    n = draw(st.integers(1, max_rows))
    c = draw(st.integers(2, max_classes))
    return (
        draw(hnp.arrays(np.float64, (n, c), elements=LOGITS)),
        draw(hnp.arrays(np.float64, (n, c), elements=LOGITS)),
        draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1))),
        draw(hnp.arrays(np.float64, n, elements=TEMPERATURES)),
        draw(hnp.arrays(np.float64, n, elements=UNIT)),
    )


class TestSoftmaxRows:
    @settings(max_examples=200, deadline=None)
    @given(batch=batches(), scalar=TEMPERATURES)
    def test_rows_equal_stable_softmax(self, batch, scalar):
        z, _, _, temps, _ = batch
        per_row = numerics.softmax_rows(z, temps)
        shared = numerics.softmax_rows(z, scalar)
        for i in range(z.shape[0]):
            assert np.array_equal(per_row[i], numerics.stable_softmax(z[i], temps[i]))
            assert np.array_equal(shared[i], numerics.stable_softmax(z[i], scalar))

    def test_default_temperature_is_one(self):
        z = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(numerics.softmax_rows(z), numerics.softmax_rows(z, 1.0))


class TestCrossEntropyRows:
    @settings(max_examples=200, deadline=None)
    @given(batch=batches())
    def test_rows_equal_cross_entropy_and_its_gradient(self, batch):
        z, _, labels, _, _ = batch
        losses, grad = tinynet.cross_entropy_rows(z, labels)
        for i in range(z.shape[0]):
            p = numerics.stable_softmax(z[i], 1.0)
            onehot = np.zeros(z.shape[1])
            onehot[labels[i]] = 1.0
            assert losses[i] == numerics.cross_entropy(int(labels[i]), p)
            assert np.array_equal(grad[i], p - onehot)


class TestKdLossRows:
    @settings(max_examples=300, deadline=None)
    @given(batch=batches())
    def test_rows_equal_kd_loss_and_kd_loss_grad(self, batch):
        z, teacher, labels, temps, weights = batch
        losses, grad = kd_loss_rows(
            z, numerics.softmax_rows(teacher, temps), labels, temps, weights
        )
        for i in range(z.shape[0]):
            args = (z[i], teacher[i], int(labels[i]), temps[i], weights[i])
            assert losses[i] == kd_loss(*args).total
            assert np.array_equal(grad[i], kd_loss_grad(*args))

    def test_temperature_is_squared_as_the_scalar_reference_squares_it(self):
        # ** on an array squares (t * t), while the scalar temperature**2 is
        # libm's pow: for some t the two differ in the last bit. Take such t.
        rng = np.random.default_rng(0)
        temps = rng.uniform(0.05, 50.0, 20000)
        temps = temps[temps**2 != np.array([t**2 for t in temps.tolist()])]
        n = temps.size
        z, teacher = rng.normal(size=(2, n, 4)) * 3
        labels = rng.integers(0, 4, n)
        weights = np.ones(n)  # the KL term alone, so no CE term can absorb a last bit
        losses, _ = kd_loss_rows(z, numerics.softmax_rows(teacher, temps), labels, temps,
                                 weights)
        for i in range(n):
            assert losses[i] == kd_loss(z[i], teacher[i], labels[i], temps[i], 1.0).total

    def test_weight_zero_rows_are_cross_entropy_rows(self):
        rng = np.random.default_rng(3)
        z, teacher = rng.normal(size=(2, 16, 5)) * 4
        labels = rng.integers(0, 5, 16)
        ones = np.ones(16)
        kd = kd_loss_rows(z, numerics.softmax_rows(teacher), labels, ones, np.zeros(16))
        ce = tinynet.cross_entropy_rows(z, labels)
        assert np.array_equal(kd[0], ce[0]) and np.array_equal(kd[1], ce[1])


def policies():
    """Every policy variant, with parameters drawn across their valid ranges."""
    constant = st.builds(ConstantPolicy, TEMPERATURES)
    linear = st.builds(UncertaintyLinearPolicy, st.floats(0.0, 10.0))

    @st.composite
    def rule_based(draw):
        lo, base, hi = sorted(draw(st.lists(TEMPERATURES, min_size=3, max_size=3)))
        w0, w1 = sorted(draw(st.lists(UNIT, min_size=2, max_size=2)))
        return RuleBasedPolicy(
            base_temperature=base, raise_step=draw(st.floats(0.0, 10.0)),
            lower_step=draw(st.floats(0.0, 10.0)), min_temperature=lo, max_temperature=hi,
            noise_threshold=draw(CONTEXT_VALUES), confidence_threshold=draw(CONTEXT_VALUES),
            complexity_threshold=draw(CONTEXT_VALUES), base_weight=w0,
            weight_step=draw(st.floats(0.0, 1.0)), max_weight=w1,
        )

    return {"constant": constant, "uncertainty_linear": linear, "rule_based": rule_based()}


POLICIES = policies()


class TestApplyPolicyRows:
    @pytest.mark.parametrize("variant", sorted(POLICIES))
    def test_rows_equal_compute_context_then_apply_policy(self, variant):
        @settings(max_examples=300, deadline=None)
        @given(policy=POLICIES[variant], batch=batches(max_classes=6),
               data=st.data(), base_weight=UNIT)
        def check(policy, batch, data, base_weight):
            z = np.round(batch[0] / 10.0)  # teacher confidences across [1/C, 1], ties too
            n = z.shape[0]
            noise = data.draw(hnp.arrays(np.float64, n, elements=CONTEXT_VALUES))
            complexity = data.draw(hnp.arrays(np.float64, n, elements=CONTEXT_VALUES))
            temps, weights = apply_policy_rows(policy, z, noise, complexity, base_weight)
            for i in range(n):
                out = apply_policy(policy, compute_context(z[i], noise[i], complexity[i]),
                                   base_weight=base_weight)
                assert temps[i] == out.temperature
                assert weights[i] == out.distill_weight

        check()

    @pytest.mark.parametrize("policy", [ConstantPolicy(), UncertaintyLinearPolicy(),
                                        RuleBasedPolicy()])
    @pytest.mark.parametrize("noise, complexity, base_weight", [
        (1.5, 0.2, 0.5), (-0.1, 0.2, 0.5), (np.nan, 0.2, 0.5),
        (0.2, 1.5, 0.5), (0.2, -0.5, 0.5), (0.2, 0.2, 1.2), (0.2, 0.2, -0.2),
    ])
    def test_out_of_range_context_is_rejected_for_every_policy(
            self, policy, noise, complexity, base_weight):
        z = np.zeros((3, 4))
        with pytest.raises(InvalidPolicyParameters):
            apply_policy_rows(policy, z, np.array([0.0, noise, 0.0]),
                              np.array([0.0, 0.0, complexity]), base_weight)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_teacher_logits(self, bad):
        z = np.zeros((3, 4))
        z[2, 1] = bad
        with pytest.raises(NonFiniteInput):
            apply_policy_rows(ConstantPolicy(), z, np.zeros(3), np.zeros(3))

    def test_shapes_must_align(self):
        with pytest.raises(InvalidShape):
            apply_policy_rows(ConstantPolicy(), np.zeros((3, 4)), np.zeros(2), np.zeros(3))
        with pytest.raises(InvalidShape):
            apply_policy_rows(ConstantPolicy(), np.zeros((3, 1)), np.zeros(3), np.zeros(3))



TOL = 1e-6  # the as_distribution tolerance
# how a row of a probability matrix is made: valid, its sum moved a few ulp
# either side of 1 - TOL or 1 + TOL, or one entry non-finite or just outside
# [-TOL, 1 + TOL]
ROW_KINDS = ["valid", "sum_low", "sum_high", "nan", "inf", "-inf", "past_low", "past_high"]


def _ulps(x, k):
    """x moved k ulp (k may be negative)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


@st.composite
def probability_matrices(draw, kinds=ROW_KINDS, min_classes=0):
    """Softmax rows, some remade as one of `kinds`, laid out C, F or strided.

    Coarse logits repeat, so scores tie within and across rows.
    """
    n = draw(st.integers(2, 10))
    c = draw(st.integers(min_classes, 12))
    z = draw(hnp.arrays(np.float64, (n, c), elements=LOGITS))
    z = np.round(z / 20.0) if draw(st.booleans()) else z / 10.0
    p = numerics.softmax_rows(z) if c else z
    for i in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "valid" or c == 0:
            continue
        j = draw(st.integers(0, c - 1))
        k = draw(st.integers(-4, 4))
        if kind.startswith("sum"):
            target = _ulps(1.0 - TOL if kind == "sum_low" else 1.0 + TOL, k)
            p[i, j] += target - p[i].sum()
        elif kind == "past_low" and c > 1:  # the other entries bring the sum back to 1
            p[i, j] = _ulps(-TOL, -abs(k) - 1)
            p[i, j - 1] += 1.0 - p[i].sum()
        elif kind == "past_high" and c > 1:  # one entry at -TOL brings the sum back to 1
            p[i] = 0.0
            p[i, j] = _ulps(1.0 + TOL, abs(k) + 1)
            p[i, j - 1] = -TOL
        elif kind in ("nan", "inf", "-inf"):
            p[i, j] = float(kind)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(p)
    if layout == "strided":
        big = np.zeros((2 * n, 2 * c + 1))
        big[::2, 1::2] = p
        return big[::2, 1::2]
    return p


def _validate_row_by_row(p):
    """The reference: as_distribution on each row, as the loop did."""
    for row in np.asarray(p, dtype=np.float64):
        numerics.as_distribution(row)


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestOnePassValidation:
    @settings(max_examples=500, deadline=None)
    @given(p=probability_matrices() | probability_matrices(["valid", "sum_low", "sum_high"]))
    def test_same_verdict_and_error_as_row_by_row(self, p):
        labels = np.zeros(p.shape[0], dtype=np.int64)
        want = _outcome(_validate_row_by_row, p)
        assert _outcome(metrics.micro_curves, p, labels) == want

    def test_fortran_order_rows_sum_as_row_by_row(self):
        # sum(axis=1) on a Fortran matrix with >= 8 columns adds in another
        # order than a row's own sum(); take rows right at 1 + TOL
        rng = np.random.default_rng(11)
        p = numerics.softmax_rows(rng.normal(size=(4000, 10)))
        p[:, -1] += (1.0 + TOL) - p.sum(axis=1)
        f = np.asfortranarray(p)
        assert np.any(f.sum(axis=1) != np.array([row.sum() for row in f]))
        labels = np.zeros(p.shape[0], dtype=np.int64)
        assert _outcome(metrics.micro_curves, f, labels) == _outcome(_validate_row_by_row, f)


class TestMicroCurves:
    @settings(max_examples=300, deadline=None)
    @given(p=probability_matrices(["valid"], min_classes=2), data=st.data())
    def test_equal_to_binary_curves_on_the_flattened_pairs(self, p, data):
        n, c = p.shape
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
        hits = np.zeros((n, c), dtype=bool)
        hits[np.arange(n), labels] = True
        scores = np.asarray(p, dtype=np.float64).ravel()
        ref_roc = metrics.roc_auc_binary(scores, hits.ravel())
        ref_pr = metrics.pr_average_precision_binary(scores, hits.ravel())
        roc, pr = metrics.micro_curves(p, labels)
        for got in (roc, metrics.roc_auc_micro(p, labels)):
            assert got.auc == ref_roc.auc
            assert np.array_equal(got.fpr, ref_roc.fpr)
            assert np.array_equal(got.tpr, ref_roc.tpr)
        for got in (pr, metrics.pr_average_precision_micro(p, labels)):
            assert got.average_precision == ref_pr.average_precision
            assert np.array_equal(got.recall, ref_pr.recall)
            assert np.array_equal(got.precision, ref_pr.precision)
