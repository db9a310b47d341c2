"""The batched kernels and the one-sample functions against independent
references.

Training calls only the batch forms: `numerics.softmax_rows`, the
cross-entropy kernel `tinynet._cross_entropy_rows`, the
distillation kernel on the per-row targets `distill._kd_targets` builds,
and `temperature.apply_policy_rows`. The public one-sample functions
validate their input and call the same kernels on a batch of one.
`scalar_reference` keeps an independent one-sample implementation of
each; every batch row and every one-sample call must equal it bit for
bit, and raise the error it raises. Evaluation validates a probability
matrix in one pass and sweeps it once for both micro curves
(`metrics.micro_curves`), which must equal the row-by-row checks and the
curves of the reference stable-sort sweep over the flattened pairs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scalar_reference as ref
from antdistill import metrics, numerics, tinynet
from antdistill.distill import _kd_loss_rows, _kd_targets, kd_loss, kd_loss_grad
from antdistill.errors import (
    IndexOutOfRange,
    InvalidPolicyParameters,
    InvalidShape,
    NonFiniteInput,
)
from antdistill.temperature import (
    ConstantPolicy,
    ContextFeatures,
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
        # small temperatures make one-hot rows, whose entropy is exactly 0
        z, _, _, temps, _ = batch
        per_row = numerics.softmax_rows(z, temps)
        shared = numerics.softmax_rows(z, scalar)
        entropy = numerics.normalized_entropy_rows(per_row)
        for i in range(z.shape[0]):
            for rows, t in ((per_row, temps[i]), (shared, scalar)):
                want = ref.stable_softmax(z[i], t)
                assert np.array_equal(rows[i], want)
                assert np.array_equal(numerics.stable_softmax(z[i], t), want)
            want = ref.normalized_entropy(per_row[i])
            assert entropy[i] == want
            assert numerics.normalized_entropy(per_row[i]) == want

    def test_default_temperature_is_one(self):
        z = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(numerics.softmax_rows(z), numerics.softmax_rows(z, 1.0))


def cross_entropy_rows(logits, labels):
    """The cross-entropy kernel on targets built as train_supervised builds them."""
    return tinynet._cross_entropy_rows(logits, *tinynet._one_hot(labels, logits.shape[1]))


class TestCrossEntropyRows:
    @settings(max_examples=200, deadline=None)
    @given(batch=batches())
    def test_rows_equal_cross_entropy_and_its_gradient(self, batch):
        z, _, labels, _, _ = batch
        losses, grad = cross_entropy_rows(z, labels)
        for i in range(z.shape[0]):
            p = ref.stable_softmax(z[i], 1.0)
            onehot = np.zeros(z.shape[1])
            onehot[labels[i]] = 1.0
            assert losses[i] == numerics.cross_entropy(int(labels[i]), p)
            assert np.array_equal(grad[i], p - onehot)


def kd_loss_rows(student_logits, teacher_probs, labels, temperatures, weights):
    """The distillation kernel on targets built as distill_train builds them."""
    return _kd_loss_rows(student_logits,
                         *_kd_targets(teacher_probs, labels, temperatures, weights))


class TestKdLossRows:
    @settings(max_examples=300, deadline=None)
    @given(batch=batches())
    def test_rows_equal_kd_loss_and_kd_loss_grad(self, batch):
        z, teacher, labels, temps, weights = batch
        pt, ps = numerics.softmax_rows(teacher, temps), numerics.softmax_rows(z, temps)
        losses, grad = kd_loss_rows(z, pt, labels, temps, weights)
        kl = numerics._kl_rows(*numerics._kl_target(pt), numerics._log_floor(ps))[:, 0]
        for i in range(z.shape[0]):
            args = (z[i], teacher[i], int(labels[i]), temps[i], weights[i])
            want = ref.kd_loss(*args)
            assert losses[i] == want.total
            assert kd_loss(*args) == want
            want_grad = ref.kd_loss_grad(*args)
            assert np.array_equal(grad[i], want_grad)
            assert np.array_equal(kd_loss_grad(*args), want_grad)
            want_kl = ref.kl_divergence(pt[i], ps[i])
            assert kl[i] == want_kl
            assert numerics.kl_divergence(pt[i], ps[i]) == want_kl

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
            args = (z[i], teacher[i], labels[i], temps[i], 1.0)
            want = ref.kd_loss(*args).total
            assert losses[i] == want
            assert kd_loss(*args).total == want

    def test_weight_zero_rows_are_cross_entropy_rows(self):
        rng = np.random.default_rng(3)
        z, teacher = rng.normal(size=(2, 16, 5)) * 4
        labels = rng.integers(0, 5, 16)
        ones = np.ones(16)
        kd = kd_loss_rows(z, numerics.softmax_rows(teacher), labels, ones, np.zeros(16))
        ce = cross_entropy_rows(z, labels)
        assert np.array_equal(kd[0], ce[0]) and np.array_equal(kd[1], ce[1])


# logit scales that, with small temperatures, drive softmax entries to exactly 0
LOGIT_SCALES = st.sampled_from([1.0, 10.0, 60.0, 300.0])


@st.composite
def extreme_batches(draw):
    """(student logits, teacher logits, labels, temperatures, weights) of one
    batch with up to 39 rows and 11 classes, logit scales up to 300, and
    weights of exactly 0 and 1 among the drawn ones."""
    n = draw(st.integers(1, 39))
    c = draw(st.integers(2, 11))
    unit = st.floats(-1.0, 1.0)
    return (
        draw(hnp.arrays(np.float64, (n, c), elements=unit)) * draw(LOGIT_SCALES),
        draw(hnp.arrays(np.float64, (n, c), elements=unit)) * draw(LOGIT_SCALES),
        draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1))),
        draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 8.0))),
        draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0]) | UNIT)),
    )


def bits(arrays):
    """dtype, shape and bytes of each array: tobytes() tells -0.0 from 0.0."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestTrainingKernels:
    """The loss kernels sgd_fit calls, on the targets that train_supervised
    and distill_train build, equal the reference loop's kernels bit for bit,
    sign bits included."""

    @settings(max_examples=500, deadline=None)
    @given(batch=extreme_batches())
    def test_cross_entropy_equals_the_reference(self, batch):
        z, _, labels, _, _ = batch
        want = bits(ref._cross_entropy_rows(z, labels))
        assert bits(cross_entropy_rows(z, labels)) == want

    @settings(max_examples=500, deadline=None)
    @given(batch=extreme_batches())
    def test_distillation_equals_the_reference(self, batch):
        z, teacher, labels, temps, weights = batch
        pt = numerics.softmax_rows(teacher, temps)
        assert (bits(kd_loss_rows(z, pt, labels, temps, weights))
                == bits(ref._kd_rows(z, pt, labels, temps, weights)))

    def test_exact_zero_teacher_probabilities(self):
        rng = np.random.default_rng(5)
        n, c = 3000, 7
        z, teacher = rng.uniform(-1.0, 1.0, size=(2, n, c)) * 300.0
        labels = rng.integers(0, c, n)
        temps = rng.uniform(0.05, 8.0, n)
        weights = rng.choice([0.0, 1.0, 0.3], n)
        pt = numerics.softmax_rows(teacher, temps)
        assert np.count_nonzero(pt == 0.0) > 500
        assert (bits(kd_loss_rows(z, pt, labels, temps, weights))
                == bits(ref._kd_rows(z, pt, labels, temps, weights)))


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
POLICY_DEFAULTS = [ConstantPolicy(), UncertaintyLinearPolicy(), RuleBasedPolicy()]


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
                ctx = compute_context(z[i], noise[i], complexity[i])
                want_ctx = ref.compute_context(z[i], noise[i], complexity[i])
                assert ctx == want_ctx
                want = ref.apply_policy(policy, want_ctx, base_weight=base_weight)
                assert temps[i] == want.temperature
                assert weights[i] == want.distill_weight
                assert apply_policy(policy, ctx, base_weight=base_weight) == want

        check()

    @pytest.mark.parametrize("policy", POLICY_DEFAULTS)
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


def _outcome(fn, *args):
    try:
        fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return None


PUBLIC = {
    "stable_softmax": numerics.stable_softmax,
    "kl_divergence": numerics.kl_divergence,
    "normalized_entropy": numerics.normalized_entropy,
    "kd_loss": kd_loss,
    "kd_loss_grad": kd_loss_grad,
    "compute_context": compute_context,
    "apply_policy": apply_policy,
}
Z = [1.0, 2.0, 0.5]
CTX = ContextFeatures(0.2, 0.6, 0.7, 0.3)
BAD_LOGITS = [[1.0], [[1.0, 2.0]], [], [np.nan, 1.0], [np.inf, 0.0]]
BAD_TEMPERATURES = [0.0, -1.0, np.nan]
BAD_DISTRIBUTIONS = [[0.5], [[0.5, 0.5]], [0.5, 0.6], [1.2, -0.2], [np.nan, 1.0]]
INVALID_CALLS = (
    [("stable_softmax", (z,)) for z in BAD_LOGITS]
    + [("stable_softmax", (Z, t)) for t in BAD_TEMPERATURES]
    + [("kl_divergence", (p, [0.5, 0.5])) for p in BAD_DISTRIBUTIONS]
    + [("kl_divergence", ([0.5, 0.5], p)) for p in BAD_DISTRIBUTIONS]
    + [("kl_divergence", ([0.5, 0.5], [0.2, 0.3, 0.5]))]
    + [("normalized_entropy", (p,)) for p in BAD_DISTRIBUTIONS]
    + [(fn, args) for fn in ("kd_loss", "kd_loss_grad") for args in (
        [(z, Z, 0, 2.0, 0.5) for z in BAD_LOGITS]
        + [(Z, z, 0, 2.0, 0.5) for z in BAD_LOGITS]
        + [(Z, Z[:2], 0, 2.0, 0.5)]
        + [(Z, Z, 0, t, 0.5) for t in BAD_TEMPERATURES])]
    + [("kd_loss", (Z, Z, c, 2.0, 0.5)) for c in (-1, 3)]
    + [("compute_context", (z, 0.2, 0.3)) for z in BAD_LOGITS]
    + [("compute_context", (Z, noise, complexity)) for noise, complexity in (
        (1.5, 0.3), (-0.1, 0.3), (np.nan, 0.3), (0.2, 1.5), (0.2, -0.5))]
    + [("apply_policy", (policy, CTX, w))
       for policy in POLICY_DEFAULTS for w in (1.2, -0.2, np.nan)]
    + [("apply_policy", (object(), CTX))]
)


class TestOneSampleFunctions:
    @pytest.mark.parametrize("name, args", INVALID_CALLS)
    def test_invalid_input_raises_as_the_reference(self, name, args):
        want = _outcome(getattr(ref, name), *args)
        assert want is not None
        assert _outcome(PUBLIC[name], *args) == want

    @pytest.mark.parametrize("true_class", [-1, 3])
    def test_kd_loss_grad_checks_the_class_as_kd_loss_does(self, true_class):
        # the reference indexes the one-hot vector unchecked: -1 is the last class
        with pytest.raises(IndexOutOfRange, match=f"class {true_class} out of range for 3"):
            kd_loss_grad(Z, Z, true_class, 2.0, 0.5)

    def test_outputs_are_python_floats(self):
        p = np.array([0.25, 0.25, 0.5])
        out = [numerics.normalized_entropy(p), compute_context(Z, 0.2, 0.3).uncertainty,
               kd_loss(np.array(Z), np.array(Z[::-1]), np.int64(1), np.float64(2.0),
                       np.float64(0.5)).total]
        for policy in (ConstantPolicy(3), UncertaintyLinearPolicy(), RuleBasedPolicy(
                base_temperature=2, raise_step=1, lower_step=1, min_temperature=1,
                max_temperature=4, base_weight=0, weight_step=1, max_weight=1)):
            result = apply_policy(policy, CTX, 1)
            out += [result.temperature, result.distill_weight]
        assert [type(v) for v in out] == [float] * len(out)


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
        hits = hits.ravel()
        n_pos = int(hits.sum())
        groups = ref.threshold_groups(scores, hits)
        ref_roc = metrics._roc_curve(*groups, n_pos, hits.size - n_pos)
        ref_pr = metrics._pr_curve(*groups, n_pos)
        roc, pr = metrics.micro_curves(p, labels)
        assert roc.auc == ref_roc.auc
        assert np.array_equal(roc.fpr, ref_roc.fpr)
        assert np.array_equal(roc.tpr, ref_roc.tpr)
        assert pr.average_precision == ref_pr.average_precision
        assert np.array_equal(pr.recall, ref_pr.recall)
        assert np.array_equal(pr.precision, ref_pr.precision)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 400))
    def test_threshold_groups_equal_the_stable_sort_sweep(self, data, n):
        # a coarse grid ties most scores, and 0.0 and -0.0 tie with each other
        grid = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1e-300])
        scores = data.draw(hnp.arrays(np.float64, n, elements=grid))
        hits = data.draw(hnp.arrays(bool, n))
        got = metrics._threshold_groups(scores, hits)
        want = ref.threshold_groups(scores, hits)
        assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]
