"""Independent one-sample implementations of the library's formulas.

In `antdistill` each formula has one implementation, a row kernel; the
public one-sample functions (`stable_softmax`, `kd_loss`,
`compute_context`, `apply_policy`) validate their input and call the
kernels on a batch of one. The functions here compute the same values
one sample at a time, and the property tests in `test_kernels.py` hold
every kernel row and every one-sample call to them bit for bit, and the
one-sample functions to their checks and errors. The KL, the
cross-entropy, the normalized entropy and the KD gradient are stated
only here as one-sample functions. They reuse the library's validators
(`as_logits`, `as_distribution`, `_check_temperature`, `_check_unit`)
and call one another rather than the library's versions.

The file also keeps the row-by-row reader of the `evaluate` input
files, which parses each cell with int() or float(), as the reference of
`cli._read_table`; the row-by-row reader of the dataset file, the only
reader of what `tinynet.dataset_text` writes, which the round-trip tests
call and the dataset-file tests hold to the file's rules; the
stable-sort threshold sweep, as the reference of
`metrics._threshold_groups`, and the ROC and PR curves built from it, as
the reference of `metrics.micro_auc_ap`; and the SGD loop that
indexed the dataset per mini-batch, called a per-batch loss closure for
both the losses and the gradient, tallied the losses batch by batch and
updated each weight and bias array on its own, as the reference of
`tinynet.sgd_fit`, with its supervised and distillation losses, and
the per-layer draws of `tinynet.init_mlp`, as the reference of its
parameter vector.
"""

import numpy as np

from antdistill import numerics, tinynet
from antdistill.distill import LossBreakdown
from antdistill.errors import (
    IndexOutOfRange,
    InvalidPolicyParameters,
    LengthMismatch,
    NonFiniteLoss,
    ParseError,
)
from antdistill.numerics import EPS
from antdistill.temperature import (
    ConstantPolicy,
    ContextFeatures,
    PolicyOutput,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    _check_unit,
    apply_policy_rows,
)


def stable_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    z = numerics.as_logits(logits)
    t = numerics._check_temperature(temperature)
    s = z / t
    e = np.exp(s - s.max())
    return e / e.sum()


def cross_entropy(true_class: int, q) -> float:
    q = numerics.as_distribution(q)
    c = int(true_class)
    if c < 0 or c >= q.shape[0]:
        raise IndexOutOfRange(f"class {c} out of range for {q.shape[0]} classes")
    return float(-np.log(max(q[c], EPS)))


def kl_divergence(p, q) -> float:
    p = numerics.as_distribution(p)
    q = numerics.as_distribution(q)
    if p.shape != q.shape:
        raise LengthMismatch(f"length {p.shape[0]} vs {q.shape[0]}")
    terms = np.where(p > 0.0, p * (np.log(np.maximum(p, EPS)) - np.log(np.maximum(q, EPS))), 0.0)
    return float(terms.sum())


def normalized_entropy(p) -> float:
    p = numerics.as_distribution(p)
    h = float(-np.where(p > 0.0, p * np.log(np.maximum(p, EPS)), 0.0).sum())
    return min(1.0, max(0.0, h / np.log(p.shape[0])))


def kd_loss(student_logits, teacher_logits, true_class: int, temperature: float,
            weight: float) -> LossBreakdown:
    s = numerics.as_logits(student_logits)
    t = numerics.as_logits(teacher_logits)
    if s.shape != t.shape:
        raise LengthMismatch(f"student has {s.shape[0]} logits, teacher {t.shape[0]}")
    ce = cross_entropy(true_class, stable_softmax(s, 1.0))
    kl = kl_divergence(stable_softmax(t, temperature), stable_softmax(s, temperature))
    total = (1.0 - weight) * ce + weight * temperature**2 * kl
    return LossBreakdown(ce, kl, float(temperature), float(weight), total)


def kd_loss_grad(student_logits, teacher_logits, true_class: int, temperature: float,
                 weight: float) -> np.ndarray:
    """Indexes onehot with true_class unchecked: -1 is the last class."""
    s = numerics.as_logits(student_logits)
    t = numerics.as_logits(teacher_logits)
    if s.shape != t.shape:
        raise LengthMismatch(f"student has {s.shape[0]} logits, teacher {t.shape[0]}")
    numerics._check_temperature(temperature)
    p1 = stable_softmax(s, 1.0)
    onehot = np.zeros(s.shape[0])
    onehot[int(true_class)] = 1.0
    ps = stable_softmax(s, temperature)
    pt = stable_softmax(t, temperature)
    return (1.0 - weight) * (p1 - onehot) + (weight * temperature) * (ps - pt)


def compute_context(teacher_logits, sample_noise: float, sample_class_complexity: float
                    ) -> ContextFeatures:
    probs = stable_softmax(teacher_logits, 1.0)
    return ContextFeatures(
        noise_level=float(sample_noise),
        teacher_confidence=float(probs.max()),
        disease_complexity=float(sample_class_complexity),
        uncertainty=normalized_entropy(probs),
    )


def apply_policy(policy, ctx: ContextFeatures, base_weight: float = 0.5) -> PolicyOutput:
    _check_unit("base_weight", base_weight)
    if isinstance(policy, ConstantPolicy):
        return PolicyOutput(policy.temperature, base_weight)
    if isinstance(policy, UncertaintyLinearPolicy):
        return PolicyOutput(1.0 + policy.scale * ctx.uncertainty, base_weight)
    if isinstance(policy, RuleBasedPolicy):
        t = policy.base_temperature
        noisy = ctx.noise_level >= policy.noise_threshold
        confident = ctx.teacher_confidence > policy.confidence_threshold
        if noisy and not confident:
            t = min(policy.max_temperature, policy.base_temperature + policy.raise_step)
        elif not noisy and confident:
            t = max(policy.min_temperature, policy.base_temperature - policy.lower_step)
        w = policy.base_weight
        if ctx.disease_complexity >= policy.complexity_threshold:
            w = min(policy.max_weight, policy.base_weight + policy.weight_step)
        return PolicyOutput(t, w)
    raise InvalidPolicyParameters(f"unknown policy type {type(policy).__name__}")


def _read_csv_table(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, encoding="utf-8") as fh:
            # the whole text at once, so that a decode error names its
            # position in the file, as the library's reader does
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{path}: empty file")
    if len(lines) == 1:
        raise ParseError(f"{path}: header but no data rows")
    header = lines.pop(0).split(",")
    for i, ln in enumerate(lines):  # split in place: no second list of rows
        lines[i] = ln.split(",")
    return header, lines


def evaluate_inputs(pred_path, label_path):
    """(preds, labels, probs or None) of the `evaluate` input files, read
    one row list at a time; the header and row-count messages match `cli`'s."""
    header_p, rows_p = _read_csv_table(pred_path)
    header_l, rows_l = _read_csv_table(label_path)
    if header_l != ["label"]:
        raise ParseError(f"{label_path}: expected header 'label', got {header_l}")
    want_probs = header_p[:1] == ["pred"] and len(header_p) > 1
    if header_p != ["pred"] and not (
        want_probs and header_p[1:] == [f"p{j}" for j in range(len(header_p) - 1)]
    ):
        raise ParseError(f"{pred_path}: expected header 'pred[,p0,p1,...]', got {header_p}")
    if len(rows_p) != len(rows_l):
        raise ParseError(f"{pred_path} has {len(rows_p)} data rows, {label_path} has "
                         f"{len(rows_l)}")
    # rows are converted in place and freed before the metrics: their cell
    # strings take about ten times the memory of the arrays
    try:
        preds = np.array([int(r[0]) for r in rows_p], dtype=np.int64)
        labels = np.array([int(r[0]) for r in rows_l], dtype=np.int64)
        probs = None
        if want_probs:
            for i, r in enumerate(rows_p):
                rows_p[i] = [float(v) for v in r[1:]]
            probs = np.array(rows_p)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad cell value: {exc}") from exc
    return preds, labels, probs


def load_dataset(path) -> tinynet.SyntheticDataset:
    """A dataset file read line by line, each cell by int() or float()."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if len(lines) < 3 or not lines[0].startswith("# class_complexity="):
        raise ParseError(f"{path}: missing class_complexity comment or data rows")
    try:
        comp = np.array([float(v) for v in lines[0].split("=", 1)[1].split(",")])
        if comp.shape[0] < 2:
            raise ValueError(f"class_complexity has {comp.shape[0]} entry, need >= 2 classes")
        header = lines[1].split(",")
        d = len(header) - 3
        if header != ["split", "label", "noise_level"] + [f"f{j}" for j in range(d)]:
            raise ValueError("bad header")
        if d < 1:
            raise ValueError("no feature columns")
        splits, labels, noise, feats = [], [], [], []
        for ln in lines[2:]:
            if not ln:
                continue
            cells = ln.split(",")
            if len(cells) != d + 3 or cells[0] not in tinynet.SPLITS:
                raise ValueError(f"bad row {ln!r}")
            splits.append(cells[0])
            labels.append(int(cells[1]))
            noise.append(float(cells[2]))
            feats.append([float(v) for v in cells[3:]])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not labels:
        raise ParseError(f"{path}: no data rows")
    if min(labels) < 0 or max(labels) >= comp.shape[0]:
        raise ParseError(f"{path}: label outside [0, {comp.shape[0]})")
    features, noise_arr = np.array(feats), np.array(noise)
    if not np.all(np.isfinite(features)):
        raise ParseError(f"{path}: features contain NaN or Inf")
    for name, values in (("noise_level", noise_arr), ("class_complexity", comp)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ParseError(f"{path}: {name} outside [0, 1]")
    return tinynet.SyntheticDataset(
        features, np.array(labels, dtype=np.int64), noise_arr, comp,
        np.array(splits, dtype="<U5"),
    )


def threshold_groups(scores, hits):
    """Cumulative TP/FP after each tie group of the descending score sweep."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    h = hits[order]
    boundary = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(boundary, s.size - 1)
    cum_tp = np.cumsum(h)[ends]
    cum_fp = np.cumsum(~h)[ends]
    return cum_tp.astype(np.float64), cum_fp.astype(np.float64)


def auc_ap(cum_tp, cum_fp, n_pos, n_neg):
    """(ROC-AUC, average precision) from a sweep's cumulative counts, each
    from its own curve: the trapezoid area under (FPR, TPR), and precision
    summed over the steps of recall."""
    tpr = np.concatenate(([0.0], cum_tp / n_pos))
    fpr = np.concatenate(([0.0], cum_fp / n_neg))
    auc = float(np.trapezoid(tpr, fpr))
    recall = cum_tp / n_pos
    precision = cum_tp / (cum_tp + cum_fp)
    deltas = np.diff(np.concatenate(([0.0], recall)))
    return auc, float((deltas * precision).sum())


def init_params(layer_dims, seed):
    """init_mlp's parameter vector: each layer's uniform weights drawn as
    an array of its own, then its zero biases, concatenated layer by layer."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-s, s, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


def _forward_batch(model, x):
    """Returns (logits, inputs per layer)."""
    acts = []
    a = x
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        acts.append(a)
        z = a @ w.T + b
        a = z if k == last else np.maximum(z, 0.0)
    return a, acts


def _backward(model, acts, dlogits):
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.weights)
    delta = dlogits
    for k in range(len(model.weights) - 1, -1, -1):
        grads_w[k] = delta.T @ acts[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ model.weights[k]) * (acts[k] > 0.0)
    return grads_w, grads_b


def _accuracy(model, features, labels) -> float:
    logits, _ = _forward_batch(model, features)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def sgd_fit(model, dataset, cfg, batch_loss):
    """batch_loss(logits, idx) -> (per-row losses, dloss/dlogits) for the
    (b, C) logits of the dataset rows idx; returns (model, history).

    A training loss that is not finite after a batch raises NonFiniteLoss
    before that batch's update, and so do parameters that are not finite
    at the end of an epoch; numpy's overflow warnings are silenced.
    """
    train_idx = dataset.indices("train")
    val_idx = dataset.indices("val")
    labels = dataset.labels[train_idx]
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise IndexOutOfRange(f"train labels outside [0, {model.n_classes})")
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    history = tinynet.TrainHistory()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = train_idx[rng.permutation(train_idx.size)]
            loss_sum = 0.0
            for start in range(0, order.size, cfg.batch_size):
                batch_idx = order[start : start + cfg.batch_size]
                x = dataset.features[batch_idx]
                logits, acts = _forward_batch(model, x)
                losses, dlogits = batch_loss(logits, batch_idx)
                for loss in losses.tolist():
                    loss_sum += loss
                if not np.isfinite(loss_sum):
                    raise NonFiniteLoss(f"training loss became {loss_sum!r}")
                gw, gb = _backward(model, acts, dlogits / batch_idx.size)
                for w, b, dw, db in zip(model.weights, model.biases, gw, gb):
                    w -= cfg.learning_rate * dw
                    b -= cfg.learning_rate * db
            if not all(np.isfinite(a).all() for a in model.weights + model.biases):
                raise NonFiniteLoss("training left non-finite parameters")
            history.train_loss.append(loss_sum / order.size)
            history.val_accuracy.append(
                _accuracy(model, dataset.features[val_idx], dataset.labels[val_idx])
            )
    return model, history


def _softmax_rows(logits, temperature=1.0):
    t = np.asarray(temperature, dtype=np.float64)
    s = logits / (t[:, None] if t.ndim else t)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy_rows(logits, labels):
    p = _softmax_rows(logits)
    rows = np.arange(labels.shape[0])
    losses = -np.log(np.maximum(p[rows, labels], EPS))
    p[rows, labels] -= 1.0
    return losses, p


def _kd_rows(student_logits, teacher_probs, labels, temperatures, weights):
    ce, dce = _cross_entropy_rows(student_logits, labels)
    ps = _softmax_rows(student_logits, temperatures)
    p = teacher_probs
    kl = np.where(p > 0.0, p * (np.log(np.maximum(p, EPS)) - np.log(np.maximum(ps, EPS))),
                  0.0).sum(axis=1)
    total = (1.0 - weights) * ce + weights * np.float_power(temperatures, 2) * kl
    grad = (1.0 - weights)[:, None] * dce + (weights * temperatures)[:, None] * (ps - teacher_probs)
    return total, grad


def train_supervised(model, dataset, cfg):
    labels = dataset.labels

    def batch_loss(logits, idx):
        return _cross_entropy_rows(logits, labels[idx])

    return sgd_fit(model, dataset, cfg, batch_loss)


def distill_train(teacher, student, dataset, cfg):
    """distill_train's (student, history); the teacher's targets come from
    the library's forward pass and apply_policy_rows."""
    teacher_logits = tinynet.forward_batch(teacher, dataset.features)
    temps, weights = apply_policy_rows(
        cfg.policy, teacher_logits, dataset.noise_level,
        dataset.class_complexity[dataset.labels], base_weight=cfg.t_base,
    )
    teacher_probs = _softmax_rows(teacher_logits, temps)
    labels = dataset.labels

    def batch_loss(logits, idx):
        return _kd_rows(logits, teacher_probs[idx], labels[idx], temps[idx], weights[idx])

    return sgd_fit(student, dataset, cfg.train, batch_loss)
