"""Small trainable MLP classifiers and synthetic datasets.

The MLP is rectifier-hidden / identity-output, trained with plain
mini-batch SGD. Datasets are Gaussian class clusters whose center
spacing shrinks linearly with a per-class complexity knob, with three
noise corruptions (gaussian / salt_pepper / uniform) applied on top.

Every stochastic operation takes an explicit seed and draws from a
fresh numpy Generator, so all artifacts are reproducible byte for byte.
derive_seed turns a tuple of integers into such a seed.

A training loss is a pair of row kernels: a gradient half, called on
every mini-batch, that returns the probabilities and d(loss)/d(logits),
and a loss half that turns probabilities into per-row losses. sgd_fit
calls the loss half once per epoch, on every row's probabilities, and
sums each arm's row losses with one cumulative sum.

sgd_fit trains one model, or k models of the same shape in lockstep:
stack_models stacks their parameter vectors into a (k, P) matrix, and
stack_datasets their datasets into one of k blocks of rows. Every array
of the loop then takes a leading arm axis, so numpy's fixed per-call
cost is paid once per mini-batch for all k arms; each arm's results are
those of its own sgd_fit call, bit for bit.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re
import stat
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    EmptySplit,
    IndexOutOfRange,
    InvalidShape,
    LevelOutOfRange,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
    UnknownNoiseKind,
)

SPLITS = ("train", "val", "test")
# fraction of each class routed to train/val/test
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)

NOISE_KINDS = ("gaussian", "salt_pepper", "uniform")

# cluster center distance from origin at complexity 0, in units of the
# within-cluster std (1.0); complexity 1 collapses all centers to the origin
CENTER_RADIUS = 5.0

# cells in generate_synthetic's largest array, max(samples, classes, dim) x dim
MAX_DATASET_CELLS = 10**8


def derive_seed(*parts: int) -> int:
    """A 32-bit seed that depends on every part and on their order."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def _n_params(dims) -> int:
    """The parameter count of layer_dims dims, which must be >= 2 positive sizes."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidShape(f"layer_dims must be >= 2 positive sizes, got {dims}")
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(dims, dims[1:]))


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Fully-connected net held as one parameter vector, or k stacked ones.

    params lays the layers out in order: each layer's weights row-major,
    then its biases. weights[l] has shape (dims[l+1], dims[l]); weights,
    biases and the transposed weights_t are tuples of views of params, so
    a model's arrays are written in place and never rebound.

    params of shape (P,) is one model; params of shape (k, P) is k models
    of the same layer_dims, the arms, one per row. Each view then has a
    leading k axis: weights[l] is (k, out, in) and biases[l] is (k, out).
    row_biases are the biases shaped to add to a batch of rows, (out,) or
    (k, 1, out), and dot is the product that applies a layer to a batch:
    np.dot for one model, which on 2-D operands calls the same BLAS
    product as np.matmul for less overhead, and np.matmul, over the
    leading k axis, for a stack.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self):
        dims, params = self.layer_dims, self.params
        size = _n_params(dims)
        if not isinstance(params, np.ndarray) or params.dtype != np.float64:
            raise InvalidShape(f"params must be a float64 array, got "
                               f"{getattr(params, 'dtype', type(params).__name__)}")
        shape = params.shape
        if not (shape == (size,) or (len(shape) == 2 and shape[0] >= 1 and shape[1] == size)):
            raise InvalidShape(f"params must have shape ({size},) or (k >= 1, {size}) for "
                               f"layer_dims {dims}, got {shape}")
        lead = shape[:-1]
        weights, biases, at = [], [], 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            weights.append(params[..., at : at + fan_out * fan_in].reshape(*lead, fan_out, fan_in))
            at += fan_out * fan_in
            biases.append(params[..., at : at + fan_out])
            at += fan_out
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))
        object.__setattr__(self, "weights_t", tuple(w.mT for w in weights))
        object.__setattr__(self, "row_biases",
                           tuple(b[:, None, :] for b in biases) if lead else self.biases)
        object.__setattr__(self, "dot", np.matmul if lead else np.dot)

    def copy(self) -> "MlpModel":
        return MlpModel(self.layer_dims, self.params.copy())

    @property
    def n_arms(self) -> int:
        """k for a stack of k models, 1 for one model."""
        return self.params.shape[0] if self.params.ndim == 2 else 1

    def arm(self, a: int) -> "MlpModel":
        """Model a of a stack as one model, on a copy of its parameters;
        arm(0) of one model is its copy."""
        return MlpModel(self.layer_dims, self.params.reshape(self.n_arms, -1)[a].copy())

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]


def stack_models(models) -> MlpModel:
    """k one-arm models of the same layer_dims as one (k, P) stack, in order."""
    models = list(models)
    if not models or any(m.layer_dims != models[0].layer_dims for m in models):
        raise ShapeMismatch(f"need one or more models of the same layer_dims, got "
                            f"{[m.layer_dims for m in models]}")
    return MlpModel(models[0].layer_dims, np.stack([m.params for m in models]))


def init_mlp(layer_dims, seed: int) -> MlpModel:
    """Uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    model = MlpModel(dims, np.zeros(_n_params(dims)))
    rng = np.random.default_rng(seed)
    for w in model.weights:  # of shape (fan_out, fan_in)
        s = np.sqrt(6.0 / sum(w.shape))
        w[:] = rng.uniform(-s, s, size=w.shape)
    return model


def _check_one_model(model: MlpModel) -> None:
    if model.params.ndim != 1:
        raise ShapeMismatch(f"expected one model, got a stack of {model.n_arms}")


def _check_features(model: MlpModel, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeMismatch(f"expected (n, {model.input_dim}) features, got {x.shape}")


def _forward(model: MlpModel, x: np.ndarray):
    """Returns (logits, inputs per layer) for unchecked features x: (n, d)
    rows for one model, (k, n, d), one block of rows per arm, for a stack."""
    acts = []
    a = x
    dot = model.dot
    last = len(model.biases) - 1
    for k, (w_t, b) in enumerate(zip(model.weights_t, model.row_biases)):
        acts.append(a)
        a = dot(a, w_t)
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a, acts


def forward_batch(model: MlpModel, x) -> np.ndarray:
    """Logits for an (n, input_dim) feature matrix."""
    x = np.asarray(x, dtype=np.float64)
    _check_features(model, x)
    return _forward(model, x)[0]


def _backward(model: MlpModel, acts, dlogits, grads: MlpModel) -> None:
    """Reverse-mode gradients given d(loss)/d(logits) per row, written into
    the arrays of grads; a ReLU passes gradient where its output, and so
    its input, is positive. The batch is the second-to-last axis, so one
    code path serves one model and a stack."""
    dot = model.dot
    delta = dlogits
    for k in range(len(model.weights) - 1, -1, -1):
        dot(delta.mT, acts[k], out=grads.weights[k])
        np.add.reduce(delta, axis=-2, out=grads.biases[k])
        if k > 0:
            delta = dot(delta, model.weights[k])
            delta *= acts[k] > 0.0


def _step(model: MlpModel, x, grad_rows, targets, grads: MlpModel):
    """One mini-batch: the forward pass, grad_rows(logits, *targets), then
    the backward pass of the mean loss into grads, a model of the same
    shape. Returns the probabilities grad_rows gave, which the loss half of
    the pair turns into per-row losses."""
    logits, acts = _forward(model, x)
    probs, dlogits = grad_rows(logits, *targets)
    _backward(model, acts, dlogits / x.shape[-2], grads)
    return probs


def _check_targets(targets, n_rows: int) -> None:
    if any(np.shape(t)[:1] != (n_rows,) for t in targets):
        raise ShapeMismatch(f"every target must have {n_rows} rows, got shapes "
                            f"{[np.shape(t) for t in targets]}")


def _one_hot(labels: np.ndarray, n_classes: int):
    """(mask, one-hot float matrix) of labels, each (n, n_classes); a label
    outside [0, n_classes) gives an all-zero row."""
    mask = labels[:, None] == np.arange(n_classes)
    return mask, mask.astype(np.float64)


def _ce_grad_rows(logits, _mask, one_hot):
    """(softmax(row), softmax(row) - onehot(label)) of each row, with the
    labels as _one_hot's two matrices: the gradient half of cross-entropy."""
    p = numerics._softmax(logits)
    return p, p - one_hot


def _ce_loss_rows(p, mask, _one_hot):
    """-log(max(p[label], EPS)) of each softmax row p: the loss half of
    cross-entropy."""
    return -numerics._log_floor(p)[mask]


# the loss pair train_supervised gives sgd_fit
_CROSS_ENTROPY = (_ce_grad_rows, _ce_loss_rows)


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass
class SyntheticDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    noise_level: np.ndarray  # (n,) float64 in [0, 1]
    class_complexity: np.ndarray  # (c,) float64 in [0, 1]
    split: np.ndarray  # (n,) str, one of SPLITS

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.class_complexity.shape[0]

    def indices(self, split: str) -> np.ndarray:
        if split not in SPLITS:
            raise EmptySplit(f"unknown split {split!r}")
        idx = np.flatnonzero(self.split == split)
        if idx.size == 0:
            raise EmptySplit(f"split {split!r} is empty")
        return idx

    def copy(self) -> "SyntheticDataset":
        return SyntheticDataset(
            self.features.copy(),
            self.labels.copy(),
            self.noise_level.copy(),
            self.class_complexity.copy(),
            self.split.copy(),
        )


def stack_datasets(datasets) -> SyntheticDataset:
    """k datasets as one of k blocks of rows, block a holding dataset a's
    rows: the dataset sgd_fit trains a stack of k models on. The blocks
    may differ in features and noise levels only; labels, splits or class
    complexities that differ raise ShapeMismatch."""
    datasets = list(datasets)
    if not datasets:
        raise ShapeMismatch("need one or more datasets to stack")
    first = datasets[0]
    for d in datasets[1:]:
        if d.n_features != first.n_features:
            raise ShapeMismatch(f"stacked datasets must share their feature width, got "
                                f"{d.n_features} and {first.n_features}")
        if not np.array_equal(d.class_complexity, first.class_complexity):
            raise ShapeMismatch("stacked datasets must share their class_complexity")
    stacked = SyntheticDataset(
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        np.concatenate([d.noise_level for d in datasets]),
        first.class_complexity.copy(),
        np.concatenate([d.split for d in datasets]),
    )
    _block_size(stacked, len(datasets))
    return stacked


def _block_size(dataset: SyntheticDataset, k: int) -> int:
    """The rows per block of a dataset of k equal blocks that share their
    labels and splits, as stack_datasets builds; ShapeMismatch otherwise."""
    n = dataset.n_samples // k
    if n * k != dataset.n_samples:
        raise ShapeMismatch(f"a stack of {k} models needs {k} equal blocks of rows, "
                            f"got {dataset.n_samples} rows")
    for name in ("labels", "split"):
        blocks = getattr(dataset, name).reshape(k, n)
        if (blocks[1:] != blocks[0]).any():
            raise ShapeMismatch(f"stacked datasets must share their {name}")
    return n


def generate_synthetic(n_samples, n_classes, input_dim, complexity, seed: int) -> SyntheticDataset:
    """Gaussian clusters, one per class, stratified 70/10/20 splits.

    complexity may be a scalar or a length-C sequence; a class's center
    sits at distance CENTER_RADIUS * (1 - complexity) from the origin,
    so complexity 0 gives well-separated clusters and 1 collapses them.
    """
    n_samples, n_classes, input_dim = int(n_samples), int(n_classes), int(input_dim)
    if n_classes < 2:
        raise InvalidShape(f"n_classes must be >= 2, got {n_classes}")
    if max(n_samples, n_classes, input_dim) * input_dim > MAX_DATASET_CELLS:
        raise InvalidShape(f"max(samples, classes, dim) * dim must be <= {MAX_DATASET_CELLS}, "
                           f"got {n_samples} samples, {n_classes} classes, dim {input_dim}")
    comp = np.asarray(complexity, dtype=np.float64)
    if comp.ndim == 0:
        comp = np.full(n_classes, float(comp))
    if comp.shape != (n_classes,):
        raise InvalidShape(f"complexity must be scalar or length {n_classes}, got {comp.shape}")
    if not np.all((comp >= 0) & (comp <= 1)):  # NaN fails both
        raise InvalidShape("complexity entries must lie in [0, 1]")
    if n_samples < 10 * n_classes:
        raise InvalidShape(f"need at least {10 * n_classes} samples for {n_classes} classes")
    if input_dim < 2:
        raise InvalidShape("input_dim must be >= 2")

    rng = np.random.default_rng(seed)
    if n_classes <= input_dim:
        # orthonormal directions so complexity-0 clusters are separable by construction
        q, _ = np.linalg.qr(rng.normal(size=(input_dim, input_dim)))
        dirs = q[:n_classes]
    else:
        dirs = rng.normal(size=(n_classes, input_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centers = dirs * (CENTER_RADIUS * (1.0 - comp))[:, None]

    counts = np.full(n_classes, n_samples // n_classes)
    counts[: n_samples % n_classes] += 1
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), counts)
    features = centers[labels] + rng.normal(size=(n_samples, input_dim))

    split = np.empty(n_samples, dtype="<U5")
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        n_val = max(1, round(SPLIT_FRACTIONS[1] * idx.size))
        n_test = max(1, round(SPLIT_FRACTIONS[2] * idx.size))
        n_train = idx.size - n_val - n_test
        if n_train < 1:
            raise InvalidShape(f"class {c} too small to stratify into three splits")
        split[idx[:n_train]] = "train"
        split[idx[n_train : n_train + n_val]] = "val"
        split[idx[n_train + n_val :]] = "test"

    return SyntheticDataset(features, labels, np.zeros(n_samples), comp, split)


def inject_noise(dataset: SyntheticDataset, kind: str, level: float, seed: int,
                 fraction: float = 1.0) -> SyntheticDataset:
    """Corrupt features; labels and split membership stay untouched.

    gaussian     adds N(0, (level * per-feature std)^2)
    salt_pepper  replaces a fraction `level` of entries with the
                 per-feature min or max, fair coin
    uniform      adds U(-level * range, +level * range) per feature

    fraction < 1 corrupts only that share of samples, stratified per
    split, so mixed clean/noisy experiments keep noisy samples in every
    split. Affected samples get noise_level = level.
    """
    if kind not in NOISE_KINDS:
        raise UnknownNoiseKind(f"kind must be one of {NOISE_KINDS}, got {kind!r}")
    level = float(level)
    if not 0.0 <= level <= 1.0:
        raise LevelOutOfRange(f"level must lie in [0, 1], got {level}")
    if not 0.0 <= fraction <= 1.0:
        raise LevelOutOfRange(f"fraction must lie in [0, 1], got {fraction}")

    out = dataset.copy()
    rng = np.random.default_rng(seed)
    if fraction >= 1.0:
        affected = np.arange(out.n_samples)
    else:
        parts = []
        for name in SPLITS:
            idx = np.flatnonzero(out.split == name)
            take = round(fraction * idx.size)
            parts.append(idx[rng.permutation(idx.size)][:take])
        affected = np.concatenate(parts)
    if affected.size == 0 or level == 0.0:
        return out

    clean = dataset.features
    lo = clean.min(axis=0)
    hi = clean.max(axis=0)
    sub = out.features[affected]
    if kind == "gaussian":
        sub = sub + rng.normal(size=sub.shape) * (level * clean.std(axis=0))
    elif kind == "salt_pepper":
        mask = rng.random(sub.shape) < level
        pepper_or_salt = np.where(rng.random(sub.shape) < 0.5, lo, hi)
        sub = np.where(mask, pepper_or_salt, sub)
    else:  # uniform
        sub = sub + rng.uniform(-1.0, 1.0, size=sub.shape) * (level * (hi - lo))
    out.features[affected] = sub
    out.noise_level[affected] = level
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not self.learning_rate >= 0.0:
            raise InvalidShape("epochs/batch_size must be >= 1 and learning_rate >= 0")
        if not math.isfinite(self.learning_rate):
            raise InvalidShape(f"learning_rate must be finite, got {self.learning_rate!r}")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)


def accuracy(model: MlpModel, features, labels) -> float:
    _check_one_model(model)
    logits = forward_batch(model, features)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def sgd_fit(model: MlpModel, dataset: SyntheticDataset, cfg: TrainConfig, loss, targets):
    """Shared SGD loop over the train split; returns (model, history), or
    for a stack of k models (stack, list of k histories).

    targets is a tuple of arrays indexed by dataset row, and loss is a pair
    (grad_rows, loss_rows) of functions on a batch's (n, C) logits:
    grad_rows(logits, *targets) returns (probabilities, dloss/dlogits), the
    gradient treated as exact, and loss_rows(probabilities, *targets) the
    per-row losses. Each epoch gathers the features and every target in
    the epoch's shuffled order once; each mini-batch then calls
    grad_rows(logits, *target rows), with views of those gathers, and
    keeps the probabilities it returns in a list. The gradient needs only
    them, so the losses wait for the end of the epoch: one loss_rows call
    on the concatenated probabilities gives every row's loss, and one
    cumulative sum over each arm's rows, from 0.0 in batch order, adds
    them as a loop would.

    A stack of k models, the arms, trains in lockstep on a dataset of k
    equal blocks of rows, block a for arm a, as stack_datasets builds it.
    The arms share the shuffle and the first block's splits and labels;
    each has its own parameters, features and target rows. Every array of
    the loop then takes a leading arm axis, (k, b, ...), and each product
    is one np.matmul over it; one model keeps its 2-D arrays and np.dot,
    which costs less per call. Each arm's results equal those of its own
    sgd_fit call on its own block, bit for bit.

    The caller's model is left untouched: training runs on a copy, and
    each mini-batch writes its gradients into a second model and updates
    the copy's parameter vector with one subtraction. At the end of an
    epoch, a training loss that became non-finite after some batch raises
    NonFiniteLoss with the sum after that batch, and then so do parameters
    that are not finite; numpy's overflow warnings on the way there are
    silenced. A stack raises the error that one call per arm, made in arm
    order, would raise: that of the lowest-numbered arm that fails. Arm
    0's error ends training at once; another arm's waits for the last
    epoch, since an arm before it may still fail.
    """
    k = model.n_arms
    n = _block_size(dataset, k)
    train_idx, val_idx = (idx[idx < n] for idx in (dataset.indices("train"),
                                                   dataset.indices("val")))
    labels = dataset.labels[train_idx]
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise IndexOutOfRange(f"train labels outside [0, {model.n_classes})")
    _check_targets(targets, dataset.n_samples)
    _check_features(model, dataset.features)
    grad_rows, loss_rows = loss
    model = model.copy()
    params = model.params
    grads = MlpModel(model.layer_dims, np.empty_like(params))
    # the row axis: 0 for one model, 1 behind the arm axis of a stack
    lead = params.shape[:-1]
    axis = len(lead)
    features = dataset.features.reshape(*lead, n, -1)
    targets = [np.reshape(t, (*lead, n, *np.shape(t)[1:])) for t in targets]
    batches = [slice(start, start + cfg.batch_size)
               for start in range(0, train_idx.size, cfg.batch_size)]
    ends = [min(rows.stop, train_idx.size) - 1 for rows in batches]  # each batch's last row
    if axis:
        batches = [(slice(None), rows) for rows in batches]
    val_x, val_y = np.take(features, val_idx, axis=axis), dataset.labels[val_idx]
    # every epoch gathers the features and targets of its shuffled order
    # into these arrays; np.take copies the rows that fancy indexing would,
    # in a third of its time on these 2-D and 3-D arrays, and with mode
    # "clip", for rows that are all in range, writes into out unbuffered
    x = np.take(features, train_idx, axis=axis)
    columns = [np.take(t, train_idx, axis=axis) for t in targets]
    rng = np.random.default_rng(cfg.seed)
    train_loss, val_accuracy = [], []  # one (k,) row per epoch
    failures = {}  # arm -> the NonFiniteLoss its own sgd_fit call would raise
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = train_idx[rng.permutation(train_idx.size)]
            np.take(features, order, axis=axis, out=x, mode="clip")
            for t, c in zip(targets, columns):
                np.take(t, order, axis=axis, out=c, mode="clip")
            probs = []
            for rows in batches:
                probs.append(_step(model, x[rows], grad_rows, [c[rows] for c in columns], grads))
                params -= cfg.learning_rate * grads.params
            losses = np.reshape(loss_rows(np.concatenate(probs, axis=axis), *columns), (k, -1))
            # each arm's running sum at each batch's end, added in batch order;
            # + 0.0 starts it from 0.0, as a loop does: -0.0 + 0.0 is 0.0
            sums = (np.cumsum(losses, axis=1) + 0.0)[:, ends]
            bad = ~np.isfinite(sums)  # a sum stays non-finite once it is
            broken = ~np.isfinite(params.reshape(k, -1)).all(axis=1)
            for arm in np.flatnonzero(bad[:, -1] | broken):
                failures.setdefault(int(arm), NonFiniteLoss(
                    f"training loss became {float(sums[arm, bad[arm].argmax()])!r}"
                    if bad[arm, -1] else "training left non-finite parameters"))
            if 0 in failures:
                break
            train_loss.append(sums[:, -1] / order.size)
            val_pred = np.argmax(_forward(model, val_x)[0], axis=-1)
            val_accuracy.append(np.reshape(np.mean(val_pred == val_y, axis=-1), k))
    if failures:
        raise failures[min(failures)]
    histories = [TrainHistory(*arm) for arm in zip(np.transpose(train_loss).tolist(),
                                                    np.transpose(val_accuracy).tolist())]
    return model, (histories if axis else histories[0])


def train_supervised(model: MlpModel, dataset: SyntheticDataset, cfg: TrainConfig):
    """Cross-entropy SGD on the train split; returns (model, history)."""
    return sgd_fit(model, dataset, cfg, _CROSS_ENTROPY, _one_hot(dataset.labels, model.n_classes))


# ---------------------------------------------------------------------------
# dataset file format
# ---------------------------------------------------------------------------


def save_dataset(dataset: SyntheticDataset, path) -> None:
    """Columnar text file: complexity comment, header, one row per sample.

    Floats are written with repr() so the round-trip is bit-exact.
    """
    lines = ["# class_complexity=" + ",".join(repr(float(c)) for c in dataset.class_complexity),
             "split,label,noise_level," + ",".join(f"f{j}" for j in range(dataset.n_features))]
    for i in range(dataset.n_samples):
        row = [dataset.split[i], str(int(dataset.labels[i])), repr(float(dataset.noise_level[i]))]
        row.extend(repr(float(v)) for v in dataset.features[i])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# numpy reads the separators 0x1c-0x1f as whitespace and any Unicode
# digit as a digit, so the input rule leaves them out; it leaves out NUL
# too, which a string cell would lose from its end
_SEPARATORS = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class _PlainBytes(io.BufferedIOBase):
    """Bytes start:stop of a buffered binary file positioned at start (to
    its end with stop None) as they are read, raising a ValueError at a
    byte outside ASCII, a NUL or a separator 0x1c-0x1f, named by its
    offset in the file. The bytes are checked one read at a time, so no
    copy of all of them is ever held. TextIOWrapper reads them only
    through read1."""

    def __init__(self, buffered, start=0, stop=None):
        self._buffered = buffered
        self._offset = start
        self._stop = stop

    def readable(self) -> bool:
        return True

    def read1(self, size=-1) -> bytes:
        if self._stop is not None:
            left = self._stop - self._offset
            size = left if size < 0 else min(size, left)
        chunk = self._buffered.read1(size)
        if not chunk.isascii() or any(sep in chunk for sep in _SEPARATORS):
            at = next(i for i, b in enumerate(chunk) if b > 0x7f or b == 0 or 0x1c <= b <= 0x1f)
            rule = "a NUL" if chunk[at] == 0 else "outside ASCII or a separator 0x1c-0x1f"
            raise ValueError(f"byte {self._offset + at} is {chunk[at]:#04x}, {rule}")
        self._offset += len(chunk)
        return chunk


# np.loadtxt numbers a bad cell's data row from 0 and a wrong-width row from
# 1 (empty lines uncounted in both), and points the latter at its usecols
# option; both are restated with data rows from 1
_BAD_CELL = re.compile(r"(could not convert string .* to \w+) at row (\d+), column (\d+)\.")
_BAD_WIDTH = re.compile(r"the dtype passed requires (\d+) columns but (\d+) were found at row "
                        r"(\d+); use `usecols` .*")


def _loadtxt_message(exc: ValueError) -> str:
    """np.loadtxt's message, with one numbering of data rows."""
    if m := _BAD_CELL.fullmatch(str(exc)):
        return f"{m[1]} at data row {int(m[2]) + 1}, column {m[3]}"
    if m := _BAD_WIDTH.fullmatch(str(exc)):
        return f"data row {m[3]} has width {m[2]}, the header width {m[1]}"
    return str(exc)


def _loadtxt(lines, dtype):
    """np.loadtxt of comma-separated lines, a file or a list; empty ones are skipped."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


# a regular file is parsed in up to one range of lines per usable CPU, each
# of at least this many bytes: forking a child of a process of 80 MiB costs
# about 2 ms, and parsing this many bytes of numbers about 14
_RANGE_MIN = 1 << 20


def _ranges(raw) -> list:
    """(start, stop) byte ranges that cover the open binary file raw, each
    but the last ending just after a \\n, and the last with stop None: one
    per usable CPU, of at least _RANGE_MIN bytes. One range if raw is not
    a regular file, the platform does not tell the usable CPUs (only Linux
    does), or the process runs another thread: a forked child would find
    the locks that thread holds held for good."""
    st = os.fstat(raw.fileno())
    if (not stat.S_ISREG(st.st_mode) or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return [(0, None)]
    k = min(len(os.sched_getaffinity(0)), st.st_size // _RANGE_MIN)
    starts = {0}
    for i in range(1, k):
        offset = st.st_size * i // k
        while chunk := os.pread(raw.fileno(), 1 << 16, offset):
            if (at := chunk.find(b"\n")) >= 0:
                starts.add(offset + at + 1)
                break
            offset += len(chunk)
    return list(itertools.pairwise([*sorted(starts - {st.st_size}), None]))


def _fork_range(path, start, stop, dtype, inherited) -> tuple[int, int]:
    """(read end, pid) of a forked child that parses bytes start:stop of
    path into rows of dtype and writes them to the pipe behind that read
    end. It exits 0 only if it wrote them all without a warning, and never
    writes to stdout or stderr. It closes the read ends `inherited`."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return read_end, pid
    code = 1
    try:
        for fd in (read_end, *inherited):
            os.close(fd)
        with open(path, "rb") as raw, warnings.catch_warnings(record=True) as caught, \
                io.TextIOWrapper(_PlainBytes(raw, start, stop), encoding="ascii") as fh:
            warnings.simplefilter("always")
            raw.seek(start)
            rows = _loadtxt(fh, dtype)
        with open(write_end, "wb") as pipe:
            pipe.write(rows.tobytes())
        code = 1 if caught else 0
    finally:
        os._exit(code)


def _read_table(path, n_preamble: int, expected_header: str, header_ok, dtype):
    """(preamble, columns) of a CSV file under the ASCII input rule, read
    by numpy's C parser: n_preamble lines, as strings, then the header,
    which must pass header_ok, then the data rows, parsed as a structured
    array of dtype(header) and returned as a contiguous array per field.
    The data rows of each range of _ranges but the first are parsed in a
    forked child; if any range fails, the file is read again as one
    range, so every failure is the whole-file read's: a ParseError whose
    message starts with the path."""

    def read(ranges):
        (_, first_stop), *rest = ranges
        raw.seek(0)
        children = {}  # a child's read end -> its pid
        try:
            with io.TextIOWrapper(_PlainBytes(raw, 0, first_stop), encoding="ascii") as fh:
                preamble = [fh.readline().removesuffix("\n") for _ in range(n_preamble)]
                header = fh.readline().removesuffix("\n").split(",")
                if not header_ok(header):
                    raise ValueError(f"expected header {expected_header}, got {header}")
                fields = dtype(header)
                for start, stop in rest:
                    fd, children[fd] = _fork_range(path, start, stop, fields, children)
                parts = [_loadtxt(fh, fields)]
            parts += [np.frombuffer(io.FileIO(fd, closefd=False).readall(), fields)
                      for fd in children]
        finally:  # closed first, so that no child waits on a full pipe
            for fd in children:
                os.close(fd)
            statuses = [os.waitpid(pid, 0)[1] for pid in children.values()]
        if any(statuses):
            raise ChildProcessError(f"a range's reader ended with status {max(statuses)}")
        return preamble, parts

    try:
        with open(path, "rb") as raw:
            ranges = _ranges(raw)
            try:
                preamble, parts = read(ranges)
            except (OSError, ValueError):
                if len(ranges) == 1:
                    raise
                preamble, parts = read([(0, None)])
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a byte outside the rule, the header, a cell or a row's width
        raise ParseError(f"{path}: {_loadtxt_message(exc)}") from exc
    if not sum(map(len, parts)):
        raise ParseError(f"{path}: header but no data rows")
    return preamble, [np.concatenate([part[name] for part in parts])
                      for name in parts[0].dtype.names]


def load_dataset(path) -> SyntheticDataset:
    """The dataset of a file save_dataset wrote, read under the ASCII input
    rule; every malformed or out-of-range value is a ParseError."""
    # a split cell is read one character wider than the widest split, so
    # that a longer one is never cut down to a valid name
    (comment,), (split, labels, noise, features) = _read_table(
        path, 1, "'split,label,noise_level,f0[,f1,...]'", lambda header: header == [
            "split", "label", "noise_level", *(f"f{j}" for j in range(len(header) - 3))],
        lambda header: [("split", "<U6"), ("label", np.int64), ("noise_level", np.float64),
                        ("features", np.float64, (len(header) - 3,))])
    if features.shape[1] < 1:
        raise ParseError(f"{path}: no feature columns")
    prefix, _, values = comment.partition("=")
    if prefix != "# class_complexity":
        raise ParseError(f"{path}: line 1 is not a '# class_complexity=...' comment")
    try:
        comp = _loadtxt([values], np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: class_complexity {values!r} is not a list of numbers") from exc
    if comp.shape[0] < 2:
        raise ParseError(f"{path}: class_complexity has {comp.shape[0]} entry, need >= 2 classes")
    if not (known := np.isin(split, SPLITS)).all():
        raise ParseError(f"{path}: data row {np.argmin(known) + 1} has a split other than {SPLITS}")
    if labels.min() < 0 or labels.max() >= comp.shape[0]:
        raise ParseError(f"{path}: label outside [0, {comp.shape[0]})")
    if not np.all(np.isfinite(features)):
        raise ParseError(f"{path}: features contain NaN or Inf")
    for name, values in (("noise_level", noise), ("class_complexity", comp)):
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ParseError(f"{path}: {name} outside [0, 1]")
    return SyntheticDataset(features, labels, noise, comp, split.astype("<U5"))
