"""Small trainable MLP classifiers and synthetic datasets.

The MLP is rectifier-hidden / identity-output, trained with plain
mini-batch SGD. Datasets are Gaussian class clusters whose center
spacing shrinks linearly with a per-class complexity knob, with three
noise corruptions (gaussian / salt_pepper / uniform) applied on top.

Every stochastic operation takes an explicit seed and draws from a
fresh numpy Generator, so all artifacts are reproducible byte for byte.
derive_seed turns a tuple of integers into such a seed.
"""

from __future__ import annotations

import math
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


@dataclass
class MlpModel:
    """Fully-connected net; weights[k] has shape (dims[k+1], dims[k])."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]


def init_mlp(layer_dims, seed: int) -> MlpModel:
    """Uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidShape(f"layer_dims must be >= 2 positive sizes, got {layer_dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, weights, biases)


def _flat_views(layer_dims, vector: np.ndarray):
    """(weights, biases) laid out layer by layer, each a view of vector."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(vector[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(vector[at : at + fan_out])
        at += fan_out
    return weights, biases


def _flat_copy(model: MlpModel):
    """(copy, vector): a copy of model whose weights and biases are views
    of one new vector."""
    vector = np.concatenate([a.ravel() for w, b in zip(model.weights, model.biases)
                             for a in (w, b)])
    return MlpModel(list(model.layer_dims), *_flat_views(model.layer_dims, vector)), vector


def _check_features(model: MlpModel, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeMismatch(f"expected (n, {model.input_dim}) features, got {x.shape}")


def _layers(model: MlpModel):
    """(weights, transposed weights, biases) of model, all views of its arrays."""
    return model.weights, [w.T for w in model.weights], model.biases


def _forward(layers, x: np.ndarray):
    """Returns (logits, inputs per layer) for unchecked features x."""
    _, weights_t, biases = layers
    acts = []
    a = x
    last = len(biases) - 1
    for k, (w_t, b) in enumerate(zip(weights_t, biases)):
        acts.append(a)
        a = a @ w_t
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
    return a, acts


def forward_batch(model: MlpModel, x) -> np.ndarray:
    """Logits for an (n, input_dim) feature matrix."""
    x = np.asarray(x, dtype=np.float64)
    _check_features(model, x)
    return _forward(_layers(model), x)[0]


def _backward(weights, acts, dlogits, grads_w, grads_b) -> None:
    """Reverse-mode gradients given d(loss)/d(logits) per row, written into
    grads_w and grads_b; a ReLU passes gradient where its output, and so
    its input, is positive."""
    delta = dlogits
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, acts[k], out=grads_w[k])
        np.add.reduce(delta, axis=0, out=grads_b[k])
        if k > 0:
            delta = delta @ weights[k]
            delta *= acts[k] > 0.0


def _step(layers, x, loss_rows, targets, grads):
    """One mini-batch: the forward pass, loss_rows(logits, *targets), then
    the backward pass of the mean loss into the gradient views
    grads = (weights, biases). Returns the per-row losses."""
    logits, acts = _forward(layers, x)
    losses, dlogits = loss_rows(logits, *targets)
    _backward(layers[0], acts, dlogits / x.shape[0], *grads)
    return losses


def _check_targets(targets, n_rows: int) -> None:
    if any(np.shape(t)[:1] != (n_rows,) for t in targets):
        raise ShapeMismatch(f"every target must have {n_rows} rows, got shapes "
                            f"{[np.shape(t) for t in targets]}")


def loss_gradients(model: MlpModel, batch, loss_rows, targets):
    """Gradients of the mean batch loss w.r.t. every weight and bias.

    targets is a tuple of arrays indexed by batch row, and
    loss_rows(logits, *targets) must return (per-row losses, dloss/dlogits)
    for the (n, C) logits of the batch; the gradient it returns is treated
    as exact.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeMismatch(f"batch must be a nonempty 2-D matrix, got shape {x.shape}")
    _check_targets(targets, x.shape[0])
    _check_features(model, x)
    grads = np.empty(sum(w.size + b.size for w, b in zip(model.weights, model.biases)))
    gw, gb = _flat_views(model.layer_dims, grads)
    total = float(np.sum(_step(_layers(model), x, loss_rows, targets, (gw, gb))))
    if not np.isfinite(total):
        raise NonFiniteLoss(f"batch loss is {total!r}")
    return total / x.shape[0], gw, gb


def _one_hot(labels: np.ndarray, n_classes: int):
    """(mask, one-hot float matrix) of labels, each (n, n_classes); a label
    outside [0, n_classes) gives an all-zero row."""
    mask = labels[:, None] == np.arange(n_classes)
    return mask, mask.astype(np.float64)


def _cross_entropy_rows(logits, mask, one_hot):
    """Per-row cross_entropy(label, stable_softmax(row)) and its gradient
    softmax(row) - onehot(label), bit for bit, with the labels as _one_hot's
    two matrices: the loss_rows train_supervised gives sgd_fit."""
    p = numerics._softmax(logits)
    losses = -numerics._log_floor(p)[mask]
    p -= one_hot
    return losses, p


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
    logits = forward_batch(model, features)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def sgd_fit(model: MlpModel, dataset: SyntheticDataset, cfg: TrainConfig, loss_rows, targets):
    """Shared SGD loop over the train split; returns (model, history).

    targets is a tuple of arrays indexed by dataset row. Each epoch gathers
    the features and every target in the epoch's shuffled order once; each
    mini-batch then calls loss_rows(logits, *target rows), with views of
    those gathers, for (per-row losses, dloss/dlogits) of its (b, C)
    logits. The caller's model is left untouched: training runs on a copy
    whose weights and biases are views of one parameter vector, and each
    mini-batch updates that vector with one subtraction. A non-finite
    training loss, or parameters that are not finite at the end of an
    epoch, raise NonFiniteLoss; numpy's overflow warnings on the way there
    are silenced.
    """
    train_idx = dataset.indices("train")
    val_idx = dataset.indices("val")
    labels = dataset.labels[train_idx]
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise IndexOutOfRange(f"train labels outside [0, {model.n_classes})")
    _check_targets(targets, dataset.n_samples)
    _check_features(model, dataset.features)
    model, params = _flat_copy(model)
    layers = _layers(model)
    grads = np.empty_like(params)
    grad_views = _flat_views(model.layer_dims, grads)
    val_x, val_y = dataset.features[val_idx], dataset.labels[val_idx]
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = train_idx[rng.permutation(train_idx.size)]
            # np.take copies the rows that fancy indexing would, in a third
            # of its time on these 2-D and 3-D arrays
            x = np.take(dataset.features, order, axis=0)
            columns = [np.take(t, order, axis=0) for t in targets]
            loss_sum = 0.0
            for start in range(0, order.size, cfg.batch_size):
                stop = start + cfg.batch_size
                losses = _step(layers, x[start:stop], loss_rows,
                               [c[start:stop] for c in columns], grad_views)
                # one row at a time, in batch order, so that train_loss does
                # not depend on the order in which numpy would sum
                for loss in losses.tolist():
                    loss_sum += loss
                if not math.isfinite(loss_sum):
                    raise NonFiniteLoss(f"training loss became {loss_sum!r}")
                params -= cfg.learning_rate * grads
            if not np.isfinite(params).all():
                raise NonFiniteLoss("training left non-finite parameters")
            history.train_loss.append(loss_sum / order.size)
            val_pred = np.argmax(_forward(layers, val_x)[0], axis=1)
            history.val_accuracy.append(float(np.mean(val_pred == val_y)))
    return model, history


def train_supervised(model: MlpModel, dataset: SyntheticDataset, cfg: TrainConfig):
    """Cross-entropy SGD on the train split; returns (model, history)."""
    return sgd_fit(model, dataset, cfg, _cross_entropy_rows,
                   _one_hot(dataset.labels, model.n_classes))


# ---------------------------------------------------------------------------
# dataset file format
# ---------------------------------------------------------------------------


def save_dataset(dataset: SyntheticDataset, path) -> None:
    """Columnar text file: complexity comment, header, one row per sample.

    Floats are written with repr() so the round-trip is bit-exact.
    """
    d = dataset.n_features
    lines = ["# class_complexity=" + ",".join(repr(float(c)) for c in dataset.class_complexity)]
    lines.append("split,label,noise_level," + ",".join(f"f{j}" for j in range(d)))
    for i in range(dataset.n_samples):
        row = [dataset.split[i], str(int(dataset.labels[i])), repr(float(dataset.noise_level[i]))]
        row.extend(repr(float(v)) for v in dataset.features[i])
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> SyntheticDataset:
    try:
        with open(path) as fh:
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
            if len(cells) != d + 3 or cells[0] not in SPLITS:
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
    return SyntheticDataset(
        features, np.array(labels, dtype=np.int64), noise_arr, comp,
        np.array(splits, dtype="<U5"),
    )
