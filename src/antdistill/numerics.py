"""Numerically stable probability kernels.

All functions are pure. The public 1-D kernels validate their inputs:
logit vectors may be any finite reals; probability vectors must lie in
[0, 1] and sum to 1 (validated to 1e-6). Logs inside KL and
cross-entropy are floored at EPS so exactly-zero probabilities from
extreme logits stay finite. The two `*_rows` forms compute softmax and
normalized entropy for (n, C) rows, unvalidated, because their callers
check inputs once, at the boundary; `stable_softmax`, `kl_divergence`
and `normalized_entropy` validate, then call them or the KL kernels
below on a batch of one. `metrics` checks a whole probability matrix at
once with the `as_distribution` checks and tolerance (`_DIST_TOL`), and
passes the first bad row to `as_distribution` for its error.

The training kernels in `tinynet` and `distill` use the private pieces
these forms are built from: `_softmax` along the last axis of any
array, the floored log `_log_floor`, and the KL split in two, the half
that depends only on p (`_kl_target`, computed once per training run)
and the row sums against log q (`_kl_rows`).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidDistribution,
    InvalidShape,
    LengthMismatch,
    NonFiniteInput,
    NonPositiveTemperature,
)

EPS = 1e-12
_DIST_TOL = 1e-6


def as_logits(values) -> np.ndarray:
    """Validate and return a finite 1-D logit vector of length >= 2."""
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise InvalidShape(f"logits must be a 1-D vector of length >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteInput("logits contain NaN or Inf")
    return z


def as_distribution(values) -> np.ndarray:
    """Validate and return a 1-D probability vector (tolerance 1e-6)."""
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise InvalidShape(f"distribution must be a 1-D vector of length >= 2, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution("distribution contains NaN or Inf")
    if np.any(p < -_DIST_TOL) or np.any(p > 1.0 + _DIST_TOL):
        raise InvalidDistribution("distribution entries outside [0, 1]")
    if abs(float(p.sum()) - 1.0) > _DIST_TOL:
        raise InvalidDistribution(f"distribution sums to {p.sum()!r}, not 1")
    return p


def _check_temperature(temperature: float) -> float:
    t = float(temperature)
    if not t > 0.0:  # also rejects NaN
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature!r}")
    return t


def stable_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """softmax(logits / temperature) via max-subtraction.

    Larger temperatures flatten the distribution; the argmax never moves.
    """
    z = as_logits(logits)
    t = _check_temperature(temperature)
    return softmax_rows(z[None, :], t)[0]


def softmax_rows(logits: np.ndarray, temperature=None) -> np.ndarray:
    """Softmax of each row of an (n, C) matrix, via max-subtraction.

    temperature is one scalar or one value per row; None means 1, and
    skips the division, which at 1 changes no bit.
    """
    if temperature is not None:
        t = np.asarray(temperature, dtype=np.float64)
        logits = logits / (t[:, None] if t.ndim else t)
    return _softmax(logits)


def _softmax(s: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of s, via max-subtraction; s is left alone.
    The ufuncs' reduce, not ndarray.max/sum: the same reductions, without
    their Python wrappers."""
    e = s - np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _log_floor(p: np.ndarray) -> np.ndarray:
    """log(max(p, EPS)), elementwise."""
    return np.log(np.maximum(p, EPS))


def _kl_target(p: np.ndarray):
    """(p with every entry that is not > 0 set to 0, its _log_floor): the
    half of KL(p || q) that does not depend on q."""
    p = np.where(p > 0.0, p, 0.0)
    return p, _log_floor(p)


def _kl_rows(p: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL(p_i || q_i) of each row as an (n, 1) column, from _kl_target(p)
    and _log_floor(q). A term with p = 0 is +-0, which leaves the sum of a
    row that holds a positive p unchanged, bit for bit."""
    return np.add.reduce(p * (log_p - log_q), axis=-1, keepdims=True)


def normalized_entropy_rows(p: np.ndarray) -> np.ndarray:
    """Normalized entropy of each row of an (n, C) probability matrix."""
    u = -np.where(p > 0.0, p * np.log(np.maximum(p, EPS)), 0.0).sum(axis=1) / np.log(p.shape[1])
    u = np.where(u > 0.0, u, 0.0)  # max(0, u), not np.clip: a one-hot row's -0.0 reads 0.0
    return np.where(u < 1.0, u, 1.0)


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum(p * ln(p/q)), terms with p=0 drop out."""
    p = as_distribution(p)
    q = as_distribution(q)
    if p.shape != q.shape:
        raise LengthMismatch(f"length {p.shape[0]} vs {q.shape[0]}")
    return float(_kl_rows(*_kl_target(p[None]), _log_floor(q[None]))[0, 0])


def cross_entropy(target, predicted) -> float:
    """-sum(target * ln(predicted)); target is a distribution or a class index."""
    q = as_distribution(predicted)
    if isinstance(target, (int, np.integer)):
        c = int(target)
        if c < 0 or c >= q.shape[0]:
            raise IndexOutOfRange(f"class {c} out of range for {q.shape[0]} classes")
        return float(-np.log(max(q[c], EPS)))
    p = as_distribution(target)
    if p.shape != q.shape:
        raise LengthMismatch(f"length {p.shape[0]} vs {q.shape[0]}")
    return float(-(p * np.log(np.maximum(q, EPS))).sum())


def normalized_entropy(p) -> float:
    """Shannon entropy scaled to [0, 1]: 0 for one-hot, 1 for uniform."""
    p = as_distribution(p)
    return float(normalized_entropy_rows(p[None, :])[0])
