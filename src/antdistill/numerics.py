"""Numerically stable probability kernels.

All functions are pure. The validators check 1-D inputs: logit vectors
(`as_logits`) may be any finite reals; probability vectors
(`as_distribution`) must lie in [0, 1] and sum to 1 (validated to
1e-6). Logs inside KL and cross-entropy are floored at EPS so
exactly-zero probabilities from extreme logits stay finite. The two
`*_rows` forms compute softmax (at a temperature that defaults to 1)
and normalized entropy for (n, C) rows, unvalidated, because their
callers check inputs once, at the boundary; `stable_softmax` validates
one logit vector, then calls `softmax_rows` on a batch of one.
`metrics` checks a whole probability matrix at once with the
`as_distribution` checks and tolerance (`_DIST_TOL`), and passes the
first bad row to `as_distribution` for its error.

The training loss pairs in `tinynet` and `distill` use the private
pieces these forms are built from: `_softmax` along the last axis of
any array, in each pair's gradient half, once per mini-batch; the
floored log `_log_floor` and the KL split in two, in each loss half,
once per epoch on every row's probabilities: the half that depends
only on p (`_kl_target`, computed once per training run) and the row
sums against log q (`_kl_rows`).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution, InvalidShape, NonFiniteInput, NonPositiveTemperature

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
    if abs((total := float(p.sum())) - 1.0) > _DIST_TOL:
        raise InvalidDistribution(f"distribution sums to {total!r}, not 1")
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


def softmax_rows(logits: np.ndarray, temperature=1.0) -> np.ndarray:
    """Softmax of each row of an (n, C) matrix divided by temperature, via
    max-subtraction. temperature is one scalar or one value per row, and
    defaults to 1."""
    t = np.asarray(temperature, dtype=np.float64)
    return _softmax(logits / (t[:, None] if t.ndim else t))


def _softmax(s: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of s, via max-subtraction; s is left alone.
    The ufuncs' reduce, not ndarray.max/sum: the same reductions, without
    their Python wrappers."""
    e = s - np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _log_floor(p: np.ndarray) -> np.ndarray:
    """log(max(p, EPS)), elementwise, for an array p."""
    floored = np.maximum(p, EPS)
    return np.log(floored, out=floored)


def _kl_target(p: np.ndarray):
    """(p with every entry that is not > 0 set to 0, its _log_floor): the
    half of KL(p || q) that does not depend on q."""
    p = np.where(p > 0.0, p, 0.0)
    return p, _log_floor(p)


def _kl_rows(p: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL(p_i || q_i) of each row as an (n, 1) column, from _kl_target(p)
    and _log_floor(q). A term with p = 0 is +-0, which leaves the sum of a
    row that holds a positive p unchanged, bit for bit."""
    terms = log_p - log_q
    terms *= p
    return np.add.reduce(terms, axis=-1, keepdims=True)


def normalized_entropy_rows(p: np.ndarray) -> np.ndarray:
    """Normalized entropy of each row of an (n, C) probability matrix."""
    u = -np.where(p > 0.0, p * _log_floor(p), 0.0).sum(axis=1) / np.log(p.shape[1])
    u = np.where(u > 0.0, u, 0.0)  # max(0, u), not np.clip: a one-hot row's -0.0 reads 0.0
    return np.where(u < 1.0, u, 1.0)
