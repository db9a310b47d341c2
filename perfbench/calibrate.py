"""Measure the machine's speed while the benchmark runs, and scale by it.

The benchmark runs on a few cores of a shared host whose speed changes
with the host's load, in spells of seconds to hours, by up to 2x. So
the end-to-end times are reported in reference seconds:

    reference seconds = own seconds * REFERENCE_S / reference task time

A SpeedSampler runs a small fixed reference task every SAMPLE_EVERY_S
seconds, interrupting whatever is being timed (a SIGALRM timer; the
handler runs between two Python bytecodes of the program), so the
samples fall inside the operations, under the same spells of load.
"Own seconds" are wall seconds minus the time spent sampling, read from
SpeedSampler.now(). Operations are scaled by the run's mean sample,
trimmed of its lowest and highest TRIM share: an operation's time adds
up its moments the way a mean does, and the mean tracked it better than
the median sample. A set-up is too short for the timer to sample it
well, so it is scaled by probes run just before and just after it.

The reference task is a fixed mix of the kinds of work the workloads do,
weighted by how well each part's time tracked the program's through the
host's spells: mostly per-row calls of small validating softmax and KL
functions on tiny numpy arrays (the shape of the training loops'
per-row losses), plus per-row SGD steps, CSV float parsing and a sort.
It runs no code of the program and touches none of its state, so a
change to the program moves reference seconds by exactly its own effect
on wall time. Its inputs are fixed; they never depend on the workload
seed.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# time of the reference task in a quiet spell of the machine the
# benchmark was built on (2 vCPUs of an Intel Xeon at 2.0 GHz); any
# constant would do, this one keeps reference seconds near wall seconds
REFERENCE_S = 0.010
# seconds of timed work between two reference tasks
SAMPLE_EVERY_S = 0.25
# reference tasks in one probe; their median is the probe
PROBE_REPEATS = 3
# share of the lowest and of the highest samples left out of their mean
TRIM = 0.1

_rng = np.random.default_rng(12345)
_ROWS = _rng.normal(size=(130, 4)).tolist()
_W1 = _rng.normal(size=(8, 16))
_W2 = _rng.normal(size=(16, 4))
_X = _rng.normal(size=(35, 8))
_Y = _rng.integers(0, 4, 35)
_LINES = [",".join(map(repr, row)) for row in _rng.random((150, 11)).tolist()]
_SCORES = _rng.random(10_000)


@dataclass
class _Pair:
    divergence: float
    top: float


def _vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError("expected a finite nonempty vector")
    return v


def _softmax(values, temperature: float) -> np.ndarray:
    z = _vector(values) / temperature
    e = np.exp(z - z.max())
    return e / e.sum()


def _divergence(p, q) -> float:
    p, q = _vector(p), _vector(q)
    keep = p > 0.0
    return float(np.sum(p[keep] * (np.log(p[keep]) - np.log(q[keep]))))


def reference_task() -> float:
    """Run the fixed task once; returns a value that depends on all of it."""
    total = 0.0
    for row, previous in zip(_ROWS, _ROWS[-1:] + _ROWS[:-1]):
        p, q = _softmax(previous, 2.0), _softmax(row, 2.0)
        total += _Pair(_divergence(p, q), float(q[0])).divergence
    w1, w2 = _W1.copy(), _W2.copy()
    for x, y in zip(_X, _Y):
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        p = np.exp(z - z.max())
        p /= p.sum()
        p[y] -= 1.0
        dh = (w2 @ p) * (h > 0)
        w2 -= 0.01 * np.outer(h, p)
        w1 -= 0.01 * np.outer(x, dh)
    parsed = sum(sum(float(v) for v in line.split(",")) for line in _LINES)
    order = np.argsort(_SCORES, kind="stable")
    return total + float(w1.sum() + w2.sum()) + parsed + float(order[0])


class SpeedSampler:
    """Times the reference task every SAMPLE_EVERY_S seconds while active.

    The timer is re-armed only after a task ends, so tasks never nest.
    """

    def __init__(self):
        self.samples = []  # wall seconds of each reference task
        self.spent = 0.0  # wall seconds spent sampling, timer handler included
        self._previous = None

    def now(self) -> float:
        """A clock that stands still while the sampler works."""
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_task()
        self.samples.append(time.perf_counter() - start)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)  # arms the timer
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe(self) -> float:
        """Median own time of PROBE_REPEATS reference tasks run now."""
        times = []
        for _ in range(PROBE_REPEATS):
            start = self.now()
            reference_task()
            times.append(self.now() - start)
        return statistics.median(times)

    def mean_sample(self) -> float:
        """Mean of the samples, TRIM of them cut off at each end."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def scale(self, own_s: float, reference_s: float | None = None) -> float:
        """Own seconds measured while the reference task took `reference_s`
        (by default the trimmed mean sample) in reference seconds."""
        if reference_s is None:
            reference_s = self.mean_sample()
        return own_s * REFERENCE_S / reference_s
