"""Speed-calibrated repetition timing.

The host's speed drifts by up to 1.7x, in phases from a fraction of a
second to tens of seconds, so a raw wall-clock time says as much about
the phase as about the code. While a repetition runs, a SIGALRM every
INTERVAL_S therefore runs one short calibration chunk in the same thread,
between two bytecodes of the timed code, and times it. The repetition's
work time is its wall time less the chunks' time, and it is scaled by
(NOMINAL_CHUNK_S / mean chunk time) ** EXPONENT: the result reads as
seconds on a host that runs the chunk in NOMINAL_CHUNK_S. The chunks
sample the same half-second phases the work runs in, which bracketing a
one-second fit by kernel timings before and after it does not.

EXPONENT is above 1 because the program's work slows more than the chunk
when the host slows: regressing log work time on log chunk time over 44
repetitions each of six kinds of work (two fits, smoothed and raw
predict, load) gave slopes from 0.97 (fits) to 1.55 (load), 1.25 in the
middle.

The chunk mixes the kinds of work the program does: small-array numpy
calls in a Python loop (the shape of the EM and split loops), a
vectorised ``scipy.special.ndtr`` block (the shape of kernel smoothing)
and plain interpreter work. It imports nothing from ``icrf``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

# Reference chunk time: about its median on a 2-vCPU x86-64 host, BLAS on one thread.
NOMINAL_CHUNK_S = 0.0007
EXPONENT = 1.2
INTERVAL_S = 0.01  # chunks take about 7% of a timed repetition

_EM_ITERS = 12
_NDTR_SHAPE = (101, 60)
_PY_ITERS = 1500


def _chunk_inputs():
    rng = np.random.default_rng(0x5EED)
    a = (rng.random((40, 12)) < 0.3).astype(float)
    a[np.arange(40), np.arange(40) % 12] = 1.0
    z = rng.standard_normal(_NDTR_SHAPE)
    return a, z


_A, _Z = _chunk_inputs()


def chunk() -> float:
    """Run the calibration chunk once; return a value so no work is skipped."""
    a = _A
    p = np.full(a.shape[1], 1.0 / a.shape[1])
    for _ in range(_EM_ITERS):
        denom = np.maximum(a @ p, 1e-300)
        p = (a * (p[None, :] / denom[:, None])).sum(axis=0) / a.shape[0]
    block = ndtr(_Z) - ndtr(-_Z - 0.5)
    acc = 0
    for i in range(_PY_ITERS):
        acc += i * i % 7
    return float(p.sum() + block.sum() + acc)


_samples: list[float] = []
_busy = False


def _sample(signum=None, frame=None):
    """Time one chunk. An alarm that arrives while a chunk runs (after a
    stall longer than INTERVAL_S) is dropped: handled inside the chunk it
    would add its own time to that chunk's and be counted twice."""
    global _busy
    if _busy:
        return
    _busy = True
    try:
        t0 = time.perf_counter()
        chunk()
        _samples.append(time.perf_counter() - t0)
    finally:
        _busy = False


def chunk_time(count: int = 40) -> float:
    """Mean time of ``count`` back-to-back chunks."""
    _samples.clear()
    for _ in range(count):
        _sample()
    return statistics.fmean(_samples)


@dataclass
class Phase:
    """Repetitions of one timed phase: work seconds and mean chunk times."""

    name: str
    per_call: int = 1  # calls per repetition; times are reported per call
    raw: list = field(default_factory=list)
    chunk_s: list = field(default_factory=list)

    def calibrated(self) -> list:
        return [r / self.per_call * (NOMINAL_CHUNK_S / c) ** EXPONENT
                for r, c in zip(self.raw, self.chunk_s)]

    def estimate(self) -> float:
        """Mean of the calibrated repetitions less the fastest and slowest
        fifth: robust to a stall, and steadier than the median where the
        repetitions run on different models."""
        values = sorted(self.calibrated())
        cut = len(values) // 5
        return statistics.fmean(values[cut:len(values) - cut])

    def summary(self) -> dict:
        return {
            "reps": len(self.raw),
            "calls_per_rep": self.per_call,
            "calibrated_s": [round(v, 6) for v in self.calibrated()],
            "raw_s": [round(r / self.per_call, 6) for r in self.raw],
            "chunk_ms": [round(1e3 * c, 4) for c in self.chunk_s],
        }


def timed(phase: Phase, work):
    """One repetition: call ``work()`` (which makes ``phase.per_call``
    calls) with calibration chunks interleaved; return work's result.

    The heap is collected and then frozen first, so that no collection of
    garbage left by earlier repetitions falls in this one, and a later
    ``gc.collect()`` does not rescan the fitted models (0.065 s a call
    on ``serve`` without the freeze)."""
    gc.collect()
    gc.freeze()
    _samples.clear()
    previous = signal.signal(signal.SIGALRM, _sample)
    t0 = time.perf_counter()
    try:
        _sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            out = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        _sample()  # also lets a signal still pending be handled here
        wall = time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    phase.raw.append(wall - sum(_samples))
    phase.chunk_s.append(statistics.fmean(_samples))
    return out
