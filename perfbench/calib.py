"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose CPU speed drifts: on a 2-vCPU Xeon
VM the same code was seen to run up to 1.5x (BLAS-bound training) and 2x
(interpreter-bound serving) faster for seconds to minutes at a time, with
process CPU time equal to wall time throughout, so it was not time stolen by
the host. A drift that lasts a whole run cannot be averaged out inside it.

So an untraced run samples a fixed reference kernel that lives here, outside
the program, on a timer: every INTERVAL_S a SIGALRM handler runs the kernel
REPS times and records the median. The kernel mixes the three kinds of work
the program does: a small MLP forward and backward pass at batch 32, a loop
of per-point small-array numpy calls, and a scalar-math Python loop. Each
timed segment is reported at the reference speed, from the samples taken
while it ran (or, for a segment shorter than MIN_SPAN_S, during the span of
that length about it) and the nearest one on either side:

    reported = raw * REF_S / mean(kernel samples around the segment)

`raw` is the segment's wall time minus the time spent in the handler. A
change to the program moves `raw` and not the kernel, so it shows in full; a
change in the machine's speed moves both and cancels to the extent that the
kernel slows like the program.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference machine (2-vCPU "Intel(R) Xeon(R)
# Processor" VM, numpy 2.4 with OpenBLAS at one thread). A fixed constant:
# it only sets the scale of the reported times.
REF_S = 7.0e-4
REPS = 12          # kernel calls per sample; the sample is their median
INTERVAL_S = 0.4   # timer period; sampling takes about 2% of a run
MIN_SPAN_S = 2.0   # shorter segments are scaled by the samples of this span

_rng = np.random.default_rng(20250317)
_W1 = 0.1 * _rng.standard_normal((64, 128))
_W2 = 0.1 * _rng.standard_normal((128, 64))
_X = _rng.standard_normal((32, 64))
_PTS = _rng.standard_normal((24, 2))


def kernel() -> float:
    """One unit of reference work, about 0.7 ms on the reference machine."""
    # batched dense layers, forward and backward
    h = np.tanh(_X @ _W1)
    y = h @ _W2
    gy = y - _X
    gh = (gy @ _W2.T) * (1.0 - h * h)
    total = float((_X.T @ gh).sum() + (h.T @ gy).sum())
    # per-point small-array calls
    for p in _PTS:
        c, s = np.cos(p[0]), np.sin(p[0])
        r = np.array([[c, -s], [s, c]])
        total += float(np.hypot(*(r @ p)))
    # scalar Python math
    x, v = 0.0, 1.0
    for k in range(300):
        a = math.atan2(math.sin(k * 0.1) - x, math.cos(k * 0.1) + 1.5)
        v = min(v + 0.1 * math.cos(a), 2.0)
        x += 0.05 * v * math.sin(a)
    return total + x


class Speed:
    """Timer-driven reference-kernel samples. Disabled (the traced run), it
    takes no samples and every scale is 1."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: list[float] = []    # mid time of each sample
        self.kernel_s: list[float] = []  # its median kernel time
        self.spent = 0.0                 # wall time spent sampling
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reps = []
        for _ in range(REPS):
            t = perf_counter()
            kernel()
            reps.append(perf_counter() - t)
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.kernel_s.append(statistics.median(reps))
        self.spent += t1 - t0
        self._busy = False

    def start(self):
        if self.enabled:
            self.sample()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """Start of a timed segment."""
        return perf_counter(), self.spent

    def split(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """The segment begun at `mark`: (start, end, raw seconds net of
        sampling). Scale it with `scaled` once the run's samples are in."""
        t0, spent = mark
        t1 = perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent)

    def scaled(self, segment: tuple[float, float, float]) -> float:
        """A segment's seconds at the reference speed."""
        t0, t1, raw = segment
        return raw * self.scale(t0, t1)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from raw seconds to seconds at the reference speed over
        [t0, t1], widened to MIN_SPAN_S about its middle: the samples inside
        it and the nearest one on each side. One sample is too short to
        follow the program's speed; a mean over about two seconds follows it
        closely (see README.md)."""
        if not self.kernel_s:
            return 1.0
        pad = max(0.0, MIN_SPAN_S - (t1 - t0)) / 2
        t0, t1 = t0 - pad, t1 + pad
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        return REF_S / statistics.fmean(self.kernel_s[lo:hi])

    def summary(self) -> dict:
        k = self.kernel_s
        return {"ref_s": REF_S, "reps": REPS, "interval_s": INTERVAL_S,
                "samples": len(k), "sampling_s": self.spent,
                "median_s": statistics.median(k) if k else None,
                "min_s": min(k, default=None), "max_s": max(k, default=None)}
