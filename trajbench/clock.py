"""Timing scaled to a reference machine speed.

On a shared host the speed a process gets drifts by tens of percent over
seconds, as neighbours load the cores and caches it shares. While a phase
of the benchmark runs, a SIGALRM handler runs a fixed reference kernel of
small numpy operations and interpreted Python (the mix trajgraph spends
its time in) every PERIOD_S seconds and records how long it took. A timed
unit's wall time, with the handler's own time taken out, is scaled by
REFERENCE_MS over the mean kernel time sampled during the unit and one
period either side of it: work that ran while the host was slow is scaled
down by as much as the kernel was slowed. Wall times are kept.

The kernel writes into arrays of its own that it allocates once, and each
sample runs it twice and records the second run, so the caches the
program left cold and the state of its heap do not enter the sample.
Measured so (METRICS.md), the kernel's time while trajgraph trains is
within 2% of its time while a memory-streaming loop runs.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_MS = 10.0     # the reference kernel's time at reference speed, by definition
PERIOD_S = 0.2          # wall seconds between reference samples

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((3000, 64))
_WEIGHT = _rng.standard_normal((64, 64))
_INDEX = _rng.integers(0, 200, 3000)
_PRODUCT = np.empty((3000, 64))
_OUT = np.empty((200, 64))


def reference_kernel():
    """Fixed work: small matmuls, scatter-adds, a Python loop."""
    acc = 0.0
    for _ in range(3):
        np.matmul(_ROWS, _WEIGHT, out=_PRODUCT)
        _OUT.fill(0.0)
        np.add.at(_OUT, _INDEX, _PRODUCT)
        acc += float(_OUT[0, 0])
        for i in range(300):
            acc += i
    return acc


class ScaledClock:
    """A wall clock that stops while the reference kernel runs, plus the
    units of work timed with it.

    Use as a context manager around the work: sampling runs only inside it.
    start() and stop(kind) bracket one unit of a kind; scaled_s(kind) and
    raw_s(kind) give the unit times once the context has closed.
    """

    def __init__(self):
        self.samples = []         # (now() at the sample, kernel ms)
        self.units = {}           # kind -> [(now() at start, now() at stop)]
        self._paused_s = 0.0
        self._t0 = None
        self._previous_handler = None

    def now(self):
        return time.perf_counter() - self._paused_s

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()          # warm-up: brings the kernel's arrays into cache
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.samples.append((t0 - self._paused_s, 1e3 * (t2 - t1)))
        self._paused_s += t2 - t0

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, exc_type, exc, tb):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample(signal.SIGALRM, None)
        return False

    def start(self):
        self._t0 = self.now()

    def stop(self, kind):
        self.units.setdefault(kind, []).append((self._t0, self.now()))

    def raw_s(self, kind):
        return [t1 - t0 for t0, t1 in self.units.get(kind, [])]

    def scaled_s(self, kind):
        times = np.array([t for t, _ in self.samples])
        kernel_ms = np.array([ms for _, ms in self.samples])
        scaled = []
        for t0, t1 in self.units.get(kind, []):
            near = (times >= t0 - PERIOD_S) & (times <= t1 + PERIOD_S)
            if not near.any():  # the handler ran late: take the closest sample
                gap = np.abs(times - 0.5 * (t0 + t1))
                near = gap == gap.min()
            scaled.append((t1 - t0) * REFERENCE_MS / float(kernel_ms[near].mean()))
        return scaled

    def median_reference_ms(self):
        return statistics.median(ms for _, ms in self.samples)
