"""Machine-speed calibration of a timed region.

The benchmark runs on a few vCPUs of a shared host. How fast the same work
runs there swings by a third from second to second and from minute to
minute, with the load beside it, in CPU time as much as in wall time. Taken
alone, repetitions of identical work spread too widely to bound a change.

While a region runs, a SIGALRM timer interrupts it every ``PERIOD_S``
seconds and times one pass of a fixed reference kernel. The mean pass time
says how fast the machine ran during the region. The calibrated time is the
region's own time (its wall time minus the time spent in the kernel),
scaled by the kernel's reference pass time over that mean: the time the
region would have taken on a machine on which one pass takes the reference
time. The kernels are the benchmark's own code, so a change to wovr moves
the calibrated time and leaves the kernels alone.

A repetition is timed with ``mixed_kernel``: small matmuls and tanh, then
float, dict and list work in a Python loop, the two kinds of work in wovr's
inner loops. The import of wovr is timed with ``python_kernel`` alone,
because numpy must not be loaded before that import starts.
"""
import signal
import time

PERIOD_S = 0.02
PYTHON_ITERS = 400
NUMPY_ITERS = 15


def _step(x: float, i: int) -> float:
    return (x * 1.0001 + i) % 97.0


def python_kernel() -> float:
    acc, table, recent = 0.0, {}, []
    for i in range(PYTHON_ITERS):
        acc = _step(acc, i)
        table[i & 15] = acc
        recent.append(acc)
        if len(recent) > 8:
            recent.pop(0)
    return acc + sum(recent)


_OPERANDS = []


def mixed_kernel() -> float:
    import numpy as np  # loaded by wovr already; imported here to keep this module light

    if not _OPERANDS:
        rng = np.random.default_rng(0)
        _OPERANDS.extend([rng.standard_normal((32, 32)), rng.standard_normal(32)])
    a, v = _OPERANDS
    x = a.copy()
    acc = 0.0
    for _ in range(NUMPY_ITERS):
        x = np.tanh(x @ a * 0.01)
        acc += float(v @ x[0])
    return acc + python_kernel()


# About the fastest mean pass seen in a region on a 2-vCPU VM (Python 3.11,
# numpy 2.4, OpenBLAS on one thread). Constant scales: they make a calibrated
# time read close to the wall time of a quiet machine.
REFERENCE_S = {python_kernel: 0.15e-3, mixed_kernel: 0.3e-3}


class Sampler:
    """Times a kernel on every timer tick between start() and stop()."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        # a tick that lands inside a stalled pass is dropped, not nested
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.kernel()
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)
        self._busy = False

    def start(self):
        self.starts.clear()
        self.samples.clear()
        self.kernel()  # the first pass pays for lazy set-up, untimed
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ticks(self) -> tuple[list[float], list[float]]:
        """Start and end of every kernel pass, on the perf_counter clock."""
        return self.starts, [s + d for s, d in zip(self.starts, self.samples)]

    def calibrate(self, elapsed_s: float) -> tuple[float, float, float]:
        """The region's own time, its calibrated time and the mean pass time."""
        own = elapsed_s - sum(self.samples)
        mean = sum(self.samples) / len(self.samples) if self.samples else 0.0
        return own, own * REFERENCE_S[self.kernel] / mean if mean else own, mean
