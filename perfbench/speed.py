"""Machine-speed probes, so timings survive a host whose speed drifts.

On the shared 2-core Xeon this benchmark was written on, a fixed
pure-Python loop ran 30-40% faster or slower from one stretch of 5 to 90
seconds to the next, on an otherwise idle box, and numpy kernels drifted
with it.  Whole runs landed in a fast or a slow stretch, so medians within a
run could not remove the drift.  A fixed probe that does not touch the
package is therefore timed next to every measured interval, and the
interval is reported at the reference speed, the speed at which the probe
takes its reference time:

    reported = measured * reference / (mean of the probes just before and after)

The interpreter probe (a loop of float arithmetic and Python calls) tracks
interpreter-bound work; the array probe (ufunc passes into preallocated
buffers) tracks numpy kernels.  Each
workload names the probe that resembles its work.  A change to the package
cannot change a probe, so its gains and losses pass through unscaled.
"""

from __future__ import annotations

import math
import time

import numpy as np

# a probe older than this no longer describes the machine's speed
STALE_S = 1.0

_DATA = np.random.default_rng(0).random(200_000)
_BUF = np.empty_like(_DATA)   # no allocation in the probe: page faults vary more than the CPU


def _step(x: float) -> float:
    return x * 0.5 + 1.0


def _interpreter_work() -> None:
    # float arithmetic and calls only: floats come from a free list, so the
    # probe does not depend on what the workload left on the heap (string
    # formatting and integer objects did, by up to a factor of two)
    acc = 0.0
    for _ in range(80_000):
        acc = _step(acc) * 0.999


def _array_work() -> None:
    for _ in range(16):
        np.multiply(_DATA, _DATA, out=_BUF)
        np.add(_BUF, 1.0, out=_BUF)
        np.sqrt(_BUF, out=_BUF)


# probe work and its reference time, a round figure near its median on that box
PROBES = {
    "interpreter": (_interpreter_work, 0.010),
    "array": (_array_work, 0.010),
}


class Speed:
    """Times intervals and scales them to the reference speed of one probe."""

    def __init__(self, kind: str):
        self._work, self.reference = PROBES[kind]
        self._probe = 0.0
        self._at = -math.inf
        self.probes: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        self._work()
        self._at = time.perf_counter()
        self._probe = self._at - t0
        self.probes.append(self._probe)
        return self._probe

    def measure(self, fn, *args, **kwargs):
        """Run fn; return (result, seconds, seconds at the reference speed)."""
        before = self._probe if time.perf_counter() - self._at <= STALE_S else self.probe()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = self.probe()
        return out, dt, dt * self.reference / (0.5 * (before + after))
