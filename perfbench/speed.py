"""Machine-speed sampling for timings on a shared, noisy machine.

On a small shared box the speed of a CPU drifts by tens of percent over
seconds to minutes, independently per CPU, because of load outside our
processes; a median within a run cannot remove a slow minute, and a
single call of several seconds can span fast and slow stretches.

run.py pins all of a run's processes to one CPU and keeps a `Sampler`
thread running in run.py's own process: every PERIOD_S it times a fixed
pure-Python loop on that CPU, which the calls under test then cannot
use. run.py itself only waits while a call runs, so the loop sees
the CPU's speed at that moment. A timed interval is converted to
seconds at the reference speed by removing the loops' own time and
scaling by the mean speed the loops measured inside it:

    scaled = (wall - loop time inside) * REFERENCE_S * mean(1 / loop time)

A change to the program moves this as it moves wall time; a change of
the machine's speed does not. Raw wall times stay in the run's record.
"""

from __future__ import annotations

import bisect
import threading
from time import perf_counter

LOOPS = 20_000
REFERENCE_S = 0.0016  # one loop on an unloaded core of a 2-core Xeon VM
PERIOD_S = 0.05


def calibrate() -> float:
    """Wall seconds of one fixed pure-Python loop on the current CPU."""
    t0 = perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


class Sampler:
    """Times the calibration loop every PERIOD_S on a background thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = perf_counter()
            self.samples.append((t0, calibrate()))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, wall: float, t0: float, t1: float) -> float:
        """`wall` seconds of work done within [t0, t1], at the reference speed."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        stolen = sum(loop for _, loop in samples[lo:hi])
        if hi == lo:  # too short to hold a sample: use the nearest ones
            lo, hi = max(0, lo - 1), min(len(samples), lo + 1)
        if hi == lo:
            raise RuntimeError("no speed sample taken yet")
        inv = sum(1.0 / loop for _, loop in samples[lo:hi]) / (hi - lo)
        return max(wall - stolen, 0.0) * REFERENCE_S * inv
