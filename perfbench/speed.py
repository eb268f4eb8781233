"""Correct measured times for the host's momentary speed.

On a shared host the same code runs up to twice as slow at some moments as
at others, and how much of a run falls in slow moments shifts from run to
run.  `SpeedProbe` samples the speed from a thread while the workload runs:
every PERIOD_S it times a fixed pure-Python loop that shares no code with
the package.  Its `reference` clock advances at the rate the loop runs
relative to REFERENCE_S, so an interval read on it is the time the work
would have taken on an uncontended core, and host contention cancels out of
the reported times.

A sample holds the interpreter lock for 0.25-0.5 ms, so the thread takes
1-3% of a run, plus one sample per request; the cost is the same on every
commit.
"""

from __future__ import annotations

import random
import statistics
import threading
import time

PERIOD_S = 0.02
ITERATIONS = 500
# The loop's time on an idle core of the 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_S = 2.5e-4
# Random reads from a table larger than the per-core caches make the loop
# slow down under cache and memory contention about as much as the package's
# code does; a loop that stays in registers tracks it much less well.
_TABLE = random.Random(0).randbytes(1 << 22)
_MASK = len(_TABLE) - 1


def _reference_loop() -> int:
    x = 0
    for i in range(ITERATIONS):
        x = (x * 40503 + _TABLE[(x * 2654435761 + i) & _MASK]) % 1000003
        x += len(format(x, "b").rstrip("0"))
    return x


class SpeedProbe:
    """Context manager: samples speed while open; `reference` and `scaled` after.

    Besides its own thread, a caller may take a sample between two short
    requests with `sample`, so that each request is bracketed by samples.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (end time, speed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        a = time.perf_counter()
        _reference_loop()
        b = time.perf_counter()
        self.samples.append((b, REFERENCE_S / (b - a)))

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self.samples:
            time.sleep(PERIOD_S / 4)
        return self

    def __exit__(self, *exc) -> None:
        import numpy as np  # not at module level: set-up timing must include the package's numpy import

        self._stop.set()
        self._thread.join()
        ends, speeds = np.array(sorted(self.samples)).T
        # between two samples the speed is their mean; beyond the first and
        # last samples the edge speeds hold
        ref = np.concatenate(([0.0], np.cumsum(np.diff(ends) * (speeds[1:] + speeds[:-1]) / 2)))
        pad = 1e6
        self._t = np.concatenate(([ends[0] - pad], ends, [ends[-1] + pad]))
        self._ref = np.concatenate(([-pad * speeds[0]], ref, [ref[-1] + pad * speeds[-1]]))
        self.speeds = speeds

    def elapsed(self, t0: float) -> float:
        """While open: reference seconds since t0, at the mean speed sampled since."""
        speeds = [v for end, v in self.samples if end >= t0]
        return (time.perf_counter() - t0) * (statistics.fmean(speeds) if speeds else 1.0)

    def reference(self, t):
        """Reference-clock reading, in seconds, at perf_counter time(s) t."""
        import numpy as np

        return np.interp(t, self._t, self._ref)

    def scaled(self, a: float, b: float) -> float:
        """Seconds that the interval [a, b] would have taken at the reference speed."""
        return float(self.reference(b) - self.reference(a))

    def mean_speed(self) -> float:
        return float(self.speeds.mean())
