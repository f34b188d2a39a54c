"""A speed probe that rescales measured times to one reference vCPU speed.

The shared VM the benchmark runs on changes speed for minutes at a time:
medians of a fixed pipeline pass over 10-60 s windows spread 14-34% (first
to third quartile, as a share of the median), whether the window is 10 s or
60 s long, and the worker's CPU time moves with its wall time.  The
slowdown hits the probe below about as hard as it hits the pipeline (their
per-pass correlation was 0.89-0.94), so dividing a pass's wall time by the
probe's slowdown over that pass leaves 5-8% of spread.

The probe is a fixed pure-Python loop that a ``SIGPROF`` handler runs every
50 ms of process CPU time (``ITIMER_PROF``, so it never meets the runner's
``SIGALRM`` task timeouts).  It costs about 1% of the pass, in every run
alike.  Standard library only.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: The probe's typical duration inside a pipeline pass on the x86-64 Xeon VM
#: (2 vCPUs, Python 3.11) the baseline was recorded on.  It only sets the
#: scale: normalized times read as seconds on that VM at its usual speed.
REFERENCE_PROBE_S = 3.0e-4

INTERVAL_S = 0.05


def _probe_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples this process's speed until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, 0.001, INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        # The untimed lead-in refills the caches the interrupted code used,
        # so the sample depends less on what the pipeline was doing.
        _probe_loop(1000)
        start = time.perf_counter()
        _probe_loop(3000)
        self.samples.append((start, time.perf_counter() - start))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end)`` relative to the reference.

        A window too short to hold a sample (smoke-scale passes) uses every
        sample taken so far.
        """
        inside = [s for t, s in self.samples if start <= t < end] or [
            s for _, s in self.samples
        ]
        return statistics.mean(inside) / REFERENCE_PROBE_S

    def normalize(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at the reference speed."""
        return seconds / self.slowdown(start, start + seconds)
