"""The host's speed, sampled while a workload runs.

The reference machine shares its cores with other tenants, and its speed
drifts: a fixed pure-Python loop runs up to 1.6 times slower from one
stretch of a few seconds to the next.  The process is not descheduled meanwhile (its CPU time
grows as fast as its wall time); the core itself is slower.  A run's wall
time therefore moves with the host's load as much as with the code.

A Sampler times a fixed loop of stdlib work every PERIOD_S seconds, from a
SIGALRM handler, so the samples fall between the workload's own bytecodes.
``measure`` turns an interval of the run into its wall time without the
samples, and into seconds at the reference speed: each stretch of work
between two samples is scaled by REFERENCE_S over the loop time sampled
around it.  Under load a plain integer loop slowed down less than fcfam's
decisions and checks did, and a loop of Fraction arithmetic more; the loop
runs both.  On six passes each of one certify-n6 and one decide-n7 input,
whose wall times spread by 20 % (quartile distance over median), the scaled
times spread by 4 % and 3 %.  The loop uses nothing from fcfam, so a change
to fcfam moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.2
# a stretch of work is scaled by the median loop time of the 2 * SMOOTH + 1
# samples around its end, which evens out the noise of single samples
SMOOTH = 2
# the loop's time on the reference machine (2 cores, Python 3.11) when
# nothing else runs on its cores; only a scale, so that results read as seconds
REFERENCE_S = 0.005


def calibration_loop() -> int:
    """About 60 % integer arithmetic and 40 % Fraction arithmetic and dict
    updates, by time."""
    total = 0
    for i in range(50_000):
        total += i * i % 7
    seen: dict[int, int] = {}
    for i in range(1, 300):
        q = Fraction(i, i + 7) * Fraction(7, 3) + Fraction(1, i)
        key = (i * 2654435761) & 0xFFFF
        seen[key] = bin(key).count("1")
        total += q.numerator % 7
    return total + len(seen)


def loop_time(runs: int = 5) -> float:
    """Median time of `runs` runs of the calibration loop, one after another."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Context manager that samples the loop's time every PERIOD_S seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop run
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall time of [t0, t1] without the samples in it, and the same
        work in seconds at the reference speed."""
        loop = [end - start for start, end in self.samples]
        smooth = [statistics.median(loop[max(0, i - SMOOTH):i + SMOOTH + 1])
                  for i in range(len(loop))]
        wall = ref = 0.0
        edge = t0
        # each stretch of work ends where the next sample starts; __exit__
        # takes a sample after the last interval, so one always follows t1
        for (start, end), speed in zip(self.samples, smooth):
            if end <= t0:
                continue
            stretch = min(start, t1) - edge
            wall += stretch
            ref += stretch * REFERENCE_S / speed
            if start >= t1:
                break
            edge = end
        return wall, ref
