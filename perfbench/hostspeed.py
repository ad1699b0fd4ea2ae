"""Host-speed correction for the untraced timings.

On a shared host the process's execution speed moves with the load of
its neighbours: on a 2-core Xeon host a fixed loop runs at two speeds
about 40% apart, switching every few seconds, with slow phases that
last up to a minute.  The same code then times 1.0x or 1.6x, and a
median of one run's requests measures how long the slow phase lasted,
not the program.

``HostSpeedSampler`` measures that speed while the workload runs.  An
interval timer (``SIGALRM``, every ``PERIOD_S``) interrupts the main
thread and runs a fixed pure-Python probe, which calls nothing of
``repro``.  The probe's thread CPU time says how fast the host executes
interpreter code at that moment: CPU time tracks the slowdown, and it
leaves out waits for the interpreter lock, so the serve tier's threads
do not read as a slow host.  The probe is an arithmetic loop (interpreter
dispatch) followed by a loop that fills a dict with lists (object
allocation), the two kinds of work in the simulator's own Python; it
times both as one, which weighs them about equally.  Over five seeds per
workload on that host, the geometric mean of the two loops' corrections
gave a ``wall_s`` spread (quartile distance / median) of 0.036 on
fleet_vector, 0.039 on serve_mixed and 0.110 on fleet_mixed, where the
arithmetic loop alone gave 0.126 / 0.022 / 0.100 and the allocation loop
alone 0.062 / 0.063 / 0.126 in the same runs.

``corrected(start, end)`` turns a measured interval into its time at
reference speed: the interval minus the wall time the probes spent
inside it, times ``REFERENCE_PROBE_S`` over the mean probe CPU time
around it.  The probe is part of the benchmark, so it is the same on
the parent and on the change it is compared with.
"""

from __future__ import annotations

import bisect
import signal
import time

#: Probe sizes; together about 0.39 ms of CPU time on a 2-core Xeon host.
PROBE_ITERATIONS = 4000
PROBE_ITEMS = 750
#: The probe's CPU time on that host at full speed (1st percentile).
#: Corrected times read as times at this speed.
REFERENCE_PROBE_S = 0.39e-3
#: Sampling period: the probes take 1-2% of the timed region.
PERIOD_S = 0.025


def probe() -> float:
    """CPU seconds of a fixed arithmetic loop and a fixed allocation loop."""
    start = time.thread_time()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    table = {}
    for i in range(PROBE_ITEMS):
        table[str(i)] = [i, i + 1.0]
    return time.thread_time() - start


class HostSpeedSampler:
    """Probes the host's speed every ``PERIOD_S`` while it is running."""

    def __init__(self) -> None:
        self.starts: list[float] = []   # perf_counter at each probe's start
        self.walls: list[float] = []    # wall seconds each probe took
        self.cpus: list[float] = []     # CPU seconds each probe took
        self._previous = None
        self._probing = False

    def _sample(self, signum=None, frame=None) -> None:
        # A probe delayed past the next tick would otherwise run the
        # handler again inside itself and log its probes out of order.
        if self._probing:
            return
        self._probing = True
        start = time.perf_counter()
        cpu = probe()
        self.starts.append(start)
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(cpu)
        self._probing = False

    def __enter__(self) -> "HostSpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def corrected(self, start: float, end: float) -> float:
        """Seconds ``[start, end)`` would take at reference speed.

        The speed is the mean over the probes that ran inside the
        interval and the nearest probe on each side of it.
        """
        lo = max(bisect.bisect_right(self.starts, start) - 1, 0)
        inside = bisect.bisect_left(self.starts, end)
        hi = min(inside, len(self.starts) - 1)
        cpus = self.cpus[lo:hi + 1]
        probe_wall = sum(self.walls[bisect.bisect_right(self.starts, start):inside])
        return (end - start - probe_wall) * REFERENCE_PROBE_S * len(cpus) / sum(cpus)

    def slowdown(self) -> float:
        """Mean probe CPU time over the reference (1.0 = full speed)."""
        return sum(self.cpus) / len(self.cpus) / REFERENCE_PROBE_S
