"""Machine-speed probe: rescales wall seconds to a fixed machine speed.

The speed of a CPU of a shared virtual machine changes by up to 2x from one
tenth of a second to the next, and its other CPU may not change with it.
While a repetition runs, :class:`SpeedProbe` times a short fixed loop of
dict, tuple and big-int work every ``PERIOD_S`` in a thread of the parent
process, pinned to the same CPU as the repetition, so the repetition's own
code is unchanged.  A phase that took ``wall`` seconds, less the loops that
ran inside it, is reported at ``mean(REF_S / duration)`` of those loops: the
time it would have taken on a machine that runs the loop in ``REF_S``.  Both
processes read the same ``time.monotonic()`` clock.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.01  # pause between two timed loops
# typical duration of probe_loop() on the 2-vCPU Xeon (2.1 GHz) virtual
# machine where the benchmark was defined; times are reported at that speed
REF_S = 0.0004


def probe_loop() -> None:
    table = {}
    for i in range(1_000):
        table[(i & 255, i >> 8, i % 7)] = i * 12345678901234567
    sum(v % 1000003 for v in table.values())
    sorted(table.values(), reverse=True)


class SpeedProbe:
    """Context manager that samples ``(start, duration)`` of ``probe_loop``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.monotonic()
            probe_loop()
            self.samples.append((t0, time.monotonic() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

    def scaled(self, wall_s: float, start: float, end: float) -> float:
        """``wall_s`` at reference speed, from the loops timed in [start, end];
        a phase too short to hold one uses the loop that started nearest it.
        The loops shared the phase's CPU, so their time is taken out of it."""
        inside = [d for t, d in self.samples if start <= t and t + d <= end]
        busy_s = sum(inside)
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] + s[1] / 2 - mid))[1]]
        return (wall_s - busy_s) * statistics.fmean(REF_S / d for d in inside)
