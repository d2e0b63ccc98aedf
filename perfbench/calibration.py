"""Machine-speed calibration.

The machines this benchmark runs on are shared: over a minute the same
job can take anywhere from 0.7 to 1.3 times its usual time, and a
20-second run cannot average that away.  So every timed job is
bracketed by a fixed loop of interpreter work of the kind clocksched
does (tuple keys, dict reads and writes, integer arithmetic), and its
seconds are rescaled by how fast that loop ran just before and just
after it:

    reported seconds = measured seconds * REFERENCE_S / loop seconds

`REFERENCE_S` is what the loop takes on a quiet two-core x86-64 VM
under CPython 3.11, so there the reported figures read as plain
seconds.  A change to clocksched moves the measured seconds and not
the loop, so it moves the reported figures by the same ratio.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.008
REPEATS = 3


def _loop() -> int:
    cells: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = (i & 255, i >> 8)
        cells[key] = cells.get(key, 0) + i
    return len(cells)


class Calibrated:
    """Rescaling factors for timings taken one after another."""

    def __init__(self) -> None:
        self.last = loop_seconds()

    def factor(self) -> float:
        """The factor for what was timed since the last call: the
        reference time over the loop's mean time before and after it."""
        after = loop_seconds()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return factor


def loop_seconds() -> float:
    """The fastest of a few runs of the loop, in wall seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best
