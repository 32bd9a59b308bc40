"""Host-speed calibration for the time metrics.

The benchmark shares its host, whose speed differs by up to ~40% from one
child process to the next and drifts over tens of seconds; CPU time moves
with wall time, so the child is slowed, not waiting.
Each untraced child, after ``main()`` has returned and its peak RSS has been
read, times ``calibration_work()`` twice with the cyclic GC off and reports
the second time (the first warms up).  The parent multiplies that child's
``main()`` and set-up times by ``REFERENCE_CALIBRATION_S`` over its
calibration time, so the time metrics read as seconds on a host as fast as
the one the reference was taken on (2-vCPU Intel Xeon, Python 3.11.7).
The unscaled medians are kept in the output file.
"""

import gc
import time
from fractions import Fraction

REFERENCE_CALIBRATION_S = 0.0120


def calibration_work():
    """Fixed pure-Python work like the engine's: exact fractions and dicts."""
    n = 11
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, i + j + 1) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    counts = {}
    for i in range(12000):
        key = (i % 97, i % 89, "x" * (i % 3))
        counts[key] = counts.get(key, 0) + i
    return rows[n - 1][n - 1], len(counts)


def time_calibration():
    """Seconds of the second of two runs of ``calibration_work()``, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            calibration_work()
            seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return seconds
