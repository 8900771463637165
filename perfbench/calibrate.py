"""Machine-speed calibration with a fixed pure-Python reference loop.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed drifts by a fifth within a minute: the
loop below took 16.5 to 28 ms (200k iterations) over one minute on an
idle two-core VM, with CPU time tracking wall time.  Medians over many
repetitions do not remove drift that lasts a whole run, so every timed
span is bracketed by short runs of this loop, and its wall time is
scaled to the speed at which the loop takes ``NOMINAL_MS``::

    calibrated = wall * NOMINAL_MS / reference_ms

Both the raw and the calibrated times are reported.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of one reference sample.
LOOP_SIZE = 40_000
#: What one sample takes on the reference machine, by definition.
NOMINAL_MS = 4.0
#: Samples per bracket side; their median is taken.
BRACKET_SAMPLES = 9


def reference_ms(samples: int = BRACKET_SAMPLES) -> float:
    """Median wall time of ``samples`` runs of the reference loop, in ms."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        total = 0
        for value in range(LOOP_SIZE):
            total += value * value % 7
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` as they would read where the loop takes ``NOMINAL_MS``."""
    return seconds * NOMINAL_MS / reference
