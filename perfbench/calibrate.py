"""Machine-speed probe for normalising wall times.

On a shared machine the same command's wall time moves by 20-50% between
runs, as neighbours load the CPUs. The probe is a fixed piece of work that
does not touch the program: the standard library's CSV reader turning 2,000
rows of 8 numbers into floats, the kind of interpreter-bound work that
dominates the program's commands. Timed right before and after a command,
it measures how fast the machine is running at that moment; a command's
wall time divided by its probe time, times ``REFERENCE_S``, is its time at
the reference machine speed. A change to the program moves that figure; a
change in neighbour load does not.
"""

from __future__ import annotations

import csv
import io
import random
import time

# Probe time on the reference machine (2-vCPU x86_64 VM, Python 3.11,
# in its faster load phase): normalised times read as seconds there.
REFERENCE_S = 0.008

_rng = random.Random(0)
_TEXT = "\n".join(",".join(repr(_rng.random()) for _ in range(8)) for _ in range(2000))


def probe() -> float:
    """Seconds taken by the fixed probe work now."""
    start = time.perf_counter()
    [[float(x) for x in row] for row in csv.reader(io.StringIO(_TEXT))]
    return time.perf_counter() - start


def normalised(wall: float, probe_before: float, probe_after: float) -> float:
    """``wall`` expressed at the reference machine speed."""
    return wall * REFERENCE_S / (0.5 * (probe_before + probe_after))
