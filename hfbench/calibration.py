"""Machine-speed calibration, for times reported at a reference speed.

On a shared host the speed of a CPU drifts: other tenants' work slows
it by up to half, in spells of seconds to minutes.  The benchmark
measures that speed with a fixed calibration sample, taken on the same
CPU before and after every round, and rescales each round's
times by CAL_REF_S / (median sample time).  README, "What holds it
steady", gives the evidence.
"""

from __future__ import annotations

import time

import numpy as np

# Quiet-state time of one sample on a 2-vCPU Xeon VM (the reference speed).
CAL_REF_S = 0.012


def sample():
    """A fixed mix of interpreter loops and numpy work; returns seconds."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(100_000):
        acc += k
    a = np.linspace(0.0, 1.0, 50_000)
    for _ in range(20):
        a = np.sin(a) * 0.5 + 0.25
    b = np.zeros(64)
    for _ in range(2000):
        b = b + 1.0
    return time.perf_counter() - t0

