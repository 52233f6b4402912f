"""A probe of the host's current speed, independent of pscmesh.

The shared 2-vCPU host this benchmark was built on runs the same Python
code at speeds up to 1.8x apart, and a speed level can hold for minutes,
so it spans whole runs and no statistic within a run removes it.  The
worker times ``probe()`` before, between and after the phases of each
repetition; run.py scales each phase's time by ``REFERENCE_S`` over the
mean of the probes on either side of it.  A reported time is therefore the repetition's wall
time at the probe's reference speed.  The probe runs no pscmesh code, so
a change to the program cannot move it.
"""

import time

PROBE_LOOPS = 60_000
REFERENCE_S = 0.055     # probe time, fast level of the 2-vCPU build host


def probe():
    """Seconds for a fixed pure-Python loop of float, list and dict work."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    pts = [(0.0, 0.0)] * 1024     # small, so the probe adds no peak RSS
    for i in range(PROBE_LOOPS):
        x = (i * 0.6180339887) % 1.0
        y = (i * 0.4142135623) % 1.0
        acc += x * y - (x - y) * (x + y)
        pts[i & 1023] = (x, y)
        table[i & 1023] = (acc, x)
        if i & 1023 == 1023:
            pts.sort()
    return time.perf_counter() - t0


def scale(probe_before, probe_after):
    """Factor that takes a wall time between two probes to reference speed."""
    return 2.0 * REFERENCE_S / (probe_before + probe_after)
