"""Machine-speed reference for adjusting the benchmark's timings.

On a shared 2-core Xeon VM the CPU speed drifts by tens of percent over
tens of seconds: the same job measured 0.77 s in one run and 1.27 s in
another.  The benchmark therefore times a fixed pure-Python loop, which
calls no package code, right before and after every timed job.  It reports each
time scaled to the nominal reference speed below:

    adjusted = measured * NOMINAL_REFERENCE_S / reference measured around it

On a machine where the loop takes NOMINAL_REFERENCE_S, adjusted equals
measured.  This cancels drift that slows the loop and the jobs alike; it
helps less where time goes to numpy or process start-up (README.md has
the measured effect).  Raw seconds are reported beside the adjusted ones.
"""

from statistics import median
from time import perf_counter

REFERENCE_ITERS = 100_000      # 12-15 ms per loop on a 2-core Xeon VM
REFERENCE_SAMPLES = 3          # loops per reference point
NOMINAL_REFERENCE_S = 0.0125   # the loop's typical time there, in seconds


def reference_loop() -> float:
    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERS):
        acc ^= (i * 2654435761) & 0xFFFF
    return perf_counter() - start


def reference_point() -> list:
    """Several reference loops in a row; one point before or after a job."""
    return [reference_loop() for _ in range(REFERENCE_SAMPLES)]


def scale(before: list, after: list) -> float:
    """Factor that turns seconds measured between two points into adjusted seconds."""
    return NOMINAL_REFERENCE_S / median(before + after)
