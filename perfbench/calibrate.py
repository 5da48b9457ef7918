"""Machine-speed calibration against a fixed reference computation.

Other tenants of the shared machine slow whole stretches of a run, often
for a minute or more, by up to 1.8x. The benchmark times this reference,
which is its own code and no part of the program, between requests in
the same process, and scales each request's fastest pass by
``NOMINAL_S / fast`` where ``fast`` is the 10th percentile of the
reference times. The result is the latency at the machine speed where
the reference takes ``NOMINAL_S``. The reference mixes ``Fraction``
arithmetic with small numpy row operations, like the exact core and the
eigensolver, and runs with the garbage collector off so that the program's
heap cannot change its cost.
"""

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# The reference's fast-state time on the 2-core machine the benchmark was
# tuned on; a fixed constant, so that runs on different days compare.
NOMINAL_S = 175e-6

_MATRIX = np.arange(144, dtype=float).reshape(12, 12) / 7.0


def reference() -> float:
    total = Fraction(0)
    seen = {}
    for i in range(1, 40):
        total += Fraction(i % 7 + 1, i)
        seen[i % 13] = (total, i)
    rows = _MATRIX.copy()
    acc = 0.0
    for i in range(12):
        acc += float(np.sum(np.abs(rows[i, : i + 1])))
        rows[i] -= 0.5 * rows[(i + 1) % 12]
    return acc + float(total)


def time_reference() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples) -> float:
    """``NOMINAL_S`` over the 10th percentile of the reference times: the
    factor that scales a latency measured now to the nominal speed."""
    ordered = sorted(samples)
    return NOMINAL_S / ordered[len(ordered) // 10]
