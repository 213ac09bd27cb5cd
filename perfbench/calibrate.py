"""Host-speed calibration: fixed tasks shaped like each workload's hot layer.

On a shared host the same work can take twice as long from one second to the
next: on a 2-vCPU Xeon VM one fixed graph took between 0.33 s and 0.59 s
within 90 s, and two consecutive 10 s runs of one seed differed by 48% in
throughput. The runner therefore takes a calibration sample before every
graph and reports each graph's time scaled by the workload's nominal sample
time over the median of the samples around it, in "reference seconds".

Each kernel copies the shape of a hot loop of the seed commit, so that a host
slowdown stretches it about as much as the workload, but it shares no code
with the package: a change to eqcurv cannot move the calibration.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from math import gcd
from time import perf_counter

import numpy as np


def _fraction_pivots() -> None:
    """Dense Gauss-Jordan pivots in Fractions, like the exact simplex and back-solve."""
    rows = [[Fraction(i * 7 + j, j + 3) for j in range(12)] for i in range(10)]
    for piv in range(10):
        p = rows[piv][piv] or Fraction(1)
        prow = [x / p for x in rows[piv]]
        for i in range(10):
            if i != piv and rows[i][piv]:
                f = rows[i][piv]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]


def _integer_elimination() -> None:
    """Fraction-free integer elimination with gcd reduction, like the exact solve."""
    n = 18
    rows = [[(i * 31 + j * 17) % 23 + 50 * (i == j) for j in range(n + 1)] for i in range(n)]
    for col in range(n):
        prow = rows[col]
        pval = prow[col]
        for i in range(col + 1, n):
            val = rows[i][col]
            new = [pval * x - val * y for x, y in zip(rows[i], prow)]
            g = 0
            for x in new:
                g = gcd(g, x)
            rows[i] = [x // g for x in new] if g > 1 else new


def _column_rotations() -> None:
    """Plane rotations of a small float matrix, like the Jacobi eigen sweep."""
    a = np.add.outer(np.arange(24.0), np.arange(24.0)) % 7.0
    c, s = 0.8, 0.6
    for p in range(0, 23):
        for q in range(p + 1, min(p + 6, 24)):
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * row_q
            a[q, :] = s * row_p + c * row_q


KERNELS = {
    "corpus": _column_rotations,
    "canonical_lp": _fraction_pivots,
    "exact_large": _integer_elimination,
    "families": _fraction_pivots,
}

# median sample time of each kernel on the host of the seed commit, so that
# reference seconds read close to wall seconds there
NOMINAL_S = {
    "corpus": 0.0017,
    "canonical_lp": 0.0027,
    "exact_large": 0.00135,
    "families": 0.0028,
}


def sample(workload: str) -> float:
    """Wall time of one run of the workload's kernel, after one untimed run.

    The cyclic garbage collector is off while the kernel runs, so a collection
    owed to the workload's garbage does not land in the sample.
    """
    kernel = KERNELS[workload]
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
