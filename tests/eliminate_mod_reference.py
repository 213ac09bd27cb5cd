"""Per-column Gauss-Jordan mod p: the elimination that ``eqcurv.linalg._eliminate_mod`` replaced.

Kept as a differential oracle for the column-panel elimination. The module
name has no ``test_`` prefix, so pytest does not collect it; tests import
``reference_eliminate_mod`` from it and compare its triple with
``_eliminate_mod``'s.
"""

import numpy as np


def reference_eliminate_mod(m: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Gauss-Jordan on ``[M mod p | I]``: pivot rows, pivot columns and ``inv(M_IJ) mod p``.

    Each column pivots on its first nonzero entry among the rows that are not
    pivots yet, so the pivot columns are the lex-first column basis mod p.
    Row r, pivot number t, keeps its identity entry in column ``n + t``: the
    inverse part of a pivot row only ever involves earlier pivot rows, so step
    t touches columns ``c .. n + t`` and the rows its column hits. Only the
    pivot row and the column are reduced mod p; the other entries stay below
    ``p + n (p - 1)^2 < 2^63`` in magnitude (an int64 array with n >= 2^23
    rows would not fit in memory).
    """
    n = len(m)
    a = np.zeros((n, 2 * n), dtype=np.int64)
    a[:, :n] = m % p
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    open_rows = np.ones(n, dtype=bool)
    for c in range(n):
        col = a[:, c] % p
        candidates = np.flatnonzero(col * open_rows)
        if not candidates.size:
            continue
        r = int(candidates[0])
        end = n + len(pivot_rows) + 1
        a[r, end - 1] = 1
        pivot = a[r, c:end] % p * pow(int(col[r]), -1, p) % p
        a[r, c:end] = pivot
        col[r] = 0
        hit = np.flatnonzero(col)
        a[hit, c:end] -= np.outer(col[hit], pivot)
        open_rows[r] = False
        pivot_rows.append(r)
        pivot_cols.append(c)
    return pivot_rows, pivot_cols, a[pivot_rows, n:n + len(pivot_rows)] % p
