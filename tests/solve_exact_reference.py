"""Bareiss elimination with smallest-entry pivots: a differential oracle for ``solve_exact``.

It shares no code with ``eqcurv.linalg``, whose fallback is a Bareiss
elimination with first-nonzero pivots, and stands next to the sympy oracle
in ``test_solve_exact_oracle.py``. The module name has no ``test_`` prefix, so
pytest does not collect it; tests import ``reference_solve_exact`` from it and
compare its tuple with the same four fields of ``solve_exact``'s outcome,
which ``fields`` reads.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from eqcurv.linalg import SolveStatus


def fields(out) -> tuple:
    """The outcome's fields in the order of ``reference_solve_exact``'s tuple."""
    return out.status, out.solution, out.nullspace, out.rank


def _exact(value) -> int | Fraction:
    """``value`` as an int or a Fraction; TypeError on any other entry."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"exact arithmetic needs int or Fraction entries, got {type(value).__name__}")


def common_denominator(values) -> tuple[list[int], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``; den is the lcm of the denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def reference_solve_exact(matrix, rhs) -> tuple:
    """Classify and solve ``M x = rhs`` over exact rationals.

    Parameters
    ----------
    matrix : square 2-D array or nested sequence of int/Fraction entries
    rhs : sequence of int/Fraction, same length as the matrix side

    Returns
    -------
    (status, solution, nullspace, rank)
        Status UNIQUE, AFFINE (particular solution plus exact kernel basis),
        or INCONSISTENT (solution None), with the vectors as Fraction tuples.
        No tolerances are involved anywhere.

    Notes
    -----
    Each row of ``[M | rhs]`` is scaled to integers and the augmented matrix
    is eliminated fraction-free (Bareiss 1968): every entry stays an integer
    minor and every division is exact. The last pivot ``d`` is the minor of
    the pivot block, so by Cramer's rule ``d * x`` is integral for the
    particular solution (free variables 0) and for each kernel vector (one
    free variable 1, the others 0). One integer back-substitution finds all of
    them at once; Fractions are built only for the returned vectors.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    rhs = list(rhs)
    if len(rhs) != n:
        raise ValueError(f"rhs length {len(rhs)} does not match matrix size {n}")

    # one integer row per equation: clear denominators of [row | rhs]
    a = np.empty((n, n + 1), dtype=object)
    for i in range(n):
        a[i], _ = common_denominator([_exact(x) for x in rows[i]] + [_exact(rhs[i])])

    pivot_cols: list[int] = []
    prev = 1
    for col in range(n):
        r = len(pivot_cols)
        candidates = [i for i in range(r, n) if a[i, col]]
        if not candidates:
            continue
        # smallest nonzero entry keeps the integer growth down
        best = min(candidates, key=lambda i: abs(a[i, col]))
        a[[r, best]] = a[[best, r]]
        p = a[r, col]
        for i in range(r + 1, n):
            a[i, col:] = (p * a[i, col:] - a[i, col] * a[r, col:]) // prev
        prev = p
        pivot_cols.append(col)

    rank = len(pivot_cols)
    consistent = not any(a[rank:, n])
    free_cols = sorted(set(range(n)) - set(pivot_cols))

    # right-hand sides: rhs, then minus each free column; x holds prev * solution
    b = np.concatenate([a[:rank, n:], -a[:rank, free_cols]], axis=1)
    u = a[:rank, pivot_cols]
    x = np.empty_like(b)
    for i in reversed(range(rank)):
        x[i] = (prev * b[i] - u[i, i + 1:].dot(x[i + 1:])) // u[i, i]

    vectors = [[Fraction(0)] * n for _ in range(b.shape[1])]
    for vec, f in zip(vectors[1:], free_cols):
        vec[f] = Fraction(1)
    for c, nums in zip(pivot_cols, x):
        for vec, num in zip(vectors, nums):
            vec[c] = Fraction(num, prev)
    particular, *nullspace = map(tuple, vectors)
    if not consistent:
        return SolveStatus.INCONSISTENT, None, tuple(nullspace), rank
    if rank == n:
        return SolveStatus.UNIQUE, particular, (), rank
    return SolveStatus.AFFINE, particular, tuple(nullspace), rank
