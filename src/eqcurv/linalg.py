"""Numeric kernels: exact rational solving, symmetric eigenwork, and a small LP.

Two arithmetic worlds are kept deliberately separate:

* solvability classification, nullspaces and the lexicographic max-min
  canonicalization run on Python integers, with Fractions only at the
  boundary: Bareiss elimination and one back-substitution for the solve, and
  for the max-min one simplex per level on an integer tableau pivoted
  fraction-free over one shared denominator, each level certified by its
  dual, at most one level per kernel dimension. So "singular",
  "inconsistent" and "optimal" are structural verdicts rather than
  tolerance calls;
* eigendecomposition and pseudo-inverse application run in binary64 through
  LAPACK's symmetric eigensolver (``numpy.linalg.eigh``).

Callers convert explicitly at the boundary. Everything here is a pure function
of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

__all__ = [
    "SolveStatus",
    "SolveOutcome",
    "EigenDecomposition",
    "NonSymmetricMatrixError",
    "LpUnboundedError",
    "solve_exact",
    "symmetric_eigen",
    "pseudo_apply",
    "lp_max_min",
]

SYMMETRY_TOLERANCE = 1e-12


class NonSymmetricMatrixError(ValueError):
    """Matrix handed to the eigensolver is not symmetric within tolerance."""


class LpUnboundedError(RuntimeError):
    """The max-min objective is unbounded; carries a certificate direction."""

    def __init__(self, message: str, direction: tuple[Fraction, ...]):
        super().__init__(message)
        self.direction = direction


class SolveStatus(Enum):
    UNIQUE = "unique"
    AFFINE = "affine"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class SolveOutcome:
    """Exact classification of a square linear system.

    ``solution`` is the unique solution (UNIQUE), one particular solution
    (AFFINE), or None (INCONSISTENT). ``nullspace`` is an exact basis of the
    kernel of the coefficient matrix and is reported for every status.
    """

    status: SolveStatus
    solution: tuple[Fraction, ...] | None
    nullspace: tuple[tuple[Fraction, ...], ...]
    rank: int

    @property
    def nullspace_dimension(self) -> int:
        return len(self.nullspace)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (descending) with matching orthonormal eigenvector columns.

    ``offdiagonal_residual`` is ``max_{i != j} |(V^T M V)_ij|`` for the
    symmetrized input M and the eigenvector matrix V: how far V falls short of
    diagonalizing M.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    offdiagonal_residual: float

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _exact(value) -> int | Fraction:
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"exact arithmetic needs int or Fraction entries, got {type(value).__name__}")


def common_denominator(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``; den is the lcm of the denominators."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def solve_exact(matrix, rhs) -> SolveOutcome:
    """Classify and solve ``M x = rhs`` over exact rationals.

    Parameters
    ----------
    matrix : square 2-D array or nested sequence of int/Fraction entries
    rhs : sequence of int/Fraction, same length as the matrix side

    Returns
    -------
    SolveOutcome
        Status UNIQUE, AFFINE (particular solution plus exact kernel basis),
        or INCONSISTENT. No tolerances are involved anywhere.

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
        return SolveOutcome(SolveStatus.INCONSISTENT, None, tuple(nullspace), rank)
    if rank == n:
        return SolveOutcome(SolveStatus.UNIQUE, particular, (), rank)
    return SolveOutcome(SolveStatus.AFFINE, particular, tuple(nullspace), rank)


def symmetric_eigen(matrix) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    The input is checked for symmetry within ``SYMMETRY_TOLERANCE`` and then
    symmetrized as ``(M + M^T) / 2``. Eigenpairs come back sorted by
    eigenvalue, descending. The reported residual is the largest off-diagonal
    magnitude of ``V^T M V``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOLERANCE:
        raise NonSymmetricMatrixError(
            f"matrix is not symmetric within {SYMMETRY_TOLERANCE:g} absolute"
        )
    a = (a + a.T) / 2.0
    lam, v = np.linalg.eigh(a)
    lam, v = lam[::-1], v[:, ::-1]
    rotated = v.T @ a @ v
    np.fill_diagonal(rotated, 0.0)
    return EigenDecomposition(lam, v, float(np.abs(rotated).max(initial=0.0)))


def pseudo_apply(matrix, rhs) -> np.ndarray:
    """Apply the Moore-Penrose pseudo-inverse of a symmetric matrix to rhs.

    Spectral truncation with cutoff ``n * 1e-10 * max|lambda|`` (the single
    truncation knob); the result is the minimum-norm least-squares solution of
    ``M z = rhs``.
    """
    eig = symmetric_eigen(matrix)
    lam = eig.eigenvalues
    n = lam.size
    b = np.asarray(rhs, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"rhs shape {b.shape} does not match matrix size {n}")
    lam_max = float(np.abs(lam).max(initial=0.0))
    cutoff = n * 1e-10 * lam_max
    keep = np.abs(lam) > cutoff
    if not keep.any():
        return np.zeros(n)
    vk = eig.eigenvectors[:, keep]
    return vk @ ((vk.T @ b) / lam[keep])


# ---------------------------------------------------------------------------
# Exact simplex and the max-min canonical solution
# ---------------------------------------------------------------------------


def _simplex_max(
    a_rows: Sequence[Sequence[int | Fraction]],
    b: Sequence[int | Fraction],
    c: Sequence[int | Fraction],
) -> tuple[str, list[Fraction], list[Fraction]]:
    """Maximize ``c . x`` over ``{A x <= b}`` with x free and b >= 0.

    Dense tableau with Bland's rule (guaranteed termination). Returns
    ("optimal", x, y) with y the optimal dual (``y >= 0``, ``A^T y = c``,
    ``b . y = c . x``), read off the slack columns of the final objective row,
    or ("unbounded", d, []) with d a feasible improving ray.
    Callers must shift the problem so b >= 0; the all-slack basis is then
    feasible and no phase-1 is needed.

    Notes
    -----
    The tableau holds Python integers only and is pivoted fraction-free
    (Edmonds 1967), the simplex form of the Bareiss elimination in
    ``solve_exact``. Row i of ``[A | b]`` is scaled to integers by its factor
    ``s_i`` (so its slack variable is scaled by ``s_i`` too) and the objective
    row by ``c_den``. One shared denominator ``d``, starting at 1, is the
    determinant of the current basis: pivoting on ``p = T[r, e]`` replaces
    every other row, the objective row included, by
    ``(p * T_i - T[i, e] * T_r) // d``, an exact division, keeps ``T_r`` and
    sets ``d = p``. Every entry is ``d`` times the entry of the rational
    tableau of the scaled problem. Positive row and column scalings change no
    sign and no ratio order, so Bland's rule takes the same pivots as a
    ``Fraction`` tableau. On the way out, a basic ``x`` is ``T[i, rhs] / d``,
    the dual is ``y_i = s_i * T[obj, slack_i] / (d * c_den)``, and a ray whose
    entering column is slack i is scaled back by ``s_i``.
    """
    m = len(a_rows)
    nv = len(c)
    assert all(x >= 0 for x in b), "simplex caller must shift to b >= 0"
    ncols = 2 * nv + m
    # rows 0..m-1: [A | -A | I | b] scaled to integers; row m: reduced costs -c, c
    tab = np.zeros((m + 1, ncols + 1), dtype=object)
    scale = []
    for i in range(m):
        nums, s = common_denominator([*a_rows[i], b[i]])
        tab[i, :nv] = nums[:nv]
        tab[i, nv:2 * nv] = [-x for x in nums[:nv]]
        tab[i, 2 * nv + i] = 1
        tab[i, ncols] = nums[nv]
        scale.append(s)
    nums, c_den = common_denominator(c)
    tab[m, :nv] = [-x for x in nums]
    tab[m, nv:2 * nv] = nums
    basis = [2 * nv + i for i in range(m)]
    d = 1

    while True:
        negative = np.flatnonzero(tab[m, :ncols] < 0)
        if not negative.size:
            break
        enter = int(negative[0])
        leave = None
        for i in range(m):
            aie = tab[i, enter]
            if aie > 0:
                if leave is None:
                    leave = i
                    continue
                # compare T[i, rhs] / aie with T[leave, rhs] / T[leave, enter]
                lhs = tab[i, ncols] * tab[leave, enter]
                rhs = tab[leave, ncols] * aie
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            f = scale[enter - 2 * nv] if enter >= 2 * nv else 1
            direction = [Fraction(0)] * ncols
            direction[enter] = Fraction(1)
            for i in range(m):
                direction[basis[i]] = Fraction(-tab[i, enter] * f, d)
            return "unbounded", [direction[j] - direction[nv + j] for j in range(nv)], []
        p = tab[leave, enter]
        others = np.arange(m + 1) != leave
        tab[others] = (p * tab[others] - np.outer(tab[others, enter], tab[leave])) // d
        d = p
        basis[leave] = enter

    xfull = [Fraction(0)] * ncols
    for i in range(m):
        xfull[basis[i]] = Fraction(tab[i, ncols], d)
    y = [Fraction(s * t, d * c_den) for s, t in zip(scale, tab[m, 2 * nv:ncols])]
    return "optimal", [xfull[j] - xfull[nv + j] for j in range(nv)], y


def lp_max_min(particular, nullspace) -> tuple[Fraction, ...]:
    """Canonical point of an affine solution family: the lexicographic max-min.

    Over ``w(c) = particular + sum_j c_j * nullspace_j`` this maximizes
    ``min_i w_i``, then the smallest entry among the coordinates not yet
    fixed, and so on (leximin). Whenever ``min_i w_i`` is bounded above, the
    leximin point exists and is unique, so the result does not depend on the
    nullspace basis.

    Notes
    -----
    The current face is a point plus a list of direction vectors, each kept
    as an integer row because its scale does not matter. Each level:

    1. coordinates that are 0 in every direction are constant on the face and
       stay fixed at their current value;
    2. one exact simplex maximizes ``t`` subject to ``w_i >= t`` over the
       other coordinates, and the point moves to its optimum ``t_level``;
    3. its dual ``y`` is certified with rational equality (``y >= 0``,
       ``sum y = 1``, ``y`` orthogonal to every direction, ``y . w =
       t_level``, ``w_i >= t_level``); by complementary slackness every
       coordinate with ``y_i > 0`` equals ``t_level`` on the whole optimal
       face, and ``sum y = 1`` pins at least one;
    4. the directions are replaced by a basis of the combinations that vanish
       on the pinned coordinates, the kernel of the Gram matrix of the
       directions' entries there, so the face dimension drops by at least one.

    With k nullspace vectors that is at most k simplex solves.

    Raises LpUnboundedError with a certificate direction (every entry
    positive) when ``min_i w_i`` itself has no upper bound; that cannot happen
    for a consistent distance system, whose kernel vectors all sum to zero.
    When only a later level is unbounded, the point returned lies in the
    family, keeps every coordinate fixed at an earlier level at its value, and
    is the first point along the LP's improving ray where no other coordinate
    lies below a fixed one. That point is deterministic but not canonical: it
    depends on the nullspace basis and on the simplex path.
    """
    w = [Fraction(_exact(x)) for x in particular]
    n = len(w)
    if any(len(vec) != n for vec in nullspace):
        raise ValueError("nullspace vectors must match the particular solution's length")
    # one integer row per direction: a direction's scale does not matter
    dirs = np.array(
        [common_denominator([_exact(x) for x in vec])[0] for vec in nullspace], dtype=object
    ).reshape(len(nullspace), n)

    while True:
        # a coordinate that is 0 in every direction is constant on the face
        free = np.flatnonzero((dirs != 0).any(axis=0))
        if not free.size:
            return tuple(w)
        k = len(dirs)
        # variables (step coefficients, t - t0); b = w - t0 >= 0 on the free rows
        t0 = min(w[i] for i in free)
        rows = [[-v for v in dirs[:, i]] + [1] for i in free]
        rhs = [w[i] - t0 for i in free]
        status, x, y = _simplex_max(rows, rhs, [0] * k + [1])
        num, den = common_denominator(x[:k])
        step = [Fraction(v, den) for v in np.array(num, dtype=object).dot(dirs)]
        if status == "unbounded":
            if len(free) == n:
                raise LpUnboundedError(
                    "min_i w_i is unbounded over the affine family", tuple(step)
                )
            # every free coordinate grows along the ray (step_i >= t-step > 0):
            # go just far enough that none stays below a fixed coordinate
            top = max(w[i] for i in set(range(n)).difference(free))
            s = max([Fraction(0)] + [(top - w[i]) / step[i] for i in free])
            return tuple(a + s * b for a, b in zip(w, step))
        t_level = t0 + x[k]
        w = [a + b for a, b in zip(w, step)]

        # the dual certificate in integers: y = num / den
        num, den = common_denominator(y)
        pinned = free[np.flatnonzero(num)]
        if not (
            min(num) >= 0
            and sum(num) == den
            and not dirs[:, free].dot(np.array(num, dtype=object)).any()
            and sum(v * w[i] for i, v in zip(free, num)) == t_level * den
            and all(w[i] >= t_level for i in free)
        ):
            raise RuntimeError("max-min level failed its exact optimality certificate")

        # E: the directions' entries on the pinned coordinates; E E^T has E^T's kernel
        e = dirs[:, pinned]
        dirs = np.array(
            [common_denominator(c)[0] for c in solve_exact(e.dot(e.T), [0] * k).nullspace],
            dtype=object,
        ).reshape(-1, k).dot(dirs)
