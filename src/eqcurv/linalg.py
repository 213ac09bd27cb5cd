"""Numeric kernels: exact rational solving, symmetric eigenwork, and a small LP.

Two arithmetic worlds are kept deliberately separate:

* solvability classification and nullspaces run on Python integers (Bareiss
  elimination, one back-substitution, Fractions only in the result) and the
  max-min canonicalization on ``fractions.Fraction``, so "singular" and
  "inconsistent" are structural verdicts rather than tolerance calls;
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
        vals = [_exact(x) for x in rows[i]] + [_exact(rhs[i])]
        den = lcm(*(x.denominator for x in vals))
        a[i] = [x.numerator * (den // x.denominator) for x in vals]

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
    a_rows: list[list[Fraction]], b: list[Fraction], c: list[Fraction]
) -> tuple[str, list[Fraction]]:
    """Maximize ``c . x`` over ``{A x <= b}`` with x free and b >= 0.

    Exact dense tableau with Bland's rule (guaranteed termination). Returns
    ("optimal", x) or ("unbounded", d) with d a feasible improving ray.
    Callers must shift the problem so b >= 0; the all-slack basis is then
    feasible and no phase-1 is needed.
    """
    m = len(a_rows)
    nv = len(c)
    assert all(x >= 0 for x in b), "simplex caller must shift to b >= 0"
    ncols = 2 * nv + m
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(nv):
            aij = a_rows[i][j]
            row[j] = aij
            row[nv + j] = -aij
        row[2 * nv + i] = Fraction(1)
        row[ncols] = b[i]
        tab.append(row)
    # reduced-cost row for the slack basis: z_j - c_j = -c_j
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(nv):
        obj[j] = -c[j]
        obj[nv + j] = c[j]
    basis = [2 * nv + i for i in range(m)]

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            aie = tab[i][enter]
            if aie > 0:
                ratio = tab[i][ncols] / aie
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            direction = [Fraction(0)] * ncols
            direction[enter] = Fraction(1)
            for i in range(m):
                direction[basis[i]] = -tab[i][enter]
            return "unbounded", [direction[j] - direction[nv + j] for j in range(nv)]
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * p for x, p in zip(tab[i], prow)]
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * p for x, p in zip(obj, prow)]
        basis[leave] = enter

    xfull = [Fraction(0)] * ncols
    for i in range(m):
        xfull[basis[i]] = tab[i][ncols]
    return "optimal", [xfull[j] - xfull[nv + j] for j in range(nv)]


def lp_max_min(particular, nullspace) -> tuple[Fraction, ...]:
    """Canonical point of an affine solution family: the max-min solution.

    Over ``w(c) = particular + sum_j c_j * nullspace_j`` this maximizes
    ``min_i w_i``, refining ties lexicographically (largest smallest entry,
    then largest second-smallest among the remaining optima, and so on), which
    pins every coordinate and determines w uniquely. Raises LpUnboundedError
    with a certificate direction when ``min_i w_i`` has no upper bound, which
    cannot happen for genuine distance systems.
    """
    p = [Fraction(_exact(x)) for x in particular]
    basis = [[Fraction(_exact(x)) for x in vec] for vec in nullspace]
    n = len(p)
    k = len(basis)
    if any(len(vec) != n for vec in basis):
        raise ValueError("nullspace vectors must match the particular solution's length")
    if k == 0:
        return tuple(p)

    def w_of(coef: list[Fraction]) -> list[Fraction]:
        return [p[i] + sum(coef[j] * basis[j][i] for j in range(k)) for i in range(n)]

    bounds: list[Fraction | None] = [None] * n
    coef = [Fraction(0)] * k
    for _level in range(n + 1):
        active = [i for i in range(n) if bounds[i] is None]
        if not active:
            break
        w = w_of(coef)
        t0 = min(w[i] for i in active)
        rows = []
        rhs = []
        for i in range(n):
            row = [-basis[j][i] for j in range(k)]
            if bounds[i] is None:
                row.append(Fraction(1))
                rhs.append(w[i] - t0)
            else:
                row.append(Fraction(0))
                rhs.append(w[i] - bounds[i])
            rows.append(row)
        status, x = _simplex_max(rows, rhs, [Fraction(0)] * k + [Fraction(1)])
        if status == "unbounded":
            delta = x[:k]
            direction = tuple(
                sum(delta[j] * basis[j][i] for j in range(k)) for i in range(n)
            )
            if all(bound is None for bound in bounds):
                raise LpUnboundedError(
                    "min_i w_i is unbounded over the affine family", direction
                )
            # the objective itself is bounded (earlier levels pinned it); only
            # the remaining coordinates grow without bound, so keep the current
            # deterministic vertex, whose pinned coordinates already sit at
            # their final values
            return tuple(w_of(coef))
        t_level = t0 + x[k]
        coef = [coef[j] + x[j] for j in range(k)]
        w = w_of(coef)

        # pin the coordinates that cannot exceed t_level anywhere in the
        # remaining region; at least one must pin per level
        req = [bounds[i] if bounds[i] is not None else t_level for i in range(n)]
        rows2 = [[-basis[j][i] for j in range(k)] for i in range(n)]
        rhs2 = [w[i] - req[i] for i in range(n)]
        pinned = False
        for i in active:
            if w[i] > t_level:
                continue
            status2, x2 = _simplex_max(rows2, rhs2, [basis[j][i] for j in range(k)])
            if status2 == "unbounded":
                continue
            best_wi = w[i] + sum(x2[j] * basis[j][i] for j in range(k))
            if best_wi == t_level:
                bounds[i] = t_level
                pinned = True
        if not pinned:  # mathematically unreachable: the level optimum pins someone
            raise RuntimeError("max-min refinement failed to pin a coordinate")

    assert all(bound is not None for bound in bounds)
    return tuple(bounds)  # type: ignore[arg-type]
