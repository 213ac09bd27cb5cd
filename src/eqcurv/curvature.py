"""Curvature pipeline: distance matrix -> exact solve -> canonical choice or
exact pseudo-inverse -> summary quantities, all in exact rationals.

The curvature vector w of a connected graph on n vertices solves
``D w = n * 1`` over the hop-count distance matrix D: a signed vertex measure
whose distance-weighted total is the same seen from every vertex. ``K`` is the
smallest entry (the curvature lower bound) and ``total`` the l1 norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .graphs import DistanceMatrix, FamilySpec, FamilySpecError, Graph, check_family_params
from .linalg import (
    SolveOutcome,
    SolveStatus,
    _absmax,
    _fractions,
    _int_dtype,
    integer_matmul,
    lp_max_min,
    pseudo_apply,
    solve_exact,
)

__all__ = [
    "CurvatureStatus",
    "CurvatureResult",
    "NullspaceSumReport",
    "compute_curvature",
    "curvature_of_family",
    "nullspace_sum_check",
]


class CurvatureStatus(Enum):
    EXACT_UNIQUE = "exact_unique"
    EXACT_CANONICAL = "exact_canonical"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True, eq=False)
class CurvatureResult:
    """Per-vertex curvature with its solvability classification, as one integer point.

    ``w[i] == nums[i] / den`` with ``den > 0``, and ``dw`` holds the smallest
    and largest entry of ``D nums``. ``(nums, den)`` need not be in lowest
    terms: constant row sums R give ``(n * 1, R)``. For the Exact* statuses
    ``D w = n * 1`` holds with rational equality, so ``dw == (n den, n den)``:
    for EXACT_UNIQUE by ``solve_exact``'s integer certificate over every row,
    for EXACT_CANONICAL by the exact row sums ``D 1 == R 1`` when they agree
    and by an exact product ``D nums`` otherwise. For INCONSISTENT,
    ``w`` is the exact Moore-Penrose solution ``D^+ (n * 1)``, ``dw`` comes
    from the exact product ``D nums``, and K is only a pseudo lower bound
    (the exact-solution theorems do not apply to it).

    ``w``, ``K``, ``total`` (the l1 norm) and ``residual_range`` (``dw / den``)
    are Fraction views, each built on first read. Equal values share one
    object: ``w`` holds one Fraction per distinct numerator, and ``K`` is the
    smallest of them.
    """

    status: CurvatureStatus
    nums: tuple[int, ...]
    den: int
    dw: tuple[int, int]
    nullspace_dimension: int

    @property
    def is_exact(self) -> bool:
        return self.status is not CurvatureStatus.INCONSISTENT

    @cached_property
    def w(self) -> tuple[Fraction, ...]:
        shared = _fractions(self.nums, self.den)
        return tuple(map(shared.__getitem__, self.nums))

    @cached_property
    def K(self) -> Fraction:
        return self.w[self.nums.index(min(self.nums))]

    @cached_property
    def total(self) -> Fraction:
        return Fraction(sum(map(abs, self.nums)), self.den)

    @cached_property
    def residual_range(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.dw[0], self.den), Fraction(self.dw[1], self.den)


# Keys of the cached solve and curvature in a DistanceMatrix's instance dictionary.
_SOLVE_KEY = "_curvature_solve"
_RESULT_KEY = "_curvature_result"


def _cached(dm: DistanceMatrix, key: str, make):
    """``make()``, computed once per distance matrix and cached on it under ``key``.

    The value is kept in the instance dictionary, where a ``cached_property``
    would keep it, so every consumer of one ``DistanceMatrix`` (above all a
    graph's own ``Graph.distance_matrix``) shares one value, and a fresh
    matrix gets a fresh one.
    """
    cache = vars(dm)
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _distance_solve(dm: DistanceMatrix) -> SolveOutcome:
    """The exact solve of ``D w = n * 1``, made once per distance matrix."""
    return _cached(dm, _SOLVE_KEY, lambda: solve_exact(dm.entries, np.full(dm.n, dm.n)))


def compute_curvature(g: Graph, dm: DistanceMatrix | None = None) -> CurvatureResult:
    """Run the full curvature pipeline on a connected graph.

    Solves ``D w = n * 1`` exactly. A unique solution is returned as-is; an
    affine family is canonicalized to the max-min solution; an inconsistent
    system falls back to the exact pseudo-inverse solution. ``dm``
    defaults to ``g.distance_matrix``. The result is made once per distance
    matrix and cached on it, like the solve, so every caller shares one
    max-min LP.

    Every result is one point ``(nums, den)`` of integer numerators over one
    denominator, kept as it is: ``solve_exact``'s particular solution if unique;
    for an affine family the max-min point on the cells of the coarsest
    D-equitable partition (see Notes), which is ``(n * 1, R)`` when one cell
    holds every vertex, the graphs with constant row sums R, and otherwise
    the point in lowest terms from ``lp_max_min`` on the cells; for an
    inconsistent system, ``pseudo_apply`` of ``n * 1`` and the kernel rows.
    Its residual range, min/max of ``(D w)_i``, is ``(n, n)`` for a unique
    solution on the strength of ``solve_exact``'s certificate: full rank
    makes every row a pivot row, so ``D nums == den * n * 1`` has already
    held in exact integers on all n equations, and for the constant point of
    one cell, as ``D (n * 1) == R * n * 1`` from the exact integer row sums.
    For every other point ``D nums`` is multiplied out in integers. The
    result's Fraction views are built only when read.

    Notes
    -----
    The max-min LP runs on the cells of the coarsest D-equitable partition
    (Godsil and Royle, *Algebraic Graph Theory*, ch. 9): its indicator
    matrix P, with cell sizes ``S = P^T P``, has ``D P = P B`` for an integer
    B. Averaging over cells, ``A = P S^-1 P^T``, then keeps the leximin point
    w* as it is:

    - A is symmetric, nonnegative and ``A 1 = 1``, so doubly stochastic;
    - A commutes with the symmetric D: ``A D = P S^-1 (D P)^T = P S^-1 B^T
      P^T`` and ``D A = P B S^-1 P^T``, equal as ``S B = P^T D P`` is
      symmetric. So
      ``D A w = A D w = n A 1 = n 1``: A maps solutions to solutions;
    - ``A w`` is majorized by w (Hardy, Littlewood and Polya), so the sum of
      its j smallest entries is at least w's for every j, and at the first
      place where the two sorted vectors differ ``A w`` is larger: it is
      never below w in the leximin order. So ``A w*`` is a leximin point
      too, and as that point is unique, ``A w* = w*``: w* is constant on
      cells.

    The cell-constant solutions are ``P u`` for u in the averages of the
    family's point and directions over each cell. ``P u`` sorts as u with
    each ``u_c`` repeated ``s_c`` times, and a leximin with positive
    multiplicities pins the same coordinates at the same level values as
    one without them: each level's optimal face has a point at which every
    coordinate not pinned on the whole face is above the level value. So
    ``lp_max_min`` on the cells, with the cell sizes as multiplicities,
    gives the u of w*. The refinement's keys only steer; ``D P == P B`` and
    the symmetry of D are checked in integers, and a partition that fails
    them is replaced by a cell per vertex, which is always equitable: then
    the LP runs over every vertex, with unit multiplicities. One cell is the
    other end: ``D 1 = R 1``, every solution has the entry sum ``n^2 / R``,
    and the constant point ``n 1 / R`` is the leximin point with no LP.
    """
    if dm is None:
        dm = g.distance_matrix
    return _cached(dm, _RESULT_KEY, lambda: _curvature(dm))


def _curvature(dm: DistanceMatrix) -> CurvatureResult:
    n = dm.n
    outcome = _distance_solve(dm)
    # (min, max) of D nums, exactly
    dw = None
    if outcome.status is SolveStatus.UNIQUE:
        status = CurvatureStatus.EXACT_UNIQUE
        nums, den = outcome.particular
        # full rank: solve_exact's certificate held on every row
        dw = n * den, n * den
    elif outcome.status is SolveStatus.INCONSISTENT:
        status = CurvatureStatus.INCONSISTENT
        nums, den = pseudo_apply(dm.entries, np.full(n, n), outcome.kernel_rows)
    else:
        status = CurvatureStatus.EXACT_CANONICAL
        # the system is consistent, so every kernel vector v has
        # sum(v) = v^T D w / n = 0 and min_i w_i is bounded above
        nums, den, dw = _max_min_on_cells(dm.entries, outcome)
    if dw is None:
        product = integer_matmul(dm.entries, nums)
        dw = int(product.min()), int(product.max())
    return CurvatureResult(status, tuple(nums.tolist()), den, dw, outcome.nullspace_dimension)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted: ``np.unique`` without its first call's
    import of ``numpy.ma``."""
    ordered = np.sort(keys)
    fresh = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def _equitable_cells(d: np.ndarray) -> np.ndarray:
    """Cell index per vertex of the coarsest D-equitable partition, by colour refinement.

    The first round splits the vertices by row sum, and ends the refinement
    when all row sums agree or every vertex has its own cell. Each later
    round keys every vertex by its cell and by one int64 product
    ``D @ omega[cells]``, with fixed odd weights ``omega`` (a multiply and an
    xorshift of the cell index) and wraparound, and splits by the distinct
    keys; it stops when a round adds no cell. A key collision can only merge
    cells, so the keys only steer: the caller certifies the partition.
    """
    n, sums = len(d), d.sum(axis=1)
    values = _distinct(sums)
    cells, count = np.searchsorted(values, sums), len(values)
    if count in (1, n):
        return cells
    omega = np.arange(1, n + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    omega ^= omega >> 31
    omega = (omega | 1).view(np.int64)
    while True:
        weights = omega[cells]
        keys = (d @ weights) ^ weights
        values = _distinct(keys)
        if len(values) <= count:
            return cells
        cells, count = np.searchsorted(values, keys), len(values)


def _cell_numerators(grouped: np.ndarray, sizes: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, int]:
    """``(N, L)`` for rows whose columns are grouped by cell, cell c the ``sizes[c]`` columns from
    ``starts[c]`` on: ``N[:, c] = (L / s_c) * sum of cell c's columns``, L the lcm of the ``s_c``.

    ``N / L`` holds the cell averages. Every partial sum is within
    ``L |grouped|``, and N is int64 while that is below 2^63, Python ints
    past it.
    """
    big = lcm(*sizes.tolist())
    dtype = _int_dtype(big * max(_absmax(grouped), 1))
    sums = np.add.reduceat(grouped.astype(dtype, copy=False), starts, axis=1)
    return sums * (big // sizes.astype(dtype)), big


def _max_min_on_cells(d: np.ndarray, outcome: SolveOutcome) -> tuple[np.ndarray, int, tuple[int, int] | None]:
    """``(nums, den, dw)``: the leximin point of the affine family on the cells of the coarsest
    D-equitable partition (``compute_curvature``'s Notes), and the range ``dw`` of ``D nums``
    where it is known without the product.

    One cell gives the constant point ``(n * 1, R)`` of the row sums R and ``dw = (n R, n R)``.
    More cells give ``lp_max_min``'s point on the cells, reduced by its gcd, and ``dw = None``.
    A partition that fails its certificate is replaced by a cell per vertex.
    """
    n = len(d)
    cells = _equitable_cells(d)
    sizes = np.bincount(cells)
    order, starts = cells.argsort(kind="stable"), np.cumsum(sizes) - sizes
    # D P with its columns in cell order: each row equals its cell's first row exactly when
    # D P == P B; the lemma also needs D symmetric, as a distance matrix is
    dp = np.add.reduceat(d[:, order], starts, axis=1)
    if not ((dp == dp[order[starts]][cells]).all() and np.array_equal(d, d.T)):
        cells = order = starts = np.arange(n)
        sizes = np.ones(n, dtype=np.int64)
    elif len(sizes) == 1:
        # D 1 = R 1, and every solution has the entry sum n^2 / R, so the constant point is the
        # leximin one
        r = int(dp[0, 0])
        return np.full(n, n), r, (n * r, n * r)
    nums, den = outcome.particular
    sums, big = _cell_numerators(np.vstack((nums, outcome.kernel_rows))[:, order], sizes, starts)
    point, dirs = sums[0], sums[1:]
    dirs = dirs[dirs.any(axis=1)]
    dirs //= np.gcd.reduce(dirs, axis=1, keepdims=True)
    dirs = dirs[list({row: i for i, row in enumerate(map(tuple, dirs.tolist()))}.values())]
    den *= big
    if len(dirs):
        point, den = lp_max_min((point, den), dirs, sizes)
    # the point solves D w = n 1, so it is not 0 and g fits its dtype
    g = gcd(den, *point.tolist())
    return (point // g)[cells], den // g, None


def _complete_form(n: int) -> Fraction:
    if n < 2:
        raise FamilySpecError("complete closed form needs n >= 2")
    return Fraction(n, n - 1)


# family -> its constant curvature, a function of the parameters
_CLOSED_FORMS = {
    "complete": _complete_form,
    "cycle": lambda n: Fraction(n, n * n // 4),
    "hypercube": lambda n: Fraction(2, n),
    "cocktail_party": lambda n: Fraction(1),
    "johnson": lambda n, k: Fraction(n, k * (n - k)),
    "demicube": lambda n: Fraction(4, n),
}


def curvature_of_family(spec: FamilySpec) -> Fraction:
    """Closed-form constant curvature of the families in ``_CLOSED_FORMS``.

    The parameters pass ``check_family_params`` first, but no graph is built,
    so the vertex limit does not apply.
    """
    check_family_params(spec)
    if spec.family not in _CLOSED_FORMS:
        raise FamilySpecError(f"family {spec.family!r} has no closed-form curvature")
    return _CLOSED_FORMS[spec.family](*spec.params)


@dataclass(frozen=True)
class NullspaceSumReport:
    """Entry sums of the kernel basis of D; nonzero sums mark exceptional graphs."""

    nullspace_dimension: int
    entry_sums: tuple[Fraction, ...]
    exceptional: bool


def nullspace_sum_check(g: Graph, dm: DistanceMatrix | None = None) -> NullspaceSumReport:
    """Report the entry sum of each kernel basis vector of the distance matrix.

    Every solution of ``D w = n * 1`` is ``p + sum_j c_j v_j`` for a particular
    solution p and the kernel basis v_j. All-zero sums are the total-curvature
    invariance: every solution has p's entry sum, ``sum(compute_curvature(g).w)``,
    which is the l1 norm of each nonnegative solution; one exists exactly when
    ``compute_curvature(g).K >= 0``. A consistent system has them, as
    ``1 . v = w^T D v / n = 0``. A kernel vector with nonzero entry sum
    certifies that ``D w = n * 1`` has no solution, so such graphs are flagged
    exceptional. ``dm`` defaults to ``g.distance_matrix``.
    """
    outcome = _distance_solve(g.distance_matrix if dm is None else dm)
    sums = outcome.kernel_sum_numerators
    return NullspaceSumReport(
        nullspace_dimension=outcome.nullspace_dimension,
        entry_sums=tuple(map(_fractions(sums, outcome.den).__getitem__, sums)),
        # a sum is nonzero exactly when its numerator over den is
        exceptional=any(sums),
    )
