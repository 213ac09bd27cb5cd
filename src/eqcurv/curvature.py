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

import numpy as np

from .graphs import DistanceMatrix, FamilySpec, FamilySpecError, Graph, check_family_params
from .linalg import (
    SolveOutcome,
    SolveStatus,
    _fractions,
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
    for EXACT_CANONICAL by an exact product ``D nums``. For INCONSISTENT,
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
    denominator, kept as it is: ``solve_exact``'s particular solution if unique,
    ``(n * 1, R)`` for constant row sums R, else ``lp_max_min`` of that
    solution and the integer kernel rows; for an inconsistent system,
    ``pseudo_apply`` of ``n * 1`` and the kernel rows. Its residual range,
    min/max of ``(D w)_i``, is ``(n, n)`` for a unique solution on the
    strength of ``solve_exact``'s certificate: full rank makes every row a
    pivot row, so ``D nums == den * n * 1`` has already held in exact
    integers on all n equations, and for the constant point of constant row
    sums R, as ``D (n * 1) == R * n * 1`` from the exact integer row sums. For
    every other point ``D nums`` is multiplied out in integers. The
    result's Fraction views are built only when read.
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
        den = dm.constant_row_sum()
        if den is not None:
            # constant row sums make the constant vector the unique max-min
            # point of the family, so the LP can be skipped, and D (n * 1)
            # is n R on every row, from the exact integer row sums
            nums = np.full(n, n)
            dw = n * den, n * den
        else:
            # the system is consistent, so every kernel vector v has
            # sum(v) = v^T D w / n = 0 and min_i w_i is bounded above
            nums, den = lp_max_min(outcome.particular, outcome.kernel_rows)
    if dw is None:
        product = integer_matmul(dm.entries, nums)
        dw = int(product.min()), int(product.max())
    return CurvatureResult(status, tuple(nums.tolist()), den, dw, outcome.nullspace_dimension)


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
