"""Curvature pipeline: distance matrix -> exact solve -> canonical choice ->
pseudo-inverse fallback -> summary quantities.

The curvature vector w of a connected graph on n vertices solves
``D w = n * 1`` over the hop-count distance matrix D: a signed vertex measure
whose distance-weighted total is the same seen from every vertex. ``K`` is the
smallest entry (the curvature lower bound) and ``total`` the l1 norm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import DistanceMatrix, FamilySpec, Graph, FamilySpecError, apsp
from .linalg import SolveStatus, common_denominator, lp_max_min, pseudo_apply, solve_exact

__all__ = [
    "CurvatureStatus",
    "CurvatureResult",
    "InvarianceReport",
    "NullspaceSumReport",
    "compute_curvature",
    "curvature_of_family",
    "total_curvature_invariance_check",
    "nullspace_sum_check",
]


class CurvatureStatus(Enum):
    EXACT_UNIQUE = "exact_unique"
    EXACT_CANONICAL = "exact_canonical"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True, eq=False)
class CurvatureResult:
    """Per-vertex curvature with its solvability classification.

    For the Exact* statuses ``w`` is a tuple of Fractions and ``D w = n * 1``
    holds with rational equality, so ``residual_range == (n, n)``. For
    INCONSISTENT, ``w`` is the floating pseudo-inverse solution and K is only a
    pseudo lower bound (the exact-solution theorems do not apply to it).
    """

    status: CurvatureStatus
    w: tuple[Fraction, ...] | np.ndarray
    K: Fraction | float
    total: Fraction | float
    residual_range: tuple[Fraction, Fraction] | tuple[float, float]
    nullspace_dimension: int

    @property
    def is_exact(self) -> bool:
        return self.status is not CurvatureStatus.INCONSISTENT


def exact_matvec(entries: np.ndarray, w: Sequence[Fraction]) -> list[Fraction]:
    """Exact product of an integer matrix with a rational vector."""
    nums, den = common_denominator(w)
    return [
        Fraction(sum(d * x for d, x in zip(row, nums)), den)
        for row in entries.tolist()
    ]


def compute_curvature(g: Graph, dm: DistanceMatrix | None = None) -> CurvatureResult:
    """Run the full curvature pipeline on a connected graph.

    Solves ``D w = n * 1`` exactly. A unique solution is returned as-is; an
    affine family is canonicalized to the max-min solution; an inconsistent
    system falls back to the pseudo-inverse with floating arithmetic. The
    residual range min/max of ``(D w)_i`` is always computed through the same
    code path, so exact statuses report exactly (n, n).
    """
    if dm is None:
        dm = apsp(g)
    n = g.n
    outcome = solve_exact(dm.entries, [Fraction(n)] * n)

    if outcome.status is SolveStatus.UNIQUE:
        status = CurvatureStatus.EXACT_UNIQUE
        w: tuple[Fraction, ...] | np.ndarray = outcome.solution
    elif outcome.status is SolveStatus.AFFINE:
        status = CurvatureStatus.EXACT_CANONICAL
        row_sum = dm.constant_row_sum()
        if row_sum is not None:
            # constant row sums make the constant vector the unique max-min
            # point of the family, so the LP can be skipped
            w = (Fraction(n) / row_sum,) * n
        else:
            # the system is consistent, so every kernel vector v has
            # sum(v) = v^T D w / n = 0 and min_i w_i is bounded above
            w = lp_max_min(outcome.solution, outcome.nullspace)
    else:
        status = CurvatureStatus.INCONSISTENT
        w = pseudo_apply(dm.entries.astype(float), np.full(n, float(n)))

    if status is CurvatureStatus.INCONSISTENT:
        residuals = dm.entries.astype(float) @ w
        k_val: Fraction | float = float(np.min(w))
        total: Fraction | float = float(np.abs(w).sum())
        rrange: tuple = (float(residuals.min()), float(residuals.max()))
        w_arr = np.array(w, dtype=float)
        w_arr.setflags(write=False)
        w = w_arr
    else:
        residuals = exact_matvec(dm.entries, w)
        k_val = min(w)
        total = sum(abs(x) for x in w)
        rrange = (min(residuals), max(residuals))
    return CurvatureResult(status, w, k_val, total, rrange, outcome.nullspace_dimension)


def curvature_of_family(spec: FamilySpec) -> Fraction:
    """Closed-form constant curvature of the families that have one.

    complete n -> n/(n-1); cycle n -> n/floor(n^2/4); hypercube n -> 2/n;
    cocktail_party -> 1; johnson (n,k) -> n/(k(n-k)); demicube n -> 4/n.
    """
    family, params = spec.family, spec.params
    if family == "complete":
        (n,) = params
        if n < 2:
            raise FamilySpecError("complete closed form needs n >= 2")
        return Fraction(int(n), int(n) - 1)
    if family == "cycle":
        (n,) = params
        return Fraction(int(n), (int(n) * int(n)) // 4)
    if family == "hypercube":
        (n,) = params
        return Fraction(2, int(n))
    if family == "cocktail_party":
        return Fraction(1)
    if family == "johnson":
        n, k = params
        return Fraction(int(n), int(k) * (int(n) - int(k)))
    if family == "demicube":
        (n,) = params
        return Fraction(4, int(n))
    raise FamilySpecError(f"family {family!r} has no closed-form curvature")


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of sampling the affine solution family for l1-norm invariance."""

    nullspace_dimension: int
    samples: int
    nonnegative_found: int
    all_equal: bool
    total: Fraction | None
    vacuous: bool


def total_curvature_invariance_check(
    g: Graph, samples: int = 10_000, seed: int = 0, dm: DistanceMatrix | None = None
) -> InvarianceReport:
    """Sample the affine solution space and check the l1 norm is invariant.

    Draws coefficients uniformly from [-2, 2] (as exact thousandths) for each
    nullspace direction, keeps the entrywise-nonnegative samples, and tests
    that they all share one l1 norm with rational equality. Zero nonnegative
    samples is a vacuous pass, flagged as such.
    """
    if dm is None:
        dm = apsp(g)
    n = g.n
    outcome = solve_exact(dm.entries, [Fraction(n)] * n)
    if outcome.status is not SolveStatus.AFFINE:
        return InvarianceReport(outcome.nullspace_dimension, samples, 0, True, None, True)
    p = outcome.solution
    basis = outcome.nullspace
    k = len(basis)
    rng = random.Random(seed)
    norms: set[Fraction] = set()
    found = 0
    for _ in range(samples):
        coeffs = [Fraction(rng.randint(-2000, 2000), 1000) for _ in range(k)]
        w = [p[i] + sum(c * vec[i] for c, vec in zip(coeffs, basis)) for i in range(n)]
        if min(w) >= 0:
            found += 1
            norms.add(sum(w))
    return InvarianceReport(
        nullspace_dimension=k,
        samples=samples,
        nonnegative_found=found,
        all_equal=len(norms) <= 1,
        total=next(iter(norms)) if len(norms) == 1 else None,
        vacuous=found == 0,
    )


@dataclass(frozen=True)
class NullspaceSumReport:
    """Entry sums of the kernel basis of D; nonzero sums mark exceptional graphs."""

    nullspace_dimension: int
    entry_sums: tuple[Fraction, ...]
    exceptional: bool


def nullspace_sum_check(g: Graph, dm: DistanceMatrix | None = None) -> NullspaceSumReport:
    """Report the entry sum of each kernel basis vector of the distance matrix.

    A kernel vector with nonzero entry sum certifies that ``D w = n * 1`` has
    no solution, so such graphs are flagged exceptional.
    """
    if dm is None:
        dm = apsp(g)
    outcome = solve_exact(dm.entries, [Fraction(g.n)] * g.n)
    sums = tuple(
        Fraction(sum(nums), den) for nums, den in map(common_denominator, outcome.nullspace)
    )
    return NullspaceSumReport(
        nullspace_dimension=outcome.nullspace_dimension,
        entry_sums=sums,
        exceptional=any(s != 0 for s in sums),
    )
