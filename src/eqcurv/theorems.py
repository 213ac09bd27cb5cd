"""Verifiers for the curvature theorem suite and the spectral quantities they use.

Each checker returns a TheoremReport, and every assertion in it is stated
once, through ``_check``: exact rational quantities compare exactly (zero
tolerance); wherever a float enters, both sides compare as floats with a
1e-9 absolute slack in favour of holding (``a + s >= b``, ``a <= b + s``),
so numerical noise can never fail a true statement. The one comparison
slacked the other way is ``spectral_criterion``'s prediction: there noise
must never predict "solvable". Nothing is sampled: the minimax bracketing is
proved for every measure at once through the sharp measure nu* and the
symmetry of D, and theorem5 takes float weights at their exact dyadic
values. Reports distinguish "hypothesis unmet" (not applicable, counts as
passed) from a genuine failed inequality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm, sqrt

import numpy as np

from .curvature import CurvatureResult, CurvatureStatus, _distance_solve
from .graphs import DistanceMatrix, Graph, cartesian_product
from .linalg import INT64_LIMIT, integer_matmul

__all__ = [
    "SpectralInfo",
    "Quantity",
    "InequalityCheck",
    "TheoremReport",
    "FLOAT_SLACK",
    "spectral_gap",
    "check_bonnet_myers",
    "check_reverse_bonnet_myers",
    "check_lichnerowicz",
    "check_minimax",
    "check_theorem5",
    "spectral_criterion",
    "perron_alignment",
    "check_product_curvature",
]

FLOAT_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralInfo:
    """Eigen-data of the Laplacian (Deg - A) and of the distance matrix.

    ``lambda1`` is the spectral gap (second-smallest Laplacian eigenvalue);
    the Laplacian spectrum is ascending, the distance spectrum descending so
    its first entry is the Perron eigenvalue. ``c_G`` measures how close the
    Perron eigenvector of D is to constant: <v, 1> / (||v|| * sqrt(n)).
    """

    lambda1: float
    laplacian_spectrum: tuple[float, ...]
    distance_spectrum: tuple[float, ...]
    perron_vector: tuple[float, ...]
    c_G: float


@dataclass(frozen=True)
class Quantity:
    label: str
    value: float
    exact: str | None = None


@dataclass(frozen=True)
class InequalityCheck:
    label: str
    lhs: Quantity
    relation: str
    rhs: Quantity
    holds: bool
    exact_arithmetic: bool


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    hypothesis_satisfied: bool
    checks: tuple[InequalityCheck, ...]
    passed: bool
    notes: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        """True only for a hypothesis-satisfied report with a failed check."""
        return self.hypothesis_satisfied and not self.passed


def _q(label: str, value) -> Quantity:
    return Quantity(label, float(value), None if isinstance(value, float) else str(value))


_EXACT_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq,
                    "and": lambda a, b: a and b}


def _check(label: str, lhs: tuple, relation: str, rhs: tuple) -> InequalityCheck:
    """``lhs relation rhs``, each side a ``(label, value)`` pair.

    Ints and Fractions compare exactly. When either side is a float, both
    compare as floats with FLOAT_SLACK in favour of holding.
    """
    (lhs_label, a), (rhs_label, b) = lhs, rhs
    exact = not (isinstance(a, float) or isinstance(b, float))
    if exact:
        holds = bool(_EXACT_RELATIONS[relation](a, b))
    else:
        x, y = float(a), float(b)
        le, ge = x <= y + FLOAT_SLACK, x + FLOAT_SLACK >= y
        holds = {"<=": le, ">=": ge, "==": le and ge}[relation]
    return InequalityCheck(label, _q(lhs_label, a), relation, _q(rhs_label, b), holds, exact)


def _report(theorem: str, checks, notes=()) -> TheoremReport:
    checks = tuple(checks)
    return TheoremReport(theorem, True, checks, all(c.holds for c in checks), tuple(notes))


def _not_applicable(theorem: str, reason: str) -> TheoremReport:
    return TheoremReport(theorem, False, (), True, (f"hypothesis not satisfied: {reason}",))


def _exact_hypothesis(result: CurvatureResult, need_positive_k: bool = False) -> str | None:
    """Reason string when the Exact*/K-sign hypothesis fails, else None."""
    if not result.is_exact:
        return "no exact solution (status inconsistent)"
    if need_positive_k:
        if result.K <= 0:
            return f"K = {result.K} is not positive"
    elif result.K < 0:
        return f"K = {result.K} is negative"
    return None


def spectral_gap(g: Graph) -> SpectralInfo:
    """Eigendecompose the graph Laplacian and the distance matrix.

    Both matrices are exactly symmetric, so ``numpy.linalg.eigh`` takes them
    as they are: ``symmetric_eigen``'s symmetry check and ``(M + M^T) / 2``
    would leave them unchanged bit for bit, and its residual is not read
    here. The results equal ``symmetric_eigen``'s, bit for bit.
    """
    if g.n < 2:
        raise ValueError("spectral quantities need at least two vertices")
    n = g.n
    adj = g.adjacency_matrix.astype(float)
    lap_asc = tuple(np.linalg.eigh(np.diag(adj.sum(axis=1)) - adj)[0].tolist())
    dist_values, dist_vectors = np.linalg.eigh(g.distance_matrix.entries.astype(float))
    # eigh is ascending: the Perron pair is the last
    v = dist_vectors[:, -1].copy()
    if v.sum() < 0:
        v = -v
    c_g = float(v.sum() / (np.linalg.norm(v) * sqrt(n)))
    return SpectralInfo(
        lambda1=lap_asc[1],
        laplacian_spectrum=lap_asc,
        distance_spectrum=tuple(dist_values[::-1].tolist()),
        perron_vector=tuple(v.tolist()),
        c_G=c_g,
    )


def check_bonnet_myers(
    g: Graph, result: CurvatureResult, dm: DistanceMatrix | None = None
) -> TheoremReport:
    """diam(G) <= 2n/||w||_1 <= 2/K, plus the rigidity clause at diam*K == 2.

    ``dm`` defaults to ``g.distance_matrix``.
    """
    reason = _exact_hypothesis(result)
    if reason is not None:
        return _not_applicable("bonnet_myers", reason)
    n = g.n
    diam = (g.distance_matrix if dm is None else dm).diameter()
    k_val: Fraction = result.K
    mid = Fraction(2 * n) / result.total
    checks = [_check("diam <= 2n/||w||_1", ("diam", diam), "<=", ("2n/||w||_1", mid))]
    notes: list[str] = []
    if k_val > 0:
        checks.append(
            _check("2n/||w||_1 <= 2/K", ("2n/||w||_1", mid), "<=", ("2/K", Fraction(2) / k_val))
        )
        if diam * k_val == 2:
            checks.append(
                _check(
                    "diam*K == 2 implies constant curvature",
                    ("distinct w values", len(set(result.nums))), "==", ("one", 1),
                )
            )
            notes.append("sharp: diam * K == 2, rigidity clause checked")
    else:
        notes.append("K == 0: the 2/K bound is vacuous")
    return _report("bonnet_myers", checks, notes)


def check_reverse_bonnet_myers(
    g: Graph, result: CurvatureResult, dm: DistanceMatrix | None = None
) -> TheoremReport:
    """||w||_1 >= n^2 / ((n-1) diam), with equality exactly for complete graphs.

    ``dm`` defaults to ``g.distance_matrix``.
    """
    reason = _exact_hypothesis(result)
    if reason is not None:
        return _not_applicable("reverse_bonnet_myers", reason)
    n = g.n
    diam = (g.distance_matrix if dm is None else dm).diameter()
    total: Fraction = result.total
    bound = Fraction(n * n, (n - 1) * diam)
    checks = [_check("||w||_1 >= n^2/((n-1) diam)", ("||w||_1", total), ">=", ("bound", bound))]
    notes: list[str] = []
    if total == bound:
        checks.append(
            _check(
                "equality implies complete graph",
                ("edge count", g.edge_count), "==", ("n(n-1)/2", n * (n - 1) // 2),
            )
        )
        notes.append("equality case: graph must be (and is checked to be) complete")
    return _report("reverse_bonnet_myers", checks, notes)


def check_lichnerowicz(g: Graph, result: CurvatureResult, info: SpectralInfo) -> TheoremReport:
    """lambda_1 >= ||w||_1 / (2n^2) >= K / (2n), for positive K."""
    reason = _exact_hypothesis(result, need_positive_k=True)
    if reason is not None:
        return _not_applicable("lichnerowicz", reason)
    n = g.n
    mid = result.total / (2 * n * n)
    return _report("lichnerowicz", (
        _check("lambda_1 >= ||w||_1/(2n^2)", ("lambda_1", info.lambda1), ">=", ("mid", mid)),
        _check("||w||_1/(2n^2) >= K/(2n)", ("mid", mid), ">=", ("K/(2n)", result.K / (2 * n))),
    ))


def check_minimax(
    g: Graph,
    result: CurvatureResult,
    *,
    seed: int | None = None,
    dm: DistanceMatrix | None = None,
) -> TheoremReport:
    """min_a (D nu)_a <= n/||w||_1 <= max_b (D nu)_b for every probability measure nu.

    Every check is exact. Under the hypothesis K >= 0, nu* = w/||w||_1 is a
    probability measure; once ``D nu* = alpha * 1`` and ``D = D^T`` are
    checked, every nu satisfies ``min_a (D nu)_a <= nu*.(D nu) = nu.(D nu*) =
    alpha <= max_b (D nu)_b``, so the statement holds for all measures at
    once. The point masses and the uniform measure are checked directly as
    well. ``dm`` defaults to ``g.distance_matrix``; ``seed`` is accepted and
    ignored, as no measure is drawn at random.
    """
    reason = _exact_hypothesis(result)
    if reason is not None:
        return _not_applicable("minimax", reason)
    if dm is None:
        dm = g.distance_matrix
    n = g.n
    total: Fraction = result.total
    alpha = Fraction(n) / total
    # uniform measure, exact: (D nu)_a is row sum a over n
    sums = dm.row_sums()
    row_min, row_max = Fraction(int(sums.min()), n), Fraction(int(sums.max()), n)
    # nu* = w / ||w||_1 achieves equality on both sides; D nu* entries are the
    # already-computed residuals divided by the total
    lo = result.residual_range[0] / total
    hi = result.residual_range[1] / total
    symmetric = bool(np.array_equal(dm.entries, dm.entries.T))
    checks = (
        # point masses: (D e_a)_i = d(i, a); the min side is 0 at i = a, the
        # max side is the eccentricity of a
        _check(
            "point masses: min_a ecc(a) >= alpha",
            ("min eccentricity", int(dm.entries.max(axis=0).min())), ">=", ("alpha", alpha),
        ),
        _check("point masses: 0 <= alpha", ("zero", 0), "<=", ("alpha", alpha)),
        _check("uniform: min (D nu)_a <= alpha", ("min", row_min), "<=", ("alpha", alpha)),
        _check("uniform: alpha <= max (D nu)_b", ("alpha", alpha), "<=", ("max", row_max)),
        _check("nu*: min (D nu*)_a == alpha", ("min", lo), "==", ("alpha", alpha)),
        _check("nu*: max (D nu*)_b == alpha", ("max", hi), "==", ("alpha", alpha)),
        # D = D^T and D nu* = alpha * 1 give the bracketing for every measure
        _check(
            "every nu: min (D nu)_a <= alpha <= max (D nu)_b",
            ("D == D^T", int(symmetric)), "and", ("D nu* == alpha * 1", int(lo == alpha == hi)),
        ),
    )
    notes = (
        "D = D^T and D nu* = alpha * 1 give, for every nu, "
        "min_a (D nu)_a <= nu*.(D nu) = nu.(D nu*) = alpha <= max_b (D nu)_b",
    )
    return _report("minimax", checks, notes)


def _exact_weight(x) -> Fraction:
    """``x`` as a Fraction; a float becomes its exact dyadic value."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        # Fraction(np.int64) would keep a wrapping int64 numerator
        return Fraction(int(x))
    x = float(x)
    if not isfinite(x):
        raise ValueError("theorem5 needs every entry of w to be finite")
    return Fraction(x)


def check_theorem5(g: Graph, w, info: SpectralInfo) -> TheoremReport:
    """Bounds for arbitrary positive weight vectors.

    For any w > 0 with K = min_i w_i:
    ``diam(G) <= (||Dw||_inf / n) * 8/K`` and ``lambda_1 >= K / (8 ||Dw||_inf)``.
    Unlike the other checkers, w need not solve the distance system. Float
    entries are taken at their exact dyadic values, so the diameter bound is
    always checked in rational arithmetic. A Python int (a bool excluded) is
    read through its own ``numerator`` and ``denominator``, and any other
    entry is first made a Fraction; the weights then take one common
    denominator. The numerators go to ``integer_matmul`` as int64 while
    every one is below 2^63, so ``2**70`` stays exact.
    """
    w_list = list(w)
    if len(w_list) != g.n:
        raise ValueError("w length does not match the vertex count")
    w_exact = [x if type(x) is int else _exact_weight(x) for x in w_list]
    den = lcm(*{x.denominator for x in w_exact})
    nums = [x.numerator * (den // x.denominator) for x in w_exact]
    # K = kn / den
    kn = min(nums)
    if kn <= 0:
        raise ValueError("theorem5 needs every entry of w to be positive")
    dm = g.distance_matrix
    # every numerator is positive now, so the largest decides whether int64 holds them
    nums = np.array(nums, dtype=np.int64 if max(nums) < INT64_LIMIT else object)
    # ||Dw||_inf = dw / den, as D >= 0 and w > 0 make D w >= 0
    dw = int(integer_matmul(dm.entries, nums).max())
    # den cancels from both bounds, so each is one Fraction of integer products
    return _report("theorem5", (
        _check(
            "diam <= (||Dw||_inf/n) * 8/K",
            ("diam", dm.diameter()), "<=", ("(||Dw||_inf/n)*8/K", Fraction(8 * dw, g.n * kn)),
        ),
        _check(
            "lambda_1 >= K/(8 ||Dw||_inf)",
            ("lambda_1", info.lambda1), ">=", ("K/(8||Dw||_inf)", Fraction(kn, 8 * dw)),
        ),
    ))


def spectral_criterion(info: SpectralInfo, curvature_status: CurvatureStatus) -> TheoremReport:
    """Sufficient solvability test from the distance spectrum.

    When D has one positive eigenvalue (lambda_1 > 0 >= lambda_2 >= ...) and
    ``1 - <v, 1/sqrt(n)>^2 < |lambda_2| / (lambda_1 - lambda_2)``, the system
    ``D x = 1`` is solvable. The prediction is evaluated one-sidedly (slack
    subtracted) so floating noise cannot produce a false "solvable". Soundness
    is cross-checked against the exact classification: a true criterion must
    not meet an inconsistent classification.
    """
    ds = info.distance_spectrum
    if len(ds) < 2:
        return _not_applicable("spectral_criterion", "spectrum too small")
    lam1, lam2 = ds[0], ds[1]
    if not (lam1 > 0 and lam2 <= FLOAT_SLACK and (lam1 - lam2) > 0):
        return _not_applicable(
            "spectral_criterion",
            f"distance spectrum not of the form lambda_1 > 0 >= lambda_2 (lambda_2 = {lam2:.3e})",
        )
    # Built by hand rather than through _check: the first check is a
    # prediction, so its slack works against holding (float noise must never
    # predict "solvable"), and ``passed`` is the soundness check alone.
    lhs = 1.0 - info.c_G**2
    rhs = abs(lam2) / (lam1 - lam2)
    criterion_true = lhs < rhs - FLOAT_SLACK
    verdict = "holds: predicts solvable" if criterion_true else "does not hold: no prediction"
    notes = (f"criterion {verdict}",)
    sound = not (criterion_true and curvature_status is CurvatureStatus.INCONSISTENT)
    checks = (
        InequalityCheck(
            "1 - <v, 1/sqrt(n)>^2 < |lambda_2|/(lambda_1 - lambda_2)",
            _q("1 - c_G^2", lhs), "<", _q("|lambda_2|/(lambda_1-lambda_2)", rhs),
            criterion_true, False,
        ),
        InequalityCheck(
            "criterion true implies exactly solvable",
            _q("criterion", int(criterion_true)), "=>",
            _q("solvable", int(curvature_status is not CurvatureStatus.INCONSISTENT)),
            sound, False,
        ),
    )
    return TheoremReport("spectral_criterion", True, checks, sound, notes)


def perron_alignment(info: SpectralInfo) -> TheoremReport:
    """Alignment of the Perron eigenvector of D with the constant vector.

    Asserts c_G >= 1/sqrt(2) (a metric-space fact); values at or below 0.95
    are merely flagged as notable since they are hard to find.
    """
    notes = [f"notable: c_G = {info.c_G:.6f} <= 0.95"] if info.c_G <= 0.95 else []
    check = _check("c_G >= 1/sqrt(2)", ("c_G", info.c_G), ">=", ("1/sqrt(2)", 1.0 / sqrt(2.0)))
    return _report("perron_alignment", (check,), notes)


def check_product_curvature(g: Graph, h: Graph) -> TheoremReport:
    """``rho(G x H) == rho(G) + rho(H)`` for every pair of connected graphs.

    For a graph on n vertices, ``S = 1.w`` is the same for every solution of
    ``D w = n * 1``: 1 lies in the range of the symmetric D, so it is
    orthogonal to ker D. ``rho = n/S``, with ``rho = inf`` when ``S = 0`` and
    ``rho = 0`` when the system is inconsistent (``K_1`` is). With constant
    curvature K, ``rho = 1/K``, and the law is the harmonic sum. It follows
    from ``D_{GxH} = D_G (x) J + J (x) D_H``:

    - both factors consistent with ``rho_G + rho_H`` finite and nonzero:
      ``c w_G (x) w_H`` solves the product's system for one scalar c;
    - ``rho_G + rho_H = 0``: ``w_G (x) w_H`` is a kernel vector with a
      nonzero sum, so the product is inconsistent;
    - ``S_G = 0``: ``w_G (x) 1`` solves the product's system, with sum 0;
    - G inconsistent, with a kernel vector z of nonzero sum, and H
      consistent: ``(n_G / sum z) z (x) w_H`` solves the product's system;
    - both factors inconsistent: ``z_G (x) z_H`` is a kernel vector with a
      nonzero sum.

    Each S is read from the graph's cached exact solve, and no max-min LP
    runs, as S does not depend on the solution taken. Each rho is the
    projective pair ``(n den, sum nums)``, ``(0, 1)`` when inconsistent, and
    the check is one exact cross-multiplication of the product's pair with
    the sum of the factors' pairs.
    """
    pairs = []
    for x in (g, h, cartesian_product(g, h)):
        point = _distance_solve(x.distance_matrix).particular
        pairs.append((0, 1) if point is None else (x.n * point[1], sum(point[0].tolist())))
    (a_g, b_g), (a_h, b_h), (a_p, b_p) = pairs
    a, b = a_g * b_h + a_h * b_g, b_g * b_h
    if (a, b) == (0, 0):
        a = 1  # both factor sums are 0, and inf + inf = inf
    # both sides divided by one positive integer: exact, and each in [-1, 1] for float()
    scale = max(abs(a_p), abs(b_p)) * max(abs(a), abs(b))
    check = _check(
        "rho(G x H) == rho(G) + rho(H)",
        ("a_P b", Fraction(a_p * b, scale)), "==", ("b_P a", Fraction(b_p * a, scale)),
    )
    rho = [str(Fraction(*pair)) if pair[1] else "inf" for pair in pairs]
    note = "rho(G x H) = {2}, rho(G) = {0}, rho(H) = {1}; rho = n/S, which is 1/K for constant K"
    return _report("product_curvature", (check,), (note.format(*rho),))
