"""Verifiers for the curvature theorem suite and the spectral quantities they use.

Each checker returns a TheoremReport. Inequalities between exact rational
quantities are compared with rational equality (zero tolerance); wherever a
floating eigenvalue enters, the floating side gets a one-sided 1e-9 absolute
slack so numerical noise can never fail a true statement. Nothing is sampled:
the minimax bracketing is proved for every measure at once through the sharp
measure nu* and the symmetry of D, and theorem5 takes float weights at their
exact dyadic values. Reports distinguish "hypothesis unmet" (not applicable,
counts as passed) from a genuine failed inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm, sqrt

import numpy as np

from .curvature import CurvatureResult, CurvatureStatus, compute_curvature
from .graphs import DistanceMatrix, Graph, cartesian_product
from .linalg import integer_matmul, symmetric_eigen

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
    if isinstance(value, Fraction):
        return Quantity(label, float(value), str(value))
    if isinstance(value, (int, np.integer)):
        return Quantity(label, float(value), str(int(value)))
    return Quantity(label, float(value), None)


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
    """Eigendecompose the graph Laplacian and the distance matrix."""
    if g.n < 2:
        raise ValueError("spectral quantities need at least two vertices")
    n = g.n
    adj = g.adjacency_matrix.astype(float)
    lap = np.diag(adj.sum(axis=1)) - adj
    lap_eig = symmetric_eigen(lap)
    lap_asc = tuple(float(x) for x in lap_eig.eigenvalues[::-1])

    dist_eig = symmetric_eigen(g.distance_matrix.entries.astype(float))
    v = dist_eig.eigenvectors[:, 0].copy()
    if v.sum() < 0:
        v = -v
    c_g = float(v.sum() / (np.linalg.norm(v) * sqrt(n)))
    return SpectralInfo(
        lambda1=lap_asc[1],
        laplacian_spectrum=lap_asc,
        distance_spectrum=tuple(float(x) for x in dist_eig.eigenvalues),
        perron_vector=tuple(float(x) for x in v),
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
    total: Fraction = result.total
    k_val: Fraction = result.K
    mid = Fraction(2 * n) / total
    checks = [
        InequalityCheck(
            "diam <= 2n/||w||_1", _q("diam", diam), "<=", _q("2n/||w||_1", mid),
            Fraction(diam) <= mid, True,
        )
    ]
    notes: list[str] = []
    if k_val > 0:
        # 2n/total <= 2/K  <=>  n*K <= total
        checks.append(
            InequalityCheck(
                "2n/||w||_1 <= 2/K", _q("2n/||w||_1", mid), "<=", _q("2/K", Fraction(2) / k_val),
                n * k_val <= total, True,
            )
        )
        if Fraction(diam) * k_val == 2:
            constant = all(x == result.w[0] for x in result.w)
            checks.append(
                InequalityCheck(
                    "diam*K == 2 implies constant curvature",
                    _q("distinct w values", len(set(result.w))), "==", _q("one", 1),
                    constant, True,
                )
            )
            notes.append("sharp: diam * K == 2, rigidity clause checked")
    else:
        notes.append("K == 0: the 2/K bound is vacuous")
    passed = all(c.holds for c in checks)
    return TheoremReport("bonnet_myers", True, tuple(checks), passed, tuple(notes))


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
    checks = [
        InequalityCheck(
            "||w||_1 >= n^2/((n-1) diam)", _q("||w||_1", total), ">=", _q("bound", bound),
            total >= bound, True,
        )
    ]
    notes: list[str] = []
    if total == bound:
        complete = g.edge_count == n * (n - 1) // 2
        checks.append(
            InequalityCheck(
                "equality implies complete graph",
                _q("edge count", g.edge_count), "==", _q("n(n-1)/2", n * (n - 1) // 2),
                complete, True,
            )
        )
        notes.append("equality case: graph must be (and is checked to be) complete")
    passed = all(c.holds for c in checks)
    return TheoremReport("reverse_bonnet_myers", True, tuple(checks), passed, tuple(notes))


def check_lichnerowicz(g: Graph, result: CurvatureResult, info: SpectralInfo) -> TheoremReport:
    """lambda_1 >= ||w||_1 / (2n^2) >= K / (2n), for positive K."""
    reason = _exact_hypothesis(result, need_positive_k=True)
    if reason is not None:
        return _not_applicable("lichnerowicz", reason)
    n = g.n
    total: Fraction = result.total
    k_val: Fraction = result.K
    mid = total / (2 * n * n)
    right = k_val / (2 * n)
    checks = (
        InequalityCheck(
            "lambda_1 >= ||w||_1/(2n^2)", _q("lambda_1", info.lambda1), ">=", _q("mid", mid),
            info.lambda1 + FLOAT_SLACK >= float(mid), False,
        ),
        InequalityCheck(
            "||w||_1/(2n^2) >= K/(2n)", _q("mid", mid), ">=", _q("K/(2n)", right),
            mid >= right, True,
        ),
    )
    passed = all(c.holds for c in checks)
    return TheoremReport("lichnerowicz", True, checks, passed)


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
    checks: list[InequalityCheck] = []

    # point masses: (D e_a)_i = d(i, a); the min side is 0 at i = a, the max
    # side is the eccentricity of a
    ecc_min = int(dm.entries.max(axis=0).min())
    checks.append(
        InequalityCheck(
            "point masses: min_a ecc(a) >= alpha",
            _q("min eccentricity", ecc_min), ">=", _q("alpha", alpha),
            Fraction(ecc_min) >= alpha, True,
        )
    )
    checks.append(
        InequalityCheck(
            "point masses: 0 <= alpha", _q("zero", 0), "<=", _q("alpha", alpha),
            alpha >= 0, True,
        )
    )

    # uniform measure, exact
    row = [Fraction(int(s), n) for s in dm.row_sums()]
    checks.append(
        InequalityCheck(
            "uniform: min (D nu)_a <= alpha", _q("min", min(row)), "<=", _q("alpha", alpha),
            min(row) <= alpha, True,
        )
    )
    checks.append(
        InequalityCheck(
            "uniform: alpha <= max (D nu)_b", _q("alpha", alpha), "<=", _q("max", max(row)),
            alpha <= max(row), True,
        )
    )

    # nu* = w / ||w||_1 achieves equality on both sides; D nu* entries are the
    # already-computed residuals divided by the total
    lo = result.residual_range[0] / total
    hi = result.residual_range[1] / total
    checks.append(
        InequalityCheck(
            "nu*: min (D nu*)_a == alpha", _q("min", lo), "==", _q("alpha", alpha),
            lo == alpha, True,
        )
    )
    checks.append(
        InequalityCheck(
            "nu*: max (D nu*)_b == alpha", _q("max", hi), "==", _q("alpha", alpha),
            hi == alpha, True,
        )
    )

    # D = D^T and D nu* = alpha * 1 give the bracketing for every measure
    symmetric = bool(np.array_equal(dm.entries, dm.entries.T))
    sharp = lo == alpha == hi
    checks.append(
        InequalityCheck(
            "every nu: min (D nu)_a <= alpha <= max (D nu)_b",
            _q("D == D^T", int(symmetric)), "and", _q("D nu* == alpha * 1", int(sharp)),
            symmetric and sharp, True,
        )
    )
    notes = (
        "D = D^T and D nu* = alpha * 1 give, for every nu, "
        "min_a (D nu)_a <= nu*.(D nu) = nu.(D nu*) = alpha <= max_b (D nu)_b",
    )
    passed = all(c.holds for c in checks)
    return TheoremReport("minimax", True, tuple(checks), passed, notes)


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
    always checked in rational arithmetic.
    """
    w_list = list(w)
    if len(w_list) != g.n:
        raise ValueError("w length does not match the vertex count")
    w_frac = [_exact_weight(x) for x in w_list]
    k_val = min(w_frac)
    if k_val <= 0:
        raise ValueError("theorem5 needs every entry of w to be positive")
    dm = g.distance_matrix
    n = g.n
    diam = dm.diameter()
    den = lcm(*(x.denominator for x in w_frac))
    nums = np.array([x.numerator * (den // x.denominator) for x in w_frac], dtype=object)
    dw_inf = Fraction(int(np.abs(integer_matmul(dm.entries, nums)).max()), den)
    diam_bound = (dw_inf / n) * (8 / k_val)
    lam_bound = k_val / (8 * dw_inf)
    checks = (
        InequalityCheck(
            "diam <= (||Dw||_inf/n) * 8/K",
            _q("diam", diam), "<=", _q("(||Dw||_inf/n)*8/K", diam_bound),
            diam <= diam_bound, True,
        ),
        InequalityCheck(
            "lambda_1 >= K/(8 ||Dw||_inf)",
            _q("lambda_1", info.lambda1), ">=", _q("K/(8||Dw||_inf)", lam_bound),
            info.lambda1 + FLOAT_SLACK >= float(lam_bound), False,
        ),
    )
    passed = all(c.holds for c in checks)
    return TheoremReport("theorem5", True, checks, passed)


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
    hyp = lam1 > 0 and lam2 <= FLOAT_SLACK and (lam1 - lam2) > 0
    if not hyp:
        return _not_applicable(
            "spectral_criterion",
            f"distance spectrum not of the form lambda_1 > 0 >= lambda_2 (lambda_2 = {lam2:.3e})",
        )
    lhs = 1.0 - info.c_G**2
    rhs = abs(lam2) / (lam1 - lam2)
    criterion_true = lhs < rhs - FLOAT_SLACK
    checks = [
        InequalityCheck(
            "1 - <v, 1/sqrt(n)>^2 < |lambda_2|/(lambda_1 - lambda_2)",
            _q("1 - c_G^2", lhs), "<", _q("|lambda_2|/(lambda_1-lambda_2)", rhs),
            criterion_true, False,
        )
    ]
    notes = [f"criterion {'holds: predicts solvable' if criterion_true else 'does not hold: no prediction'}"]
    sound = not (criterion_true and curvature_status is CurvatureStatus.INCONSISTENT)
    checks.append(
        InequalityCheck(
            "criterion true implies exactly solvable",
            _q("criterion", int(criterion_true)), "=>",
            _q("solvable", int(curvature_status is not CurvatureStatus.INCONSISTENT)),
            sound, False,
        )
    )
    return TheoremReport("spectral_criterion", True, tuple(checks), sound, tuple(notes))


def perron_alignment(info: SpectralInfo) -> TheoremReport:
    """Alignment of the Perron eigenvector of D with the constant vector.

    Asserts c_G >= 1/sqrt(2) (a metric-space fact); values at or below 0.95
    are merely flagged as notable since they are hard to find.
    """
    bound = 1.0 / sqrt(2.0)
    holds = info.c_G >= bound - FLOAT_SLACK
    checks = (
        InequalityCheck(
            "c_G >= 1/sqrt(2)", _q("c_G", info.c_G), ">=", _q("1/sqrt(2)", bound),
            holds, False,
        ),
    )
    notes = []
    if info.c_G <= 0.95:
        notes.append(f"notable: c_G = {info.c_G:.6f} <= 0.95")
    return TheoremReport("perron_alignment", True, checks, holds, tuple(notes))


def check_product_curvature(g: Graph, h: Graph) -> TheoremReport:
    """Harmonic-sum law for products of constant-curvature graphs.

    K_1 and K_2 come from the factors' constant distance row sums (K = n/R);
    the product curvature comes from the full pipeline, so the relation
    ``1/K = 1/K_1 + 1/K_2`` is a genuine cross-check, with rational equality.
    """
    r1 = g.distance_matrix.constant_row_sum()
    r2 = h.distance_matrix.constant_row_sum()
    if r1 is None or r2 is None:
        return _not_applicable(
            "product_curvature", "a factor does not have constant distance row sums"
        )
    k1 = Fraction(g.n) / r1
    k2 = Fraction(h.n) / r2
    product = cartesian_product(g, h)
    # a product of factors with constant row sums has constant row sums, so
    # D w = n * 1 is solvable and the curvature is exact
    result = compute_curvature(product)
    constant = all(x == result.w[0] for x in result.w)
    k_prod: Fraction = result.w[0]
    checks = [
        InequalityCheck(
            "product curvature is constant",
            _q("distinct w values", len(set(result.w))), "==", _q("one", 1),
            constant, True,
        )
    ]
    if constant and k_prod > 0:
        checks.append(
            InequalityCheck(
                "1/K == 1/K_1 + 1/K_2",
                _q("1/K", 1 / k_prod), "==", _q("1/K_1 + 1/K_2", 1 / k1 + 1 / k2),
                1 / k_prod == 1 / k1 + 1 / k2, True,
            )
        )
    passed = all(c.holds for c in checks)
    return TheoremReport("product_curvature", True, tuple(checks), passed)
