"""lp_max_min against the per-coordinate pinning scheme it replaced.

The oracle solves one level LP, then one more LP per active coordinate to find
the coordinates that cannot exceed the level value anywhere on the optimal
face, and pins those. On a bounded family both must return the unique
leximin point, with rational equality, and ``lp_max_min`` must get there
without ``solve_exact``. The oracle's LPs run on a dense ``Fraction`` tableau
kept here, so it shares no simplex code with the package's integer tableau,
whose optimal value is also checked against it directly.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import eqcurv.linalg
from eqcurv import (
    CurvatureStatus,
    Graph,
    apsp,
    compute_curvature,
    generate,
    lp_max_min,
    parse_family_spec,
    solve_exact,
)
from eqcurv.linalg import _simplex_max
from integer_form import assert_integer_array, constant_row_sums, integer_rows, max_min


class LpUnboundedError(RuntimeError):
    """The oracle's ``min_i w_i`` is unbounded; carries a certificate direction."""

    def __init__(self, message: str, direction: tuple[Fraction, ...]):
        super().__init__(message)
        self.direction = direction


def reference_simplex_max(a_rows, b, c):
    """Maximize ``c . x`` over ``{A x <= b}`` (x free, b >= 0) on a dense Fraction tableau.

    Bland's rule; returns ("optimal", x, y) with y read off the slack columns
    of the final objective row, or ("unbounded", ray, []).
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
            return "unbounded", [direction[j] - direction[nv + j] for j in range(nv)], []
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
    return "optimal", [xfull[j] - xfull[nv + j] for j in range(nv)], obj[2 * nv:ncols]


def lp_max_min_oracle(particular, nullspace) -> tuple[Fraction, ...]:
    """Level LP plus one pinning LP per active coordinate (O(n) LPs per level)."""
    p = [Fraction(x) for x in particular]
    basis = [[Fraction(x) for x in vec] for vec in nullspace]
    n = len(p)
    k = len(basis)
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
        status, x, _ = reference_simplex_max(rows, rhs, [Fraction(0)] * k + [Fraction(1)])
        if status == "unbounded":
            delta = x[:k]
            direction = tuple(sum(delta[j] * basis[j][i] for j in range(k)) for i in range(n))
            if all(bound is None for bound in bounds):
                raise LpUnboundedError("min_i w_i is unbounded over the affine family", direction)
            return tuple(w_of(coef))
        t_level = t0 + x[k]
        coef = [coef[j] + x[j] for j in range(k)]
        w = w_of(coef)

        # pin the coordinates that cannot exceed t_level anywhere in the
        # remaining region
        req = [bounds[i] if bounds[i] is not None else t_level for i in range(n)]
        rows2 = [[-basis[j][i] for j in range(k)] for i in range(n)]
        rhs2 = [w[i] - req[i] for i in range(n)]
        pinned = False
        for i in active:
            if w[i] > t_level:
                continue
            status2, x2, _ = reference_simplex_max(rows2, rhs2, [basis[j][i] for j in range(k)])
            if status2 == "unbounded":
                continue
            if w[i] + sum(x2[j] * basis[j][i] for j in range(k)) == t_level:
                bounds[i] = t_level
                pinned = True
        assert pinned, "the level optimum pins at least one coordinate"
    return tuple(bounds)


@contextmanager
def solve_exact_refused():
    """Every ``solve_exact`` call from inside ``eqcurv.linalg`` fails."""

    def refuse(*args):
        raise AssertionError("the max-min called solve_exact")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eqcurv.linalg, "solve_exact", refuse)
        yield


def in_family(w, particular, basis) -> bool:
    """Whether ``w - particular`` is a combination of the basis vectors."""
    diff = [Fraction(x) - Fraction(p) for x, p in zip(w, particular)]
    gram = [[sum(Fraction(a) * b for a, b in zip(u, v)) for v in basis] for u in basis]
    rhs = [sum(Fraction(a) * d for a, d in zip(u, diff)) for u in basis]
    coef = solve_exact(*integer_rows(gram, rhs)).solution  # normal equations: always consistent
    return all(sum(c * vec[i] for c, vec in zip(coef, basis)) == diff[i] for i in range(len(diff)))


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


@st.composite
def lps(draw):
    """Bounded integer (A, b, c): m <= 8 rows, nv <= 5 free variables, b >= 0, many b_i = 0.

    ``c = A^T u`` with ``u >= 0``, so ``c . x = u . A x <= u . b`` bounds the LP.
    A and b are scaled by one drawn ``s``, which leaves the optimal vertex as
    it is. The draws cover the three regimes of the tableau: int64 throughout,
    int64 until a pivot would pass the bound and Python ints after it, and
    Python ints from the start.
    """
    m = draw(st.integers(1, 8))
    nv = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1, 2**20, 2**28, 2**40]))
    nonnegative = st.one_of(st.just(0), st.integers(0, 6))
    row = st.lists(st.integers(-6, 6).map(lambda v: v * scale), min_size=nv, max_size=nv)
    a_rows = draw(st.lists(row, min_size=m, max_size=m))
    b = [v * scale for v in draw(st.lists(nonnegative, min_size=m, max_size=m))]
    u = draw(st.lists(nonnegative, min_size=m, max_size=m))
    c = [sum(a * ui for a, ui in zip(col, u)) for col in zip(*a_rows)]
    return a_rows, b, c


def assert_matches_fraction_tableau(a_rows, b, c) -> list[bool]:
    """Check ``_simplex_max`` against the Fraction tableau; return its int64 bound's verdicts."""
    # the pivot orders differ, so the optimal vertex and dual may too: the
    # optimal value agrees with rational equality
    regimes = []
    bound = eqcurv.linalg._pivots_in_int64
    with mock.patch.object(eqcurv.linalg, "_pivots_in_int64", lambda top: regimes.append(bound(top)) or regimes[-1]):
        x_num, y_num, d, _ = _simplex_max(a_rows, b, c)
    assert type(d) is int and d > 0
    # the final tableau's dtype: int64 while the bound held at set-up and
    # before every pivot, Python ints from the first time it did not
    assert_integer_array(x_num, all(regimes))
    assert_integer_array(y_num, all(regimes))
    x = [Fraction(v, d) for v in x_num.tolist()]
    y = [Fraction(v, d) for v in y_num.tolist()]
    # the reference expects Fraction entries
    status, x_ref, _ = reference_simplex_max(
        [list(map(Fraction, row)) for row in a_rows], list(map(Fraction, b)), list(map(Fraction, c))
    )
    assert status == "optimal" and dot(c, x) == dot(c, x_ref)
    assert all(dot(row, x) <= bi for row, bi in zip(a_rows, b))
    assert all(yi >= 0 for yi in y)
    assert all(dot(col, y) == cj for col, cj in zip(zip(*a_rows), c))
    assert dot(b, y) == dot(c, x)
    return regimes


@settings(max_examples=200, deadline=None)
@given(lps())
def test_simplex_matches_fraction_tableau(lp):
    assert_matches_fraction_tableau(*lp)


def test_simplex_past_the_int64_bound_matches_fraction_tableau():
    # max|T| = V is in [2^31, 2^31.5): every product of two entries is below
    # 2^63, but the first pivot, on V in row 0, gives row 1 the entry
    # V * V - (-V) * V = 2 V^2 > 2^63, which int64 would wrap before x_1 enters
    v = 3 * 10**9
    assert 2**31 <= v and v * v < 2**63 <= 2 * v * v
    assert_matches_fraction_tableau([[v, v], [-v, v]], [v, v], [0, 1])


def test_simplex_moves_to_python_ints_at_the_pivot_bound():
    # the tableau starts in int64 (max|T| < 2^17); its first pivot makes
    # max|T| just below 2^32, where 2 max|T|^2 passes 2^63, so the second
    # pivot runs on Python ints: in int64 its products p * T_i would wrap
    a_rows, b, c = [[46337, 46334], [3, -92677], [-46339, 46349]], [0, 0, 0], [46342, -46331]
    assert assert_matches_fraction_tableau(a_rows, b, c) == [True, True, False]


@settings(max_examples=200, deadline=None)
@given(lps())
def test_simplex_face_spans_the_optimal_face(lp):
    # for full column rank, the face rows are a basis of {dx : A_P dx = 0},
    # P = {i : y_i > 0}
    sympy = pytest.importorskip("sympy")
    a_rows, b, c = lp
    nv = len(c)
    a = sympy.Matrix(a_rows)
    assume(a.rank() == nv)
    _, y, _, face = _simplex_max(a_rows, b, c)
    face = sympy.Matrix(len(face), nv, face.ravel().tolist())
    a_p = a.extract([i for i, yi in enumerate(y) if yi > 0], list(range(nv)))
    assert face.rank() == face.rows
    assert (a_p * face.T).is_zero_matrix
    assert (face * sympy.Matrix(c)).is_zero_matrix
    assert face.rows == nv - a_p.rank()


@st.composite
def families(draw, zero_sum: bool):
    """(particular, basis): n <= 8, k <= 5, some vectors combinations of earlier ones."""
    n = draw(st.integers(1, 8))
    particular = draw(st.lists(fractions, min_size=n, max_size=n))
    basis: list[list[Fraction]] = []
    for _ in range(draw(st.integers(1, 5))):
        if basis and draw(st.booleans()):
            u, v = draw(st.sampled_from(basis)), draw(st.sampled_from(basis))
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            basis.append([a * x + b * y for x, y in zip(u, v)])
        elif zero_sum:
            head = draw(st.lists(fractions, min_size=n - 1, max_size=n - 1))
            basis.append(head + [-sum(head, Fraction(0))])
        else:
            basis.append(draw(st.lists(fractions, min_size=n, max_size=n)))
    return particular, basis


@settings(max_examples=150, deadline=None)
@given(families(zero_sum=True))
def test_matches_oracle_on_bounded_families(family):
    # every kernel vector sums to 0, so sum(w) is constant and min_i w_i <= mean
    particular, basis = family
    with solve_exact_refused():
        ours = max_min(particular, basis)
    assert ours == lp_max_min_oracle(particular, basis)


@settings(max_examples=100, deadline=None)
@given(families(zero_sum=False))
def test_possibly_unbounded_families_agree_on_level_one(family):
    # lp_max_min refuses exactly the families with a nonzero-sum vector; on the
    # rest the level-1 value is the oracle's, and the point lies in the family
    particular, basis = family
    if any(sum(vec) for vec in basis):
        with pytest.raises(ValueError, match="sum to 0"):
            max_min(particular, basis)
        return
    ours = max_min(particular, basis)
    assert min(ours) == min(lp_max_min_oracle(particular, basis))
    assert in_family(ours, particular, basis)


@st.composite
def weighted_families(draw):
    """(particular, basis, weights): n <= 5, k <= 4, every vector summing to 0 with the weights."""
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    particular = draw(st.lists(fractions, min_size=n, max_size=n))
    basis = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.lists(fractions, min_size=n - 1, max_size=n - 1))
        basis.append(head + [-sum((s * x for s, x in zip(weights, head)), Fraction(0)) / weights[-1]])
    return particular, basis, weights


@settings(max_examples=60, deadline=None)
@given(weighted_families())
def test_multiplicities_give_the_leximin_of_the_repeated_coordinates(family):
    # coordinate i standing for weights[i] equal entries: the expanded family
    # sums to 0, and its leximin point is the weighted one, expanded
    particular, basis, weights = family

    def expand(v):
        return [x for x, s in zip(v, weights) for _ in range(s)]

    with solve_exact_refused():
        ours = max_min(particular, basis, weights)
    assert expand(ours) == list(lp_max_min_oracle(expand(particular), [expand(v) for v in basis]))
    assert in_family(ours, particular, basis)


def test_multiplicities_set_the_zero_sum_precondition():
    # (1, -1) sums to 0 but not with weights (1, 2), and min w is unbounded along it;
    # (2, -1) sums to 0 with them, and the leximin point is (0, 0)
    with pytest.raises(ValueError, match="sum to 0"):
        lp_max_min(([0, 0], 1), [[1, -1]], [1, 2])
    nums, den = lp_max_min(([0, 0], 1), [[2, -1]], [1, 2])
    assert (nums.tolist(), den) == ([0, 0], 1)
    for bad in ([1, 0], [1], [1, 2, 3], [-1, 2]):
        with pytest.raises(ValueError, match="multiplicity"):
            lp_max_min(([0, 0], 1), [[2, -1]], bad)
    with pytest.raises(TypeError):
        lp_max_min(([0, 0], 1), [[2, -1]], [1, 2.5])


def cycle_with_tail(m: int, tail: int) -> Graph:
    """C_2m with a pendant path of ``tail`` vertices attached at vertex 0."""
    cycle = generate(parse_family_spec(f"cycle:{2 * m}"))
    path = [(0, 2 * m)] + [(v, v + 1) for v in range(2 * m, 2 * m + tail - 1)]
    return Graph(2 * m + tail, frozenset(cycle.edges | set(path)))


def distance_family(g: Graph):
    dm = apsp(g)
    out = solve_exact(dm.entries, [g.n] * g.n)
    assert not constant_row_sums(dm) and out.nullspace
    return out.solution, out.nullspace


@pytest.mark.parametrize("m", range(4, 11))
@pytest.mark.parametrize("tail", [1, 2, 3])
def test_matches_oracle_on_cycle_with_tail(m, tail):
    particular, basis = distance_family(cycle_with_tail(m, tail))
    with solve_exact_refused():
        ours = max_min(particular, basis)
    assert ours == lp_max_min_oracle(particular, basis)


def test_cycle_120_with_pendant_matches_linprog():
    # n = 121, kernel dimension 59: one level LP on a 120-row tableau
    linprog = pytest.importorskip("scipy.optimize").linprog
    g = cycle_with_tail(60, 1)
    dist = apsp(g).entries
    result = compute_curvature(g)
    assert result.status is CurvatureStatus.EXACT_CANONICAL
    assert all(dot(row, result.w) == g.n for row in dist.tolist())
    # max t  s.t.  D w = n * 1,  t - w_i <= 0,  variables (w, t) free
    n = g.n
    res = linprog(
        c=[0.0] * n + [-1.0],
        A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]),
        b_ub=np.zeros(n),
        A_eq=np.hstack([dist.astype(float), np.zeros((n, 1))]),
        b_eq=np.full(n, float(n)),
        bounds=[(None, None)] * (n + 1),
        method="highs",
    )
    assert res.status == 0
    assert abs(float(result.K) - (-res.fun)) <= 1e-7


@pytest.mark.parametrize("spec", ["knight_board:3,4", "knight_board:4,4", "knight_board:5,8"])
def test_matches_oracle_on_knight_boards(spec):
    particular, basis = distance_family(generate(parse_family_spec(spec)))
    with solve_exact_refused():
        ours = max_min(particular, basis)
    assert ours == lp_max_min_oracle(particular, basis)


@pytest.mark.parametrize(
    "g",
    [cycle_with_tail(15, 1), generate(parse_family_spec("knight_board:6,9"))],
    ids=["C30+1", "knight_board:6,9"],
)
def test_at_most_k_simplex_solves(g, monkeypatch):
    # each level pins a coordinate where some direction is nonzero, so the
    # face dimension drops by at least one per level
    particular, basis = distance_family(g)
    calls = []

    def counting(*args):
        calls.append(1)
        return _simplex_max(*args)

    monkeypatch.setattr(eqcurv.linalg, "_simplex_max", counting)
    max_min(particular, basis)
    assert 1 <= len(calls) <= len(basis)


@pytest.mark.parametrize(
    "g",
    [
        cycle_with_tail(16, 3),
        generate(parse_family_spec("knight_board:6,9")),
        cycle_with_tail(60, 1),
    ],
    ids=["C32+3", "knight_board:6,9", "C120+1"],
)
def test_point_does_not_depend_on_the_scale_of_the_directions(g, monkeypatch):
    # unscaled, every tableau pivots in int64; with the rows times 2^40 the
    # first level's tableau starts past the int64 bound and pivots on Python
    # ints (the face rows it hands on are divided by their gcd, so later
    # levels are back at the unscaled size)
    out = solve_exact(apsp(g).entries, [g.n] * g.n)
    regimes = []
    bound = eqcurv.linalg._pivots_in_int64
    monkeypatch.setattr(
        eqcurv.linalg, "_pivots_in_int64", lambda tab: regimes.append(bound(tab)) or regimes[-1]
    )
    nums, den = lp_max_min(out.particular, out.kernel_rows)
    assert regimes and all(regimes)
    regimes.clear()
    scaled = lp_max_min(out.particular, 2**40 * out.kernel_rows.astype(object))
    assert not regimes[0]
    assert (scaled[0].tolist(), scaled[1]) == (nums.tolist(), den)
