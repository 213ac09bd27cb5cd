"""The float route on rank-deficient symmetric systems, against Bareiss.

For a symmetric M that the log-determinant screen calls singular, or
whose nonsingular attempt fails, ``linalg._solve_float`` steers its choice
of the lex-first column basis J by one Cholesky factor of ``M M`` plus a
small shift, lifts ``M_JJ [x | Z] = [b_J | -M_J,free]`` on float64 BLAS,
and proves the result with the certificates the fallback shares,
consistent or not: the fallback's pivot rows are the lex-first row basis,
which for a symmetric M is J, so both routes solve the same block. The
steering only chooses: a wrong J or a non-symmetric M must fall back to
``linalg._solve_fraction_free`` with the outcome unchanged. Every outcome
here is compared with the Bareiss elimination of
``solve_exact_reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from solve_exact_reference import fields, reference_solve_exact

from eqcurv import SolveStatus, generate, parse_family_spec, solve_exact
from eqcurv import linalg


@st.composite
def symmetric_systems(draw):
    """``(M, b, J)``: ``M = B C B^T`` symmetric of rank ``|J|``, its lex-first column basis J.

    Row i of B is a unit vector for i in J and otherwise a combination of the
    unit vectors of the basis columns before i (zero when there are none), so
    the columns outside J depend on earlier ones; C is symmetric, indefinite
    and strictly diagonally dominant, so nonsingular. The rank is 0, 1, n - 1
    or any; the dependent columns come first, last or anywhere. M may be
    scaled so that ``n |M|`` lands next to 2^34 or 2^40, where the lifting
    has few bits per step, or ``4 n |M|`` next to 2^53, the screen's bound.
    """
    n = draw(st.integers(1, 7))
    rank = draw(st.sampled_from([0, 1, n - 1, draw(st.integers(0, n))]))
    layout = draw(st.sampled_from(["dependent_first", "dependent_last", "any"]))
    if layout == "dependent_first":
        basis = list(range(n - rank, n))
    elif layout == "dependent_last":
        basis = list(range(rank))
    else:
        basis = sorted(draw(st.permutations(range(n)))[:rank])
    b_rows = []
    for i in range(n):
        row = [0] * rank
        if i in basis:
            row[basis.index(i)] = 1
        else:
            for t, j in enumerate(basis):
                if j < i:
                    row[t] = draw(st.integers(-3, 3))
        b_rows.append(row)
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            c[i][j] = c[j][i] = draw(st.integers(-4, 4))
    for i in range(rank):
        c[i][i] = draw(st.sampled_from([-1, 1])) * (sum(abs(v) for v in c[i]) + draw(st.integers(1, 4)))
    b_mat = np.array(b_rows, dtype=object).reshape(n, rank)
    m = b_mat.dot(np.array(c, dtype=object).reshape(rank, rank)).dot(b_mat.T)
    top = max(1, int(np.abs(m).max(initial=0)))
    bits = draw(st.sampled_from([None, 34, 40, 51]))
    if bits is not None:
        # n |M| next to 2^bits; 4 n |M| just below, at or just above 2^53 for 51
        m = m * (2**bits // (n * top) + draw(st.integers(-1, 1)))
    y = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=object)
    rhs = m.dot(y)
    if draw(st.booleans()):
        # off the column space unless e_i happens to lie in it
        rhs[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    return m.tolist(), rhs.tolist(), basis


@settings(max_examples=300, deadline=None)
@given(symmetric_systems())
def test_symmetric_systems_of_prescribed_rank_match_bareiss(system):
    matrix, rhs, basis = system
    out = solve_exact(matrix, rhs)
    assert fields(out) == reference_solve_exact(matrix, rhs)
    assert out.pivot_cols == basis


def unreachable(*args):
    raise AssertionError("the fallback ran")


@pytest.mark.parametrize("matrix, rhs", [
    # rank 1; |b| = 10 is past 4 r |M_JJ| = 4, within 4 n |M| = 16
    (np.ones((4, 4), dtype=np.int64), np.full(4, 10)),
    # dependent columns first (zero) and last (a multiple)
    ([[0, 0, 0, 0], [0, 2, 1, 4], [0, 1, -3, 2], [0, 4, 2, 8]], [0, 7, -5, 14]),
])
def test_small_singular_systems_take_the_float_route(monkeypatch, matrix, rhs):
    reference = reference_solve_exact(matrix, rhs)
    monkeypatch.setattr(linalg, "_solve_fraction_free", unreachable)
    out = solve_exact(matrix, rhs)
    assert out.status is SolveStatus.AFFINE
    assert fields(out) == reference


def test_johnson_10_4_takes_the_float_route_on_a_widened_scale(monkeypatch):
    # |b| = n = 210 is past 4 r |M_JJ| = 160: the lifting's scale must grow
    # to |rhs| / 4 for the route to take this system
    g = generate(parse_family_spec("johnson:10,4"))
    m, b = g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)
    reference = linalg._solve_fraction_free(m, b)
    cols = reference[0]
    assert int(b.max()) > 4 * len(cols) * int(m[np.ix_(cols, cols)].max())
    monkeypatch.setattr(linalg, "_solve_fraction_free", unreachable)
    out = solve_exact(m, b)
    assert (out.pivot_cols, out.free_cols, out.den) == (reference[0], reference[1], reference[3])
    assert (out.num == reference[2]).all()


@pytest.mark.parametrize("cutoff", [
    # columns 0-3 pass and column 4, squared pivot about 0.09 max(diag), does
    # not: M_JJ is nonsingular, and the kernel check on the other rows fails
    pytest.param(0.1, id="misses-an-independent-column"),
    # every column passes: M_JJ = M is singular and its certificate fails
    pytest.param(0.0, id="includes-a-dependent-column"),
])
def test_a_wrong_basis_falls_back_with_the_outcome_unchanged(monkeypatch, cutoff):
    g = generate(parse_family_spec("cycle:8"))
    m, b = g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)
    expected = fields(solve_exact(m, b))
    assert linalg._solve_float(m, b) is not None
    monkeypatch.setattr(linalg, "_PIVOT_CUTOFF", cutoff)
    assert linalg._solve_float(m, b) is None
    assert fields(solve_exact(m, b)) == expected == reference_solve_exact(m.tolist(), b.tolist())


@pytest.mark.parametrize("spec", [
    "knight_board:7,7", "complete_multipartite:1,1,1,4", "complete_multipartite:1,1,1,1,3",
])
def test_inconsistent_systems_take_the_float_route(monkeypatch, spec):
    # the fallback's pivot rows are J too, so both routes solve the same
    # block and give the same particular column and den
    g = generate(parse_family_spec(spec))
    m, b = g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)
    reference = linalg._solve_fraction_free(m, b)
    monkeypatch.setattr(linalg, "_solve_fraction_free", unreachable)
    pivot_cols, free_cols, num, den, consistent = linalg._solve_float(m, b)
    assert (pivot_cols, free_cols, den, consistent) == (reference[0], reference[1], reference[3], False)
    assert num.shape == reference[2].shape and num.tolist() == reference[2].tolist()
    # small numerators: int64 on both routes
    assert num.dtype == reference[2].dtype == np.int64
    out = solve_exact(m, b)
    assert out.status is SolveStatus.INCONSISTENT
    assert (out.pivot_cols, out.free_cols, out.den) == (reference[0], reference[1], reference[3])
    assert (out.num == reference[2]).all()
    assert fields(out) == reference_solve_exact(m.tolist(), b.tolist())


@pytest.mark.parametrize("spec", [
    "knight_board:4,10", "knight_board:6,8", "knight_board:9,9", "knight_board:9,10", "knight_board:10,10",
])
def test_singular_systems_the_screen_passes_take_the_steered_route(monkeypatch, spec):
    # rank n - 1, yet float64 log|det M| is at least log(1/2): the nonsingular
    # attempt fails its certificate, and the steered basis takes the system
    g = generate(parse_family_spec(spec))
    m, b = g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)
    assert np.linalg.slogdet(m.astype(np.float64))[1] >= linalg._LOG_DET_FLOOR
    monkeypatch.setattr(linalg, "_solve_fraction_free", unreachable)
    out = solve_exact(m, b)
    assert out.rank == g.n - 1
    assert fields(out) == reference_solve_exact(m.tolist(), b.tolist())
