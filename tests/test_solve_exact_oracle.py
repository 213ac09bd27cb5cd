"""solve_exact against sympy: rank, the one-free-variable-at-1 kernel basis,
and the particular solution with every free variable set to 0."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcurv import SolveStatus, apsp, generate, linalg, parse_family_spec, solve_exact
from integer_form import integer_rows

sympy = pytest.importorskip("sympy")


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_outcome(matrix, rhs):
    """(status, rank, solution, nullspace) computed by sympy alone."""
    m, b = sympy.Matrix(matrix), sympy.Matrix(rhs)
    nullspace = tuple(tuple(_fraction(x) for x in vec) for vec in m.nullspace())
    try:
        sol, params = m.gauss_jordan_solve(b)
    except ValueError:
        return SolveStatus.INCONSISTENT, m.rank(), None, nullspace
    sol = sol.subs({p: 0 for p in params})
    solution = tuple(_fraction(x) for x in sol)
    if not nullspace:
        return SolveStatus.UNIQUE, m.rank(), solution, ()
    return SolveStatus.AFFINE, m.rank(), solution, nullspace


def assert_matches_sympy(matrix, rhs):
    # sympy solves the system as drawn, solve_exact its rows scaled to integers
    out = solve_exact(*integer_rows(matrix, rhs))
    status, rank, solution, nullspace = sympy_outcome(matrix, rhs)
    assert out.status is status
    assert out.rank == rank
    assert out.solution == solution
    assert out.nullspace == nullspace


entries = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-10**20, 10**20),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_matches_sympy_on_random_systems(n, data):
    matrix = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    # forced dependent rows: row t becomes c * row s
    for t, s, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                                st.integers(-3, 3)), max_size=n)):
        matrix[t] = [c * x for x in matrix[s]]
    if data.draw(st.booleans()):
        # rhs in the column space, so singular systems come out consistent
        y = data.draw(st.lists(entries, min_size=n, max_size=n))
        rhs = [sum(Fraction(a) * b for a, b in zip(row, y)) for row in matrix]
    else:
        rhs = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert_matches_sympy(matrix, rhs)


@pytest.mark.parametrize(
    "spec",
    ["cycle:8", "path:6", "complete_multipartite:1,1,1,4", "hypercube:4", "johnson:6,3",
     "knight_board:4,4"],
)
def test_matches_sympy_on_distance_systems(spec):
    entries = apsp(generate(parse_family_spec(spec))).entries
    n = len(entries)
    assert_matches_sympy(entries.tolist(), [n] * n)


# B = max(|rhs|, k |M|) just below or just above 2^53 / 2^20: products of B
# with 20-bit integers sit on both sides of integer_matmul's float64 bound
TWENTY_BITS = 1048573
FLOAT_BOUND = (2**53 - 1) // TWENTY_BITS


def lifting_bound_case(n, above, rhs_side, data):
    # largest entry s, set once in the matrix, so that B falls just below or
    # just above FLOAT_BOUND through k |M| (full rank) or through |rhs|
    if rhs_side:
        s = data.draw(st.integers(1, FLOAT_BOUND // n))
        top = FLOAT_BOUND + above
    else:
        s = FLOAT_BOUND // n + above
        top = data.draw(st.integers(1, FLOAT_BOUND))
    matrix = data.draw(st.lists(st.lists(st.integers(-s, s), min_size=n, max_size=n),
                                min_size=n, max_size=n))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    matrix[i][j] = data.draw(st.sampled_from([s, -s]))
    rhs = data.draw(st.lists(st.integers(-top, top), min_size=n, max_size=n))
    rhs[data.draw(st.integers(0, n - 1))] = top
    assert_matches_sympy(matrix, rhs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), above=st.booleans(), rhs_side=st.booleans(), data=st.data())
def test_matches_sympy_around_the_float64_lifting_bound(n, above, rhs_side, data):
    lifting_bound_case(n, above, rhs_side, data)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), above=st.booleans(), rhs_side=st.booleans(), data=st.data())
def test_fallback_alone_around_the_float64_lifting_bound(n, above, rhs_side, data):
    # the float route takes some nonsingular draws above; with it off, the
    # fallback meets sympy on the same draws, as the spy shows
    with mock.patch.object(linalg, "_solve_float", lambda m, b: None), \
            mock.patch.object(linalg, "_solve_fraction_free", wraps=linalg._solve_fraction_free) as fallback:
        lifting_bound_case(n, above, rhs_side, data)
    fallback.assert_called_once()
