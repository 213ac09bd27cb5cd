"""solve_exact against the Bareiss elimination of ``solve_exact_reference.py``.

Both routes, the float route and the fraction-free fallback, must return the
same outcome with rational equality: status, rank, the particular solution
with every free variable 0, and the kernel basis with one free variable 1.
"""

from fractions import Fraction
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from solve_exact_reference import fields, reference_solve_exact

from eqcurv import SolveStatus, apsp, generate, parse_family_spec, solve_exact
from eqcurv import linalg
from integer_form import integer_rows


reference_entries = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-10**20, 10**20),
    # near the int64 overflow bounds of the lifting and the certificates
    st.integers(-2**41, 2**41),
)


def draw_system(n, data):
    row = st.lists(reference_entries, min_size=n, max_size=n)
    matrix = data.draw(st.lists(row, min_size=n, max_size=n))
    # forced dependent rows: row t becomes c * row s
    for t, s, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                                st.integers(-3, 3)), max_size=n)):
        matrix[t] = [c * x for x in matrix[s]]
    if data.draw(st.booleans()):
        # rhs in the column space, so singular systems come out consistent
        y = data.draw(row)
        rhs = [sum(Fraction(a) * b for a, b in zip(r, y)) for r in matrix]
    else:
        rhs = data.draw(row)
    return matrix, rhs


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_matches_bareiss_on_random_systems(n, data):
    matrix, rhs = draw_system(n, data)
    # the reference solves the system as drawn, solve_exact its rows scaled to integers
    assert fields(solve_exact(*integer_rows(matrix, rhs))) == reference_solve_exact(matrix, rhs)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_fallback_alone_matches_bareiss_on_random_systems(n, data):
    # solve_exact tries the float route first, and it takes most nonsingular
    # draws and symmetric ones; with it off, the fallback meets the same
    # reference on the same draws, and the spy shows that it ran
    matrix, rhs = draw_system(n, data)
    with mock.patch.object(linalg, "_solve_float", lambda m, b: None), \
            mock.patch.object(linalg, "_solve_fraction_free", wraps=linalg._solve_fraction_free) as fallback:
        out = solve_exact(*integer_rows(matrix, rhs))
    fallback.assert_called_once()
    assert fields(out) == reference_solve_exact(matrix, rhs)


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        # nonsingular (det 7), its entries pulled past -2^63 and +2^63
        ([[3, -1], [1, 2]], [-(2**63) + 5, 2**63 - 700]),
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [-(2**63) + 1, 2**63 - 1024, -(2**63) + 2**10]),
        # rank-deficient and consistent, the kernel solved alongside
        ([[2, 4, 1], [1, 2, 0], [3, 6, 1]], [2**63 - 2, -(2**62), 2**62 - 2]),
        # rank-deficient and inconsistent
        ([[1, 2], [2, 4]], [2**63 - 3, -(2**63) + 3]),
    ],
)
def test_fallback_alone_on_an_int64_rhs_near_2_to_the_63(matrix, rhs):
    # the system is int64, but den * b and the elimination's entries pass
    # 2^63 through |rhs| alone: the fallback and its certificates must run on
    # Python ints, where int64 would wrap past +-2^63
    m, b = np.array(matrix, dtype=np.int64), np.array(rhs, dtype=np.int64)
    assert max(abs(x) for x in rhs) >= 2**63 - 2**10
    with mock.patch.object(linalg, "_solve_float", lambda m, b: None), \
            mock.patch.object(linalg, "_solve_fraction_free", wraps=linalg._solve_fraction_free) as fallback:
        out = solve_exact(m, b)
    fallback.assert_called_once()
    assert fields(out) == reference_solve_exact(matrix, rhs)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_fallback_reduces_num_and_den_by_their_gcd(n, data):
    # the tuple is unique: any common factor or a negative den would change
    # the integers the float route's tuple has for the same system
    m, b = (np.array(v, dtype=object) for v in integer_rows(*draw_system(n, data)))
    _, _, num, den, _ = linalg._solve_fraction_free(m, b)
    assert den > 0 and gcd(den, *num.ravel().tolist()) == 1


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        # the distance system of a one-vertex graph
        ([[0]], [1]),
        # singular and not symmetric
        ([[1, 2], [3, 6]], [1, 3]),
        # entries past the float route's bounds, in int64 and past it
        ([[2**60, 1], [1, 1]], [1, 2]),
        ([[2**64, 1], [1, 1]], [1, 2]),
    ],
)
def test_the_fallback_takes_what_the_float_route_refuses(matrix, rhs):
    # solve_exact runs the fallback exactly when the float route returns None
    with mock.patch.object(linalg, "_solve_fraction_free", wraps=linalg._solve_fraction_free) as fallback:
        out = solve_exact(matrix, rhs)
    fallback.assert_called_once()
    assert fields(out) == reference_solve_exact(matrix, rhs)


def test_lex_first_check_rejects_a_greedy_basis():
    # an elimination that misses column 0's entry p0 = 2^20 - 3 (as one mod
    # p0 would) takes column 1 as its basis; the kernel vector (1, -p0) of that
    # basis holds on every row, so only _certify's lex-first check (the kernel
    # vector of free column 0 must be 0 on the later pivot column 1) rejects it
    p0 = 2**20 - 3
    m, b = np.array([[p0, 1], [0, 0]]), np.array([0, 0])
    num = np.array([[0, -p0]])
    assert linalg._columns_hold(m[[0]][:, [1]], num, 1, linalg._targets(m, b, [0], [0])).all()
    assert linalg._certify(m, b, [0], [1], [0], num, 1) is None
    out = solve_exact(m, b)
    assert fields(out) == reference_solve_exact(m.tolist(), b.tolist())
    assert out.status is SolveStatus.AFFINE and out.rank == 1
    assert out.solution == (Fraction(0), Fraction(0))
    assert out.nullspace == ((Fraction(-1, p0), Fraction(1)),)


@pytest.mark.parametrize(
    "spec",
    ["cycle:8", "path:6", "complete_multipartite:1,1,1,4", "hypercube:5", "johnson:7,3",
     "knight_board:5,5", "erdos_renyi:40,0.1,3"],
)
def test_matches_bareiss_on_distance_systems(spec):
    entries = apsp(generate(parse_family_spec(spec))).entries
    n = len(entries)
    assert fields(solve_exact(entries, [n] * n)) == reference_solve_exact(entries, [n] * n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_integer_kernel_form_matches_fractions(n, data):
    entries = st.one_of(st.integers(-5, 5), st.integers(-2**41, 2**41))
    row = st.lists(entries, min_size=n, max_size=n)
    matrix = data.draw(st.lists(row, min_size=n, max_size=n))
    # forced dependent rows make the system rank-deficient, a random rhs often inconsistent
    for t, s, c in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                                st.integers(-3, 3)), max_size=n)):
        matrix[t] = [c * x for x in matrix[s]]
    rhs = data.draw(row)
    out = solve_exact(matrix, rhs)
    # read off the integer form before any Fraction vector exists
    dimension, sums, rows = out.nullspace_dimension, out.kernel_sum_numerators, out.kernel_rows
    assert "solution" not in vars(out) and "nullspace" not in vars(out)
    assert fields(out) == reference_solve_exact(matrix, rhs)
    assert dimension == n - out.rank == len(out.nullspace)
    assert sums == [sum(vec, Fraction(0)) * out.den for vec in out.nullspace]
    for vec, integer_row in zip(out.nullspace, rows):
        scale = next(Fraction(int(v)) / x for v, x in zip(integer_row, vec) if x)
        assert scale > 0 and [scale * x for x in vec] == list(integer_row)


def test_repr_shows_the_vectors():
    # a failing oracle comparison prints both reprs, so they must show what differs:
    # the certified form, x = num[:, 0] / den on the pivot columns, the kernel in num[:, 1:]
    out = solve_exact([[2, 0], [0, 0]], [1, 0])
    assert fields(out) == reference_solve_exact([[2, 0], [0, 0]], [1, 0])
    assert repr(out) == (
        f"SolveOutcome(status={SolveStatus.AFFINE!r}, pivot_cols=[0], free_cols=[1], "
        "num=array([[1, 0]]), den=2)"
    )
    assert repr(out) != repr(solve_exact([[2, 0], [0, 0]], [3, 0]))
