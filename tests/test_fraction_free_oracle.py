"""The elimination of the fraction-free fallback, ``linalg._solve_fraction_free``.

On five distance matrices the fallback must return the float route's tuple
part by part; on entries next to 2^63 it must match the Bareiss reference of
``solve_exact_reference.py``; and its pivot rows must be the lex-first row
basis (``solve_exact``'s Notes).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from solve_exact_reference import fields, reference_solve_exact

from eqcurv import generate, linalg, parse_family_spec, solve_exact


def assert_same_tuple(found, expected):
    """Assert two ``(pivot_cols, free_cols, num, den, consistent)`` tuples are equal part by part."""
    assert found[:2] == expected[:2] and found[3:] == expected[3:]
    assert np.array_equal(found[2], expected[2])


@pytest.mark.parametrize(
    "spec",
    ["erdos_renyi:120,0.05,1", "erdos_renyi:120,0.3,2", "erdos_renyi:180,0.04,3",
     "erdos_renyi:180,0.17,4", "hypercube:8"],
)
def test_matches_reference_on_distance_matrices(spec):
    entries = generate(parse_family_spec(spec)).distance_matrix.entries
    n = len(entries)
    b = np.full(n, n, dtype=np.int64)
    found = linalg._solve_fraction_free(entries, b)
    # the random graphs are full rank, the distance matrix of the 8-cube has rank 9
    assert len(found[0]) == (9 if spec == "hypercube:8" else n)
    assert_same_tuple(found, linalg._solve_float(entries, b))


def test_exact_at_the_bounds():
    # every entry lies in [2^63 - 64, 2^63 - 1]: the float route refuses the
    # system, and a minor rounded in float64 or wrapped in int64 would change
    # the outcome
    n = 12
    rng = np.random.default_rng(1)
    m = rng.integers(2**63 - 64, 2**63 - 1, (n, n), endpoint=True, dtype=np.int64)
    b = rng.integers(2**63 - 64, 2**63 - 1, n, endpoint=True, dtype=np.int64)
    assert linalg._solve_float(m, b) is None
    with mock.patch.object(linalg, "_solve_fraction_free", wraps=linalg._solve_fraction_free) as fallback:
        out = solve_exact(m, b)
    fallback.assert_called_once()
    assert out.rank == n
    assert fields(out) == reference_solve_exact(m.tolist(), b.tolist())


def pivot_rows(m: np.ndarray) -> list[int]:
    """The fallback's pivot rows on ``M x = 0``, read off its call to ``_certify``."""
    with mock.patch.object(linalg, "_certify", wraps=linalg._certify) as certify:
        linalg._solve_fraction_free(m, np.zeros(len(m), dtype=m.dtype))
    return certify.call_args.args[2]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), symmetric=st.booleans(), data=st.data())
def test_pivot_rows_are_the_lex_first_row_basis(n, symmetric, data):
    # each column pivots on its first open row with a nonzero entry, so the
    # pivot rows are the lex-first row basis: the lex-first column basis of
    # M^T, and for a symmetric M its own pivot columns (solve_exact's Notes)
    def draw(rows, cols):
        entries = st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols)
        return np.array(data.draw(entries), dtype=np.int64).reshape(rows, cols)

    rank = data.draw(st.integers(0, n))
    left = draw(n, rank)
    if symmetric:
        middle = draw(rank, rank)
        m = left @ (middle + middle.T) @ left.T
    else:
        m = left @ draw(rank, n)
    index = st.integers(0, n - 1)
    for j in data.draw(st.lists(index, max_size=3)):
        m[:, j] = 0
        if symmetric:
            m[j] = 0
    if not symmetric:
        for i in data.draw(st.lists(index, max_size=3)):
            m[i] = 0
    rows = pivot_rows(m)
    assert sorted(rows) == linalg._solve_fraction_free(m.T, np.zeros(n, dtype=np.int64))[0]
    if symmetric:
        assert set(rows) == set(linalg._solve_fraction_free(m, np.zeros(n, dtype=np.int64))[0])
