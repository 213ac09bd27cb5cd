"""The column-panel ``_eliminate_mod`` against the per-column elimination it replaced.

``eliminate_mod_reference.py`` keeps the per-column Gauss-Jordan. Both must
return the same pivot rows, the same lex-first pivot columns and the same
``inv(M_IJ) mod p``, and ``M_IJ C == I`` must hold mod p. The sizes sit on
both sides of each panel boundary, so pivots of one panel reach the columns
and the inverse part of the next one through the float64 product.
"""

import numpy as np
import pytest
from eliminate_mod_reference import reference_eliminate_mod
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcurv import generate, parse_family_spec
from eqcurv.linalg import PANEL_WIDTH, _eliminate_mod, _primes

# the first modulus solve_exact tries
P = next(_primes())
SIZES = sorted({1, 2, PANEL_WIDTH - 1, PANEL_WIDTH, PANEL_WIDTH + 1, 2 * PANEL_WIDTH + 1})


def matches_reference(m: np.ndarray, p: int = P) -> list[int]:
    """Assert the triple equals the reference's and C inverts M_IJ mod p; return the pivot rows."""
    rows, cols, inverse = _eliminate_mod(m, p)
    ref_rows, ref_cols, ref_inverse = reference_eliminate_mod(m, p)
    assert (rows, cols) == (ref_rows, ref_cols)
    assert inverse.dtype == np.int64 and np.array_equal(inverse, ref_inverse)
    block = (m[rows][:, cols] % p).astype(np.int64)
    assert np.array_equal(block @ inverse % p, np.eye(len(rows), dtype=np.int64))
    return rows


def draw_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "small":
        # many zero residues, so pivots skip rows
        return rng.integers(-5, 6, (n, n))
    if kind == "distances":
        return rng.integers(0, 12, (n, n))
    if kind == "near_p":
        return rng.integers(P - 64, P, (n, n))
    # object dtype up to about 10^20, as solve_exact builds for entries past int64
    high = rng.integers(-10**9, 10**9 + 1, (n, n)).astype(object)
    return high * 10**11 + rng.integers(0, 10**11, (n, n)).astype(object)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    kind=st.sampled_from(["small", "distances", "near_p", "large"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_matches_reference_across_panels(n, kind, seed, data):
    m = draw_matrix(kind, n, np.random.default_rng(seed))
    index = st.integers(0, n - 1)
    # rank-deficient: row t becomes c * row s
    for t, s, c in data.draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=n)):
        m[t] = c * m[s]
    for j in data.draw(st.lists(index, max_size=3)):
        m[:, j] = 0
    # columns that vanish mod p although they are not zero
    for j in data.draw(st.lists(index, max_size=3)):
        m[:, j] *= P
    matches_reference(m)


@pytest.mark.parametrize(
    "spec",
    ["erdos_renyi:120,0.05,1", "erdos_renyi:120,0.3,2", "erdos_renyi:180,0.04,3",
     "erdos_renyi:180,0.17,4", "hypercube:8"],
)
def test_matches_reference_on_distance_matrices(spec):
    entries = generate(parse_family_spec(spec)).distance_matrix.entries
    # the random graphs are full rank, the distance matrix of the 8-cube has rank 9
    expected_rank = 9 if spec == "hypercube:8" else len(entries)
    assert len(matches_reference(entries)) == expected_rank


def test_exact_at_the_bounds():
    # every residue lies in [p - 64, p - 1], so every term of the first panel's
    # product is near (p - 1)^2: a product rounded in float64 or a sum wrapped
    # in int64 would change the inverse
    n = 10 * PANEL_WIDTH + 3
    m = np.random.default_rng(1).integers(P - 64, P, (n, n))
    assert n >= 300 and len(matches_reference(m)) == n


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    symmetric=st.booleans(),
    p=st.sampled_from([P, 7]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pivot_rows_are_the_lex_first_row_basis(n, symmetric, p, seed, data):
    # each column pivots on its first open row with a nonzero residue, so the
    # pivot rows are the lex-first row basis mod p: the lex-first column basis
    # of M^T, and for a symmetric M its own pivot columns (solve_exact's Notes)
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(0, n))
    left = rng.integers(-3, 4, (n, rank))
    if symmetric:
        middle = rng.integers(-3, 4, (rank, rank))
        m = left @ (middle + middle.T) @ left.T
    else:
        m = left @ rng.integers(-3, 4, (rank, n))
    index = st.integers(0, n - 1)
    for j in data.draw(st.lists(index, max_size=3)):
        m[:, j] = 0
        if symmetric:
            m[j] = 0
    if not symmetric:
        for i in data.draw(st.lists(index, max_size=3)):
            m[i] = 0
    rows, cols, _ = _eliminate_mod(m, p)
    assert sorted(rows) == _eliminate_mod(m.T, p)[1]
    if symmetric:
        assert set(rows) == set(cols)
