"""The float route of ``solve_exact`` against the fraction-free fallback.

``linalg._solve_float`` certifies a nonsingular system, or the lex-first
basis block of a symmetric one, consistent or not, from a rounded float64
inverse and lifts it on BLAS; ``linalg._solve_fraction_free`` is the general
route (Bareiss elimination on Python ints). Whenever the float route
returns, its outcome must be the fallback's, part by part: pivot and free
columns, numerators, denominator and consistency. When it refuses,
``solve_exact`` must still give the fallback's outcome. On ``path:300`` the
reference is the trees' closed form instead, and the fallback runs once per
benchmark-size random graph, whichever tests solve it.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from integer_form import assert_integer_array

from eqcurv import Graph, SolveStatus, generate, parse_family_spec, solve_exact
from eqcurv import linalg


def distance_system(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    return g.distance_matrix.entries.astype(np.int64), np.full(g.n, g.n, dtype=np.int64)


def family_system(text: str) -> tuple[np.ndarray, np.ndarray]:
    return distance_system(generate(parse_family_spec(text)))


@cache
def fallback_reference(text: str):
    """The fallback's tuple for a family's distance system, computed once per session."""
    return linalg._solve_fraction_free(*family_system(text))


def assert_same(found, reference) -> None:
    pivot_cols, free_cols, num, den, consistent = found
    assert (pivot_cols, free_cols, den, consistent) == (reference[0], reference[1], reference[3], reference[4])
    assert num.shape == reference[2].shape and num.tolist() == reference[2].tolist()
    # both routes: int64 exactly while every numerator is below 2^63
    fits = max((abs(v) for v in reference[2].ravel().tolist()), default=0) < 2**63
    assert_integer_array(num, fits)
    assert_integer_array(reference[2], fits)


def routes_agree(m: np.ndarray, b: np.ndarray, reference=None) -> bool:
    """Whether the float route took the system; when it did, it matches the fallback's
    tuple, or ``reference`` when one is given."""
    found = linalg._solve_float(m, b)
    if reference is None:
        reference = linalg._solve_fraction_free(m, b)
    outcome = solve_exact(m, b)
    assert (outcome.pivot_cols, outcome.free_cols, outcome.den) == (reference[0], reference[1], reference[3])
    if found is None:
        return False
    assert_same(found, reference)
    if not found[4]:
        assert outcome.status is SolveStatus.INCONSISTENT
    else:
        assert outcome.status is (SolveStatus.AFFINE if found[1] else SolveStatus.UNIQUE)
    return True


def connected_atlas_graphs():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            yield Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))


def test_atlas_graphs_agree_and_the_float_route_takes_every_full_rank_one():
    counts = Counter()
    for g in connected_atlas_graphs():
        m, b = distance_system(g)
        _, free_cols, _, _, consistent = linalg._solve_fraction_free(m, b)
        counts["singular" if free_cols else "full_rank", consistent, routes_agree(m, b)] += 1
    # 787 of the 995 connected atlas graphs have a nonsingular D; the float
    # route takes them and the other 208, 206 consistent and 2 inconsistent
    assert counts == {("full_rank", True, True): 787, ("singular", True, True): 206,
                      ("singular", False, True): 2}


@pytest.mark.parametrize(
    "spec",
    ["erdos_renyi:100,0.1,1", "erdos_renyi:130,0.08,2", "erdos_renyi:150,0.1,1",
     "erdos_renyi:165,0.06,2", "erdos_renyi:180,0.05,3"],
)
def test_random_graphs_at_benchmark_sizes_take_the_float_route(spec):
    assert routes_agree(*family_system(spec), fallback_reference(spec))


def test_path_300_takes_the_float_route():
    # D^{-1} of a tree is -L/2 + tau tau^T / (2 (n - 1)) (Graham and Lovasz),
    # entries at most 1, so the certificate holds although n max|D| is 89700;
    # the same inverse gives every tree w_i = n (2 - d_i) / (n - 1), the
    # exact reference here
    g = generate(parse_family_spec("path:300"))
    degree = Counter(v for edge in g.edges for v in edge)
    w = [Fraction(g.n * (2 - degree[v]), g.n - 1) for v in range(g.n)]
    den = lcm(*(x.denominator for x in w))
    num = np.array([[x.numerator * (den // x.denominator)] for x in w], dtype=np.int64)
    assert routes_agree(*distance_system(g), (list(range(g.n)), [], num, den, True))


def test_bordered_pseudo_apply_system_of_knight_board_7_7():
    m, b = family_system("knight_board:7,7")
    outcome = solve_exact(m, b)
    assert outcome.status is SolveStatus.INCONSISTENT
    z = outcome.kernel_rows.astype(np.int64)
    bordered = np.block([[m, z.T], [z, np.zeros((len(z), len(z)), dtype=np.int64)]])
    assert routes_agree(bordered, np.concatenate([b, np.zeros(len(z), dtype=np.int64)]))


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_random_integer_systems(n, data):
    entries = data.draw(st.sampled_from([st.integers(-5, 5), st.integers(-2**20, 2**20)]))
    m = np.array(data.draw(square(n, entries)), dtype=np.int64).reshape(n, n)
    top = 4 * n * max(1, int(np.abs(m).max()))
    b = np.array(data.draw(st.lists(st.integers(-top, top), min_size=n, max_size=n)), dtype=np.int64)
    routes_agree(m, b)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_a_row_nudged_towards_singularity(n, data):
    # row t becomes c * row s plus a unit in one column: det M is small or 0
    m = np.array(data.draw(square(n, st.integers(-9, 9))), dtype=np.int64)
    t, s = data.draw(st.permutations(range(n)))[:2]
    m[t] = data.draw(st.integers(-3, 3)) * m[s]
    m[t, data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-1, 1]))
    b = np.array(data.draw(st.lists(st.integers(-n, n), min_size=n, max_size=n)), dtype=np.int64)
    routes_agree(m, b)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), bits=st.integers(30, 51), data=st.data())
def test_entries_near_the_float_bound(n, bits, data):
    # largest entry 2^bits: the route takes most such systems up to about
    # 2^36 and refuses them from about 2^44 (the certificate, or too few
    # bits per step), and 2^51 puts 4 n max|M| past 2^53, where the screen stops
    top = 2**bits
    m = np.array(data.draw(square(n, st.integers(-top, top))), dtype=np.int64)
    m[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = top
    bound = 4 * n * top
    b = np.array(data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)), dtype=np.int64)
    routes_agree(m, b)


# ---------------------------------------------------------------------------
# refusals and fallbacks
# ---------------------------------------------------------------------------


def c_2m_with_tail(m: int, tail: int) -> Graph:
    cycle = {(v, (v + 1) % (2 * m)) for v in range(2 * m)}
    path = {(v - 1 if v > 2 * m else 0, v) for v in range(2 * m, 2 * m + tail)}
    return Graph(2 * m + tail, frozenset((min(e), max(e)) for e in cycle | path))


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: generate(parse_family_spec("hypercube:8")), id="hypercube:8"),
    pytest.param(lambda: generate(parse_family_spec("cycle:8")), id="cycle:8"),
    pytest.param(lambda: c_2m_with_tail(6, 2), id="C_12+tail:2"),
    # inconsistent: the particular column fails off the basis rows
    pytest.param(lambda: generate(parse_family_spec("knight_board:7,7")), id="knight_board:7,7"),
])
def test_singular_distance_matrices_take_the_float_route(graph):
    m, b = distance_system(graph())
    assert linalg._solve_fraction_free(m, b)[1]
    assert routes_agree(m, b)


@pytest.mark.parametrize("system", [
    # not symmetric: never steered
    pytest.param(lambda: (np.array([[1, 2], [0, 0]]), np.array([3, 0])), id="non-symmetric"),
    # the zero matrix has no Cholesky factor
    pytest.param(lambda: (np.zeros((3, 3), dtype=np.int64), np.zeros(3, dtype=np.int64)), id="zero"),
])
def test_singular_systems_the_float_route_refuses(system):
    m, b = system()
    assert linalg._solve_fraction_free(m, b)[1]
    assert linalg._solve_float(m, b) is None
    assert routes_agree(m, b) is False


def hilbert(n: int) -> np.ndarray:
    """``lcm(1..2n-1) / (i + j + 1)``: nonsingular and badly conditioned."""
    top = lcm(*range(1, 2 * n))
    return np.array([[top // (i + j + 1) for j in range(n)] for i in range(n)], dtype=np.int64)


def test_ill_conditioned_hilbert_matrix_falls_back(monkeypatch):
    m = hilbert(8)
    b = np.arange(1, 9, dtype=np.int64)
    inverses = []
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(1) or real_inv(a))
    # the screen passes it on (log|det| is about 27), and the certificate
    # refuses LAPACK's inverse: at s = 17, E has an entry past 2^16
    assert linalg._solve_float(m, b) is None and inverses
    assert routes_agree(m, b) is False


def refused(inv):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("perturb", [
    pytest.param(lambda inv: 2 * inv, id="doubled"),
    pytest.param(lambda inv: inv[[1, 0, *range(2, len(inv))]], id="rows-swapped"),
    pytest.param(lambda inv: inv + np.abs(inv).max(), id="shifted"),
    pytest.param(lambda inv: 1e300 * inv, id="huge"),
    pytest.param(lambda inv: np.full_like(inv, np.nan), id="non-finite"),
    pytest.param(refused, id="refused"),
])
def test_a_bad_inverse_falls_back(monkeypatch, perturb):
    # a perturbed inverse fails the certificate; a huge, non-finite or
    # refused one never reaches it, and solve_exact falls back to the
    # fallback's tuple (computed once for the six perturbations, and checked
    # against the float route with LAPACK's own inverse)
    spec = "erdos_renyi:150,0.1,1"
    m, b = family_system(spec)
    reference = linalg._solve_float(m, b)
    assert_same(fallback_reference(spec), reference)
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: perturb(real_inv(a)))
    assert linalg._solve_float(m, b) is None
    calls = []
    monkeypatch.setattr(linalg, "_solve_fraction_free", lambda *args: calls.append(1) or fallback_reference(spec))
    outcome = solve_exact(m, b)
    assert calls == [1] and outcome.status is SolveStatus.UNIQUE
    assert outcome.den == reference[3] and (outcome.num == reference[2]).all()


def test_float_route_solves_without_the_fallback(monkeypatch):
    # the gain cannot vanish silently: the fallback is not reached at all
    def unreachable(*args):
        raise AssertionError("the fallback ran")

    monkeypatch.setattr(linalg, "_solve_fraction_free", unreachable)
    m, b = family_system("erdos_renyi:150,0.1,1")
    outcome = solve_exact(m, b)
    assert outcome.status is SolveStatus.UNIQUE
    nums, den = outcome.particular
    assert (linalg.integer_matmul(m, nums) == den * b.astype(object)).all()
