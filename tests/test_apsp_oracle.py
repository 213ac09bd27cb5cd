"""apsp against the per-source BFS it replaced (``apsp_reference.py``).

The matrix-product APSP must return exactly the reference's int64 hop counts,
and raise DisconnectedGraphError on exactly the graphs the reference refuses.
The cases run from single vertices and complete graphs (no squaring step) to
paths and cycles about ten squaring levels deep.
"""

import random
from itertools import combinations
from math import log

import numpy as np
import pytest
from apsp_reference import reference_apsp
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcurv import (
    MAX_FAMILY_VERTICES,
    DisconnectedGraphError,
    Graph,
    apsp,
    cartesian_product,
    generate,
    parse_family_spec,
)
from eqcurv.theorems import check_product_curvature


def fam(text):
    return generate(parse_family_spec(text))


@st.composite
def random_graphs(draw, max_n=40):
    """G(n, p) with p around the connectivity threshold ln(n)/n.

    The scale c in p = c ln(n) / n ranges over [0.5, 2.5], so about a third
    of the draws are disconnected.
    """
    n = draw(st.integers(1, max_n))
    c = draw(st.floats(0.5, 2.5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = min(1.0, c * log(n) / n) if n > 1 else 0.0
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    return Graph(n, edges)


def distances_or_none(fn, g):
    try:
        return fn(g).entries
    except DisconnectedGraphError:
        return None


def assert_matches_reference(g):
    out, ref = distances_or_none(apsp, g), distances_or_none(reference_apsp, g)
    if ref is None:
        assert out is None, "apsp returned distances for a disconnected graph"
    else:
        assert out is not None, "apsp refused a connected graph"
        assert out.dtype == np.int64 and not out.flags.writeable
        assert np.array_equal(out, ref)


@settings(max_examples=400, deadline=None)
@given(g=random_graphs())
def test_matches_bfs_on_random_graphs(g):
    assert_matches_reference(g)


@settings(max_examples=150, deadline=None)
@given(g=random_graphs())
def test_matches_networkx_on_random_graphs(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    lengths = dict(nx.all_pairs_shortest_path_length(h))
    out = distances_or_none(apsp, g)
    if not nx.is_connected(h):
        assert out is None
        return
    expected = np.array([[lengths[i][j] for j in range(g.n)] for i in range(g.n)])
    assert np.array_equal(out, expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matches_bfs_on_random_products(data):
    left = data.draw(random_graphs(max_n=15))
    right = data.draw(random_graphs(max_n=150 // left.n))
    assert_matches_reference(cartesian_product(left, right))


@pytest.mark.parametrize(
    "spec", ["hypercube:8", "johnson:10,4", "cocktail_party:80", "cycle:102", "knight_board:7,7"]
)
def test_matches_bfs_on_the_largest_benchmark_graphs(spec):
    assert_matches_reference(fam(spec))


def test_matches_bfs_on_a_lollipop():
    # K_100 with a 100-vertex tail: unwinding products reach degree x distance,
    # about 10^4, beyond the 2^11 integers that half precision holds exactly
    m = 100
    tail = {(i, i + 1) for i in range(m - 1, 2 * m - 1)}
    assert_matches_reference(Graph(2 * m, frozenset(combinations(range(m), 2)) | tail))


def test_a_degree_past_half_precision_on_a_star_with_a_tail():
    # the unwinding compares D @ A with D times A's column sums, the degrees:
    # the centre's 2049 is past the 2^11 integers that half precision holds.
    # Star K_1,2049 plus vertex 2050 on leaf 1, diameter 3, in closed form
    n = 2051
    g = Graph(n, frozenset((0, i) for i in range(1, n - 1)) | {(1, n - 1)})
    expected = 2 * (1 - np.eye(n, dtype=np.int64))
    expected[0, 1:-1] = expected[1:-1, 0] = 1
    expected[n - 1, 2:-1] = expected[2:-1, n - 1] = 3
    expected[1, n - 1] = expected[n - 1, 1] = 1
    assert np.array_equal(apsp(g).entries, expected)


def test_path_600_is_absolute_difference():
    idx = np.arange(600)
    assert np.array_equal(apsp(fam("path:600")).entries, np.abs(idx[:, None] - idx[None, :]))


def test_cycle_601_is_circular_difference():
    idx = np.arange(601)
    gap = np.abs(idx[:, None] - idx[None, :])
    assert np.array_equal(apsp(fam("cycle:601")).entries, np.minimum(gap, 601 - gap))


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("complete:1", [[0]]),
        ("path:2", [[0, 1], [1, 0]]),
        ("complete:7", (1 - np.eye(7, dtype=np.int64)).tolist()),
    ],
)
def test_graphs_complete_from_the_start(spec, expected):
    assert apsp(fam(spec)).entries.tolist() == expected


def test_refuses_graphs_above_the_vertex_limit():
    n = MAX_FAMILY_VERTICES + 1
    g = Graph(n, frozenset((i, i + 1) for i in range(n - 1)))
    message = f"graph has {n} vertices; the limit is {MAX_FAMILY_VERTICES}"
    with pytest.raises(ValueError, match=message):
        apsp(g)


def test_product_curvature_refuses_an_oversized_product():
    # two 65-cycles make 4225 vertices: refused before the 4225^2 distance matrix
    with pytest.raises(ValueError, match="graph has 4225 vertices; the limit is 4096"):
        check_product_curvature(fam("cycle:65"), fam("cycle:65"))
