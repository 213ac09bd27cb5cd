"""``Graph``'s array layer against the per-edge Python code in ``tests/graph_reference.py``.

The edge normalisation, the family generators, ``cartesian_product`` and
``is_connected`` must give what the per-edge loop, the Python generators, the
nested product loops and a BFS give: the same edge set, the same labels, the
same adjacency matrix, the same error for the same first bad pair.
"""

import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqcurv import Graph, cartesian_product, generate, is_connected, parse_family_spec
from graph_reference import (
    REFERENCE_FAMILIES,
    reference_cartesian_product,
    reference_edges,
    reference_is_connected,
)

# endpoints inside the range, just outside it, and past int64 both ways
ends = st.one_of(
    st.integers(0, 11),
    st.integers(-2, 13),
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63), -(2**63) - 1]),
)


def _as_numpy_int(u):
    return np.int64(u) if -(2**63) <= u < 2**63 else u


def containers(pairs):
    """The same pairs as every input kind ``Graph`` takes."""
    out = [frozenset(pairs), set(pairs), list(pairs), iter(list(pairs)),
           [(_as_numpy_int(u), _as_numpy_int(v)) for u, v in pairs]]
    flat = [x for pair in pairs for x in pair]
    for dtype in (np.int32, np.int64, np.uint64):
        info = np.iinfo(dtype)
        if all(info.min <= x <= info.max for x in flat):
            out.append(np.array(pairs, dtype=dtype).reshape(-1, 2))
    return out


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_normalisation_matches_the_per_edge_loop(n, data):
    pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=30))
    # mostly valid inputs: keep the drawn out-of-range pairs to a few cases
    if data.draw(st.integers(0, 3)):
        pairs = [(u % n, v % n) for u, v in pairs if u % n != v % n]
    if pairs:
        # duplicates, in both orientations
        again = data.draw(st.lists(st.sampled_from(pairs), max_size=5))
        pairs += [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in again]
    for edges in containers(pairs):
        # the reference walks its own copy, in the same order as Graph
        walked = iter(list(pairs)) if isinstance(edges, type(iter([]))) else edges
        expected = outcome(lambda: reference_edges(n, walked))
        got = outcome(lambda: Graph(n, edges))
        if isinstance(expected, tuple):
            assert got == expected
            continue
        assert isinstance(got, Graph)
        assert got.edges == expected and got.edge_count == len(expected)
        assert got.pairs.dtype == np.int64 and not got.pairs.flags.writeable
        assert got.pairs.tolist() == sorted(map(list, expected))
        matrix = np.zeros((n, n), dtype=bool)
        for u, v in expected:
            matrix[u, v] = matrix[v, u] = True
        assert np.array_equal(got.adjacency_matrix, matrix)


def test_empty_edge_sets():
    for edges in (frozenset(), set(), [], (), iter(()), np.empty((0, 2), dtype=np.int64)):
        g = Graph(3, edges)
        assert g.edges == frozenset() and g.edge_count == 0 and g.pairs.shape == (0, 2)
        assert not g.adjacency_matrix.any()


def test_first_bad_pair_in_input_order():
    with pytest.raises(ValueError, match=r"edge \(3, 0\) outside vertex range 0..2"):
        Graph(3, [(0, 1), (3, 0), (1, 1)])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(3, np.array([[0, 1], [1, 1], [3, 0]]))
    # past int64: the same ValueError, not an OverflowError
    with pytest.raises(ValueError, match=rf"edge \(0, {2**64}\) outside vertex range"):
        Graph(3, [(0, 1), (0, 2**64)])
    with pytest.raises(ValueError, match=rf"edge \({2**64 - 1}, 0\) outside vertex range"):
        Graph(3, np.array([[2**64 - 1, 0]], dtype=np.uint64))


def test_vertex_counts_past_the_int64_sort_key():
    n = 2**40
    g = Graph(n, [(5, n - 1), (1, 0), (n - 1, 5), (0, 2**35)])
    assert g.pairs.tolist() == [[0, 1], [0, 2**35], [5, n - 1]]
    with pytest.raises(ValueError, match="outside vertex range"):
        Graph(n, [(0, n)])


FAMILY_SIZES = {
    "complete": ["1", "2", "7", "30"],
    "cycle": ["3", "8", "31"],
    "path": ["1", "2", "9", "40"],
    "hypercube": ["1", "3", "6", "8"],
    "cocktail_party": ["2", "5", "17", "53"],
    "johnson": ["2,1", "5,2", "7,3", "8,5", "10,4"],
    "demicube": ["2", "3", "5", "7"],
    "complete_multipartite": ["1,1", "1,1,1,4", "3,2,5", "1,1,1,1,3"],
    "knight_board": ["1,1", "3,5", "7,7"],
}


@pytest.mark.parametrize(
    "family, params", [(f, p) for f, sizes in FAMILY_SIZES.items() for p in sizes]
)
def test_generator_matches_the_python_construction(family, params):
    g = generate(parse_family_spec(f"{family}:{params}"))
    n, edges, labels = REFERENCE_FAMILIES[family](*map(int, params.split(",")))
    assert (g.n, g.edges, g.labels) == (n, edges, labels)


def reference_product(g, h):
    return reference_cartesian_product(g.n, g.edges, g.labels, h.n, h.edges, h.labels)


@pytest.mark.parametrize(
    "left, right",
    [
        ("complete:2", "complete:2"),
        ("hypercube:2", "hypercube:2"),
        ("path:2", "path:3"),
        ("erdos_renyi:5,0.6,3", "cycle:4"),
        ("hypercube:2", "path:3"),  # labelled times unlabelled
        ("cycle:5", "knight_board:3,4"),  # unlabelled times labelled
        ("path:1", "johnson:4,2"),
        ("complete:3", "path:1"),
    ],
)
def test_cartesian_product_matches_the_loops(left, right):
    g, h = generate(parse_family_spec(left)), generate(parse_family_spec(right))
    product = cartesian_product(g, h)
    assert (product.n, product.edges, product.labels) == reference_product(g, h)


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, np.array(perm)[g.pairs])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), p=st.floats(0.0, 0.3), seed=st.integers(0, 2**32))
def test_is_connected_matches_bfs(n, p, seed):
    rng = random.Random(seed)
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    assert is_connected(Graph(n, edges)) == reference_is_connected(n, edges)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_is_connected_on_a_relabelled_long_path(seed):
    g = relabelled(generate(parse_family_spec("path:2000")), seed)
    assert is_connected(g) and reference_is_connected(g.n, g.edges)
    cut = Graph(g.n, g.pairs[np.arange(g.edge_count) != 1000])
    assert not is_connected(cut) and not reference_is_connected(cut.n, cut.edges)


def test_is_connected_on_one_vertex():
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(2, ()))


def test_equal_edge_sets_in_any_order_give_equal_graphs():
    pairs = [(0, 1), (2, 1), (3, 0), (1, 3), (0, 1)]
    graphs = [Graph(4, pairs), Graph(4, reversed(pairs)), Graph(4, frozenset(pairs)),
              Graph(4, [(v, u) for u, v in pairs]), Graph(4, np.array(pairs[::-1]))]
    assert all(g == graphs[0] and hash(g) == hash(graphs[0]) for g in graphs)
    assert Graph(4, pairs) != Graph(5, pairs)
    assert Graph(4, pairs) != Graph(4, pairs[:-2])
    assert Graph(4, pairs) != Graph(4, pairs, labels="abcd")
    assert Graph(4, pairs, labels="abcd") == Graph(4, pairs[::-1], labels=list("abcd"))


def test_graph_is_immutable():
    g = Graph(3, [(0, 1)])
    with pytest.raises(FrozenInstanceError):
        g.n = 4
    with pytest.raises(FrozenInstanceError):
        del g.pairs
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 2
    assert g.edges == {(0, 1)} and g.edges is g.edges
