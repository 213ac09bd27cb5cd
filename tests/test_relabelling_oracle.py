"""Relabelling a graph permutes its curvature and keeps its status.

The route through ``compute_curvature`` depends on the vertex order: the
lex-first column basis, the steered Cholesky factor and the max-min LP's
pivots all do. The answer must not. The unique solution, the leximin point
and the Moore-Penrose point are each defined without an order, so for every
status a relabelling ``perm`` (vertex i becomes ``perm[i]``) must keep the
status and ``nullspace_dimension`` and give ``w'[perm[i]] == w[i]``. The
entries are compared as exact rationals: ``(nums, den)`` need not be in
lowest terms, so two equal points can have different numerators. This
oracle holds at every size, where the Bareiss and sympy references cannot go.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqcurv import CurvatureStatus, Graph, compute_curvature, generate, parse_family_spec

UNIQUE, CANONICAL, INCONSISTENT = CurvatureStatus

# every status at the benchmark's sizes: singular knight boards and the 7x7
# one (inconsistent), both inconsistent multipartite graphs, wide kernels
# (hypercube:8 247, johnson:10,4 200, cycle:200 99) and two full-rank graphs
BENCHMARK_SIZE = ("knight_board:6,9", "knight_board:5,8", "knight_board:20,20", "knight_board:7,7",
                  "complete_multipartite:1,1,1,4", "complete_multipartite:1,1,1,1,3", "hypercube:8",
                  "johnson:10,4", "cycle:200", "erdos_renyi:150,0.08,1")


def relabelled_status(g: Graph, perm: np.ndarray) -> CurvatureStatus:
    """The curvature of ``g``, once ``perm`` is checked to permute it as it relabels ``g``."""
    h = Graph(g.n, perm[g.pairs])
    got, want = compute_curvature(h), compute_curvature(g)
    assert (got.status, got.nullspace_dimension) == (want.status, want.nullspace_dimension)
    # w'[perm[i]] == w[i]: nums'[perm[i]] / den' == nums[i] / den
    permuted = np.array(got.nums, dtype=object)[perm]
    assert (permuted * want.den == np.array(want.nums, dtype=object) * got.den).all()
    return want.status


def test_three_relabellings_of_every_connected_atlas_graph():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(19)
    statuses = Counter()
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            g = Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
            for _ in range(3):
                statuses[relabelled_status(g, rng.permutation(g.n))] += 1
    assert statuses == {UNIQUE: 3 * 787, CANONICAL: 3 * 206, INCONSISTENT: 3 * 2}


def test_two_relabellings_of_graphs_at_benchmark_sizes():
    rng = np.random.default_rng(19)
    statuses = Counter()
    for text in BENCHMARK_SIZE:
        g = generate(parse_family_spec(text))
        for _ in range(2):
            statuses[relabelled_status(g, rng.permutation(g.n))] += 1
    assert statuses == {UNIQUE: 4, CANONICAL: 10, INCONSISTENT: 6}


# small graphs of every status, with kernels at both ends of the vertex order
DRAWN = ("knight_board:7,7", "complete_multipartite:1,1,1,4", "complete_multipartite:4,1,1,1",
         "knight_board:5,8", "knight_board:3,4", "cycle:12", "path:9", "erdos_renyi:30,0.2,3")


@st.composite
def relabellings(draw):
    """``(spec, perm)``: one of ``DRAWN`` and a permutation of its vertices."""
    text = draw(st.sampled_from(DRAWN))
    n = generate(parse_family_spec(text)).n
    return text, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(case=relabellings())
# reversed, the kernel's dependent columns move from last to first, so the
# lex-first basis, the steered block and every LP pivot change
@example(case=("knight_board:7,7", list(range(48, -1, -1))))
@example(case=("complete_multipartite:1,1,1,4", list(range(6, -1, -1))))
@example(case=("knight_board:5,8", list(range(39, -1, -1))))
# a rotation is an automorphism: the same graph, the same w
@example(case=("cycle:12", [*range(1, 12), 0]))
# one swap of the two ends of a path
@example(case=("path:9", [8, *range(1, 8), 0]))
def test_a_drawn_relabelling_permutes_the_curvature(case):
    text, perm = case
    relabelled_status(generate(parse_family_spec(text)), np.array(perm))
