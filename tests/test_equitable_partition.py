"""The curvature is constant on every cell of the coarsest D-equitable partition.

A partition with indicator matrix P is equitable for D when ``D P = P B``
for an integer matrix B (Godsil and Royle, *Algebraic Graph Theory*, ch. 9).
Averaging within its cells maps the solutions of ``D w = n 1`` into
themselves and never lowers a vector in the leximin order, and it commutes
with D: so the unique solution, the leximin point and the pseudo-inverse
point are all constant on cells. Colour refinement here, on the test side,
finds the coarsest such partition; ``D P == P B`` certifies it in integers.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eqcurv import Graph, compute_curvature, generate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def equitable_cells(d: np.ndarray) -> np.ndarray:
    """Cell index per vertex of the coarsest D-equitable partition, certified by ``D P == P B``."""
    cells = np.zeros(len(d), dtype=np.int64)
    while True:
        counts = d @ np.eye(cells.max() + 1, dtype=np.int64)[cells]
        _, refined = np.unique(np.column_stack([cells, counts]), axis=0, return_inverse=True)
        refined = refined.ravel()
        if refined.max() == cells.max():
            break
        cells = refined
    p = np.eye(cells.max() + 1, dtype=np.int64)[cells]
    _, first = np.unique(cells, return_index=True)
    assert (d @ p == p @ (d @ p)[first]).all()
    return cells


def cells_with_constant_curvature(g: Graph) -> int:
    """The number of cells, once the curvature numerators are checked to be constant on each."""
    cells = equitable_cells(g.distance_matrix.entries)
    nums = np.array(compute_curvature(g).nums, dtype=object)
    for c in range(cells.max() + 1):
        assert len(set(nums[cells == c])) == 1
    return cells.max() + 1


def test_constant_on_the_cells_of_every_connected_atlas_graph():
    nx = pytest.importorskip("networkx")
    coarse = connected = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 2 and nx.is_connected(h):
            connected += 1
            g = Graph(h.number_of_nodes(), frozenset((min(e), max(e)) for e in h.edges()))
            coarse += cells_with_constant_curvature(g) < g.n
    assert (connected, coarse) == (995, 843)


def test_constant_on_the_cells_of_the_families_workload():
    specs = {item.spec for block in workloads.build_blocks("families", 1) for item in block}
    cells = Counter(cells_with_constant_curvature(generate(spec)) for spec in specs)
    # 27 vertex-transitive graphs, two complete multipartite ones with two
    # part sizes and knight_board:7,7 with 10 cells
    assert cells == {1: 27, 2: 2, 10: 1}
